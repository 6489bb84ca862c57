"""Tests for alternate hardware-engine operations (encryption)."""

from repro.core import DeviceBuffer, SmartDsDevice
from repro.core.engines import (
    decrypt_op,
    encrypt_op,
    lz4_compress_op,
    lz4_decompress_op,
)
from repro.net.message import Payload
from repro.sim import Simulator


def run_engine(operation, payload):
    sim = Simulator()
    device = SmartDsDevice(sim)
    engine = device.instance(0).engine
    src = DeviceBuffer(size=payload.size, payload=payload)
    dest = DeviceBuffer(size=payload.size + 64)
    out = {}

    def body():
        out["result"] = yield engine.run(src, payload.size, dest, operation=operation)

    sim.process(body())
    sim.run()
    return out["result"]


class TestEncryptionEngine:
    def test_encrypt_changes_bytes_and_preserves_size(self):
        payload = Payload.from_bytes(b"secret block" * 50)
        sealed = run_engine(encrypt_op, payload)
        assert sealed.size == payload.size
        assert sealed.data != payload.data

    def test_decrypt_roundtrip(self):
        payload = Payload.from_bytes(bytes(range(256)) * 16)
        sealed = run_engine(encrypt_op, payload)
        opened = run_engine(decrypt_op, sealed)
        assert opened.data == payload.data

    def test_synthetic_mode_size_preserving(self):
        payload = Payload.synthetic(4096, 2.0)
        assert encrypt_op(payload).size == 4096
        assert decrypt_op(payload).size == 4096


class TestOperationComposition:
    def test_compress_then_encrypt_then_invert(self):
        """An at-rest pipeline: LZ4 -> encrypt, inverted on the way back."""
        payload = Payload.from_bytes(b"compress me please " * 200)
        compressed = lz4_compress_op(payload)
        sealed = encrypt_op(compressed)
        assert sealed.size == compressed.size < payload.size
        opened = decrypt_op(sealed)
        restored = lz4_decompress_op(
            Payload(
                size=opened.size,
                data=opened.data,
                is_compressed=True,
                original_size=payload.size,
            )
        )
        assert restored.data == payload.data

    def test_engine_counters_track_alternate_ops(self):
        payload = Payload.from_bytes(b"counting" * 64)
        sim = Simulator()
        device = SmartDsDevice(sim)
        engine = device.instance(0).engine
        src = DeviceBuffer(size=payload.size, payload=payload)
        dest = DeviceBuffer(size=payload.size + 8)

        def body():
            yield engine.run(src, payload.size, dest, operation=encrypt_op)

        sim.process(body())
        sim.run()
        assert engine.blocks_processed.value == 1
        assert engine.bytes_out.value == payload.size
