"""Unit tests for messages, ports, and the RoCE transport."""

import pytest

from repro.compression import SilesiaLikeCorpus, lz4_compress, lz4_decompress
from repro.compression import lz4 as lz4_module
from repro.hostmodel import DdioLlc, MemorySubsystem
from repro.net import (
    Message,
    NetworkPort,
    Payload,
    RoceEndpoint,
    compress_payload,
    decompress_payload,
)
from repro.net import message as message_module
from repro.net.nic import HostNic
from repro.params import NetworkSpec
from repro.sim import Simulator
from repro.units import gbps, usec


def make_endpoint(sim, name, rate=gbps(100), spec=None):
    port = NetworkPort(sim, rate=rate, name=f"{name}.port")
    return RoceEndpoint(sim, port, name, spec=spec or NetworkSpec())


class TestPayload:
    def test_functional_compress_roundtrip(self):
        payload = Payload.from_bytes(b"block data " * 400)
        compressed = compress_payload(payload)
        assert compressed.is_compressed
        assert compressed.size < payload.size
        restored = decompress_payload(compressed)
        assert restored.data == payload.data

    def test_synthetic_compress_uses_ratio(self):
        payload = Payload.synthetic(4096, ratio=2.0)
        compressed = compress_payload(payload)
        assert compressed.size == 2048
        assert compressed.original_size == 4096
        restored = decompress_payload(compressed)
        assert restored.size == 4096

    def test_double_compress_rejected(self):
        compressed = compress_payload(Payload.synthetic(4096, 2.0))
        with pytest.raises(ValueError):
            compress_payload(compressed)

    def test_decompress_uncompressed_rejected(self):
        with pytest.raises(ValueError):
            decompress_payload(Payload.synthetic(4096, 2.0))

    def test_size_data_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Payload(size=10, data=b"abc")

    def test_invalid_ratio_rejected(self):
        with pytest.raises(ValueError):
            Payload(size=10, ratio=0.0)


@pytest.fixture
def memo(monkeypatch):
    """A fresh, empty compression memo for one test."""
    fresh = {}
    monkeypatch.setattr(message_module, "_COMPRESSED", fresh)
    return fresh


def count_calls(monkeypatch, module, name):
    """Wrap `module.name` so each call bumps the returned counter."""
    calls = [0]
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestCompressMemo:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_memo_returns_the_codec_blob_for_every_corpus_block(self, memo, seed):
        for block in SilesiaLikeCorpus(seed=seed).blocks(4096):
            first = compress_payload(Payload.from_bytes(block))
            repeat = compress_payload(Payload.from_bytes(block))
            assert first.data == lz4_compress(block)
            assert repeat.data is first.data
            assert (repeat.size, repeat.original_size) == (first.size, len(block))
            assert lz4_decompress(repeat.data) == block

    def test_memo_is_bounded_and_evicts_oldest_first(self, memo):
        cap = message_module._COMPRESSED_MAX
        blocks = [index.to_bytes(4, "big") * 8 for index in range(cap + 50)]
        for block in blocks:
            compress_payload(Payload.from_bytes(block))
        assert len(memo) == cap
        assert blocks[0] not in memo and blocks[-1] in memo

    def test_mutable_data_is_compressed_every_time(self, memo, monkeypatch):
        calls = count_calls(monkeypatch, message_module, "lz4_compress")
        data = bytearray(b"mutable block " * 300)
        for _ in range(2):
            compressed = compress_payload(Payload.from_bytes(data))
            assert compressed.data == lz4_compress(bytes(data))
            assert lz4_decompress(compressed.data) == data
        data[:7] = b"changed"
        assert lz4_decompress(compress_payload(Payload.from_bytes(data)).data) == data
        assert calls[0] == 3 and not memo

    def test_the_codec_itself_is_not_memoized(self, monkeypatch):
        calls = count_calls(monkeypatch, lz4_module, "_compress_vector")
        block = SilesiaLikeCorpus(seed=1).blocks(4096)[0]
        assert lz4_compress(block) == lz4_compress(block)
        assert calls[0] == 2

    def test_synthetic_payloads_bypass_the_memo(self, memo):
        compressed = compress_payload(Payload.synthetic(4096, ratio=2.0))
        assert (compressed.size, compressed.data) == (2048, None)
        assert not memo


class TestMessage:
    def test_size_sums_header_and_payload(self):
        msg = Message("write_request", "a", "b", header_size=64, payload=Payload.synthetic(4096, 2.0))
        assert msg.size == 4160
        assert msg.payload_size == 4096

    def test_header_only_message(self):
        msg = Message("storage_ack", "a", "b", header_size=64)
        assert msg.size == 64
        assert msg.payload_size == 0

    def test_reply_swaps_addresses_and_links_request(self):
        msg = Message("write_request", "vm", "tier")
        reply = msg.reply("write_reply", status="ok")
        assert reply.src == "tier" and reply.dst == "vm"
        assert reply.header["in_reply_to"] == msg.request_id
        assert reply.header["status"] == "ok"

    def test_request_ids_unique(self):
        a = Message("x", "a", "b")
        b = Message("x", "a", "b")
        assert a.request_id != b.request_id


class TestRoceTransport:
    def test_send_delivers_message(self):
        sim = Simulator()
        left = make_endpoint(sim, "left")
        right = make_endpoint(sim, "right")
        qp = left.connect(right)
        got = []

        def sender():
            yield qp.send(Message("ping", "left", "right"))

        def receiver():
            msg = yield qp.peer.recv()
            got.append((msg.kind, sim.now))

        sim.process(sender())
        sim.process(receiver())
        sim.run()
        assert got and got[0][0] == "ping"

    def test_delivery_in_order_per_qp(self):
        sim = Simulator()
        left = make_endpoint(sim, "left")
        right = make_endpoint(sim, "right")
        qp = left.connect(right)
        got = []

        def sender():
            for i in range(5):
                yield qp.send(Message("seq", "left", "right", header={"i": i}))

        def receiver():
            for _ in range(5):
                msg = yield qp.peer.recv()
                got.append(msg.header["i"])

        sim.process(sender())
        sim.process(receiver())
        sim.run()
        assert got == [0, 1, 2, 3, 4]

    def test_latency_includes_serialization_and_switch(self):
        sim = Simulator()
        spec = NetworkSpec(port_rate=gbps(100), switch_latency=usec(1.5), roce_overhead_bytes=0)
        left = make_endpoint(sim, "left", spec=spec)
        right = make_endpoint(sim, "right", spec=spec)
        qp = left.connect(right)
        done = []

        def sender():
            yield qp.send(Message("data", "l", "r", header_size=0, payload=Payload.synthetic(12500, 1.0)))
            done.append(sim.now)

        sim.process(sender())
        sim.run()
        # 12500 B at 12.5 GB/s = 1 us serialization per hop, + 1.5 us switch.
        assert done[0] == pytest.approx(usec(1.0 + 1.5 + 1.0), rel=0.01)

    def test_port_contention_backpressures_senders(self):
        sim = Simulator()
        spec = NetworkSpec(port_rate=1000.0, switch_latency=0.0, roce_overhead_bytes=0)
        receiver = make_endpoint(sim, "rx", rate=1000.0, spec=spec)
        finish = []

        def sender(name):
            endpoint = make_endpoint(sim, name, rate=1000.0, spec=spec)
            qp = endpoint.connect(receiver)
            yield qp.send(Message("data", name, "rx", header_size=0, payload=Payload.synthetic(1000, 1.0)))
            finish.append(sim.now)

        sim.process(sender("a"))
        sim.process(sender("b"))
        sim.run()
        # Both serialize at their own tx in parallel (1 s), but the shared
        # rx port serializes them: second completes ~1 s after the first.
        assert finish[0] == pytest.approx(2.0, rel=0.01)
        assert finish[1] == pytest.approx(3.0, rel=0.01)

    def test_meters_count_wire_bytes(self):
        sim = Simulator()
        spec = NetworkSpec(roce_overhead_bytes=60)
        left = make_endpoint(sim, "left", spec=spec)
        right = make_endpoint(sim, "right", spec=spec)
        qp = left.connect(right)

        def sender():
            yield qp.send(Message("data", "l", "r", header_size=64, payload=Payload.synthetic(4096, 1.0)))

        sim.process(sender())
        sim.run()
        assert left.port.tx_meter.total_bytes == 4096 + 64 + 60
        assert right.port.rx_meter.total_bytes == 4096 + 64 + 60

    def test_cross_simulator_connect_rejected(self):
        sim_a, sim_b = Simulator(), Simulator()
        left = make_endpoint(sim_a, "left")
        right = make_endpoint(sim_b, "right")
        with pytest.raises(Exception):
            left.connect(right)


class TestHostNic:
    def test_ingress_charges_pcie_and_memory(self):
        sim = Simulator()
        memory = MemorySubsystem.for_host(sim)
        llc = DdioLlc()
        nic = HostNic(sim, "host", memory, llc)
        client = make_endpoint(sim, "client")
        qp = client.connect(nic.endpoint)
        got = []

        def sender():
            yield qp.send(Message("w", "c", "h", payload=Payload.synthetic(4096, 2.0)))

        def receiver():
            msg = yield qp.peer.recv()
            got.append(msg)

        sim.process(sender())
        sim.process(receiver())
        sim.run()
        assert got
        assert nic.pcie.d2h_meter.total_bytes >= 4160  # DMA write of the message
        # The 400 MB intermediate buffer defeats DDIO: DRAM sees the write.
        assert memory.write_meter.total_bytes >= 4160

    def test_egress_charges_memory_read_and_pcie(self):
        sim = Simulator()
        memory = MemorySubsystem.for_host(sim)
        llc = DdioLlc()
        nic = HostNic(sim, "host", memory, llc)
        sink = make_endpoint(sim, "sink")
        qp = nic.endpoint.connect(sink)

        def sender():
            yield qp.send(Message("w", "h", "s", payload=Payload.synthetic(4096, 2.0)))

        sim.process(sender())
        sim.run()
        assert memory.read_meter.total_bytes >= 4160
        assert nic.pcie.h2d_meter.total_bytes >= 4160
