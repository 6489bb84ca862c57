"""Offloaded hardware engines (§4.1, "Offloaded hardware engine").

An engine follows the paper's simple I/O mechanism: it fetches data
from device memory, processes it, and writes the result back to device
memory. SmartDS instantiates one LZ4 compression engine per networking
port, each able to consume 4 KB blocks at 100 Gb/s; the same class can
host other computations (the paper's "simple interface to deploy
different hardware engines").
"""

from __future__ import annotations

import typing

from repro.compression.model import FPGA_ENGINE, CompressorProfile
from repro.net.message import Payload, compress_payload, decompress_payload
from repro.sim.resources import Resource
from repro.telemetry.metrics import Counter

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.device import DeviceBuffer, SmartDsDevice
    from repro.sim.debug import FaultPlan
    from repro.sim.process import Process


def lz4_compress_op(payload: Payload) -> Payload:
    """The default engine operation: LZ4 block compression."""
    return compress_payload(payload)


def lz4_decompress_op(payload: Payload) -> Payload:
    """Inverse engine operation, used on the read path."""
    return decompress_payload(payload)


def checksum_op(payload: Payload) -> Payload:
    """A non-compressing engine: append a CRC32 trailer to the block.

    Demonstrates the paper's claim that SmartDS "provides a simple
    interface to deploy different hardware engines according to the
    application scenario" — here an integrity engine instead of LZ4.
    """
    import zlib

    if payload.data is not None:
        crc = zlib.crc32(payload.data)
        data = payload.data + crc.to_bytes(4, "little")
        return Payload(size=len(data), ratio=payload.ratio, data=data)
    return Payload(size=payload.size + 4, ratio=payload.ratio)


def verify_checksum_op(payload: Payload) -> Payload:
    """Inverse of :func:`checksum_op`: strip and verify the trailer."""
    import zlib

    if payload.size < 4:
        raise ValueError("payload too small to carry a CRC32 trailer")
    if payload.data is not None:
        body, trailer = payload.data[:-4], payload.data[-4:]
        if zlib.crc32(body) != int.from_bytes(trailer, "little"):
            raise ValueError("checksum mismatch: block corrupted in flight")
        return Payload(size=len(body), ratio=payload.ratio, data=body)
    return Payload(size=payload.size - 4, ratio=payload.ratio)


def encrypt_op(payload: Payload) -> Payload:
    """An at-rest-encryption engine (XTS stand-in: keyed byte rotation).

    Size-preserving, invertible via :func:`decrypt_op`. Real silicon
    would run AES-XTS at line rate with the same simulation profile; the
    transformation here just has to be a real bijection so functional
    tests can verify the datapath end to end.
    """
    if payload.data is not None:
        data = bytes((b + 0x5A + (i & 0x7F)) & 0xFF for i, b in enumerate(payload.data))
        return Payload(size=len(data), ratio=payload.ratio, data=data)
    return Payload(size=payload.size, ratio=payload.ratio)


def decrypt_op(payload: Payload) -> Payload:
    """Inverse of :func:`encrypt_op`."""
    if payload.data is not None:
        data = bytes((b - 0x5A - (i & 0x7F)) & 0xFF for i, b in enumerate(payload.data))
        return Payload(size=len(data), ratio=payload.ratio, data=data)
    return Payload(size=payload.size, ratio=payload.ratio)


class HardwareEngine:
    """One engine instance attached to a SmartDS device."""

    def __init__(
        self,
        device: "SmartDsDevice",
        index: int,
        profile: CompressorProfile = FPGA_ENGINE,
        operation: typing.Callable[[Payload], Payload] = lz4_compress_op,
        name: str | None = None,
        fault_plan: "FaultPlan | None" = None,
    ) -> None:
        self.device = device
        self.sim = device.sim
        self.index = index
        self.profile = profile
        self.operation = operation
        self.name = name or f"{device.name}.engine{index}"
        self._unit = Resource(self.sim, capacity=1, name=self.name)
        #: Deterministic fault schedule; slowdown windows stretch occupancy.
        self.fault_plan = fault_plan
        self.blocks_processed = Counter(f"{self.name}.blocks")
        self.bytes_in = Counter(f"{self.name}.bytes-in")
        self.bytes_out = Counter(f"{self.name}.bytes-out")

    def run(
        self,
        src: "DeviceBuffer",
        src_size: int,
        dest: "DeviceBuffer",
        operation: typing.Callable[[Payload], Payload] | None = None,
        flow: str | None = None,
    ) -> "Process":
        """Process `src_size` bytes from `src` into `dest`.

        `operation` overrides the engine's default computation for this
        invocation (e.g. decompression on the read path). The returned
        process fires with the output :class:`Payload` after the result
        is back in device memory and the host has been notified over
        PCIe.
        """
        return self.sim.process(self._run(src, src_size, dest, operation, flow), name=self.name)

    def _run(
        self,
        src: "DeviceBuffer",
        src_size: int,
        dest: "DeviceBuffer",
        operation: typing.Callable[[Payload], Payload] | None,
        flow: str | None = None,
    ) -> typing.Generator:
        payload = src.payload
        if payload is None:
            raise ValueError(f"{self.name}: source buffer holds no payload")
        if src_size > src.size:
            raise ValueError(f"{self.name}: src_size {src_size} exceeds buffer {src.size}")
        # Fetch input from device memory.
        yield from self.device.hbm.read(src_size, flow=flow)
        # Stream through the engine; setup latency pipelines (it delays
        # this block without stalling the next one).
        slot = self._unit.request()
        yield slot
        try:
            occupancy = self.profile.occupancy_time(src_size)
            if self.fault_plan is not None:
                occupancy *= self.fault_plan.slowdown(self.sim.now)
            yield self.sim.timeout(occupancy)
        finally:
            self._unit.release(slot)
        if self.profile.setup_time:
            yield self.sim.timeout(self.profile.setup_time)
        result = (operation or self.operation)(payload)
        if result.size > dest.size:
            raise ValueError(
                f"{self.name}: result ({result.size} B) exceeds dest buffer ({dest.size} B)"
            )
        # Write the result back to device memory and notify the host.
        yield from self.device.hbm.write(result.size, flow=flow)
        dest.payload = result
        yield from self.device.pcie.dma_write(self.device.spec.notify_bytes)
        self.blocks_processed.add()
        self.bytes_in.add(src_size)
        self.bytes_out.add(result.size)
        return result
