"""The SoC-based SmartNIC middle tier (Fig. 1d) — BlueField-2.

Everything runs on the SmartNIC: wimpy Arm cores parse headers, the
on-board compression engine (~40 Gb/s) processes payloads, and the
payload crosses the card's weak DDR several times (§3.4). No host
involvement means the lowest unloaded latency, but the engine and the
device memory cap throughput far below the networking ability.
"""

from __future__ import annotations

import typing

from repro.compression.model import BF2_ENGINE, CompressorProfile
from repro.hostmodel.memory import MemorySubsystem
from repro.middletier.base import MiddleTierServer
from repro.middletier.cluster import Testbed
from repro.net.link import NetworkPort
from repro.net.message import Message, Payload, compress_payload
from repro.net.roce import Datapath, QueuePair, RoceEndpoint
from repro.sim.resources import Resource
from repro.units import kib

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator


class DeviceMemoryDatapath(Datapath):
    """Every message lands in / departs from the SmartNIC's own DRAM."""

    def __init__(self, device_memory: MemorySubsystem) -> None:
        self.device_memory = device_memory

    def ingress(self, message: Message, qp: QueuePair) -> typing.Generator:
        yield self.device_memory.write(message.size)
        return False

    def egress(self, message: Message, qp: QueuePair) -> typing.Generator:
        yield self.device_memory.read(message.size)
        return None


class OnBoardEngineTier(MiddleTierServer):
    """Engine datapath shared by the designs whose payloads stay in
    on-board device memory and compress on the card's engine pool:
    BF2 and FPGA-only. They differ in who parses the header.

    A subclass's ``_build`` creates ``device_memory`` and ``engine`` (a
    :class:`Resource` of engine slots); its ``__init__`` sets the engine
    profile and the header parse time.
    """

    _engine_profile: CompressorProfile
    _parse_time: float

    def _handle_write(
        self, worker_index: int, qp: QueuePair, message: Message
    ) -> typing.Generator:
        if message.payload is None:
            raise ValueError("write_request without payload")
        # Parse the header in place (a few bytes of device memory), hand
        # the block to the engine pool, and move on to the next message.
        yield self.sim.timeout(self._parse_time)
        self.sim.process(self._compress_and_complete(qp, message))

    def _compress_and_complete(self, qp: QueuePair, message: Message) -> typing.Generator:
        payload = message.payload
        if message.header.get("latency_sensitive") or not self._compression_allowed():
            outgoing = payload
        else:
            outgoing = yield self.sim.process(self._engine_compress(payload))
        self._spawn_completion(qp, message, outgoing)

    def _engine_compress(self, payload: Payload) -> typing.Generator:
        """Off-path engine: device-memory read, compress, device-memory
        write (§3.4's passes)."""
        yield self.device_memory.read(payload.size)
        yield from self._engine_pass(self.engine, self._engine_profile, payload.size)
        outgoing = compress_payload(payload)
        yield self.device_memory.write(outgoing.size)
        return outgoing

    def _decompress_cost(self, worker_index: int, payload: Payload) -> typing.Generator:
        yield self.device_memory.read(payload.size)
        yield from self._engine_pass(self.engine, self._engine_profile, payload.size)
        yield self.device_memory.write(payload.original_size or payload.size)


class BlueField2MiddleTier(OnBoardEngineTier):
    """The paper's "BF2" baseline: SoC SmartNIC with on-board engine."""

    design_name = "BF2"
    #: control plane runs on embedded Arm cores — flexible but wimpy.
    flexible = True

    def __init__(
        self,
        sim: "Simulator",
        testbed: Testbed,
        n_workers: int,
        address: str = "tier0",
        engine_profile: CompressorProfile = BF2_ENGINE,
    ) -> None:
        arm_cores = testbed.platform.bluefield2.arm_cores
        if n_workers > arm_cores:
            raise ValueError(f"BlueField-2 has {arm_cores} Arm cores, asked for {n_workers}")
        self._engine_profile = engine_profile
        self._parse_time = testbed.platform.bluefield2.arm_parse_time  # Arm core
        super().__init__(sim, testbed, n_workers, address=address)

    def _build(self) -> None:
        spec = self.platform.bluefield2
        self.device_memory = MemorySubsystem(
            self.sim,
            rate=spec.device_memory_rate,
            lanes=spec.device_memory_lanes,
            chunk=kib(64),
            name=f"{self.address}.ddr",
        )
        self.port = NetworkPort(
            self.sim, rate=self.platform.network.port_rate, name=f"{self.address}.port"
        )
        datapath = DeviceMemoryDatapath(self.device_memory)
        endpoint = RoceEndpoint(
            self.sim, self.port, self.address, datapath=datapath, spec=self.platform.network
        )
        self.engine = Resource(self.sim, capacity=1, name=f"{self.address}.engine")
        self.client_endpoint = endpoint
        self.storage_endpoint = endpoint


class BlueField3MiddleTier(MiddleTierServer):
    """The upcoming BlueField-3 as a middle tier (§3.4's thought experiment).

    No compression engine: the 16 Arm cores do LZ4 themselves at a
    combined ~50 Gb/s against 400 Gb/s of networking. The design shows
    exactly the mismatch the paper argues — plenty of ports, not enough
    compute or device-memory bandwidth behind them.
    """

    design_name = "BF3"
    flexible = True

    def __init__(
        self,
        sim: "Simulator",
        testbed: Testbed,
        n_workers: int | None = None,
        address: str = "tier0",
    ) -> None:
        spec = testbed.platform.bluefield3
        workers = spec.arm_cores if n_workers is None else n_workers
        if workers > spec.arm_cores:
            raise ValueError(f"BlueField-3 has {spec.arm_cores} Arm cores, asked for {workers}")
        super().__init__(sim, testbed, workers, address=address)

    def _build(self) -> None:
        spec = self.platform.bluefield3
        self.device_memory = MemorySubsystem(
            self.sim,
            rate=spec.device_memory_rate,
            lanes=spec.device_memory_lanes,
            chunk=kib(64),
            name=f"{self.address}.ddr",
        )
        self.port = NetworkPort(self.sim, rate=spec.port_rate, name=f"{self.address}.port")
        endpoint = RoceEndpoint(
            self.sim,
            self.port,
            self.address,
            datapath=DeviceMemoryDatapath(self.device_memory),
            spec=self.platform.network,
        )
        self.client_endpoint = endpoint
        self.storage_endpoint = endpoint

    def _handle_write(
        self, worker_index: int, qp: QueuePair, message: Message
    ) -> typing.Generator:
        spec = self.platform.bluefield3
        payload = message.payload
        if payload is None:
            raise ValueError("write_request without payload")
        yield self.sim.timeout(spec.arm_parse_time)
        if message.header.get("latency_sensitive") or not self._compression_allowed():
            outgoing = payload
        else:
            # Compression runs ON the Arm core: the worker is busy for
            # the whole block (this is the §3.4 bottleneck).
            yield self.device_memory.read(payload.size)
            yield self.sim.timeout(payload.size / spec.per_core_compression_rate)
            outgoing = compress_payload(payload)
            yield self.device_memory.write(outgoing.size)
        self._spawn_completion(qp, message, outgoing)

    def _decompress_cost(self, worker_index: int, payload: Payload) -> typing.Generator:
        spec = self.platform.bluefield3
        original = payload.original_size or payload.size
        yield self.device_memory.read(payload.size)
        # Arm decompression, ~7x faster than compression (§2.2.3).
        yield self.sim.timeout(original / (spec.per_core_compression_rate * 7))
        yield self.device_memory.write(original)
