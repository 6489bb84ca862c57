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
from repro.net.message import Message
from repro.net.roce import Datapath, QueuePair, RoceEndpoint
from repro.sim.resources import Resource
from repro.units import kib

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator

#: An on-board engine pass in device memory, both ways (§3.4's passes):
#: read the payload, stream it through an engine slot, write the result.
ENGINE_LEGS = (("device_memory.read", "in"), ("engine", "in"), ("device_memory.write", "out"))


class DeviceMemoryDatapath(Datapath):
    """Every message lands in / departs from the SmartNIC's own DRAM."""

    def __init__(self, device_memory: MemorySubsystem) -> None:
        self.device_memory = device_memory

    def ingress(self, message: Message, qp: QueuePair) -> typing.Generator:
        yield from self.device_memory.write(message.size)
        return False

    def egress(self, message: Message, qp: QueuePair) -> typing.Generator:
        yield from self.device_memory.read(message.size)
        return None


def build_card(
    tier: MiddleTierServer, rate: float, lanes: int, memory_name: str, port_rate: float
) -> None:
    """Give a SmartNIC `tier` its card: device memory, one network port,
    and one endpoint whose messages land in that memory."""
    tier.device_memory = MemorySubsystem(
        tier.sim, rate=rate, lanes=lanes, chunk=kib(64), name=f"{tier.address}.{memory_name}"
    )
    tier.port = NetworkPort(tier.sim, rate=port_rate, name=f"{tier.address}.port")
    endpoint = RoceEndpoint(
        tier.sim,
        tier.port,
        tier.address,
        datapath=DeviceMemoryDatapath(tier.device_memory),
        spec=tier.platform.network,
    )
    tier.client_endpoint = endpoint
    tier.storage_endpoint = endpoint


class BlueField2MiddleTier(MiddleTierServer):
    """The paper's "BF2" baseline: SoC SmartNIC with on-board engine."""

    design_name = "BF2"
    #: control plane runs on embedded Arm cores — flexible but wimpy.
    flexible = True
    # An Arm core parses the header in place and hands the block to the
    # engine; nothing touches the host.
    write_legs = read_legs = ENGINE_LEGS
    offload = True

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
        super().__init__(sim, testbed, n_workers, address=address)

    @property
    def parse_time(self) -> float:
        return self.platform.bluefield2.arm_parse_time

    def _build(self) -> None:
        spec = self.platform.bluefield2
        port_rate = self.platform.network.port_rate
        build_card(self, spec.device_memory_rate, spec.device_memory_lanes, "ddr", port_rate)
        self.engine = Resource(self.sim, capacity=1, name=f"{self.address}.engine")


class BlueField3MiddleTier(MiddleTierServer):
    """The upcoming BlueField-3 as a middle tier (§3.4's thought experiment).

    No compression engine: the 16 Arm cores do LZ4 themselves at a
    combined ~50 Gb/s against 400 Gb/s of networking. The design shows
    exactly the mismatch the paper argues — plenty of ports, not enough
    compute or device-memory bandwidth behind them.
    """

    design_name = "BF3"
    flexible = True
    # Compression runs ON the Arm core: the worker is busy for the whole
    # block (this is the §3.4 bottleneck).
    write_legs = (("device_memory.read", "in"), ("cores", "in"), ("device_memory.write", "out"))
    read_legs = (("device_memory.read", "in"), ("cores", "out"), ("device_memory.write", "out"))

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
        self.core_rates = [spec.per_core_compression_rate] * workers
        super().__init__(sim, testbed, workers, address=address)

    @property
    def parse_time(self) -> float:
        return self.platform.bluefield3.arm_parse_time

    def _build(self) -> None:
        spec = self.platform.bluefield3
        build_card(self, spec.device_memory_rate, spec.device_memory_lanes, "ddr", spec.port_rate)
