"""The naive FPGA SmartNIC middle tier (Fig. 1c).

Both the control logic *and* the compression are cast into FPGA
hardware: headers are parsed by gateware, payloads never leave device
memory, and the host CPU is not involved at all. Throughput is
excellent — the design's fatal flaw is flexibility (§3.3): the control
plane that clouds update ~7 times in 4 months is frozen into hardware,
which this class records as ``flexible = False``.
"""

from __future__ import annotations

import typing

from repro.compression.model import FPGA_ENGINE, CompressorProfile
from repro.hostmodel.memory import MemorySubsystem
from repro.middletier.cluster import Testbed
from repro.middletier.soc_smartnic import DeviceMemoryDatapath, OnBoardEngineTier
from repro.net.link import NetworkPort
from repro.net.roce import RoceEndpoint
from repro.sim.resources import Resource
from repro.units import kib

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator


class NaiveFpgaMiddleTier(OnBoardEngineTier):
    """Everything-in-gateware offload; the paper's Fig. 1c strawman."""

    design_name = "FPGA-only"
    #: the control plane is hardware: fast, but it cannot iterate.
    flexible = False

    def __init__(
        self,
        sim: "Simulator",
        testbed: Testbed,
        n_workers: int = 1,
        address: str = "tier0",
        engine_profile: CompressorProfile = FPGA_ENGINE,
    ) -> None:
        self._engine_profile = engine_profile
        self._parse_time = testbed.platform.smartds.hw_parse_time  # gateware
        # `n_workers` is the number of parallel hardware pipelines, each
        # with a dedicated compression engine.
        super().__init__(sim, testbed, n_workers, address=address)

    def _build(self) -> None:
        spec = self.platform.smartds  # same VCU128 board as SmartDS
        self.device_memory = MemorySubsystem(
            self.sim,
            rate=spec.hbm_rate,
            lanes=spec.hbm_lanes,
            chunk=kib(64),
            name=f"{self.address}.hbm",
        )
        self.port = NetworkPort(
            self.sim, rate=self.platform.network.port_rate, name=f"{self.address}.port"
        )
        endpoint = RoceEndpoint(
            self.sim,
            self.port,
            self.address,
            datapath=DeviceMemoryDatapath(self.device_memory),
            spec=self.platform.network,
        )
        # One compression engine per hardware pipeline; blocks stream
        # through them (the engine's setup latency pipelines).
        self.engine = Resource(self.sim, capacity=self.n_workers, name=f"{self.address}.engines")
        self.client_endpoint = endpoint
        self.storage_endpoint = endpoint
