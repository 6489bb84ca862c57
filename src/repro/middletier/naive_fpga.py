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
from repro.middletier.base import MiddleTierServer
from repro.middletier.cluster import Testbed
from repro.middletier.soc_smartnic import ENGINE_LEGS, build_card
from repro.sim.resources import Resource

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator


class NaiveFpgaMiddleTier(MiddleTierServer):
    """Everything-in-gateware offload; the paper's Fig. 1c strawman."""

    design_name = "FPGA-only"
    #: the control plane is hardware: fast, but it cannot iterate.
    flexible = False
    # Gateware parses the header in place and hands the block to the
    # engine pool; payloads never leave device memory.
    write_legs = read_legs = ENGINE_LEGS
    offload = True

    def __init__(
        self,
        sim: "Simulator",
        testbed: Testbed,
        n_workers: int = 1,
        address: str = "tier0",
        engine_profile: CompressorProfile = FPGA_ENGINE,
    ) -> None:
        self._engine_profile = engine_profile
        # `n_workers` is the number of parallel hardware pipelines, each
        # with a dedicated compression engine.
        super().__init__(sim, testbed, n_workers, address=address)

    @property
    def parse_time(self) -> float:
        return self.platform.smartds.hw_parse_time  # gateware

    def _build(self) -> None:
        spec = self.platform.smartds  # same VCU128 board as SmartDS
        port_rate = self.platform.network.port_rate
        build_card(self, spec.hbm_rate, spec.hbm_lanes, "hbm", port_rate)
        # One compression engine per hardware pipeline; blocks stream
        # through them (the engine's setup latency pipelines).
        self.engine = Resource(self.sim, capacity=self.n_workers, name=f"{self.address}.engines")
