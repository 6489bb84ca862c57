"""Table 1: PCIe latency under different pressure.

The paper's microbenchmark uses an FPGA's DMA to read from / write to
host memory while the PCIe link is under-loaded vs heavily loaded, and
reports H2D (DMA read) and D2H (DMA write) latency. We reproduce the
methodology: background DMA streams saturate both directions, then a
probe measures DMA latency.

Paper's rows: under-loaded 1.4 / 1.4 us; heavily loaded 11.3 / 6.6 us
(reads suffer more because each completion chunk re-queues behind the
background stream).
"""

from __future__ import annotations

import typing

from repro.experiments.common import ExperimentResult
from repro.hostmodel.pcie import PcieLink
from repro.params import DEFAULT_PLATFORM, PlatformSpec
from repro.sim import Simulator
from repro.telemetry.reporting import format_table
from repro.units import kib, to_usec, usec


def _measure(
    platform: PlatformSpec,
    loaded: bool,
    probes: int,
    background_streams: int = 4,
    background_chunk: int = kib(32),
) -> tuple[float, float]:
    """Mean (H2D, D2H) DMA latency in microseconds."""
    sim = Simulator()
    link = PcieLink(sim, platform.host)
    h2d_samples: list[float] = []
    d2h_samples: list[float] = []

    def background_reader() -> typing.Generator:
        while True:
            yield from link.dma_read(background_chunk)

    def background_writer() -> typing.Generator:
        while True:
            yield from link.dma_write(background_chunk)

    def prober() -> typing.Generator:
        yield sim.timeout(usec(100))  # let the background reach steady state
        for _ in range(probes):
            start = sim.now
            yield from link.dma_read(kib(4))
            h2d_samples.append(sim.now - start)
            start = sim.now
            yield from link.dma_write(kib(4))
            d2h_samples.append(sim.now - start)
            yield sim.timeout(usec(5))

    if loaded:
        for _ in range(background_streams):
            sim.process(background_reader())
            sim.process(background_writer())
    done = sim.process(prober())
    sim.run(until=done)
    mean = lambda xs: sum(xs) / len(xs)  # noqa: E731 - tiny local helper
    return to_usec(mean(h2d_samples)), to_usec(mean(d2h_samples))


def run(quick: bool = False, platform: PlatformSpec | None = None) -> ExperimentResult:
    """Regenerate Table 1."""
    platform = platform or DEFAULT_PLATFORM
    probes = 20 if quick else 200
    idle_h2d, idle_d2h = _measure(platform, loaded=False, probes=probes)
    busy_h2d, busy_d2h = _measure(platform, loaded=True, probes=probes)
    rows = [
        ["Under Loaded", round(idle_h2d, 1), round(idle_d2h, 1)],
        ["Heavily Loaded", round(busy_h2d, 1), round(busy_d2h, 1)],
    ]
    text = format_table(["", "H2D Latency (us)", "D2H Latency (us)"], rows)
    return ExperimentResult(
        experiment_id="table1",
        title="PCIe latency under different pressure",
        text=text,
        data={
            "under_loaded": {"h2d_us": idle_h2d, "d2h_us": idle_d2h},
            "heavily_loaded": {"h2d_us": busy_h2d, "d2h_us": busy_d2h},
            "paper": {
                "under_loaded": {"h2d_us": 1.4, "d2h_us": 1.4},
                "heavily_loaded": {"h2d_us": 11.3, "d2h_us": 6.6},
            },
        },
    )
