"""Figure 4: RDMA throughput at different memory pressure levels.

The paper's microbenchmark: all 48 logical cores run Intel MLC
injecting dummy memory requests with a configurable delay, while a
one-sided-RDMA packet forwarder (4 MB messages, 100 GbE) moves data
through the same host memory. As the delay shrinks (pressure rises),
RDMA throughput collapses to ~46 % of its uncontended value.

We reproduce the methodology exactly: an
:class:`~repro.workloads.mlc.MlcInjector` with a delay sweep shares the
memory subsystem with a forwarding loop that writes each received chunk
to memory and reads it back out for transmission.
"""

from __future__ import annotations

import typing

from repro.experiments.common import ExperimentResult
from repro.hostmodel.memory import MemorySubsystem
from repro.params import DEFAULT_PLATFORM, PlatformSpec
from repro.sim import BandwidthServer, Simulator
from repro.telemetry.metrics import BandwidthMeter
from repro.telemetry.reporting import Series, format_table
from repro.units import kib, msec, to_gBps, to_gbps, usec
from repro.workloads import MlcInjector

#: The delays swept, in seconds (0 = maximum pressure). The paper's axis
#: is in cycles between injections; these cover the same dynamic range,
#: from idle-ish (100 us between injections) to back-to-back.
DELAY_SWEEP = (0.0, usec(1), usec(5), usec(10), usec(20), usec(50), usec(100))


def _forwarding_run(
    platform: PlatformSpec,
    mlc_threads: int,
    delay: float,
    duration: float,
    window: int = 6,
    chunk: int = kib(64),
) -> tuple[float, float]:
    """Achieved (RDMA Gb/s, MLC GB/s) under one pressure level.

    `window` is the NIC's DMA pipeline depth: how many chunks can be in
    flight between receive and transmit. A real NIC has little on-chip
    buffering, so when host-memory accesses stall under pressure the
    pipeline drains and the NIC goes idle — that is the collapse Fig. 4
    measures.
    """
    sim = Simulator()
    memory = MemorySubsystem.for_host(sim, platform.host)
    rx = BandwidthServer(sim, rate=platform.network.port_rate, name="nic.rx")
    tx = BandwidthServer(sim, rate=platform.network.port_rate, name="nic.tx")
    rdma_meter = BandwidthMeter("rdma")

    def forwarder() -> typing.Generator:
        # One in-flight chunk per window slot: receive (NIC), buffer in
        # memory, read back out, transmit (NIC).
        while True:
            yield rx.transfer(chunk)
            yield from memory.write(chunk)
            yield from memory.read(chunk)
            yield tx.transfer(chunk)
            rdma_meter.record(sim.now, chunk)

    for _ in range(window):
        sim.process(forwarder())
    # MLC at cache-line granularity would be millions of events; inject
    # the same bandwidth in 64 KB strides instead.
    mlc = MlcInjector(sim, memory, n_threads=mlc_threads, delay=delay, chunk=kib(64))
    mlc.start()
    sim.run(until=duration)
    return to_gbps(rdma_meter.rate(duration)), to_gBps(mlc.meter.rate(duration))


def run(quick: bool = False, platform: PlatformSpec | None = None) -> ExperimentResult:
    """Regenerate Fig. 4 (RDMA + MLC throughput vs injection delay)."""
    platform = platform or DEFAULT_PLATFORM
    duration = msec(0.5) if quick else msec(2)
    mlc_threads = platform.host.logical_cores  # all cores run MLC
    delays = DELAY_SWEEP[:4] if quick else DELAY_SWEEP

    baseline_rdma, _ = _forwarding_run(platform, mlc_threads=0, delay=0.0, duration=duration)
    rows = [["no MLC", round(baseline_rdma, 1), 0.0, 1.0]]
    points = []
    for delay in sorted(delays, reverse=True):  # pressure rising left to right
        rdma, mlc_bw = _forwarding_run(platform, mlc_threads, delay, duration)
        fraction = rdma / baseline_rdma
        rows.append([f"{delay * 1e6:.2f} us", round(rdma, 1), round(mlc_bw, 1), round(fraction, 2)])
        points.append((delay, rdma, mlc_bw, fraction))

    text = format_table(
        ["MLC delay", "RDMA (Gb/s)", "MLC (GB/s)", "fraction of baseline"], rows
    )
    min_fraction = min(fraction for _, _, _, fraction in points)
    return ExperimentResult(
        experiment_id="fig4",
        title="RDMA throughput at different memory pressure levels",
        text=text,
        data={
            "baseline_rdma_gbps": baseline_rdma,
            "series": Series.from_points(
                "rdma", [(delay, rdma) for delay, rdma, _, _ in points]
            ),
            "mlc_series": Series.from_points(
                "mlc", [(delay, bw) for delay, _, bw, _ in points]
            ),
            "min_fraction": min_fraction,
            "paper": {"min_fraction": 0.46},
        },
    )
