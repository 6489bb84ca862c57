"""Intel-MLC-style memory pressure injector.

Reproduces the methodology of §3.1.2 and §5.3: N threads inject dummy
memory requests into the memory subsystem, with a configurable delay
between requests controlling the pressure level (delay 0 = maximum
pressure). The injector meters its own achieved bandwidth, which the
paper reports alongside the victim's throughput (Fig. 9a).
"""

from __future__ import annotations

import typing

from repro.hostmodel.memory import MemorySubsystem
from repro.telemetry.metrics import BandwidthMeter

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator


class MlcInjector:
    """N software threads hammering the memory subsystem."""

    def __init__(
        self,
        sim: "Simulator",
        memory: MemorySubsystem,
        n_threads: int,
        delay: float,
        chunk: int = 16 * 1024,
        read_fraction: float = 0.5,
    ) -> None:
        if n_threads < 0:
            raise ValueError(f"negative thread count {n_threads}")
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        if chunk < 1:
            raise ValueError(f"chunk must be positive, got {chunk}")
        if not 0.0 <= read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0, 1]")
        self.sim = sim
        self.memory = memory
        self.n_threads = n_threads
        self.delay = delay
        self.chunk = chunk
        self.read_fraction = read_fraction
        self.meter = BandwidthMeter("mlc")
        self._running = False

    def start(self) -> None:
        """Launch the injector threads (idempotent)."""
        if self._running:
            return
        self._running = True
        for index in range(self.n_threads):
            self.sim.process(self._thread(index), name=f"mlc{index}")

    def stop(self) -> None:
        """Ask the threads to stop after their current request."""
        self._running = False

    def _thread(self, index: int) -> typing.Generator:
        # Interleave reads and writes deterministically at read_fraction.
        period = 10
        reads_per_period = round(self.read_fraction * period)
        step = 0
        while self._running:
            if step % period < reads_per_period:
                yield from self.memory.read(self.chunk)
            else:
                yield from self.memory.write(self.chunk)
            self.meter.record(self.sim.now, self.chunk)
            step += 1
            if self.delay > 0:
                yield self.sim.timeout(self.delay)

    def achieved_bandwidth(self, duration: float | None = None) -> float:
        """Bytes/second the injector actually pushed through."""
        return self.meter.rate(duration)
