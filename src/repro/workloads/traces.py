"""Synthetic block-I/O traces: the format and a bursty generator.

Clouds do not see smooth closed-loop load; they see bursty, diurnal
request streams. :func:`generate_trace` builds deterministic synthetic
traces — Poisson baseline with on/off bursts, mixed read/write, mixed
latency sensitivity. A trace is just a list of :class:`TraceEntry`;
bring your own if you have one.

:meth:`repro.workloads.generators.OpenLoopDriver.replay` sends a trace
against any middle-tier design at the timestamps it records (open
loop); a read waits for the client's in-flight write to its LBA.
"""

from __future__ import annotations

import dataclasses
import random


@dataclasses.dataclass(frozen=True)
class TraceEntry:
    """One request in a trace."""

    at: float  # arrival time, seconds from trace start
    kind: str  # "write" or "read"
    lba: int
    latency_sensitive: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("write", "read"):
            raise ValueError(f"unknown trace entry kind {self.kind!r}")
        if self.at < 0:
            raise ValueError(f"trace entry arrives before the trace starts: at={self.at!r}")
        if self.lba < 0:
            raise ValueError(f"negative LBA {self.lba!r}")


def generate_trace(
    duration: float,
    base_rate: float,
    burst_rate: float | None = None,
    burst_on: float = 0.002,
    burst_off: float = 0.008,
    read_fraction: float = 1 / 6,  # writes outnumber reads ~5x (§2.2.3)
    latency_sensitive_fraction: float = 0.1,
    working_set_blocks: int = 4096,
    seed: int = 0,
) -> list[TraceEntry]:
    """Build a bursty on/off Poisson trace.

    The stream alternates between `burst_off`-long quiet periods at
    `base_rate` and `burst_on`-long bursts at `burst_rate` (defaults to
    4x the base). Reads target previously written LBAs.
    """
    if duration <= 0 or base_rate <= 0:
        raise ValueError("duration and base_rate must be positive")
    if not 0 <= read_fraction < 1:
        raise ValueError("read_fraction must be in [0, 1)")
    burst_rate = burst_rate or 4 * base_rate
    rng = random.Random(seed)
    entries: list[TraceEntry] = []
    now = 0.0
    next_lba = 0
    written: list[int] = []
    in_burst = False
    phase_end = burst_off
    while now < duration:
        rate = burst_rate if in_burst else base_rate
        now += rng.expovariate(rate)
        if now >= phase_end:
            in_burst = not in_burst
            phase_end = now + (burst_on if in_burst else burst_off)
        if now >= duration:
            break
        if written and rng.random() < read_fraction:
            entries.append(TraceEntry(at=now, kind="read", lba=rng.choice(written)))
        else:
            lba = next_lba % working_set_blocks
            next_lba += 1
            written.append(lba)
            entries.append(
                TraceEntry(
                    at=now,
                    kind="write",
                    lba=lba,
                    latency_sensitive=rng.random() < latency_sensitive_fraction,
                )
            )
    return entries
