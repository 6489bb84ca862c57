"""Synthetic block-I/O traces and a replay driver.

Clouds do not see smooth closed-loop load; they see bursty, diurnal
request streams. This module generates deterministic synthetic traces —
Poisson baseline with on/off bursts, mixed read/write, mixed latency
sensitivity — and replays them against any middle-tier design with the
timestamps the trace dictates (open loop).

A trace is just a list of :class:`TraceEntry`; bring your own if you
have one.
"""

from __future__ import annotations

import dataclasses
import random
import typing

from repro.net.message import Message
from repro.workloads.generators import DriverResult, RequestClient, WriteRequestFactory

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.middletier.base import MiddleTierServer
    from repro.sim.kernel import Simulator


@dataclasses.dataclass(frozen=True)
class TraceEntry:
    """One request in a trace."""

    at: float  # arrival time, seconds from trace start
    kind: str  # "write" or "read"
    lba: int
    latency_sensitive: bool = False


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


@dataclasses.dataclass
class TraceReplayResult:
    """What a replay measured, split by request kind.

    `write` and `read` are the usual driver folds of each kind's
    requests (``None`` when the trace has none of that kind): a write
    that was shed or failed lands in ``write.failures`` and not in its
    latency, while failed reads (misses) stay in ``read.latency`` as in
    :meth:`~repro.workloads.generators.ClientDriver.run_reads`.
    """

    write: DriverResult | None
    read: DriverResult | None
    #: From the replay's start to its last completion.
    duration: float


class TraceReplayer(RequestClient):
    """Replays a trace against a middle tier at its recorded timestamps."""

    def __init__(
        self,
        sim: "Simulator",
        tier: "MiddleTierServer",
        factory: WriteRequestFactory,
        port_index: int = 0,
    ) -> None:
        super().__init__(sim, tier.platform.network, "trace-client", factory)
        self.tier = tier
        self.qp = self._connect(tier, port_index)

    def replay(self, trace: typing.Sequence[TraceEntry]) -> typing.Any:
        """Replay `trace`; returns a process firing with a
        :class:`TraceReplayResult` when the last request completes."""
        if not trace:
            raise ValueError("empty trace")
        self.tier.start()
        return self.sim.process(self._replay(list(trace)), name="trace.replay")

    def _replay(self, trace: list[TraceEntry]) -> typing.Generator:
        start = self.sim.now
        samples: dict[str, list] = {"write": [], "read": []}
        outstanding = []
        for entry in trace:
            wait = start + entry.at - self.sim.now
            if wait > 0:
                yield self.sim.timeout(wait)
            message = self._message(entry)
            outstanding.append(self.sim.process(self._request(message, samples[entry.kind])))
        yield self.sim.all_of(outstanding)
        writes, reads = samples["write"], samples["read"]
        return TraceReplayResult(
            write=DriverResult.from_samples(writes) if writes else None,
            read=DriverResult.from_samples(reads, failed_latency=True) if reads else None,
            duration=self.sim.now - start,
        )

    def _message(self, entry: TraceEntry) -> Message:
        if entry.kind == "write":
            message = self.factory.make(entry.lba)
            message.header["latency_sensitive"] = entry.latency_sensitive
            return message
        if entry.kind == "read":
            return self.factory.make_read(entry.lba)
        raise ValueError(f"unknown trace entry kind {entry.kind!r}")
