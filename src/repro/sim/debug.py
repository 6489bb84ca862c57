"""Simulation debugging: invariant audits and deterministic fault injection.

The discrete-event substrate and the AAMS datapath carry three implicit
promises — bytes are conserved end to end, messages complete in PSN
order, and no resource slot / store waiter / process is leaked — but a
promise nobody checks is a bug waiting for a figure to look wrong. This
module makes the checks explicit:

- :class:`DrainAuditor` inspects a drained simulator and reports leaked
  :class:`~repro.sim.resources.Resource` slots, getters/putters stranded
  on a :class:`~repro.sim.resources.Store`, and non-daemon
  :class:`~repro.sim.process.Process` objects still suspended (with the
  event each one is parked on);
- :class:`FlowLedger` accumulates flow-tagged byte counts from
  :class:`~repro.sim.bandwidth.BandwidthServer` transfers so that
  ``bytes in == bytes out`` can be asserted across Split/Assemble,
  compression, and replication fan-out;
- :class:`FaultPlan` is a seeded, replayable schedule of loss bursts,
  PCIe stall windows, and engine slowdowns, injected into
  :mod:`repro.net.roce`, :mod:`repro.hostmodel.pcie`, and
  :mod:`repro.core.engines`.

See ``docs/debugging.md`` for usage and for reproducing a failure from
a seed.
"""

from __future__ import annotations

import bisect
import dataclasses
import random
import typing

from repro.sim.events import Event, SimulationError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator
    from repro.sim.process import Process


class InvariantViolation(SimulationError):
    """A checked simulation invariant does not hold."""


# ---------------------------------------------------------------------------
# Drain auditing
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class AuditFinding:
    """One invariant violation found by the auditor."""

    kind: str  # leaked-slot | stranded-request | stranded-getter |
    #            stranded-putter | stuck-process | flow-imbalance
    subject: str  # name of the offending object
    detail: str  # human-readable specifics

    def __str__(self) -> str:
        return f"[{self.kind}] {self.subject}: {self.detail}"


@dataclasses.dataclass
class AuditReport:
    """The auditor's verdict over one simulator."""

    findings: list[AuditFinding] = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no invariant violation was found."""
        return not self.findings

    def by_kind(self, kind: str) -> list[AuditFinding]:
        """Findings of one kind (e.g. ``"leaked-slot"``)."""
        return [f for f in self.findings if f.kind == kind]

    def raise_if_dirty(self) -> None:
        """Raise :class:`InvariantViolation` listing every finding."""
        if self.findings:
            lines = "\n".join(f"  - {finding}" for finding in self.findings)
            raise InvariantViolation(
                f"drain audit found {len(self.findings)} invariant violation(s):\n{lines}"
            )

    def __str__(self) -> str:
        if self.ok:
            return "<AuditReport clean>"
        return "\n".join(str(finding) for finding in self.findings)


def _waiting_processes(event: Event) -> list["Process"]:
    """Processes parked on `event` (via their bound ``_resume`` callback)."""
    from repro.sim.process import Process

    owners = []
    for callback in event.callbacks or ():
        owner = getattr(callback, "__self__", None)
        if isinstance(owner, Process):
            owners.append(owner)
    return owners


def _only_daemons(event: Event) -> bool:
    """True when every process parked on `event` is a daemon service loop."""
    waiters = _waiting_processes(event)
    return bool(waiters) and all(process.daemon for process in waiters)


class DrainAuditor:
    """Checks a simulator's resource/store/process invariants at drain.

    Meaningful once the event queue has drained (``sim.idle``):
    at that point every still-granted resource slot is leaked, every
    queued request or store waiter is stranded forever, and every alive
    non-daemon process is stuck. Attached :class:`FlowLedger` expectations
    are verified as well.
    """

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim

    def audit(self) -> AuditReport:
        """Inspect the simulator and return an :class:`AuditReport`."""
        report = AuditReport()
        if not self.sim.idle:
            queued = len(self.sim._queue) - self.sim._withdrawn
            report.findings.append(
                AuditFinding(
                    kind="not-drained",
                    subject=repr(self.sim),
                    detail=f"{queued} event(s) still queued; audit is partial",
                )
            )
        self._audit_resources(report)
        self._audit_stores(report)
        self._audit_processes(report)
        self._audit_ledgers(report)
        return report

    def check(self) -> None:
        """Audit and raise :class:`InvariantViolation` on any finding."""
        self.audit().raise_if_dirty()

    # -- per-category sweeps ----------------------------------------------

    def _audit_resources(self, report: AuditReport) -> None:
        for resource in self.sim.tracked("resource"):
            if resource.in_use > 0:
                report.findings.append(
                    AuditFinding(
                        kind="leaked-slot",
                        subject=resource.name,
                        detail=f"{resource.in_use}/{resource.capacity} slot(s) still granted",
                    )
                )
            for request in resource.waiting_requests():
                if _only_daemons(request):
                    continue
                report.findings.append(
                    AuditFinding(
                        kind="stranded-request",
                        subject=resource.name,
                        detail=f"queued request (priority={request.priority}) will never be granted",
                    )
                )

    def _audit_stores(self, report: AuditReport) -> None:
        for store in self.sim.tracked("store"):
            for getter in store._getters:
                if _only_daemons(getter):
                    continue
                report.findings.append(
                    AuditFinding(
                        kind="stranded-getter",
                        subject=store.name,
                        detail=self._waiter_detail(getter),
                    )
                )
            for putter, item in store._putters:
                if _only_daemons(putter):
                    continue
                report.findings.append(
                    AuditFinding(
                        kind="stranded-putter",
                        subject=store.name,
                        detail=f"blocked putting {item!r}; {self._waiter_detail(putter)}",
                    )
                )

    def _audit_processes(self, report: AuditReport) -> None:
        for process in self.sim.tracked("process"):
            if not process.is_alive or process.daemon:
                continue
            parked_on = process._waiting_on
            report.findings.append(
                AuditFinding(
                    kind="stuck-process",
                    subject=process.name,
                    detail=f"suspended forever on {parked_on!r}",
                )
            )

    def _audit_ledgers(self, report: AuditReport) -> None:
        for ledger in self.sim.tracked("ledger"):
            for detail in ledger.imbalances():
                report.findings.append(
                    AuditFinding(kind="flow-imbalance", subject=ledger.name, detail=detail)
                )

    @staticmethod
    def _waiter_detail(event: Event) -> str:
        waiters = _waiting_processes(event)
        if not waiters:
            return "no process attached (event created and abandoned)"
        names = ", ".join(process.name for process in waiters)
        return f"waited on forever by: {names}"


# ---------------------------------------------------------------------------
# Byte-conservation accounting
# ---------------------------------------------------------------------------


class FlowLedger:
    """Per-flow byte accounting across named measurement points.

    Bandwidth servers (and everything built on them: PCIe directions,
    HBM ports, NIC tx/rx) record ``(point, flow, nbytes)`` triples here
    for flow-tagged transfers. A test then asserts conservation, e.g.
    that the payload bytes written to HBM by Split equal the payload
    bytes read back by Assemble times the replication factor.
    """

    def __init__(self, sim: "Simulator | None" = None, name: str = "ledger") -> None:
        self.name = name
        self._cells: dict[str, dict[str, int]] = {}
        self._expectations: list[tuple[str, tuple[str, ...], tuple[str, ...], float]] = []
        self._probes: list[typing.Callable[["FlowLedger"], None]] = []
        if sim is not None:
            track = getattr(sim, "_track", None)
            if track is not None:
                track("ledger", self)

    def record(self, point: str, flow: str, nbytes: int) -> None:
        """Account `nbytes` of `flow` observed at measurement `point`."""
        if nbytes < 0:
            raise SimulationError(f"negative byte count {nbytes} for flow {flow!r}")
        self._cells.setdefault(flow, {})[point] = (
            self._cells.get(flow, {}).get(point, 0) + nbytes
        )

    def set_level(self, point: str, flow: str, nbytes: int) -> None:
        """Set `flow`'s cell at `point` to an absolute level.

        For *stock* measurement points — bytes currently held somewhere
        (a cache, a queue) rather than bytes that moved through a wire.
        Stocks make conservation closable: ``fills == drains + held``.
        """
        if nbytes < 0:
            raise SimulationError(f"negative byte level {nbytes} for flow {flow!r}")
        self._cells.setdefault(flow, {})[point] = nbytes

    def add_probe(self, probe: typing.Callable[["FlowLedger"], None]) -> None:
        """Register a callback refreshing stock levels before each audit.

        Probes run at the top of :meth:`imbalances`, typically calling
        :meth:`set_level` with a live occupancy figure, so standing
        expectations see current — not last-recorded — stock.
        """
        self._probes.append(probe)

    def total(self, flow: str, *points: str) -> int:
        """Bytes of `flow` summed over `points` (0 when never seen)."""
        cells = self._cells.get(flow, {})
        return sum(cells.get(point, 0) for point in points)

    def flows(self) -> tuple[str, ...]:
        """All flow ids seen so far."""
        return tuple(self._cells)

    def points(self, flow: str) -> dict[str, int]:
        """Per-point byte totals of one flow."""
        return dict(self._cells.get(flow, {}))

    def expect_balanced(
        self,
        flow: str,
        inputs: typing.Sequence[str],
        outputs: typing.Sequence[str],
        scale: float = 1.0,
    ) -> None:
        """Declare ``sum(inputs) * scale == sum(outputs)`` for `flow`.

        `scale` expresses deliberate amplification — e.g. ``3.0`` for a
        3-replica fan-out of the same bytes. Checked by
        :meth:`imbalances` (and therefore by the drain auditor).
        """
        self._expectations.append((flow, tuple(inputs), tuple(outputs), scale))

    def imbalances(self) -> list[str]:
        """Descriptions of every declared expectation that does not hold."""
        for probe in self._probes:
            probe(self)
        problems = []
        for flow, inputs, outputs, scale in self._expectations:
            expected = self.total(flow, *inputs) * scale
            observed = self.total(flow, *outputs)
            if abs(expected - observed) > 1e-9:
                problems.append(
                    f"flow {flow!r}: {'+'.join(inputs)} * {scale:g} = {expected:g} B "
                    f"but {'+'.join(outputs)} = {observed} B"
                )
        return problems

    def assert_balanced(
        self,
        flow: str,
        inputs: typing.Sequence[str],
        outputs: typing.Sequence[str],
        scale: float = 1.0,
    ) -> None:
        """One-shot conservation check; raises :class:`InvariantViolation`."""
        self.expect_balanced(flow, inputs, outputs, scale)
        problems = self.imbalances()
        self._expectations.pop()
        if problems:
            raise InvariantViolation(problems[-1])

    def attach(self, *servers: typing.Any) -> "FlowLedger":
        """Attach this ledger to bandwidth servers (or objects exposing them).

        Accepts :class:`~repro.sim.bandwidth.BandwidthServer` instances
        directly, or composites with an ``attach_ledger`` of their own
        (e.g. :class:`~repro.hostmodel.pcie.PcieLink`,
        :class:`~repro.hostmodel.memory.MemorySubsystem`,
        :class:`~repro.net.link.NetworkPort`).
        """
        for server in servers:
            server.attach_ledger(self)
        return self

    def __repr__(self) -> str:
        return f"<FlowLedger {self.name!r} flows={len(self._cells)}>"


# ---------------------------------------------------------------------------
# Deterministic fault injection
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class FaultWindow:
    """One [start, end) window of simulated time with a magnitude."""

    start: float
    end: float
    magnitude: float = 1.0

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise SimulationError(f"empty fault window [{self.start}, {self.end})")

    def covers(self, now: float) -> bool:
        return self.start <= now < self.end


class FaultPlan:
    """A seeded, replayable schedule of injected faults.

    The plan is pure data plus one seeded RNG: running the same plan
    against the same (deterministic) simulation replays the exact same
    fault sequence, so a failure found under injection reproduces from
    ``FaultPlan(seed=...)`` and the window list alone. This replaces the
    ad-hoc ``loss_rate`` coin-flip as the only way to shake the stack.

    Components consume the plan where faults physically land:

    - :class:`~repro.net.roce.RoceEndpoint` asks :meth:`frame_lost` per
      transmission attempt (loss bursts);
    - :class:`~repro.hostmodel.pcie.PcieLink` asks :meth:`stall_delay`
      before each DMA leg (stall windows per direction);
    - :class:`~repro.core.engines.HardwareEngine` scales occupancy by
      :meth:`slowdown` (engine slowdown windows).
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rng = random.Random(seed)
        self._loss: list[FaultWindow] = []
        self._stalls: dict[str, list[FaultWindow]] = {"h2d": [], "d2h": []}
        self._slow: list[FaultWindow] = []

    # -- schedule construction --------------------------------------------

    def add_loss_burst(self, start: float, duration: float, probability: float = 1.0) -> "FaultPlan":
        """Drop frames in [start, start+duration) with `probability`."""
        if not 0.0 < probability <= 1.0:
            raise SimulationError(f"loss probability must be in (0, 1], got {probability!r}")
        self._insert(self._loss, FaultWindow(start, start + duration, probability))
        return self

    def add_pcie_stall(self, start: float, duration: float, direction: str = "both") -> "FaultPlan":
        """Stall PCIe DMA legs starting in [start, start+duration).

        A transfer arriving inside the window waits until the window
        closes before occupying the link (credit exhaustion / completion
        backlog on a real slot).
        """
        if direction not in ("h2d", "d2h", "both"):
            raise SimulationError(f"unknown PCIe direction {direction!r}")
        window = FaultWindow(start, start + duration)
        for key in ("h2d", "d2h") if direction == "both" else (direction,):
            self._insert(self._stalls[key], window)
        return self

    def add_engine_slowdown(self, start: float, duration: float, factor: float) -> "FaultPlan":
        """Multiply engine occupancy time by `factor` inside the window."""
        if factor < 1.0:
            raise SimulationError(f"slowdown factor must be >= 1, got {factor!r}")
        self._insert(self._slow, FaultWindow(start, start + duration, factor))
        return self

    @staticmethod
    def _insert(windows: list[FaultWindow], window: FaultWindow) -> None:
        bisect.insort(windows, window, key=lambda w: w.start)

    # -- queries from instrumented components ------------------------------

    def frame_lost(self, now: float) -> bool:
        """Whether a transmission attempt at `now` is dropped."""
        for window in self._loss:
            if window.covers(now):
                return window.magnitude >= 1.0 or self._rng.random() < window.magnitude
        return False

    def stall_delay(self, now: float, direction: str) -> float:
        """Seconds a PCIe leg in `direction` must wait before starting."""
        delay = 0.0
        when = now
        # Consecutive windows chain: leaving one stall may land in the next.
        for window in self._stalls.get(direction, ()):
            if window.covers(when):
                delay += window.end - when
                when = window.end
        return delay

    def slowdown(self, now: float) -> float:
        """Engine occupancy multiplier at `now` (1.0 outside windows)."""
        for window in self._slow:
            if window.covers(now):
                return window.magnitude
        return 1.0

    def describe(self) -> str:
        """Replay recipe: seed plus every scheduled window."""
        parts = [f"FaultPlan(seed={self.seed})"]
        for window in self._loss:
            parts.append(
                f"  loss  [{window.start:g}, {window.end:g}) p={window.magnitude:g}"
            )
        for direction in ("h2d", "d2h"):
            for window in self._stalls[direction]:
                parts.append(f"  stall {direction} [{window.start:g}, {window.end:g})")
        for window in self._slow:
            parts.append(
                f"  slow  [{window.start:g}, {window.end:g}) x{window.magnitude:g}"
            )
        return "\n".join(parts)

    def __repr__(self) -> str:
        n_faults = len(self._loss) + len(self._slow) + sum(map(len, self._stalls.values()))
        return f"<FaultPlan seed={self.seed} windows={n_faults}>"
