"""Declarative SLOs with error budgets and multi-window burn alerts.

An :class:`~repro.params.SLOSpec` states an objective (availability,
latency-under-threshold, goodput floor); an :class:`SLOMonitor` scores
every completion record the middle tier feeds it
(:meth:`~repro.middletier.base.MiddleTierServer._reply`)
and keeps, per spec:

- cumulative **error-budget accounting** — with objective ``target``,
  the budget is the ``1 - target`` fraction of requests allowed to be
  bad; :meth:`budget_remaining` reports how much is left;
- sliding-window **burn rates** (Google SRE workbook): the bad fraction
  over a window divided by the budget fraction. Burning at 1x exhausts
  the budget exactly at the window's horizon; a short window burning
  >= ``fast_burn``x trips a *fast-burn* alert (page-grade), a longer
  window >= ``slow_burn``x trips *slow-burn* (ticket-grade). Alerts
  latch and re-arm with hysteresis at half the trip threshold, so a
  flapping signal yields edges, not storms.

Every :class:`SLOAlert` captures the flight-recorder ring at trip time
(when one is attached), so an SLO violation ships with the anomalous
traces that caused it.

Monitors are opt-in and cost one falsy test per completion when absent;
``slo_monitor_for(sim)`` mirrors ``registry_for``.
"""

from __future__ import annotations

import typing
from collections import deque

from repro.params import SLOSpec
from repro.telemetry.registry import registry_for
from repro.telemetry.spans import OUTCOMES, REPLY_STATUSES, SERVED_OUTCOMES
from repro.units import msec, to_usec

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator
    from repro.telemetry.flight import FlightRecorder, TraceRecord

#: Reply statuses that are neither good nor bad (routing bounces are
#: corrected by the client's map refetch, not served wrong).
IGNORED_STATUSES = frozenset({"wrong_shard"})
#: Terminal statuses that consume error budget: every reply status and
#: span outcome that is neither ignored nor served.
BAD_STATUSES = (REPLY_STATUSES | frozenset(OUTCOMES)) - IGNORED_STATUSES - SERVED_OUTCOMES

#: The stock objectives ``runner --slo`` watches when the experiment
#: doesn't declare its own (platform.slos).
DEFAULT_SLOS = (
    SLOSpec(name="availability", signal="availability", op="any", target=0.99),
    SLOSpec(
        name="read-p99",
        signal="latency",
        op="read",
        target=0.99,
        latency_threshold=msec(5),
    ),
)


class SLOAlert:
    """One burn-rate (or goodput-floor) trip, with captured evidence."""

    __slots__ = (
        "time",
        "slo",
        "kind",
        "window",
        "burn_rate",
        "threshold",
        "bad_fraction",
        "budget_remaining",
        "traces",
    )

    def __init__(
        self,
        time: float,
        slo: str,
        kind: str,
        window: float,
        burn_rate: float,
        threshold: float,
        bad_fraction: float,
        budget_remaining: float,
        traces: tuple["TraceRecord", ...],
    ) -> None:
        self.time = time
        self.slo = slo
        self.kind = kind
        self.window = window
        self.burn_rate = burn_rate
        self.threshold = threshold
        self.bad_fraction = bad_fraction
        self.budget_remaining = budget_remaining
        self.traces = traces

    def to_dict(self) -> dict:
        return {
            "t_us": to_usec(self.time),
            "slo": self.slo,
            "kind": self.kind,
            "window_us": to_usec(self.window),
            "burn_rate": self.burn_rate,
            "threshold": self.threshold,
            "bad_fraction": self.bad_fraction,
            "budget_remaining": self.budget_remaining,
            "traces": [record.to_dict() for record in self.traces],
        }

    def __repr__(self) -> str:
        return (
            f"<SLOAlert {self.slo} {self.kind} t={to_usec(self.time):.1f}us "
            f"burn={self.burn_rate:.1f}x traces={len(self.traces)}>"
        )


class _SlidingWindow:
    """Time-bucketed good/bad/byte counts over one sliding window."""

    __slots__ = ("width", "n_buckets", "_buckets", "good", "bad", "nbytes")

    def __init__(self, window: float, n_buckets: int) -> None:
        self.width = window / n_buckets
        self.n_buckets = n_buckets
        # Each bucket: [index, good, bad, nbytes]; indexes ascend.
        self._buckets: deque[list] = deque()
        self.good = 0
        self.bad = 0
        self.nbytes = 0

    def advance(self, now: float) -> None:
        """Expire buckets that slid out of the window ending at `now`."""
        horizon = int(now / self.width) - self.n_buckets
        buckets = self._buckets
        while buckets and buckets[0][0] <= horizon:
            _, good, bad, nbytes = buckets.popleft()
            self.good -= good
            self.bad -= bad
            self.nbytes -= nbytes

    def record(self, now: float, good: bool, nbytes: int) -> None:
        self.advance(now)
        index = int(now / self.width)
        buckets = self._buckets
        if buckets and buckets[-1][0] == index:
            bucket = buckets[-1]
        else:
            bucket = [index, 0, 0, 0]
            buckets.append(bucket)
        if good:
            bucket[1] += 1
            self.good += 1
        else:
            bucket[2] += 1
            self.bad += 1
        bucket[3] += nbytes
        self.nbytes += nbytes

    @property
    def total(self) -> int:
        return self.good + self.bad

    def bad_fraction(self, now: float) -> float:
        self.advance(now)
        total = self.good + self.bad
        return (self.bad / total) if total else 0.0


class _SpecState:
    """One SLOSpec's windows, totals, and latched alert levels."""

    __slots__ = (
        "spec",
        "window",
        "fast",
        "slow",
        "good_total",
        "bad_total",
        "bytes_total",
        "started",
        "active",
        "alerts",
    )

    def __init__(self, spec: SLOSpec) -> None:
        self.spec = spec
        self.window = _SlidingWindow(spec.window, spec.n_buckets)
        self.fast = _SlidingWindow(spec.fast_window, spec.n_buckets)
        self.slow = _SlidingWindow(spec.slow_window, spec.n_buckets)
        self.good_total = 0
        self.bad_total = 0
        self.bytes_total = 0
        self.started: float | None = None
        #: Latched alert kinds currently above their trip threshold.
        self.active: set[str] = set()
        self.alerts: list[SLOAlert] = []

    @property
    def budget_fraction(self) -> float:
        return 1.0 - self.spec.target

    def bad_fraction_total(self) -> float:
        total = self.good_total + self.bad_total
        return (self.bad_total / total) if total else 0.0

    def budget_remaining(self) -> float:
        """Cumulative error budget left; < 0 means the SLO is violated."""
        return 1.0 - self.bad_fraction_total() / self.budget_fraction


class SLOMonitor:
    """Scores completion records against a set of SLO specs."""

    def __init__(
        self,
        sim: "Simulator",
        specs: typing.Iterable[SLOSpec],
        name: str = "slo",
        flight: "FlightRecorder | None" = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.flight = flight
        self._states = tuple(_SpecState(spec) for spec in specs)
        if not self._states:
            raise ValueError("an SLOMonitor needs at least one SLOSpec")
        names = [state.spec.name for state in self._states]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO names: {names}")
        self.alerts: list[SLOAlert] = []
        self._alerts_counter: typing.Any = None
        registry = registry_for(sim)
        if registry is not None:
            self._alerts_counter = registry.counter(
                "slo.alerts", component="telemetry", monitor=name
            )

    @property
    def specs(self) -> tuple[SLOSpec, ...]:
        return tuple(state.spec for state in self._states)

    def attach(self) -> "SLOMonitor":
        """Make this monitor discoverable via ``slo_monitor_for(sim)``."""
        self.sim._slo_monitor = self
        return self

    # -- scoring -------------------------------------------------------------

    def record(
        self,
        op: str,
        status: str,
        latency: float | None = None,
        nbytes: int = 0,
    ) -> None:
        """Score one completion record against every matching spec."""
        if status in IGNORED_STATUSES:
            return
        now = self.sim.now
        for state in self._states:
            spec = state.spec
            if spec.op != "any" and not op.startswith(spec.op):
                continue
            if spec.signal == "latency":
                good = (
                    status not in BAD_STATUSES
                    and latency is not None
                    and latency <= spec.latency_threshold
                )
            else:
                good = status not in BAD_STATUSES
            counted_bytes = nbytes if good else 0
            if state.started is None:
                state.started = now
            state.window.record(now, good, counted_bytes)
            state.fast.record(now, good, counted_bytes)
            state.slow.record(now, good, counted_bytes)
            if good:
                state.good_total += 1
            else:
                state.bad_total += 1
            state.bytes_total += counted_bytes
            self._evaluate(state, now)

    def _evaluate(self, state: _SpecState, now: float) -> None:
        spec = state.spec
        if spec.signal == "goodput":
            elapsed = now - typing.cast(float, state.started)
            if elapsed < spec.fast_window:
                return  # not warmed up: an empty window is not an outage
            state.fast.advance(now)
            rate = state.fast.nbytes / spec.fast_window
            if rate < spec.goodput_floor:
                if "goodput_floor" not in state.active:
                    state.active.add("goodput_floor")
                    self._fire(
                        state,
                        "goodput_floor",
                        window=spec.fast_window,
                        burn_rate=(spec.goodput_floor / rate) if rate > 0 else float("inf"),
                        threshold=1.0,
                        now=now,
                    )
            elif rate >= 2.0 * spec.goodput_floor:
                state.active.discard("goodput_floor")
            return
        budget = state.budget_fraction
        for kind, window, threshold in (
            ("fast_burn", state.fast, spec.fast_burn),
            ("slow_burn", state.slow, spec.slow_burn),
        ):
            burn = window.bad_fraction(now) / budget
            if burn >= threshold:
                if kind not in state.active:
                    state.active.add(kind)
                    self._fire(
                        state,
                        kind,
                        window=window.width * window.n_buckets,
                        burn_rate=burn,
                        threshold=threshold,
                        now=now,
                    )
            elif burn < 0.5 * threshold:
                state.active.discard(kind)

    def _fire(
        self,
        state: _SpecState,
        kind: str,
        window: float,
        burn_rate: float,
        threshold: float,
        now: float,
    ) -> None:
        traces: tuple = ()
        if self.flight is not None:
            traces = self.flight.snapshot()
        alert = SLOAlert(
            time=now,
            slo=state.spec.name,
            kind=kind,
            window=window,
            burn_rate=burn_rate,
            threshold=threshold,
            bad_fraction=state.window.bad_fraction(now),
            budget_remaining=state.budget_remaining(),
            traces=traces,
        )
        state.alerts.append(alert)
        self.alerts.append(alert)
        if self._alerts_counter is not None:
            self._alerts_counter.add()

    # -- verdicts ------------------------------------------------------------

    def state(self, slo_name: str) -> _SpecState:
        for state in self._states:
            if state.spec.name == slo_name:
                return state
        raise KeyError(f"no SLO named {slo_name!r} on monitor {self.name!r}")

    def budget_remaining(self, slo_name: str) -> float:
        return self.state(slo_name).budget_remaining()

    def alerts_for(self, slo_name: str, kind: str | None = None) -> tuple[SLOAlert, ...]:
        alerts = self.state(slo_name).alerts
        if kind is None:
            return tuple(alerts)
        return tuple(alert for alert in alerts if alert.kind == kind)

    def verdict(self) -> dict:
        """Per-SLO pass/fail plus budget and alert counts."""
        out = {}
        for state in self._states:
            spec = state.spec
            kinds: dict[str, int] = {}
            for alert in state.alerts:
                kinds[alert.kind] = kinds.get(alert.kind, 0) + 1
            if spec.signal == "goodput":
                met = not kinds.get("goodput_floor")
            else:
                met = state.budget_remaining() >= 0.0
            out[spec.name] = {
                "signal": spec.signal,
                "met": met,
                "total": state.good_total + state.bad_total,
                "bad": state.bad_total,
                "bad_fraction": state.bad_fraction_total(),
                "budget_remaining": state.budget_remaining(),
                "alerts": kinds,
            }
        return out

    def to_dict(self) -> dict:
        """JSON-ready dump (validated by ``repro.telemetry.schemas``)."""
        return {
            "monitor": self.name,
            "slos": [
                {
                    "name": state.spec.name,
                    "signal": state.spec.signal,
                    "op": state.spec.op,
                    "target": state.spec.target,
                    "good": state.good_total,
                    "bad": state.bad_total,
                    "bytes": state.bytes_total,
                    "budget_remaining": state.budget_remaining(),
                }
                for state in self._states
            ],
            "verdict": self.verdict(),
            "alerts": [alert.to_dict() for alert in self.alerts],
        }

    def __repr__(self) -> str:
        return (
            f"<SLOMonitor {self.name!r} specs={len(self._states)} "
            f"alerts={len(self.alerts)}>"
        )


def slo_monitor_for(sim: "Simulator") -> SLOMonitor | None:
    """The monitor attached to `sim`, or ``None`` (the common case)."""
    return getattr(sim, "_slo_monitor", None)
