"""Overload protection for the middle tier: admission, backpressure, brownout.

An unprotected tier collapses non-linearly under sustained overload:
queues grow without bound, every queued request blows its latency budget,
attempts time out, and the retry machinery multiplies the load it was
meant to survive. This module makes the tier *self-protecting* — it
sheds work early, cheaply, and explicitly instead of degrading everyone:

- :class:`TenantCredits` — per-tenant outstanding-request credit pools
  at ingress, re-sized from the measured service rate via Little's law;
- :class:`CircuitBreaker` — per-replica closed → open → half-open
  breakers layered under :class:`~repro.middletier.retry.RetryPolicy`,
  short-circuiting attempts that are doomed before they burn a time-out;
- :class:`Bulkhead` — the gate between maintenance services and the
  foreground path: compaction/GC/snapshots are paced down whenever the
  foreground is under pressure (the elastic-consumer discipline of
  :meth:`~repro.core.device.DeviceMemoryAllocator.elastic_headroom`);
- :class:`BrownoutController` — one overload score from queue-depth /
  HBM-headroom / credit-starvation signals driving an explicit
  degradation ladder, replacing scattered ad-hoc triggers;
- :class:`AdmissionController` — the facade a
  :class:`~repro.middletier.base.MiddleTierServer` owns as
  ``tier.admission`` (``None`` when :class:`~repro.params.AdmissionSpec`
  is disabled, the default — every call site guards on that, so the
  unprotected tier behaves exactly as before).

All jitter is deterministic (:func:`jitter_unit`, the one seeded draw
the breakers, the heartbeat re-probes and the retry backoff share), so
a chaos run replayed from the same seed reproduces the exact
shed/short-circuit schedule. See
``docs/robustness.md`` for the architecture and tuning knobs.
"""

from __future__ import annotations

import random
import typing
from collections import deque

from repro.params import AdmissionSpec
from repro.telemetry.metrics import Counter
from repro.telemetry.registry import registry_for

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.middletier.base import MiddleTierServer
    from repro.net.message import Message
    from repro.sim.kernel import Simulator

#: Large odd multipliers decorrelate the ``(seed, token, count)``
#: triples feeding :func:`jitter_unit` without relying on Python's
#: salted ``hash()``, so replays are exact.
_MIX_A = 1_000_003
_MIX_B = 998_244_353

#: Brownout ladder levels, mildest first.
LEVEL_FULL = 0
LEVEL_NO_CACHE_FILLS = 1
LEVEL_HOST_INGRESS = 2
LEVEL_RAW_REPLICATION = 3
LEVEL_SHED = 4
LEVEL_NAMES = ("full", "no-cache-fills", "host-ingress", "raw-replication", "shed")


def address_token(address: str) -> int:
    """A replay-stable integer token for a server address.

    Python's salted ``hash()`` differs between processes; this doesn't,
    so two runs draw identical jitter for the same address.
    """
    token = 0
    for char in address:
        token = (token * 131 + ord(char)) % (1 << 31)
    return token


def jitter_unit(seed: int, token: int, count: int) -> float:
    """A deterministic uniform draw in [0, 1) for ``(seed, token, count)``."""
    mixed = (seed * _MIX_A + int(token)) * _MIX_A + count * _MIX_B
    return random.Random(mixed).random()


class TenantCredits:
    """One tenant's outstanding-request credit pool.

    A credit is taken at admission and returned at the request's
    terminal reply (ok, degraded, unavailable, or not-found). Capacity
    follows Little's law: with measured completion rate ``X`` and the
    per-request latency budget ``L``, at most ``X * L`` requests can be
    outstanding without the average latency exceeding the budget — so
    every adaptation tick re-sizes the pool to that product, clamped to
    ``[min_credits, max_credits]``. Until a rate has been measured the
    configured ``initial_credits`` apply.
    """

    def __init__(self, tenant: str, spec: AdmissionSpec) -> None:
        self.tenant = tenant
        self.spec = spec
        self.capacity = spec.initial_credits
        self.in_use = 0
        self.rate_ewma: float | None = None  # completions per second
        self._window_completions = 0

    @property
    def exhausted(self) -> bool:
        """True while every credit is out — this tenant is being held back."""
        return self.in_use >= self.capacity

    def try_take(self) -> bool:
        """Take one credit; False when the pool is exhausted."""
        if self.in_use >= self.capacity:
            return False
        self.in_use += 1
        return True

    def release(self) -> None:
        """Return one credit and count the completion for rate measurement."""
        if self.in_use > 0:
            self.in_use -= 1
        self._window_completions += 1

    def adapt(self, window: float) -> None:
        """Re-size the pool from the completion rate over `window` seconds."""
        spec = self.spec
        rate = self._window_completions / window
        self._window_completions = 0
        if rate == 0.0 and self.in_use == 0:
            # Idle tenant: an empty window carries no rate information —
            # decaying here would greet the next burst with a starved
            # pool. (Zero completions with credits *out* is a genuine
            # stall and does decay.)
            return
        if self.rate_ewma is None:
            if rate == 0.0:
                return  # nothing measured yet; keep the configured budget
            self.rate_ewma = rate
        else:
            self.rate_ewma += spec.ewma_alpha * (rate - self.rate_ewma)
        target = round(self.rate_ewma * spec.latency_budget)
        self.capacity = max(spec.min_credits, min(spec.max_credits, target))


class CircuitBreaker:
    """Per-replica closed → open → half-open breaker.

    Layered *under* the retry policy: the retry loops ask :meth:`allow`
    before spending an attempt, so attempts doomed by a tripped replica
    are short-circuited instead of burning a full time-out. `threshold`
    failures within `window` trip the breaker open for `open_duration`
    seconds with deterministic seeded jitter, so co-located breakers
    don't re-probe a recovering server in lockstep and a chaos replay
    reproduces the exact schedule. Once the open interval elapses the
    breaker is *half-open*: attempts flow again, the first success
    closes it, the first failure trips it again with a fresh jitter
    draw.
    """

    def __init__(self, sim: "Simulator", address: str, spec: AdmissionSpec) -> None:
        self.sim = sim
        self.address = address
        self.spec = spec
        self._token = address_token(address)
        self._failures: deque[float] = deque()
        self._open_until: float | None = None
        self.trips = 0

    @property
    def state(self) -> str:
        """``closed``, ``open``, or ``half-open``."""
        if self._open_until is None:
            return "closed"
        return "open" if self.sim.now < self._open_until else "half-open"

    def allow(self) -> bool:
        """Whether an attempt against this replica may be spent now."""
        return self.state != "open"

    def record_success(self) -> None:
        """An attempt succeeded: close the breaker, clear the window."""
        self._open_until = None
        self._failures.clear()

    def record_failure(self) -> None:
        """An attempt timed out or failed against this replica."""
        state = self.state
        if state == "open":
            return  # a straggling time-out; already open
        if state == "half-open":
            self._trip()
            return
        now = self.sim.now
        self._failures.append(now)
        cutoff = now - self.spec.breaker_window
        while self._failures and self._failures[0] < cutoff:
            self._failures.popleft()
        if len(self._failures) >= self.spec.breaker_threshold:
            self._trip()

    def _trip(self) -> None:
        spec = self.spec
        self.trips += 1
        unit = jitter_unit(spec.seed, self._token, self.trips)
        jitter = spec.breaker_jitter
        duration = spec.breaker_open_duration * (1.0 - jitter + 2.0 * jitter * unit)
        self._open_until = self.sim.now + duration
        self._failures.clear()


class BrownoutController:
    """The single overload score and the explicit degradation ladder.

    The score is the worst of four instantaneous pressure signals,
    each normalised to [0, 1]:

    - estimated queueing delay (outstanding admissions x EWMA
      inter-completion gap) against the latency budget;
    - request-queue depth against ``queue_target``;
    - HBM pressure: occupancy against the allocator's admission
      watermark, pinned to 1.0 while headroom waiters are parked;
    - credit starvation: the fraction of tenant pools exhausted,
      capped below the shed rung (see :attr:`STARVATION_CEILING`).

    Ladder levels replace the scattered ad-hoc degradation triggers:

    ====== ================= ==============================================
    level  name              behaviour
    ====== ================= ==============================================
    0      full              fast path everywhere
    1      no-cache-fills    read misses stop filling the hot-block cache
    2      host-ingress      SmartDS stops posting mixed-recv descriptors
    3      raw-replication   compression skipped, raw payloads replicated
    4      shed              ingress sheds every new request
    ====== ================= ==============================================

    Transitions carry per-rung hysteresis — ``ladder_up[i]`` enters
    level ``i + 1``; the level is left only once the score falls
    ``ladder_margin`` below that threshold — so a noisy score can't
    flap the ladder. Because every signal is instantaneous, the score
    (and therefore the ladder) decays to zero the moment traffic
    drains; nothing here can wedge a drain-mode run.
    """

    def __init__(self, sim: "Simulator", controller: "AdmissionController") -> None:
        self.sim = sim
        self.controller = controller
        self.spec = controller.spec
        self._level = LEVEL_FULL
        self.transitions = Counter("brownout-transitions")

    #: Credit starvation alone climbs the ladder only to the
    #: raw-replication rung: per-tenant exhaustion is already enforced
    #: (and counted) by the pools themselves, so one throttled tenant
    #: must not flip the whole tier to shed.
    STARVATION_CEILING = 0.9

    def overload_score(self) -> float:
        """The worst of the wait / queue / HBM / credit signals, in [0, 1]."""
        tier = self.controller.tier
        spec = self.spec
        # Estimated queueing delay against the latency budget — the
        # primary signal. It covers designs (like SmartDS) whose worker
        # queue drains instantly into off-worker completion processes:
        # admitted-but-incomplete requests ARE the queue there.
        wait = min(1.0, self.controller.estimated_wait() / spec.latency_budget)
        queue = min(1.0, len(tier._requests) / spec.queue_target)
        hbm = 0.0
        allocator = getattr(getattr(tier, "device", None), "allocator", None)
        if allocator is not None:
            if allocator.waiters:
                hbm = 1.0
            elif allocator.admission_limit > 0:
                hbm = min(1.0, allocator.allocated / allocator.admission_limit)
        starved = 0.0
        pools = self.controller.pools
        if pools:
            starved = self.STARVATION_CEILING * (
                sum(1 for pool in pools.values() if pool.exhausted) / len(pools)
            )
        return max(wait, queue, hbm, starved)

    def current_level(self) -> int:
        """Re-evaluate the ladder against the instantaneous score."""
        score = self.overload_score()
        spec = self.spec
        level = self._level
        while level < LEVEL_SHED and score >= spec.ladder_up[level]:
            level += 1
        while level > LEVEL_FULL and score < spec.ladder_up[level - 1] - spec.ladder_margin:
            level -= 1
        if level != self._level:
            self.transitions.add()
            self._level = level
        return level


class Bulkhead:
    """The pacing gate between maintenance services and the foreground.

    Same discipline as the allocator's elastic consumers: background
    work proceeds only while nothing foreground is being held back —
    the overload score sits below the first brownout rung and no tenant
    pool is starved. Otherwise the caller is paced in
    ``maintenance_pause`` steps until the pressure clears. The wait
    polls instantaneous signals, so it always clears once traffic
    drains and can never wedge a drain-mode run.
    """

    def __init__(self, sim: "Simulator", controller: "AdmissionController") -> None:
        self.sim = sim
        self.controller = controller
        self.spec = controller.spec
        self.deferrals = Counter("bulkhead-deferrals")
        self.admissions = Counter("bulkhead-admissions")

    def clear(self) -> bool:
        """Whether background work may proceed right now."""
        controller = self.controller
        if controller.brownout.overload_score() >= self.spec.ladder_up[0]:
            return False
        return not any(pool.exhausted for pool in controller.pools.values())

    def acquire(self) -> typing.Generator:
        """Process body: wait until the foreground path has headroom.

        ``yield from bulkhead.acquire()`` before each unit of
        maintenance work (a compaction, a snapshot round, a GC batch).
        """
        while not self.clear():
            self.deferrals.add()
            yield self.sim.timeout(self.spec.maintenance_pause)
        self.admissions.add()


class AdmissionController:
    """The facade the tier owns: credits + breakers + bulkhead + brownout.

    Registers the ``tier.admission.*`` series when a
    :class:`~repro.telemetry.registry.MetricsRegistry` is attached to
    the simulator; otherwise the bare counters keep working and the
    hot path stays registration-free.
    """

    def __init__(self, sim: "Simulator", tier: "MiddleTierServer", spec: AdmissionSpec) -> None:
        self.sim = sim
        self.tier = tier
        self.spec = spec
        self.pools: dict[str, TenantCredits] = {}
        self.breakers: dict[str, CircuitBreaker] = {}
        self.brownout = BrownoutController(sim, self)
        self.bulkhead = Bulkhead(sim, self)
        #: request_id -> (tenant, admission time) of in-flight admissions.
        self._outstanding: dict[int, tuple[str, float]] = {}
        # EWMA of the inter-completion gap: the queue drains one request
        # per gap, so ``depth * gap`` estimates a new arrival's wait.
        self._completion_gap: float | None = None
        self._last_completion: float | None = None
        self._adapting = False
        address = tier.address
        self.admitted = Counter(f"{address}.admitted")
        self.shed_credits = Counter(f"{address}.shed-credits")
        self.shed_deadline = Counter(f"{address}.shed-deadline")
        self.shed_overload = Counter(f"{address}.shed-overload")
        self.short_circuits = Counter(f"{address}.short-circuits")
        self.breaker_opens = Counter(f"{address}.breaker-opens")
        registry = registry_for(sim)
        if registry is not None:
            labels = dict(
                component="middletier", design=tier.design_name, address=address
            )
            registry.register_instance(self.admitted, "tier.admission.admitted", **labels)
            registry.register_instance(self.shed_credits, "tier.admission.shed_credits", **labels)
            registry.register_instance(self.shed_deadline, "tier.admission.shed_deadline", **labels)
            registry.register_instance(self.shed_overload, "tier.admission.shed_overload", **labels)
            registry.register_instance(
                self.short_circuits, "tier.admission.short_circuits", **labels
            )
            registry.register_instance(self.breaker_opens, "tier.admission.breaker_opens", **labels)
            registry.register_instance(
                self.brownout.transitions, "tier.admission.brownout_transitions", **labels
            )
            registry.register_instance(
                self.bulkhead.deferrals, "tier.admission.bulkhead_deferrals", **labels
            )
            registry.gauge_callable(
                "tier.admission.level",
                lambda: float(self.brownout.current_level()),
                **labels,
            )
            registry.gauge_callable(
                "tier.admission.overload", self.brownout.overload_score, **labels
            )
            registry.gauge_callable(
                "tier.admission.outstanding",
                lambda: float(len(self._outstanding)),
                **labels,
            )

    # -- ingress -------------------------------------------------------------

    @property
    def shed_total(self) -> int:
        """All sheds across the three reasons."""
        return self.shed_credits.value + self.shed_deadline.value + self.shed_overload.value

    def pool_for(self, tenant: str) -> TenantCredits:
        """Get-or-create `tenant`'s credit pool."""
        pool = self.pools.get(tenant)
        if pool is None:
            pool = self.pools[tenant] = TenantCredits(tenant, self.spec)
        return pool

    def estimated_wait(self) -> float:
        """Expected queueing delay of a request admitted right now.

        The tier drains roughly one request per (EWMA) inter-completion
        gap, so a new arrival waits behind every admitted-but-incomplete
        request — Little's law again, applied to the whole tier. Counts
        ``_outstanding`` rather than the worker queue because several
        designs move queueing off-worker immediately.
        """
        if self._completion_gap is None:
            return 0.0
        return len(self._outstanding) * self._completion_gap

    def admit(self, message: "Message") -> str | None:
        """Admit `message` (returns ``None``) or return the shed reason.

        Check order matters: the ladder's shed rung protects the whole
        tier (cheapest, catches everything), the deadline estimate sheds
        requests that would blow their budget just queueing, and the
        tenant pool enforces per-tenant fairness last so one tenant's
        burst cannot consume another's credits.
        """
        if self.brownout.current_level() >= LEVEL_SHED:
            self.shed_overload.add()
            return "overload"
        if self.estimated_wait() > self.spec.latency_budget:
            self.shed_deadline.add()
            return "deadline"
        tenant = str(message.header.get("vm_id", "unknown"))
        if not self.pool_for(tenant).try_take():
            self.shed_credits.add()
            return "credits"
        self._outstanding[message.request_id] = (tenant, self.sim.now)
        self.admitted.add()
        self._ensure_adapting()
        return None

    def release(self, message: "Message") -> None:
        """Return the request's credit at any terminal reply.

        Idempotent and safe on shed/unknown requests: every terminal
        site (ok, not-found, unavailable) calls it, and double releases
        are no-ops, so a credit can neither leak nor double-free.
        """
        entry = self._outstanding.pop(message.request_id, None)
        if entry is None:
            return
        tenant, _admitted_at = entry
        pool = self.pools.get(tenant)
        if pool is not None:
            pool.release()
        now = self.sim.now
        if self._last_completion is not None:
            gap = now - self._last_completion
            # A gap longer than the whole latency budget is an idle
            # stretch between waves, not a drain-rate observation —
            # folding it in would greet the next wave with a wildly
            # inflated wait estimate (and spurious sheds).
            if gap <= self.spec.latency_budget:
                if self._completion_gap is None:
                    self._completion_gap = gap
                else:
                    self._completion_gap += self.spec.ewma_alpha * (
                        gap - self._completion_gap
                    )
        self._last_completion = now

    def _ensure_adapting(self) -> None:
        # Lazily (re)started on admission so multi-phase experiments that
        # drain the sim between waves keep adapting in later waves.
        if self._adapting:
            return
        self._adapting = True
        self.sim.process(
            self._adapt_loop(), name=f"{self.tier.address}.admission-adapt", daemon=True
        )

    def _adapt_loop(self) -> typing.Generator:
        interval = self.spec.adapt_interval
        try:
            while True:
                yield self.sim.timeout(interval)
                for pool in self.pools.values():
                    pool.adapt(interval)
                if self.sim.idle:
                    return  # idle sim: never hold up a drain-mode run
        finally:
            self._adapting = False

    # -- per-replica breakers -------------------------------------------------

    def breaker_for(self, address: str) -> CircuitBreaker:
        """Get-or-create the breaker guarding storage server `address`."""
        breaker = self.breakers.get(address)
        if breaker is None:
            breaker = self.breakers[address] = CircuitBreaker(self.sim, address, self.spec)
        return breaker

    def allow_server(self, address: str) -> bool:
        """Gate one attempt against `address`; counts short-circuits."""
        if self.breaker_for(address).allow():
            return True
        self.short_circuits.add()
        return False

    def record_server_success(self, address: str) -> None:
        """An attempt against `address` succeeded."""
        self.breaker_for(address).record_success()

    def record_server_failure(self, address: str) -> None:
        """An attempt against `address` timed out or failed."""
        breaker = self.breaker_for(address)
        before = breaker.trips
        breaker.record_failure()
        if breaker.trips != before:
            self.breaker_opens.add()

    # -- brownout ladder queries ----------------------------------------------

    def cache_fills_allowed(self) -> bool:
        """Ladder rung 1: read misses stop filling the cache."""
        return self.brownout.current_level() < LEVEL_NO_CACHE_FILLS

    def prefer_host_ingress(self) -> bool:
        """Ladder rung 2: SmartDS ingress degrades to the host path."""
        return self.brownout.current_level() >= LEVEL_HOST_INGRESS

    def compression_allowed(self) -> bool:
        """Ladder rung 3: compression is skipped, raw payloads replicate."""
        return self.brownout.current_level() < LEVEL_RAW_REPLICATION
