"""Seeded retry policies for time-out driven fail-over (§2.2.3).

The paper's middle tier is the availability linchpin of the store:
writes must survive storage-server crashes (fail-over plus
re-replication) and reads must never block forever on a dead replica.
:class:`RetryPolicy` centralises the knobs every retry loop needs —
attempt budget, per-attempt time-out, exponential backoff, an overall
deadline — and keeps the jitter *deterministic*: the backoff for
attempt `n` of request `token` is a pure function of
``(seed, token, n)``, so a chaos run replayed from the same
:class:`~repro.sim.debug.FaultPlan` seed reproduces the exact same
retry schedule (see ``docs/robustness.md``).
"""

from __future__ import annotations

import dataclasses
import math

from repro.middletier.admission import jitter_unit
from repro.params import RecoverySpec
from repro.units import msec, usec


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """How one class of requests retries: attempts, time-outs, backoff.

    All durations are seconds of simulated time. `deadline` bounds the
    whole request (first send to last give-up) and may be ``inf`` for
    writes, where durability beats latency; reads use a finite deadline
    so a request against a dead replica set degrades to
    ``status="unavailable"`` instead of hanging.
    """

    max_attempts: int = 8
    attempt_timeout: float = msec(5)
    backoff_base: float = usec(50)
    backoff_multiplier: float = 2.0
    backoff_cap: float = msec(1)
    jitter: float = 0.25
    deadline: float = math.inf
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.attempt_timeout <= 0:
            raise ValueError(f"attempt_timeout must be positive, got {self.attempt_timeout!r}")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff durations must be non-negative")
        if self.backoff_multiplier < 1.0:
            raise ValueError(f"backoff_multiplier must be >= 1, got {self.backoff_multiplier!r}")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter fraction must be in [0, 1), got {self.jitter!r}")
        if self.deadline <= 0:
            raise ValueError(f"deadline must be positive, got {self.deadline!r}")

    # -- construction from the platform's calibrated defaults ---------------

    @classmethod
    def for_writes(cls, spec: RecoverySpec) -> "RetryPolicy":
        """The replica-write policy: unbounded deadline, bounded attempts."""
        return cls(
            max_attempts=spec.write_max_attempts,
            attempt_timeout=spec.write_attempt_timeout,
            backoff_base=spec.backoff_base,
            backoff_multiplier=spec.backoff_multiplier,
            backoff_cap=spec.backoff_cap,
            jitter=spec.backoff_jitter,
            deadline=math.inf,
        )

    @classmethod
    def for_reads(cls, spec: RecoverySpec) -> "RetryPolicy":
        """The read fail-over policy: finite deadline, then "unavailable"."""
        return cls(
            max_attempts=spec.read_max_attempts,
            attempt_timeout=spec.read_attempt_timeout,
            backoff_base=spec.backoff_base,
            backoff_multiplier=spec.backoff_multiplier,
            backoff_cap=spec.backoff_cap,
            jitter=spec.backoff_jitter,
            deadline=spec.read_deadline,
        )

    # -- per-attempt queries -------------------------------------------------

    def timeout_for(self, attempt: int, elapsed: float = 0.0) -> float:
        """Wait budget for `attempt` (1-based), clipped to the deadline."""
        if attempt < 1:
            raise ValueError(f"attempts are 1-based, got {attempt}")
        return min(self.attempt_timeout, self.remaining(elapsed))

    def backoff_before(self, attempt: int, token: int = 0) -> float:
        """Pause before retry `attempt` (2-based; attempt 1 never waits).

        Exponential in the attempt number, capped, with deterministic
        jitter drawn from ``(seed, token, attempt)`` — `token` should be
        a value stable across replays (e.g. the block address), not a
        process-global id.
        """
        if attempt <= 1:
            return 0.0
        raw = min(
            self.backoff_base * self.backoff_multiplier ** (attempt - 2),
            self.backoff_cap,
        )
        if self.jitter == 0.0 or raw == 0.0:
            return raw
        unit = jitter_unit(self.seed, token, attempt)
        return raw * (1.0 - self.jitter + 2.0 * self.jitter * unit)

    def attempts_exhausted(self, attempts_made: int) -> bool:
        """True once `attempts_made` used up the attempt budget."""
        return attempts_made >= self.max_attempts

    def deadline_expired(self, elapsed: float) -> bool:
        """True once `elapsed` seconds have consumed the overall deadline."""
        return elapsed >= self.deadline

    def remaining(self, elapsed: float) -> float:
        """Deadline budget left after `elapsed` seconds (``inf`` if unbounded)."""
        return max(0.0, self.deadline - elapsed)

    def describe(self) -> dict:
        """The policy knobs as span/report attributes (JSON-safe).

        Attached to give-up spans (e.g. ``read.unavailable``) so a
        degraded request's trace shows *which budget* ran out without
        cross-referencing the platform spec.
        """
        return {
            "max_attempts": self.max_attempts,
            "attempt_timeout": self.attempt_timeout,
            "deadline": None if math.isinf(self.deadline) else self.deadline,
        }
