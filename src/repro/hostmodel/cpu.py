"""Host CPU model.

The middle-tier software runs on worker threads pinned to logical cores.
The model's only compute-heavy operation is LZ4 compression, whose rate
depends on SMT sharing (§5.2): a lone thread on a physical core runs at
~2.1 Gb/s, while two SMT siblings together reach ~2.7 Gb/s (1.35 Gb/s
each). :class:`CpuComplex` hands out per-thread
:class:`~repro.compression.model.CompressorProfile` objects that encode
that placement, plus the fixed header-parse and descriptor-post costs.
"""

from __future__ import annotations

from repro.compression.model import CompressorProfile
from repro.params import HostSpec
from repro.units import gbps

#: §5.2 calibration: one thread per physical core.
_LONE_THREAD_RATE = gbps(2.1)
#: §5.2 calibration: two SMT threads sharing a physical core, per thread.
_SMT_THREAD_RATE = gbps(2.7) / 2


class CpuComplex:
    """Thread placement and per-thread compute rates for one host CPU."""

    def __init__(self, spec: HostSpec | None = None) -> None:
        self.spec = spec or HostSpec()

    @property
    def logical_cores(self) -> int:
        """Total schedulable hardware threads."""
        return self.spec.logical_cores

    def validate_thread_count(self, n_threads: int) -> None:
        """Reject thread counts the machine cannot host."""
        if not 1 <= n_threads <= self.logical_cores:
            raise ValueError(
                f"thread count {n_threads} outside 1..{self.logical_cores} logical cores"
            )

    def _smt_shared(self, thread_index: int, n_threads: int) -> bool:
        """Whether thread `thread_index` shares its physical core.

        Threads fill physical cores first (one thread each), then wrap
        onto SMT siblings — the scheduling a tuned middle tier uses. So
        with <= 24 threads nobody shares; beyond that, the first
        ``n_threads - 24`` physical cores are doubly occupied.
        """
        self.validate_thread_count(n_threads)
        if not 0 <= thread_index < n_threads:
            raise ValueError(f"thread index {thread_index} outside 0..{n_threads - 1}")
        physical = self.spec.physical_cores
        if n_threads <= physical:
            return False
        doubled = n_threads - physical
        # Threads 0..doubled-1 got siblings (threads physical..n_threads-1).
        return thread_index < doubled or thread_index >= physical

    def compression_profile(self, thread_index: int, n_threads: int) -> CompressorProfile:
        """LZ4 input rate for one worker thread under a given placement."""
        if self._smt_shared(thread_index, n_threads):
            return CompressorProfile(f"cpu-thread-{thread_index}-smt", rate=_SMT_THREAD_RATE)
        return CompressorProfile(f"cpu-thread-{thread_index}", rate=_LONE_THREAD_RATE)

    @property
    def parse_header_time(self) -> float:
        """Seconds a worker spends parsing one block-storage header."""
        return self.spec.parse_header_time

    @property
    def post_descriptor_time(self) -> float:
        """Seconds a worker spends posting one work request / polling one CQE."""
        return self.spec.post_descriptor_time
