"""Compression cost models.

The simulator charges *time* for compression according to who performs
it; these profiles carry the paper's calibration points:

- a single Xeon logical core runs LZ4 at ~2.1 Gb/s, and two SMT threads
  on one physical core reach ~2.7 Gb/s (§5.2);
- each SmartDS FPGA engine processes 4 KB blocks at 100 Gb/s (§5.1);
- the Alveo U280 accelerator engine also reaches ~100 Gb/s (§5.1);
- BlueField-2's on-board compression engine delivers ~40 Gb/s (§3.4);
- cores decompress ~7x faster than they compress (§2.2.3).

Compression *output size* comes from a ratio: either measured by really
compressing the block's bytes (functional mode) or drawn from a
corpus-calibrated :class:`RatioSampler` (performance mode).
"""

from __future__ import annotations

import dataclasses
import random
import typing

from repro.units import gbps


@dataclasses.dataclass(frozen=True)
class CompressorProfile:
    """Throughput profile of one compression resource."""

    name: str
    rate: float  # bytes/second of *input* consumed
    setup_time: float = 0.0  # fixed per-block invocation overhead, seconds

    def occupancy_time(self, nbytes: int) -> float:
        """Seconds the resource is *exclusively busy* on `nbytes`.

        Hardware engines pipeline: the per-block setup latency delays
        one block's completion but does not stall the next block, so
        only the streaming term counts against engine throughput.
        """
        if nbytes < 0:
            raise ValueError(f"cannot compress {nbytes} bytes")
        return nbytes / self.rate


#: One Xeon logical core running the LZ4 library (paper §5.2).
CPU_CORE = CompressorProfile("cpu-core", rate=gbps(2.1))
#: Two SMT threads sharing a physical core (paper §5.2: ~2.7 Gb/s total).
CPU_SMT_PAIR = CompressorProfile("cpu-smt-pair", rate=gbps(2.7))
#: One SmartDS / Alveo FPGA compression engine (paper §5.1: 100 Gb/s on
#: 4 KB blocks). The setup time is the engine's pipeline depth: §5.2
#: observes that FPGA compression *latency* exceeds the CPU's because of
#: the much lower clock, even though the pipelined throughput is 100 Gb/s.
FPGA_ENGINE = CompressorProfile("fpga-engine", rate=gbps(100), setup_time=18e-6)
#: BlueField-2's hardened compression engine (paper §3.4: ~40 Gb/s;
#: an ASIC block, so its pipeline latency is short).
BF2_ENGINE = CompressorProfile("bf2-engine", rate=gbps(40), setup_time=5e-6)
#: LZ4 decompression on a general-purpose core (Xeon or Arm) runs this
#: many times faster than compression (§2.2.3, [49]); engines are
#: symmetric and take no speed-up.
DECOMPRESSION_SPEEDUP = 7.0


def compressed_size(nbytes: int, ratio: float) -> int:
    """Output size of compressing `nbytes` at compression factor `ratio`.

    `ratio` is uncompressed/compressed, so 2.0 halves the block. Ratios
    below 1 (incompressible data that expands) are honoured. Output is
    at least 1 byte for non-empty input.
    """
    if nbytes < 0:
        raise ValueError(f"invalid block size {nbytes}")
    if ratio <= 0:
        raise ValueError(f"invalid compression ratio {ratio!r}")
    if nbytes == 0:
        return 0
    return max(1, round(nbytes / ratio))


class RatioSampler:
    """Draws per-block compression ratios from an empirical distribution.

    Calibrate it once with per-block ratios measured on a corpus and the
    simulator samples a ratio per write request, reproducing the
    block-to-block variability of real data without carrying real bytes.
    """

    def __init__(self, ratios: typing.Sequence[float], seed: int = 0) -> None:
        if not ratios:
            raise ValueError("need at least one calibration ratio")
        if any(r <= 0 for r in ratios):
            raise ValueError("ratios must be positive")
        self._ratios = tuple(ratios)
        self._rng = random.Random(seed)

    @classmethod
    def constant(cls, ratio: float) -> "RatioSampler":
        """A degenerate sampler that always returns `ratio`."""
        return cls([ratio])

    @property
    def mean(self) -> float:
        """Mean of the calibration distribution."""
        return sum(self._ratios) / len(self._ratios)

    def sample(self) -> float:
        """Draw one per-block compression ratio."""
        return self._rng.choice(self._ratios)
