"""Tests for the synthetic corpus and the compression cost models."""

import pytest

from repro.compression import (
    BF2_ENGINE,
    CPU_CORE,
    CPU_SMT_PAIR,
    FPGA_ENGINE,
    RatioSampler,
    SilesiaLikeCorpus,
    compressed_size,
    lz4_compress,
)
from repro.units import gbps


def _block_ratios(corpus, sample_limit):
    """LZ4 ratios of at most `sample_limit` evenly spaced 4 KiB blocks."""
    blocks = corpus.blocks(4096)
    sampled = blocks[:: max(1, len(blocks) // sample_limit)][:sample_limit]
    return [len(block) / len(lz4_compress(block)) for block in sampled]


class TestCorpus:
    def test_deterministic_for_same_seed(self):
        a = SilesiaLikeCorpus(seed=11, file_size=4096)
        b = SilesiaLikeCorpus(seed=11, file_size=4096)
        assert [f.data for f in a.files()] == [f.data for f in b.files()]

    def test_different_seeds_differ(self):
        a = SilesiaLikeCorpus(seed=1, file_size=4096)
        b = SilesiaLikeCorpus(seed=2, file_size=4096)
        assert [f.data for f in a.files()] != [f.data for f in b.files()]

    def test_files_have_requested_size(self):
        corpus = SilesiaLikeCorpus(seed=3, file_size=8192)
        assert all(len(f) == 8192 for f in corpus.files())

    def test_class_mix_present(self):
        corpus = SilesiaLikeCorpus(seed=3, file_size=4096)
        categories = {f.category for f in corpus.files()}
        assert {"dickens", "xml", "nci", "mozilla", "x-ray", "noise"} <= categories

    def test_blocks_cover_files(self):
        corpus = SilesiaLikeCorpus(seed=3, file_size=8192)
        blocks = corpus.blocks(block_size=4096)
        assert len(blocks) == 2 * len(corpus.files())
        assert all(len(block) == 4096 for block in blocks)

    def test_text_compresses_better_than_noise(self):
        corpus = SilesiaLikeCorpus(seed=5, file_size=16384)
        by_category = {f.category: f for f in corpus.files()}
        text_ratio = len(by_category["dickens"].data) / len(
            lz4_compress(by_category["dickens"].data)
        )
        noise_ratio = len(by_category["noise"].data) / len(lz4_compress(by_category["noise"].data))
        assert text_ratio > 1.6  # real Silesia dickens under LZ4 is ~1.6x
        assert noise_ratio < 1.05

    def test_aggregate_ratio_near_silesia_lz4(self):
        """Real Silesia under LZ4 lands around 2.1x; our mix should be close."""
        corpus = SilesiaLikeCorpus(seed=2023, file_size=32768)
        ratios = _block_ratios(corpus, sample_limit=64)
        assert 1.6 < sum(ratios) / len(ratios) < 2.9

    def test_bad_args_rejected(self):
        with pytest.raises(ValueError):
            SilesiaLikeCorpus(file_size=10)
        with pytest.raises(ValueError):
            SilesiaLikeCorpus(file_size=4096).blocks(block_size=1)


class TestCompressorProfiles:
    def test_time_scales_with_size(self):
        assert CPU_CORE.occupancy_time(2 * 4096) == pytest.approx(
            2 * CPU_CORE.occupancy_time(4096)
        )

    def test_calibration_points(self):
        # 4 KB at 2.1 Gb/s is ~15.6 us; at 100 Gb/s ~0.33 us + setup.
        assert CPU_CORE.occupancy_time(4096) == pytest.approx(4096 / gbps(2.1))
        assert FPGA_ENGINE.rate == gbps(100)
        assert BF2_ENGINE.rate == gbps(40)
        assert CPU_SMT_PAIR.rate == gbps(2.7)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            CPU_CORE.occupancy_time(-1)


class TestCompressedSize:
    def test_halving(self):
        assert compressed_size(4096, 2.0) == 2048

    def test_expansion_ratio_below_one(self):
        assert compressed_size(4096, 0.99) > 4096

    def test_zero_bytes(self):
        assert compressed_size(0, 2.0) == 0

    def test_minimum_one_byte(self):
        assert compressed_size(1, 1000.0) == 1

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            compressed_size(-1, 2.0)
        with pytest.raises(ValueError):
            compressed_size(10, 0.0)


class TestRatioSampler:
    def test_constant_sampler(self):
        sampler = RatioSampler.constant(2.5)
        assert sampler.sample() == 2.5
        assert sampler.mean == 2.5

    def test_samples_come_from_calibration_set(self):
        sampler = RatioSampler([1.0, 2.0, 3.0], seed=1)
        assert {sampler.sample() for _ in range(100)} <= {1.0, 2.0, 3.0}

    def test_deterministic_given_seed(self):
        a = RatioSampler([1.0, 2.0, 3.0], seed=9)
        b = RatioSampler([1.0, 2.0, 3.0], seed=9)
        assert [a.sample() for _ in range(20)] == [b.sample() for _ in range(20)]

    def test_from_corpus(self):
        corpus = SilesiaLikeCorpus(seed=4, file_size=8192)
        sampler = RatioSampler(_block_ratios(corpus, sample_limit=16), seed=0)
        assert sampler.mean > 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            RatioSampler([])
        with pytest.raises(ValueError):
            RatioSampler([0.0])
