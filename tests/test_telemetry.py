"""Unit tests for metric collectors, the registry, and reporting."""

import math

import pytest

from repro.sim import Simulator
from repro.telemetry import (
    BandwidthMeter,
    Counter,
    Gauge,
    Histogram,
    LatencyRecorder,
    MetricsRegistry,
    Series,
    format_series,
    format_table,
    registry_for,
)
from repro.units import usec


class TestCounter:
    def test_add_accumulates(self):
        counter = Counter("requests")
        counter.add()
        counter.add(4)
        assert counter.value == 5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Counter().add(-1)


class TestLatencyRecorder:
    def test_mean(self):
        recorder = LatencyRecorder()
        for value in [1.0, 2.0, 3.0]:
            recorder.record(value)
        assert recorder.mean() == pytest.approx(2.0)

    def test_percentile_nearest_rank(self):
        recorder = LatencyRecorder()
        for value in range(1, 101):  # 1..100
            recorder.record(float(value))
        assert recorder.percentile(0.50) == 50.0
        assert recorder.percentile(0.99) == 99.0
        assert recorder.percentile(1.0) == 100.0

    def test_p999_picks_tail_sample(self):
        recorder = LatencyRecorder()
        for _ in range(999):
            recorder.record(1.0)
        recorder.record(100.0)
        assert recorder.percentile(0.999) == 1.0
        assert recorder.percentile(1.0) == 100.0

    def test_summary_keys(self):
        recorder = LatencyRecorder()
        recorder.record(1.0)
        assert set(recorder.summary()) == {"avg", "p50", "p99", "p999"}

    def test_empty_recorder_raises(self):
        with pytest.raises(ValueError):
            LatencyRecorder().mean()
        with pytest.raises(ValueError):
            LatencyRecorder().percentile(0.99)

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            LatencyRecorder().record(-0.1)

    def test_bad_fraction_rejected(self):
        recorder = LatencyRecorder()
        recorder.record(1.0)
        with pytest.raises(ValueError):
            recorder.percentile(0.0)
        with pytest.raises(ValueError):
            recorder.percentile(1.5)


class TestBandwidthMeter:
    def test_rate_over_event_span(self):
        meter = BandwidthMeter()
        meter.record(1.0, 100)
        meter.record(3.0, 100)
        assert meter.rate() == pytest.approx(100.0)  # 200 B over 2 s

    def test_rate_with_explicit_duration(self):
        meter = BandwidthMeter()
        meter.record(0.5, 500)
        assert meter.rate(duration=5.0) == pytest.approx(100.0)

    def test_empty_meter_rate_is_zero(self):
        assert BandwidthMeter().rate() == 0.0

    def test_single_event_rate_is_zero_without_duration(self):
        meter = BandwidthMeter()
        meter.record(1.0, 100)
        assert meter.rate() == 0.0

    def test_single_event_with_explicit_window_counts(self):
        # Regression: a lone burst used to report 0.0 because the
        # implicit first-to-last span was empty; spreading it over the
        # measurement window recovers the real rate.
        meter = BandwidthMeter()
        meter.record(1.0, 100)
        assert meter.rate(duration=2.0) == pytest.approx(50.0)

    def test_non_positive_window_raises(self):
        meter = BandwidthMeter()
        meter.record(1.0, 100)
        with pytest.raises(ValueError):
            meter.rate(duration=0.0)
        with pytest.raises(ValueError):
            meter.rate(duration=-1.0)


class TestHistogram:
    def test_observe_and_exact_stats(self):
        histogram = Histogram("lat")
        for value in [usec(1), usec(2), usec(4)]:
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.mean() == pytest.approx(usec(7) / 3)
        assert histogram.min == pytest.approx(usec(1))
        assert histogram.max == pytest.approx(usec(4))

    def test_exact_bound_lands_in_its_bucket(self):
        histogram = Histogram("h", lowest=1.0, factor=2.0, n_buckets=8)
        histogram.observe(4.0)  # exactly bounds[2]
        assert histogram.counts[2] == 1

    def test_percentile_within_one_factor(self):
        histogram = Histogram("h", lowest=1e-6, factor=2.0)
        for _ in range(99):
            histogram.observe(usec(10))
        histogram.observe(usec(500))
        p50 = histogram.percentile(0.5)
        assert usec(10) <= p50 <= usec(20)
        assert histogram.percentile(1.0) == pytest.approx(usec(500))

    def test_overflow_bucket_reports_observed_max(self):
        histogram = Histogram("h", lowest=1.0, factor=2.0, n_buckets=3)
        histogram.observe(1e9)  # far above the top bound (4.0)
        assert histogram.counts[-1] == 1
        assert histogram.percentile(0.99) == pytest.approx(1e9)

    def test_summary_matches_latency_recorder_shape(self):
        histogram = Histogram()
        histogram.observe(usec(5))
        assert set(histogram.summary()) == {"avg", "p50", "p99", "p999"}

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            Histogram(lowest=0.0)
        with pytest.raises(ValueError):
            Histogram(factor=1.0)
        with pytest.raises(ValueError):
            Histogram().observe(-1.0)
        with pytest.raises(ValueError):
            Histogram().mean()


class TestMetricsRegistry:
    def test_counter_get_or_create(self):
        registry = MetricsRegistry()
        a = registry.counter("hits", component="cache")
        b = registry.counter("hits", component="cache")
        c = registry.counter("hits", component="tier")
        assert a is b
        assert a is not c

    def test_type_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("depth")
        with pytest.raises(ValueError):
            registry.gauge("depth")

    def test_register_same_object_is_noop(self):
        registry = MetricsRegistry()
        counter = Counter("hits")
        registry.register(counter, "cache.hits")
        registry.register(counter, "cache.hits")
        assert registry.get("cache.hits") is counter

    def test_register_collision_raises(self):
        registry = MetricsRegistry()
        registry.register(Counter("hits"), "cache.hits")
        with pytest.raises(ValueError):
            registry.register(Counter("hits"), "cache.hits")

    def test_register_instance_disambiguates(self):
        registry = MetricsRegistry()
        first = Gauge("occ")
        second = Gauge("occ")
        registry.register_instance(first, "hbm.occupancy", component="hbm")
        registry.register_instance(second, "hbm.occupancy", component="hbm")
        assert registry.get("hbm.occupancy", component="hbm") is first
        assert registry.get("hbm.occupancy", component="hbm", instance="1") is second

    def test_attach_and_registry_for(self):
        sim = Simulator()
        assert registry_for(sim) is None
        registry = MetricsRegistry().attach(sim)
        assert registry_for(sim) is registry
        assert registry_for(None) is None  # components with sim=None

    def test_to_dict_shapes(self):
        registry = MetricsRegistry(name="r")
        registry.counter("c", k="v").add(3)
        registry.gauge("g").set(2)
        registry.histogram("h").observe(1.0)
        registry.register(LatencyRecorder("lat"), "lat")
        registry.register(BandwidthMeter("bw"), "bw")
        document = registry.to_dict()
        assert document["registry"] == "r"
        by_name = {entry["name"]: entry for entry in document["series"]}
        assert by_name["c"]["type"] == "counter" and by_name["c"]["value"] == 3
        assert by_name["c"]["labels"] == {"k": "v"}
        assert by_name["g"]["type"] == "gauge" and by_name["g"]["peak"] == 2
        assert by_name["h"]["type"] == "histogram" and by_name["h"]["count"] == 1
        assert by_name["lat"]["type"] == "latency" and by_name["lat"]["summary"] is None
        assert by_name["bw"]["type"] == "bandwidth"

    def test_to_dict_sorted_and_probes_included(self):
        registry = MetricsRegistry()
        # Registered deliberately out of order, with label variants.
        registry.counter("zeta").add()
        registry.gauge_callable("probe.depth", lambda: 4.0, component="tier")
        registry.counter("alpha", shard="s1").add()
        registry.counter("alpha", shard="s0").add()
        series = registry.to_dict()["series"]
        keys = [
            (entry["name"], tuple(sorted(entry["labels"].items())))
            for entry in series
        ]
        assert keys == sorted(keys)  # dumps of the same run diff cleanly
        probe = next(entry for entry in series if entry["type"] == "probe")
        assert probe["name"] == "probe.depth"
        assert probe["value"] == 4.0

    def test_to_dict_survives_crashing_probe(self):
        registry = MetricsRegistry()

        def bad() -> float:
            raise RuntimeError("sensor detached")

        registry.gauge_callable("probe.bad", bad)
        (entry,) = registry.to_dict()["series"]
        assert entry["type"] == "probe"
        assert entry["value"] is None

    def test_gauge_callable_probed_at_sample_time(self):
        registry = MetricsRegistry()
        depth = [0]
        registry.gauge_callable("queue.depth", lambda: depth[0], component="tier")
        depth[0] = 7
        sample = registry.sample_now(1.5)
        assert sample["t"] == 1.5
        assert sample["gauges"]["queue.depth{component=tier}"] == 7

    def test_sampler_records_and_drains(self):
        sim = Simulator()
        registry = MetricsRegistry().attach(sim)
        gauge = registry.gauge("level")

        def work():
            for i in range(4):
                gauge.set(i)
                yield sim.timeout(usec(300))

        sim.process(work())
        registry.start_sampler(sim, usec(100))
        sim.run()  # must terminate: the sampler stops on an empty queue
        assert len(registry.samples()) >= 4
        assert registry.samples()[-1]["gauges"]["level"] == 3

    def test_sampler_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            MetricsRegistry().start_sampler(Simulator(), 0.0)


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1], ["long-name", 22]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "long-name" in lines[3]

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_series_requires_matching_lengths(self):
        with pytest.raises(ValueError):
            Series("s", (1.0, 2.0), (1.0,))

    def test_series_peak(self):
        series = Series("s", (1.0, 2.0, 3.0), (5.0, 9.0, 7.0))
        assert series.peak() == 9.0

    def test_format_series_shares_x_axis(self):
        a = Series("a", (1.0, 2.0), (10.0, 20.0))
        b = Series("b", (1.0, 2.0), (30.0, 40.0))
        text = format_series([a, b], x_label="cores")
        assert "cores" in text and "a" in text and "b" in text

    def test_format_series_rejects_mismatched_x(self):
        a = Series("a", (1.0, 2.0), (10.0, 20.0))
        b = Series("b", (1.0, 3.0), (30.0, 40.0))
        with pytest.raises(ValueError):
            format_series([a, b], x_label="x")
