"""Sim-time profiler: component mapping, exclusive-time folding,
collapsed stacks, and end-to-end attribution over real tier traffic."""

import pytest

from repro.middletier import CpuOnlyMiddleTier, Testbed
from repro.params import DEFAULT_PLATFORM
from repro.sim import Simulator
from repro.telemetry.profiler import (
    COMPONENTS,
    SimProfile,
    _union_length,
    component_of,
)
from repro.telemetry.schemas import validate_profile
from repro.telemetry.spans import SpanCollector
from repro.units import usec
from repro.workloads import ClientDriver, WriteRequestFactory


class TestComponentMapping:
    @pytest.mark.parametrize(
        "name,component",
        [
            ("write_request", "client"),
            ("read_request", "client"),
            ("client.tx", "client"),
            ("net.write_request", "net"),
            ("pcie.dma", "pcie"),
            ("hbm.alloc", "hbm"),
            ("aams.split", "engine"),
            ("compress", "engine"),
            ("storage.write", "storage"),
            ("cache.hit", "cache"),
            ("admission.decide", "admission"),
            ("write.attempt", "tier"),
            ("read.attempt", "tier"),
            ("route.wrong_shard", "routing"),
            ("mystery.stage", "other"),
        ],
    )
    def test_prefix_mapping(self, name, component):
        assert component_of(name) == component
        assert component in COMPONENTS


class TestUnionLength:
    def test_overlapping_intervals_counted_once(self):
        assert _union_length([(0.0, 4.0), (3.0, 6.0)]) == pytest.approx(6.0)

    def test_disjoint_and_nested(self):
        assert _union_length([(0.0, 2.0), (5.0, 6.0), (0.5, 1.0)]) == pytest.approx(3.0)

    def test_empty(self):
        assert _union_length([]) == 0.0


def _tree(sim, collector):
    """root [0,10us]; net [1,4us]; tier [3,6us] with storage [3,5us]."""
    root = collector.request("write_request", 1)
    sim._now = usec(1)
    net = root.child("net.tx")
    sim._now = usec(3)
    tier = root.child("write.attempt")
    storage = tier.child("storage.write")
    sim._now = usec(4)
    net.finish("ok")
    sim._now = usec(5)
    storage.finish("ok")
    sim._now = usec(6)
    tier.finish("ok")
    sim._now = usec(10)
    root.finish("ok")
    return root


def _profile(collector):
    """Fold every trace `collector` recorded."""
    profile = SimProfile()
    for trace_id in collector.trace_ids:
        profile.add_trace(collector.trace(trace_id))
    return profile


class TestFolding:
    def test_exclusive_subtracts_union_of_children(self):
        sim = Simulator()
        collector = SpanCollector(sim)
        _tree(sim, collector)
        profile = _profile(collector)
        rows = {row["component"]: row for row in profile.components()}
        # Root: 10us inclusive; children cover [1,4] U [3,6] = 5us.
        assert rows["client"]["inclusive_us"] == pytest.approx(10.0)
        assert rows["client"]["exclusive_us"] == pytest.approx(5.0)
        # net: leaf, 3us exclusive.
        assert rows["net"]["exclusive_us"] == pytest.approx(3.0)
        # tier [3,6] minus storage [3,5]: 1us exclusive.
        assert rows["tier"]["inclusive_us"] == pytest.approx(3.0)
        assert rows["tier"]["exclusive_us"] == pytest.approx(1.0)
        assert rows["storage"]["exclusive_us"] == pytest.approx(2.0)
        # Concurrent siblings (net and tier overlap in [3,4]) attribute
        # their overlap to *both* — total exclusive exceeds wall time
        # exactly by that concurrency (10us wall + 1us overlap).
        assert profile.total_exclusive == pytest.approx(usec(11))

    def test_child_clipped_to_parent_window(self):
        sim = Simulator()
        collector = SpanCollector(sim)
        root = collector.request("write_request", 1)
        late = root.child("net.rx")
        sim._now = usec(2)
        root.finish("ok")
        sim._now = usec(8)
        late.finish("ok")  # reply-path child outlives the root
        profile = _profile(collector)
        rows = {row["component"]: row for row in profile.components()}
        # Only the overlap [0,2] is subtracted from the root.
        assert rows["client"]["exclusive_us"] == pytest.approx(0.0)
        assert rows["net"]["inclusive_us"] == pytest.approx(8.0)

    def test_collapsed_stacks_nanosecond_weights(self):
        sim = Simulator()
        collector = SpanCollector(sim)
        _tree(sim, collector)
        profile = _profile(collector)
        lines = dict(
            line.rsplit(" ", 1) for line in profile.collapsed().splitlines()
        )
        assert lines["write_request"] == str(int(usec(5) * 1e9))
        assert lines["write_request;net.tx"] == str(int(usec(3) * 1e9))
        assert lines["write_request;write.attempt;storage.write"] == str(
            int(usec(2) * 1e9)
        )

    def test_empty_trace_ignored(self):
        profile = SimProfile()
        profile.add_trace(())
        assert profile.n_traces == 0
        assert profile.collapsed() == ""


class TestOutputs:
    def test_to_dict_is_schema_valid(self):
        sim = Simulator()
        collector = SpanCollector(sim)
        _tree(sim, collector)
        profile = _profile(collector)
        document = profile.to_dict()
        validate_profile(document)
        assert document["n_traces"] == 1
        assert document["n_spans"] == 4

    def test_attribution_table_and_compare_render(self):
        sim = Simulator()
        collector = SpanCollector(sim)
        _tree(sim, collector)
        profile = _profile(collector)
        table = profile.attribution_table()
        assert "client" in table and "share" in table


class TestEndToEnd:
    def test_real_tier_traffic_attribution(self):
        sim = Simulator()
        collector = SpanCollector(sim)
        testbed = Testbed(sim, DEFAULT_PLATFORM, n_storage_servers=3)
        tier = CpuOnlyMiddleTier(sim, testbed, n_workers=2)
        driver = ClientDriver(
            sim,
            tier,
            WriteRequestFactory(DEFAULT_PLATFORM, seed=1),
            concurrency=4,
            warmup_fraction=0.0,
        )
        sim.run(until=driver.run(12))
        profile = _profile(collector)
        assert profile.n_traces == 12
        rows = {row["component"]: row for row in profile.components()}
        # The write path touches at least client, net, and storage.
        assert {"client", "net", "storage"} <= set(rows)
        assert profile.total_exclusive > 0.0
        for row in rows.values():
            assert row["inclusive_us"] >= row["exclusive_us"] >= 0.0
        assert sum(row["share"] for row in rows.values()) == pytest.approx(1.0)
        validate_profile(profile.to_dict())
