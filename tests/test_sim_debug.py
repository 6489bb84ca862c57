"""Tests for repro.sim.debug: drain auditor, flow ledger, fault plans."""

import pytest

from repro.core import SmartDsApi, SmartDsDevice
from repro.core.engines import encrypt_op
from repro.net import Message, NetworkPort, Payload, RoceEndpoint
from repro.params import PlatformSpec
from repro.sim import (
    DrainAuditor,
    FaultPlan,
    FaultWindow,
    FlowLedger,
    InvariantViolation,
    Resource,
    SimulationError,
    Simulator,
    Store,
)


def plain_endpoint(sim, name):
    platform = PlatformSpec()
    port = NetworkPort(sim, rate=platform.network.port_rate, name=f"{name}.port")
    return RoceEndpoint(sim, port, name, spec=platform.network)


# ---------------------------------------------------------------------------
# DrainAuditor
# ---------------------------------------------------------------------------


class TestDrainAuditor:
    def test_clean_run_is_ok(self):
        sim = Simulator()
        resource = Resource(sim, capacity=2)
        store = Store(sim)

        def worker():
            yield sim.process(resource.use(1.0))
            yield store.put("x")
            yield store.get()

        sim.process(worker())
        sim.run()
        report = DrainAuditor(sim).audit()
        assert report.ok
        assert str(report) == "<AuditReport clean>"
        DrainAuditor(sim).check()  # does not raise

    @pytest.mark.drain_audit_exempt
    def test_leaked_slot_is_reported(self):
        sim = Simulator()
        resource = Resource(sim, capacity=2, name="engine-unit")

        def forgetful():
            yield resource.request()  # granted, never released

        sim.process(forgetful())
        sim.run()
        report = DrainAuditor(sim).audit()
        [finding] = report.by_kind("leaked-slot")
        assert finding.subject == "engine-unit"
        assert "1/2" in finding.detail

    @pytest.mark.drain_audit_exempt
    def test_stranded_getter_and_stuck_process(self):
        sim = Simulator()
        store = Store(sim, name="empty-queue")

        def starved():
            yield store.get()  # no put will ever come

        sim.process(starved(), name="consumer")
        sim.run()
        report = DrainAuditor(sim).audit()
        [getter] = report.by_kind("stranded-getter")
        assert getter.subject == "empty-queue"
        assert "consumer" in getter.detail
        [stuck] = report.by_kind("stuck-process")
        assert stuck.subject == "consumer"
        assert "get:empty-queue" in stuck.detail  # names the parked-on event

    def test_daemon_loops_are_expected_to_be_parked(self):
        """Forever service loops marked daemon produce no findings."""
        sim = Simulator()
        store = Store(sim, name="service-queue")

        def service():
            while True:
                yield store.get()

        sim.process(service(), name="recv-loop", daemon=True)
        sim.run()
        assert DrainAuditor(sim).audit().ok

    @pytest.mark.drain_audit_exempt
    def test_stranded_putter_on_bounded_store(self):
        sim = Simulator()
        store = Store(sim, capacity=1, name="tiny")

        def producer():
            yield store.put("fits")
            yield store.put("never-fits")

        sim.process(producer(), name="producer")
        sim.run()
        report = DrainAuditor(sim).audit()
        [putter] = report.by_kind("stranded-putter")
        assert putter.subject == "tiny"
        assert "never-fits" in putter.detail
        assert "producer" in putter.detail

    @pytest.mark.drain_audit_exempt
    def test_abandoned_event_is_distinguished_from_parked_process(self):
        sim = Simulator()
        store = Store(sim, name="orphan")
        store.get()  # event created and dropped; nobody ever waits on it
        sim.run()
        report = DrainAuditor(sim).audit()
        [getter] = report.by_kind("stranded-getter")
        assert "no process attached" in getter.detail

    def test_not_drained_audit_is_flagged_partial(self):
        sim = Simulator()

        def sleeper():
            yield sim.timeout(100.0)

        sim.process(sleeper())
        sim.run(until=1.0)  # stop early: queue still holds the wakeup
        report = DrainAuditor(sim).audit()
        assert report.by_kind("not-drained")

    @pytest.mark.drain_audit_exempt
    def test_check_raises_with_every_finding_listed(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1, name="leaky")
        store = Store(sim, name="starving")

        def bad():
            yield resource.request()
            yield store.get()

        sim.process(bad(), name="bad-actor")
        sim.run()
        with pytest.raises(InvariantViolation) as excinfo:
            DrainAuditor(sim).check()
        text = str(excinfo.value)
        assert "leaked-slot" in text
        assert "stranded-getter" in text
        assert "stuck-process" in text


# ---------------------------------------------------------------------------
# FlowLedger
# ---------------------------------------------------------------------------


class TestFlowLedger:
    def test_record_and_total(self):
        ledger = FlowLedger()
        ledger.record("a", "f1", 100)
        ledger.record("a", "f1", 50)
        ledger.record("b", "f1", 150)
        ledger.record("a", "f2", 7)
        assert ledger.total("f1", "a") == 150
        assert ledger.total("f1", "a", "b") == 300
        assert ledger.total("f2", "b") == 0  # never seen there
        assert set(ledger.flows()) == {"f1", "f2"}
        assert ledger.points("f1") == {"a": 150, "b": 150}

    def test_negative_bytes_rejected(self):
        with pytest.raises(SimulationError):
            FlowLedger().record("a", "f", -1)

    def test_assert_balanced(self):
        ledger = FlowLedger()
        ledger.record("in", "f", 100)
        ledger.record("out", "f", 300)
        ledger.assert_balanced("f", ["in"], ["out"], scale=3.0)  # fan-out of 3
        with pytest.raises(InvariantViolation, match="flow 'f'"):
            ledger.assert_balanced("f", ["in"], ["out"])

    def test_transient_assertion_leaves_no_expectation_behind(self):
        ledger = FlowLedger()
        ledger.record("in", "f", 1)
        with pytest.raises(InvariantViolation):
            ledger.assert_balanced("f", ["in"], ["out"])
        assert ledger.imbalances() == []

    @pytest.mark.drain_audit_exempt  # the deliberate imbalance would fail conftest
    def test_drain_auditor_reports_declared_imbalance(self):
        sim = Simulator()
        ledger = FlowLedger(sim, name="conservation")
        ledger.record("in", "f", 100)
        ledger.expect_balanced("f", ["in"], ["out"])  # out never recorded
        sim.run()
        report = DrainAuditor(sim).audit()
        [finding] = report.by_kind("flow-imbalance")
        assert finding.subject == "conservation"
        assert "100" in finding.detail

    def test_bytes_conserved_across_wire_and_split(self):
        """One tagged write: wire tx == wire rx, HBM holds the payload."""
        sim = Simulator()
        device = SmartDsDevice(sim)
        api = SmartDsApi(device)
        vm = plain_endpoint(sim, "vm")
        qp = vm.connect(device.instance(0).endpoint)
        ledger = FlowLedger(sim).attach(
            vm.port, device.instance(0).port, device.pcie, device.hbm
        )
        h_buf = api.host_alloc(64)
        d_buf = api.dev_alloc(4608)
        api.dev_mixed_recv(qp.peer, h_buf, 64, d_buf, 4608)
        message = Message(
            "write_request", "vm", "t",
            payload=Payload.synthetic(4096, 2.0),
            header={"block_id": 1},
            flow="req-1",
        )

        def sender():
            yield qp.send(message)

        sim.process(sender())
        sim.run()
        # Store-and-forward: every wire byte serialized at tx lands at rx.
        wire = message.size + vm.spec.roce_overhead_bytes
        assert ledger.total("req-1", "vm.port.tx") == wire
        ledger.assert_balanced("req-1", ["vm.port.tx"], ["smartds.port0.rx"])
        # The Split module put exactly the payload bytes into HBM.
        assert ledger.total("req-1", "smartds.hbm.write") == 4096
        DrainAuditor(sim).check()

    def test_lossy_fabric_accounts_dropped_attempts_exactly(self):
        """Lost attempts land in ``<tx>.dropped``: tx == rx + tx.dropped.

        Regression: retransmitted attempts were booked at the tx point
        only (rx sees just the delivered frame), so a plain ``tx == rx``
        conservation check spuriously failed whenever loss was active.
        """
        from repro.params import NetworkSpec
        from repro.units import gbps, usec

        sim = Simulator()
        spec = NetworkSpec(loss_rate=0.4, retransmit_timeout=usec(20))
        left = RoceEndpoint(
            sim, NetworkPort(sim, gbps(100), "a.port"), "a", spec=spec, loss_seed=7
        )
        right = RoceEndpoint(sim, NetworkPort(sim, gbps(100), "b.port"), "b", spec=spec)
        qp = left.connect(right)
        ledger = FlowLedger(sim).attach(left.port, right.port)

        def sender():
            sends = [
                qp.send(Message("d", "a", "b", payload=Payload.synthetic(512, 1.0), flow="f"))
                for _ in range(20)
            ]
            yield sim.all_of(sends)

        def receiver():
            for _ in range(20):
                yield qp.peer.recv()

        sim.process(sender())
        sim.process(receiver())
        sim.run()
        assert left.retransmissions.value > 0  # loss actually happened
        assert ledger.total("f", "a.port.tx.dropped") > 0
        ledger.assert_balanced("f", ["a.port.tx"], ["b.port.rx", "a.port.tx.dropped"])
        DrainAuditor(sim).check()

    def test_replica_fanout_reads_payload_once_per_replica(self):
        """Assemble reads the HBM payload exactly ``replicas`` times."""
        sim = Simulator()
        device = SmartDsDevice(sim)
        api = SmartDsApi(device)
        vm = plain_endpoint(sim, "vm")
        sink = plain_endpoint(sim, "sink")
        qp = vm.connect(device.instance(0).endpoint)
        out_qp = device.instance(0).endpoint.connect(sink)
        ledger = FlowLedger(sim).attach(device.hbm)
        h_buf = api.host_alloc(64)
        d_buf = api.dev_alloc(4608)
        event = api.dev_mixed_recv(qp.peer, h_buf, 64, d_buf, 4608)
        incoming = Message(
            "write_request", "vm", "t",
            payload=Payload.synthetic(4096, 2.0),
            header={"chunk_id": 0, "block_id": 9},
            flow="blk-9",
        )

        def tier():
            yield qp.send(incoming)
            yield from api.poll(event)
            for _ in range(3):  # 3-replica fan-out of the stored payload
                yield out_qp.send(
                    Message(
                        "storage_write", "t", "sink",
                        payload=event.message.payload,
                        header={"chunk_id": 0, "block_id": 9},
                        flow="blk-9",
                    )
                )

        sim.process(tier())
        sim.run()
        ledger.assert_balanced(
            "blk-9", ["smartds.hbm.write"], ["smartds.hbm.read"], scale=3.0
        )
        DrainAuditor(sim).check()

    def test_engine_conserves_bytes_for_size_preserving_op(self):
        sim = Simulator()
        device = SmartDsDevice(sim)
        engine = device.instance(0).engine
        ledger = FlowLedger(sim).attach(device.hbm)
        src = device.allocator.alloc(4096)
        dst = device.allocator.alloc(4096)
        src.payload = Payload.from_bytes(b"\xAB" * 4096)

        def body():
            yield engine.run(src, 4096, dst, operation=encrypt_op, flow="seal")

        sim.process(body())
        sim.run()
        ledger.assert_balanced("seal", ["smartds.hbm.read"], ["smartds.hbm.write"])
        DrainAuditor(sim).check()


# ---------------------------------------------------------------------------
# FaultPlan
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_same_seed_replays_identically(self):
        def sequence(seed):
            plan = FaultPlan(seed=seed).add_loss_burst(0.0, 10.0, probability=0.5)
            return [plan.frame_lost(0.01 * i) for i in range(200)]

        first = sequence(42)
        assert first == sequence(42)  # replayable from the seed alone
        assert first != sequence(43)  # and the seed actually matters
        assert any(first) and not all(first)  # probabilistic, not constant

    def test_loss_outside_burst_never_drops(self):
        plan = FaultPlan().add_loss_burst(5.0, 1.0)
        assert not plan.frame_lost(4.999)
        assert plan.frame_lost(5.0)
        assert plan.frame_lost(5.999)
        assert not plan.frame_lost(6.0)  # window is half-open

    def test_stall_windows_chain(self):
        plan = FaultPlan().add_pcie_stall(1.0, 1.0).add_pcie_stall(2.0, 1.0)
        # Landing mid-first-window waits out both consecutive windows.
        assert plan.stall_delay(1.5, "h2d") == pytest.approx(1.5)
        assert plan.stall_delay(2.5, "d2h") == pytest.approx(0.5)
        assert plan.stall_delay(3.0, "h2d") == 0.0

    def test_directional_stalls_are_independent(self):
        plan = FaultPlan().add_pcie_stall(0.0, 1.0, direction="d2h")
        assert plan.stall_delay(0.5, "d2h") == pytest.approx(0.5)
        assert plan.stall_delay(0.5, "h2d") == 0.0

    def test_slowdown_factor_applies_inside_window_only(self):
        plan = FaultPlan().add_engine_slowdown(1.0, 1.0, factor=4.0)
        assert plan.slowdown(0.5) == 1.0
        assert plan.slowdown(1.5) == 4.0
        assert plan.slowdown(2.5) == 1.0

    def test_schedule_validation(self):
        plan = FaultPlan()
        with pytest.raises(SimulationError):
            plan.add_loss_burst(0.0, 1.0, probability=0.0)
        with pytest.raises(SimulationError):
            plan.add_loss_burst(0.0, 1.0, probability=1.5)
        with pytest.raises(SimulationError):
            plan.add_loss_burst(0.0, 0.0)  # empty window
        with pytest.raises(SimulationError):
            plan.add_pcie_stall(0.0, 1.0, direction="sideways")
        with pytest.raises(SimulationError):
            plan.add_engine_slowdown(0.0, 1.0, factor=0.5)
        with pytest.raises(SimulationError):
            FaultWindow(2.0, 1.0)

    def test_describe_is_a_replay_recipe(self):
        plan = (
            FaultPlan(seed=7)
            .add_loss_burst(0.0, 1.0, probability=0.25)
            .add_pcie_stall(2.0, 1.0, direction="h2d")
            .add_engine_slowdown(4.0, 1.0, factor=2.0)
        )
        text = plan.describe()
        assert "seed=7" in text
        assert "loss" in text and "p=0.25" in text
        assert "stall h2d" in text
        assert "x2" in text

    def test_pcie_stall_delays_dma(self):
        stall = 1e-3

        def write_time(plan):
            sim = Simulator()
            device = SmartDsDevice(sim, fault_plan=plan)

            def body():
                yield from device.pcie.dma_write(4096)

            sim.process(body())
            sim.run()
            return sim.now

        baseline = write_time(None)
        stalled = write_time(FaultPlan().add_pcie_stall(0.0, stall, direction="d2h"))
        assert baseline < stall
        assert stalled == pytest.approx(baseline + stall)

    def test_engine_slowdown_stretches_occupancy(self):
        def run_time(plan):
            sim = Simulator()
            device = SmartDsDevice(sim, fault_plan=plan)
            src = device.allocator.alloc(4096)
            dst = device.allocator.alloc(8192)
            src.payload = Payload.synthetic(4096, 2.0)

            def body():
                yield device.instance(0).engine.run(src, 4096, dst)

            sim.process(body())
            sim.run()
            return sim.now

        baseline = run_time(None)
        slowed = run_time(FaultPlan().add_engine_slowdown(0.0, 1.0, factor=8.0))
        assert slowed > baseline
