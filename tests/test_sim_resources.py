"""Unit tests for Resource, Store, and BandwidthServer."""

import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import BandwidthServer, Resource, SimulationError, Simulator, Store


class TestResource:
    def test_capacity_limits_concurrency(self):
        sim = Simulator()
        resource = Resource(sim, capacity=2)
        active = []
        peak = []

        def worker():
            req = resource.request()
            yield req
            active.append(1)
            peak.append(len(active))
            yield sim.timeout(1.0)
            active.pop()
            resource.release(req)

        for _ in range(5):
            sim.process(worker())
        sim.run()
        assert max(peak) == 2

    def test_fifo_grant_order(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        order = []

        def worker(tag):
            req = resource.request()
            yield req
            order.append(tag)
            yield sim.timeout(1.0)
            resource.release(req)

        for tag in range(4):
            sim.process(worker(tag))
        sim.run()
        assert order == [0, 1, 2, 3]

    def test_grant_yields_none(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        granted = []

        def worker():
            req = resource.request()
            granted.append((yield req))
            yield sim.timeout(1.0)
            resource.release(req)

        sim.process(worker())  # granted at once
        sim.process(worker())  # queued, granted on release
        sim.run()
        assert granted == [None, None]

    def test_priority_jumps_queue(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        order = []

        def worker(tag, priority, start):
            yield sim.timeout(start)
            req = resource.request(priority=priority)
            yield req
            order.append(tag)
            yield sim.timeout(10.0)
            resource.release(req)

        sim.process(worker("first", 0, 0.0))
        sim.process(worker("low", 5, 1.0))
        sim.process(worker("high", 1, 2.0))
        sim.run()
        assert order == ["first", "high", "low"]

    def test_release_of_queued_request_cancels_it(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        holder = resource.request()
        queued = resource.request()
        assert len(resource.waiting_requests()) == 1
        resource.release(queued)
        assert len(resource.waiting_requests()) == 0
        resource.release(holder)
        assert resource.in_use == 0

    def test_cancel_is_not_a_release(self):
        """Cancelling a queued request must not grant a phantom slot."""
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        holder = resource.request()
        queued_a = resource.request()
        queued_b = resource.request()
        resource.release(queued_a)  # cancel the middle waiter
        assert resource.in_use == 1  # holder still owns the only slot
        assert not queued_b.triggered  # b did not get a slot out of thin air
        resource.release(holder)
        assert queued_b.triggered  # b inherits the real slot

    def test_double_cancel_raises(self):
        """Cancelling the same queued request twice is a model bug.

        Regression: ``_waiting.remove`` used to raise a bare
        ``ValueError: list.remove(x)`` — now it is a ``SimulationError``
        naming the resource.
        """
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        resource.request()
        queued = resource.request()
        resource.release(queued)
        with pytest.raises(SimulationError, match="not queued"):
            resource.release(queued)

    def test_release_on_idle_resource_raises(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        granted = resource.request()
        resource.release(granted)
        with pytest.raises(SimulationError, match="idle"):
            resource.release(granted)

    def test_release_checks_ownership(self):
        sim = Simulator()
        mine = Resource(sim, capacity=1, name="mine")
        other = Resource(sim, capacity=1, name="other")
        req = mine.request()
        with pytest.raises(SimulationError, match="does not belong"):
            other.release(req)

    def test_equal_priorities_keep_arrival_order(self):
        """The priority insert is stable: ties are served FIFO."""
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        order = []

        def worker(tag, priority, start):
            yield sim.timeout(start)
            req = resource.request(priority=priority)
            yield req
            order.append(tag)
            yield sim.timeout(10.0)
            resource.release(req)

        sim.process(worker("holder", 0, 0.0))
        sim.process(worker("a", 1, 1.0))
        sim.process(worker("b", 1, 2.0))
        sim.process(worker("c", 1, 3.0))
        sim.process(worker("urgent", 0, 4.0))
        sim.run()
        assert order == ["holder", "urgent", "a", "b", "c"]

    def test_bad_capacity_rejected(self):
        with pytest.raises(SimulationError):
            Resource(Simulator(), capacity=0)


class TestStore:
    def test_put_then_get(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def consumer():
            item = yield store.get()
            got.append(item)

        sim.process(consumer())
        store.put("block")
        sim.run()
        assert got == ["block"]

    def test_get_blocks_until_put(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def consumer():
            item = yield store.get()
            got.append((sim.now, item))

        def producer():
            yield sim.timeout(3.0)
            yield store.put("late")

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert got == [(3.0, "late")]

    def test_fifo_ordering(self):
        sim = Simulator()
        store = Store(sim)
        for item in ["a", "b", "c"]:
            store.put(item)
        got = []

        def consumer():
            for _ in range(3):
                item = yield store.get()
                got.append(item)

        sim.process(consumer())
        sim.run()
        assert got == ["a", "b", "c"]

    def test_bounded_put_blocks_until_space(self):
        sim = Simulator()
        store = Store(sim, capacity=1)
        events = []

        def producer():
            yield store.put("one")
            events.append(("put one", sim.now))
            yield store.put("two")
            events.append(("put two", sim.now))

        def consumer():
            yield sim.timeout(5.0)
            item = yield store.get()
            events.append((f"got {item}", sim.now))

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert ("put two", 5.0) in events

    def test_blocked_putters_wake_in_fifo_order(self):
        """Items from blocked putters enter the buffer in arrival order."""
        sim = Simulator()
        store = Store(sim, capacity=1)
        got = []

        def producer(tag, start):
            yield sim.timeout(start)
            yield store.put(tag)

        def consumer():
            yield sim.timeout(10.0)
            for _ in range(4):
                got.append((yield store.get()))

        sim.process(producer("a", 0.0))  # fills the single slot
        sim.process(producer("b", 1.0))  # blocks
        sim.process(producer("c", 2.0))  # blocks behind b
        sim.process(producer("d", 3.0))  # blocks behind c
        sim.process(consumer())
        sim.run()
        assert got == ["a", "b", "c", "d"]

    def test_put_hands_item_straight_to_waiting_getter(self):
        """With a getter parked, put bypasses the buffer entirely."""
        sim = Simulator()
        store = Store(sim, capacity=1)
        got = []

        def consumer(tag):
            got.append((tag, (yield store.get())))

        def producer():
            yield sim.timeout(1.0)
            yield store.put("x")
            yield store.put("y")

        sim.process(consumer("first"))
        sim.process(consumer("second"))
        sim.process(producer())
        sim.run()
        assert got == [("first", "x"), ("second", "y")]
        assert len(store) == 0

    def test_bad_store_capacity_rejected(self):
        with pytest.raises(SimulationError):
            Store(Simulator(), capacity=0)


class TestBandwidthServer:
    def test_single_transfer_takes_size_over_rate(self):
        sim = Simulator()
        pipe = BandwidthServer(sim, rate=100.0)

        def body():
            yield pipe.transfer(250)

        sim.process(body())
        sim.run()
        assert sim.now == pytest.approx(2.5)

    def test_transfers_queue_fifo(self):
        sim = Simulator()
        pipe = BandwidthServer(sim, rate=100.0)
        done = []

        def body(tag, nbytes):
            yield pipe.transfer(nbytes)
            done.append((tag, sim.now))

        sim.process(body("a", 100))
        sim.process(body("b", 100))
        sim.run()
        assert done == [("a", 1.0), ("b", 2.0)]

    def test_lanes_split_rate_but_parallelize(self):
        sim = Simulator()
        pipe = BandwidthServer(sim, rate=100.0, lanes=2)
        done = []

        def body(tag):
            yield pipe.transfer(100)
            done.append((tag, sim.now))

        sim.process(body("a"))
        sim.process(body("b"))
        sim.run()
        # Each lane runs at 50 B/s, both transfers proceed in parallel.
        assert done == [("a", 2.0), ("b", 2.0)]

    def test_per_transfer_overhead_adds_latency(self):
        sim = Simulator()
        pipe = BandwidthServer(sim, rate=100.0, per_transfer_overhead=0.25)

        def body():
            yield pipe.transfer(100)

        sim.process(body())
        sim.run()
        assert sim.now == pytest.approx(1.25)

    def test_background_traffic_delays_foreground(self):
        sim = Simulator()
        pipe = BandwidthServer(sim, rate=100.0)
        finish = []

        def background():
            while sim.now < 10.0:
                yield pipe.transfer(100)

        def foreground():
            yield sim.timeout(0.5)
            yield pipe.transfer(10)
            finish.append(sim.now)

        sim.process(background())
        sim.process(foreground())
        sim.run(until=20.0)
        # Must wait for the in-flight background transfer (ends t=1.0).
        assert finish and finish[0] >= 1.0

    def test_bytes_served_accumulates(self):
        sim = Simulator()
        pipe = BandwidthServer(sim, rate=1000.0)

        def body():
            yield pipe.transfer(300)
            yield pipe.transfer(200)

        sim.process(body())
        sim.run()
        assert pipe.bytes_served == 500


class TestHeapQueueSemantics:
    """The heap-backed waiter queue must behave exactly like the seed's
    sorted list: grants by (priority, arrival), cancels drop out cleanly."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.tuples(st.just("request"), st.integers(min_value=-3, max_value=3)),
                st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=200)),
                st.tuples(st.just("release"), st.just(0)),
            ),
            min_size=1,
            max_size=120,
        )
    )
    def test_grant_order_matches_reference_model(self, ops):
        """Drive Resource and a sorted-list reference with the same op
        sequence; every grant must go to the same logical request."""
        sim = Simulator()
        resource = Resource(sim, capacity=1, name="model-check")
        granted: list[int] = []  # logical ids, in grant order

        requests: list = []  # (logical_id, Request), queued or granted
        model_queue: list[tuple[int, int]] = []  # (priority, logical_id), sorted
        model_granted: list[int] = []
        holder: list = []  # the Request currently holding the slot
        model_holder: list[int] = []
        next_id = 0

        def sync_grant():
            # A release hands the slot to the head of the model queue.
            if model_queue:
                _, lid = model_queue.pop(0)
                model_granted.append(lid)
                model_holder.append(lid)

        for op, arg in ops:
            if op == "request":
                req = resource.request(priority=arg)
                requests.append((next_id, req))
                if req.triggered:
                    granted.append(next_id)
                if not model_holder and not model_queue:
                    model_granted.append(next_id)
                    model_holder.append(next_id)
                else:
                    # Stable insert by priority, FIFO within equal.
                    index = len(model_queue)
                    while index > 0 and model_queue[index - 1][0] > arg:
                        index -= 1
                    model_queue.insert(index, (arg, next_id))
                next_id += 1
            elif op == "cancel":
                queued = [(lid, r) for lid, r in requests if not r.triggered]
                if not queued:
                    continue
                lid, req = queued[arg % len(queued)]
                resource.release(req)
                requests.remove((lid, req))
                model_queue.remove(next(e for e in model_queue if e[1] == lid))
            else:  # release the current holder
                if not model_holder:
                    continue
                lid = model_holder.pop()
                req = next(r for l, r in requests if l == lid)
                requests.remove((lid, req))
                before = {l for l, r in requests if r.triggered}
                resource.release(req)
                newly = [l for l, r in requests if r.triggered and l not in before]
                granted.extend(newly)
                sync_grant()

        assert granted == model_granted
        assert len(resource.waiting_requests()) == len(model_queue)

    def test_depth_sweep_is_subquadratic(self):
        """Queue-op cost must not scale linearly with depth (the seed's
        sorted list made the deep sweep ~16x slower per op; the heap's
        log factor stays under ~4x even on noisy CI boxes)."""

        def drive(depth: int) -> float:
            sim = Simulator()
            resource = Resource(sim, capacity=1, name="sweep")
            best = float("inf")
            for _ in range(3):
                held = resource.request()
                waiters = [resource.request(priority=-i) for i in range(depth)]
                started = time.perf_counter()
                resource.release(held)
                for waiter in waiters:
                    resource.release(waiter)
                best = min(best, time.perf_counter() - started)
                sim.run()  # drain triggered grant events between rounds
            return best / depth  # seconds per grant

        shallow = drive(1_000)
        deep = drive(16_000)
        assert deep < shallow * 4, (
            f"per-grant cost grew {deep / shallow:.1f}x from depth 1k to 16k; "
            "expected ~O(log n) scaling"
        )
