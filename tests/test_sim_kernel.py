"""Unit tests for the discrete-event simulation kernel."""

import gc
import sys

import pytest

from repro.sim import AllOf, AnyOf, SimulationError, Simulator
from repro.sim.process import Interrupt


def test_timeout_advances_clock():
    sim = Simulator()
    seen = []

    def body():
        yield sim.timeout(1.5)
        seen.append(sim.now)
        yield sim.timeout(0.5)
        seen.append(sim.now)

    sim.process(body())
    sim.run()
    assert seen == [1.5, 2.0]


def test_events_at_same_time_run_fifo():
    sim = Simulator()
    order = []

    def body(tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in range(5):
        sim.process(body(tag))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_process_return_value_propagates():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        return 42

    def parent():
        value = yield sim.process(child())
        return value + 1

    result = sim.run(until=sim.process(parent()))
    assert result == 43


def test_run_until_deadline_stops_early():
    sim = Simulator()
    ticks = []

    def clock():
        while True:
            yield sim.timeout(1.0)
            ticks.append(sim.now)

    sim.process(clock())
    sim.run(until=3.5)
    assert ticks == [1.0, 2.0, 3.0]
    assert sim.now == 3.5


def test_run_until_event_returns_its_value():
    sim = Simulator()
    done = sim.event()

    def body():
        yield sim.timeout(2.0)
        done.succeed("finished")

    sim.process(body())
    assert sim.run(until=done) == "finished"
    assert sim.now == 2.0


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_double_trigger_rejected():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_failed_event_raises_inside_process():
    sim = Simulator()
    boom = sim.event()
    caught = []

    def body():
        try:
            yield boom
        except ValueError as exc:
            caught.append(str(exc))

    sim.process(body())
    boom.fail(ValueError("boom"))
    sim.run()
    assert caught == ["boom"]


def test_unhandled_process_exception_surfaces_in_run():
    sim = Simulator()

    def body():
        yield sim.timeout(1.0)
        raise RuntimeError("model bug")

    sim.process(body())
    with pytest.raises(RuntimeError, match="model bug"):
        sim.run()


def test_concurrent_unhandled_exceptions_all_surface():
    """Several processes failing in one step must not lose any failure.

    Regression: ``step()`` used to pop only ``_unhandled[0]`` and leave
    the rest in the list — a second process's crash in the same step was
    silently discarded. Now the first exception is raised with the
    siblings attached (as ``__notes__`` and ``concurrent_failures``).
    """
    sim = Simulator()
    trigger = sim.timeout(1.0)

    def fail_with(exc):
        yield trigger
        raise exc

    first = RuntimeError("first failure")
    second = ValueError("second failure")
    sim.process(fail_with(first))
    sim.process(fail_with(second))
    with pytest.raises(RuntimeError, match="first failure") as excinfo:
        sim.run()
    raised = excinfo.value
    assert raised is first
    assert raised.concurrent_failures == (second,)
    if sys.version_info >= (3, 11):  # __notes__ is PEP 678 (3.11+)
        assert any("second failure" in note for note in raised.__notes__)
    # Nothing left behind to contaminate a later step.
    assert sim._unhandled == []


def test_single_unhandled_exception_has_no_sibling_note():
    sim = Simulator()

    def body():
        yield sim.timeout(1.0)
        raise RuntimeError("alone")

    sim.process(body())
    with pytest.raises(RuntimeError, match="alone") as excinfo:
        sim.run()
    assert not hasattr(excinfo.value, "concurrent_failures")
    assert not getattr(excinfo.value, "__notes__", [])


def test_yielding_non_event_is_an_error():
    sim = Simulator()

    def body():
        yield 3

    sim.process(body())
    with pytest.raises(SimulationError):
        sim.run()


def test_all_of_waits_for_every_event():
    sim = Simulator()
    t_done = []

    def body():
        yield AllOf(sim, [sim.timeout(1.0), sim.timeout(3.0), sim.timeout(2.0)])
        t_done.append(sim.now)

    sim.process(body())
    sim.run()
    assert t_done == [3.0]


def test_any_of_fires_on_first_event():
    sim = Simulator()
    t_done = []

    def body():
        yield AnyOf(sim, [sim.timeout(5.0), sim.timeout(1.0)])
        t_done.append(sim.now)

    sim.process(body())
    sim.run()
    assert t_done == [1.0]


def test_any_of_constituent_failing_after_it_fired_is_handled():
    sim = Simulator()
    late = sim.event()
    fired = []

    def body():
        value = yield AnyOf(sim, [sim.timeout(1.0, value="first"), late])
        fired.append((sim.now, list(value.values())))

    def fail_late():
        yield sim.timeout(5.0)
        late.fail(ValueError("lost the race"))

    sim.process(body())
    sim.process(fail_late())
    sim.run()  # the late failure must not surface as unhandled
    assert fired == [(1.0, ["first"])]
    assert late.processed and not late.ok


def test_all_of_failing_fast_defuses_a_later_failure():
    sim = Simulator()
    first, second = sim.event(), sim.event()
    caught = []

    def body():
        try:
            yield AllOf(sim, [first, second, sim.timeout(9.0)])
        except ValueError as exc:
            caught.append((sim.now, str(exc)))

    def fail_both():
        yield sim.timeout(1.0)
        first.fail(ValueError("first"))
        yield sim.timeout(1.0)
        second.fail(ValueError("second"))

    sim.process(body())
    sim.process(fail_both())
    sim.run()
    assert caught == [(1.0, "first")]


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("mode", ["drain", "deadline", "stop-event", "raising-callback"])
def test_run_restores_the_collector_state(enabled, mode):
    sim = Simulator()
    during = []

    def body():
        yield sim.timeout(1.0)
        during.append(gc.isenabled())
        yield sim.timeout(1.0)
        return "done"

    def explode(_event):
        raise RuntimeError("callback failed")

    proc = sim.process(body())
    sim.timeout(10.0)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if mode == "drain":
            sim.run()
        elif mode == "deadline":
            sim.run(until=5.0)
        elif mode == "stop-event":
            assert sim.run(until=proc) == "done"
        else:
            sim.timeout(1.5).callbacks.append(explode)
            with pytest.raises(RuntimeError, match="callback failed"):
                sim.run()
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert during == [False]  # paused while events dispatch


def test_interrupt_wakes_sleeping_process():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield sim.timeout(100.0)
        except Interrupt as interrupt:
            log.append((sim.now, interrupt.cause))

    def interrupter(target):
        yield sim.timeout(2.0)
        target.interrupt("wake up")

    target = sim.process(sleeper())
    sim.process(interrupter(target))
    sim.run()
    assert log == [(2.0, "wake up")]


def test_waiting_on_already_processed_event():
    sim = Simulator()
    results = []

    def body():
        done = sim.timeout(1.0, value="early")
        yield sim.timeout(5.0)
        value = yield done  # already fired at t=1
        results.append((sim.now, value))

    sim.process(body())
    sim.run()
    assert results == [(5.0, "early")]


def test_peek_reports_next_event_time():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.timeout(4.0)
    assert sim.peek() == 4.0
