"""Withdrawing decided timers: ``Timeout.cancel`` and the kernel's lazy deletion.

A fail-over race pits an ack against a deadline timer. Once the ack
wins, the timer is cancelled: it must vanish from the simulation as if
it had never been scheduled, while every live event keeps its time and
its place in the dispatch order.
"""

from __future__ import annotations

import random

import pytest

from repro.sim import AnyOf, SimulationError, Simulator, Tracer
from repro.sim import kernel


def test_withdrawn_timer_never_fires_and_leaves_no_trace():
    sim = Simulator()
    tracer = Tracer(sim)
    doomed = sim.timeout(10.0)
    sim.timeout(1.0)
    doomed.cancel()
    assert not sim.idle
    sim.run()
    assert sim.now == 1.0  # the drain did not wait for the withdrawn timer
    assert sim.steps == 1
    assert [name for _, name in tracer.records] == ["timeout(1)"]
    assert sim.idle and sim.peek() == float("inf")
    assert not doomed.processed
    assert "withdrawn" in repr(doomed)
    with pytest.raises(SimulationError, match="not available"):
        doomed.value


def test_won_race_withdraws_its_deadline():
    sim = Simulator()
    ack = sim.event()
    deadline = sim.timeout(100.0)

    def racer():
        yield AnyOf(sim, [ack, deadline])
        deadline.cancel()
        return sim.now

    def acker():
        yield sim.timeout(2.0)
        ack.succeed("ack")

    racer_proc = sim.process(racer())
    sim.process(acker())
    sim.run()
    assert racer_proc.value == 2.0
    assert sim.now == 2.0


def test_cancel_after_the_timer_fired_is_a_no_op():
    sim = Simulator()
    timer = sim.timeout(1.0, value="fired")
    sim.run()
    steps = sim.steps
    timer.cancel()
    timer.cancel()
    assert timer.processed and timer.value == "fired"
    assert sim.steps == steps and sim.idle


def test_cancel_twice_is_a_no_op():
    sim = Simulator()
    timer = sim.timeout(1.0)
    timer.cancel()
    timer.cancel()
    assert sim.idle
    assert "pending=0" in repr(sim)


def test_cancel_with_a_waiting_process_raises():
    sim = Simulator()
    timer = sim.timeout(5.0)

    def sleeper():
        yield timer

    sim.process(sleeper())
    sim.step()  # the start: the sleeper now waits on the timer
    with pytest.raises(SimulationError, match="still waits"):
        timer.cancel()
    sim.run()
    assert sim.now == 5.0


def test_cancel_with_an_undecided_condition_raises():
    sim = Simulator()
    timer = sim.timeout(5.0)
    race = sim.any_of([sim.event(), timer])
    with pytest.raises(SimulationError, match="still waits"):
        timer.cancel()
    sim.run()
    assert race.processed


def test_yielding_a_withdrawn_timer_raises():
    sim = Simulator()
    timer = sim.timeout(5.0)
    timer.cancel()

    def body():
        yield timer

    sim.process(body())
    with pytest.raises(SimulationError, match="withdrawn"):
        sim.run()


def test_a_condition_on_a_withdrawn_timer_raises():
    sim = Simulator()
    timer = sim.timeout(5.0)
    timer.cancel()
    with pytest.raises(SimulationError, match="withdrawn"):
        sim.any_of([sim.event(), timer])


def test_step_and_peek_skip_withdrawn_entries():
    sim = Simulator()
    sim.timeout(1.0).cancel()
    sim.timeout(2.0)
    sim.timeout(3.0).cancel()
    assert sim.peek() == 2.0
    sim.step()
    assert (sim.now, sim.steps) == (2.0, 1)
    assert sim.idle
    with pytest.raises(SimulationError, match="empty"):
        sim.step()
    assert sim.now == 2.0


def test_withdrawn_timers_are_purged_once_they_are_most_of_the_heap():
    sim = Simulator()
    live = [sim.timeout(float(index)) for index in range(10)]
    doomed = [sim.timeout(100.0 + index) for index in range(200)]
    for timer in doomed:
        timer.cancel()
    # Rebuilt whenever withdrawn entries outnumbered the rest above
    # the floor, so at most the floor's worth is left behind.
    assert len(sim._queue) <= len(live) + kernel._WITHDRAWN_FLOOR + 1
    sim.run()
    assert sim.now == 9.0 and sim.steps == 10


def _schedule(seed: int, with_doomed: bool) -> tuple[list, float, int]:
    """A random mix of kept timers and (optionally) timers cancelled later.

    Draws the same random numbers either way, so the two variants
    differ only in the doomed timers. Returns the dispatch log of the
    kept timers, the final clock and the step count.
    """
    rng = random.Random(seed)
    sim = Simulator()
    log = []

    def keep(event):
        log.append((sim.now, event.value))

    def issuer():
        doomed = []
        for index in range(600):
            delay = rng.choice([0.0, 0.5, 1.0, rng.random() * 3.0])
            is_doomed = rng.random() < 0.7
            pick = rng.random()
            cancel_now = rng.random() < 0.6
            if not is_doomed:
                timer = sim.timeout(delay, value=index)
                timer.callbacks.append(keep)
            elif with_doomed:
                # Far enough out that it is always cancelled before firing.
                doomed.append(sim.timeout(1000.0 + delay))
            if with_doomed and doomed and cancel_now:
                doomed.pop(int(pick * len(doomed))).cancel()
            yield sim.timeout(rng.choice([0.0, 0.25]))
        for timer in doomed:
            timer.cancel()

    sim.process(issuer())
    sim.run()
    return log, sim.now, sim.steps


@pytest.mark.parametrize("floor", [0, kernel._WITHDRAWN_FLOOR], ids=["forced", "default"])
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_cancellations_do_not_reorder_live_events(seed, floor, monkeypatch):
    monkeypatch.setattr(kernel, "_WITHDRAWN_FLOOR", floor)
    rebuilds = []
    real_heapify = kernel.heapify

    def counting_heapify(queue):
        rebuilds.append(len(queue))
        real_heapify(queue)

    monkeypatch.setattr(kernel, "heapify", counting_heapify)
    reference = _schedule(seed, with_doomed=False)
    assert not rebuilds
    assert _schedule(seed, with_doomed=True) == reference
    assert len(reference[0]) > 100
    assert rebuilds  # the heap was rebuilt mid-run at least once
