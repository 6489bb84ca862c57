"""Processes spawned during dispatch, and joins that need no completion event.

A process created while the kernel dispatches an event starts as soon as
that event's callbacks return, in spawn order, before the next queued
event; it gets no start event. A process whose only waiters are
conditions (``all_of``/``any_of``) hands them its result when it
returns, without a completion event. Neither may change what a model
observes: who runs first, which exception reaches whom, and what a
failing callback leaves behind.
"""

from __future__ import annotations

import random
import typing

import pytest

from repro.sim import SimulationError, Simulator, Tracer


def test_children_start_in_spawn_order_after_the_spawners_yield():
    sim = Simulator()
    log: list[tuple[float, str]] = []

    def child(index: int) -> typing.Generator:
        log.append((sim.now, f"child{index}"))
        yield sim.timeout(1.0)

    def parent() -> typing.Generator:
        yield sim.timeout(1.0)
        kids = [sim.process(child(index)) for index in range(3)]
        log.append((sim.now, "parent yields"))
        yield sim.all_of(kids)
        log.append((sim.now, "parent joined"))

    def bystander() -> typing.Generator:
        # Its timer is queued for the same instant, behind the parent's.
        yield sim.timeout(1.0)
        log.append((sim.now, "bystander"))

    sim.process(parent())
    sim.process(bystander())
    sim.run()
    assert log == [
        (1.0, "parent yields"),
        (1.0, "child0"),
        (1.0, "child1"),
        (1.0, "child2"),
        (1.0, "bystander"),
        (2.0, "parent joined"),
    ]


def test_a_child_failing_before_its_first_yield_reaches_its_spawners_join():
    sim = Simulator()
    caught = []

    def doomed(tag: str) -> typing.Generator:
        raise ValueError(tag)
        yield  # pragma: no cover - makes this a generator

    def fine() -> typing.Generator:
        yield sim.timeout(1.0)

    def parent() -> typing.Generator:
        try:
            yield sim.all_of([sim.process(fine()), sim.process(doomed("all_of"))])
        except ValueError as exc:
            caught.append((sim.now, exc.args[0]))
        try:
            yield sim.process(doomed("yield"))
        except ValueError as exc:
            caught.append((sim.now, exc.args[0]))

    sim.process(parent())
    sim.run()  # nothing surfaces as unhandled
    assert caught == [(0.0, "all_of"), (0.0, "yield")]


def test_a_child_yielding_a_non_event_raises_out_of_run_naming_it():
    sim = Simulator()

    def oddball() -> typing.Generator:
        yield 42

    def parent() -> typing.Generator:
        yield sim.timeout(1.0)
        sim.process(oddball(), name="oddball")
        yield sim.timeout(1.0)

    sim.process(parent())
    with pytest.raises(SimulationError, match=r"'oddball' yielded 42"):
        sim.run()


def _spawning_callback(sim: Simulator, log: list) -> typing.Callable:
    def child(index: int) -> typing.Generator:
        log.append(index)
        yield sim.timeout(1.0)

    def boom(_event) -> None:
        sim.process(child(0))
        sim.process(child(1))
        raise RuntimeError("boom")

    return boom


def test_a_raising_callback_leaves_its_children_to_the_next_run():
    sim = Simulator()
    log: list[int] = []
    trigger = sim.event()
    trigger.callbacks.append(_spawning_callback(sim, log))
    trigger.succeed()
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()
    assert log == []
    assert not sim.idle and sim.peek() == 0.0
    sim.run()
    assert log == [0, 1]
    assert sim.now == 1.0 and sim.idle


def test_a_raising_callback_leaves_its_children_to_the_next_step():
    sim = Simulator()
    log: list[int] = []
    trigger = sim.event()
    trigger.callbacks.append(_spawning_callback(sim, log))
    trigger.succeed()
    with pytest.raises(RuntimeError, match="boom"):
        sim.step()
    steps = sim.steps
    sim.step()  # starts the two children and dispatches nothing
    assert log == [0, 1]
    assert sim.steps == steps and sim.now == 0.0
    sim.run()
    assert sim.now == 1.0 and sim.idle


def test_a_failing_start_leaves_the_later_children_to_the_next_run():
    sim = Simulator()
    log: list[str] = []

    def oddball() -> typing.Generator:
        yield "not an event"
        log.append("oddball resumed")  # it left the list before it ran

    def child() -> typing.Generator:
        log.append("child")
        yield sim.timeout(1.0)

    def parent() -> typing.Generator:
        sim.process(oddball(), name="oddball")
        sim.process(child())
        yield sim.timeout(1.0)

    sim.process(parent())
    with pytest.raises(SimulationError, match="oddball"):
        sim.run()
    assert log == []
    sim.run()
    assert log == ["child"]


def test_a_long_spawn_chain_does_not_recurse():
    # Each process spawns the next from its first segment and waits on
    # it; the kernel starts them from one loop, not from each other.
    sim = Simulator()
    depth = 10_000

    def link(remaining: int) -> typing.Generator:
        if not remaining:
            return 0
        below = yield sim.process(link(remaining - 1))
        return below + 1

    top = sim.process(link(depth))
    sim.run()
    assert top.value == depth
    # One start event for the top process and one completion per waited
    # child; the 10,000 spawned children needed no start event.
    assert sim.steps == 1 + depth


def _random_schedule(sim: Simulator, seed: int, log: list) -> None:
    """Spawn a random tree of processes joined by yield, all_of and any_of."""
    rng = random.Random(seed)

    def worker(name: str, depth: int) -> typing.Generator:
        log.append((sim.now, name))
        for step in range(rng.randrange(1, 4)):
            pick = rng.random()
            spawn = depth < 3

            def kid(index: int) -> typing.Any:
                label = f"{name}.{step}.{index}"
                return sim.process(worker(label, depth + 1), name=label)

            if spawn and pick < 0.35:
                results = yield sim.all_of([kid(i) for i in range(rng.randrange(1, 4))])
                log.append((sim.now, f"{name} joined {sorted(results.values())}"))
            elif spawn and pick < 0.55:
                race = sim.any_of([kid(0), sim.timeout(rng.choice([0.0, 0.5, 1.0]))])
                yield race
                log.append((sim.now, f"{name} raced {len(race.value)}"))
            elif spawn and pick < 0.7:
                value = yield kid(0)
                log.append((sim.now, f"{name} got {value}"))
            elif spawn and pick < 0.8:
                kid(0)  # nobody waits on it
            else:
                yield sim.timeout(rng.choice([0.0, 0.5, 1.0, 2.0]))
        log.append((sim.now, f"{name} ends"))
        return name

    for index in range(3):
        sim.process(worker(f"w{index}", 0), name=f"w{index}")


def _traced_schedule(seed: int, stepwise: bool) -> tuple[list, list, int]:
    sim = Simulator()
    tracer = Tracer(sim, limit=1_000_000)
    log: list[tuple[float, str]] = []
    _random_schedule(sim, seed, log)
    if stepwise:
        while not sim.idle:
            sim.step()
    else:
        sim.run()
    return log, list(tracer.records), sim.steps


@pytest.mark.parametrize("seed", range(5))
def test_run_and_step_dispatch_a_random_schedule_identically(seed):
    log, trace, steps = _traced_schedule(seed, stepwise=False)
    assert len(log) > 20, "the schedule did too little to compare"
    assert (log, trace, steps) == _traced_schedule(seed, stepwise=True)
