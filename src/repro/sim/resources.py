"""Queueing resources: counted resources and item stores.

:class:`Resource` models `capacity` identical service slots (CPU cores,
DMA lanes, compression engines): processes ``req = resource.request()``,
``yield req`` (which resumes with ``None`` once the slot is granted),
hold the slot, then ``resource.release(req)``. Requests are granted in
FIFO order with optional integer priorities.

:class:`Store` is an unbounded (or bounded) FIFO of items used for
message queues: ``yield store.get()`` blocks until an item is available.
"""

from __future__ import annotations

import typing
from collections import deque
from heapq import heapify, heappop, heappush

from repro.sim.events import _PENDING, Event, SimulationError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator


class Request(Event):
    """A pending or granted claim on one slot of a :class:`Resource`.

    The event succeeds with ``None`` when the slot is granted (as in
    SimPy); keep the request object itself to pass to
    :meth:`Resource.release`.
    """

    __slots__ = ("resource", "priority", "_entry")

    def __init__(self, resource: "Resource", priority: int) -> None:
        # Inlined Event.__init__: a request is created per resource
        # acquisition, which is macro-visible on the kernel hot path.
        self.sim = resource.sim
        self._name = resource._request_name
        self.callbacks: list[typing.Callable[[Event], None]] = []
        self._value: typing.Any = _PENDING
        self._ok = True
        self._defused = False
        self.resource = resource
        self.priority = priority
        # The waiter-heap entry carrying this request, or None while the
        # request is granted / cancelled / never queued.
        self._entry: list | None = None


class Resource:
    """`capacity` identical slots granted FIFO (ties broken by priority).

    Lower `priority` values are served first; equal priorities keep
    arrival order.

    The waiter queue is a binary heap keyed ``(priority, seq)`` — `seq`
    is a monotonically increasing arrival stamp, so equal priorities pop
    in FIFO order and every enqueue/grant is O(log n) at any depth
    (the previous sorted-list implementation paid O(n) per operation,
    quadratic exactly in the deep-queue overload regimes). Cancelling a
    queued request marks its heap entry dead in O(1); dead entries are
    skipped on pop and compacted when they outnumber live waiters.
    """

    def __init__(self, sim: "Simulator", capacity: int, name: str = "resource") -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.name = name
        self._request_name = "request:" + name
        self.capacity = capacity
        self._in_use = 0
        # Heap of [priority, seq, request]; request is None for entries
        # whose waiter cancelled (lazy deletion).
        self._waiting: list[list] = []
        self._n_waiting = 0
        self._seq = 0
        track = getattr(sim, "_track", None)
        if track is not None:
            track("resource", self)

    @property
    def in_use(self) -> int:
        """Number of currently granted slots."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return self._n_waiting

    def waiting_requests(self) -> tuple[Request, ...]:
        """Live queued requests in grant order (cancelled entries skipped)."""
        live = [entry for entry in self._waiting if entry[2] is not None]
        live.sort(key=lambda entry: (entry[0], entry[1]))
        return tuple(entry[2] for entry in live)

    def request(self, priority: int = 0) -> Request:
        """Claim a slot; the returned event fires with ``None`` when granted."""
        req = Request(self, priority)
        if self._in_use < self.capacity and not self._n_waiting:
            self._in_use += 1
            # Inlined req.succeed(): freshly created, so it cannot
            # already be triggered and _ok is True by construction. The
            # grant carries None, not the request: a request holding
            # itself as its value is a reference cycle per acquisition.
            req._value = None
            sim = self.sim
            heappush(sim._queue, (sim._now, next(sim._sequence), req))
        else:
            entry = [priority, self._seq, req]
            self._seq += 1
            req._entry = entry
            heappush(self._waiting, entry)
            self._n_waiting += 1
        return req

    def release(self, request: Request) -> None:
        """Return a granted slot; the next waiter (if any) is granted."""
        if request.resource is not self:
            raise SimulationError(f"{request!r} does not belong to {self.name!r}")
        if not request.triggered:
            # Cancelling a queued request: mark its heap entry dead.
            entry = request._entry
            if entry is None or entry[2] is not request:
                raise SimulationError(
                    f"{request!r} is not queued on {self.name!r} (already cancelled?)"
                )
            entry[2] = None
            request._entry = None
            self._n_waiting -= 1
            if self._n_waiting == 0:
                self._waiting.clear()
            elif len(self._waiting) > 2 * self._n_waiting + 16:
                self._waiting = [e for e in self._waiting if e[2] is not None]
                heapify(self._waiting)
            return
        if self._in_use <= 0:
            raise SimulationError(f"release() on idle resource {self.name!r}")
        self._in_use -= 1
        if self._n_waiting:
            waiting = self._waiting
            while True:
                nxt = heappop(waiting)[2]
                if nxt is not None:
                    break
            nxt._entry = None
            self._n_waiting -= 1
            self._in_use += 1
            # Inlined nxt.succeed(): queued requests are untriggered
            # (the triggered branch above handles granted ones).
            nxt._value = None
            sim = self.sim
            heappush(sim._queue, (sim._now, next(sim._sequence), nxt))
        elif self._waiting:
            self._waiting.clear()  # only dead entries remained

    def use(self, hold_time: float, priority: int = 0) -> typing.Generator:
        """Process body: acquire a slot, hold it `hold_time`, release it."""
        req = self.request(priority)
        yield req
        try:
            yield self.sim.timeout(hold_time)
        finally:
            self.release(req)

    def __repr__(self) -> str:
        return (
            f"<Resource {self.name!r} {self._in_use}/{self.capacity} busy,"
            f" {self._n_waiting} waiting>"
        )


class Store:
    """FIFO buffer of items with blocking get and (optionally) bounded put."""

    def __init__(
        self, sim: "Simulator", capacity: float = float("inf"), name: str = "store"
    ) -> None:
        if capacity < 1:
            raise SimulationError(f"store capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.name = name
        self._put_name = "put:" + name
        self._get_name = "get:" + name
        self.capacity = capacity
        self._items: deque = deque()
        self._getters: deque[Event] = deque()
        self._putters: deque[tuple[Event, typing.Any]] = deque()
        # The one already-processed event every put that completes at
        # once returns: a put nobody waits on schedules nothing, and a
        # putter that yields it resumes on the next kernel step.
        done = Event(sim, name=self._put_name)
        done._value = None
        done.callbacks = None  # type: ignore[assignment]
        self._put_done = done
        track = getattr(sim, "_track", None)
        if track is not None:
            track("store", self)

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple:
        """Snapshot of buffered items (oldest first)."""
        return tuple(self._items)

    def put(self, item: typing.Any) -> Event:
        """Add `item`; the returned event has fired unless the store is full."""
        if self._getters:
            self._getters.popleft().succeed(item)
            return self._put_done
        if len(self._items) < self.capacity:
            self._items.append(item)
            return self._put_done
        event = Event(self.sim, name=self._put_name)
        self._putters.append((event, item))
        return event

    def get(self) -> Event:
        """Remove and return the oldest item; blocks while empty."""
        event = Event(self.sim, name=self._get_name)
        if self._items:
            item = self._items.popleft()
            if self._putters:
                put_event, put_item = self._putters.popleft()
                self._items.append(put_item)
                put_event.succeed()
            event.succeed(item)
        else:
            self._getters.append(event)
        return event
