# The engine as it stood at commit 19418e7, verbatim below this comment: every
# trigger is a heap entry of its own and ``Resource.use`` always goes through
# ``request()``.  Kept as the oracle of ``test_engine_oracle.py`` (random
# programs must log identically on both engines); nothing in ``src/`` imports
# it.  Known defect, fixed in the engine and so never drawn there: a process
# interrupted while queued in ``use`` leaks the slot.
"""The discrete-event engine: events, processes, queues and resources.

The design follows the classic process-interaction style (SimPy-like):

* :class:`Event` — a one-shot occurrence with an optional value; callbacks
  run when it fires.  Firing is split into *trigger* (enqueue on the event
  heap at the current time) and *callback execution* so that same-timestamp
  causality is preserved deterministically by a monotone sequence number.
* :class:`Process` — wraps a generator; each ``yield``ed event suspends the
  process until the event fires.  A process is itself an event that fires
  with the generator's return value, enabling joins.
* :class:`Queue` — unbounded FIFO connecting producer and consumer processes.
* :class:`Resource` — a capacity-limited server; used to model each machine's
  CPU so that colocated crypto workloads contend (this is what reproduces
  Table 4's growing means and deviations).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable

from repro.errors import SimulationError, ValidationError
from repro.util.clock import VirtualClock

ProcessGenerator = Generator["Event", Any, Any]


def _advance_to(clock: VirtualClock, t: float) -> None:
    """Move the clock forward to ``t``, never backward (this engine's clock step)."""
    if t < clock._now:
        raise ValidationError(f"clock cannot move backward: {t} < {clock._now}")
    clock._now = t


class Event:
    """A one-shot occurrence in virtual time.

    States: *pending* (not yet triggered), *triggered* (scheduled to fire),
    *fired* (callbacks executed).  An event may succeed with a value or fail
    with an exception; a failed event thrown into a waiting process raises
    there.
    """

    __slots__ = ("sim", "_callbacks", "_value", "_exception", "_state", "name")

    PENDING = 0
    TRIGGERED = 1
    FIRED = 2

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._callbacks: list[Callable[[Event], None]] = []
        self._value: Any = None
        self._exception: BaseException | None = None
        self._state = Event.PENDING

    # -- inspection ---------------------------------------------------------

    @property
    def triggered(self) -> bool:
        return self._state != Event.PENDING

    @property
    def fired(self) -> bool:
        return self._state == Event.FIRED

    @property
    def ok(self) -> bool:
        return self.triggered and self._exception is None

    @property
    def value(self) -> Any:
        if not self.triggered:
            raise SimulationError(f"event {self.name!r} has no value yet")
        if self._exception is not None:
            raise self._exception
        return self._value

    # -- wiring -------------------------------------------------------------

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        if self._state == Event.FIRED:
            # late subscriber: run at the current timestamp, preserving order
            self.sim._schedule_call(0.0, lambda: fn(self))
        else:
            self._callbacks.append(fn)

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError(f"event {self.name!r} already triggered")
        self._value = value
        self._state = Event.TRIGGERED
        self.sim._schedule_call(0.0, self._fire)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self.triggered:
            raise SimulationError(f"event {self.name!r} already triggered")
        self._exception = exception
        self._state = Event.TRIGGERED
        self.sim._schedule_call(0.0, self._fire)
        return self

    def _fire(self) -> None:
        self._state = Event.FIRED
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)

    def __repr__(self) -> str:
        state = {0: "pending", 1: "triggered", 2: "fired"}[self._state]
        return f"<Event {self.name!r} {state}>"


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Process(Event):
    """A running generator process; fires when the generator returns."""

    __slots__ = ("_generator", "_waiting_on")

    def __init__(self, sim: "Simulator", generator: ProcessGenerator, name: str = "") -> None:
        super().__init__(sim, name or getattr(generator, "__name__", "process"))
        self._generator = generator
        self._waiting_on: Event | None = None
        sim._schedule_call(0.0, lambda: self._resume(None, None))

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self.triggered:
            return
        self.sim._schedule_call(0.0, lambda: self._resume(None, Interrupt(cause)))

    def _resume(self, send_value: Any, throw_exc: BaseException | None) -> None:
        if self.triggered:
            return
        self._waiting_on = None
        try:
            if throw_exc is not None:
                target = self._generator.throw(throw_exc)
            else:
                target = self._generator.send(send_value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt:
            # an unhandled interrupt terminates the process quietly
            self.succeed(None)
            return
        except Exception as exc:
            # the process body raised: the process event fails with that
            # exception, propagating to joiners (or surfacing via .value)
            self.fail(exc)
            return
        if not isinstance(target, Event):
            self._generator.close()
            self.fail(
                SimulationError(
                    f"process {self.name!r} yielded {type(target).__name__}, "
                    "expected an Event"
                )
            )
            return
        self._waiting_on = target
        target.add_callback(self._on_event)

    def _on_event(self, event: Event) -> None:
        if self.triggered:
            return
        if self._waiting_on is not event:
            return  # stale callback after an interrupt redirected the process
        if event.ok:
            self._resume(event._value, None)
        else:
            self._resume(None, event._exception)


class AllOf(Event):
    """Fires when all child events have fired; value is their value list."""

    __slots__ = ("_children", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim, "all_of")
        self._children = list(events)
        self._remaining = len(self._children)
        if self._remaining == 0:
            self.succeed([])
            return
        for child in self._children:
            child.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event._exception)  # type: ignore[arg-type]
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([child._value for child in self._children])


class AnyOf(Event):
    """Fires when the first child fires; value is (index, value)."""

    __slots__ = ("_children",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim, "any_of")
        self._children = list(events)
        if not self._children:
            raise SimulationError("AnyOf requires at least one event")
        for index, child in enumerate(self._children):
            child.add_callback(lambda ev, i=index: self._on_child(i, ev))

    def _on_child(self, index: int, event: Event) -> None:
        if self.triggered:
            return
        if event.ok:
            self.succeed((index, event._value))
        else:
            self.fail(event._exception)  # type: ignore[arg-type]


class Queue:
    """Unbounded FIFO between processes.

    ``put`` never blocks; ``get`` returns an event that fires with the next
    item, preserving both item order and getter arrival order.
    """

    __slots__ = ("sim", "_items", "_getters", "name")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        event = Event(self.sim, f"{self.name}.get")
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event


class Resource:
    """Capacity-limited server with FIFO admission.

    Model of a machine's CPU: crypto work holds one slot for its virtual
    duration, so colocated workloads queue behind each other.
    """

    __slots__ = ("sim", "capacity", "_in_use", "_waiters", "name")

    def __init__(self, sim: "Simulator", capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: deque[Event] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def request(self) -> Event:
        """Event firing when one slot has been granted to the caller."""
        event = Event(self.sim, f"{self.name}.request")
        if self._in_use < self.capacity:
            self._in_use += 1
            event.succeed(self)
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        if self._in_use == 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        if self._waiters:
            # hand the slot directly to the next waiter
            self._waiters.popleft().succeed(self)
        else:
            self._in_use -= 1

    def use(self, duration: float) -> ProcessGenerator:
        """Process body: acquire, hold for ``duration`` ms, release.

        Usage from a process: ``yield sim.process(resource.use(5.0))`` or
        inline ``yield from resource.use(5.0)``.
        """
        yield self.request()
        try:
            yield self.sim.timeout(duration)
        finally:
            self.release()


class Simulator:
    """The event loop: a heap of (time, seq, callable)."""

    def __init__(self, start: float = 0.0) -> None:
        self.clock = VirtualClock(start)
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        self._running = False

    # -- time ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time in milliseconds."""
        return self.clock.now()

    # -- scheduling primitives ------------------------------------------------

    def _schedule_call(self, delay: float, fn: Callable[[], None]) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: delay={delay}")
        heapq.heappush(self._heap, (self.now + delay, self._seq, fn))
        self._seq += 1

    def call_at(self, when: float, fn: Callable[[], None]) -> None:
        """Run ``fn()`` at absolute virtual time ``when``."""
        self._schedule_call(when - self.now, fn)

    def call_later(self, delay: float, fn: Callable[[], None]) -> None:
        """Run ``fn()`` after ``delay`` milliseconds."""
        self._schedule_call(delay, fn)

    # -- event factories -------------------------------------------------------

    def event(self, name: str = "") -> Event:
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None) -> Event:
        """Event that fires ``delay`` ms from now."""
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        event = Event(self, f"timeout({delay})")
        event._value = value
        event._state = Event.TRIGGERED
        self._schedule_call(delay, event._fire)
        return event

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Spawn a new process from a generator."""
        return Process(self, generator, name)

    def queue(self, name: str = "") -> Queue:
        return Queue(self, name)

    def resource(self, capacity: int = 1, name: str = "") -> Resource:
        return Resource(self, capacity, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- the loop ---------------------------------------------------------------

    def step(self) -> bool:
        """Execute the next scheduled call; False if the heap is empty."""
        if not self._heap:
            return False
        when, _, fn = heapq.heappop(self._heap)
        _advance_to(self.clock, when)
        fn()
        return True

    def run(self, until: float | None = None, max_steps: int = 50_000_000) -> None:
        """Run until the heap drains, ``until`` is reached, or step limit.

        ``until`` is an absolute virtual time; the clock is advanced to it
        even if the heap drains earlier (matching SimPy semantics).
        """
        if self._running:
            raise SimulationError("simulator is already running (reentrant run)")
        self._running = True
        try:
            steps = 0
            while self._heap:
                when = self._heap[0][0]
                if until is not None and when > until:
                    break
                self.step()
                steps += 1
                if steps >= max_steps:
                    raise SimulationError(
                        f"simulation exceeded {max_steps} steps (livelock?)"
                    )
            if until is not None and self.now < until:
                _advance_to(self.clock, until)
        finally:
            self._running = False

    def run_process(self, generator: ProcessGenerator, name: str = "") -> Any:
        """Spawn a process, run to completion, and return its result."""
        proc = self.process(generator, name)
        while not proc.triggered:
            if not self.step():
                raise SimulationError(
                    f"deadlock: process {proc.name!r} never completed"
                )
        return proc.value
