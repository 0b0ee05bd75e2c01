"""The discrete-event engine: events, processes, queues and resources.

The design follows the classic process-interaction style (SimPy-like):

* :class:`Event` — a one-shot occurrence with an optional value; callbacks
  run when it fires.  Firing is split into *trigger* (take the next
  sequence number at the current time) and *callback execution* (the heap
  entry under that ``(time, sequence)`` key) so that same-timestamp
  causality is preserved deterministically by a monotone sequence number.
  A trigger nobody is waiting for is *not* enqueued: the event only
  remembers the key its fire would have had.  A callback added while that
  position is still ahead of the simulation enqueues the fire under the
  remembered key, so it runs exactly where it always would have; once the
  simulation has passed the position the event counts as fired.  Every
  other entry keeps its sequence number either way, so skipping the empty
  fires reorders nothing.
* :class:`Process` — wraps a generator; each ``yield``ed event suspends the
  process until the event fires.  A process is itself an event that fires
  with the generator's return value, enabling joins.
* :class:`Queue` — unbounded FIFO connecting producer and consumer processes.
* :class:`Resource` — a capacity-limited server; used to model each machine's
  CPU so that colocated crypto workloads contend (this is what reproduces
  Table 4's growing means and deviations).  Tie rule: :meth:`Resource.use`
  takes a free slot in the step that asks for it and sets its hold timer
  there, not one zero-delay grant step later, so against a timer that
  expires at the very same float instant and was set by something that
  ran right after the asking step, the hold timer fires first (a full
  resource still queues FIFO and grants in a step of its own).
  :meth:`Resource.use_then` is the same hold for a caller that would only
  wait on it: plain heap callbacks, no process.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable

from repro.errors import SimulationError, ValidationError
from repro.util.clock import VirtualClock

ProcessGenerator = Generator["Event", Any, Any]


class Event:
    """A one-shot occurrence in virtual time.

    States: *pending* (not yet triggered), *triggered* (scheduled to fire),
    *fired* (callbacks executed).  An event may succeed with a value or fail
    with an exception; a failed event thrown into a waiting process raises
    there.
    """

    __slots__ = (
        "sim",
        "_callbacks",
        "_value",
        "_exception",
        "_state",
        "_name",
        "_fire_key",
    )

    PENDING = 0
    TRIGGERED = 1
    FIRED = 2

    def __init__(self, sim: "Simulator", name: str | tuple[str, Any] = "") -> None:
        self.sim = sim
        self._name = name
        self._callbacks: list[Callable[[Event], None]] = []
        self._value: Any = None
        self._exception: BaseException | None = None
        self._state = Event.PENDING
        # (time, sequence) of a fire that was not enqueued because nobody
        # was waiting when the event triggered; None in every other case
        self._fire_key: tuple[float, int] | None = None

    # -- inspection ---------------------------------------------------------

    @property
    def name(self) -> str:
        """The event's name; one given as ``(template, argument)`` is formatted here.

        Timeouts, queue gets and requests are made per message and named
        only in ``repr`` and error text, so they do not pay for an f-string.
        """
        name = self._name
        return name if isinstance(name, str) else name[0].format(name[1])

    @property
    def triggered(self) -> bool:
        return self._state != Event.PENDING

    @property
    def fired(self) -> bool:
        if self._state == Event.FIRED:
            return True
        key = self._fire_key
        return key is not None and key <= self.sim._reached

    @property
    def value(self) -> Any:
        if self._state == Event.PENDING:
            raise SimulationError(f"event {self.name!r} has no value yet")
        if self._exception is not None:
            raise self._exception
        return self._value

    # -- wiring -------------------------------------------------------------

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        key = self._fire_key
        if key is not None:
            # triggered with nobody waiting, so the fire was not enqueued
            self._fire_key = None
            sim = self.sim
            if key > sim._reached:
                # first subscriber, in time: fire where it always would have
                heappush(sim._heap, (key[0], key[1], self._fire))
            else:
                self._state = Event.FIRED
        if self._state == Event.FIRED:
            # late subscriber: run at the current timestamp, preserving order
            self.sim._schedule_call(0.0, lambda: fn(self))
        else:
            self._callbacks.append(fn)

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._state != Event.PENDING:
            raise SimulationError(f"event {self.name!r} already triggered")
        self._value = value
        self._trigger()
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self._state != Event.PENDING:
            raise SimulationError(f"event {self.name!r} already triggered")
        self._exception = exception
        self._trigger()
        return self

    def _trigger(self) -> None:
        self._state = Event.TRIGGERED
        sim = self.sim
        if self._callbacks:
            heappush(sim._heap, (sim.clock._now, sim._seq, self._fire))
        else:
            # nobody to call: keep the fire's place without enqueueing it
            self._fire_key = (sim.clock._now, sim._seq)
        sim._seq += 1

    def _fire(self) -> None:
        self._state = Event.FIRED
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)

    def __repr__(self) -> str:
        if self.fired:
            state = "fired"
        else:
            state = "pending" if self._state == Event.PENDING else "triggered"
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
        # every slot filled here, not through Event.__init__: one process
        # starts per message per hop
        self.sim = sim
        self._name = name or getattr(generator, "__name__", "process")
        self._callbacks: list[Callable[[Event], None]] = []
        self._value: Any = None
        self._exception: BaseException | None = None
        self._state = Event.PENDING
        self._fire_key: tuple[float, int] | None = None
        self._generator = generator
        self._waiting_on: Event | None = None
        # deferred, not run here: a first segment may do anything
        heappush(sim._heap, (sim.clock._now, sim._seq, self._resume))
        sim._seq += 1

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._state != Event.PENDING:
            return
        self.sim._schedule_call(0.0, lambda: self._resume(None, Interrupt(cause)))

    def _resume(self, send_value: Any = None, throw_exc: BaseException | None = None) -> None:
        if self._state != Event.PENDING:
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
        if target._fire_key is None and target._state != Event.FIRED:
            # pending, or its fire is on the heap: the common case of
            # add_callback, taken without the call
            target._callbacks.append(self._on_event)
        else:
            target.add_callback(self._on_event)

    def _on_event(self, event: Event) -> None:
        if self._state != Event.PENDING:
            return
        if self._waiting_on is not event:
            return  # stale callback after an interrupt redirected the process
        if event._exception is None:
            self._resume(event._value, None)
        else:
            self._resume(None, event._exception)


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
        if self._state != Event.PENDING:
            return
        if event._exception is None:
            self.succeed((index, event._value))
        else:
            self.fail(event._exception)


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
        event = Event(self.sim, ("{}.get", self.name))
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

    def request(self) -> Event:
        """Event firing when one slot has been granted to the caller."""
        event = Event(self.sim, ("{}.request", self.name))
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
        if self._in_use < self.capacity:
            # a free slot is taken here and now; only a full resource queues
            self._in_use += 1
        else:
            request = self.request()
            try:
                yield request
            except BaseException:
                # interrupted or closed while queued: leave the line, or pass
                # on a slot that was granted in the meantime
                if request._state == Event.PENDING:
                    self._waiters.remove(request)
                else:
                    self.release()
                raise
        try:
            yield self.sim.timeout(duration)
        finally:
            self.release()

    def use_then(self, duration: float, fn: Callable[..., Any], *args: Any) -> None:
        """Continuation form of :meth:`use`: hold ``duration`` ms, then ``fn(*args)``.

        For a caller that would only wait on the hold: no process, no
        generator.  Called from a step, it pushes what a process running
        ``yield from use(duration)`` in that step pushes, under the same
        keys: a free slot is taken in this step and its timer set here; a
        full resource queues a :meth:`request` whose grant step sets the
        timer.  The timer entry releases the slot, then calls ``fn(*args)``.
        Called straight from a delivery callback, where a process would
        first have needed a start entry of its own, the timer is pushed one
        step earlier, so it may run ahead of a timer tied with it at the
        same float instant.
        """
        if duration < 0:
            raise SimulationError(f"negative timeout: {duration}")

        def expire() -> None:
            self.release()
            fn(*args)

        sim = self.sim
        if self._in_use < self.capacity:
            self._in_use += 1
            heappush(sim._heap, (sim.clock._now + duration, sim._seq, expire))
            sim._seq += 1
        else:
            self.request()._callbacks.append(
                lambda _granted: sim._schedule_call(duration, expire)
            )


class Simulator:
    """The event loop: a heap of (time, seq, callable)."""

    def __init__(self, start: float = 0.0) -> None:
        self.clock = VirtualClock(start)
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        self._running = False
        # heap position the simulation has reached: every entry keyed at or
        # before it has run (read by events whose fire was not enqueued)
        self._reached: tuple[float, int] = (self.clock._now, -1)

    # -- time ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time in milliseconds."""
        return self.clock._now

    # -- scheduling primitives ------------------------------------------------

    def _schedule_call(self, delay: float, fn: Callable[[], None]) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: delay={delay}")
        heappush(self._heap, (self.clock._now + delay, self._seq, fn))
        self._seq += 1

    def call_at(self, when: float, fn: Callable[[], None]) -> None:
        """Run ``fn()`` at absolute virtual time ``when``."""
        self._schedule_call(when - self.clock._now, fn)

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
        # every slot filled here, not through Event.__init__: one timer
        # runs per message per hop
        event = Event.__new__(Event)
        event.sim = self
        event._name = ("timeout({})", delay)
        event._callbacks = []
        event._value = value
        event._exception = None
        event._state = Event.TRIGGERED
        event._fire_key = None
        heappush(self._heap, (self.clock._now + delay, self._seq, event._fire))
        self._seq += 1
        return event

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Spawn a new process from a generator."""
        return Process(self, generator, name)

    def queue(self, name: str = "") -> Queue:
        return Queue(self, name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- the loop ---------------------------------------------------------------

    def _reach_now(self) -> None:
        """Nothing scheduled so far is due any more: all of it counts as run."""
        self._reached = (self.clock._now, self._seq - 1)

    def step(self) -> bool:
        """Execute the next scheduled call; False if the heap is empty."""
        if not self._heap:
            self._reach_now()
            return False
        when, seq, fn = heappop(self._heap)
        clock = self.clock
        if when < clock._now:
            raise ValidationError(f"clock cannot move backward: {when} < {clock._now}")
        clock._now = when
        self._reached = (when, seq)
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
            heap = self._heap
            steps = 0
            while heap:
                if until is not None and heap[0][0] > until:
                    break
                # one call per entry: profilers patch and count Simulator.step
                self.step()
                steps += 1
                if steps >= max_steps:
                    raise SimulationError(
                        f"simulation exceeded {max_steps} steps (livelock?)"
                    )
            if until is not None and self.clock._now < until:
                self.clock._now = until
            if until is None or until == self.clock._now:
                # everything up to now has run (unless ``until`` lay in the
                # past, where the run was a no-op)
                self._reach_now()
        finally:
            self._running = False
