"""Tests for the discrete-event engine."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Event, Interrupt, Resource, Simulator
from tests.support import occupancy, run_process, succeeded


def three_users(sim, cpu, hold):
    """Processes a, b, c, each holding ``cpu`` for ``hold`` ms; (log, processes)."""
    done = []

    def user(name):
        yield from cpu.use(hold)
        done.append((sim.now, name))

    return done, [sim.process(user(name)) for name in "abc"]


def count_steps(sim) -> int:
    steps = 0
    while sim.step():
        steps += 1
    return steps


class TestClockAndScheduling:
    def test_time_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_call_later_ordering(self, sim):
        order = []
        sim.call_later(5.0, lambda: order.append("b"))
        sim.call_later(1.0, lambda: order.append("a"))
        sim.call_later(10.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]
        assert sim.now == 10.0

    def test_same_time_fifo(self, sim):
        order = []
        for i in range(5):
            sim.call_later(1.0, lambda i=i: order.append(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_run_until(self, sim):
        fired = []
        sim.call_later(5.0, lambda: fired.append(5))
        sim.call_later(15.0, lambda: fired.append(15))
        sim.run(until=10.0)
        assert fired == [5]
        assert sim.now == 10.0
        sim.run(until=20.0)
        assert fired == [5, 15]

    def test_cannot_schedule_in_past(self, sim):
        with pytest.raises(SimulationError):
            sim.call_later(-1.0, lambda: None)

    def test_call_at(self, sim):
        at = []
        sim.call_at(7.5, lambda: at.append(sim.now))
        sim.run()
        assert at == [7.5]

    def test_step_returns_false_when_empty(self, sim):
        assert sim.step() is False

    def test_livelock_guard(self, sim):
        def reschedule():
            sim.call_later(0.0, reschedule)

        sim.call_later(0.0, reschedule)
        with pytest.raises(SimulationError):
            sim.run(max_steps=100)


class TestEvents:
    def test_succeed_delivers_value(self, sim):
        event = sim.event("e")
        got = []
        event.add_callback(lambda e: got.append(e.value))
        event.succeed(42)
        sim.run()
        assert got == [42]

    def test_double_trigger_rejected(self, sim):
        event = sim.event()
        event.succeed(1)
        with pytest.raises(SimulationError):
            event.succeed(2)
        with pytest.raises(SimulationError):
            event.fail(RuntimeError())

    def test_value_before_trigger_raises(self, sim):
        event = sim.event("pending")
        with pytest.raises(SimulationError):
            _ = event.value

    def test_late_callback_still_runs(self, sim):
        event = sim.event()
        event.succeed("x")
        sim.run()
        got = []
        event.add_callback(lambda e: got.append(e.value))
        sim.run()
        assert got == ["x"]

    def test_failed_event_raises_in_process(self, sim):
        event = sim.event()
        caught = []

        def proc():
            try:
                yield event
            except ValueError as exc:
                caught.append(str(exc))

        sim.process(proc())
        sim.call_later(1.0, lambda: event.fail(ValueError("boom")))
        sim.run()
        assert caught == ["boom"]


class TestProcesses:
    def test_timeout_advances_clock(self, sim):
        seen = []

        def proc():
            yield sim.timeout(3.0)
            seen.append(sim.now)
            yield sim.timeout(4.0)
            seen.append(sim.now)

        sim.process(proc())
        sim.run()
        assert seen == [3.0, 7.0]

    def test_return_value(self, sim):
        def proc():
            yield sim.timeout(1.0)
            return "result"

        assert run_process(sim, proc()) == "result"

    def test_process_is_joinable(self, sim):
        def child():
            yield sim.timeout(5.0)
            return 99

        results = []

        def parent():
            value = yield sim.process(child())
            results.append((sim.now, value))

        sim.process(parent())
        sim.run()
        assert results == [(5.0, 99)]

    def test_yielding_non_event_fails_process(self, sim):
        def bad():
            yield 42

        proc = sim.process(bad())
        sim.run()
        assert proc.triggered and not succeeded(proc)

    def test_deadlock_detected(self, sim):
        def stuck():
            yield sim.event("never")

        with pytest.raises(SimulationError):
            run_process(sim, stuck())

    def test_interrupt(self, sim):
        log = []

        def worker():
            try:
                yield sim.timeout(100.0)
                log.append("finished")
            except Interrupt as stop:
                log.append((sim.now, f"interrupted:{stop.cause}"))

        proc = sim.process(worker())
        sim.call_later(10.0, lambda: proc.interrupt("shutdown"))
        sim.run()
        # interrupted at t=10, long before the 100 ms timeout
        assert log == [(10.0, "interrupted:shutdown")]

    def test_unhandled_interrupt_terminates_quietly(self, sim):
        def worker():
            yield sim.timeout(100.0)

        proc = sim.process(worker())
        sim.call_later(1.0, lambda: proc.interrupt())
        sim.run()
        assert succeeded(proc)

    def test_interrupt_after_completion_is_noop(self, sim):
        def worker():
            yield sim.timeout(1.0)
            return "done"

        proc = sim.process(worker())
        sim.run()
        proc.interrupt()
        sim.run()
        assert proc.value == "done"


class TestCombinators:
    def test_any_of(self, sim):
        def proc():
            index, value = yield sim.any_of(
                [sim.timeout(9.0, "slow"), sim.timeout(2.0, "fast")]
            )
            return (sim.now, index, value)

        assert run_process(sim, proc()) == (2.0, 1, "fast")

    def test_any_of_requires_events(self, sim):
        with pytest.raises(SimulationError):
            sim.any_of([])


class TestQueue:
    def test_fifo(self, sim):
        queue = sim.queue("q")
        got = []

        def consumer():
            for _ in range(3):
                item = yield queue.get()
                got.append(item)

        sim.process(consumer())
        for item in ("x", "y", "z"):
            queue.put(item)
        sim.run()
        assert got == ["x", "y", "z"]

    def test_get_blocks_until_put(self, sim):
        queue = sim.queue()
        got = []

        def consumer():
            item = yield queue.get()
            got.append((sim.now, item))

        sim.process(consumer())
        sim.call_later(10.0, lambda: queue.put("late"))
        sim.run()
        assert got == [(10.0, "late")]

    def test_len(self, sim):
        queue = sim.queue()
        queue.put(1)
        queue.put(2)
        assert len(queue) == 2


class TestResource:
    def test_serializes_capacity_one(self, sim):
        resource = Resource(sim, 1, "cpu")
        spans = []

        def worker(name, duration):
            yield resource.request()
            start = sim.now
            yield sim.timeout(duration)
            resource.release()
            spans.append((name, start, sim.now))

        sim.process(worker("a", 5.0))
        sim.process(worker("b", 3.0))
        sim.run()
        assert spans == [("a", 0.0, 5.0), ("b", 5.0, 8.0)]

    def test_capacity_two_runs_in_parallel(self, sim):
        resource = Resource(sim, 2)
        ends = []

        def worker(duration):
            yield from resource.use(duration)
            ends.append(sim.now)

        sim.process(worker(5.0))
        sim.process(worker(5.0))
        sim.run()
        assert ends == [5.0, 5.0]

    def test_release_idle_rejected(self, sim):
        resource = Resource(sim, 1)
        with pytest.raises(SimulationError):
            resource.release()

    def test_queue_length(self, sim):
        resource = Resource(sim, 1)

        def hold():
            yield from resource.use(10.0)

        sim.process(hold())
        sim.process(hold())
        sim.process(hold())
        sim.run(until=1.0)
        assert occupancy(resource) == (1, 2)

    def test_invalid_capacity(self, sim):
        with pytest.raises(SimulationError):
            Resource(sim, 0)

    def test_use_releases_on_completion(self, sim):
        resource = Resource(sim, 1)

        def worker():
            yield from resource.use(2.0)

        sim.process(worker())
        sim.run()
        assert occupancy(resource)[0] == 0

    def test_interrupted_waiter_leaves_the_queue(self, sim):
        cpu = Resource(sim, 1)
        done, (_a, b, _c) = three_users(sim, cpu, 10.0)
        sim.call_later(5.0, lambda: b.interrupt())
        sim.run()
        # b's dead request must not be handed the slot a releases
        assert done == [(10.0, "a"), (20.0, "c")]
        assert occupancy(cpu) == (0, 0)

    def test_waiter_interrupted_after_the_grant_passes_the_slot_on(self, sim):
        cpu = Resource(sim, 1)
        # scheduled first, so at t=10 it runs before a's timer: the interrupt
        # is on its way when a's release grants b the slot
        sim.call_later(10.0, lambda: b.interrupt())
        done, (_a, b, _c) = three_users(sim, cpu, 10.0)
        sim.run()
        assert done == [(10.0, "a"), (20.0, "c")]
        assert occupancy(cpu) == (0, 0)

    def test_closed_waiter_leaves_the_queue(self, sim):
        cpu = Resource(sim, 1)
        holder = cpu.use(1.0)
        next(holder)
        waiter = cpu.use(1.0)
        next(waiter)
        assert occupancy(cpu) == (1, 1)
        waiter.close()
        assert occupancy(cpu) == (1, 0)
        holder.close()
        assert occupancy(cpu) == (0, 0)


class TestStepCounts:
    """What an operation costs in heap entries (``step()`` returns)."""

    def test_unjoined_completion_costs_no_step(self, sim):
        def lone():
            yield sim.timeout(1.0)

        sim.process(lone())
        assert count_steps(sim) == 2  # start, timer

    def test_joined_completion_costs_one(self, sim):
        def child():
            yield sim.timeout(1.0)

        def parent():
            yield sim.process(child())

        sim.process(parent())
        assert count_steps(sim) == 4  # two starts, timer, the join's fire

    def test_compute_on_a_free_cpu_costs_two_steps(self, sim, machine):
        sim.process(machine.compute(2.0))
        assert count_steps(sim) == 2  # start, timer: no grant in between
        assert sim.now == 2.0
        assert occupancy(machine.cpu) == (0, 0)

    def test_compute_on_a_full_cpu_queues_fifo(self, sim):
        cpu = Resource(sim, 1)
        done, _ = three_users(sim, cpu, 5.0)
        sim.run(until=1.0)  # the three starts
        assert occupancy(cpu) == (1, 2)
        # a's timer, then a grant and a timer for each of the two waiters
        assert count_steps(sim) == 5
        assert done == [(5.0, "a"), (10.0, "b"), (15.0, "c")]
        assert occupancy(cpu) == (0, 0)


class TestUnjoinedCompletion:
    """A fire nobody waits for is not enqueued, and keeps its place."""

    @staticmethod
    def _finished_at_once(sim):
        def child():
            return "v"
            yield

        return sim.process(child())

    def test_callback_added_before_the_position_runs_in_place(self, sim):
        log = []
        proc = self._finished_at_once(sim)  # entry 0; its fire keeps place 3

        def subscribe():  # entry 1
            sim.call_later(0.0, lambda: log.append("scheduled after the completion"))
            proc.add_callback(lambda ev: log.append(f"callback {ev.value}"))

        sim.call_later(0.0, subscribe)
        sim.call_later(0.0, lambda: log.append("scheduled before it"))  # entry 2
        sim.run()
        assert log == [
            "scheduled before it",
            "callback v",
            "scheduled after the completion",
        ]

    def test_callback_added_after_the_position_runs_late(self, sim):
        log = []
        proc = self._finished_at_once(sim)

        def subscribe():
            sim.call_later(0.0, lambda: log.append("scheduled first"))
            proc.add_callback(lambda ev: log.append(f"callback {ev.value}"))

        sim.call_later(1.0, subscribe)
        sim.run()
        assert log == ["scheduled first", "callback v"]

    def test_value_ok_and_fired(self, sim):
        seen = []
        proc = self._finished_at_once(sim)

        def look():
            seen.append((proc.triggered, succeeded(proc), proc.value, proc.fired, repr(proc)))

        sim.call_later(0.0, look)  # ahead of the place the fire keeps
        sim.call_later(1.0, look)
        sim.run()
        assert seen == [
            (True, True, "v", False, "<Event 'child' triggered>"),
            (True, True, "v", True, "<Event 'child' fired>"),
        ]

    def test_fired_once_the_heap_has_drained(self, sim):
        proc = self._finished_at_once(sim)
        assert not proc.triggered
        assert count_steps(sim) == 1
        assert proc.fired
        other = self._finished_at_once(sim)
        sim.run()
        assert other.fired and other.value == "v"

    def test_a_run_into_the_past_fires_nothing(self, sim):
        sim.run(until=10.0)
        event = sim.event().succeed(1)
        sim.run(until=5.0)
        assert event.triggered and not event.fired
        sim.run(until=10.0)
        assert event.fired


class TestProcessFailure:
    def test_exception_fails_process(self, sim):
        def boom():
            yield sim.timeout(1.0)
            raise RuntimeError("kaboom")

        proc = sim.process(boom())
        sim.run()
        assert proc.triggered and not succeeded(proc)
        with pytest.raises(RuntimeError):
            _ = proc.value

    def test_exception_propagates_to_joiner(self, sim):
        def child():
            yield sim.timeout(1.0)
            raise ValueError("child failed")

        caught = []

        def parent():
            try:
                yield sim.process(child())
            except ValueError as exc:
                caught.append(str(exc))

        sim.process(parent())
        sim.run()
        assert caught == ["child failed"]

    def test_run_process_raises(self, sim):
        def boom():
            yield sim.timeout(1.0)
            raise KeyError("x")

        with pytest.raises(KeyError):
            run_process(sim, boom())
