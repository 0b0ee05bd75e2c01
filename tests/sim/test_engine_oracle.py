"""The engine against its predecessor, on random programs.

``reference_engine`` is the engine as it was before fires nobody waits for
stopped going on the heap and before ``Resource.use`` took a free slot in
the asking step.  Hypothesis draws a program, both engines run it, and the
full ``(time, who, what)`` logs and the final ``now`` must be equal:

* with ties everywhere (small-integer durations) and ``Resource.use`` left
  out — skipping empty fires and the cheaper steps reorder *nothing*;
* with everything enabled and durations no two of which (nor of whose
  sums) coincide — taking a free slot early reorders nothing either, as
  long as no two timers land on the same float instant (the tie rule in
  the engine's module docstring).

A third property holds the continuation hold to the generator hold on
one engine: the same arrivals on a capacity-k CPU, once as processes
running ``yield from machine.compute(d)`` and once as start entries
calling ``machine.cpu.use_then(d, …)``, execute the same ``(time, seq)``
keys, ties and queued grants included.  (The broker's pass-through hop
calls ``use_then`` without the start entry; ``test_hop_oracle`` holds it
to this form.)
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import engine
from repro.sim.machine import Machine
from tests.sim import reference_engine
from tests.support import free_cost_model, occupancy, succeeded

#: a duration placeholder; :func:`concretize` turns it into milliseconds
ms = st.tuples(st.just("ms"), st.integers(0, 3))
slot = st.integers(0, 1)

_always = [
    st.tuples(st.just("timeout"), ms),
    st.tuples(st.just("put"), slot),
    st.tuples(st.just("get"), slot),
    st.tuples(st.just("any_of"), ms, ms),
    st.tuples(st.just("watch"), st.integers(0, 30)),
    st.tuples(st.just("stale"), ms),
    st.just(("boom",)),
]
_use = st.tuples(st.just("use"), slot, ms)
#: never drawn beside ``use``: the reference leaks the slot of a waiter
#: interrupted in the queue, which the engine no longer does
_interrupt = st.tuples(st.just("interrupt"), st.integers(0, 30))


def op_lists(with_use: bool, depth: int = 2):
    ops = [*_always, _use if with_use else _interrupt]
    if depth:
        children = op_lists(with_use, depth - 1)
        ops.append(st.tuples(st.just("spawn"), children))
        ops.append(st.tuples(st.just("join"), children))
    return st.lists(st.one_of(ops), min_size=1, max_size=5)


def programs(with_use: bool):
    return st.lists(st.tuples(ms, op_lists(with_use)), min_size=1, max_size=5)


def concretize(node, duration):
    """The program with every ``("ms", n)`` placeholder made a float."""
    if isinstance(node, tuple) and node and node[0] == "ms":
        return duration(node[1])
    if isinstance(node, (tuple, list)):
        return type(node)(concretize(child, duration) for child in node)
    return node


def run_program(eng, program):
    """Interpret ``program`` on one engine module; its log and final time."""
    sim = eng.Simulator()
    log = []
    resources = [eng.Resource(sim, 1, "r0"), eng.Resource(sim, 2, "r1")]
    queues = [sim.queue("q0"), sim.queue("q1")]
    procs = []

    def note(who, what):
        log.append((sim.now, who, what))

    def spawn(who, ops):
        proc = sim.process(body(who, ops), name=who)
        procs.append(proc)
        return proc

    def body(who, ops):
        for index, op in enumerate(ops):
            kind = op[0]
            label = f"{index}:{kind}"
            try:
                if kind == "timeout":
                    yield sim.timeout(op[1])
                elif kind == "use":
                    yield from resources[op[1]].use(op[2])
                    label += f" {[occupancy(r) for r in resources]}"
                elif kind == "put":
                    queues[op[1]].put(f"{who}.{index}")
                elif kind == "get":
                    label += f" {(yield queues[op[1]].get())}"
                elif kind == "any_of":
                    first = yield sim.any_of([sim.timeout(op[1], "x"), sim.timeout(op[2], "y")])
                    label += f" {first}"
                elif kind == "watch":
                    # subscribe to an arbitrary earlier process, finished or not
                    target = procs[op[1] % len(procs)]
                    label += f" {target.name} {target.triggered} {target.fired} {target!r}"
                    target.add_callback(lambda ev, who=who: note(who, f"saw {ev.name} {succeeded(ev)}"))
                elif kind == "stale":
                    # succeeded long before anybody yields it
                    early = sim.event("early").succeed(who)
                    yield sim.timeout(op[1])
                    label += f" {early.fired} {(yield early)}"
                elif kind == "interrupt":
                    procs[op[1] % len(procs)].interrupt(who)
                elif kind == "boom":
                    raise ValueError(f"{who} went boom")
                elif kind == "spawn":
                    spawn(f"{who}/{index}", op[1])
                elif kind == "join":
                    label += f" {(yield spawn(f'{who}/{index}', op[1]))}"
            except eng.Interrupt as interrupt:
                label += f" interrupted by {interrupt.cause}"
            except ValueError as exc:
                if kind == "boom":
                    note(who, label)
                    raise
                label += f" failed: {exc}"
            note(who, label)
        return who

    for index, (delay, ops) in enumerate(program):
        sim.call_later(delay, lambda index=index, ops=ops: spawn(f"p{index}", ops))
    # in slices, like every harness: what reads as fired between runs counts
    for until in (2.0, 5.0, None):
        sim.run(until=until)
        note("-", [(p.name, p.triggered, p.fired, succeeded(p)) for p in procs])
    return log, sim.now


def _ties_everywhere(examples: int):
    @settings(max_examples=examples, deadline=None)
    @given(programs(with_use=False))
    def test(program):
        program = concretize(program, float)
        assert run_program(engine, program) == run_program(reference_engine, program)

    return test


def _distinct_durations(examples: int):
    @settings(max_examples=examples, deadline=None)
    @given(programs(with_use=True), st.integers(0, 2**32))
    def test(program, seed):
        rng = random.Random(seed)
        program = concretize(program, lambda n: n + rng.uniform(0.05, 0.95))
        assert run_program(engine, program) == run_program(reference_engine, program)

    return test


#: arrivals on one CPU: (delay, durations of holds run back to back);
#: small integers tie everywhere, and up to six holders queue for up to three slots
arrivals = st.lists(
    st.tuples(st.integers(0, 3), st.lists(st.integers(0, 3), min_size=1, max_size=3)),
    min_size=1,
    max_size=6,
)


def run_holds(capacity, program, continuation):
    """Run ``program``'s holds one way; executed keys, last seq, callbacks, occupancy."""
    sim = engine.Simulator()
    machine = Machine(sim, "m", free_cost_model(), random.Random(0), cpu_capacity=capacity)
    called = []

    def holder(who, durations):
        for index, duration in enumerate(durations):
            yield from machine.compute(float(duration))
            called.append((sim.now, who, index))

    def hold_then(who, index, durations):
        called.append((sim.now, who, index))
        if index + 1 < len(durations):
            machine.cpu.use_then(float(durations[index + 1]), hold_then, who, index + 1, durations)
        else:
            # the number the generator form's finished process takes
            sim._seq += 1

    def arrive(who, durations):
        if continuation:
            sim.call_later(
                0.0,
                lambda: machine.cpu.use_then(float(durations[0]), hold_then, who, 0, durations),
            )
        else:
            sim.process(holder(who, durations), name=who)

    for number, (delay, durations) in enumerate(program):
        sim.call_later(float(delay), lambda who=f"h{number}", d=durations: arrive(who, d))
    keys = []
    while sim._heap:
        keys.append(sim._heap[0][:2])
        sim.step()
    return keys, sim._seq, called, occupancy(machine.cpu)


def _continuation_hold(examples: int):
    @settings(max_examples=examples, deadline=None)
    @given(st.integers(1, 3), arrivals)
    def test(capacity, program):
        generator = run_holds(capacity, program, continuation=False)
        assert run_holds(capacity, program, continuation=True) == generator

    return test


test_ties_everywhere_without_use_log_identically = _ties_everywhere(200)
test_distinct_durations_log_identically = _distinct_durations(200)
test_continuation_hold_runs_the_generator_hold_keys = _continuation_hold(200)
#: the deep budget (``-m deep``; CI's "Deep example budgets" step)
test_ties_everywhere_without_use_log_identically_deep = pytest.mark.deep(_ties_everywhere(5_000))
test_distinct_durations_log_identically_deep = pytest.mark.deep(_distinct_durations(5_000))
test_continuation_hold_runs_the_generator_hold_keys_deep = pytest.mark.deep(
    _continuation_hold(5_000)
)
