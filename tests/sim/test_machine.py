"""Tests for the simulated machine (CPU, clock, crypto charging)."""

import random

import pytest

from repro.crypto.costmodel import CryptoCostModel, CryptoOp
from repro.sim.engine import Simulator
from repro.sim.machine import Machine
from repro.util.clock import SkewedClock
from tests.support import free_cost_model, run_process


@pytest.fixture
def one_cpu_machine(sim, rng):
    return Machine(sim, "m", CryptoCostModel(seed=2), rng, cpu_capacity=1)


class TestMachine:
    def test_default_capacity_matches_testbed(self, sim, rng):
        machine = Machine(sim, "m", CryptoCostModel(seed=0), rng)
        assert machine.cpu.capacity == 4

    def test_compute_holds_cpu(self, sim, one_cpu_machine):
        done = []

        def work():
            yield from one_cpu_machine.compute(5.0)
            done.append(sim.now)

        sim.process(work())
        sim.process(work())
        sim.run()
        assert done == [5.0, 10.0]  # serialized on capacity-1 CPU

    def test_charge_returns_sampled_duration(self, sim, one_cpu_machine):
        durations = []

        def work():
            duration = yield from one_cpu_machine.charge(CryptoOp.TRACE_SIGN)
            durations.append((duration, sim.now))

        sim.process(work())
        sim.run()
        duration, end = durations[0]
        assert duration == pytest.approx(end)
        assert 15.0 < duration < 35.0  # near the 24.51 calibration

    def test_charge_zero_cost_is_instant(self, sim, rng):
        machine = Machine(sim, "m", free_cost_model(), rng)

        def work():
            duration = yield from machine.charge(CryptoOp.TRACE_SIGN)
            return duration

        assert run_process(sim, work()) == 0.0
        assert sim.now == 0.0

    def test_colocated_crypto_contends(self, sim, rng):
        """Two signings on one 1-CPU machine take twice as long as one."""
        machine = Machine(sim, "m", free_cost_model(), rng, cpu_capacity=1)
        ends = []

        def work():
            yield from machine.compute(10.0)
            ends.append(sim.now)

        sim.process(work())
        sim.process(work())
        sim.run()
        assert ends == [10.0, 20.0]

    def test_clock_defaults_to_sim_clock(self, sim, rng):
        machine = Machine(sim, "m", free_cost_model(), rng)
        sim.call_later(5.0, lambda: None)
        sim.run()
        assert machine.now() == sim.now

    def test_skewed_clock(self, sim, rng):
        clock = SkewedClock(sim.clock, 40.0)
        machine = Machine(sim, "m", free_cost_model(), rng, clock=clock)
        assert machine.now() == 40.0


class TestUtilization:
    def test_tracks_busy_time(self, sim, rng):
        machine = Machine(sim, "m", free_cost_model(), rng, cpu_capacity=1)

        def work():
            yield from machine.compute(30.0)

        sim.process(work())
        sim.run(until=100.0)
        assert machine._busy_ms_total == 30.0

    def test_charge_counts_as_busy(self, sim, rng):
        machine = Machine(sim, "m", CryptoCostModel(seed=1), rng)

        def work():
            yield from machine.charge(CryptoOp.TRACE_SIGN)

        sim.process(work())
        sim.run(until=1000.0)
        assert machine._busy_ms_total > 15.0
