"""Property-based tests on the discrete-event kernel's core invariants."""

from hypothesis import given, strategies as st

from repro.sim.engine import Resource, Simulator
from tests.support import occupancy, run_process

delays = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    min_size=1,
    max_size=60,
)


class TestSchedulingProperties:
    @given(delays)
    def test_callbacks_fire_in_time_order(self, ds):
        sim = Simulator()
        fired = []
        for i, d in enumerate(ds):
            sim.call_later(d, lambda i=i, d=d: fired.append((d, i)))
        sim.run()
        assert [f[0] for f in fired] == sorted(f[0] for f in fired)
        assert len(fired) == len(ds)

    @given(delays)
    def test_equal_times_fifo(self, ds):
        """Callbacks scheduled for the same instant run in submission order."""
        sim = Simulator()
        fired = []
        for i, d in enumerate(ds):
            sim.call_later(d, lambda i=i, d=d: fired.append((d, i)))
        sim.run()
        for (d1, i1), (d2, i2) in zip(fired, fired[1:], strict=False):
            if d1 == d2:
                assert i1 < i2

    @given(delays)
    def test_clock_ends_at_latest_event(self, ds):
        sim = Simulator()
        for d in ds:
            sim.call_later(d, lambda: None)
        sim.run()
        assert sim.now == max(ds)

    @given(delays, st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    def test_run_until_is_a_clean_boundary(self, ds, until):
        sim = Simulator()
        fired = []
        for d in ds:
            sim.call_later(d, lambda d=d: fired.append(d))
        sim.run(until=until)
        assert all(d <= until for d in fired)
        assert sorted(fired) == sorted(d for d in ds if d <= until)
        assert sim.now == until
        # resuming runs the remainder exactly once
        sim.run()
        assert sorted(fired) == sorted(ds)

    @given(st.lists(st.floats(min_value=0.01, max_value=1e3), min_size=1, max_size=20))
    def test_nested_timeouts_accumulate(self, ds):
        sim = Simulator()

        def proc():
            for d in ds:
                yield sim.timeout(d)
            return sim.now

        total = run_process(sim, proc())
        assert abs(total - sum(ds)) < 1e-6 * max(1.0, sum(ds))


class TestResourceProperties:
    @given(
        st.integers(min_value=1, max_value=4),
        st.lists(st.floats(min_value=0.1, max_value=50.0), min_size=1, max_size=20),
    )
    def test_resource_conservation(self, capacity, durations):
        """Total busy time is conserved and concurrency never exceeds
        capacity."""
        sim = Simulator()
        resource = Resource(sim, capacity)
        live = [0]
        peaks = []

        def worker(duration):
            yield resource.request()
            live[0] += 1
            peaks.append(live[0])
            yield sim.timeout(duration)
            live[0] -= 1
            resource.release()

        for d in durations:
            sim.process(worker(d))
        sim.run()
        assert max(peaks) <= capacity
        assert occupancy(resource) == (0, 0)
        # makespan is at least total work / capacity
        assert sim.now >= sum(durations) / capacity - 1e-9
        # ... and at most total work (full serialization)
        assert sim.now <= sum(durations) + 1e-9
