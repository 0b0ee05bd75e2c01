"""A simulated host machine: CPU, local clock, and RNG.

Every protocol principal (broker, traced entity, tracker, TDN) runs *on* a
machine.  The machine's CPU is a capacity-1 :class:`~repro.sim.engine.Resource`,
so cryptographic work performed by colocated principals serializes — the
effect the paper observes in section 6.4, where hosting many traced
entities on one machine inflates both the mean and the deviation of trace
latencies.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Generator

from repro.crypto.costmodel import CryptoCostModel, CryptoOp
from repro.sim.engine import Event, Resource, Simulator
from repro.util.clock import Clock, SkewedClock


class Machine:
    """One simulated host."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        cost_model: CryptoCostModel,
        rng: random.Random,
        clock: Clock | None = None,
        cpu_capacity: int = 4,
    ) -> None:
        # default capacity 4 mirrors the paper's 4-CPU Xeon testbed hosts
        self.sim = sim
        self.name = name
        self.cost_model = cost_model
        self.rng = rng
        self.clock = clock if clock is not None else SkewedClock(sim.clock, 0.0)
        self.cpu = Resource(sim, cpu_capacity, name=f"{name}.cpu")
        #: CPU-milliseconds of work accepted, queued or not
        self._busy_ms_total = 0.0
        #: Host-level ping demultiplexer: entity id -> sink for the pings
        #: a co-located sibling's ``ping_batch`` frame carries
        #: (``repro.tracing.coalesce.relay_ping_batch``).
        self.ping_sinks: dict[str, Callable[[Any], None]] = {}

    def now(self) -> float:
        """This machine's local (possibly skewed) time."""
        return self.clock.now()

    def compute(self, duration_ms: float) -> Generator[Event, None, None]:
        """Hold the CPU for ``duration_ms`` of work (process body).

        Returns the CPU's own ``use`` generator rather than wrapping it in
        a second one, so each resume of the caller crosses one frame less.
        The work is counted busy when the body is made, which a caller's
        ``yield from`` does in the same step it starts it.
        """
        self._busy_ms_total += duration_ms
        return self.cpu.use(duration_ms)

    def compute_then(self, duration_ms: float, fn: Callable[..., Any], *args: Any) -> None:
        """Hold the CPU for ``duration_ms``, then call ``fn(*args)``.

        The continuation form of :meth:`compute`
        (:meth:`~repro.sim.engine.Resource.use_then`): the same heap
        entries under the same keys and the same busy time, counted here.
        """
        self._busy_ms_total += duration_ms
        self.cpu.use_then(duration_ms, fn, *args)

    def charge(self, op: CryptoOp) -> Generator[Event, None, float]:
        """Charge one cryptographic operation to this machine's CPU.

        Returns the sampled virtual duration in milliseconds (useful for
        micro-benchmarks that report per-op costs).
        """
        duration = self.cost_model.sample_ms(op)
        if duration > 0:
            self._busy_ms_total += duration
            yield from self.cpu.use(duration)
        return duration

    def __repr__(self) -> str:
        return f"<Machine {self.name}>"
