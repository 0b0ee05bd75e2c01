"""Deterministic discrete-event simulation kernel.

Virtual time is measured in float milliseconds (the unit the paper reports).
Processes are Python generators that ``yield`` awaitable :class:`Event`
objects; the :class:`Simulator` resumes them when those events fire.  Given
one seed, a simulation is bit-for-bit reproducible.
"""

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    Queue,
    Resource,
    Simulator,
)
from repro.sim.monitor import Monitor
from repro.sim.random import RandomStreams

__all__ = [
    "Simulator",
    "Event",
    "Process",
    "Queue",
    "Resource",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "Monitor",
    "RandomStreams",
]
