"""``repro.obs`` — the unified observability layer.

Zero-dependency instrumentation shared by the whole runtime: a
:class:`MetricsRegistry` of named :class:`Counter` / :class:`Gauge` /
:class:`Histogram` instruments, a virtual-clock-driven :class:`Timer`,
and a structured :class:`EventJournal`.  Every deployment owns one
registry (via its :class:`~repro.sim.monitor.Monitor`); benchmarks and
the ``repro metrics`` CLI read system-wide numbers out of it instead of
keeping private accumulators.  Naming convention and instrument taxonomy:
``docs/OBSERVABILITY.md``.
"""

from repro.obs.instruments import (
    DEFAULT_BUCKETS_MS,
    Counter,
    Gauge,
    Histogram,
)
from repro.obs.journal import EventJournal, JournalRecord
from repro.obs.registry import MetricsRegistry
from repro.obs.timer import Timer

__all__ = [
    "DEFAULT_BUCKETS_MS",
    "Counter",
    "EventJournal",
    "Gauge",
    "Histogram",
    "JournalRecord",
    "MetricsRegistry",
    "Timer",
]
