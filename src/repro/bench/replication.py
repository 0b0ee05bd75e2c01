"""Multi-seed replication of experiments.

A single seeded run gives one deterministic estimate; replicating across
seeds quantifies how much of a measured effect is luck.  ``replicate``
runs a case function once per seed and reports the distribution of the
per-seed means with a confidence interval (Student-t, since replication
counts are small).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.errors import ConfigurationError, StatsError
from repro.util.stats import RunningStats, StatSummary

#: Two-sided 95% Student-t critical values by degrees of freedom.
_T95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
    6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
    15: 2.131, 20: 2.086, 30: 2.042,
}


def t_critical_95(dof: int) -> float:
    """Two-sided 95% t critical value (interpolates the standard table)."""
    if dof < 1:
        raise StatsError("degrees of freedom must be >= 1")
    if dof in _T95:
        return _T95[dof]
    keys = sorted(_T95)
    if dof > keys[-1]:
        return 1.96
    lower = max(k for k in keys if k < dof)
    upper = min(k for k in keys if k > dof)
    frac = (dof - lower) / (upper - lower)
    return _T95[lower] * (1 - frac) + _T95[upper] * frac


@dataclass(frozen=True, slots=True)
class ReplicatedResult:
    """Replication summary for one experimental case."""

    label: str
    seeds: tuple[int, ...]
    per_seed_means: tuple[float, ...]
    mean_of_means: float
    ci95_half_width: float

    @property
    def ci95(self) -> tuple[float, float]:
        """(low, high) bounds of the 95% confidence interval."""
        return (
            self.mean_of_means - self.ci95_half_width,
            self.mean_of_means + self.ci95_half_width,
        )


def replicate(
    label: str,
    case: Callable[[int], StatSummary],
    seeds: Sequence[int],
) -> ReplicatedResult:
    """Run ``case(seed)`` per seed; summarize the distribution of means."""
    if len(seeds) < 2:
        raise ConfigurationError("replication needs at least two seeds")
    means = RunningStats()
    per_seed = []
    for seed in seeds:
        summary = case(seed)
        per_seed.append(summary.mean)
        means.add(summary.mean)
    half_width = t_critical_95(len(seeds) - 1) * means.std_error
    return ReplicatedResult(
        label=label,
        seeds=tuple(seeds),
        per_seed_means=tuple(per_seed),
        mean_of_means=means.mean,
        ci95_half_width=half_width,
    )
