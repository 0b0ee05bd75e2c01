"""Scenario campaigns: declarative seeded sweeps with generated reports.

The campaign engine generalizes the single-scenario harnesses
(``repro faults --scenario``, the routing smoke, the scale curve) into
declarative *campaigns*: a :class:`~repro.campaigns.spec.CampaignSpec`
names the axes to sweep, the workload families to run over the grid,
the baselines to compare against, and the seeded repetitions — and the
whole thing expands, runs, snapshots, and renders deterministically
(docs/CAMPAIGNS.md).

Layout:

* :mod:`repro.campaigns.spec` — the spec model and its deterministic
  expansion into a run matrix;
* :mod:`repro.campaigns.workloads` — the workload-family registry:
  churn-mobile, the §5 adversarial families, and the gossip /
  all-pairs baselines;
* :mod:`repro.campaigns.runner` — in-process execution in matrix order
  plus the byte-stable campaign snapshot;
* :mod:`repro.campaigns.report` — markdown tables + SVG figures from a
  snapshot.
"""

from repro.campaigns.report import generate_report
from repro.campaigns.runner import (
    campaign_snapshot,
    run_campaign,
    run_point,
)
from repro.campaigns.spec import (
    Axis,
    CampaignPoint,
    CampaignSpec,
    expand,
    ignored_axes,
    load_spec,
    unused_parameters,
)
from repro.campaigns.workloads import (
    WORKLOADS,
    WorkloadFamily,
    workload_family,
)

__all__ = [
    "WORKLOADS",
    "Axis",
    "CampaignPoint",
    "CampaignSpec",
    "WorkloadFamily",
    "campaign_snapshot",
    "expand",
    "generate_report",
    "ignored_axes",
    "load_spec",
    "run_campaign",
    "run_point",
    "unused_parameters",
    "workload_family",
]
