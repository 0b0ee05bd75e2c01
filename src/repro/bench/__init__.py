"""Benchmark harness reproducing every table and figure of the paper.

Each experiment module exposes a ``run_*`` function returning structured
rows plus helpers that render paper-vs-measured tables, and the producers
of its ``repro seeds`` rows (:data:`repro.seeds.PAPER_GROUPS`).

Experiment index (see DESIGN.md section 3):

====================  =========================================
EXP-T3-hops           Table 3 trace routing overhead + Figure 2
EXP-T3-micro          Table 3 per-operation security costs
EXP-T3-keydist        Table 3 key distribution overhead
EXP-F4                Figure 4 increasing trackers
EXP-F5                Figure 5 signing-cost optimization
EXP-T4                Table 4 increasing traced entities
EXP-A1                N x (N-1) message-count ablation
EXP-A2                Gossip failure-detector baseline
EXP-A3                Adaptive vs fixed ping ablation
====================  =========================================
"""

from repro.bench.replication import ReplicatedResult, replicate
from repro.bench.tables import ComparisonRow, render_comparison, render_series
from repro.bench.topology import hops_chain, star_with_trackers, single_broker_colocated

__all__ = [
    "ComparisonRow",
    "render_comparison",
    "render_series",
    "hops_chain",
    "star_with_trackers",
    "single_broker_colocated",
    "ReplicatedResult",
    "replicate",
]
