"""The benchmark's metric catalogue and the per-layer computation.

One place names every metric: ``BENCHMARK.json`` is :func:`manifest`
rendered to a file (``test_perf.py`` checks they agree), ``run.py`` emits
exactly these names, and ``README.md`` explains them.

Host time and virtual time are kept apart: ``*_s``, ``*_ms``, ``*_us`` and
``share`` metrics are host time from ``time.perf_counter``; ``calls``,
counts and ratios come from span counts and ``MetricsRegistry`` deltas over
the window, which repeat exactly per seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import spans
import workloads

COMMAND = ["python3", "benchmarks/perf/run.py"]
PATHS = ["benchmarks/perf"]
RUN_SECONDS = 10


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    definition: str
    #: end-to-end only: share of the parent's median it may worsen by
    bound: float | None = None
    #: end-to-end only: False keeps the metric out of ``BENCHMARK.json``
    across_seeds: bool = True


# Bounds are three times the widest first-to-third-quartile spread measured
# over ten seeds on the host the benchmark was written on (README.md), rounded
# up; set-up is calibrated only between its stages and gets the widest.
END_TO_END = (
    Metric("setup_s", "s", "lower",
           "host seconds from process ready (before the program is imported) to the first slice",
           bound=0.25),
    Metric("run_s", "s", "lower",
           "host seconds for the measured window, plus the post-window evidence step on "
           "trace-secure",
           bound=0.15),
    # A trace-secure slice holds zero to three secured traces of ~60 ms each, so
    # its median sits on a mode boundary that moves with the seed: the bound
    # holds between two runs of one seed (--compare), not across seeds, and the
    # driver, which varies the seed, gets sim.slice_ms_p50 without a bound.
    Metric("slice_ms_p50", "ms", "lower",
           "median of the per-slice host times of the window (n = slices, stated in the output)",
           bound=0.15, across_seeds=False),
    Metric("us_per_delivered", "us", "lower",
           "run_s divided by the rise of broker.msgs.delivered over the window", bound=0.15),
    Metric("peak_rss_mb", "MiB", "lower", "ru_maxrss of the pass's own process", bound=0.05),
)

EXTRAS = (
    Metric("sim.steps", "count", "lower", "Simulator.step calls in the traced window"),
    Metric("sim.us_per_step", "us", "lower",
           "untraced host time of the same slices divided by sim.steps"),
    Metric("sim.slice_ms_p50", "ms", "lower",
           "median slice time of the untraced twin of the traced run (n = its slices)"),
    Metric("sim.slice_ms_p90", "ms", "lower",
           "90th percentile slice time of the same run (too noisy for an end-to-end bound)"),
    Metric("transport.frames", "count", "lower", "rise of transport.msgs.sent"),
    Metric("transport.bytes", "bytes", "lower", "rise of transport.bytes.sent"),
    Metric("wire.memo_hit_ratio", "ratio", "higher",
           "codec.encode.memo hits / (hits + misses)"),
    Metric("wire.pool_hit_ratio", "ratio", "higher", "frame.pool hits / (hits + misses)"),
    Metric("util.serialization.bytes", "bytes", "lower",
           "bytes produced by canonical_encode and canonical_encode_into"),
    Metric("messaging.broker.fanout", "ratio", "higher",
           "broker.msgs.delivered / broker.msgs.ingress"),
    Metric("messaging.matching.match_calls", "count", "lower", "SubscriptionIndex.match_* calls"),
    Metric("messaging.matching.mutations", "count", "lower",
           "SubscriptionIndex.add_* and remove_* calls"),
    Metric("messaging.federation.flushes", "count", "lower", "FederatedInterestPlane.flush calls"),
    Metric("messaging.federation.control_floods", "count", "lower",
           "rise of the monitor's control.floods (summary broadcasts)"),
    Metric("messaging.federation.false_positive_ratio", "ratio", "lower",
           "fed.forwards.false_positive / broker.msgs.forwarded_in"),
    Metric("crypto.rsa.keygen_s", "s", "lower",
           "host time in generate_rsa_keypair during set-up"),
    Metric("crypto.aes.bytes", "bytes", "lower",
           "ciphertext bytes produced by aes_cbc_encrypt and consumed by aes_cbc_decrypt"),
    Metric("auth.cache_hit_ratio", "ratio", "higher",
           "auth.token.cache hits / (hits + misses)"),
    Metric("tracing.pings_sent", "count", "lower", "rise of tracker.pings.sent"),
    Metric("tracing.coalesced_ratio", "ratio", "higher",
           "tracker.pings.coalesced / tracker.pings.sent (frames saved per ping)"),
    Metric("tdn.query_cache_hit_ratio", "ratio", "higher",
           "tdn.query.cache hits / (hits + misses)"),
    Metric("faults.injected", "count", "lower", "rise of faults.injected.*"),
    Metric("obs.journal_records", "count", "lower", "EventJournal.record calls"),
    Metric("obs.instrument_ops", "count", "lower",
           "Counter.inc + Histogram.observe + Gauge.set/inc/dec calls (counted, not timed)"),
    Metric("obs.replay_s", "s", "lower",
           "host time to replay those operations and journal records on a fresh registry "
           "and journal"),
    Metric("analytics.events", "count", "lower", "rise of analytics.events.ingested"),
    Metric("analytics.evidence_s", "s", "lower",
           "host time of finalize_analytics + audit_deployment + build_report"),
    Metric("bench.trace_overhead_ratio", "ratio", "lower",
           "traced / untraced host time over the same slices"),
    Metric("bench.unattributed_share", "ratio", "lower",
           "share of the traced window spent in no wrapped entry point"),
)


def _layer_metrics() -> tuple[Metric, ...]:
    """Which end-to-end metric each layer should move, and where: README.md."""
    return tuple(
        metric
        for layer in spans.LAYERS
        for metric in (
            Metric(f"{layer}.self_s", "s", "lower",
                   "span time minus covered child time, traced window"),
            Metric(f"{layer}.calls", "count", "lower",
                   "spans recorded (one per resume for generator entry points)"),
            Metric(f"{layer}.share", "ratio", "lower", "self_s / traced window"),
        )
    )


PER_LAYER = _layer_metrics() + EXTRAS


def manifest() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": s.name, "why": s.why} for s in workloads.SPECS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
            if m.across_seeds
        ],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _hit_ratio(counts: dict, family: str) -> float:
    hits = counts.get(f"{family}.hit", 0)
    return _ratio(hits, hits + counts.get(f"{family}.miss", 0))


def per_layer(traced: dict, reference: dict) -> dict[str, float]:
    """Every ``PER_LAYER`` value from a traced pass and its untraced twin.

    ``reference`` ran the same slices with the same seed and no spans; it
    supplies the undistorted host times (``sim.us_per_step``,
    ``sim.slice_ms_p50``/``p90``) and the overhead ratio.  Spans are raw
    host time, so shares divide by the raw window; reported seconds are
    speed-corrected like every other time (see ``one_pass.py``).
    """
    window = traced["raw_run_s"]
    counts = traced["counts"]
    values: dict[str, float] = {}
    for layer in spans.LAYERS:
        timed = [row for row in traced["targets"] if row["layer"] == layer and row["timed"]]
        self_s = sum(row["window_self_s"] for row in timed)
        values[f"{layer}.self_s"] = self_s / traced["window_slowdown"]
        values[f"{layer}.calls"] = sum(row["window_calls"] for row in timed)
        values[f"{layer}.share"] = _ratio(self_s, window)

    targets = {row["name"].split(":", 1)[1]: row for row in traced["targets"]}

    def calls(*prefixes: str) -> int:
        return sum(
            row["window_calls"] for name, row in targets.items() if name.startswith(prefixes)
        )

    def volume(*names: str) -> int:
        return sum(targets[name]["window_volume"] for name in names)

    steps = targets["Simulator.step"]["window_calls"]
    instrument_ops = sum(row["window_calls"] for row in targets.values() if not row["timed"])
    values.update({
        "sim.steps": steps,
        "sim.us_per_step": _ratio(1e6 * reference["window_s"], steps),
        "sim.slice_ms_p50": reference["slice_ms_p50"],
        "sim.slice_ms_p90": reference["slice_ms_p90"],
        "transport.frames": counts.get("transport.msgs.sent", 0),
        "transport.bytes": counts.get("transport.bytes.sent", 0),
        "wire.memo_hit_ratio": _hit_ratio(counts, "codec.encode.memo"),
        "wire.pool_hit_ratio": _hit_ratio(counts, "frame.pool"),
        "util.serialization.bytes": volume("canonical_encode", "canonical_encode_into"),
        "messaging.broker.fanout": _ratio(
            counts.get("broker.msgs.delivered", 0), counts.get("broker.msgs.ingress", 0)
        ),
        "messaging.matching.match_calls": calls("SubscriptionIndex.match_"),
        "messaging.matching.mutations": calls(
            "SubscriptionIndex.add_", "SubscriptionIndex.remove_"
        ),
        "messaging.federation.flushes": calls("FederatedInterestPlane.flush"),
        "messaging.federation.control_floods": counts.get("monitor.control.floods", 0),
        "messaging.federation.false_positive_ratio": _ratio(
            counts.get("fed.forwards.false_positive", 0),
            counts.get("broker.msgs.forwarded_in", 0),
        ),
        "crypto.rsa.keygen_s": (
            targets["generate_rsa_keypair"]["setup_self_s"] / traced["setup_slowdown"]
        ),
        "crypto.aes.bytes": volume("aes_cbc_encrypt", "aes_cbc_decrypt"),
        "auth.cache_hit_ratio": _hit_ratio(counts, "auth.token.cache"),
        "tracing.pings_sent": counts.get("tracker.pings.sent", 0),
        "tracing.coalesced_ratio": _ratio(
            counts.get("tracker.pings.coalesced", 0), counts.get("tracker.pings.sent", 0)
        ),
        "tdn.query_cache_hit_ratio": _hit_ratio(counts, "tdn.query.cache"),
        "faults.injected": sum(
            v for name, v in counts.items() if name.startswith("faults.injected.")
        ),
        "obs.journal_records": targets["EventJournal.record"]["window_calls"],
        "obs.instrument_ops": instrument_ops,
        "obs.replay_s": traced["obs_replay_s"],
        "analytics.events": counts.get("analytics.events.ingested", 0),
        "analytics.evidence_s": traced["evidence_s"],
        "bench.trace_overhead_ratio": _ratio(traced["run_s"], reference["run_s"]),
        "bench.unattributed_share": _ratio(window - traced["root_s"], window),
    })
    return values
