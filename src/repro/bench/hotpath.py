"""Ping-heavy co-located scenario for the hot-path benchmarks.

The worst case for per-ping overhead: many traced entities share one host
machine behind one broker, so every ping interval the tracker's broker
verifies the same authorization token repeatedly and sends a burst of
near-identical ping frames down the same wire.  :func:`run_codec_smoke`
runs it once per wire codec; that document is committed as
``benchmarks/results/codec_seed.json`` (the ``codec`` row of
:mod:`repro.seeds`, docs/PERFORMANCE.md).
"""

from __future__ import annotations

from repro.faults.scenarios import CHAOS_PING_POLICY

#: Fast cadence so a 60 s virtual run packs in many verification-bearing
#: traces and ping rounds per entity.
HOTPATH_PING_POLICY = CHAOS_PING_POLICY

#: Every traced entity lives on this one machine, so the signatures on
#: their ping answers queue on one host CPU (the paper's §6.4 co-location).
EDGE_HOST = "edge-host"

DEFAULT_ENTITY_COUNT = 12


def run_ping_heavy(
    seed: int = 42,
    duration_ms: float = 60_000.0,
    entity_count: int = DEFAULT_ENTITY_COUNT,
    codec: str = "json",
) -> dict:
    """Run the co-located ping-heavy scenario; returns the full snapshot.

    ``codec`` names the wire codec: :func:`run_codec_smoke` runs this
    scenario once per codec.
    """
    from repro import build_deployment

    dep = build_deployment(
        broker_ids=["b1", "b2", "b3"],
        seed=seed,
        ping_policy=HOTPATH_PING_POLICY,
        codec=codec,
    )
    entities = [
        dep.add_traced_entity(f"svc-{index:02d}", machine_name=EDGE_HOST)
        for index in range(entity_count)
    ]
    tracker = dep.add_tracker("watch")
    tracker.connect("b3")
    for entity in entities:
        entity.start("b1")
    dep.sim.run(until=3_000)
    for entity in entities:
        tracker.track(str(entity.entity_id))
    dep.sim.run(until=duration_ms)
    return dep.snapshot()


#: The hot-path cost triangle (wire bytes, forwarding work, charged
#: verification) plus the counters that prove both codecs did the same
#: protocol work.  Missing counters read as zero.
CODEC_SMOKE_COUNTERS = (
    "transport.bytes.sent",
    "codec.encode.memo.hit",
    "broker.msgs.forwarded_out",
    "broker.msgs.delivered",
    "tracker.traces.received",
)
CODEC_SMOKE_HISTOGRAM_SUMS = ("broker.fanout", "crypto.ms.token_verify")

#: The seed the committed ``codec_seed.json`` is run at.
CODEC_SMOKE_SEED = 42


def run_codec_smoke() -> dict:
    """Run the ping-heavy scenario under each wire codec.

    Returns the small document committed as
    ``benchmarks/results/codec_seed.json``: per codec, the wire bytes,
    the ``broker.fanout`` and ``crypto.ms.token_verify`` sums, and the
    delivery counters a codec swap must leave untouched.
    """
    duration_ms = 60_000.0
    codecs: dict[str, dict] = {}
    for codec in ("json", "compact"):
        snapshot = run_ping_heavy(
            seed=CODEC_SMOKE_SEED, duration_ms=duration_ms, codec=codec
        )
        counters, histograms = snapshot["counters"], snapshot["histograms"]
        leaves = {name: counters.get(name, 0) for name in CODEC_SMOKE_COUNTERS}
        for name in CODEC_SMOKE_HISTOGRAM_SUMS:
            # count * mean carries the running mean's last-bit noise
            # (2878.0000000000073 for an integer-valued histogram)
            hist = histograms[name]
            leaves[f"{name}.sum"] = round(hist["count"] * hist["mean"], 6)
        leaves["tracker.detection.latency_ms.count"] = histograms.get(
            "tracker.detection.latency_ms", {"count": 0}
        )["count"]
        codecs[codec] = leaves
    return {
        "scenario": "ping-heavy",
        "seed": CODEC_SMOKE_SEED,
        "duration_ms": duration_ms,
        "codecs": codecs,
    }
