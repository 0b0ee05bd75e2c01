"""SLO report queries: timelines, histograms, MTTR sources, renderers."""

from repro.analytics import (
    AnalyticsStore,
    build_report,
    build_timelines,
    render_report_json,
    render_report_markdown,
)
from repro.analytics.reports import _percentile


def _store_with_one_outage():
    """svc up at 1s, down 10s-25s, recovered until now=60s."""
    store = AnalyticsStore()
    store.append(1_000.0, "trace.observed", entity="svc", trace_type="JOIN")
    store.append(10_000.0, "trace.observed", entity="svc", trace_type="FAILED")
    store.append(25_000.0, "trace.observed", entity="svc", trace_type="JOIN")
    store.set_meta(scenario="unit", seed=3, now_ms=60_000.0)
    return store


class TestTimelines:
    def test_intervals_and_availability(self):
        store = _store_with_one_outage()
        timelines = build_timelines(store.events(kind="trace.observed"))
        timeline = timelines["svc"]
        assert timeline.up
        assert timeline.down_count == 1
        assert timeline.outage_durations_ms() == [15_000.0]
        # up 1s-10s and 25s-60s out of 1s-60s observed
        assert timeline.uptime_ms(60_000.0) == 44_000.0
        assert timeline.was_up_at(5_000.0, 60_000.0)
        assert not timeline.was_up_at(15_000.0, 60_000.0)

    def test_suspicion_marks_without_closing_the_interval(self):
        store = AnalyticsStore()
        store.append(0.0, "trace.observed", entity="svc", trace_type="JOIN")
        store.append(
            500.0, "trace.observed", entity="svc",
            trace_type="FAILURE_SUSPICION",
        )
        timeline = build_timelines(store.events())["svc"]
        assert timeline.up
        assert timeline.suspect_since_ms == 500.0


class TestBuildReport:
    def test_entity_block_and_histogram(self):
        report = build_report(_store_with_one_outage())
        assert report["now_ms"] == 60_000.0  # from meta, not wall clock
        svc = report["entities"]["svc"]
        assert svc["state"] == "up"
        assert svc["outages"] == 1
        assert svc["mttr_ms"] == 15_000.0
        histogram = report["outage_histogram"]
        assert histogram["total"] == 1
        # 15 000 ms lands in the [15000, 60000) bucket
        assert histogram["counts"][histogram["bounds_ms"].index(60_000.0)] == 1

    def test_mttr_prefers_recovery_evidence_over_interval_gaps(self):
        store = _store_with_one_outage()
        store.append(
            25_000.0, "recovery.completed", entity="svc", value=14_250.0,
            recovery_ms=14_250.0,
        )
        report = build_report(store)
        assert report["mttr"]["source"] == "recovery.completed"
        assert report["mttr"]["mean_ms"] == 14_250.0
        bare = build_report(_store_with_one_outage())
        assert bare["mttr"]["source"] == "intervals"
        assert bare["mttr"]["mean_ms"] == 15_000.0

    def test_broker_attribution(self):
        store = _store_with_one_outage()
        store.append(2_000.0, "session.created", entity="svc", broker="b1")
        store.append(9_000.0, "fault.injected", broker="b1", target="b1")
        store.append(
            11_000.0, "fault.failover", entity="svc",
            from_broker="b1", to_broker="b2",
        )
        store.append(30_000.0, "fault.reverted", broker="b1", target="b1")
        report = build_report(store)
        assert report["brokers"]["b1"] == {
            "faults_injected": 1, "faults_reverted": 1,
            "failovers_out": 1, "failovers_in": 0, "sessions_created": 1,
        }
        assert report["brokers"]["b2"]["failovers_in"] == 1
        assert report["evidence"]["fault.failover"] == 1

    def test_fault_targets_are_attributed_by_fault_kind_not_name(self):
        """An entity crash is no broker fault, whatever the entity is called,
        and a broker fault counts whatever the broker is called."""
        store = _store_with_one_outage()
        store.append(2_000.0, "fault.injected", fault="entity_crash", target="backup-svc")
        store.append(3_000.0, "fault.reverted", fault="entity_crash", target="backup-svc")
        store.append(4_000.0, "fault.injected", fault="broker_crash", target="edge-1")
        store.append(5_000.0, "fault.reverted", fault="broker_crash", target="edge-1")
        brokers = build_report(store)["brokers"]
        assert set(brokers) == {"edge-1"}
        assert brokers["edge-1"]["faults_injected"] == 1
        assert brokers["edge-1"]["faults_reverted"] == 1

    def test_empty_store_reports_cleanly(self):
        report = build_report(AnalyticsStore())
        assert report["entities"] == {}
        assert report["mttr"]["count"] == 0
        markdown = render_report_markdown(report)
        assert "No completed recoveries in this run." in markdown
        assert "No completed outages in this run." in markdown


class TestRenderers:
    def test_renderers_are_pure_and_deterministic(self):
        report = build_report(_store_with_one_outage())
        for renderer in (render_report_markdown, render_report_json):
            assert renderer(report) == renderer(report)

    def test_markdown_surfaces_the_headline_numbers(self):
        markdown = render_report_markdown(build_report(_store_with_one_outage()))
        assert "scenario `unit`" in markdown
        assert "| svc | up | 74.576 | 1 | 15000 |" in markdown
        assert "| `trace.observed` | 3 |" in markdown

    def test_markdown_carries_the_regeneration_footer(self):
        markdown = render_report_markdown(build_report(_store_with_one_outage()))
        assert "do not edit by hand" in markdown
        assert "repro analytics report" in markdown
        assert "## Evidence inventory" in markdown


class TestPercentile:
    def test_nearest_rank(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert _percentile(values, 0.0) == 10.0
        assert _percentile(values, 0.5) == 30.0  # round(0.5*3)=2
        assert _percentile(values, 1.0) == 40.0
        assert _percentile([7.0], 0.9) == 7.0
