"""Tests for trace types, entity states, and trace payloads (Table 1)."""

import pytest

from repro.tracing.traces import (
    CHANGE_NOTIFICATION_TYPES,
    STATE_TRANSITION_TYPES,
    VALID_TRANSITIONS,
    EntityState,
    LoadInformation,
    NetworkMetrics,
    TraceType,
)


class TestTraceTypes:
    def test_table1_complete(self):
        """Every trace type of Table 1 exists (including GUAGE_INTEREST)."""
        names = {t.name for t in TraceType}
        assert names == {
            "INITIALIZING", "RECOVERING", "READY", "SHUTDOWN",
            "FAILURE_SUSPICION", "FAILED", "DISCONNECT",
            "GUAGE_INTEREST", "JOIN", "REVERTING_TO_SILENT_MODE",
            "ALLS_WELL", "LOAD_INFORMATION", "NETWORK_METRICS",
        }

    def test_for_state(self):
        assert TraceType.for_state(EntityState.READY) is TraceType.READY

    def test_category_sets_disjoint(self):
        assert not (CHANGE_NOTIFICATION_TYPES & STATE_TRANSITION_TYPES)

    def test_state_transition_set(self):
        assert TraceType.READY in STATE_TRANSITION_TYPES
        assert TraceType.FAILED in CHANGE_NOTIFICATION_TYPES


class TestEntityStateMachine:
    def test_legal_paths(self):
        assert EntityState.READY in VALID_TRANSITIONS[EntityState.INITIALIZING]
        assert EntityState.RECOVERING in VALID_TRANSITIONS[EntityState.READY]
        assert EntityState.READY in VALID_TRANSITIONS[EntityState.RECOVERING]

    def test_shutdown_terminal(self):
        assert VALID_TRANSITIONS[EntityState.SHUTDOWN] == frozenset()

    def test_cannot_skip_initialization(self):
        assert EntityState.RECOVERING not in VALID_TRANSITIONS[EntityState.INITIALIZING]


class TestLoadInformation:
    def test_roundtrip(self):
        load = LoadInformation(0.5, 512.0, 2048.0, workload=7)
        assert LoadInformation.from_dict(load.to_dict()) == load

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(cpu_utilization=1.5, memory_used_mb=0, memory_total_mb=1, workload=0),
            dict(cpu_utilization=-0.1, memory_used_mb=0, memory_total_mb=1, workload=0),
            dict(cpu_utilization=0.5, memory_used_mb=2, memory_total_mb=1, workload=0),
            dict(cpu_utilization=0.5, memory_used_mb=0, memory_total_mb=0, workload=0),
            dict(cpu_utilization=0.5, memory_used_mb=0, memory_total_mb=1, workload=-1),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            LoadInformation(**kwargs)


class TestNetworkMetrics:
    def test_roundtrip(self):
        metrics = NetworkMetrics(0.1, 12.0, 2.0, 0.05, 100_000.0)
        assert NetworkMetrics.from_dict(metrics.to_dict()) == metrics

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(loss_rate=1.5, mean_rtt_ms=1, jitter_ms=0, out_of_order_rate=0,
                 bandwidth_estimate_kbps=1),
            dict(loss_rate=0, mean_rtt_ms=-1, jitter_ms=0, out_of_order_rate=0,
                 bandwidth_estimate_kbps=1),
            dict(loss_rate=0, mean_rtt_ms=1, jitter_ms=0, out_of_order_rate=2,
                 bandwidth_estimate_kbps=1),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            NetworkMetrics(**kwargs)
