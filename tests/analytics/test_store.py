"""AnalyticsStore: append/query, metrics binding, snapshot I/O."""

import errno
import pathlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics import AnalyticsStore
from repro.errors import AnalyticsError, MalformedFrameError
from repro.obs import MetricsRegistry


def _populate(store):
    store.append(100.0, "trace.observed", entity="svc", trace_type="JOIN")
    store.append(250.0, "trace.observed", entity="svc", value=9.5,
                 trace_type="FAILED")
    store.append(300.0, "session.created", entity="svc", broker="b1")
    store.set_meta(scenario="unit", seed=7, now_ms=400.0)
    return store


class TestStoreBasics:
    def test_summary(self):
        store = _populate(AnalyticsStore())
        assert store.count() == 3
        assert store.kinds() == {"trace.observed": 2, "session.created": 1}

    def test_append_counts_into_bound_registry(self):
        registry = MetricsRegistry()
        store = AnalyticsStore()
        store.bind_metrics(registry)
        assert store.metrics is registry
        _populate(store)
        assert registry.counter_value("analytics.events.ingested") == 3
        assert registry.gauge_value("analytics.store.events") == 3

    def test_bind_metrics_after_construction(self):
        registry = MetricsRegistry()
        store = AnalyticsStore()
        store.append(1.0, "k")
        store.bind_metrics(registry)
        store.append(2.0, "k")
        assert registry.counter_value("analytics.events.ingested") == 1
        assert store.count() == 2


class TestSnapshotRoundTrip:
    def test_export_load_is_lossless(self, tmp_path):
        store = _populate(AnalyticsStore())
        path = store.save(tmp_path / "snap.json")
        loaded = AnalyticsStore.load(path)
        assert loaded.meta == store.meta
        assert [e.to_dict() for e in loaded.events()] == [
            e.to_dict() for e in store.events()
        ]

    def test_export_is_deterministic(self):
        assert (
            _populate(AnalyticsStore()).export_json()
            == _populate(AnalyticsStore()).export_json()
        )

    def test_invalid_snapshot_rejected(self):
        with pytest.raises(AnalyticsError, match="invalid analytics snapshot"):
            AnalyticsStore.from_json("not json at all {")
        with pytest.raises(MalformedFrameError, match="'events' is missing"):
            AnalyticsStore.from_json('{"meta": {}}')

    @pytest.mark.parametrize(
        ("text", "problem"),
        [
            ('{"events": 5}', "'events' must be a list, got int"),
            ('{"events": [], "meta": [1, 2]}', "'meta' must be a mapping, got list"),
            ("[]", "'mapping' expected, got list"),
            ('{"events": [5]}', "AnalyticsEvent: 'mapping' expected, got int"),
            ('{"events": [{"seq": 1, "kind": "k"}]}', "'time_ms' is missing"),
        ],
        ids=["events-not-a-list", "meta-not-a-mapping", "not-an-object", "row-not-an-object",
             "row-without-time"],
    )
    def test_malformed_document_is_a_named_error(self, text, problem):
        with pytest.raises(MalformedFrameError, match=re.escape(problem)):
            AnalyticsStore.from_json(text)

    def test_unreadable_file_is_a_named_error(self, tmp_path):
        with pytest.raises(AnalyticsError, match="cannot read analytics snapshot"):
            AnalyticsStore.load(tmp_path / "missing.json")
        (tmp_path / "binary.json").write_bytes(b"\xff\xfe")
        with pytest.raises(AnalyticsError, match="cannot read analytics snapshot"):
            AnalyticsStore.load(tmp_path / "binary.json")

    def test_failed_write_keeps_the_earlier_snapshot(self, tmp_path, monkeypatch):
        path = AnalyticsStore().save(tmp_path / "snap.json")
        before = path.read_bytes()

        def disk_full(self, data, encoding=None, **_):
            with open(self, "w", encoding=encoding) as handle:
                handle.write(data[: len(data) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(pathlib.Path, "write_text", disk_full)
        with pytest.raises(AnalyticsError, match="cannot write analytics snapshot"):
            _populate(AnalyticsStore()).save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["snap.json"]

    def test_seq_is_the_position_whatever_the_document_says(self):
        text = '{"events": [{"seq": 9, "time_ms": 1.0, "kind": "a"},' \
               ' {"seq": 9, "time_ms": 2.0, "kind": "b"}]}'
        assert [e.seq for e in AnalyticsStore.from_json(text).events()] == [1, 2]


#: Leaves JSON parses exactly that a float would not: -0.0 and ints past 2**53.
_EDGES = st.sampled_from((-0.0, 2**53 + 1, -(2**63) - 1, 2**64))
_FLOATS = _EDGES | st.floats(allow_nan=False, allow_infinity=False)
_JSON = st.recursive(
    st.none() | st.booleans() | _FLOATS | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)
#: A ``fields`` key may be anything but the three column names ``append`` takes;
#: its positional-only ``time_ms`` / ``kind`` are drawn on purpose.
_FIELD_KEYS = st.sampled_from(("time_ms", "kind")) | st.text().filter(
    lambda key: key not in {"entity", "broker", "value"}
)
_ROWS = st.tuples(
    _FLOATS,
    st.text(),
    st.none() | st.text(),
    st.none() | st.text(),
    st.none() | _FLOATS,
    st.dictionaries(_FIELD_KEYS, _JSON, max_size=3),
)
_LOGS = st.tuples(
    st.lists(_ROWS, max_size=6),
    st.dictionaries(st.text(), _JSON, max_size=3),
)


def _round_trip_property(examples: int):
    @settings(max_examples=examples, deadline=None)
    @given(log=_LOGS)
    def test(log):
        """``from_json(export_json())`` re-exports byte-identically, seqs 1..n."""
        rows, meta = log
        store = AnalyticsStore()
        for time_ms, kind, entity, broker, value, fields in rows:
            store.append(time_ms, kind, entity=entity, broker=broker, value=value, **fields)
        store.meta.update(meta)
        text = store.export_json()
        loaded = AnalyticsStore.from_json(text)
        assert loaded.export_json() == text
        assert loaded.events() == store.events()
        assert [e.seq for e in loaded.events()] == list(range(1, len(rows) + 1))
        assert loaded.meta == meta

    return test


test_snapshot_round_trip_is_byte_identical = _round_trip_property(100)
test_snapshot_round_trip_is_byte_identical_deep = pytest.mark.deep(_round_trip_property(2_000))
