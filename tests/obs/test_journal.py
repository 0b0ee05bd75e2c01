"""EventJournal: typed records, filtering, kind counts."""

from repro.obs import EventJournal, JournalRecord


class TestRecording:
    def test_typed_columns_and_fields(self):
        journal = EventJournal()
        entry = journal.record(
            12.5, "violation", topic="Constrained/Trace", principal="mallory",
            size_bytes=128, what="publish",
        )
        assert entry.topic == "Constrained/Trace"
        assert entry.principal == "mallory"
        assert entry.size_bytes == 128
        assert entry.fields == {"what": "publish"}

    def test_filtering_and_kinds(self):
        journal = EventJournal()
        journal.record(1.0, "link.drop", size_bytes=64)
        journal.record(2.0, "violation", principal="eve")
        journal.record(3.0, "link.drop", size_bytes=96)
        assert len(journal) == 3
        assert [r.time_ms for r in journal.records("link.drop")] == [1.0, 3.0]
        assert journal.kinds() == {"link.drop": 2, "violation": 1}
        assert list(journal) == journal.records()


class TestExport:
    def test_record_equality_is_structural(self):
        a = JournalRecord(1.0, "x", principal="p", fields={"k": "v"})
        b = JournalRecord(1.0, "x", principal="p", fields={"k": "v"})
        assert a == b
