"""Tests for pings, responses and the ping history (section 3.3)."""

import pytest

from repro.tracing.pings import PING_HISTORY_WINDOW, Ping, PingHistory, PingResponse


def respond(history, number, issued, received):
    return history.record_response(
        PingResponse(number=number, issued_ms=issued, entity_stamp_ms=issued + 1),
        received_ms=received,
    )


class TestPingMessages:
    def test_dict_roundtrips(self):
        ping = Ping(number=3, issued_ms=125.5)
        assert Ping.from_dict(ping.to_dict()) == ping
        resp = PingResponse(number=3, issued_ms=125.5, entity_stamp_ms=126.0)
        assert PingResponse.from_dict(resp.to_dict()) == resp

    def test_response_must_echo_number_and_timestamp(self):
        history = PingHistory()
        history.record_ping(Ping(number=3, issued_ms=100.0))
        assert not history.record_response(PingResponse(4, 100.0, 101.0), 102.0)
        assert not history.record_response(PingResponse(3, 99.0, 101.0), 102.0)
        assert history.record_response(PingResponse(3, 100.0, 101.0), 102.0)


class TestHistoryWindow:
    def test_window_is_paper_ten(self):
        assert PING_HISTORY_WINDOW == 10

    def test_window_slides(self):
        history = PingHistory()
        for i in range(15):
            history.record_ping(Ping(i, float(i)))
        assert len(history) == 10

    def test_last_ping_tracked(self):
        history = PingHistory()
        history.record_ping(Ping(0, 50.0))
        assert history.last_ping_ms == 50.0


class TestResponses:
    def test_match_and_rtt(self):
        history = PingHistory()
        history.record_ping(Ping(0, 100.0))
        assert respond(history, 0, 100.0, 108.0)
        assert history.rtts() == [8.0]
        assert history.mean_rtt_ms() == 8.0

    def test_unmatched_response(self):
        history = PingHistory()
        history.record_ping(Ping(0, 100.0))
        assert not respond(history, 7, 100.0, 108.0)

    def test_duplicate_response_not_rematched(self):
        history = PingHistory()
        history.record_ping(Ping(0, 100.0))
        assert respond(history, 0, 100.0, 105.0)
        assert not respond(history, 0, 100.0, 106.0)
        assert history.rtts() == [5.0]

    def test_out_of_order_detection(self):
        history = PingHistory()
        for i in range(3):
            history.record_ping(Ping(i, 100.0 + i))
        respond(history, 0, 100.0, 110.0)
        respond(history, 2, 102.0, 111.0)
        respond(history, 1, 101.0, 112.0)  # arrives after #2: out of order
        assert history.out_of_order_rate() == pytest.approx(1 / 3)

    def test_unmatched_response_does_not_skew_rates(self):
        """A response for a ping never sent must not enter the stats."""
        history = PingHistory()
        history.record_ping(Ping(0, 100.0))
        respond(history, 0, 100.0, 105.0)
        for _ in range(5):
            assert not respond(history, 99, 100.0, 106.0)
        # denominator is still the single matched response
        assert history.out_of_order_rate() == 0.0

    def test_unmatched_high_number_does_not_advance_watermark(self):
        """A forged/unmatched high number must not mark later real
        responses out of order."""
        history = PingHistory()
        history.record_ping(Ping(0, 100.0))
        respond(history, 50, 999.0, 105.0)  # unmatched: never recorded
        history.record_ping(Ping(1, 200.0))
        assert respond(history, 0, 100.0, 210.0)
        assert respond(history, 1, 200.0, 211.0)
        assert history.out_of_order_rate() == 0.0

    def test_duplicate_response_does_not_skew_rates(self):
        history = PingHistory()
        history.record_ping(Ping(0, 100.0))
        history.record_ping(Ping(1, 200.0))
        respond(history, 1, 200.0, 205.0)
        for _ in range(4):
            assert not respond(history, 1, 200.0, 206.0)  # duplicates
        respond(history, 0, 100.0, 210.0)  # genuinely out of order
        # 2 matched responses, 1 out of order; duplicates counted nowhere
        assert history.out_of_order_rate() == pytest.approx(0.5)


class TestIncarnations:
    """Broker-restart semantics: stale pre-crash state must not poison the
    new incarnation's judgement (regression for the restart false-FAILED
    bug fixed alongside repro.faults)."""

    def test_reset_clears_window_and_watermark(self):
        history = PingHistory()
        for i in range(5):
            history.record_ping(Ping(i, i * 100.0))
        respond(history, 4, 400.0, 405.0)
        history.reset_incarnation()
        assert len(history) == 0
        assert history.last_ping_ms is None
        assert history.rtts() == []
        assert history.consecutive_misses(10_000.0, 400.0) == 0

    def test_post_restart_response_not_marked_out_of_order(self):
        """The old incarnation answered up to #9; after a restart ping
        numbering starts over, and #0's response must not be judged
        out-of-order against the dead incarnation's watermark."""
        history = PingHistory()
        for i in range(10):
            history.record_ping(Ping(i, i * 100.0))
            respond(history, i, i * 100.0, i * 100.0 + 5)
        history.reset_incarnation()
        history.record_ping(Ping(0, 5_000.0))
        assert respond(history, 0, 5_000.0, 5_005.0)
        assert history.out_of_order_rate() < 1 / 10

    def test_stale_record_cannot_swallow_fresh_response(self):
        """Without the issued_ms check a pre-crash unanswered ping #0 would
        absorb the post-restart response to the *new* ping #0, leaving the
        fresh ping to look missed."""
        history = PingHistory()
        history.record_ping(Ping(0, 100.0))  # pre-crash, never answered
        history.record_ping(Ping(0, 9_000.0))  # post-restart reuse of #0
        assert respond(history, 0, 9_000.0, 9_005.0)
        answered = [r for r in history._records if r.answered]
        assert [r.issued_ms for r in answered] == [9_000.0]
        assert history.consecutive_misses(9_500.0, 400.0) == 0

    def test_cumulative_stats_survive_reset(self):
        history = PingHistory()
        for i in range(3):
            history.record_ping(Ping(i, 100.0 + i))
        respond(history, 0, 100.0, 110.0)
        respond(history, 2, 102.0, 111.0)
        respond(history, 1, 101.0, 112.0)  # out of order
        rate_before = history.out_of_order_rate()
        assert rate_before > 0
        history.reset_incarnation()
        assert history.out_of_order_rate() == rate_before


class TestMisses:
    def test_consecutive_misses_counts_trailing_unanswered(self):
        history = PingHistory()
        history.record_ping(Ping(0, 0.0))
        respond(history, 0, 0.0, 5.0)
        history.record_ping(Ping(1, 100.0))
        history.record_ping(Ping(2, 200.0))
        # at t=700 both pings are past a 400 ms deadline
        assert history.consecutive_misses(700.0, 400.0) == 2

    def test_recent_ping_not_judged(self):
        history = PingHistory()
        history.record_ping(Ping(0, 0.0))
        # at t=100 with deadline 400 the ping is still in flight
        assert history.consecutive_misses(100.0, 400.0) == 0

    def test_answered_ping_resets_streak(self):
        history = PingHistory()
        history.record_ping(Ping(0, 0.0))
        history.record_ping(Ping(1, 100.0))
        respond(history, 1, 100.0, 150.0)
        history.record_ping(Ping(2, 200.0))
        assert history.consecutive_misses(900.0, 400.0) == 1

    def test_loss_rate(self):
        history = PingHistory()
        for i in range(4):
            history.record_ping(Ping(i, float(i * 100)))
        respond(history, 0, 0.0, 10.0)
        respond(history, 2, 200.0, 210.0)
        # pings 1 and 3 unanswered and past deadline at t=2000
        assert history.loss_rate(2000.0, 400.0) == pytest.approx(0.5)

    def test_loss_rate_no_data(self):
        assert PingHistory().loss_rate(0.0, 400.0) == 0.0


class TestNetworkMetrics:
    def test_derived_metrics(self):
        history = PingHistory()
        for i, rtt in enumerate([10.0, 12.0, 14.0]):
            history.record_ping(Ping(i, i * 100.0))
            respond(history, i, i * 100.0, i * 100.0 + rtt)
        metrics = history.network_metrics(1000.0, 400.0)
        assert metrics is not None
        assert metrics.mean_rtt_ms == pytest.approx(12.0)
        assert metrics.loss_rate == 0.0
        assert metrics.jitter_ms == pytest.approx(2.0)

    def test_no_data_returns_none(self):
        assert PingHistory().network_metrics(0.0, 400.0) is None

    def test_jitter_single_sample_zero(self):
        history = PingHistory()
        history.record_ping(Ping(0, 0.0))
        respond(history, 0, 0.0, 5.0)
        assert history.jitter_ms() == 0.0
