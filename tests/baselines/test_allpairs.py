"""Tests for the all-pairs heartbeat baseline's closed form."""

import pytest

from repro.baselines.allpairs import allpairs_message_rate


class TestMessageRate:
    def test_paper_formula(self):
        """N x (N-1) messages per second (section 1)."""
        assert allpairs_message_rate(10) == 90
        assert allpairs_message_rate(100) == 9_900
        assert allpairs_message_rate(2) == 2

    def test_scales_with_frequency(self):
        assert allpairs_message_rate(10, heartbeats_per_second=2.0) == 180

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            allpairs_message_rate(-1)
