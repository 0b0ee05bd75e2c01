"""Tests for the calibrated crypto cost model."""

import pytest

from repro.crypto.costmodel import (
    CryptoCostModel,
    CryptoOp,
    OpCost,
    PAPER_CALIBRATION,
)
from repro.errors import ConfigurationError
from tests.support import free_cost_model


class TestCalibrationTable:
    def test_covers_every_op(self):
        assert set(PAPER_CALIBRATION) == set(CryptoOp)

    def test_paper_micro_values(self):
        """The Table 3 rows are encoded exactly."""
        assert PAPER_CALIBRATION[CryptoOp.TOKEN_GENERATE_AND_SIGN].mean_ms == 27.19
        assert PAPER_CALIBRATION[CryptoOp.TOKEN_VERIFY].mean_ms == 2.01
        assert PAPER_CALIBRATION[CryptoOp.TRACE_SIGN].mean_ms == 24.51
        assert PAPER_CALIBRATION[CryptoOp.TRACE_VERIFY].mean_ms == 6.83
        assert PAPER_CALIBRATION[CryptoOp.TRACE_SIGN_ENCRYPTED].mean_ms == 24.0
        assert PAPER_CALIBRATION[CryptoOp.TRACE_VERIFY_ENCRYPTED].mean_ms == 5.31
        assert PAPER_CALIBRATION[CryptoOp.TRACE_ENCRYPT].mean_ms == 0.25
        assert PAPER_CALIBRATION[CryptoOp.TRACE_DECRYPT].mean_ms == 1.15

    def test_signing_dominates_symmetric(self):
        """The premise of the section 6.3 optimization."""
        assert (
            PAPER_CALIBRATION[CryptoOp.TRACE_SIGN].mean_ms
            > 10 * PAPER_CALIBRATION[CryptoOp.TRACE_ENCRYPT].mean_ms
        )
        assert (
            PAPER_CALIBRATION[CryptoOp.TRACE_VERIFY].mean_ms
            > PAPER_CALIBRATION[CryptoOp.TRACE_DECRYPT].mean_ms
        )


class TestSampling:
    def test_deterministic_given_seed(self):
        a = CryptoCostModel(seed=5)
        b = CryptoCostModel(seed=5)
        ops = [CryptoOp.TRACE_SIGN, CryptoOp.TOKEN_VERIFY, CryptoOp.TRACE_SIGN]
        assert [a.sample_ms(op) for op in ops] == [b.sample_ms(op) for op in ops]

    def test_samples_positive(self):
        model = CryptoCostModel(seed=0)
        for _ in range(500):
            assert model.sample_ms(CryptoOp.TRACE_ENCRYPT) >= 0.01

    def test_sample_mean_near_calibration(self):
        model = CryptoCostModel(seed=1)
        samples = [model.sample_ms(CryptoOp.TRACE_SIGN) for _ in range(2000)]
        assert sum(samples) / len(samples) == pytest.approx(24.51, abs=0.5)

    def test_scale(self):
        model = CryptoCostModel(seed=1, scale=2.0)
        assert model.mean_ms(CryptoOp.TRACE_SIGN) == pytest.approx(49.02)

    def test_scale_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            CryptoCostModel(scale=0.0)

    def test_free_model_charges_nothing(self):
        model = free_cost_model()
        assert all(model.sample_ms(op) == 0.0 for op in CryptoOp)

    def test_missing_calibration_rejected(self):
        partial = {CryptoOp.TRACE_SIGN: OpCost(1.0, 0.1)}
        with pytest.raises(ConfigurationError):
            CryptoCostModel(calibration=partial)

    def test_negative_cost_rejected(self):
        with pytest.raises(ConfigurationError):
            OpCost(-1.0, 0.0)
