"""Contracts of the error taxonomy the ERR01 rule locks in."""

import pytest

from repro import errors


def test_every_public_error_is_a_repro_error():
    for name in dir(errors):
        obj = getattr(errors, name)
        if isinstance(obj, type) and issubclass(obj, Exception) and obj is not Exception:
            assert issubclass(obj, errors.ReproError), name


class TestBuiltinCompatibility:
    """Dual inheritance keeps pre-taxonomy ``except`` clauses working."""

    def test_validation_errors_are_value_errors(self):
        assert issubclass(errors.ValidationError, ValueError)
        assert issubclass(errors.ConfigurationError, ValueError)
        assert issubclass(errors.StatsError, ValueError)
        assert issubclass(errors.InstrumentError, ValueError)
        assert issubclass(errors.TopicError, ValueError)

    def test_serialization_split(self):
        assert issubclass(errors.SerializationDecodeError, ValueError)
        assert issubclass(errors.SerializationTypeError, TypeError)
        assert issubclass(errors.SerializationDecodeError, errors.SerializationError)
        assert issubclass(errors.SerializationTypeError, errors.SerializationError)

    def test_benchmark_errors_are_runtime_errors(self):
        assert issubclass(errors.BenchmarkError, RuntimeError)


class TestKeyMaterialErrorRename:
    def test_key_material_error_is_crypto_and_value_error(self):
        assert issubclass(errors.KeyMaterialError, errors.CryptoError)
        assert issubclass(errors.KeyMaterialError, ValueError)

    def test_name_does_not_shadow_builtin(self):
        assert errors.KeyMaterialError.__name__ == "KeyMaterialError"
        assert not issubclass(errors.KeyMaterialError, KeyError)


class TestTaxonomyGapsFilled:
    def test_tdn_family(self):
        assert issubclass(errors.TdnError, errors.ReproError)
        assert issubclass(errors.DiscoveryError, errors.TdnError)

    def test_authorization_family(self):
        assert issubclass(errors.AuthorizationError, errors.ReproError)
        assert issubclass(errors.UnauthorizedError, errors.AuthorizationError)
        assert issubclass(errors.TokenError, errors.AuthorizationError)


class TestRaisedTypes:
    """Spot-check that call sites actually raise the taxonomy now."""

    def test_clock_validation(self):
        from repro.sim.engine import Simulator

        sim = Simulator(start=100.0)
        sim._heap.append((50.0, 0, lambda: None))  # an entry behind the clock
        with pytest.raises(errors.ValidationError):
            sim.step()

    def test_stats_empty(self):
        from repro.util.stats import RunningStats

        with pytest.raises(errors.StatsError):
            RunningStats().summary()

    def test_serialization_decode(self):
        from repro.util.serialization import canonical_decode

        with pytest.raises(errors.SerializationDecodeError):
            canonical_decode(b"\xff\xff")

    def test_serialization_encode_type(self):
        from repro.util.serialization import canonical_encode

        with pytest.raises(errors.SerializationTypeError):
            canonical_encode(object())

    def test_aes_key_material(self):
        from repro.crypto.aes import AESKey

        with pytest.raises(errors.KeyMaterialError):
            AESKey(b"short")

    def test_deployment_codec(self):
        from repro.deployment import build_deployment

        with pytest.raises(errors.ConfigurationError):
            build_deployment(broker_ids=["a", "b"], codec="morse")
