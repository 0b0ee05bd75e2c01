"""The codec table, resolution precedence, and the ``REPRO_CODEC`` knob."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.wire import (
    CODEC_ENV_VAR,
    codec_names,
    get_codec,
    resolve_codec,
)
from repro.wire.codec import codec_name_from_env


class TestRegistry:
    def test_builtin_codecs_registered(self):
        assert codec_names() == ("compact", "json")

    def test_unknown_codec_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="unknown wire codec"):
            get_codec("cbor")

    def test_resolve_none_falls_back_to_json(self):
        assert resolve_codec(None).name == "json"

    def test_resolve_by_name_and_instance(self):
        compact = get_codec("compact")
        assert resolve_codec("compact") is compact
        assert resolve_codec(compact) is compact


class TestEnvDefault:
    def test_env_var_name(self):
        assert CODEC_ENV_VAR == "REPRO_CODEC"

    def test_unset_env_defaults_to_json(self, monkeypatch):
        monkeypatch.delenv(CODEC_ENV_VAR, raising=False)
        assert codec_name_from_env() is None
        assert resolve_codec(codec_name_from_env()).name == "json"

    def test_env_selects_codec(self, monkeypatch):
        monkeypatch.setenv(CODEC_ENV_VAR, "compact")
        assert codec_name_from_env() == "compact"

    def test_blank_env_is_ignored(self, monkeypatch):
        monkeypatch.setenv(CODEC_ENV_VAR, "  ")
        assert codec_name_from_env() is None

    def test_invalid_env_fails_fast(self, monkeypatch):
        monkeypatch.setenv(CODEC_ENV_VAR, "msgpack")
        with pytest.raises(ConfigurationError, match="REPRO_CODEC"):
            codec_name_from_env()
