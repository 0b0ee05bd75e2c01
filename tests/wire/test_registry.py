"""The codec table, and the one way a network picks its codec: by name."""

from __future__ import annotations

import pytest

from repro import build_deployment
from repro.errors import ConfigurationError
from repro.obs import MetricsRegistry
from repro.wire import SizeMemo, get_codec


class TestRegistry:
    def test_builtin_codecs_registered(self):
        for name in ("compact", "json"):
            assert get_codec(name).name == name

    def test_unknown_codec_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="unknown wire codec"):
            get_codec("cbor")

    def test_resolve_none_falls_back_to_json(self):
        assert SizeMemo(MetricsRegistry()).codec is get_codec("json")


def test_the_environment_never_picks_the_codec(monkeypatch):
    """A deployment built without ``codec`` sizes json, whatever the shell
    exports: there is no ambient codec setting."""
    monkeypatch.setenv("REPRO_CODEC", "compact")
    dep = build_deployment()
    payload = {"state": "Available", "sequence": 7}
    receipt = dep.network.broker("b1").neighbor_links["b2"].send(payload)
    assert receipt.size_bytes == len(get_codec("json").encode(payload))
    names = dep.metrics.names()
    assert "codec.bytes.json" in names
    assert "codec.bytes.compact" not in names
