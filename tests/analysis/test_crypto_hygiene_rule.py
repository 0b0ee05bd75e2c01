"""CRY01 — no degenerate cipher modes; CRY02 owns key material in output.

The key-material cases below were CRY01's until CRY02 covered every one of
them; they now assert the finding the way a ``repro analyze`` run produces
it, through a project run with both rules on.
"""

import pytest

from repro.analysis import analyze_paths
from repro.analysis.rules.crypto_hygiene import SecretExposureChecker, is_secret_name
from repro.analysis.runner import analyze_source, select_checkers

CRYPTO_PATH = "src/repro/security/example.py"


def cry01(source, path=CRYPTO_PATH):
    return analyze_source(source, path, [SecretExposureChecker()])


@pytest.fixture
def leaks(tmp_path):
    """Findings of a CRY01+CRY02 project run over one module."""

    def run(source):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        (pkg / "example.py").write_text(source)
        return analyze_paths([pkg], select_checkers(["CRY01", "CRY02"]))

    return run


class TestSecretNameHeuristic:
    def test_key_material_names(self):
        assert is_secret_name("trace_key")
        assert is_secret_name("secret")
        assert is_secret_name("private_exponent")
        assert is_secret_name("session_keys")

    def test_key_metadata_names_are_not_secret(self):
        assert not is_secret_name("key_bits")
        assert not is_secret_name("key_size")
        assert not is_secret_name("key_id")
        assert not is_secret_name("key_fingerprint")

    def test_unrelated_names(self):
        assert not is_secret_name("monkey")
        assert not is_secret_name("broker_id")


class TestCRY01Fires:
    def test_secret_in_fstring(self, leaks):
        findings = leaks('def f(trace_key):\n    return f"key is {trace_key}"\n')
        assert [f.rule for f in findings] == ["CRY02"]
        assert "trace_key" in findings[0].message

    def test_secret_attribute_in_fstring(self, leaks):
        findings = leaks('def f(self):\n    return f"{self.private_key}"\n')
        assert len(findings) == 1

    def test_repr_of_secret(self, leaks):
        findings = leaks("def f(secret):\n    return repr(secret)\n")
        assert len(findings) == 1

    def test_secret_passed_to_journal_record(self, leaks):
        source = (
            "def f(journal, trace_key):\n"
            "    journal.record('keydist', key=trace_key)\n"
        )
        findings = leaks(source)
        assert len(findings) == 1

    def test_secret_passed_to_log_call(self, leaks):
        source = "def f(logger, private_key):\n    logger.debug(private_key)\n"
        assert len(leaks(source)) == 1

    def test_constant_iv(self):
        source = "def f(cipher, data):\n    return cipher.encrypt(data, iv=b'0000000000000000')\n"
        findings = cry01(source)
        assert len(findings) == 1
        assert "constant IV" in findings[0].message

    def test_ecb_call(self):
        source = "def f(aes, data):\n    return aes_ecb_encrypt(aes, data)\n"
        findings = cry01(source)
        assert "ECB" in findings[0].message

    def test_raw_block_encryption_outside_cipher_core(self):
        source = "def f(block, keys):\n    return encrypt_block(block, keys)\n"
        findings = cry01(source)
        assert len(findings) == 1
        assert "ECB-shaped" in findings[0].message


class TestCRY01StaysQuiet:
    def test_key_metadata_in_fstring_is_fine(self, leaks):
        assert leaks('def f(key_bits):\n    return f"AES-{key_bits}"\n') == []

    def test_fingerprint_logging_is_fine(self, leaks):
        source = "def f(journal, key_fingerprint):\n    journal.record('keydist', kid=key_fingerprint)\n"
        assert leaks(source) == []

    def test_fresh_iv_from_rng_is_fine(self):
        source = "def f(cipher, data, rng):\n    return cipher.encrypt(data, iv=rng.randbytes(16))\n"
        assert cry01(source) == []

    def test_block_helpers_inside_cipher_core_are_fine(self):
        source = "def f(block, keys):\n    return encrypt_block(block, keys)\n"
        assert cry01(source, path="src/repro/crypto/aes.py") == []

    def test_noqa_suppresses(self, leaks):
        source = (
            "def f(cipher, secret):\n"
            "    cipher.encrypt(b'', iv=b'0000')  # repro: noqa[CRY01]\n"
            "    return repr(secret)  # repro: noqa[CRY02]\n"
        )
        assert leaks(source) == []


class TestAccessChainRegressions:
    """False positives fixed when the name heuristic grew chain awareness:
    metadata and mapping access spelled through subscripts must stay quiet,
    while key material reached *through* a subscript must flag."""

    def test_secret_under_constant_subscript_flags(self, leaks):
        findings = leaks('def f(meta):\n    return f"{meta[\'private_key\']}"\n')
        assert len(findings) == 1
        assert "private_key" in findings[0].message

    def test_metadata_key_of_secret_mapping_is_fine(self, leaks):
        assert leaks('def f(keys):\n    return f"{keys[\'count\']}"\n') == []

    def test_nested_metadata_subscript_is_fine(self, leaks):
        source = 'def f(report):\n    return f"{report[\'keys\'][\'fingerprint\']}"\n'
        assert leaks(source) == []

    def test_sliced_bare_key_is_fine(self, leaks):
        # a bare ``key`` is a mapping key, a sort key or a digest-derived
        # tag, sliced or not (broker_ops.py names sim queues
        # f"session-{...hex[:8]}"); specific names still flag, see below
        source = (
            "def f(session_id):\n"
            "    key = session_id.value.hex\n"
            '    return f"session-{key[:8]}", f"{key}"\n'
        )
        assert leaks(source) == []

    def test_sliced_specific_key_still_flags(self, leaks):
        findings = leaks('def f(trace_key):\n    return f"{trace_key[:8]}"\n')
        assert len(findings) == 1

    def test_metadata_attribute_access_is_fine(self, leaks):
        assert leaks('def f(ring):\n    return f"{ring.keys.count}"\n') == []
