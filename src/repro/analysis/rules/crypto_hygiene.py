"""CRY01 — degenerate cipher modes, and the key-name vocabulary CRY02 uses.

A constant IV (or raw per-block encryption, i.e. ECB) makes equal heartbeat
plaintexts produce equal ciphertexts, which is exactly the traffic-analysis
leak §5.1's per-session trace keys exist to prevent.

The other family the paper's security sections (4-5) make fatal, key
material in observable output, is the flow-sensitive CRY02 rule
(:mod:`repro.analysis.rules.key_taint`); what counts as a secret name and
as an observable sink is defined here, once, for it.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.analysis.base import SEVERITY_ERROR, Checker, FileContext, Finding
from repro.analysis.project import ProjectIndex

#: Identifier components that mark a value as key material.
SECRET_PARTS = frozenset(
    {"key", "keys", "secret", "secrets", "private", "privkey", "passphrase", "password"}
)

#: Trailing components that mark a name as *metadata about* a key (its
#: size, count, id, ...) rather than the key itself.
METADATA_PARTS = frozenset(
    {"bits", "size", "len", "length", "count", "total", "id", "ids",
     "name", "names", "topic", "path", "hash", "digest", "fingerprint"}
)

#: Logging-shaped callable names (method attr or bare function).
LOG_CALL_NAMES = frozenset(
    {"log", "debug", "info", "warning", "error", "exception", "critical", "print"}
)

_SPLIT_RE = re.compile(r"[_\W\d]+")


def is_secret_name(identifier: str) -> bool:
    """``trace_key`` and ``private_exponent`` are secret; ``key_bits`` is not.

    A ``public`` component neutralizes the whole name: ``public_key`` /
    ``owner_public_key`` are *meant* to be shared, logged, and put on the
    wire (section 4's tokens literally carry one).
    """
    parts = [p for p in _SPLIT_RE.split(identifier.lower()) if p]
    if not parts or parts[-1] in METADATA_PARTS or "public" in parts:
        return False
    return any(part in SECRET_PARTS for part in parts)


def is_metadata_name(identifier: str) -> bool:
    """``count``, ``key_fingerprint`` — metadata *about* a key, never the key."""
    parts = [p for p in _SPLIT_RE.split(identifier.lower()) if p]
    return bool(parts) and parts[-1] in METADATA_PARTS


def access_chain(node: ast.expr) -> list[str]:
    """Name components of a ``Name``/``Attribute``/``Subscript`` chain.

    ``self.keys["count"]`` yields ``["self", "keys", "count"]``; a
    non-constant subscript (``keys[i]``) contributes no component but the
    chain keeps descending.  An empty list means the expression is not a
    plain access chain (a call, a literal, ...).
    """
    parts: list[str] = []
    while True:
        if isinstance(node, ast.Name):
            parts.insert(0, node.id)
            return parts
        if isinstance(node, ast.Attribute):
            parts.insert(0, node.attr)
            node = node.value
            continue
        if isinstance(node, ast.Subscript):
            key = node.slice
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                parts.insert(0, key.value)
            node = node.value
            continue
        return []


def _secret_expr_name(node: ast.expr) -> str | None:
    """The offending identifier if ``node`` names key material directly.

    The whole access chain decides, and its *last* component wins:
    ``meta["private_key"]`` and ``session.keys[0]`` are key material, but
    ``keys["count"]`` and ``report["keys"]["fingerprint"]`` only read
    metadata about keys — the trailing component neutralizes the chain even
    when a secret-named part sits under a subscript.
    """
    parts = access_chain(node)
    if not parts or is_metadata_name(parts[-1]):
        return None
    for part in reversed(parts):
        if is_secret_name(part):
            return part
    return None


def observable_sink_label(func: ast.expr) -> str | None:
    """Human label when ``func`` is an observable sink callable, else None.

    What CRY02 counts as "observable output": logging-shaped calls,
    ``print``, and ``.record(...)`` on a journal-shaped receiver.
    """
    if isinstance(func, ast.Name):
        return f"{func.id}()" if func.id in LOG_CALL_NAMES else None
    if isinstance(func, ast.Attribute):
        if func.attr in LOG_CALL_NAMES:
            return f"a .{func.attr}() sink"
        if func.attr == "record":
            receiver = func.value
            tail = (
                receiver.id
                if isinstance(receiver, ast.Name)
                else receiver.attr if isinstance(receiver, ast.Attribute) else ""
            )
            if "journal" in tail.lower():
                return "a journal .record() sink"
    return None


class SecretExposureChecker(Checker):
    """CRY01: no constant IVs; no ECB shapes."""

    rule = "CRY01"
    description = "ciphers must not use constant IVs or ECB-shaped calls"
    severity = SEVERITY_ERROR
    default_hint = "use the CBC helpers in repro.crypto.aes with a fresh IV per message"

    def check(self, index: ProjectIndex) -> Iterator[Finding]:
        for info in index.iter_modules():
            for node in ast.walk(info.ctx.tree):
                if isinstance(node, ast.Call):
                    yield from self._check_cipher_shape(info.ctx, node)

    def _check_cipher_shape(self, ctx: FileContext, call: ast.Call) -> Iterator[Finding]:
        for keyword in call.keywords:
            if (
                keyword.arg == "iv"
                and isinstance(keyword.value, ast.Constant)
                and isinstance(keyword.value.value, (bytes, str))
            ):
                yield ctx.finding(
                    self,
                    call,
                    "constant IV: equal plaintexts will encrypt identically",
                    hint="draw a fresh IV from the stream RNG per message",
                )
        func = call.func
        callee = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else ""
        )
        if "ecb" in callee.lower():
            yield ctx.finding(
                self,
                call,
                f"ECB-mode call {callee}(): block patterns leak through",
                hint="use the CBC helpers in repro.crypto.aes",
            )
        elif callee in {"encrypt_block", "decrypt_block"} and not ctx.is_module(
            "crypto/aes.py"
        ):
            yield ctx.finding(
                self,
                call,
                f"raw {callee}() outside the cipher core is ECB-shaped",
                hint="use aes_cbc_encrypt/aes_cbc_decrypt",
            )
