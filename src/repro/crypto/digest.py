"""Message digests.

The paper uses 160-bit SHA-1 for message checksums and signature digests.
We delegate to :mod:`hashlib`: these are not the simulation's interesting
parts.
"""

from __future__ import annotations

import hashlib


def sha1_digest(data: bytes) -> bytes:
    """160-bit SHA-1 digest (the paper's choice)."""
    return hashlib.sha1(data).digest()
