"""The all-to-all heartbeat strawman (section 1).

"If there are N entities within the system, with each of them issuing one
message at regular intervals, every entity within the system receives
(N-1) messages.  If every entity issues one such message per second, there
would be N x (N-1) messages within the system every second."

The paper's case against the scheme is this count, so the baseline is
its closed form: the ablation benchmark plots it against the
interest-gated tracing scheme's measured message rate.
"""

from __future__ import annotations

from repro.errors import ConfigurationError


def allpairs_message_rate(n: int, heartbeats_per_second: float = 1.0) -> float:
    """Messages per second in an N-entity all-pairs deployment."""
    if n < 0:
        raise ConfigurationError("n must be non-negative")
    return n * (n - 1) * heartbeats_per_second
