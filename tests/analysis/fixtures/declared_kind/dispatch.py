"""Dispatches heartbeat; goodbye is only ever read through Goodbye.from_dict."""

from declared_kind.records import Heartbeat


def handle(body):
    kind = body.get("kind")
    if kind == "heartbeat":
        return Heartbeat.from_dict(body)
    return None
