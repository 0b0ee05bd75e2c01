"""The advertisement store replicated at each TDN."""

from __future__ import annotations

from repro.tdn.advertisement import TopicAdvertisement
from repro.util.identifiers import UUID128


class AdvertisementStore:
    """Per-TDN storage of topic advertisements.

    Indexed both by trace topic UUID and by descriptor.  Expired
    advertisements (topic lifetime elapsed) are treated as absent and
    reaped lazily.
    """

    def __init__(self) -> None:
        self._by_topic: dict[UUID128, TopicAdvertisement] = {}
        self._by_descriptor: dict[str, list[UUID128]] = {}

    def __len__(self) -> int:
        return len(self._by_topic)

    def put(self, advertisement: TopicAdvertisement) -> None:
        fields = advertisement.fields
        topic = fields.trace_topic
        if topic in self._by_topic:
            # re-registration replaces (e.g. refreshed lifetime)
            self._remove_descriptor_index(self._by_topic[topic])
        self._by_topic[topic] = advertisement
        self._by_descriptor.setdefault(fields.descriptor, []).append(topic)

    def merge_from(self, other: "AdvertisementStore") -> None:
        """Take each advertisement ``other`` holds whose topic this store lacks
        or holds with an earlier expiry (a renewal it missed)."""
        for topic, advertisement in other._by_topic.items():
            held = self._by_topic.get(topic)
            expires = advertisement.fields.lifetime.expires_ms
            if held is None or held.fields.lifetime.expires_ms < expires:
                self.put(advertisement)

    def _remove_descriptor_index(self, advertisement: TopicAdvertisement) -> None:
        fields = advertisement.fields
        topics = self._by_descriptor.get(fields.descriptor)
        if topics and fields.trace_topic in topics:
            topics.remove(fields.trace_topic)
            if not topics:
                del self._by_descriptor[fields.descriptor]

    def remove(self, topic: UUID128) -> None:
        advertisement = self._by_topic.pop(topic, None)
        if advertisement is not None:
            self._remove_descriptor_index(advertisement)

    def get(self, topic: UUID128, now_ms: float) -> TopicAdvertisement | None:
        advertisement = self._by_topic.get(topic)
        if advertisement is None:
            return None
        if not advertisement.fields.lifetime.alive_at(now_ms):
            self.remove(topic)
            return None
        return advertisement

    def find_by_descriptor(
        self, descriptor: str, now_ms: float
    ) -> list[TopicAdvertisement]:
        """All live advertisements whose descriptor matches exactly.

        Newest first (latest created), so a re-registered topic (after a
        compromise, section 5.2) shadows its predecessor.
        """
        results: list[TopicAdvertisement] = []
        for topic in list(self._by_descriptor.get(descriptor, ())):
            advertisement = self.get(topic, now_ms)
            if advertisement is not None:
                results.append(advertisement)
        results.sort(key=lambda ad: ad.fields.lifetime.created_ms, reverse=True)
        return results

    def find_matching(self, query, now_ms: float) -> list[TopicAdvertisement]:
        """All live advertisements matching a (possibly wildcard) query.

        Exact queries use the descriptor index; pattern queries scan.
        Newest-first per descriptor, descriptors in sorted order.
        """
        if not query.is_pattern:
            return self.find_by_descriptor(query.descriptor, now_ms)
        results: list[TopicAdvertisement] = []
        for descriptor in sorted(self._by_descriptor):
            if query.matches(descriptor):
                results.extend(self.find_by_descriptor(descriptor, now_ms))
        return results

    def reap_expired(self, now_ms: float) -> int:
        """Drop all expired advertisements; returns how many were removed."""
        expired = [
            topic
            for topic, ad in self._by_topic.items()
            if not ad.fields.lifetime.alive_at(now_ms)
        ]
        for topic in expired:
            self.remove(topic)
        return len(expired)

