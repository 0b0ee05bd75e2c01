"""Tests for topic advertisements and creation requests."""

import pytest

from repro.crypto.signing import sign_payload, verify_signed
from repro.errors import DiscoveryError, SignatureError
from repro.tdn.advertisement import (
    AdvertisedTopic,
    TopicAdvertisement,
    TopicCreationRequest,
    TopicLifetime,
)
from repro.tdn.query import DiscoveryRestrictions, trace_descriptor
from repro.util.identifiers import EntityId, RequestId, UUID128


def make_advertisement(keypair, tdn_pair, descriptor=None):
    fields = AdvertisedTopic(
        trace_topic=UUID128(9),
        descriptor=descriptor or trace_descriptor("svc"),
        owner_subject="svc",
        owner_public_key=keypair.public,
        restrictions=DiscoveryRestrictions.allow_only("friend"),
        lifetime=TopicLifetime(100.0, 5_000.0),
        issuing_tdn="tdn-0",
    )
    return TopicAdvertisement(fields, sign_payload(fields.to_dict(), tdn_pair.private))


class TestAdvertisement:
    def test_dict_roundtrip(self, keypair, second_keypair):
        ad = make_advertisement(keypair, second_keypair)
        restored = TopicAdvertisement.from_dict(ad.to_dict())
        assert restored == ad
        assert restored.fields.owner_public_key == keypair.public
        restored.verify_provenance({"tdn-0": second_keypair.public})

    def test_entity_id_from_descriptor(self, keypair, second_keypair):
        ad = make_advertisement(keypair, second_keypair)
        assert ad.fields.entity_id == EntityId("svc")

    def test_entity_id_rejects_foreign_descriptor(self, keypair, second_keypair):
        ad = make_advertisement(
            keypair, second_keypair, descriptor="Something/Else/svc"
        )
        with pytest.raises(DiscoveryError):
            _ = ad.fields.entity_id

    def test_signature_covers_all_fields(self, keypair, second_keypair):
        """The TDN signs the whole field record, owner key as two keys."""
        ad = make_advertisement(keypair, second_keypair)
        signed = ad.fields.to_dict()
        assert signed["trace_topic"] == ad.fields.trace_topic.hex
        assert signed["owner_n"] == keypair.public.n
        assert signed["issuing_tdn"] == "tdn-0"
        assert len(signed) == 8
        verify_signed(ad.signature, signed, second_keypair.public)
        for key in signed:
            with pytest.raises(SignatureError):
                verify_signed(ad.signature, {**signed, key: None}, second_keypair.public)


class TestCreationRequest:
    def test_signed_request_binds_credentials(self, ca, keypair):
        cert = ca.issue("svc", keypair.public)
        request = TopicCreationRequest(
            credentials=cert,
            descriptor=trace_descriptor("svc"),
            restrictions=DiscoveryRestrictions.open_to_authenticated(),
            lifetime_ms=1_000.0,
            request_id=RequestId(5),
        )
        payload = request.to_dict()
        assert payload["credentials"] == cert.to_dict()
        assert payload["descriptor"] == "Availability/Traces/svc"
        assert payload["request_id"] == 5
