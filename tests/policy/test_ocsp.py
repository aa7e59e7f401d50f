"""Unit tests for the networked OCSP responder."""

import pytest

from repro.policy.credentials import CARegistry, CertificateAuthority
from repro.policy.ocsp import CATEGORY, OCSPResponder, fetch_statuses
from repro.policy.rules import Atom
from repro.sim.network import Node


@pytest.fixture
def world(env, network):
    ca = CertificateAuthority("ca")
    registry = CARegistry([ca])
    responder = network.register(OCSPResponder("ocsp", registry))
    client = network.register(Node("client"))
    return ca, registry, responder, client


def check(env, client, credentials, now=5.0):
    def body():
        statuses = yield from fetch_statuses(client, "ocsp", credentials, now)
        return statuses

    return env.run(until=env.process(body()))


def test_clean_credential_reports_true(env, world):
    ca, _registry, _responder, client = world
    credential = ca.issue("bob", Atom("p", ("bob",)), 0.0)
    statuses = check(env, client, [credential])
    assert statuses == {credential.cred_id: True}


def test_revoked_credential_reports_false(env, world):
    ca, _registry, _responder, client = world
    credential = ca.issue("bob", Atom("p", ("bob",)), 0.0)
    ca.revoke(credential.cred_id, at_time=2.0)
    statuses = check(env, client, [credential], now=5.0)
    assert statuses == {credential.cred_id: False}


def test_revocation_after_now_reports_clean(env, world):
    ca, _registry, _responder, client = world
    credential = ca.issue("bob", Atom("p", ("bob",)), 0.0)
    ca.revoke(credential.cred_id, at_time=100.0)
    statuses = check(env, client, [credential], now=5.0)
    assert statuses == {credential.cred_id: True}


def test_unknown_issuer_fails_closed(env, world):
    _ca, _registry, _responder, client = world
    rogue = CertificateAuthority("rogue")
    credential = rogue.issue("bob", Atom("p", ("bob",)), 0.0)
    statuses = check(env, client, [credential])
    assert statuses == {credential.cred_id: False}


def test_batch_check_mixes_results(env, world):
    ca, _registry, _responder, client = world
    clean = ca.issue("bob", Atom("p", ("bob",)), 0.0)
    dirty = ca.issue("bob", Atom("q", ("bob",)), 0.0)
    ca.revoke(dirty.cred_id, at_time=1.0)
    statuses = check(env, client, [clean, dirty])
    assert statuses[clean.cred_id] and not statuses[dirty.cred_id]


def test_traffic_uses_ocsp_category(env, network, world):
    ca, _registry, _responder, client = world
    seen = []

    network.metrics.on_message = lambda message, now: seen.append(message.category)
    credential = ca.issue("bob", Atom("p", ("bob",)), 0.0)
    check(env, client, [credential])
    assert set(seen) == {CATEGORY}
