import json

import pytest

from capchain.master import (AccessDecision, AccessDenial, DeniedRegistration,
                             DomainMaster, DuplicateRegistration, EntityProfile,
                             IssuanceRejected, MasterError, PolicyRule,
                             ProfileStore, RegistrationFailed, RegistrationPolicy,
                             RegistrationRequest, load_policy_rules)
from capchain.tokens import AccessRule, Action

from reference_models import oracle_policy_decision

GET_DATA = AccessRule(Action.GET, "/api/data")
POST_UPLOAD = AccessRule(Action.POST, "/api/upload")
DELETE_DATA = AccessRule(Action.DELETE, "/api/data")


def make_master(bench, **kwargs):
    return DomainMaster(bench.master, bench.zone_id, bench.chain, **kwargs)


def fresh_vid(bench):
    return bench.factory.new_address()


class TestRegistration:
    def test_allow_all_policy_yields_ticket_after_block(self, bench):
        master = make_master(bench)
        vid = fresh_vid(bench)
        pending = master.register_entity(RegistrationRequest(vid, "node-x"), now=100)
        assert master.poll_registration(vid) is None  # unconfirmed: no ticket
        bench.chain.produce_next_block()
        ticket = master.poll_registration(vid)
        assert ticket is not None
        assert ticket.group_id == bench.zone_id
        assert pending.vid == vid

    def test_ticket_matches_confirmed_vnode_record(self, bench):
        master = make_master(bench)
        vid = fresh_vid(bench)
        master.register_entity(RegistrationRequest(vid, "node-x"), now=100)
        bench.chain.produce_next_block()
        ticket = master.poll_registration(vid)
        record = bench.zones.get_vnode(vid)
        assert (ticket.vid, ticket.group_id) == (vid, record.vzone_id)

    def test_foreign_membership_surfaces_on_poll(self, bench):
        master = make_master(bench)
        vid = fresh_vid(bench)
        bench.apply(bench.supervisor, "vzone", "create_vzone", ("zone-b",))
        # join submitted before the foreign membership confirms
        master.register_entity(RegistrationRequest(vid, "node-x"), now=100)
        bench.submit(bench.supervisor, "vzone", "join_vzone", ("zone-b", vid.hex))
        bench.chain.produce_next_block()
        # pool order: master's join ran first and won; redo with reversed order
        vid2 = fresh_vid(bench)
        bench.submit(bench.supervisor, "vzone", "join_vzone", ("zone-b", vid2.hex))
        master.register_entity(RegistrationRequest(vid2, "node-y"), now=200)
        bench.chain.produce_next_block()
        with pytest.raises(RegistrationFailed):
            master.poll_registration(vid2)

    def test_confirmed_member_rejected_as_duplicate(self, bench):
        master = make_master(bench)
        with pytest.raises(DuplicateRegistration):
            master.register_entity(RegistrationRequest(bench.client, "dup"), now=0)

    def test_denylist_policy_blocks_without_transaction(self, bench):
        vid = fresh_vid(bench)
        master = make_master(bench, registration_policy=RegistrationPolicy(
            kind="denylist", vids=frozenset({vid.hex})))
        pool_before = bench.chain.pending_count
        with pytest.raises(DeniedRegistration):
            master.register_entity(RegistrationRequest(vid, "node-x"), now=0)
        assert bench.chain.pending_count == pool_before

    def test_allowlist_policy(self, bench):
        allowed = fresh_vid(bench)
        refused = fresh_vid(bench)
        master = make_master(bench, registration_policy=RegistrationPolicy(
            kind="allowlist", vids=frozenset({allowed.hex})))
        master.register_entity(RegistrationRequest(allowed, "ok"), now=0)
        with pytest.raises(DeniedRegistration):
            master.register_entity(RegistrationRequest(refused, "no"), now=0)

    def test_attribute_policy(self, bench):
        master = make_master(bench, registration_policy=RegistrationPolicy(
            kind="attribute", required_attributes=(("device", "sensor"),)))
        good = RegistrationRequest(fresh_vid(bench), "a", {"device": "sensor"})
        bad = RegistrationRequest(fresh_vid(bench), "b", {"device": "router"})
        master.register_entity(good, now=0)
        with pytest.raises(DeniedRegistration):
            master.register_entity(bad, now=0)

    def test_master_without_confirmed_zone(self, bench):
        stray = DomainMaster(bench.outsider, "zone-q", bench.chain)
        with pytest.raises(MasterError):
            stray.register_entity(RegistrationRequest(fresh_vid(bench), "x"), now=0)


class TestEvaluation:
    def register_client(self, bench, master, attributes=None):
        profile = EntityProfile(bench.client, "client", bench.zone_id, 0,
                                attributes or {})
        master.store.upsert(profile)

    def test_exact_grant_matches_request(self, bench):
        rule = PolicyRule(match=(), grant=(GET_DATA,), validity_ms=60000)
        master = make_master(bench, policy_rules=(rule,))
        self.register_client(bench, master)
        decision = master.evaluate_access_request(bench.client, (GET_DATA,))
        assert isinstance(decision, AccessDecision)
        assert decision.granted == (GET_DATA,)
        assert decision.validity_ms == 60000

    def test_unmatched_request_denied(self, bench):
        rule = PolicyRule(match=(), grant=(GET_DATA,), validity_ms=60000)
        master = make_master(bench, policy_rules=(rule,))
        self.register_client(bench, master)
        decision = master.evaluate_access_request(bench.client, (DELETE_DATA,))
        assert isinstance(decision, AccessDenial)
        assert decision.reason == "no-matching-policy"

    def test_unknown_subject_denied(self, bench):
        master = make_master(bench)
        decision = master.evaluate_access_request(bench.outsider, (GET_DATA,))
        assert isinstance(decision, AccessDenial)
        assert decision.reason == "unknown-subject"

    def test_profile_without_confirmed_membership_denied(self, bench):
        master = make_master(bench)
        vid = fresh_vid(bench)
        master.store.upsert(EntityProfile(vid, "ghost", bench.zone_id, 0, {}))
        decision = master.evaluate_access_request(vid, (GET_DATA,))
        assert isinstance(decision, AccessDenial)
        assert decision.reason == "not-a-member"

    def test_attribute_match_selects_rules(self, bench):
        sensor_rule = PolicyRule(match=(("device", "sensor"),), grant=(GET_DATA,),
                                 validity_ms=1000)
        admin_rule = PolicyRule(match=(("device", "admin"),), grant=(DELETE_DATA,),
                                validity_ms=1000)
        master = make_master(bench, policy_rules=(sensor_rule, admin_rule))
        self.register_client(bench, master, {"device": "sensor"})
        decision = master.evaluate_access_request(bench.client,
                                                  (GET_DATA, DELETE_DATA))
        assert isinstance(decision, AccessDecision)
        assert decision.granted == (GET_DATA,)

    def test_overlapping_grants_union_without_duplicates(self, bench):
        rule_a = PolicyRule(match=(), grant=(GET_DATA, POST_UPLOAD), validity_ms=1000)
        rule_b = PolicyRule(match=(), grant=(GET_DATA,), validity_ms=2000)
        master = make_master(bench, policy_rules=(rule_a, rule_b))
        self.register_client(bench, master)
        decision = master.evaluate_access_request(bench.client,
                                                  (GET_DATA, POST_UPLOAD))
        assert isinstance(decision, AccessDecision)
        assert decision.granted == (GET_DATA, POST_UPLOAD)
        assert decision.validity_ms == 2000

    def test_decision_is_repeatable(self, bench):
        rule = PolicyRule(match=(), grant=(GET_DATA,), validity_ms=1000)
        master = make_master(bench, policy_rules=(rule,))
        self.register_client(bench, master)
        results = {str(master.evaluate_access_request(bench.client, (GET_DATA,)))
                   for _ in range(5)}
        assert len(results) == 1

    def test_union_agrees_with_powerset_oracle(self, bench):
        # every subset of three policy rules against every request subset
        pool = (GET_DATA, POST_UPLOAD, DELETE_DATA)
        rules = tuple(PolicyRule(match=(), grant=(g,), validity_ms=1000)
                      for g in pool)
        keys = [(g.action.value, g.resource) for g in pool]
        for rule_mask in range(8):
            chosen = tuple(rules[i] for i in range(3) if rule_mask >> i & 1)
            master = make_master(bench, policy_rules=chosen)
            self.register_client(bench, master)
            for req_mask in range(8):
                requested = tuple(pool[i] for i in range(3) if req_mask >> i & 1)
                decision = master.evaluate_access_request(bench.client, requested)
                expected = oracle_policy_decision(
                    [[keys[i]] for i in range(3) if rule_mask >> i & 1],
                    {keys[i] for i in range(3) if req_mask >> i & 1})
                if expected:
                    assert isinstance(decision, AccessDecision)
                    got = [(r.action.value, r.resource) for r in decision.granted]
                    assert got == expected
                else:
                    assert isinstance(decision, AccessDenial)


class TestIssuance:
    def test_grant_becomes_queryable_token(self, bench):
        master = make_master(bench)
        decision = AccessDecision(granted=(GET_DATA,), validity_ms=60000)
        master.issue_capability(bench.client, decision, now=1000)
        assert master.poll_issue(bench.client) is None
        bench.chain.produce_next_block()
        receipt = master.poll_issue(bench.client)
        assert receipt.contract == "captoken"
        token = bench.tokens.get_token(bench.client)
        assert token["id"] == receipt.token_id
        assert token["issuedate"] == 1000
        assert token["expireddate"] == 61000

    def test_denial_cannot_be_issued(self, bench):
        master = make_master(bench)
        with pytest.raises(MasterError):
            master.issue_capability(bench.client, AccessDenial("nope"), now=0)

    def test_cross_zone_rejection_propagates(self, bench):
        master = make_master(bench)
        decision = AccessDecision(granted=(GET_DATA,), validity_ms=60000)
        master.issue_capability(bench.outsider, decision, now=0)
        bench.chain.produce_next_block()
        with pytest.raises(IssuanceRejected) as err:
            master.poll_issue(bench.outsider)
        assert err.value.cause == "subject-not-in-zone"


class TestProfileStore:
    def test_survives_restart(self, tmp_path, bench):
        path = tmp_path / "profiles.db"
        store = ProfileStore(path)
        profile = EntityProfile(bench.client, "client-1", "zone-a", 42,
                                {"device": "sensor"})
        store.upsert(profile)
        store.close()
        reopened = ProfileStore(path)
        assert reopened.get(bench.client) == profile
        reopened.close()

    def test_policy_file_round_trip(self, tmp_path):
        rules = [PolicyRule(match=(("device", "sensor"),), grant=(GET_DATA,),
                            validity_ms=5000)]
        path = tmp_path / "policy.json"
        path.write_text(json.dumps({"rules": [r.wire() for r in rules]}))
        loaded = load_policy_rules(path)
        assert loaded == rules
