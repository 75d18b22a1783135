import pytest

from capchain.master import (DeniedRegistration, DomainMaster, DuplicateRegistration,
                             MasterError, RegistrationPolicy, RegistrationRequest)

GET_DATA = {"action": "GET", "resource": "/api/data", "conditions": []}


def make_master(bench, **kwargs):
    return DomainMaster(bench.master, bench.zone_id, bench.chain, **kwargs)


def fresh_vid(bench):
    return bench.factory.new_address()


class TestRegistration:
    def test_allow_all_policy_yields_ticket_after_block(self, bench):
        master = make_master(bench)
        vid = fresh_vid(bench)
        digest = master.register_entity(RegistrationRequest(vid, "node-x"))
        assert master.poll_registration(digest) is None  # unconfirmed: no outcome
        bench.chain.produce_next_block()
        assert master.poll_issue(digest) is None  # a join is not an issuance
        assert master.poll_registration(digest) == {
            "vid": vid.hex, "status": "confirmed", "group_id": bench.zone_id}
        assert bench.chain.get_receipt(digest).result is True
        assert master.poll_registration(digest) is None  # polled once, no longer pending

    def test_ticket_matches_confirmed_vnode_record(self, bench):
        master = make_master(bench)
        vid = fresh_vid(bench)
        digest = master.register_entity(RegistrationRequest(vid, "node-x"))
        bench.chain.produce_next_block()
        outcome = master.poll_registration(digest)
        record = bench.zones.get_vnode(vid)
        assert (outcome["vid"], outcome["group_id"]) == (vid.hex, record.vzone_id)

    def test_foreign_membership_surfaces_on_poll(self, bench):
        master = make_master(bench)
        vid = fresh_vid(bench)
        bench.apply(bench.supervisor, "vzone", "create_vzone", ("zone-b",))
        # join submitted before the foreign membership confirms
        master.register_entity(RegistrationRequest(vid, "node-x"))
        bench.submit(bench.supervisor, "vzone", "join_vzone", ("zone-b", vid.hex))
        bench.chain.produce_next_block()
        # pool order: master's join ran first and won; redo with reversed order
        vid2 = fresh_vid(bench)
        bench.submit(bench.supervisor, "vzone", "join_vzone", ("zone-b", vid2.hex))
        digest = master.register_entity(RegistrationRequest(vid2, "node-y"))
        bench.chain.produce_next_block()
        assert master.poll_registration(digest)["status"] == "rejected"

    def test_confirmed_member_rejected_as_duplicate(self, bench):
        master = make_master(bench)
        with pytest.raises(DuplicateRegistration):
            master.register_entity(RegistrationRequest(bench.client, "dup"))

    def test_denylist_policy_blocks_without_transaction(self, bench):
        vid = fresh_vid(bench)
        master = make_master(bench, registration_policy=RegistrationPolicy(
            kind="denylist", vids=frozenset({vid.hex})))
        nonce_before = bench.chain.next_nonce(bench.master)
        with pytest.raises(DeniedRegistration):
            master.register_entity(RegistrationRequest(vid, "node-x"))
        assert bench.chain.next_nonce(bench.master) == nonce_before

    def test_allowlist_policy(self, bench):
        allowed = fresh_vid(bench)
        refused = fresh_vid(bench)
        master = make_master(bench, registration_policy=RegistrationPolicy(
            kind="allowlist", vids=frozenset({allowed.hex})))
        master.register_entity(RegistrationRequest(allowed, "ok"))
        with pytest.raises(DeniedRegistration):
            master.register_entity(RegistrationRequest(refused, "no"))

    def test_attribute_policy(self, bench):
        master = make_master(bench, registration_policy=RegistrationPolicy(
            kind="attribute", required_attributes=(("device", "sensor"),)))
        good = RegistrationRequest(fresh_vid(bench), "a", {"device": "sensor"})
        bad = RegistrationRequest(fresh_vid(bench), "b", {"device": "router"})
        master.register_entity(good)
        with pytest.raises(DeniedRegistration):
            master.register_entity(bad)

    def test_master_without_confirmed_zone(self, bench):
        stray = DomainMaster(bench.outsider, "zone-q", bench.chain)
        with pytest.raises(MasterError):
            stray.register_entity(RegistrationRequest(fresh_vid(bench), "x"))


class TestIssuance:
    def test_grant_becomes_queryable_token(self, bench):
        master = make_master(bench)
        digest = master.issue_capability(bench.client, [GET_DATA], 60000, now=1000)
        assert master.poll_issue(digest) is None
        [tx] = bench.chain.produce_next_block().transactions
        assert master.poll_registration(digest) is None  # an issuance is not a join
        outcome = master.poll_issue(digest)
        assert (tx.digest, tx.contract) == (digest, "captoken")
        token = bench.tokens.get_token(bench.client)
        assert token["id"] == outcome["token_id"]
        assert token["issuedate"] == 1000
        assert token["expireddate"] == 61000

    def test_cross_zone_rejection_propagates(self, bench):
        master = make_master(bench)
        digest = master.issue_capability(bench.outsider, [GET_DATA], 60000, now=0)
        bench.chain.produce_next_block()
        assert master.poll_issue(digest) == {
            "subject": bench.outsider.hex, "status": "rejected",
            "reason": "subject-not-in-zone"}


class TestPollAll:
    def test_outcome_records_of_each_kind(self, bench):
        """The exact dicts ``poll_all`` yields: pending stays out, then a
        confirmed and a rejected join, a confirmed and a rejected issuance."""
        master = make_master(bench)
        joined, foreign = fresh_vid(bench), fresh_vid(bench)
        bench.apply(bench.supervisor, "vzone", "create_vzone", ("zone-b",))
        master.register_entity(RegistrationRequest(joined, "node-x"))
        # the foreign join sits ahead of the master's in the pool, so it wins
        bench.submit(bench.supervisor, "vzone", "join_vzone", ("zone-b", foreign.hex))
        master.register_entity(RegistrationRequest(foreign, "node-y"))
        master.issue_capability(bench.client, [GET_DATA], 60000, now=1000)
        master.issue_capability(bench.outsider, [GET_DATA], 60000, now=1000)
        assert master.poll_all() == ([], [])
        assert master.has_pending
        bench.chain.produce_next_block()
        assert bench.tokens.get_token(bench.client)["id"] == 1
        assert master.poll_all() == (
            [{"vid": joined.hex, "status": "confirmed", "group_id": "zone-a"},
             {"vid": foreign.hex, "status": "rejected",
              "reason": f"join for {foreign.hex} was not accepted "
                        "(duplicate or foreign membership)"}],
            [{"subject": bench.client.hex, "status": "confirmed", "token_id": 1},
             {"subject": bench.outsider.hex, "status": "rejected",
              "reason": "subject-not-in-zone"}])
        assert not master.has_pending
        assert master.poll_all() == ([], [])

    def test_two_submissions_for_one_key_are_two_outcomes(self, bench):
        """Within one block interval, one fresh vid registers twice and one
        subject gets two issuances: each submission has its own outcome."""
        master = make_master(bench)
        vid = fresh_vid(bench)
        master.register_entity(RegistrationRequest(vid, "node-x"))
        master.register_entity(RegistrationRequest(vid, "node-x"))
        master.issue_capability(bench.client, [GET_DATA], 60000, now=1000)
        master.issue_capability(bench.client, [GET_DATA], 90000, now=1000)
        bench.chain.produce_next_block()
        assert master.poll_all() == (
            [{"vid": vid.hex, "status": "confirmed", "group_id": "zone-a"},
             {"vid": vid.hex, "status": "rejected",
              "reason": f"join for {vid.hex} was not accepted "
                        "(duplicate or foreign membership)"}],
            [{"subject": bench.client.hex, "status": "confirmed", "token_id": 1},
             {"subject": bench.client.hex, "status": "confirmed", "token_id": 2}])
        assert not master.has_pending
        assert bench.tokens.get_token(bench.client)["expireddate"] == 91000
