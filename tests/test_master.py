import pytest

from capchain.master import (DeniedRegistration, DomainMaster, DuplicateRegistration,
                             IssuanceRejected, MasterError, RegistrationFailed,
                             RegistrationPolicy, RegistrationRequest)

GET_DATA = {"action": "GET", "resource": "/api/data", "conditions": []}


def make_master(bench, **kwargs):
    return DomainMaster(bench.master, bench.zone_id, bench.chain, **kwargs)


def fresh_vid(bench):
    return bench.factory.new_address()


class TestRegistration:
    def test_allow_all_policy_yields_ticket_after_block(self, bench):
        master = make_master(bench)
        vid = fresh_vid(bench)
        pending = master.register_entity(RegistrationRequest(vid, "node-x"))
        assert master.poll_registration(vid) is None  # unconfirmed: no ticket
        bench.chain.produce_next_block()
        ticket = master.poll_registration(vid)
        assert ticket is not None
        assert ticket.group_id == bench.zone_id
        assert pending.vid == vid

    def test_ticket_matches_confirmed_vnode_record(self, bench):
        master = make_master(bench)
        vid = fresh_vid(bench)
        master.register_entity(RegistrationRequest(vid, "node-x"))
        bench.chain.produce_next_block()
        ticket = master.poll_registration(vid)
        record = bench.zones.get_vnode(vid)
        assert (ticket.vid, ticket.group_id) == (vid, record.vzone_id)

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
        master.register_entity(RegistrationRequest(vid2, "node-y"))
        bench.chain.produce_next_block()
        with pytest.raises(RegistrationFailed):
            master.poll_registration(vid2)

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
        master.issue_capability(bench.client, [GET_DATA], 60000, now=1000)
        assert master.poll_issue(bench.client) is None
        bench.chain.produce_next_block()
        receipt = master.poll_issue(bench.client)
        assert receipt.contract == "captoken"
        token = bench.tokens.get_token(bench.client)
        assert token["id"] == receipt.token_id
        assert token["issuedate"] == 1000
        assert token["expireddate"] == 61000

    def test_cross_zone_rejection_propagates(self, bench):
        master = make_master(bench)
        master.issue_capability(bench.outsider, [GET_DATA], 60000, now=0)
        bench.chain.produce_next_block()
        with pytest.raises(IssuanceRejected) as err:
            master.poll_issue(bench.outsider)
        assert err.value.cause == "subject-not-in-zone"
