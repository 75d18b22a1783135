import random

from hypothesis import given, settings
from hypothesis import strategies as st

from capchain.address import AddressFactory, ZERO_ADDRESS
from capchain.ledger import DISCARD, Chain, ChainConfig
from capchain.zones import (NODE_TYPE_FOLLOWER, NODE_TYPE_MASTER, NODE_TYPE_NONE,
                            VirtualZone, VNodeRecord,
                            ZoneContract)

from reference_models import (MODEL_OPS, contract_state_view, model_state_view,
                              new_zone_model)

FACTORY_SEED = 501


def make_world(extra_nodes=3):
    factory = AddressFactory(FACTORY_SEED)
    supervisor = factory.new_address()
    master = factory.new_address()
    nodes = factory.new_addresses(extra_nodes)
    zones = ZoneContract(supervisor)
    zones.set_master_allowlist(supervisor, master, True)
    return supervisor, master, nodes, zones


class TestStandalone:
    def test_a_contract_no_chain_hosts_keeps_no_changed_key(self):
        supervisor, master, _, zones = make_world()
        assert zones.create_vzone(master, "zone-a")
        for node in AddressFactory(FACTORY_SEED + 1).new_addresses(1000):
            assert zones.join_vzone(master, "zone-a", node)
        assert zones.changed is DISCARD
        assert zones.revoke_vzone(supervisor, "zone-a")
        assert zones.changed is DISCARD

    def test_a_deployed_contract_keeps_its_keys_until_the_seal(self):
        supervisor, master, nodes, zones = make_world()
        chain = Chain(ChainConfig(supervisor=supervisor), [zones])
        assert zones.changed == []
        assert zones.create_vzone(master, "zone-a")
        assert zones.join_vzone(master, "zone-a", nodes[0])
        assert zones.changed == ["zone-a", master, nodes[0]]
        chain.produce_next_block()
        assert zones.changed == []
        assert chain.changes_since("vzone", 0)[1] == {nodes[0]: 0, master: 1, "zone-a": 2}


class TestCreate:
    def test_supervisor_creates_fresh_zone(self):
        supervisor, _, _, zones = make_world()
        assert zones.create_vzone(supervisor, "zone-a") is True
        assert zones.get_vzone("zone-a").master == supervisor
        record = zones.get_vnode(supervisor)
        assert record.node_type == NODE_TYPE_MASTER
        assert record.vzone_id == "zone-a"

    def test_recreating_owned_zone_fails(self):
        supervisor, master, _, zones = make_world()
        assert zones.create_vzone(supervisor, "zone-a") is True
        assert zones.create_vzone(master, "zone-a") is False

    def test_unauthorized_sender_fails_without_state_change(self):
        _, _, nodes, zones = make_world()
        before = zones.dump_state()
        assert zones.create_vzone(nodes[0], "zone-a") is False
        assert zones.dump_state() == before

    def test_uid_counts_successful_transitions_only(self):
        supervisor, _, nodes, zones = make_world()
        zones.create_vzone(supervisor, "zone-a")
        assert zones.get_vzone("zone-a").uid == 1
        zones.create_vzone(nodes[0], "zone-a")   # unauthorized
        zones.create_vzone(supervisor, "zone-a")  # already owned
        assert zones.get_vzone("zone-a").uid == 1


class TestRevoke:
    def test_master_revokes_own_zone(self):
        _, master, _, zones = make_world()
        zones.create_vzone(master, "zone-a")
        assert zones.revoke_vzone(master, "zone-a") is True
        assert zones.get_vzone("zone-a").master.is_zero
        record = zones.get_vnode(master)
        assert record.node_type == NODE_TYPE_NONE
        assert record.vzone_id == ""

    def test_other_master_cannot_revoke(self):
        supervisor, master, nodes, zones = make_world()
        other = nodes[0]
        zones.set_master_allowlist(supervisor, other, True)
        zones.create_vzone(master, "zone-a")
        assert zones.revoke_vzone(other, "zone-a") is False
        assert zones.get_vzone("zone-a").master == master

    def test_supervisor_revokes_any_zone(self):
        supervisor, master, _, zones = make_world()
        zones.create_vzone(master, "zone-a")
        assert zones.revoke_vzone(supervisor, "zone-a") is True

    def test_unowned_zone_revoke_fails(self):
        supervisor, _, _, zones = make_world()
        assert zones.revoke_vzone(supervisor, "never-created") is False

    def test_uid_increments_on_revoke(self):
        _, master, _, zones = make_world()
        zones.create_vzone(master, "zone-a")
        zones.revoke_vzone(master, "zone-a")
        assert zones.get_vzone("zone-a").uid == 2
        zones.create_vzone(master, "zone-a")
        assert zones.get_vzone("zone-a").uid == 3


class TestJoinLeave:
    def test_master_adds_fresh_node(self):
        _, master, nodes, zones = make_world()
        zones.create_vzone(master, "zone-a")
        assert zones.join_vzone(master, "zone-a", nodes[0]) is True
        record = zones.get_vnode(nodes[0])
        assert record.node_type == NODE_TYPE_FOLLOWER
        assert record.vzone_id == "zone-a"

    def test_node_already_in_any_zone_rejected(self):
        supervisor, master, nodes, zones = make_world()
        zones.create_vzone(master, "zone-a")
        zones.create_vzone(supervisor, "zone-b")
        zones.join_vzone(supervisor, "zone-b", nodes[0])
        assert zones.join_vzone(master, "zone-a", nodes[0]) is False

    def test_follower_cannot_add_nodes(self):
        _, master, nodes, zones = make_world()
        zones.create_vzone(master, "zone-a")
        zones.join_vzone(master, "zone-a", nodes[0])
        assert zones.join_vzone(nodes[0], "zone-a", nodes[1]) is False

    def test_master_removes_follower(self):
        _, master, nodes, zones = make_world()
        zones.create_vzone(master, "zone-a")
        zones.join_vzone(master, "zone-a", nodes[0])
        assert zones.leave_vzone(master, "zone-a", nodes[0]) is True
        record = zones.get_vnode(nodes[0])
        assert (record.vzone_id, record.node_type) == ("", NODE_TYPE_NONE)

    def test_removing_unjoined_node_fails(self):
        _, master, nodes, zones = make_world()
        zones.create_vzone(master, "zone-a")
        assert zones.leave_vzone(master, "zone-a", nodes[0]) is False

    def test_join_leave_join_cycle(self):
        _, master, nodes, zones = make_world()
        zones.create_vzone(master, "zone-a")
        assert zones.join_vzone(master, "zone-a", nodes[0]) is True
        assert zones.leave_vzone(master, "zone-a", nodes[0]) is True
        assert zones.join_vzone(master, "zone-a", nodes[0]) is True


class TestAllowlist:
    def test_supervisor_allowlists_master(self):
        supervisor, _, nodes, zones = make_world()
        assert zones.set_master_allowlist(supervisor, nodes[0], True) is True
        assert zones.create_vzone(nodes[0], "zone-x") is True

    def test_master_cannot_allowlist_itself(self):
        _, _, nodes, zones = make_world()
        assert zones.set_master_allowlist(nodes[0], nodes[0], True) is False

    def test_deallowlisted_master_cannot_create_again(self):
        supervisor, _, nodes, zones = make_world()
        zones.set_master_allowlist(supervisor, nodes[0], True)
        assert zones.create_vzone(nodes[0], "zone-x") is True
        zones.set_master_allowlist(supervisor, nodes[0], False)
        assert zones.create_vzone(nodes[0], "zone-y") is False


class TestViewsAndDump:
    def test_unknown_address_default_record(self):
        _, _, nodes, zones = make_world()
        record = zones.get_vnode(nodes[2])
        assert (record.vzone_id, record.node_type) == ("", NODE_TYPE_NONE)

    def test_unknown_zone_default(self):
        _, _, _, zones = make_world()
        zone = zones.get_vzone("nowhere")
        assert zone.master == ZERO_ADDRESS
        assert zone.uid == 0

    def test_records_through_join_leave_revoke_and_recreate(self):
        supervisor, master, nodes, zones = make_world()
        node = nodes[0]

        def views():
            return zones.get_vzone("zone-a"), zones.get_vnode(master), zones.get_vnode(node)

        assert zones.create_vzone(master, "zone-a")
        assert zones.join_vzone(master, "zone-a", node)
        assert views() == (VirtualZone("zone-a", master, 1),
                           VNodeRecord(master, "zone-a", NODE_TYPE_MASTER),
                           VNodeRecord(node, "zone-a", NODE_TYPE_FOLLOWER))
        assert zones.leave_vzone(master, "zone-a", node)
        assert views()[2] == VNodeRecord(node, "", NODE_TYPE_NONE)
        assert zones.revoke_vzone(master, "zone-a")
        assert views() == (VirtualZone("zone-a", ZERO_ADDRESS, 2),
                           VNodeRecord(master, "", NODE_TYPE_NONE),
                           VNodeRecord(node, "", NODE_TYPE_NONE))
        assert zones.create_vzone(supervisor, "zone-a")
        assert zones.join_vzone(supervisor, "zone-a", node)
        assert views() == (VirtualZone("zone-a", supervisor, 3),
                           VNodeRecord(master, "", NODE_TYPE_NONE),
                           VNodeRecord(node, "zone-a", NODE_TYPE_FOLLOWER))
        assert zones.get_vnode(supervisor) == VNodeRecord(supervisor, "zone-a",
                                                          NODE_TYPE_MASTER)

    def test_certificate_field_names(self):
        _, master, nodes, zones = make_world()
        zones.create_vzone(master, "zone-a")
        zones.join_vzone(master, "zone-a", nodes[0])
        cert = zones.get_certificate(nodes[0])
        assert set(cert) == {"vid", "VZone", "Vnode"}
        assert set(cert["VZone"]) == {"VZoneID", "master"}
        assert set(cert["Vnode"]) == {"VZoneID", "node_type"}
        assert cert["VZone"]["master"] == master.hex
        assert cert["Vnode"]["node_type"] == NODE_TYPE_FOLLOWER

    def test_dump_uses_wire_field_names(self):
        _, master, nodes, zones = make_world()
        zones.create_vzone(master, "zone-a")
        zones.join_vzone(master, "zone-a", nodes[0])
        dump = zones.dump_state()
        zone_entry = dump["zones"]["zone-a"]
        assert set(zone_entry) == {"VZoneID", "master", "uid"}
        node_entry = dump["nodes"][nodes[0].hex]
        assert set(node_entry) == {"vid", "VZoneID", "node_type"}

    def test_dangling_followers_after_revocation(self):
        _, master, nodes, zones = make_world()
        zones.create_vzone(master, "zone-a")
        zones.join_vzone(master, "zone-a", nodes[0])
        zones.revoke_vzone(master, "zone-a")
        # the follower keeps its record, and its zone has no master
        assert zones.get_vnode(nodes[0]) == VNodeRecord(nodes[0], "zone-a", NODE_TYPE_FOLLOWER)
        assert zones.get_vzone("zone-a").master.is_zero


# --- model equivalence -------------------------------------------------------

ADDR_COUNT = 6
ZONE_IDS = ("z1", "z2", "z3")


def build_pair():
    factory = AddressFactory(FACTORY_SEED)
    addresses = factory.new_addresses(ADDR_COUNT)
    supervisor = addresses[0]
    return addresses, ZoneContract(supervisor), new_zone_model(supervisor.hex)


def apply_both(contract, model, addresses, op, actors):
    sender = addresses[actors[0]]
    zone = ZONE_IDS[actors[1]]
    if op in ("join_vzone", "leave_vzone"):
        node = addresses[actors[2]]
        got = contract.execute(sender, op, (zone, node.hex))
        want = MODEL_OPS[op](model, sender.hex, zone, node.hex)
    elif op == "set_master_allowlist":
        target = addresses[actors[2]]
        allowed = actors[1] % 2 == 0
        got = contract.execute(sender, op, (target.hex, allowed))
        want = MODEL_OPS[op](model, sender.hex, target.hex, allowed)
    else:
        got = contract.execute(sender, op, (zone,))
        want = MODEL_OPS[op](model, sender.hex, zone)
    return got, want


op_strategy = st.tuples(
    st.sampled_from(sorted(MODEL_OPS)),
    st.tuples(st.integers(0, ADDR_COUNT - 1),
              st.integers(0, len(ZONE_IDS) - 1),
              st.integers(0, ADDR_COUNT - 1)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(op_strategy, max_size=40))
def test_contract_agrees_with_literal_model(ops):
    addresses, contract, model = build_pair()
    for op, actors in ops:
        got, want = apply_both(contract, model, addresses, op, actors)
        assert got == want
    assert contract_state_view(contract.dump_state()) == model_state_view(model)


@settings(max_examples=200, deadline=None)
@given(st.lists(op_strategy, max_size=40))
def test_records_never_incoherent(ops):
    # node_type in {1,2} always carries a zone id; node_type 0 never does
    addresses, contract, model = build_pair()
    for op, actors in ops:
        apply_both(contract, model, addresses, op, actors)
        for addr in addresses:
            record = contract.get_vnode(addr)
            if record.node_type == NODE_TYPE_NONE:
                assert record.vzone_id == ""
            else:
                assert record.vzone_id != ""


def test_seeded_random_sequences_short():
    # compact version of the acceptance sweep: 500 sequences here
    rng = random.Random(2024)
    op_names = sorted(MODEL_OPS)
    for _ in range(500):
        addresses, contract, model = build_pair()
        for _ in range(rng.randrange(41)):
            op = op_names[rng.randrange(len(op_names))]
            actors = (rng.randrange(ADDR_COUNT), rng.randrange(len(ZONE_IDS)),
                      rng.randrange(ADDR_COUNT))
            got, want = apply_both(contract, model, addresses, op, actors)
            assert got == want
        assert contract_state_view(contract.dump_state()) == model_state_view(model)
