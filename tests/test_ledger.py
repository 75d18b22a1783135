import csv
import dataclasses
import gc
import io
import itertools
import json
import random
from decimal import Decimal
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capchain import ledger
from capchain.address import Address, AddressFactory
from capchain.encoding import ZERO_DIGEST, canonical_json, digest_of, sha256_hex
from capchain.ledger import (DEFAULT_ETH_PRICE_USD, DEFAULT_GAS_PRICE_ETC, DEFAULT_OP_GAS,
                             GENESIS, Block, Chain, ChainConfig, Contract,
                             ChainFileError, ContractNotFoundError, CorruptChainError,
                             IntervalNotElapsedError,
                             NonceMismatchError, Receipt, Transaction, read_chain,
                             replay_chain)
from capchain.netsim import run_scenario
from capchain.tokens import TokenContract
from capchain.zones import NODE_TYPE_NONE, ZoneContract

from chainbench import Bench, change_first_tx, digests_and_links_hold, reseal, submit
from reference_models import (REFERENCE_GAS_TABLE, ReferenceChain, ReferenceTransaction,
                              reference_block_body,
                              reference_block_wire, reference_call_wire, reference_jsonify,
                              reference_read_chain, reference_replay_chain,
                              reference_tx_wire, reference_fees, reference_write_gas_report)
from workloads import WORKLOADS


def fresh_chain(seed=42, block_interval_ms=15000):
    factory = AddressFactory(seed)
    supervisor = factory.new_address()
    zones = ZoneContract(supervisor)
    tokens = TokenContract(supervisor, zones)
    config = ChainConfig(supervisor=supervisor, block_interval_ms=block_interval_ms)
    return Chain(config, [zones, tokens]), supervisor, factory


def replays(chain):
    """Whether ``chain``'s export reads back and replays to its own export and state."""
    replayed = replay_chain(chain.config, read_chain(io.StringIO(chain.export_chain_text())),
                            zone_contracts_factory(chain.config.supervisor))
    return (replayed.export_chain_text() == chain.export_chain_text()
            and replayed.state_digest() == chain.state_digest())


def zone_contracts_factory(supervisor):
    def build():
        zones = ZoneContract(supervisor)
        return [zones, TokenContract(supervisor, zones)]
    return build


class TestSubmit:
    def test_first_transaction_enters_pool(self):
        chain, supervisor, _ = fresh_chain()
        digest = submit(chain, supervisor, "vzone", "create_vzone", ("zone-a",))
        assert len(digest) == 64
        assert chain.get_receipt(digest) is None
        chain.produce_next_block()
        assert chain.get_receipt(digest).ok

    def test_pending_receipt_status(self):
        chain, supervisor, _ = fresh_chain()
        tx = Transaction(supervisor, "vzone", "create_vzone", ("zone-a",), 0)
        digest = chain.submit_transaction(tx)
        assert digest == tx.digest
        assert chain.get_receipt(digest) is None

    def test_each_transaction_is_hashed_once_from_submit_to_seal(self, monkeypatch):
        chain, supervisor, _ = fresh_chain()
        hashed = []
        digest = Transaction.digest.fget

        def counting(tx):
            hashed.append(tx.nonce)
            return digest(tx)

        monkeypatch.setattr(Transaction, "digest", property(counting))
        digests = [submit(chain, supervisor, "vzone", "create_vzone", (f"zone-{i}",))
                   for i in range(3)]
        chain.produce_next_block()
        assert hashed == [0, 1, 2]
        assert all(chain.get_receipt(d).ok for d in digests)

    def test_unencodable_args_leave_the_nonce_untaken(self):
        # the args are encoded before the nonce is taken, so the export has no gap
        chain, supervisor, _ = fresh_chain()
        with pytest.raises(TypeError):
            submit(chain, supervisor, "vzone", "create_vzone", ({1, 2},))
        assert chain.next_nonce(supervisor) == 0
        submit(chain, supervisor, "vzone", "create_vzone", ("zone-a",))
        chain.produce_next_block()
        replayed = replay_chain(chain.config, read_chain(io.StringIO(chain.export_chain_text())),
                                zone_contracts_factory(supervisor))
        assert replayed.state_digest() == chain.state_digest()

    def test_an_unencodable_op_leaves_the_nonce_untaken(self):
        chain, supervisor, _ = fresh_chain()
        with pytest.raises(TypeError):
            submit(chain, supervisor, "vzone", 5, ())
        assert chain.next_nonce(supervisor) == 0
        submit(chain, supervisor, "vzone", "create_vzone", ("zone-a",))
        chain.produce_next_block()
        assert replays(chain)

    def test_duplicate_submission_rejected(self):
        chain, supervisor, _ = fresh_chain()
        tx = Transaction(supervisor, "vzone", "create_vzone", ("zone-a",), 0)
        chain.submit_transaction(tx)
        with pytest.raises(NonceMismatchError):
            chain.submit_transaction(
                Transaction(supervisor, "vzone", "create_vzone", ("zone-a",), 0))

    def test_stale_nonce_rejected(self):
        chain, supervisor, _ = fresh_chain()
        with pytest.raises(NonceMismatchError):
            chain.submit_transaction(
                Transaction(supervisor, "vzone", "create_vzone", ("zone-a",), 3))

    def test_unknown_contract_rejected(self):
        chain, supervisor, _ = fresh_chain()
        with pytest.raises(ContractNotFoundError):
            chain.submit_transaction(
                Transaction(supervisor, "nope", "create_vzone", ("zone-a",), 0))

    def test_pool_order_preserved_per_sender(self):
        # 10 transactions from 3 senders; expected pool enumeration computed
        # by an independent walk of the submission schedule
        chain, supervisor, factory = fresh_chain()
        senders = [supervisor, factory.new_address(), factory.new_address()]
        for sender in senders[1:]:
            submit(chain, supervisor, "vzone", "set_master_allowlist",
                   (sender.hex, True))
        chain.produce_next_block()
        schedule = [0, 1, 2, 0, 1, 2, 0, 1, 0, 2]
        expected_nonces = []
        counters = {i: chain.next_nonce(senders[i]) for i in range(3)}
        for i in schedule:
            expected_nonces.append((senders[i].hex, counters[i]))
            counters[i] += 1
        for k, i in enumerate(schedule):
            submit(chain, senders[i], "vzone", "create_vzone", (f"z{k}",))
        chain.produce_next_block()
        pool = chain.latest_block.transactions
        assert len(pool) == 10
        assert [(tx.sender.hex, tx.nonce) for tx in pool] == expected_nonces


class TestProduceBlock:
    def test_empty_pool_produces_empty_block(self):
        chain, _, _ = fresh_chain()
        state_before = chain.state_digest()
        block = chain.produce_next_block()
        assert block.height == 1
        assert block.transactions == ()
        assert chain.state_digest() == state_before

    def test_effects_invisible_until_production(self):
        chain, supervisor, _ = fresh_chain()
        submit(chain, supervisor, "vzone", "create_vzone", ("zone-a",))
        assert chain.query_state("vzone", "get_vzone", ("zone-a",)).master.is_zero
        block = chain.produce_next_block()
        assert len(block.transactions) == 1
        assert chain.query_state("vzone", "get_vzone", ("zone-a",)).master == supervisor

    def test_early_production_requires_force(self):
        chain, _, _ = fresh_chain(block_interval_ms=15000)
        with pytest.raises(IntervalNotElapsedError):
            chain.produce_block(10)
        block = chain.produce_block(10, force=True)
        assert block.height == 1

    def test_forced_production_refuses_timestamp_before_parent(self):
        chain, _, _ = fresh_chain(block_interval_ms=15000)
        chain.produce_block(15000)
        with pytest.raises(IntervalNotElapsedError):
            chain.produce_block(14999, force=True)
        assert chain.height == 1
        assert chain.produce_block(15000, force=True).height == 2

    def test_interval_gate_spans_from_last_block(self):
        chain, _, _ = fresh_chain(block_interval_ms=15000)
        chain.produce_block(15000)
        with pytest.raises(IntervalNotElapsedError):
            chain.produce_block(29999)
        chain.produce_block(30000)
        assert chain.height == 2

    def test_hundred_token_assignments_gas_and_fee(self):
        bench = Bench()
        subjects = bench.factory.new_addresses(100)
        for subject in subjects:
            submit(bench.chain, bench.master, "vzone", "join_vzone",
                   (bench.zone_id, subject.hex))
        bench.chain.produce_next_block()
        for subject in subjects:
            submit(bench.chain, bench.master, "captoken", "issue_token",
                   (subject.hex, [{"action": "GET", "resource": "/api/data",
                                   "conditions": []}], 0, 10**9))
        block = bench.chain.produce_next_block()
        issue_txs = [tx for tx in block.transactions if tx.op == "issue_token"]
        assert len(issue_txs) == 100
        assert sum(tx.gas_used for tx in issue_txs) == 100 * 159544
        for tx in issue_txs:
            assert bench.chain.get_receipt(tx.digest).fee_usd == Decimal("0.22")


class TestHeight:
    """``Chain.height`` is a plain attribute; it must name the last row however
    that row was added, and stay put when a block is refused."""

    @staticmethod
    def current(chain):
        return chain.height == chain._blocks[-1][0] == chain.latest_block.height

    def test_height_follows_each_row_the_chain_appends(self):
        chain, supervisor, _ = fresh_chain()
        assert chain.height == 0 and self.current(chain)
        submit(chain, supervisor, "vzone", "create_vzone", ("zone-a",))
        chain.produce_next_block()
        assert chain.height == 1 and self.current(chain)
        chain.produce_block(chain.latest_block.timestamp + 1, force=True)
        assert chain.height == 2 and self.current(chain)
        with pytest.raises(IntervalNotElapsedError):
            chain.produce_block(chain.latest_block.timestamp + 1)
        assert chain.height == 2 and self.current(chain)
        blocks = read_chain(io.StringIO(chain.export_chain_text()))
        replayed = replay_chain(chain.config, blocks, zone_contracts_factory(supervisor))
        assert replayed.height == 2 and self.current(replayed)

    def test_a_refused_reseal_leaves_the_height(self):
        chain, supervisor, _ = fresh_chain()
        submit(chain, supervisor, "vzone", "create_vzone", ("zone-a",))
        chain.produce_next_block()
        chain.produce_next_block()
        blocks = read_chain(io.StringIO(chain.export_chain_text()))
        resealed = Chain(chain.config, zone_contracts_factory(supervisor)())
        assert resealed._reseal(blocks[1]) and resealed.height == 1
        assert not resealed._reseal(dataclasses.replace(blocks[2], digest=ZERO_DIGEST))
        assert resealed.height == 1 and self.current(resealed)
        with pytest.raises(IntervalNotElapsedError):   # a block before its parent
            resealed._reseal(dataclasses.replace(blocks[2], timestamp=0))
        assert resealed.height == 1 and self.current(resealed)


class TestResealHeaderFirst:
    """``_reseal`` checks a block's timestamp, height and parent before it takes a
    nonce, and every gas and the digest before it applies a transaction, so a
    block refused for any reason leaves nothing."""

    @staticmethod
    def chain_with_blocks():
        chain, supervisor, factory = fresh_chain()
        master = factory.new_address()
        submit(chain, supervisor, "vzone", "set_master_allowlist", (master.hex, True))
        chain.produce_next_block()
        submit(chain, master, "vzone", "create_vzone", ("zone-a",))
        submit(chain, supervisor, "vzone", "create_vzone", ("zone-b",))
        submit(chain, master, "vzone", "join_vzone", ("zone-a", factory.new_address().hex))
        chain.produce_next_block()
        blocks = read_chain(io.StringIO(chain.export_chain_text()))
        resealed = Chain(chain.config, zone_contracts_factory(supervisor)())
        assert resealed._reseal(blocks[1])
        return resealed, blocks, (supervisor, master)

    @staticmethod
    def state(chain, senders):
        return (chain.state_digest(), [chain.next_nonce(sender) for sender in senders],
                chain.gas_entries(), chain.export_chain_text(), chain.changes_since("vzone", 0))

    @pytest.mark.parametrize("header", [{"height": 3}, {"height": 1},
                                        {"parent_digest": "ff" * 32},
                                        {"parent_digest": GENESIS.digest}])
    def test_a_block_refused_on_height_or_parent_leaves_no_state(self, header):
        resealed, blocks, senders = self.chain_with_blocks()
        before = self.state(resealed, senders)
        assert not resealed._reseal(dataclasses.replace(blocks[2], **header))
        assert self.state(resealed, senders) == before
        assert resealed._reseal(blocks[2])   # the true block still applies

    def test_a_header_fault_wins_over_a_nonce_fault(self):
        resealed, blocks, senders = self.chain_with_blocks()
        before = self.state(resealed, senders)
        replayed = [dataclasses.replace(tx, nonce=tx.nonce + 1) for tx in blocks[2].transactions]
        assert not resealed._reseal(dataclasses.replace(blocks[2], height=7,
                                                        transactions=tuple(replayed)))
        assert self.state(resealed, senders) == before
        with pytest.raises(NonceMismatchError):
            resealed._reseal(dataclasses.replace(blocks[2], transactions=tuple(replayed)))

    @pytest.mark.parametrize("forge", ["gas", "digest"])
    def test_a_block_refused_on_gas_or_digest_leaves_no_state(self, forge):
        resealed, blocks, senders = self.chain_with_blocks()
        before = self.state(resealed, senders)
        if forge == "gas":   # the digest is the forged body's own: only the gas is false
            forged = reseal(list(blocks), 2, change_first_tx(gas_used=1))[2]
        else:
            forged = dataclasses.replace(blocks[2], digest=ZERO_DIGEST)
        assert not resealed._reseal(forged)
        assert self.state(resealed, senders) == before
        assert resealed._reseal(blocks[2])   # the true block still applies

    def test_a_nonce_fault_in_the_last_transaction_leaves_no_state(self):
        resealed, blocks, senders = self.chain_with_blocks()
        before = self.state(resealed, senders)
        *head, last = blocks[2].transactions
        forged = dataclasses.replace(blocks[2], transactions=(
            *head, dataclasses.replace(last, nonce=last.nonce + 1)))
        with pytest.raises(NonceMismatchError):
            resealed._reseal(forged)
        assert self.state(resealed, senders) == before
        assert resealed._reseal(blocks[2])   # the true block still applies


class TestQueryState:
    def test_default_vnode_record(self):
        chain, _, factory = fresh_chain()
        record = chain.query_state("vzone", "get_vnode", (factory.new_address(),))
        assert record.node_type == NODE_TYPE_NONE
        assert record.vzone_id == ""

    def test_token_absent_before_block(self, bench):
        bench.submit(bench.master, "captoken", "issue_token",
                     (bench.client.hex, [], 0, 10**9))
        assert bench.chain.query_state("captoken", "get_token",
                                       (bench.client,)) is None
        bench.chain.produce_next_block()
        assert bench.chain.query_state("captoken", "get_token",
                                       (bench.client,)) is not None

    @pytest.mark.parametrize("contract,op", [
        ("vzone", "get_vnode"), ("vzone", "get_certificate"), ("captoken", "get_token")])
    def test_views_reject_hex_addresses(self, bench, contract, op):
        # a hex string would miss the Address-keyed state and read as absent
        with pytest.raises(TypeError, match="takes an Address"):
            bench.chain.query_state(contract, op, (bench.client.hex,))

    def test_unknown_contract_not_found(self):
        chain, _, _ = fresh_chain()
        with pytest.raises(ContractNotFoundError):
            chain.query_state("nope", "get_vnode", ("0x" + "00" * 20,))

    def test_confirmed_zone_master_is_creator(self, bench):
        zone = bench.chain.query_state("vzone", "get_vzone", (bench.zone_id,))
        assert zone.master == bench.master


def _tamper_first_payload(blocks):
    """Swap block 1's first call for another; the stored digest stays."""
    victim = blocks[1]
    first = victim.transactions[0]
    forged = Transaction(first.sender, "vzone", "create_vzone", ("evil",),
                         first.nonce, first.gas_used)
    blocks[1] = Block(victim.height, victim.timestamp, victim.parent_digest,
                      (forged,) + victim.transactions[1:], victim.digest)
    return blocks


def _relink_last_block(blocks):
    """Point the last block at a foreign parent and reseal its own digest."""
    last = blocks[-1]
    parent = "ff" * 32
    blocks[-1] = Block(last.height, last.timestamp, parent, last.transactions,
                       Block.compute_digest(last.height, last.timestamp, parent,
                                            last.transactions))
    return blocks


RESEALED_CORRUPTIONS = {
    "forged-gas": change_first_tx(gas_used=1),
    "nonce-gap": change_first_tx(nonce=99),
    "unknown-contract": change_first_tx(contract="nope"),
    "duplicated-tx": lambda block: dataclasses.replace(
        block, transactions=block.transactions + block.transactions[:1]),
    "backwards-timestamp": lambda block: dataclasses.replace(block, timestamp=0),
}


def _in_block_2(change):
    """A corruption that makes ``change`` to block 2; the block keeps its digest,
    which then no longer hashes its body."""
    def corrupt(blocks):
        blocks[2] = change(blocks[2])
        return blocks
    return corrupt


CORRUPTIONS = {
    "tampered-payload": _tamper_first_payload,
    "height-gap": lambda blocks: blocks[:1] + blocks[2:],
    "broken-parent-link": _relink_last_block,
    # a replay that reseals each block and compares only the digests accepts these
    "stale-digest-gas": _in_block_2(change_first_tx(gas_used=1)),
    "stale-digest-height": _in_block_2(lambda block: dataclasses.replace(block, height=7)),
    "stale-digest-parent": _in_block_2(
        lambda block: dataclasses.replace(block, parent_digest="ff" * 32)),
}


class TestReplay:
    def test_replay_empty_chain_yields_genesis_state(self):
        chain, supervisor, _ = fresh_chain()
        replayed = replay_chain(chain.config, list(chain.blocks),
                                zone_contracts_factory(supervisor))
        assert replayed.state_digest() == chain.state_digest()

    def test_replay_random_scenario_matches_live_state(self):
        chain, supervisor, factory = fresh_chain(seed=7)
        rng = random.Random(7)
        actors = [supervisor] + factory.new_addresses(3)
        for actor in actors[1:]:
            submit(chain, supervisor, "vzone", "set_master_allowlist",
                   (actor.hex, True))
        zone_ids = ["z1", "z2", "z3"]
        for _ in range(50):
            sender = rng.choice(actors)
            op = rng.choice(["create_vzone", "revoke_vzone", "join_vzone",
                             "leave_vzone"])
            zone = rng.choice(zone_ids)
            if op in ("join_vzone", "leave_vzone"):
                args = (zone, rng.choice(actors).hex)
            else:
                args = (zone,)
            submit(chain, sender, "vzone", op, args)
            if rng.random() < 0.2:
                chain.produce_next_block()
        chain.produce_next_block()
        replayed = replay_chain(chain.config, list(chain.blocks),
                                zone_contracts_factory(supervisor))
        assert replayed.state_digest() == chain.state_digest()

    def test_tampered_tx_payload_detected(self, bench):
        blocks = list(bench.chain.blocks)
        victim = blocks[1]
        tampered_tx = Transaction(victim.transactions[0].sender, "vzone",
                                  "create_vzone", ("evil",),
                                  victim.transactions[0].nonce,
                                  victim.transactions[0].gas_used)
        tampered = Block(victim.height, victim.timestamp, victim.parent_digest,
                         (tampered_tx,) + victim.transactions[1:], victim.digest)
        blocks[1] = tampered
        with pytest.raises(CorruptChainError):
            replay_chain(bench.chain.config, blocks,
                         zone_contracts_factory(bench.supervisor))

    def test_height_gap_detected(self, bench):
        bench.issue_client_token()
        blocks = list(bench.chain.blocks)
        del blocks[1]
        with pytest.raises(CorruptChainError):
            replay_chain(bench.chain.config, blocks,
                         zone_contracts_factory(bench.supervisor))

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_corruption_fails_replay_and_stored_digest_check(self, bench, corruption):
        bench.issue_client_token()
        blocks = CORRUPTIONS[corruption](list(bench.chain.blocks))
        assert not digests_and_links_hold(blocks)
        exported = "".join(block.wire_text() + "\n" for block in blocks)
        with pytest.raises(CorruptChainError):
            replay_chain(bench.chain.config, read_chain(io.StringIO(exported)),
                         zone_contracts_factory(bench.supervisor))

    @pytest.mark.parametrize("corruption", sorted(RESEALED_CORRUPTIONS))
    def test_resealed_corruption_fails_replay(self, bench, corruption):
        bench.issue_client_token()
        blocks = reseal(list(bench.chain.blocks), 2, RESEALED_CORRUPTIONS[corruption])
        assert digests_and_links_hold(blocks)
        with pytest.raises(CorruptChainError, match="at height 2"):
            replay_chain(bench.chain.config, blocks,
                         zone_contracts_factory(bench.supervisor))

    def test_malformed_call_rejects_and_replays(self, bench):
        receipt = bench.apply(bench.master, "vzone", "join_vzone", (bench.zone_id, 6))
        assert receipt.error == "invalid-args"
        blocks = read_chain(io.StringIO(bench.chain.export_chain_text()))
        replayed = replay_chain(bench.chain.config, blocks,
                                zone_contracts_factory(bench.supervisor))
        assert replayed.state_digest() == bench.chain.state_digest()
        assert replayed.export_chain_text() == bench.chain.export_chain_text()

    def test_export_import_round_trip(self, bench):
        text = bench.chain.export_chain_text()
        blocks = read_chain(io.StringIO(text))
        assert blocks == list(bench.chain.blocks)
        first = text.splitlines()[0]
        for key in ("height", "timestamp", "parent", "txs", "digest"):
            assert f'"{key}"' in first


class TestGasAccounting:
    def test_token_assignment_fee_at_defaults(self, bench):
        entry = bench.issue_client_token()
        assert entry.gas == 159544
        assert entry.fee_etc == Decimal("0.0010211")
        assert entry.fee_usd == Decimal("0.22")

    def test_each_op_is_priced_at_the_constants(self, bench):
        # the published 0.0010853 ETC figure corresponds to the reported
        # *average* gas of ~169576 units at the same 6.4e-9 price
        assert reference_fees(169576, DEFAULT_GAS_PRICE_ETC, DEFAULT_ETH_PRICE_USD)[0] == \
            Decimal("0.0010853")
        # a call pays its op's gas whether it succeeds or not; "mint" is in no table
        for op in sorted(REFERENCE_GAS_TABLE) + ["mint"]:
            receipt = bench.apply(bench.master, "vzone", op, ())
            gas = REFERENCE_GAS_TABLE.get(op, DEFAULT_OP_GAS)
            fees = reference_fees(gas, DEFAULT_GAS_PRICE_ETC, DEFAULT_ETH_PRICE_USD)
            assert (receipt.op, receipt.gas, str(receipt.fee_etc), str(receipt.fee_usd)) == \
                (op, gas, *map(str, fees))
        assert bench.chain.get_receipt(receipt.tx_digest) in bench.chain.gas_entries()

    def test_contract_op_tables_list_the_reference_gas_and_share_no_op(self):
        listed = {**ZoneContract.OPS, **TokenContract.OPS}
        assert len(listed) == len(ZoneContract.OPS) + len(TokenContract.OPS)
        assert {op: gas for op, (gas, _) in listed.items()} == REFERENCE_GAS_TABLE
        chain, supervisor, _ = fresh_chain()

        class Minter(Contract):
            name = "minter"
            OPS = {"mint": (1, None), "revoke_token": (2, None)}

        with pytest.raises(ValueError, match="'revoke_token' already priced"):
            chain.deploy(Minter())
        with pytest.raises(ContractNotFoundError):
            chain.contract("minter")
        # the refused contract priced nothing: neither its shared op nor its own
        for op in ("revoke_token", "mint"):
            chain.submit(supervisor, "vzone", op, ())
        chain.produce_next_block()
        assert [receipt.gas for receipt in chain.gas_entries()] == \
            [REFERENCE_GAS_TABLE["revoke_token"], DEFAULT_OP_GAS]
        # a receipt's fees are read from its op's price, so once a receipt is
        # stored no contract may price an op afresh, not even an unpriced one
        Minter.OPS = {"mint": (1, None)}
        with pytest.raises(ValueError, match="before the first transaction"):
            chain.deploy(Minter())
        assert chain.gas_entries()[1].gas == DEFAULT_OP_GAS

    def test_a_rejected_revoke_has_one_receipt_priced_when_applied(self, bench):
        bench.issue_client_token()
        other = bench.factory.new_address()
        bench.apply(bench.supervisor, "vzone", "set_master_allowlist", (other.hex, True))
        bench.apply(other, "vzone", "create_vzone", ("zone-b",))
        receipt = bench.apply(other, "captoken", "revoke_token", (bench.client.hex,))
        assert receipt == Receipt(receipt.tx_digest, "revoke_token", "rejected", None,
                                  "unauthorized", 31877, Decimal("0.0002040"),
                                  Decimal("0.04"))
        assert [r for r in bench.chain.gas_entries() if r.tx_digest == receipt.tx_digest] \
            == [receipt]
        assert bench.chain.get_receipt(receipt.tx_digest) == receipt
        pending = bench.submit(other, "captoken", "revoke_token", (bench.client.hex,))
        assert bench.chain.get_receipt(pending) is None

    def test_stored_receipts_are_untracked_by_the_collector(self):
        # a run's receipts (int and bool results), a rejection (None), and the replay's
        simulation, _ = run_scenario(WORKLOADS["churn"](7, scale=0.05))
        chain = simulation.chain
        outsider = AddressFactory(99).new_address()
        chain.submit(outsider, TokenContract.name, "revoke_token", ())   # invalid-args
        chain.produce_next_block()
        replayed = replay_chain(chain.config,
                                read_chain(io.StringIO(chain.export_chain_text())),
                                zone_contracts_factory(chain.config.supervisor))
        gc.collect()
        for each in (chain, replayed):
            rows = list(each._receipts.values())
            # the outcome only: the gas and fees are the op's, added on read
            assert {type(row) for row in rows} == {tuple} and {len(row) for row in rows} == {5}
            assert [row + each._op_fees[row[1]] for row in rows] == list(each.gas_entries())
            assert {row[2] for row in rows} == {"ok", "rejected"}
            assert not any(map(gc.is_tracked, rows))

    def test_unapplied_tx_has_no_gas(self, bench):
        digest = bench.submit(bench.master, "captoken", "issue_token",
                              (bench.client.hex, [], 0, 10**9))
        assert bench.chain.get_receipt(digest) is None
        bench.chain.produce_next_block()
        assert bench.chain.get_receipt(digest).gas == 159544

    def test_report_total_matches_independent_summation(self, bench):
        rng = random.Random(3)
        ops = [("create_vzone", ("zx",)), ("join_vzone", ("zx", bench.outsider.hex)),
               ("revoke_token", (bench.client.hex,))]
        for i in range(100):
            op, args = ops[rng.randrange(len(ops))]
            bench.submit(bench.master, "vzone" if "vzone" in op else "captoken",
                         op, args)
            if i % 9 == 0:
                bench.chain.produce_next_block()
        bench.chain.produce_next_block()
        report = bench.chain.gas_report_text()
        rows = list(csv.DictReader(io.StringIO(report)))
        summed_gas = sum(int(row["gas"]) for row in rows)
        summed_usd = sum(Decimal(row["fee_usd"]) for row in rows)
        entries = bench.chain.gas_entries()
        assert sum(entry.gas for entry in entries) == summed_gas
        assert sum(entry.fee_usd for entry in entries) == summed_usd

    @settings(max_examples=100, deadline=None)
    @given(ops=st.lists(st.tuples(st.sampled_from(["issue_token", "a,b", 'say "hi"', "",
                                                   "line\nbreak", "cr\r", "é"]),
                                  st.booleans()), max_size=12))
    def test_gas_report_matches_csv_writer_rows(self, ops):
        chain, supervisor, _ = fresh_chain()
        for op, seal in ops:
            submit(chain, supervisor, "vzone", op, ())
            if seal:
                chain.produce_next_block()
        chain.produce_next_block()
        expected = io.StringIO()
        reference_write_gas_report(chain.gas_entries(), expected)
        assert chain.gas_report_text() == expected.getvalue()


ACTORS = AddressFactory(77).new_addresses(5)   # ACTORS[0] is the supervisor
actor_hex = st.sampled_from([actor.hex for actor in ACTORS])
zone_ids = st.sampled_from(["zone-a", "zone-b"])
rule_lists = st.sampled_from([[], [{"action": "GET", "resource": "/api/data",
                                    "conditions": []}], [{"action": "FLY"}]])
chain_calls = st.one_of(
    st.tuples(st.just("vzone"), st.just("set_master_allowlist"),
              st.tuples(actor_hex, st.booleans())),
    st.tuples(st.just("vzone"), st.sampled_from(["create_vzone", "revoke_vzone"]),
              st.tuples(zone_ids)),
    st.tuples(st.just("vzone"), st.sampled_from(["join_vzone", "leave_vzone"]),
              st.tuples(zone_ids, actor_hex)),
    st.tuples(st.just("captoken"), st.just("issue_token"),
              st.tuples(actor_hex, rule_lists, st.just(0), st.sampled_from([0, -1, 10**9]))),
    st.tuples(st.just("captoken"), st.just("revoke_token"), st.tuples(actor_hex)),
    st.tuples(st.just("captoken"), st.just("set_token_validity"),
              st.tuples(actor_hex, st.booleans())),
    # ops no contract lists, then malformed args
    st.tuples(st.sampled_from(["vzone", "captoken"]), st.sampled_from(["mint", ""]),
              st.just(())),
    st.tuples(st.just("vzone"), st.just("join_vzone"), st.tuples(zone_ids, st.just(6))),
    st.tuples(st.just("captoken"), st.sampled_from(["issue_token", "revoke_token"]),
              st.sampled_from([(), ("not-hex",)])),
)


class TestReceiptMatchesTwoRecordReference:
    """One receipt per transaction against the receipt-plus-gas-entry chain."""

    @settings(max_examples=150, deadline=None)
    @given(steps=st.lists(st.tuples(st.just("tx"), st.integers(0, len(ACTORS) - 1),
                                    chain_calls)
                          | st.tuples(st.just("seal")), max_size=30))
    def test_receipts_fees_and_report_equal_the_reference(self, steps):
        chains = [build(ChainConfig(supervisor=ACTORS[0]), zone_contracts_factory(ACTORS[0])())
                  for build in (Chain, ReferenceChain)]
        chain, reference = chains
        for step in steps + [("seal",)]:
            for each in chains:
                if step[0] == "tx":
                    each.submit(ACTORS[step[1]], *step[2])
                else:
                    each.produce_next_block()
        assert chain.export_chain_text() == reference.export_chain_text()
        entries = {entry.tx_digest: entry for entry in reference.gas_entries()}
        for block in chain.blocks:
            for tx in block.transactions:
                receipt, expected = chain.get_receipt(tx.digest), reference.get_receipt(tx.digest)
                entry = entries[tx.digest]
                assert (receipt.status, receipt.error, receipt.result, receipt.ok) == \
                    (expected.status, expected.error, expected.result, expected.ok)
                assert receipt.gas == expected.gas_used == entry.gas
                assert (str(receipt.fee_etc), str(receipt.fee_usd)) == \
                    (str(entry.fee_etc), str(entry.fee_usd))

        def rows(entries):
            return [(e.tx_digest, e.op, e.gas, str(e.fee_etc), str(e.fee_usd)) for e in entries]
        assert rows(chain.gas_entries()) == rows(reference.gas_entries())
        assert chain.gas_report_text() == reference.gas_report_text()


def feed_answers(chain):
    """Each contract's change feed at every height, as ``(latest, [key])``."""
    return {name: [(latest, list(changed))
                   for latest, changed in (chain.changes_since(name, height)
                                           for height in range(chain.height + 2))]
            for name in ("vzone", "captoken")}


def held_records(chain):
    """Each contract's records by key: zones and nodes, and tokens."""
    zones, tokens = chain.contract("vzone"), chain.contract("captoken")
    return {"vzone": {**zones._zones, **zones._nodes}, "captoken": dict(tokens._tokens)}


class TestChangeFeed:
    """The per-block feed of changed keys: sound against the records it covers,
    held as atoms, and answered alike by a replay."""

    @settings(max_examples=150, deadline=None)
    @given(steps=st.lists(st.tuples(st.just("tx"), st.integers(0, len(ACTORS) - 1),
                                    chain_calls)
                          | st.tuples(st.just("seal")), max_size=30))
    def test_each_block_names_every_record_it_changed(self, steps):
        chain = Chain(ChainConfig(supervisor=ACTORS[0]), zone_contracts_factory(ACTORS[0])())
        for step in steps + [("seal",)]:
            if step[0] == "tx":
                chain.submit(ACTORS[step[1]], *step[2])
                continue
            before = held_records(chain)
            chain.produce_next_block()
            for name, records in held_records(chain).items():
                changed = {key for key in before[name].keys() | records.keys()
                           if before[name].get(key) != records.get(key)}
                latest, named = chain.changes_since(name, chain.height - 1)
                assert latest == chain.height and changed <= named.keys()
        replayed = replay_chain(chain.config,
                                read_chain(io.StringIO(chain.export_chain_text())),
                                zone_contracts_factory(ACTORS[0]))
        assert feed_answers(replayed) == feed_answers(chain)

    @pytest.mark.parametrize("name", ["hot_reads", "churn"])
    def test_a_run_and_its_replay_hold_one_feed_of_atoms(self, name):
        simulation, _ = run_scenario(WORKLOADS[name](7, scale=0.05))
        chain = simulation.chain
        replayed = replay_chain(chain.config,
                                read_chain(io.StringIO(chain.export_chain_text())),
                                zone_contracts_factory(chain.config.supervisor))
        assert feed_answers(replayed) == feed_answers(chain)
        gc.collect()
        for each in (chain, replayed):
            rows = [row for feed in each._feed.values() for row in feed]
            assert rows and not any(map(gc.is_tracked, rows))
            assert all(contract.changed == [] for contract in each._contracts.values())


class TestInvariants:
    def test_append_only_digests_verify(self, bench):
        bench.issue_client_token()
        bench.chain.produce_next_block()
        assert replays(bench.chain)
        assert bench.chain.blocks[0].parent_digest == ZERO_DIGEST

    def test_identical_histories_are_bit_identical(self):
        def run():
            bench = Bench(seed=11)
            bench.issue_client_token()
            bench.apply(bench.master, "captoken", "revoke_token",
                        (bench.client.hex,))
            return bench.chain.export_chain_text(), bench.chain.state_digest()
        first, second = run(), run()
        assert first == second

    def test_isolation_between_submit_and_produce(self, bench):
        bench.submit(bench.master, "captoken", "issue_token",
                     (bench.client.hex, [], 0, 10**9))
        for _ in range(3):
            assert bench.chain.query_state("captoken", "get_token",
                                           (bench.client,)) is None
        bench.chain.produce_next_block()
        assert bench.chain.query_state("captoken", "get_token",
                                       (bench.client,)) is not None

    def test_concurrent_submitters_serialize_through_one_queue(self):
        import threading
        chain, supervisor, factory = fresh_chain()
        senders = factory.new_addresses(4)
        for sender in senders:
            submit(chain, supervisor, "vzone", "set_master_allowlist",
                   (sender.hex, True))
        chain.produce_next_block()

        def worker(sender):
            for k in range(50):
                submit(chain, sender, "vzone", "create_vzone", (f"{sender.hex}-{k}",))

        threads = [threading.Thread(target=worker, args=(s,)) for s in senders]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        chain.produce_next_block()
        pool = chain.latest_block.transactions
        assert len(pool) == 200
        for sender in senders:
            nonces = [tx.nonce for tx in pool if tx.sender == sender]
            assert nonces == list(range(50))
        assert replays(chain)

    def test_feed_readers_racing_seals_never_miss_a_change(self):
        import sys
        import threading
        chain, supervisor, _ = fresh_chain()
        zones = [f"zone-{k}" for k in range(1, 301)]   # block k creates zone-k
        stop, misses = threading.Event(), []

        def reader(lag):
            cursor = 0
            while not stop.is_set():
                latest, changed = chain.changes_since("vzone", cursor)
                missed = [zones[k - 1] for k in range(cursor + 1, latest + 1)
                          if zones[k - 1] not in changed]
                if missed:
                    misses.append((cursor, latest, missed))
                    return
                cursor = max(0, latest - lag)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(lag,)) for lag in (0, 0, 1, 3)]
            for thread in threads:
                thread.start()
            for zone in zones:
                chain.submit(supervisor, "vzone", "create_vzone", (zone,))
                chain.produce_next_block()
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert misses == []

    def test_no_sealed_transaction_outlives_its_block(self):
        # the chain stores each block as a tuple of atoms; a sealed transaction
        # lives only as long as the Block that produce_block returned, on the
        # live chain and on its replay. Other tests' objects are told apart by
        # this bench's own addresses.
        bench = Bench(seed=2026)
        bench.issue_client_token()
        bench.apply(bench.master, "captoken", "revoke_token", (bench.client.hex,))
        assert len(bench.chain.produce_next_block().transactions) == 0
        replayed = replay_chain(bench.chain.config,
                                read_chain(io.StringIO(bench.chain.export_chain_text())),
                                zone_contracts_factory(bench.supervisor))
        ours = {bench.supervisor, bench.master}
        gc.collect()
        assert [tx for tx in gc.get_objects()
                if type(tx) is Transaction and tx.sender in ours] == []
        for chain in (bench.chain, replayed):
            assert len(chain._blocks) == 5
            assert {type(row) for row in chain._blocks} == {tuple}
            assert not any(map(gc.is_tracked, chain._blocks))

    def test_gas_conservation_report_vs_blocks(self, bench):
        bench.issue_client_token()
        bench.apply(bench.master, "captoken", "revoke_token", (bench.client.hex,))
        block_gas = sum(tx.gas_used for block in bench.chain.blocks
                        for tx in block.transactions)
        assert sum(entry.gas for entry in bench.chain.gas_entries()) == block_gas


def fields(block):
    """A block's fields, with each transaction's as it would export them."""
    return (block.height, block.timestamp, block.parent_digest, block.digest,
            [(tx.sender, tx.contract, tx.op, tx.args_text, tx.nonce, tx.gas_used)
             for tx in block.transactions])


# Bench()'s actors in the order it draws them: supervisor, master, provider,
# client, outsider
BENCH_ACTORS = AddressFactory(1234).new_addresses(5)


def wrapped(values):
    """``values``, and half as often one of them alone in a tuple or a list."""
    return st.one_of(values, values, st.tuples(values),
                     st.lists(values, min_size=1, max_size=1))


# each address as a library caller might pass it: the object, or its hex in either case
bench_addresses = wrapped(st.sampled_from(
    [form for a in BENCH_ACTORS for form in (a, a.hex, a.hex.upper())]))
flags = wrapped(st.sampled_from([True, 1, 1.0, False, 0, 0.0]))
dates = wrapped(st.sampled_from([0, 1, 1.0, True, 10**9]))
bench_zones = wrapped(st.sampled_from(["zone-a", "zone-b"]))
weekdays = st.fixed_dictionaries({"kind": st.just("weekday"),
                                  "days": st.sampled_from([[0, 1], (0, 1), (True,), [1.0]])})
library_rules = st.fixed_dictionaries({
    "action": wrapped(st.sampled_from(["GET", "PUT"])),
    "resource": wrapped(st.just("/api/data")),
    "conditions": st.lists(weekdays, max_size=1) | st.lists(weekdays, max_size=1).map(tuple)})
rule_sequences = st.lists(library_rules, max_size=2) \
    | st.lists(library_rules, max_size=2).map(tuple)
library_calls = st.one_of(
    st.tuples(st.just("vzone"), st.just("set_master_allowlist"),
              st.tuples(bench_addresses, flags)),
    st.tuples(st.just("vzone"), st.sampled_from(["create_vzone", "revoke_vzone"]),
              st.tuples(bench_zones)),
    st.tuples(st.just("vzone"), st.sampled_from(["join_vzone", "leave_vzone"]),
              st.tuples(bench_zones, bench_addresses)),
    st.tuples(st.just("captoken"), st.just("issue_token"),
              st.tuples(bench_addresses, rule_sequences, dates, dates)),
    st.tuples(st.just("captoken"), st.just("revoke_access_rights"),
              st.tuples(bench_addresses, rule_sequences)),
    st.tuples(st.just("captoken"), st.just("revoke_token"), st.tuples(bench_addresses)),
    st.tuples(st.just("captoken"), st.just("set_token_validity"),
              st.tuples(bench_addresses, flags)),
)
CLIENT_HEX = BENCH_ACTORS[3].hex
GET_DATA = {"action": "GET", "resource": "/api/data", "conditions": []}


class TestLiveRunAndReplayAgree:
    """A library call runs on replay as it ran live, or ``submit`` refuses it."""

    @settings(max_examples=200, deadline=None)
    @given(steps=st.lists(st.tuples(st.integers(0, len(BENCH_ACTORS) - 1), library_calls)
                          | st.none(), max_size=12))
    # an Address arg: live it was rejected invalid-args, its replay joined the node
    @example(steps=[(1, ("vzone", "join_vzone", ("zone-a", BENCH_ACTORS[4])))])
    # a tuple of conditions: live it was rejected invalid-rule, its replay issued
    @example(steps=[(1, ("captoken", "issue_token",
                         (CLIENT_HEX, [dict(GET_DATA, conditions=())], 0, 10**9)))])
    # dates a tuple and a list: live their comparison failed invalid-args, replay issued
    @example(steps=[(1, ("captoken", "issue_token", (CLIENT_HEX, [GET_DATA], (1,), [2])))])
    # a tuple zone id: live it created a zone that state_digest could not encode
    @example(steps=[(0, ("vzone", "create_vzone", (("z",),)))])
    # a tuple action: live it revoked nothing, its replay was rejected invalid-args
    @example(steps=[(1, ("captoken", "issue_token", (CLIENT_HEX, [GET_DATA], 0, 10**9))),
                    (1, ("captoken", "revoke_access_rights",
                         (CLIENT_HEX, [dict(GET_DATA, action=("GET",))])))])
    def test_live_and_replayed_digests_and_receipts_are_equal(self, steps):
        bench = Bench()
        assert [bench.supervisor, bench.master, bench.provider, bench.client,
                bench.outsider] == BENCH_ACTORS
        digests = []
        for step in steps + [None]:   # None seals a block
            if step is None:
                bench.chain.produce_next_block()
                continue
            sender, (contract, op, args) = BENCH_ACTORS[step[0]], step[1]
            nonce = bench.chain.next_nonce(sender)
            try:
                digests.append(bench.submit(sender, contract, op, args))
            except TypeError:   # refused: an Address is no JSON value
                assert bench.chain.next_nonce(sender) == nonce
        live = bench.chain
        replayed = replay_chain(live.config, read_chain(io.StringIO(live.export_chain_text())),
                                zone_contracts_factory(bench.supervisor))
        assert live.state_digest() == replayed.state_digest()
        for digest in digests:
            ran, reran = live.get_receipt(digest), replayed.get_receipt(digest)
            assert (ran.status, ran.error, ran.result) == (reran.status, reran.error,
                                                           reran.result)


addresses = st.binary(min_size=20, max_size=20).map(Address)
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=8)),
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.lists(children, max_size=4).map(tuple),
                               st.dictionaries(st.text(max_size=8), children, max_size=4)),
    max_leaves=12)


# strings that JSON must escape: quotes, backslashes, control and non-ASCII characters
wire_strings = st.text(st.sampled_from('a"\\/\x00\x1f\n\t\x7fé€\U0001f600'), max_size=6) \
    | st.text(max_size=6)
wire_args = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False,
                                                                 allow_infinity=False),
              wire_strings),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.sampled_from(["nonce", "gas", "args", "digest", "txs"])
                        | wire_strings, children, max_size=3)),
    max_leaves=10)
transactions = st.builds(Transaction, sender=addresses, contract=wire_strings, op=wire_strings,
                         args=st.lists(wire_args, max_size=3).map(tuple),
                         nonce=st.integers(min_value=0), gas_used=st.integers(min_value=0))


class TestEncoder:
    @settings(max_examples=200, deadline=None)
    @given(value=json_values, args=st.lists(json_values, max_size=4).map(tuple),
           sender=addresses, nonce=st.integers(min_value=0))
    def test_encoder_matches_reference_walk(self, value, args, sender, nonce):
        assert canonical_json(value) == canonical_json(reference_jsonify(value)) == \
            json.dumps(reference_jsonify(value), sort_keys=True, separators=(",", ":"))
        tx = Transaction(sender, "vzone", "join_vzone", args, nonce, gas_used=64733)
        call = {"sender": sender.hex, "contract": "vzone", "op": "join_vzone",
                "args": reference_jsonify(args), "nonce": nonce}
        assert tx.digest == digest_of(call)
        assert Block.compute_digest(3, 45000, ZERO_DIGEST, [tx]) == digest_of({
            "height": 3, "timestamp": 45000, "parent": ZERO_DIGEST,
            "txs": [dict(call, gas=64733)]})

    @settings(max_examples=200, deadline=None)
    @given(txs=st.lists(transactions, max_size=4), height=st.integers(min_value=0),
           timestamp=st.integers(min_value=0), parent=wire_strings, digest=wire_strings)
    def test_assembled_texts_equal_reference_encodings(self, txs, height, timestamp,
                                                       parent, digest):
        for tx in txs:
            call = canonical_json(reference_call_wire(tx))
            assert tx.call_text() == call
            assert tx.digest == sha256_hex(call)
            assert tx.wire_text() == canonical_json(reference_tx_wire(tx))
        assert Block.compute_digest(height, timestamp, parent, txs) == \
            digest_of(reference_block_body(height, timestamp, parent, txs))
        block = Block(height, timestamp, parent, tuple(txs), digest)
        assert block.wire_text() == canonical_json(reference_block_wire(block))

    def test_export_equals_reference_encoding_of_every_block(self, monkeypatch):
        # The chain keeps each block as its export line, and ``blocks`` decodes
        # those lines. The blocks ``produce_block`` returned hold the live
        # transactions: the export must be their reference encoding, and the
        # decoded blocks must equal them, on the live chain and on its replay.
        sealed, produce = [GENESIS], Chain.produce_block

        def recording(chain, now, force=False):
            block = produce(chain, now, force)
            assert fields(chain.latest_block) == fields(block)
            assert chain.height == block.height == len(sealed)
            sealed.append(block)
            return block

        monkeypatch.setattr(Chain, "produce_block", recording)
        bench = Bench()
        bench.issue_client_token()
        bench.apply(bench.master, "vzone", "join_vzone", (bench.zone_id, {"nonce": 1}))
        bench.chain.produce_next_block()   # an empty block
        assert len(sealed) == 5
        expected = "".join(canonical_json(reference_block_wire(b)) + "\n" for b in sealed)
        assert bench.chain.export_chain_text() == expected
        assert list(map(fields, bench.chain.blocks)) == list(map(fields, sealed))
        read = read_chain(io.StringIO(expected))
        for height in range(len(sealed)):
            replayed = replay_chain(bench.chain.config, read[:height + 1],
                                    zone_contracts_factory(bench.supervisor))
            assert replayed.height == height
            assert fields(replayed.latest_block) == fields(sealed[height])
        assert replayed.export_chain_text() == expected
        assert list(map(fields, replayed.blocks)) == list(map(fields, sealed))

    @pytest.mark.parametrize("name", ("sample", "churn"))
    def test_a_respaced_export_replays_to_the_canonical_export(self, name):
        # default separators and every object's keys in reverse order: the
        # reader takes any spacing, and replay keeps the line it resealed
        lines, supervisor = export(name)
        canonical = "\n".join(lines) + "\n"
        respaced = "".join(json.dumps(json.loads(line, object_pairs_hook=lambda pairs:
                                                 dict(reversed(pairs)))) + "\n"
                           for line in lines)
        assert respaced != canonical and json.loads(respaced.splitlines()[1]) == \
            json.loads(lines[1])
        replayed = replay_chain(ChainConfig(supervisor=supervisor),
                                read_chain(io.StringIO(respaced)),
                                zone_contracts_factory(supervisor))
        assert replayed.export_chain_text() == canonical
        assert replayed.state_digest() == replay_chain(
            ChainConfig(supervisor=supervisor), read_chain(io.StringIO(canonical)),
            zone_contracts_factory(supervisor)).state_digest()

    def test_replaced_args_are_encoded_afresh(self, bench):
        tx = Transaction(bench.master, "vzone", "create_vzone", ("zone-a",), 0)
        old_digest, old_wire = tx.digest, tx.wire_text()   # caches the args text
        new = dataclasses.replace(tx, args=("zone-b",))
        assert new.digest == sha256_hex(canonical_json(reference_call_wire(new)))
        assert new.digest != old_digest
        assert new.wire_text() == old_wire.replace("zone-a", "zone-b")

    def test_resealed_args_change_carries_the_new_args(self, bench):
        # The live chain's transactions hold their encoded args. A resealed
        # block must hash and export the replaced args, not the held text:
        # its export then replays to the changed state, while the same change
        # under the digest of the old text fails replay.
        bench.issue_client_token()
        live = list(bench.chain.blocks)
        changed = (bench.provider.hex,) + live[2].transactions[0].args[1:]
        blocks = reseal(list(live), 2, change_first_tx(args=changed))
        assert blocks[2].digest == digest_of(reference_block_body(
            2, blocks[2].timestamp, blocks[2].parent_digest, blocks[2].transactions))
        text = "".join(canonical_json(reference_block_wire(b)) + "\n" for b in blocks)
        replayed = replay_chain(bench.chain.config, read_chain(io.StringIO(text)),
                                zone_contracts_factory(bench.supervisor))
        assert replayed.export_chain_text() == text
        assert replayed.state_digest() != bench.chain.state_digest()
        blocks[2] = dataclasses.replace(blocks[2], digest=live[2].digest)
        with pytest.raises(CorruptChainError, match="at height 2"):
            replay_chain(bench.chain.config, blocks, zone_contracts_factory(bench.supervisor))

    def test_a_value_that_contains_itself_is_refused(self):
        value = []
        value.append(value)
        with pytest.raises(RecursionError):
            canonical_json(value)

    @pytest.mark.parametrize("value", [{1, 2}, Decimal("1.5"), [Decimal("2")],
                                       {"rules": ({"days": {0}},)}])
    def test_types_json_lacks_are_rejected_both_ways(self, value):
        with pytest.raises(TypeError):
            canonical_json(value)
        with pytest.raises(TypeError):
            canonical_json(reference_jsonify(value))

    def test_an_address_arg_is_refused_before_its_nonce_is_taken(self, bench):
        with pytest.raises(TypeError):
            canonical_json([bench.zone_id, bench.outsider])
        nonce = bench.chain.next_nonce(bench.master)
        with pytest.raises(TypeError):
            bench.submit(bench.master, "vzone", "join_vzone", (bench.zone_id, bench.outsider))
        assert bench.chain.next_nonce(bench.master) == nonce
        assert bench.chain.produce_next_block().transactions == ()


class TestTransactionMatchesReference:
    """The text-backed transaction against the one that held its args."""

    @settings(max_examples=200, deadline=None)
    @given(tx=transactions)
    def test_texts_digest_and_export_equal_the_reference(self, tx):
        args = tx.args
        ref = ReferenceTransaction(tx.sender, tx.contract, tx.op, args, tx.nonce, tx.gas_used)
        assert (tx.call_text(), tx.wire_text(), tx.digest) == \
            (ref.call_text(), ref.wire_text(), ref.digest)
        head, tail = tx._halves()
        assert head + tail == tx.call_text()
        assert f'{head}"gas":{tx.gas_used},{tail}' == tx.wire_text()
        assert canonical_json(tx.args) == tx.args_text
        block = Block(3, 45000, ZERO_DIGEST, (tx,), "d" * 64)
        assert block.wire_text() == canonical_json(reference_block_wire(
            Block(3, 45000, ZERO_DIGEST, (ref,), "d" * 64)))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), args=st.lists(wire_args, max_size=3).map(tuple),
           gas=st.integers(min_value=0))
    def test_equal_exactly_when_the_reference_wire_texts_are(self, data, args, gas):
        other = data.draw(st.just(args) | st.just(list(args))
                          | st.lists(wire_args, max_size=3).map(tuple))
        other_gas = data.draw(st.just(gas) | st.integers(min_value=0))
        sender = Address(b"\x01" * 20)
        left = Transaction(sender, "vzone", "join_vzone", args, 4, gas)
        right = Transaction(sender, "vzone", "join_vzone", other, 4, other_gas)
        expected = (ReferenceTransaction(sender, "vzone", "join_vzone", args, 4, gas).wire_text()
                    == ReferenceTransaction(sender, "vzone", "join_vzone", other, 4,
                                            other_gas).wire_text())
        assert (left == right) == (right == left) == expected

    def test_equality_reads_the_canonical_text(self):
        sender = Address(b"\x01" * 20)

        def both(args):
            return (Transaction(sender, "vzone", "op", args, 0),
                    ReferenceTransaction(sender, "vzone", "op", args, 0))

        (tuple_tx, tuple_ref), (list_tx, list_ref) = both(((1,),)), both(([1],))
        assert tuple_tx == list_tx and tuple_ref != list_ref
        numbers = [both((value,)) for value in (1, 1.0, True)]
        assert all(a[0] != b[0] and a[1] == b[1]
                   for a, b in [(numbers[0], numbers[1]), (numbers[1], numbers[2]),
                                (numbers[0], numbers[2])])

    def test_args_are_decoded_on_demand_and_not_held(self, bench):
        tx = Transaction(bench.master, "vzone", "join_vzone", ("zone-a", bench.client.hex), 0)
        assert tx.args == ("zone-a", bench.client.hex)
        assert tx.args is not tx.args
        assert not hasattr(tx, "__dict__")
        assert "args" not in Transaction.__slots__


def count_calls(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper that counts its calls; the list of calls."""
    calls, original = [], getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


class TestDecodeCounts:
    def test_run_path_never_decodes(self, monkeypatch):
        decoded = count_calls(monkeypatch, ledger, "_decode")
        bench = Bench()
        bench.issue_client_token()
        bench.apply(bench.master, "captoken", "revoke_token", (bench.client.hex,))
        assert decoded == []

    def test_replay_decodes_each_args_text_once_and_builds_no_transaction(self, bench,
                                                                          monkeypatch):
        bench.issue_client_token()
        blocks = read_chain(io.StringIO(bench.chain.export_chain_text()))
        decoded = count_calls(monkeypatch, ledger, "_decode")
        built = count_calls(monkeypatch, Transaction, "__init__")
        replayed = replay_chain(bench.chain.config, blocks,
                                zone_contracts_factory(bench.supervisor))
        texts = [tx.args_text for block in blocks for tx in block.transactions]
        assert [call[0] for call in decoded] == texts
        assert built == []
        assert replayed.state_digest() == bench.chain.state_digest()


SAMPLE_SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / \
    "registration_and_revocation.json"
EXPORTS = ("hot_reads", "idle_sync", "churn", "sample")


@lru_cache(maxsize=None)
def export(name):
    """The lines of an export and its supervisor: a workload at scale 0.05, or the sample."""
    config = (json.loads(SAMPLE_SCENARIO.read_text()) if name == "sample"
              else WORKLOADS[name](7, 0.05))
    simulation, _ = run_scenario(config)
    return tuple(simulation.chain.export_chain_text().splitlines()), simulation.supervisor.vid


export_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats(allow_nan=False,
                                                                     allow_infinity=False)
    | st.text(max_size=4) | st.sampled_from(["vzone", "captoken", "nope", "0x" + "ab" * 20]),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=5)
MUTATIONS = ("gas", "nonce", "arg", "digest", "field-type", "missing-key", "spacing")


@st.composite
def mutated_exports(draw):
    """An export's text with one or two mutations of one block, and its supervisor.
    A resealed block is re-hashed and every later block relinked, so the mutations
    reach replay's checks."""
    name = draw(st.sampled_from(EXPORTS))
    lines, supervisor = export(name)
    lines = list(lines)
    index = draw(st.integers(0, len(lines) - 1))
    body = json.loads(lines[index])
    txs = body["txs"]
    tx = txs[draw(st.integers(0, len(txs) - 1))] if txs else None
    kinds = draw(st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=2))
    for kind in kinds:
        target = tx if tx is not None and draw(st.booleans()) else body
        if kind in ("gas", "nonce") and isinstance(target.get(kind), int):
            target[kind] += draw(st.sampled_from([-1, 1, 1000]))
        elif kind == "arg" and isinstance(target.get("args"), list):
            position = draw(st.integers(0, len(target["args"])))
            target["args"][position:position + 1] = [draw(export_values)]
        elif kind == "digest":
            body["digest"] = draw(st.sampled_from([json.loads(line)["digest"]
                                                   for line in lines]) | st.text(max_size=3))
        elif kind == "field-type" and target:
            target[draw(st.sampled_from(sorted(target)))] = draw(export_values)
        elif kind == "missing-key" and target:
            del target[draw(st.sampled_from(sorted(target)))]
    if "spacing" in kinds:
        separators = draw(st.sampled_from([(", ", ": "), (" ,", " :"), (",", ":")]))
        lines[index] = " " + json.dumps(body, separators=separators) + "  "
    elif draw(st.booleans()):   # reseal
        bodies = [body] + [json.loads(line) for line in lines[index + 1:]]
        for offset, each in enumerate(bodies):
            if offset:
                each["parent"] = bodies[offset - 1].get("digest")
            each["digest"] = sha256_hex(canonical_json(
                {key: value for key, value in each.items() if key != "digest"}))
        lines[index:] = [json.dumps(each) for each in bodies]
    else:
        lines[index] = json.dumps(body)
    return "\n".join(lines) + "\n", supervisor


def replay_outcome(read, replay, text, supervisor):
    """What reading and replaying ``text`` gives: the blocks read, then the error's
    type and message, or the replayed state digest and export."""
    try:
        blocks = read(io.StringIO(text))
    except Exception as exc:   # compared with the reference's, type and message
        return "read", type(exc), str(exc)
    read_blocks = [(b.height, b.timestamp, b.parent_digest, b.digest,
                    [(tx.sender, tx.contract, tx.op, canonical_json(tx.args), tx.nonce,
                      tx.gas_used) for tx in b.transactions]) for b in blocks]
    try:
        chain = replay(ChainConfig(supervisor=supervisor), blocks,
                       zone_contracts_factory(supervisor))
    except Exception as exc:
        return "replay", read_blocks, type(exc), str(exc)
    return "ok", read_blocks, chain.state_digest(), chain.export_chain_text()


TX_KEYS = ("sender", "contract", "op", "args", "nonce", "gas")
BLOCK_KEYS = ("height", "timestamp", "parent", "txs", "digest")
BAD_VALUES = (None, True, 0, 1.5, "x", [], {})
#: faults that pass the reader and reach replay's checks once the block is resealed
REPLAY_FAULTS = {
    "nonce": lambda body, tx: tx.update(nonce=tx["nonce"] + 1),
    "contract": lambda body, tx: tx.update(contract="nope"),
    "gas": lambda body, tx: tx.update(gas=tx["gas"] + 1),
    "sender": lambda body, tx: tx.update(sender="0x" + "ab" * 20),
    "timestamp": lambda body, tx: body.update(timestamp=-1),
    "height": lambda body, tx: body.update(height=body["height"] + 1),
    "parent": lambda body, tx: body.update(parent="0" * 64),
}


def field_faults():
    """(name, edit, reseal): every bad type and missing key of a block and of its
    first transaction, pairs of them, and pairs of faults that only replay sees."""
    def setting(target, key, value):
        def edit(body, tx):
            (tx if target == "tx" else body)[key] = value
        return edit

    def deleting(target, key):
        def edit(body, tx):
            del (tx if target == "tx" else body)[key]
        return edit

    single = [(f"{target}.{key}={value!r}", setting(target, key, value))
              for target, keys in (("tx", TX_KEYS), ("block", BLOCK_KEYS))
              for key in keys for value in BAD_VALUES]
    single += [(f"{target}.{key} missing", deleting(target, key))
               for target, keys in (("tx", TX_KEYS), ("block", BLOCK_KEYS)) for key in keys]
    for (first, edit), (second, other) in itertools.combinations(single[::3], 2):
        yield f"{first} and {second}", (lambda e, o: lambda b, t: (e(b, t), o(b, t)))(
            edit, other), False
    yield from ((name, edit, False) for name, edit in single)
    for first, second in itertools.permutations(REPLAY_FAULTS, 2):
        edit, other = REPLAY_FAULTS[first], REPLAY_FAULTS[second]
        yield f"{first} and {second}", (lambda e, o: lambda b, t: (e(b, t), o(b, t)))(
            edit, other), True


class TestReplayMatchesReference:
    def test_each_field_fault_is_named_alike(self):
        lines, supervisor = export("sample")
        for name, edit, reseal in field_faults():
            body = json.loads(lines[2])   # height 2 at 15,000 ms, one transaction
            edit(body, body["txs"][0])
            if reseal:
                body["digest"] = sha256_hex(canonical_json(
                    {key: value for key, value in body.items() if key != "digest"}))
            text = "\n".join([*lines[:2], json.dumps(body), *lines[3:]]) + "\n"
            outcome = replay_outcome(read_chain, replay_chain, text, supervisor)
            assert outcome == replay_outcome(reference_read_chain, reference_replay_chain,
                                             text, supervisor), name

    @pytest.mark.parametrize("name", EXPORTS)
    def test_unchanged_exports_replay_alike(self, name):
        lines, supervisor = export(name)
        text = "\n".join(lines) + "\n"
        outcome = replay_outcome(read_chain, replay_chain, text, supervisor)
        assert outcome[0] == "ok" and outcome[3] == text
        assert outcome == replay_outcome(reference_read_chain, reference_replay_chain, text,
                                         supervisor)

    @settings(max_examples=300, deadline=None)
    @given(case=mutated_exports())
    def test_mutated_exports_replay_or_fail_alike(self, case):
        text, supervisor = case
        outcome = replay_outcome(read_chain, replay_chain, text, supervisor)
        assert outcome == replay_outcome(reference_read_chain, reference_replay_chain, text,
                                         supervisor)
        if outcome[0] != "ok":
            assert outcome[-2] in (ChainFileError, CorruptChainError)


@pytest.mark.parametrize("name", EXPORTS)
def test_read_transactions_equal_constructed_ones(name):
    # read_chain sets a valid transaction's slots without ``__init__``; each must
    # equal the one ``__init__`` builds from the same decoded fields
    lines, _ = export(name)
    blocks = read_chain(io.StringIO("\n".join(lines)))
    for line, block in zip(lines, blocks, strict=True):
        entries = json.loads(line)["txs"]
        for entry, tx in zip(entries, block.transactions, strict=True):
            built = Transaction(Address.from_hex(entry["sender"]), entry["contract"],
                                entry["op"], entry["args"], entry["nonce"], entry["gas"])
            assert type(tx) is Transaction
            assert tx == built and tx.args_text == built.args_text
            assert tx.digest == built.digest and tx.wire_text() == built.wire_text()


def test_replay_of_deeply_nested_args_raises_no_recursion_error(bench):
    # replay decodes a transaction's args text, which read_chain has already
    # decoded three levels deeper (the line, its txs, the tx). So the deepest
    # args read_chain accepts (the limit differs between Python versions)
    # replay to a CorruptChainError, never a RecursionError
    bench.issue_client_token()
    lines = bench.chain.export_chain_text().splitlines()
    body = json.loads(lines[1])
    body["txs"][0]["args"] = ["args"]
    head, tail = canonical_json(body).split('["args"]')

    def export(depth):
        return io.StringIO("\n".join([lines[0], head + "[" * depth + "]" * depth + tail]
                                     + lines[2:]))

    def reads(depth):
        try:
            read_chain(export(depth))
        except ChainFileError:
            return False
        return True

    low, high = 64, 128   # read_chain accepts ``low`` and refuses ``high``
    while reads(high) and high < 2**16:
        low, high = high, 2 * high
    while high - low > 1:
        middle = (low + high) // 2
        low, high = (middle, high) if reads(middle) else (low, middle)
    for depth in range(low - 20, low + 1):
        with pytest.raises(CorruptChainError, match="differs from its replay"):
            replay_chain(bench.chain.config, read_chain(export(depth)),
                         zone_contracts_factory(bench.supervisor))
