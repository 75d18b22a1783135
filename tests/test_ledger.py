import csv
import dataclasses
import io
import random
from decimal import Decimal

import pytest

from capchain.address import AddressFactory
from capchain.encoding import ZERO_DIGEST
from capchain.ledger import (Block, Chain, ChainConfig, ContractNotFoundError,
                             CorruptChainError, IntervalNotElapsedError,
                             NoGasRecordedError, NonceMismatchError,
                             Transaction, read_chain, replay_chain)
from capchain.tokens import TokenContract
from capchain.zones import NODE_TYPE_NONE, ZoneContract

from chainbench import Bench, change_first_tx, reseal, submit


def fresh_chain(seed=42, block_interval_ms=15000, **config_kwargs):
    factory = AddressFactory(seed)
    supervisor = factory.new_address()
    zones = ZoneContract(supervisor)
    tokens = TokenContract(supervisor, zones)
    config = ChainConfig(supervisor=supervisor,
                         block_interval_ms=block_interval_ms, **config_kwargs)
    return Chain(config, [zones, tokens]), supervisor, factory


def zone_contracts_factory(supervisor):
    def build():
        zones = ZoneContract(supervisor)
        return [zones, TokenContract(supervisor, zones)]
    return build


class TestSubmit:
    def test_first_transaction_enters_pool(self):
        chain, supervisor, _ = fresh_chain()
        receipt = submit(chain, supervisor, "vzone", "create_vzone", ("zone-a",))
        assert chain.pending_count == 1
        assert len(receipt) == 64

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
        pool = chain.pending_transactions()
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
            entry = bench.chain.account_gas(tx.digest)
            assert entry.fee_usd == Decimal("0.22")


class TestQueryState:
    def test_default_vnode_record(self):
        chain, _, factory = fresh_chain()
        record = chain.query_state("vzone", "get_vnode", (factory.new_address().hex,))
        assert record.node_type == NODE_TYPE_NONE
        assert record.vzone_id == ""

    def test_token_absent_before_block(self, bench):
        bench.submit(bench.master, "captoken", "issue_token",
                     (bench.client.hex, [], 0, 10**9))
        assert bench.chain.query_state("captoken", "get_token",
                                       (bench.client.hex,)) is None
        bench.chain.produce_next_block()
        assert bench.chain.query_state("captoken", "get_token",
                                       (bench.client.hex,)) is not None

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


CORRUPTIONS = {
    "tampered-payload": _tamper_first_payload,
    "height-gap": lambda blocks: blocks[:1] + blocks[2:],
    "broken-parent-link": _relink_last_block,
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
        with pytest.raises(CorruptChainError):
            replay_chain(bench.chain.config, blocks,
                         zone_contracts_factory(bench.supervisor))
        bench.chain._blocks = blocks
        assert not bench.chain.verify_stored_digests()

    @pytest.mark.parametrize("corruption", sorted(RESEALED_CORRUPTIONS))
    def test_resealed_corruption_fails_replay(self, bench, corruption):
        bench.issue_client_token()
        blocks = reseal(list(bench.chain.blocks), 2, RESEALED_CORRUPTIONS[corruption])
        bench.chain._blocks = list(blocks)
        assert bench.chain.verify_stored_digests()
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
        receipt = bench.issue_client_token()
        entry = bench.chain.account_gas(receipt.tx_digest)
        assert entry.gas == 159544
        assert entry.fee_etc == Decimal("0.0010211")
        assert entry.fee_usd == Decimal("0.22")

    def test_reported_average_gas_reproduces_published_etc_fee(self):
        # the published 0.0010853 ETC figure corresponds to the reported
        # *average* gas of ~169576 units at the same 6.4e-9 price
        chain, _, _ = fresh_chain(
            gas_table={"issue_token": 169576})
        fee_etc, _ = chain._fees(169576)
        assert fee_etc == Decimal("0.0010853")

    def test_zero_price_configuration(self):
        bench = Bench()
        bench.chain.config.eth_price_usd = Decimal("0")
        receipt = bench.issue_client_token()
        entry = bench.chain.account_gas(receipt.tx_digest)
        assert entry.fee_usd == Decimal("0.00")

    def test_unapplied_tx_has_no_gas(self, bench):
        digest = bench.submit(bench.master, "captoken", "issue_token",
                              (bench.client.hex, [], 0, 10**9))
        with pytest.raises(NoGasRecordedError):
            bench.chain.account_gas(digest)

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
        summary = bench.chain.gas_summary()
        assert summary["total_gas"] == summed_gas
        assert summary["total_fee_usd"] == summed_usd


class TestInvariants:
    def test_append_only_digests_verify(self, bench):
        bench.issue_client_token()
        bench.chain.produce_next_block()
        assert bench.chain.verify_stored_digests()
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
                                           (bench.client.hex,)) is None
        bench.chain.produce_next_block()
        assert bench.chain.query_state("captoken", "get_token",
                                       (bench.client.hex,)) is not None

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
        pool = chain.pending_transactions()
        assert len(pool) == 200
        for sender in senders:
            nonces = [tx.nonce for tx in pool if tx.sender == sender]
            assert nonces == list(range(50))
        chain.produce_next_block()
        assert chain.verify_stored_digests()

    def test_gas_conservation_report_vs_blocks(self, bench):
        bench.issue_client_token()
        bench.apply(bench.master, "captoken", "revoke_token", (bench.client.hex,))
        block_gas = sum(tx.gas_used for block in bench.chain.blocks
                        for tx in block.transactions)
        assert bench.chain.gas_summary()["total_gas"] == block_gas
