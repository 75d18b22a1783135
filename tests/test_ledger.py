import csv
import dataclasses
import io
import random
from decimal import Decimal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capchain.address import Address, AddressFactory
from capchain.encoding import ZERO_DIGEST, canonical_json, digest_of, sha256_hex
from capchain.ledger import (DEFAULT_GAS_TABLE, Block, Chain, ChainConfig,
                             ContractNotFoundError, CorruptChainError,
                             IntervalNotElapsedError, NoGasRecordedError,
                             NonceMismatchError, Receipt, Transaction, read_chain,
                             replay_chain)
from capchain.tokens import TokenContract
from capchain.zones import NODE_TYPE_NONE, ZoneContract

from chainbench import Bench, change_first_tx, reseal, submit
from reference_models import (ReferenceChain, reference_block_body, reference_block_wire,
                              reference_call_wire, reference_jsonify, reference_tx_wire,
                              reference_fees, reference_write_gas_report)


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
            entry = bench.chain.account_gas(tx.digest)
            assert entry.fee_usd == Decimal("0.22")


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

    @settings(max_examples=150, deadline=None)
    @given(calls=st.lists(st.tuples(
        st.sampled_from([0, 21000, 159544]) | st.integers(-10**6, 10**9),
        # equal prices written differently, signed zeros, and random prices
        st.sampled_from([Decimal("6.4E-9"), Decimal("6.40E-9"), Decimal("0"), Decimal("-0")])
        | st.decimals("-1E-6", "1E-6", places=12),
        st.sampled_from([Decimal("212.77"), Decimal("212.770"), Decimal("0"), Decimal("-0")])
        | st.decimals("0", "5000", places=2)), min_size=1, max_size=24))
    @example(calls=[(21000, Decimal("-0"), Decimal("212.77")),
                    (21000, Decimal("0"), Decimal("212.77"))])
    def test_memoised_fees_equal_the_direct_computation(self, calls):
        chain, _, _ = fresh_chain()
        for gas, gas_price, eth_price in calls:   # the prices may change between calls
            chain.config.gas_price_etc, chain.config.eth_price_usd = gas_price, eth_price
            fees = chain._fees(gas)
            direct = reference_fees(gas, gas_price, eth_price)
            assert fees == direct and list(map(str, fees)) == list(map(str, direct))

    def test_account_gas_keeps_the_prices_in_force_when_applied(self, bench):
        receipt = bench.issue_client_token()
        bench.chain.config.eth_price_usd = Decimal("1000")
        [logged] = [e for e in bench.chain.gas_entries() if e.tx_digest == receipt.tx_digest]
        assert bench.chain.account_gas(receipt.tx_digest) == logged
        assert logged.fee_usd == Decimal("0.22")

    def test_a_rejected_revoke_has_one_receipt_priced_when_applied(self, bench):
        bench.issue_client_token()
        other = bench.factory.new_address()
        bench.apply(bench.supervisor, "vzone", "set_master_allowlist", (other.hex, True))
        bench.apply(other, "vzone", "create_vzone", ("zone-b",))
        receipt = bench.apply(other, "captoken", "revoke_token", (bench.client.hex,))
        bench.chain.config.gas_price_etc = Decimal("1E-6")   # prices after the fact
        bench.chain.config.eth_price_usd = Decimal("1000")
        assert receipt == Receipt(receipt.tx_digest, "revoke_token", "rejected", None,
                                  "unauthorized", 31877, Decimal("0.0002040"),
                                  Decimal("0.04"))
        assert [r for r in bench.chain.gas_entries() if r.tx_digest == receipt.tx_digest] \
            == [receipt]
        assert bench.chain.account_gas(receipt.tx_digest) is receipt
        pending = bench.submit(other, "captoken", "revoke_token", (bench.client.hex,))
        with pytest.raises(NoGasRecordedError):
            bench.chain.account_gas(pending)

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
        entries = bench.chain.gas_entries()
        assert sum(entry.gas for entry in entries) == summed_gas
        assert sum(entry.fee_usd for entry in entries) == summed_usd

    @settings(max_examples=100, deadline=None)
    @given(ops=st.lists(st.tuples(st.sampled_from(["issue_token", "a,b", 'say "hi"', "",
                                                   "line\nbreak", "cr\r", "é"]),
                                  st.booleans()), max_size=12),
           gas_table=st.dictionaries(st.sampled_from(["issue_token", "a,b", ""]),
                                     st.integers(-10**6, 10**9), max_size=3),
           prices=st.lists(st.tuples(st.decimals("0", "1E-6", places=12),
                                     st.decimals("0", "5000", places=2)), min_size=1))
    def test_gas_report_matches_csv_writer_rows(self, ops, gas_table, prices):
        chain, supervisor, _ = fresh_chain(gas_table=gas_table)
        for i, (op, seal) in enumerate(ops):
            submit(chain, supervisor, "vzone", op, ())
            if seal:
                chain.config.gas_price_etc, chain.config.eth_price_usd = prices[i % len(prices)]
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
    # ops missing from the gas table, then malformed args
    st.tuples(st.sampled_from(["vzone", "captoken"]), st.sampled_from(["mint", ""]),
              st.just(())),
    st.tuples(st.just("vzone"), st.just("join_vzone"), st.tuples(zone_ids, st.just(6))),
    st.tuples(st.just("captoken"), st.sampled_from(["issue_token", "revoke_token"]),
              st.sampled_from([(), ("not-hex",)])),
)
# equal prices written differently, and prices whose fees round to a signed zero
price_changes = st.tuples(
    st.sampled_from([Decimal("6.4E-9"), Decimal("6.40E-9"), Decimal("0"), Decimal("-0"),
                     Decimal("1E-12"), Decimal("-1E-12")])
    | st.decimals("-1E-6", "1E-6", places=12),
    st.sampled_from([Decimal("212.77"), Decimal("0"), Decimal("-0")])
    | st.decimals("0", "5000", places=2))


class TestReceiptMatchesTwoRecordReference:
    """One receipt per transaction against the receipt-plus-gas-entry chain."""

    @settings(max_examples=150, deadline=None)
    @given(steps=st.lists(st.tuples(st.just("tx"), st.integers(0, len(ACTORS) - 1),
                                    chain_calls)
                          | st.tuples(st.just("seal"), price_changes), max_size=30),
           dropped=st.sets(st.sampled_from(sorted(DEFAULT_GAS_TABLE))))
    @example(steps=[("tx", 0, ("vzone", "mint", ())),
                    ("seal", (Decimal("1E-12"), Decimal("212.77"))),
                    ("tx", 0, ("vzone", "mint", ())),
                    ("seal", (Decimal("-1E-12"), Decimal("0")))], dropped=set())
    def test_receipts_fees_and_report_equal_the_reference(self, steps, dropped):
        gas_table = {op: gas for op, gas in DEFAULT_GAS_TABLE.items() if op not in dropped}
        chains = []
        for build in (Chain, ReferenceChain):
            config = ChainConfig(supervisor=ACTORS[0], gas_table=dict(gas_table))
            chains.append(build(config, zone_contracts_factory(ACTORS[0])()))
        chain, reference = chains
        for step in steps + [("seal", None)]:
            for each in chains:
                if step[0] == "tx":
                    each.submit(ACTORS[step[1]], *step[2])
                else:
                    if step[1] is not None:
                        each.config.gas_price_etc, each.config.eth_price_usd = step[1]
                    each.produce_next_block()
        assert chain.export_chain_text() == reference.export_chain_text()
        for block in chain.blocks:
            for tx in block.transactions:
                receipt, expected = chain.get_receipt(tx.digest), reference.get_receipt(tx.digest)
                entry = reference.account_gas(tx.digest)
                assert chain.account_gas(tx.digest) is receipt
                assert (receipt.status, receipt.error, receipt.result, receipt.ok) == \
                    (expected.status, expected.error, expected.result, expected.ok)
                assert receipt.gas == expected.gas_used == entry.gas
                assert (str(receipt.fee_etc), str(receipt.fee_usd)) == \
                    (str(entry.fee_etc), str(entry.fee_usd))

        def rows(entries):
            return [(e.tx_digest, e.op, e.gas, str(e.fee_etc), str(e.fee_usd)) for e in entries]
        assert rows(chain.gas_entries()) == rows(reference.gas_entries())
        assert chain.gas_report_text() == reference.gas_report_text()


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
        assert chain.verify_stored_digests()

    def test_gas_conservation_report_vs_blocks(self, bench):
        bench.issue_client_token()
        bench.apply(bench.master, "captoken", "revoke_token", (bench.client.hex,))
        block_gas = sum(tx.gas_used for block in bench.chain.blocks
                        for tx in block.transactions)
        assert sum(entry.gas for entry in bench.chain.gas_entries()) == block_gas


addresses = st.binary(min_size=20, max_size=20).map(Address)
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=8), addresses),
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
              wire_strings, addresses),
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
        assert canonical_json(value) == canonical_json(reference_jsonify(value))
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

    def test_export_equals_reference_encoding_of_every_block(self, bench):
        bench.issue_client_token()
        bench.apply(bench.master, "vzone", "join_vzone", (bench.zone_id, {"nonce": 1}))
        assert bench.chain.export_chain_text() == "".join(
            canonical_json(reference_block_wire(block)) + "\n"
            for block in bench.chain.blocks)

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

    @pytest.mark.parametrize("value", [{1, 2}, Decimal("1.5"), [Decimal("2")],
                                       {"rules": ({"days": {0}},)}])
    def test_types_json_lacks_are_rejected_both_ways(self, value):
        with pytest.raises(TypeError):
            canonical_json(value)
        with pytest.raises(TypeError):
            canonical_json(reference_jsonify(value))
