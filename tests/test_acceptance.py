"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
print; without ``-s`` they appear for failing criteria only.
"""

import io
import itertools
import json
import random
import time
from decimal import Decimal

from capchain.address import AddressFactory
from capchain.cli import demo_config
from capchain.encoding import canonical_json
from capchain.enforcement import ServiceProvider, ServiceRequest
from capchain.netsim import (Measurement, ac_overhead_ms, latency_bench_config,
                             run_latency_bench, run_overhead_bench, run_scenario,
                             summarize, write_measurements_csv,
                             write_stage_traces_csv, write_summary_text)
from capchain.tokens import CapabilityToken
from capchain.zones import ZoneContract

from chainbench import Bench
from reference_models import (MODEL_OPS, ZERO_HEX, contract_state_view,
                              model_state_view, new_zone_model, oracle_authorize)

RULE_GET = {"action": "GET", "resource": "/api/data", "conditions": []}


def report(number, description, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number}: {description}: {status}{suffix}")
    assert passed, f"criterion {number} failed{suffix}"


def test_criterion_1_zone_oracle_equivalence():
    sequences = 10_000
    addresses = AddressFactory(9001).new_addresses(6)
    hex_addresses = [a.hex for a in addresses]
    supervisor = addresses[0]
    zone_ids = ("z1", "z2", "z3")
    op_names = sorted(MODEL_OPS)
    rng = random.Random(20_240_001)
    started = time.monotonic()
    disagreements = 0
    for _ in range(sequences):
        contract = ZoneContract(supervisor)
        model = new_zone_model(supervisor.hex)
        for _ in range(rng.randrange(41)):
            op = op_names[rng.randrange(5)]
            s = rng.randrange(6)
            z = rng.randrange(3)
            n = rng.randrange(6)
            sender = addresses[s]
            zone = zone_ids[z]
            if op in ("join_vzone", "leave_vzone"):
                got = contract.execute(sender, op, (zone, hex_addresses[n]))
                want = MODEL_OPS[op](model, hex_addresses[s], zone, hex_addresses[n])
            elif op == "set_master_allowlist":
                allowed = z % 2 == 0
                got = contract.execute(sender, op, (hex_addresses[n], allowed))
                want = MODEL_OPS[op](model, hex_addresses[s], hex_addresses[n], allowed)
            else:
                got = contract.execute(sender, op, (zone,))
                want = MODEL_OPS[op](model, hex_addresses[s], zone)
            if got != want:
                disagreements += 1
        if contract_state_view(contract.dump_state()) != model_state_view(model):
            disagreements += 1
    elapsed = time.monotonic() - started
    report(1, "zone state machine equals literal reference interpreter",
           disagreements == 0 and elapsed < 30.0,
           f"{sequences} sequences, {elapsed:.1f}s, {disagreements} disagreements")


def _identity_fixtures():
    """(name, bench, requester, expected provider/requester records, zone master)."""
    fixtures = []

    member = Bench(seed=101)
    fixtures.append(("member", member, member.client,
                     ("zone-a", 2), ("zone-a", 2), member.master.hex))

    nonmember = Bench(seed=102)
    fixtures.append(("non-member", nonmember, nonmember.outsider,
                     ("zone-a", 2), ("", 0), nonmember.master.hex))

    revoked = Bench(seed=103)
    revoked.apply(revoked.master, "vzone", "revoke_vzone", (revoked.zone_id,))
    fixtures.append(("revoked-zone", revoked, revoked.client,
                     ("zone-a", 2), ("zone-a", 2), ZERO_HEX))
    return fixtures


def test_criterion_2_authorization_truth_table():
    noon = 12 * 3600000
    cond_satisfied_a = {"kind": "time_window", "start_ms": 9 * 3600000,
                        "end_ms": 17 * 3600000}
    cond_satisfied_b = {"kind": "weekday", "days": [0, 1, 2, 3, 4]}
    cond_violated_a = {"kind": "time_window", "start_ms": 18 * 3600000,
                       "end_ms": 19 * 3600000}
    cond_violated_b = {"kind": "location_tag", "tag": "elsewhere"}
    condition_lists = [
        [], [cond_satisfied_a], [cond_violated_a],
        [cond_satisfied_a, cond_satisfied_b],
        [cond_satisfied_a, cond_violated_b],
        [cond_violated_a, cond_satisfied_b],
        [cond_violated_a, cond_violated_b],
    ]

    def matching(conds):
        return {"action": "GET", "resource": "/api/data", "conditions": conds}

    nonmatching = {"action": "POST", "resource": "/api/upload", "conditions": []}

    def rule_lists(conds):
        second_match = {"action": "GET", "resource": "/api/data", "conditions": []}
        return [
            [],
            [matching(conds)],
            [nonmatching],
            [matching(conds), second_match],
            [matching(conds), nonmatching],
            [nonmatching, matching(conds)],
            [nonmatching, nonmatching],
        ]

    started = time.monotonic()
    cases = 0
    mismatches = []
    for name, bench, requester, provider_rec, requester_rec, zone_master \
            in _identity_fixtures():
        provider = ServiceProvider(bench.provider, bench.chain)
        token_variants = [None]
        for initialized, valid, issued, unexpired in itertools.product(
                (True, False), repeat=4):
            token_variants.append(dict(
                vid=requester.hex, VZone_master=bench.master.hex, id=1,
                initialized=initialized, isValid=valid,
                issuedate=0 if issued else noon + 10_000,
                expireddate=noon + 1_000_000 if unexpired else noon - 10_000))
        for base_token in token_variants:
            for conds in condition_lists:
                for rules in rule_lists(conds):
                    token = None
                    if base_token is not None:
                        token = dict(base_token, authorization=rules)
                    provider.cache.entries.clear()
                    if token is not None:
                        provider.cache.entries[requester] = token
                    decision, trace = provider.authorize(
                        ServiceRequest(requester, "GET", "/api/data", now=noon))
                    outcome, stage, stages = oracle_authorize(
                        provider_rec, requester_rec, zone_master, token,
                        "GET", "/api/data", noon, "")
                    cases += 1
                    got = "grant" if decision.granted else "deny"
                    if (got, decision.stage, trace.recorded_stages()) != \
                            (outcome, stage, stages):
                        mismatches.append((name, token, rules, got, outcome))
    elapsed = time.monotonic() - started
    report(2, "authorization pipeline equals brute-force truth-table oracle",
           not mismatches and elapsed < 10.0,
           f"{cases} cases, {elapsed:.1f}s, {len(mismatches)} mismatches")


def test_criterion_3_four_case_demo():
    simulation, _ = run_scenario(demo_config(seed=42, block_interval_ms=15000))
    now = 30000
    client = simulation.nodes["sat-client"].vid
    sat = simulation.providers["sat-provider"]
    ground = simulation.providers["ground-provider"]
    outcomes = [
        "pass" if sat.authenticate(client) is None else "deny",
        "pass" if ground.authenticate(client) is None else "deny",
        "pass" if sat.authorize(
            ServiceRequest(client, "GET", "/api/data", now))[0].granted else "deny",
        "pass" if sat.authorize(
            ServiceRequest(client, "PUT", "/api/data", now))[0].granted else "deny",
    ]
    report(3, "demo cases produce pass/deny/pass/deny",
           outcomes == ["pass", "deny", "pass", "deny"], ",".join(outcomes))


def test_criterion_4_revocation_propagation():
    interval = 15000
    late_grants = 0
    scenarios = 100
    for seed in range(scenarios):
        rng = random.Random(seed)
        revoke_at = rng.randrange(16_000, 40_000)
        confirm_at = ((revoke_at // interval) + 1) * interval
        horizon = confirm_at + 2 * interval
        script = [{"at": 100, "op": "issue", "master": "master",
                   "subject": "client", "rules": [RULE_GET],
                   "validity_ms": 10**7}]
        at = 16_000
        while at < horizon:
            script.append({"at": at, "op": "request", "requester": "client",
                           "provider": "provider", "method": "GET",
                           "uri": "/api/data"})
            at += rng.randrange(400, 1200)
        script.append({"at": revoke_at, "op": "revoke", "master": "master",
                       "subject": "client"})
        config = latency_bench_config("none", seed=seed)
        config["script"] = script
        _, result = run_scenario(config)
        for m in map(Measurement._make, result.measurements):
            if m.outcome == "grant" and m.at_ms >= confirm_at + interval:
                late_grants += 1
    report(4, "confirmed revocations deny within one block interval",
           late_grants == 0, f"{scenarios} scenarios, {late_grants} late grants")


def test_criterion_5_latency_model_consistency():
    _, satellite = run_latency_bench("satellite", seed=42, requests=100)
    sat_summary = summarize(satellite.measurements)
    _, ground = run_latency_bench("ground", seed=42, requests=100)
    ground_summary = summarize(ground.measurements)
    with_ac, without_ac = run_overhead_bench(seed=42, requests=100)
    overhead = ac_overhead_ms(with_ac.measurements, without_ac.measurements)
    checks = {
        "satellite mean": abs(sat_summary["steady_mean_ms"] - 250.0) <= 5.0,
        "ac share": abs(sat_summary["steady_ac_share"] - 0.86) <= 0.02,
        "ground mean": abs(ground_summary["steady_mean_ms"] - 60.0) <= 5.0,
        "overhead": abs(overhead - 9.0) <= 2.0,
    }
    report(5, "latency cost model reproduces reference figures",
           all(checks.values()),
           f"satellite={sat_summary['steady_mean_ms']:.1f}ms "
           f"share={sat_summary['steady_ac_share']:.3f} "
           f"ground={ground_summary['steady_mean_ms']:.1f}ms "
           f"overhead={overhead:.1f}ms")


def test_criterion_6_cache_behavior_shape():
    _, result = run_latency_bench("satellite", seed=7, requests=100)
    summary = summarize(result.measurements)
    first_slower = summary["first_request_ms"] > summary["steady_median_ms"]
    hits = sum(1 for m in map(Measurement._make, result.measurements) if m.cache_hit)
    report(6, "cold start is slower and warm requests hit the cache",
           first_slower and hits >= 98,
           f"first={summary['first_request_ms']:.0f}ms "
           f"median={summary['steady_median_ms']:.0f}ms hits={hits}/100")


def test_criterion_7_determinism():
    def run_once():
        simulation, result = run_scenario(latency_bench_config("satellite", 55, 40))
        chain_text = simulation.chain.export_chain_text()
        gas_text = simulation.chain.gas_report_text()
        measurements = io.StringIO()
        write_measurements_csv(result.measurements, measurements)
        traces = io.StringIO()
        write_stage_traces_csv(result.measurements, traces)
        summary = io.StringIO()
        write_summary_text(summarize(result.measurements), summary)
        return (chain_text, gas_text, measurements.getvalue(),
                traces.getvalue(), summary.getvalue())

    report(7, "same seed reproduces byte-identical exports and reports",
           run_once() == run_once())


def test_criterion_8_token_serialization():
    bench = Bench(seed=401)
    rules = [{"action": "GET", "resource": "/api/data",
              "conditions": [{"kind": "time_window", "start_ms": 0,
                              "end_ms": 3_600_000}]}]
    bench.issue_client_token(rules=rules)
    token_wire = bench.tokens.get_token(bench.client)
    certificate = bench.zones.get_certificate(bench.client)
    zone_dump = bench.zones.dump_state()

    token_text = canonical_json(token_wire)
    round_tripped = CapabilityToken.from_wire(json.loads(token_text))
    byte_stable = canonical_json(round_tripped.wire()) == token_text
    cert_stable = canonical_json(json.loads(canonical_json(certificate))) \
        == canonical_json(certificate)

    corpus = token_text + canonical_json(certificate) + canonical_json(zone_dump)
    required = ("vid", "VZoneID", "master", "node_type", "VZone_master", "id",
                "initialized", "isValid", "issuedate", "expireddate",
                "authorization", "action", "resource", "conditions")
    missing = [name for name in required if f'"{name}"' not in corpus]
    report(8, "wire structures keep exact field names and canonical bytes",
           byte_stable and cert_stable and not missing,
           f"missing={missing}" if missing else "14 field names present")


def test_criterion_9_gas_accounting():
    bench = Bench(seed=77)
    subjects = bench.factory.new_addresses(100)
    for subject in subjects:
        bench.submit(bench.master, "vzone", "join_vzone",
                     (bench.zone_id, subject.hex))
    bench.chain.produce_next_block()
    for subject in subjects:
        bench.submit(bench.master, "captoken", "issue_token",
                     (subject.hex, [RULE_GET], 0, 10**9))
    bench.chain.produce_next_block()
    issue_entries = [e for e in bench.chain.gas_entries() if e.op == "issue_token"]
    per_tx_ok = all(e.fee_usd == Decimal("0.22") for e in issue_entries)
    total = sum((e.fee_usd for e in issue_entries), Decimal("0"))
    total_ok = total == 100 * Decimal("0.22")
    report(9, "token issuance fees report 0.22 USD each, totals exact",
           len(issue_entries) == 100 and per_tx_ok and total_ok,
           f"per_tx=0.22 total={total}")
