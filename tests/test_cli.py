import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from capchain.cli import main
from capchain.encoding import canonical_json
from capchain.enforcement import TokenCache
from capchain.ledger import read_chain
from capchain.netsim import latency_bench_config

from chainbench import change_first_tx, reseal
from reference_models import full_refetch_sync, reference_block_wire

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SRC = SCENARIOS.parent / "src"
RULE_GET = {"action": "GET", "resource": "/api/data", "conditions": []}


def served(uri):
    """A scenario mutation: the provider serves only ``uri`` and every request asks for it."""
    def mutate(config):
        config["nodes"][3]["services"] = [uri]
        for event in config["script"]:
            if event["op"] == "request":
                event["uri"] = uri
    return mutate


def condition(**fields):
    """A scenario mutation: the issued rule carries one condition of ``fields``."""
    return lambda config: config["script"][1]["rules"][0].update(conditions=[fields])


def client_named(name):
    """A scenario mutation: the client node is called ``name`` everywhere."""
    def mutate(config):
        config["nodes"][2]["name"] = config["channels"][0]["a"] = name
        for event in config["script"]:
            for key in ("node", "subject", "requester"):
                if event.get(key) == "client":
                    event[key] = name
    return mutate


class TestDemo:
    def test_demo_prints_four_case_table_and_passes(self, capsys):
        assert main(["demo", "--seed", "42"]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.strip()]
        assert len(lines) == 5  # header + four cases
        assert "same-zone authentication" in lines[1] and "pass" in lines[1]
        assert "cross-zone authentication" in lines[2] and "deny" in lines[2]
        assert "granted GET /api/data" in lines[3] and "pass" in lines[3]
        assert "ungranted PUT /api/data" in lines[4] and "deny" in lines[4]

    def test_demo_requires_seed(self):
        with pytest.raises(SystemExit):
            main(["demo"])

    def test_demo_writes_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        assert main(["demo", "--seed", "1", "--out", str(out_dir)]) == 0
        assert (out_dir / "chain.jsonl").exists()
        assert (out_dir / "gas_report.csv").exists()


class TestScenario:
    def test_missing_file_fails_with_machine_readable_error(self, tmp_path, capsys):
        assert main(["scenario", str(tmp_path / "missing.cfg")]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "file-not-found"

    def test_scenario_run_writes_reports(self, tmp_path, capsys):
        config = latency_bench_config("ground", seed=3, requests=5)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config))
        out_dir = tmp_path / "out"
        assert main(["scenario", str(path), "--out", str(out_dir)]) == 0
        for artifact in ("measurements.csv", "stage_traces.csv", "summary.txt",
                         "chain.jsonl", "gas_report.csv"):
            assert (out_dir / artifact).exists()

    def test_seed_required_when_absent_everywhere(self, tmp_path, capsys):
        config = latency_bench_config("ground", seed=3, requests=1)
        del config["seed"]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config))
        assert main(["scenario", str(path)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "seed-required"

    @pytest.mark.parametrize("content,seed", [
        (b"\xff\xfe{}", []),
        (b"[1,2]", []),
        (b"[1,2]", ["--seed", "1"]),
    ], ids=["not-utf8", "list", "list-with-seed"])
    def test_scenario_file_that_is_not_an_object_fails(self, tmp_path, capsys,
                                                        content, seed):
        path = tmp_path / "scenario.json"
        path.write_bytes(content)
        assert main(["scenario", str(path), "--out", str(tmp_path / "o"), *seed]) == 1
        assert failure(capsys)["error"] == "invalid-scenario-file"

    @pytest.mark.parametrize("mutate,named", [
        (lambda c: c["script"][1].pop("rules"), "script[1].rules: must be a list of rules"),
        (lambda c: c["channels"][0].update(one_way_delay_ms="3.75"),
         "channels[0].one_way_delay_ms: must be a number or a range"),
        (lambda c: c.update(nodes={n["name"]: n for n in c["nodes"]}),
         "nodes: must be a list of objects"),
        (lambda c: c.update(block_interval_ms=0), "block_interval_ms: must be >= 1"),
        (lambda c: c["channels"][0].update(one_way_delay_ms=[5, -1]),
         "channels[0].one_way_delay_ms: must be a number or a range"),
        (lambda c: c["channels"][0].update(one_way_delay_ms=[5]),
         "channels[0].one_way_delay_ms: must be a number or a range"),
        (lambda c: c["script"][1]["rules"][0].update(action="FLY"),
         "script[1].rules[0].action: 'FLY' is not an action"),
        (lambda c: c["nodes"][3].update(profile={"foo": 1}),
         "nodes[3].profile.foo: must be a cost"),
        (lambda c: c["script"][2].update(at="soon"), "script[2].at: could not convert"),
        (lambda c: c["channels"][0].update(drop_rate="often"),
         "channels[0].drop_rate: could not convert"),
        (lambda c: c["script"][1].update(validity_ms="forever"),
         "script[1].validity_ms: invalid literal for int()"),
        # a token that expires before it is issued, which the contract rejects
        (lambda c: c["script"][1].update(validity_ms=-5),
         "script[1].validity_ms: must be >= 0, got -5"),
        # non-finite times would never be reached or have no order
        (lambda c: c["script"][2].update(at="inf"), "script[2].at: must be a finite time"),
        (lambda c: c["script"][2].update(at="nan"), "script[2].at: must be a finite time"),
        (lambda c: c["script"][2].update(at=float("nan")),
         "script[2].at: must be a finite time"),
        (lambda c: c["script"][2].update(at=10**400), "script[2].at: int too large"),
        (lambda c: c["channels"][0].update(one_way_delay_ms=float("inf")),
         "channels[0].one_way_delay_ms: must be a number or a range"),
        (lambda c: c.update(timeout_ms="inf"),
         "timeout_ms: must be a number from 0 to the horizon"),
        (lambda c: c.update(timeout_ms=-5), "timeout_ms: must be a number from 0 to the horizon"),
        # request strings
        (served(5), "nodes[3].services[0]: must be a string without NUL, got 5"),
        (served("api/data"), "nodes[3].services[0]: must start with '/', got 'api/data'"),
        (served("/api/\0data"), "nodes[3].services[0]: must be a string without NUL"),
        (client_named("cli\0ent"), "nodes[2].name: must be a nonempty string without NUL"),
        # registration policy and registration attributes
        (lambda c: c.update(registration_policy="allow_all"),
         "registration_policy: must be an object, got 'allow_all'"),
        (lambda c: c["registration_policy"].update(kind="allowlist", vids=5),
         "registration_policy.vids: must be a list of hex strings, got 5"),
        (lambda c: c["registration_policy"].update(kind="nope"),
         "registration_policy.kind: must be one of allow_all, allowlist, denylist, attribute"),
        (lambda c: c["registration_policy"].update(kind="attribute", required_attributes=[1]),
         "registration_policy.required_attributes: must be an object, got [1]"),
        (lambda c: c["script"][0].update(attributes="abc"),
         "script[0].attributes: must be an object, got 'abc'"),
        (lambda c: c.update(access_control="false"), "access_control: must be true or false"),
        # a time window that compares strings with the time of day
        (lambda c: c["script"][1]["rules"][0].update(
            conditions=[{"kind": "time_window", "start_ms": "0", "end_ms": "5"}]),
         "script[1].rules[0]: is not a rule (ValueError: time_window requires numbers start_ms"),
        # rule fields of the wrong type
        (lambda c: c["script"][1]["rules"][0].update(resource=7),
         "script[1].rules[0]: is not a rule (AttributeError: "),
        (lambda c: c["script"][1]["rules"][0].update(conditions=7),
         "script[1].rules[0]: is not a rule (TypeError: "),
        # revocations name their sender with "master" only
        (lambda c: c["script"][5].update(by=c["script"][5].pop("master")),
         "script[5].master: unknown node None"),
        # misspelt or falsy expectations, which failed every request or checked none
        (lambda c: c["script"][2].update(expect="Grant"),
         "script[2].expect: must be grant, deny, timeout or null, got 'Grant'"),
        (lambda c: c["script"][2].update(expect="maybe"), "script[2].expect: must be grant"),
        (lambda c: c["script"][2].update(expect=0), "script[2].expect: must be grant"),
        (lambda c: c["script"][2].update(expect=""), "script[2].expect: must be grant"),
        # rule values the token model misread: a tag never equal to a location,
        # a float or bool day, a bool time and conditions that read as none
        (condition(kind="location_tag", tag=5),
         "script[1].rules[0]: is not a rule (ValueError: location_tag requires a nonempty "
         "string tag"),
        (condition(kind="weekday", days=[1.0]),
         "script[1].rules[0]: is not a rule (ValueError: weekday requires"),
        (condition(kind="weekday", days=[False]),
         "script[1].rules[0]: is not a rule (ValueError: weekday requires"),
        (condition(kind="time_window", start_ms=True, end_ms=5),
         "script[1].rules[0]: is not a rule (ValueError: time_window requires"),
        (lambda c: c["script"][1]["rules"][0].update(conditions=""),
         "script[1].rules[0]: is not a rule (TypeError: conditions must be a list, got str"),
        (lambda c: c["script"][1]["rules"][0].update(conditions={}),
         "script[1].rules[0]: is not a rule (TypeError: conditions must be a list, got dict"),
        # JSON booleans, which int() and float() read as 1 and 0: a request moved
        # to 1 ms, a 1 ms token, 1 ms blocks, a 1 ms stage cost
        (lambda c: c["script"][2].update(at=True), "script[2].at: must be a number, got True"),
        (lambda c: c["script"][1].update(validity_ms=True),
         "script[1].validity_ms: must be a number, got True"),
        (lambda c: c.update(seed=True), "seed: must be a number, got True"),
        (lambda c: c.update(timeout_ms=True), "timeout_ms: must be a number, got True"),
        (lambda c: c["channels"][0].update(drop_rate=False),
         "channels[0].drop_rate: must be a number, got False"),
        (lambda c: c.update(block_interval_ms=True),
         "block_interval_ms: must be a number, got True"),
        (lambda c: c["nodes"][3].update(profile={"identity_auth": True}),
         "nodes[3].profile.identity_auth: must be a cost"),
    ], ids=["issue-without-rules", "string-delay", "nodes-object", "zero-interval",
            "inverted-delay-range", "one-element-delay-range", "unknown-action",
            "unknown-profile-key", "string-at", "string-drop-rate", "string-validity",
            "negative-validity",
            "infinite-at", "nan-string-at", "json-nan-at", "overflowing-at",
            "infinite-delay", "infinite-timeout", "negative-timeout", "numeric-service",
            "relative-service", "nul-in-service", "nul-in-node-name", "policy-not-object",
            "numeric-vids", "unknown-policy-kind", "required-attributes-list",
            "string-attributes", "string-access-control", "string-time-window",
            "numeric-resource", "numeric-conditions", "by-alias", "capitalised-expect",
            "unknown-expect", "zero-expect", "empty-expect", "numeric-tag", "float-day",
            "bool-day", "bool-start", "string-conditions", "object-conditions", "bool-at",
            "bool-validity", "bool-seed", "bool-timeout", "bool-drop-rate", "bool-interval",
            "bool-cost"])
    def test_malformed_scenario_field_fails(self, tmp_path, capsys, mutate, named):
        config = json.loads((SCENARIOS / "registration_and_revocation.json").read_text())
        mutate(config)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config))
        assert main(["scenario", str(path), "--out", str(tmp_path / "o")]) == 1
        err = failure(capsys)
        assert err["error"] == "scenario-error"
        assert err["detail"].startswith(named)

    @pytest.mark.parametrize("mutate,named", [
        (lambda c: c["script"][6].update(at=1e10),
         "script[6].at: must be a finite time of at most 1.49997e+09 ms"),
        (lambda c: c["channels"][0].update(one_way_delay_ms=1e10),
         "channels[0].one_way_delay_ms: must be a number or a range"),
        (lambda c: (c.update(timeout_ms=1e10), c["channels"][0].update(drop_rate=0.5)),
         "timeout_ms: must be a number from 0 to the horizon of 100000 blocks"),
        # each within the horizon, but a request sent at 1e9 arrives 1e9 later
        (lambda c: (c["channels"][0].update(one_way_delay_ms=1e9),
                    c["script"][6].update(at=1e9)),
         "script[6].at: must be a finite time of at most 5e+08 ms"),
        (lambda c: c["script"][6].update(at=1e300),
         "script[6].at: must be a finite time of at most 1.49997e+09 ms"),
    ], ids=["at", "delay", "timeout", "at-plus-delay", "at-1e300"])
    def test_time_past_the_horizon_fails_fast(self, tmp_path, capsys, mutate, named):
        # the horizon is MAX_BLOCKS = 100,000 intervals of 15 s; each of these
        # once ran for about 666,670 blocks, and 1e300 never ended
        config = json.loads((SCENARIOS / "registration_and_revocation.json").read_text())
        mutate(config)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config))
        started = time.perf_counter()
        assert main(["scenario", str(path), "--out", str(tmp_path / "o")]) == 1
        assert time.perf_counter() - started < 1.0
        err = failure(capsys)
        assert err["error"] == "scenario-error"
        assert err["detail"].startswith(named)

    @pytest.mark.parametrize("expect,code", [(None, 0), ("absent", 0), ("timeout", 1)])
    def test_expect_may_be_null_absent_or_timeout(self, tmp_path, capsys, expect, code):
        config = json.loads((SCENARIOS / "registration_and_revocation.json").read_text())
        if expect == "absent":
            del config["script"][2]["expect"]
        else:
            config["script"][2]["expect"] = expect
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config))
        assert main(["scenario", str(path), "--out", str(tmp_path / "o")]) == code
        if code:   # a granted request expected to time out is a failed expectation
            err = capsys.readouterr().err.splitlines()
            assert err[0] == "request 1 (event 2): expected timeout, got grant"
            assert json.loads(err[-1])["error"] == "scenario-expectations-failed"

    def test_failed_expectation_gives_nonzero_exit(self, tmp_path, capsys):
        config = latency_bench_config("ground", seed=3, requests=2)
        config["script"][-1]["expect"] = "deny"  # a granted request
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config))
        assert main(["scenario", str(path), "--out", str(tmp_path / "o")]) == 1

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        config = latency_bench_config("satellite", seed=8, requests=10)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config))
        out_dir = tmp_path / "out"
        main(["scenario", str(path), "--out", str(out_dir)])
        first = {f.name: f.read_bytes() for f in out_dir.iterdir()}
        main(["scenario", str(path), "--out", str(out_dir)])
        second = {f.name: f.read_bytes() for f in out_dir.iterdir()}
        assert first == second

    def test_csv_summary_format(self, tmp_path, capsys):
        config = latency_bench_config("ground", seed=3, requests=2)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config))
        out_dir = tmp_path / "out"
        assert main(["scenario", str(path), "--out", str(out_dir),
                     "--format", "csv"]) == 0
        summary = (out_dir / "summary.csv").read_text()
        assert summary.startswith("key,value\n")

    def test_csv_and_text_summaries_give_the_same_rows(self, tmp_path, capsys):
        # a denial among the requests makes the steady-state mean fractional
        path = SCENARIOS / "registration_and_revocation.json"
        for fmt in ("csv", "text"):
            assert main(["scenario", str(path), "--out", str(tmp_path / fmt),
                         "--format", fmt]) == 0
        csv_lines = (tmp_path / "csv" / "summary.csv").read_text().splitlines()
        text_lines = (tmp_path / "text" / "summary.txt").read_text().splitlines()
        assert csv_lines[0] == "key,value"
        assert [tuple(line.split(",")) for line in csv_lines[1:]] == \
            [tuple(line.split(": ")) for line in text_lines]


class TestBench:
    def test_satellite_bench_reports_targets(self, tmp_path, capsys):
        out_dir = tmp_path / "bench"
        assert main(["bench", "--profile", "satellite", "--seed", "42",
                     "--out", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "steady_mean_ms: 250.0" in out
        assert "enforcement_overhead_ms: 9.0" in out
        summary = (out_dir / "summary.txt").read_text()
        assert "steady_mean_ms: 250" in summary

    def test_ground_bench(self, tmp_path, capsys):
        assert main(["bench", "--profile", "ground", "--seed", "42",
                     "--out", str(tmp_path / "bench")]) == 0
        assert "steady_mean_ms: 60.0" in capsys.readouterr().out


def demo_chain(tmp_path, capsys):
    """Path of the chain export written by ``capchain demo --seed 42``."""
    out_dir = tmp_path / "demo"
    main(["demo", "--seed", "42", "--out", str(out_dir)])
    capsys.readouterr()
    return out_dir / "chain.jsonl"


def replace_line(chain_file, index, edit):
    lines = chain_file.read_text().splitlines()
    lines[index] = edit(json.loads(lines[index]))
    chain_file.write_text("\n".join(lines) + "\n")


def failure(capsys):
    return json.loads(capsys.readouterr().err.strip())


BAD_BLOCK_LINES = {
    "not-an-object": lambda body: "[1,2]",
    "missing-key": lambda body: json.dumps({k: v for k, v in body.items() if k != "digest"}),
    "non-list-txs": lambda body: json.dumps({**body, "txs": 5}),
    "bad-sender-hex": lambda body: json.dumps(
        {**body, "txs": [{**body["txs"][0], "sender": "0x" + "zz" * 20}]}),
    "deep-nesting": lambda body: "[" * 100_000 + "]" * 100_000,
    "string-gas": lambda body: json.dumps(
        {**body, "txs": [{**body["txs"][0], "gas": str(body["txs"][0]["gas"])}]}),
}


class TestInspect:
    def test_inspect_replays_demo_chain(self, tmp_path, capsys):
        assert main(["inspect", str(demo_chain(tmp_path, capsys))]) == 0
        out = capsys.readouterr().out
        assert "zones:" in out and "tokens:" in out
        assert '"VZoneID": "zone-a"' in out

    def test_inspect_missing_file(self, tmp_path, capsys):
        assert main(["inspect", str(tmp_path / "nope.jsonl")]) == 1

    def test_inspect_detects_corruption(self, tmp_path, capsys):
        chain_file = demo_chain(tmp_path, capsys)

        def tamper(body):
            body["txs"][0]["args"] = ["tampered"]
            return json.dumps(body)

        replace_line(chain_file, 1, tamper)
        assert main(["inspect", str(chain_file)]) == 1
        assert failure(capsys)["error"] == "corrupt-chain"

    @pytest.mark.parametrize("case", sorted(BAD_BLOCK_LINES))
    def test_inspect_rejects_line_that_is_not_a_block(self, tmp_path, capsys, case):
        chain_file = demo_chain(tmp_path, capsys)
        replace_line(chain_file, 1, BAD_BLOCK_LINES[case])
        assert main(["inspect", str(chain_file)]) == 1
        err = failure(capsys)
        assert err["error"] == "invalid-chain-file"
        assert err["detail"].startswith("line 2: ")

    def test_inspect_rejects_file_that_is_not_utf8(self, tmp_path, capsys):
        chain_file = tmp_path / "chain.jsonl"
        chain_file.write_bytes(b"\xff\xfe\n")
        assert main(["inspect", str(chain_file)]) == 1
        assert failure(capsys)["error"] == "invalid-chain-file"

    def test_inspect_rejects_malformed_supervisor(self, tmp_path, capsys):
        chain_file = demo_chain(tmp_path, capsys)
        assert main(["inspect", str(chain_file), "--supervisor", "0x12"]) == 1
        assert failure(capsys)["error"] == "invalid-supervisor"

    def test_inspect_rejects_resealed_forged_gas(self, tmp_path, capsys):
        chain_file = demo_chain(tmp_path, capsys)
        blocks = read_chain(io.StringIO(chain_file.read_text()))
        blocks = reseal(blocks, 1, change_first_tx(gas_used=1))
        chain_file.write_text("".join(canonical_json(reference_block_wire(b)) + "\n"
                                       for b in blocks))
        assert main(["inspect", str(chain_file)]) == 1
        err = failure(capsys)
        assert err["error"] == "corrupt-chain"
        assert "height 1" in err["detail"]


def test_full_refetch_sync_gives_the_same_artifacts(tmp_path, capsys, monkeypatch):
    def run(label):
        out = tmp_path / label
        assert main(["scenario", str(SCENARIOS / "registration_and_revocation.json"),
                     "--out", str(out / "scenario")]) == 0
        assert main(["demo", "--seed", "42", "--out", str(out / "demo")]) == 0
        files = {f.relative_to(out): f.read_bytes() for f in out.rglob("*") if f.is_file()}
        return files, capsys.readouterr().out.replace(str(out), "")

    change_driven = run("change-driven")
    monkeypatch.setattr(TokenCache, "sync", full_refetch_sync)
    assert run("full-refetch") == change_driven


# sha256 of every file each command writes, as computed before the scenario
# parser was rewritten; every CLI artifact must stay byte-identical
CLI_ARTIFACT_SHA256 = {
    ("scenario", "text"): {
        "chain.jsonl": "4f455f7fd3f34bd88269cace5ed8eef73af556928d2bb8763054267a69f634a5",
        "gas_report.csv": "18186644b88a4642541c7d95c1782fad127c5b53782695258a1118a118e51ca4",
        "measurements.csv": "57942989252a471d57bc228c312231b064dd249fb8a4dccf0ac5f155ae5f4b3a",
        "stage_traces.csv": "8e5216e92a98f320043ac72bfbc2ffcd2da638d043bc8ddbe62e90829a1cdb3a",
        "summary.txt": "33c7ac0f84fb4137c908bd934f9fb10cb3944b9e75e490fbfc5c2574fc47b185",
    },
    ("scenario", "csv"): {
        "chain.jsonl": "4f455f7fd3f34bd88269cace5ed8eef73af556928d2bb8763054267a69f634a5",
        "gas_report.csv": "18186644b88a4642541c7d95c1782fad127c5b53782695258a1118a118e51ca4",
        "measurements.csv": "57942989252a471d57bc228c312231b064dd249fb8a4dccf0ac5f155ae5f4b3a",
        "stage_traces.csv": "8e5216e92a98f320043ac72bfbc2ffcd2da638d043bc8ddbe62e90829a1cdb3a",
        "summary.csv": "740d619f5744adc18bb4acd23a8fd76a6963e506f65b319353d4476b21916837",
    },
    ("demo",): {
        "chain.jsonl": "d804c995317ed168e07c821d4ce7ab22ba5a8f8df56c13bf3b598894933a9e65",
        "gas_report.csv": "8715bcaa9f1fe702de46767a84538b15f2ed0a533609cf9126c1de64c465473b",
    },
    ("bench", "satellite", "text"): {
        "chain.jsonl": "19892f69d4e925fcf4c31c176d8917deb1b37a2a392d91d2111c6be9f7af0853",
        "gas_report.csv": "2c2f780e0205539e4fd9e7831f354c75640739b0f1e67626a3dfaac5a08f90ae",
        "measurements.csv": "3e8ba4f678de385af6c030a0fc28b06e7ba1b8ab4d5f37399b99762fbd336409",
        "overhead_summary.txt":
            "50dae4a71abc31f738f428563dcbffc923335a8b6e13c3e44c259abbd1f22abe",
        "stage_traces.csv": "46380df1d5bcdea5679f2d0c6843961e35e7c951e7fd85e24a013affdcbe033f",
        "summary.txt": "31ee075bedb887e0738469c74ecc2bfb541310a98a4ffa366d773e7cca4abc68",
    },
    ("bench", "ground", "csv"): {
        "chain.jsonl": "19892f69d4e925fcf4c31c176d8917deb1b37a2a392d91d2111c6be9f7af0853",
        "gas_report.csv": "2c2f780e0205539e4fd9e7831f354c75640739b0f1e67626a3dfaac5a08f90ae",
        "measurements.csv": "338441914420dc287ac011ed01fd846ec9c7219304623466946d9639b8aa8a2d",
        "overhead_summary.txt":
            "fe584c27b718a2518f70a7fc3e0f02515b9d35f77cf8752947ad689a152286e4",
        "stage_traces.csv": "4c1b5f90dd5caa4756ff5b464159c24ff84e236064309903d7e24de20dd6069f",
        "summary.csv": "5a85981e2853df385e4ba40f7dfc8005c9a6c8b06d7a01cad0ad38539bd4bccb",
    },
}


def cli_command(case, out):
    if case[0] == "scenario":
        return ["scenario", str(SCENARIOS / "registration_and_revocation.json"),
                "--format", case[1], "--out", out]
    if case[0] == "demo":
        return ["demo", "--seed", "42", "--out", out]
    return ["bench", "--seed", "42", "--profile", case[1], "--format", case[2], "--out", out]


@pytest.mark.parametrize("case", sorted(CLI_ARTIFACT_SHA256), ids="-".join)
def test_cli_artifacts_are_pinned(tmp_path, capsys, case):
    out = tmp_path / "out"
    assert main(cli_command(case, str(out))) == 0
    written = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}
    assert written == CLI_ARTIFACT_SHA256[case]


def test_fresh_interpreters_write_identical_artifacts(tmp_path):
    # Addresses hash by identity and strings by PYTHONHASHSEED, so set and hash
    # order differ between processes; reruns in one process share both and
    # cannot show such an order leaking into an artifact.
    outputs = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"out-{hash_seed}"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-m", "capchain.cli", "scenario",
                        str(SCENARIOS / "registration_and_revocation.json"), "--out", str(out)],
                       env=env, check=True, capture_output=True)
        outputs.append({f.name: f.read_bytes() for f in out.iterdir()})
    assert sorted(outputs[0]) == ["chain.jsonl", "gas_report.csv", "measurements.csv",
                                  "stage_traces.csv", "summary.txt"]
    assert outputs[0] == outputs[1]
