import io
import json
from pathlib import Path

import pytest

from capchain.cli import main
from capchain.encoding import canonical_json
from capchain.enforcement import TokenCache
from capchain.ledger import read_chain
from capchain.netsim import latency_bench_config

from chainbench import change_first_tx, reseal
from reference_models import full_refetch_sync

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
RULE_GET = {"action": "GET", "resource": "/api/data", "conditions": []}


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
        chain_file.write_text("".join(canonical_json(b.wire()) + "\n" for b in blocks))
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
