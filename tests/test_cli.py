import json
from pathlib import Path

import pytest

from capchain.cli import main
from capchain.netsim import latency_bench_config

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


class TestInspect:
    def test_inspect_replays_demo_chain(self, tmp_path, capsys):
        out_dir = tmp_path / "demo"
        main(["demo", "--seed", "42", "--out", str(out_dir)])
        capsys.readouterr()
        assert main(["inspect", str(out_dir / "chain.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "zones:" in out and "tokens:" in out
        assert '"VZoneID": "zone-a"' in out

    def test_inspect_missing_file(self, tmp_path, capsys):
        assert main(["inspect", str(tmp_path / "nope.jsonl")]) == 1

    def test_inspect_detects_corruption(self, tmp_path, capsys):
        out_dir = tmp_path / "demo"
        main(["demo", "--seed", "42", "--out", str(out_dir)])
        capsys.readouterr()
        chain_file = out_dir / "chain.jsonl"
        lines = chain_file.read_text().splitlines()
        body = json.loads(lines[1])
        body["txs"][0]["args"] = ["tampered"]
        lines[1] = json.dumps(body)
        chain_file.write_text("\n".join(lines) + "\n")
        assert main(["inspect", str(chain_file)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "corrupt-chain"
