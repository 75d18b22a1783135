"""Command-line entry point: demos, scenarios, benchmarks, state inspection."""

from __future__ import annotations

import argparse
import io
import json
import sys
from pathlib import Path
from typing import Optional

from .address import Address
from .encoding import canonical_json
from .enforcement import ServiceRequest
from .ledger import ChainConfig, ChainFileError, CorruptChainError, read_chain, replay_chain
from .netsim import (Simulation, ac_overhead_ms, run_latency_bench, run_overhead_bench,
                     run_scenario, summarize, summary_rows, write_measurements_csv,
                     write_stage_traces_csv, write_summary_text)
from .scenario import ScenarioError
from .tokens import TokenContract
from .zones import ZoneContract


def _fail(message: str, detail: str = "") -> int:
    sys.stderr.write(canonical_json({"error": message, "detail": detail}) + "\n")
    return 1


def _ensure_out(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


def _write_run_artifacts(out: Path, simulation: Simulation, result, fmt: str) -> None:
    buffer = io.StringIO()
    write_measurements_csv(result.measurements, buffer)
    _write(out / "measurements.csv", buffer.getvalue())

    buffer = io.StringIO()
    write_stage_traces_csv(result.measurements, buffer)
    _write(out / "stage_traces.csv", buffer.getvalue())

    summary = summarize(result.measurements)
    buffer = io.StringIO()
    if fmt == "csv":
        buffer.write("key,value\n")
        for key, value in summary_rows(summary):
            buffer.write(f"{key},{value}\n")
    else:
        write_summary_text(summary, buffer)
    _write(out / ("summary.csv" if fmt == "csv" else "summary.txt"), buffer.getvalue())

    _write(out / "chain.jsonl", simulation.chain.export_chain_text())
    _write(out / "gas_report.csv", simulation.chain.gas_report_text())


def demo_config(seed: int, block_interval_ms: int) -> dict:
    """The five-node reference testbed: two satellites, a ground site,
    one domain master, one supervisor (who also owns a second zone for
    the cross-zone case)."""
    return {
        "seed": seed,
        "block_interval_ms": block_interval_ms,
        "nodes": [
            {"name": "supervisor", "role": "supervisor", "zone": "zone-b",
             "members": ["ground-provider"]},
            {"name": "master", "role": "master", "zone": "zone-a",
             "members": ["sat-client", "sat-provider"]},
            {"name": "sat-client", "role": "client", "profile": "satellite"},
            {"name": "sat-provider", "role": "satellite", "profile": "satellite",
             "services": ["/api/data"]},
            {"name": "ground-provider", "role": "ground", "profile": "ground",
             "services": ["/api/data"]},
        ],
        "channels": [
            {"name": "satcom-x", "a": "sat-client", "b": "sat-provider",
             "one_way_delay_ms": 5.0},
            {"name": "downlink", "a": "sat-client", "b": "ground-provider",
             "one_way_delay_ms": 3.75},
        ],
        "script": [
            {"at": 100, "op": "issue", "master": "master", "subject": "sat-client",
             "rules": [{"action": "GET", "resource": "/api/data", "conditions": []}],
             "validity_ms": 86_400_000},
            {"at": 2 * block_interval_ms, "op": "advance"},
        ],
    }


def run_demo(seed: int, block_interval_ms: int, out: Optional[str]) -> int:
    simulation, _ = run_scenario(demo_config(seed, block_interval_ms))
    now = 2 * block_interval_ms
    client = simulation.nodes["sat-client"].vid
    sat = simulation.providers["sat-provider"]
    ground = simulation.providers["ground-provider"]

    ok, reason = sat.authenticate(client)
    case1 = ("pass" if ok else "deny", reason or "same VZoneID")
    ok, reason = ground.authenticate(client)
    case2 = ("pass" if ok else "deny", reason or "same VZoneID")
    decision, _ = sat.authorize(ServiceRequest(client, "GET", "/api/data", now))
    case3 = ("pass" if decision.granted else "deny",
             "granted" if decision.granted else f"{decision.stage}/{decision.reason}")
    decision, _ = sat.authorize(ServiceRequest(client, "PUT", "/api/data", now))
    case4 = ("pass" if decision.granted else "deny",
             "granted" if decision.granted else f"{decision.stage}/{decision.reason}")

    rows = [
        ("same-zone authentication", "pass", *case1),
        ("cross-zone authentication", "deny", *case2),
        ("granted GET /api/data", "pass", *case3),
        ("ungranted PUT /api/data", "deny", *case4),
    ]
    width = max(len(r[0]) for r in rows)
    print(f"{'case':<{width}}  expected  actual  detail")
    for name, expected, actual, detail in rows:
        print(f"{name:<{width}}  {expected:<8}  {actual:<6}  {detail}")
    if out:
        directory = _ensure_out(out)
        _write(directory / "chain.jsonl", simulation.chain.export_chain_text())
        _write(directory / "gas_report.csv", simulation.chain.gas_report_text())
    failed = [r[0] for r in rows if r[1] != r[2]]
    if failed:
        return _fail("demo-case-mismatch", ", ".join(failed))
    return 0


def run_scenario_command(path: str, seed: Optional[int], block_interval_ms: Optional[int],
                         out: str, fmt: str) -> int:
    config_path = Path(path)
    if not config_path.exists():
        return _fail("file-not-found", str(config_path))
    try:
        config = json.loads(config_path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8; deep nesting
        return _fail("invalid-scenario-file", str(exc))
    if not isinstance(config, dict):
        return _fail("invalid-scenario-file",
                     f"top level must be an object, got {type(config).__name__}")
    if seed is not None:
        config["seed"] = seed
    if block_interval_ms is not None:
        config["block_interval_ms"] = block_interval_ms
    if "seed" not in config:
        return _fail("seed-required", "pass --seed or set 'seed' in the scenario file")
    try:
        simulation, result = run_scenario(config)
    except ScenarioError as exc:
        return _fail("scenario-error", str(exc))
    directory = _ensure_out(out)
    _write_run_artifacts(directory, simulation, result, fmt)
    print(f"requests: {len(result.measurements)}  "
          f"expectation failures: {len(result.expectation_failures)}")
    print(f"artifacts written to {directory}")
    if result.expectation_failures:
        for failure in result.expectation_failures:
            sys.stderr.write(failure + "\n")
        return _fail("scenario-expectations-failed",
                     f"{len(result.expectation_failures)} failed")
    return 0


def run_bench(profile: str, seed: int, requests: int, out: str, fmt: str) -> int:
    simulation, result = run_latency_bench(profile, seed, requests)
    directory = _ensure_out(out)
    _write_run_artifacts(directory, simulation, result, fmt)
    summary = summarize(result.measurements)
    with_ac, without_ac = run_overhead_bench(seed, requests)
    overhead = ac_overhead_ms(with_ac.measurements, without_ac.measurements)
    lines = [
        f"profile: {profile}",
        f"steady_mean_ms: {summary['steady_mean_ms']}",
        f"steady_ac_share: {summary['steady_ac_share']}",
        f"first_request_ms: {summary['first_request_ms']}",
        f"cache_hits: {summary['cache_hits']} of {summary['requests']}",
        f"enforcement_overhead_ms: {overhead}",
    ]
    _write(directory / "overhead_summary.txt", "\n".join(lines) + "\n")
    for line in lines:
        print(line)
    return 0


def run_inspect(path: str, supervisor_hex: Optional[str]) -> int:
    chain_path = Path(path)
    if not chain_path.exists():
        return _fail("file-not-found", str(chain_path))
    with open(chain_path, encoding="utf-8") as handle:
        try:
            blocks = read_chain(handle)
        except (ChainFileError, UnicodeDecodeError) as exc:
            return _fail("invalid-chain-file", str(exc))
    if supervisor_hex:
        try:
            supervisor = Address.from_hex(supervisor_hex)
        except ValueError as exc:
            return _fail("invalid-supervisor", str(exc))
    else:
        # the bootstrap allowlist transaction is always first and always
        # sent by the supervisor
        senders = [tx.sender for block in blocks for tx in block.transactions]
        if not senders:
            return _fail("supervisor-required",
                         "chain has no transactions; pass --supervisor")
        supervisor = senders[0]

    def contracts():
        zones = ZoneContract(supervisor)
        return [zones, TokenContract(supervisor, zones)]

    try:
        chain = replay_chain(ChainConfig(supervisor=supervisor), blocks, contracts)
    except CorruptChainError as exc:
        return _fail("corrupt-chain", str(exc))
    tx_count = sum(len(b.transactions) for b in blocks)
    print(f"height: {chain.height}  blocks: {len(blocks)}  transactions: {tx_count}")
    print(f"supervisor: {supervisor.hex}")
    print("zones:")
    print(json.dumps(chain.contract("vzone").dump_state(), indent=2, sort_keys=True))
    print("tokens:")
    print(json.dumps(chain.contract("captoken").dump_state(), indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capchain",
        description="Zone-authenticated capability access control on a simulated chain")
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run the five-node reference demo")
    demo.add_argument("--seed", type=int, required=True)
    demo.add_argument("--block-interval-ms", type=int, default=15000)
    demo.add_argument("--out", default=None)

    scenario = sub.add_parser("scenario", help="run a scenario file and emit reports")
    scenario.add_argument("file")
    scenario.add_argument("--seed", type=int, default=None)
    scenario.add_argument("--block-interval-ms", type=int, default=None)
    scenario.add_argument("--out", default="capchain-out")
    scenario.add_argument("--format", choices=("csv", "text"), default="text")

    bench = sub.add_parser("bench", help="latency benchmark for a processing profile")
    bench.add_argument("--profile", choices=("satellite", "ground"), default="satellite")
    bench.add_argument("--seed", type=int, required=True)
    bench.add_argument("--requests", type=int, default=100)
    bench.add_argument("--out", default="capchain-out")
    bench.add_argument("--format", choices=("csv", "text"), default="text")

    inspect = sub.add_parser("inspect", help="replay a chain export and dump state")
    inspect.add_argument("file")
    inspect.add_argument("--supervisor", default=None)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "demo":
        return run_demo(args.seed, args.block_interval_ms, args.out)
    if args.command == "scenario":
        return run_scenario_command(args.file, args.seed, args.block_interval_ms,
                                    args.out, args.format)
    if args.command == "bench":
        return run_bench(args.profile, args.seed, args.requests, args.out, args.format)
    if args.command == "inspect":
        return run_inspect(args.file, args.supervisor)
    return 2


if __name__ == "__main__":
    sys.exit(main())
