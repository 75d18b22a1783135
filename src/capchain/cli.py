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
from .enforcement import ServiceProvider, ServiceRequest
from .ledger import ChainConfig, ChainFileError, CorruptChainError, read_chain, replay_chain
from .netsim import (MAX_BENCH_REQUESTS, PROFILE_DELAYS, Simulation, ac_overhead_ms,
                     run_latency_bench, run_overhead_bench, run_scenario, summarize, summary_rows,
                     write_measurements_csv, write_stage_traces_csv, write_summary_text)
from .scenario import MAX_NESTING, ScenarioError, nests_deeper
from .tokens import TokenContract, contracts
from .zones import ZoneContract


def _fail(message: str, detail: str = "") -> int:
    sys.stderr.write(canonical_json({"error": message, "detail": detail}) + "\n")
    return 1


def _write_out(out: str, files: dict[str, str]) -> Optional[int]:
    """Write ``files`` into the directory ``out``, made if missing; the exit code
    of an ``invalid-out`` failure if that cannot be done."""
    try:
        directory = Path(out)
        directory.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (directory / name).write_text(text, encoding="utf-8")
    except OSError as exc:
        return _fail("invalid-out", str(exc))
    return None


def _run_artifacts(simulation: Simulation, result, summary: dict, fmt: str) -> dict[str, str]:
    """The texts of the five files a run writes, by file name; ``summary`` is
    ``summarize`` of the run's rows."""
    measurements, traces, summary_text = io.StringIO(), io.StringIO(), io.StringIO()
    write_measurements_csv(result.measurements, measurements)
    write_stage_traces_csv(result.measurements, traces)
    if fmt == "csv":
        summary_text.write("key,value\n")
        for key, value in summary_rows(summary):
            summary_text.write(f"{key},{value}\n")
    else:
        write_summary_text(summary, summary_text)
    return {
        "measurements.csv": measurements.getvalue(),
        "stage_traces.csv": traces.getvalue(),
        "summary.csv" if fmt == "csv" else "summary.txt": summary_text.getvalue(),
        "chain.jsonl": simulation.chain.export_chain_text(),
        "gas_report.csv": simulation.chain.gas_report_text(),
    }


#: How long the demo's token is valid. Its requests run at twice the block
#: interval, so a longer interval than half of this would find the token expired.
DEMO_TOKEN_VALIDITY_MS = 86_400_000
MAX_DEMO_BLOCK_INTERVAL_MS = DEMO_TOKEN_VALIDITY_MS // 2


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
             "one_way_delay_ms": PROFILE_DELAYS["satellite"]},
            {"name": "downlink", "a": "sat-client", "b": "ground-provider",
             "one_way_delay_ms": PROFILE_DELAYS["ground"]},
        ],
        "script": [
            {"at": 100, "op": "issue", "master": "master", "subject": "sat-client",
             "rules": [{"action": "GET", "resource": "/api/data", "conditions": []}],
             "validity_ms": DEMO_TOKEN_VALIDITY_MS},
            {"at": 2 * block_interval_ms, "op": "advance"},
        ],
    }


def _authenticated(provider: ServiceProvider, client: Address) -> tuple[str, str]:
    """A demo case's outcome and detail: ``provider`` authenticates ``client``."""
    reason = provider.authenticate(client)
    return ("pass", "same VZoneID") if reason is None else ("deny", reason)


def _authorized(provider: ServiceProvider, client: Address, method: str,
                now: int) -> tuple[str, str]:
    """A demo case's outcome and detail: ``provider`` authorizes a ``method``
    request of ``/api/data`` by ``client`` at ``now``."""
    decision, _ = provider.authorize(ServiceRequest(client, method, "/api/data", now))
    if decision.granted:
        return "pass", "granted"
    return "deny", f"{decision.stage}/{decision.reason}"


def run_demo(seed: int, block_interval_ms: int, out: Optional[str]) -> int:
    if block_interval_ms > MAX_DEMO_BLOCK_INTERVAL_MS:
        return _fail("invalid-block-interval",
                     f"--block-interval-ms must be at most {MAX_DEMO_BLOCK_INTERVAL_MS}, half "
                     f"the demo token's {DEMO_TOKEN_VALIDITY_MS} ms validity; "
                     f"got {block_interval_ms}")
    try:
        simulation, _ = run_scenario(demo_config(seed, block_interval_ms))
    except ScenarioError as exc:
        return _fail("scenario-error", str(exc))
    now = 2 * block_interval_ms
    client = simulation.nodes["sat-client"].vid
    sat = simulation.providers["sat-provider"]
    ground = simulation.providers["ground-provider"]

    rows = [
        ("same-zone authentication", "pass", *_authenticated(sat, client)),
        ("cross-zone authentication", "deny", *_authenticated(ground, client)),
        ("granted GET /api/data", "pass", *_authorized(sat, client, "GET", now)),
        ("ungranted PUT /api/data", "deny", *_authorized(sat, client, "PUT", now)),
    ]
    width = max(len(r[0]) for r in rows)
    print(f"{'case':<{width}}  expected  actual  detail")
    for name, expected, actual, detail in rows:
        print(f"{name:<{width}}  {expected:<8}  {actual:<6}  {detail}")
    if out:
        error = _write_out(out, {"chain.jsonl": simulation.chain.export_chain_text(),
                                 "gas_report.csv": simulation.chain.gas_report_text()})
        if error:
            return error
    failed = [r[0] for r in rows if r[1] != r[2]]
    if failed:
        return _fail("demo-case-mismatch", ", ".join(failed))
    return 0


def run_scenario_command(file: str, seed: Optional[int], block_interval_ms: Optional[int],
                         out: str, fmt: str) -> int:
    config_path = Path(file)
    if not config_path.exists():
        return _fail("file-not-found", str(config_path))
    try:
        config = json.loads(config_path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # a directory; bad JSON or UTF-8
        return _fail("invalid-scenario-file", str(exc))
    if not isinstance(config, dict):
        return _fail("invalid-scenario-file",
                     f"top level must be an object, got {type(config).__name__}")
    if nests_deeper(config, MAX_NESTING):
        return _fail("invalid-scenario-file",
                     f"arrays and objects nest deeper than {MAX_NESTING} levels")
    if seed is not None:
        config["seed"] = seed
    if block_interval_ms is not None:
        config["block_interval_ms"] = block_interval_ms
    if "seed" not in config:
        return _fail("seed-required", "pass --seed or set 'seed' in the scenario file")
    try:
        simulation = Simulation(config)
        del config   # the run parses the script, then holds no more of the file
        result = simulation.run()
    except ScenarioError as exc:
        return _fail("scenario-error", str(exc))
    error = _write_out(out, _run_artifacts(simulation, result,
                                           summarize(result.measurements), fmt))
    if error:
        return error
    print(f"requests: {len(result.measurements)}  "
          f"expectation failures: {len(result.expectation_failures)}")
    print(f"artifacts written to {Path(out)}")
    if result.expectation_failures:
        for failure in result.expectation_failures:
            sys.stderr.write(failure + "\n")
        return _fail("scenario-expectations-failed",
                     f"{len(result.expectation_failures)} failed")
    return 0


def run_bench(profile: str, seed: int, requests: int, out: str, fmt: str) -> int:
    if not 1 <= requests <= MAX_BENCH_REQUESTS:   # before a request is built
        return _fail("invalid-requests", f"--requests must be at least 1 and at most "
                     f"{MAX_BENCH_REQUESTS}, got {requests}")
    simulation, result = run_latency_bench(profile, seed, requests)
    summary = summarize(result.measurements)
    files = _run_artifacts(simulation, result, summary, fmt)
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
    files["overhead_summary.txt"] = "\n".join(lines) + "\n"
    error = _write_out(out, files)
    if error:
        return error
    for line in lines:
        print(line)
    return 0


def run_inspect(file: str, supervisor_hex: Optional[str]) -> int:
    chain_path = Path(file)
    if not chain_path.exists():
        return _fail("file-not-found", str(chain_path))
    try:
        with open(chain_path, encoding="utf-8") as handle:
            blocks = read_chain(handle)
    except (OSError, ChainFileError, UnicodeDecodeError) as exc:  # OSError: a directory
        return _fail("invalid-chain-file", str(exc))
    # canonical args text nests no deeper than it has opening brackets, so only
    # a text with more than the bound is decoded and walked
    deep = [tx.args_text for block in blocks for tx in block.transactions
            if tx.args_text.count("[") + tx.args_text.count("{") > MAX_NESTING]
    if any(nests_deeper(json.loads(text), MAX_NESTING) for text in deep):
        return _fail("invalid-chain-file",
                     f"transaction args nest arrays and objects deeper than {MAX_NESTING} levels")
    if supervisor_hex:
        try:
            supervisor = Address.from_hex(supervisor_hex)
        except ValueError as exc:
            return _fail("invalid-supervisor", str(exc))
    else:
        # the supervisor sends the first transaction of the bootstrap block
        # (height 1); a later block's first sender may be anyone
        bootstrap = blocks[1].transactions if len(blocks) > 1 else ()
        if not bootstrap:
            return _fail("supervisor-required",
                         "bootstrap block has no transactions; pass --supervisor")
        supervisor = bootstrap[0].sender
    try:
        chain = replay_chain(ChainConfig(supervisor=supervisor), blocks,
                             lambda: contracts(supervisor))
    except CorruptChainError as exc:
        return _fail("corrupt-chain", str(exc))
    tx_count = sum(len(b.transactions) for b in blocks)
    print(f"height: {chain.height}  blocks: {len(blocks)}  transactions: {tx_count}")
    print(f"supervisor: {supervisor.hex}")
    print("zones:")
    print(json.dumps(chain.contract(ZoneContract.name).dump_state(), indent=2, sort_keys=True))
    print("tokens:")
    print(json.dumps(chain.contract(TokenContract.name).dump_state(), indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capchain",
        description="Zone-authenticated capability access control on a simulated chain")
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run the five-node reference demo")
    demo.set_defaults(run=run_demo)
    demo.add_argument("--seed", type=int, required=True)
    demo.add_argument("--block-interval-ms", type=int, default=15000)
    demo.add_argument("--out", default=None)

    scenario = sub.add_parser("scenario", help="run a scenario file and emit reports")
    scenario.set_defaults(run=run_scenario_command)
    scenario.add_argument("file")
    scenario.add_argument("--seed", type=int, default=None)
    scenario.add_argument("--block-interval-ms", type=int, default=None)
    scenario.add_argument("--out", default="capchain-out")
    scenario.add_argument("--format", dest="fmt", choices=("csv", "text"), default="text")

    bench = sub.add_parser("bench", help="latency benchmark for a processing profile")
    bench.set_defaults(run=run_bench)
    bench.add_argument("--profile", choices=("satellite", "ground"), default="satellite")
    bench.add_argument("--seed", type=int, required=True)
    bench.add_argument("--requests", type=int, default=100)
    bench.add_argument("--out", default="capchain-out")
    bench.add_argument("--format", dest="fmt", choices=("csv", "text"), default="text")

    inspect = sub.add_parser("inspect", help="replay a chain export and dump state")
    inspect.set_defaults(run=run_inspect)
    inspect.add_argument("file")
    inspect.add_argument("--supervisor", dest="supervisor_hex", metavar="SUPERVISOR")

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = vars(build_parser().parse_args(argv))
    del args["command"]
    # each subcommand binds its function, whose parameters are its arguments' names
    return args.pop("run")(**args)


if __name__ == "__main__":
    sys.exit(main())
