"""One measured repeat of a scenario, and the checks that make it count.

A repeat is what a ``capchain scenario`` user waits for, minus disk:
build the topology, run the script, render the five artifacts through the
writers the CLI uses. Then it replays the exported chain the way
``capchain inspect`` does and compares the replayed state digest with
the live one. Every call into the program goes through module attributes
(``netsim.summarize``, ``ledger.replay_chain``) so the tracer's wrappers
see them.
"""

from __future__ import annotations

import gc
import hashlib
import io
from dataclasses import dataclass, field
from time import perf_counter

from capchain import ledger, netsim
from capchain.tokens import TokenContract
from capchain.zones import ZoneContract

ARTIFACT_NAMES = ("measurements.csv", "stage_traces.csv", "summary.txt",
                  "chain.jsonl", "gas_report.csv")


def render_artifacts(simulation: netsim.Simulation,
                     result: netsim.SimulationResult) -> dict[str, str]:
    """The files ``capchain scenario`` writes (text format), rendered in memory."""
    measurements, traces, summary = io.StringIO(), io.StringIO(), io.StringIO()
    netsim.write_measurements_csv(result.measurements, measurements)
    netsim.write_stage_traces_csv(result.measurements, traces)
    netsim.write_summary_text(netsim.summarize(result.measurements), summary)
    return {
        "measurements.csv": measurements.getvalue(),
        "stage_traces.csv": traces.getvalue(),
        "summary.txt": summary.getvalue(),
        "chain.jsonl": simulation.chain.export_chain_text(),
        "gas_report.csv": simulation.chain.gas_report_text(),
    }


def artifact_sha256(artifacts: dict[str, str]) -> str:
    """One digest over all five artifacts, each framed by its name and length."""
    digest = hashlib.sha256()
    for name in ARTIFACT_NAMES:
        body = artifacts[name].encode("utf-8")
        digest.update(f"{name}\0{len(body)}\0".encode("ascii"))
        digest.update(body)
    return digest.hexdigest()


def replay(chain_text: str, supervisor) -> ledger.Chain:
    """The ``capchain inspect`` path: parse the export and re-apply it."""
    blocks = ledger.read_chain(io.StringIO(chain_text))

    def contracts():
        zones = ZoneContract(supervisor)
        return [zones, TokenContract(supervisor, zones)]

    return ledger.replay_chain(ledger.ChainConfig(supervisor=supervisor), blocks, contracts)


@dataclass
class Repeat:
    """Host timings, simulated counts and correctness misses of one repeat."""

    setup_s: float
    run_s: float
    artifacts_s: float
    replay_s: float
    requests: int
    blocks: int
    transactions: int
    sha256: str
    attempted: int
    failures: list[str] = field(default_factory=list)


def run_repeat(config: dict, check_receipts: bool = False) -> Repeat:
    """Time one repeat; the checks after each timed phase are not timed.

    ``attempted`` counts every scripted event plus the replay check and the
    artifact check; ``failures`` names each miss. ``check_receipts`` also
    requires every confirmed transaction to have succeeded, which costs a
    digest per transaction, so it runs once per workload rather than in
    every repeat.
    """
    gc.collect()
    t0 = perf_counter()
    simulation = netsim.Simulation(config)
    t1 = perf_counter()
    setup_height = simulation.chain.height
    result = simulation.run()
    t2 = perf_counter()
    artifacts = render_artifacts(simulation, result)
    t3 = perf_counter()
    replayed = replay(artifacts["chain.jsonl"], simulation.supervisor.vid)
    replayed_digest = replayed.state_digest()
    t4 = perf_counter()

    failures = list(result.expectation_failures)
    failures += [f"registration {r['vid']}: {r['status']}" for r in result.registrations
                 if r["status"] != "confirmed"]
    failures += [f"issuance {r['subject']}: {r['status']}" for r in result.issues
                 if r["status"] != "confirmed"]
    if replayed_digest != simulation.chain.state_digest():
        failures.append("replayed state digest differs from the live chain")
    if check_receipts:
        failures += _receipt_failures(simulation.chain)
    script = config.get("script", [])
    return Repeat(
        setup_s=t1 - t0, run_s=t2 - t1, artifacts_s=t3 - t2, replay_s=t4 - t3,
        requests=len(result.measurements),
        blocks=simulation.chain.height - setup_height,
        transactions=sum(len(b.transactions) for b in simulation.chain.blocks),
        sha256=artifact_sha256(artifacts),
        attempted=len(script) + 2,
        failures=failures,
    )


def _receipt_failures(chain: ledger.Chain) -> list[str]:
    """Transactions that were rejected or whose mutation reported no effect."""
    failures = []
    for block in chain.blocks:
        for tx in block.transactions:
            receipt = chain.get_receipt(tx.digest)
            if receipt is None or not receipt.ok or receipt.result is False:
                status = "missing" if receipt is None else receipt.error or receipt.result
                failures.append(f"tx {tx.op} at height {block.height}: {status}")
    return failures
