"""Self-tests of the benchmark: generators, CLI equivalence, layer dominance.

Run from the repository root with ``python3 -m pytest perfbench -q``.
Every check here is on counts and bytes, never on timings.
"""

import json
from pathlib import Path

import pytest

from capchain import cli, ledger, netsim
from capchain.encoding import canonical_json
from harness import ARTIFACT_NAMES, render_artifacts, run_repeat
from tracing import PER_LAYER_UNITS, Tracer
from workloads import WORKLOADS

SMALL = 0.05


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def small(request):
    name = request.param
    return name, WORKLOADS[name](7, SMALL)


@pytest.fixture(scope="module")
def traced(small):
    name, config = small
    tracer = Tracer()
    with tracer.installed():
        repeat = run_repeat(config)
    assert repeat.failures == []
    return name, repeat, tracer.layer_metrics(repeat.transactions)


def test_same_seed_gives_identical_scenario(small):
    name, config = small
    assert canonical_json(WORKLOADS[name](7, SMALL)) == canonical_json(config)


def test_different_seed_gives_different_scenario(small):
    name, config = small
    assert canonical_json(WORKLOADS[name](8, SMALL)) != canonical_json(config)


def test_cli_writes_the_bytes_the_benchmark_renders(small, tmp_path):
    name, config = small
    scenario = tmp_path / f"{name}.json"
    scenario.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["scenario", str(scenario), "--out", str(out)]) == 0
    simulation, result = netsim.run_scenario(config)
    rendered = render_artifacts(simulation, result)
    assert sorted(p.name for p in out.iterdir()) == sorted(ARTIFACT_NAMES)
    for artifact in ARTIFACT_NAMES:
        assert (out / artifact).read_bytes() == rendered[artifact].encode("utf-8"), artifact


def test_repeat_passes_every_check(small):
    _, config = small
    repeat = run_repeat(config, check_receipts=True)
    assert repeat.failures == []
    assert repeat.attempted == len(config["script"]) + 2


def test_a_wrong_expectation_is_a_failed_operation(small):
    _, config = small
    config = json.loads(json.dumps(config))
    request = next(e for e in config["script"] if e["op"] == "request")
    request["expect"] = "deny" if request["expect"] == "grant" else "grant"
    assert len(run_repeat(config).failures) == 1


def test_tracing_leaves_artifacts_and_entry_points_unchanged(small, traced):
    _, config = small
    _, repeat, _ = traced
    assert run_repeat(config).sha256 == repeat.sha256
    assert "wrapper" not in ledger.Chain.query_state.__code__.co_name
    assert ledger.Transaction.__dict__["digest"].fget.__qualname__ == "Transaction.digest"


def test_layer_dominance(traced):
    name, repeat, layers = traced
    authorize = layers["enforcement.authorize_calls"]
    refetches = layers["enforcement.sync_refetches"]
    assert authorize == repeat.requests
    if name == "hot_reads":
        assert authorize >= 5 * refetches
    elif name == "idle_sync":
        assert refetches >= 20 * authorize
        assert layers["enforcement.sync_useful_ratio"] == 0
    else:
        assert layers["enforcement.sync_useful_ratio"] >= 0.5
        assert repeat.transactions >= repeat.requests


def test_every_per_layer_metric_is_reported(traced):
    _, _, layers = traced
    assert set(layers) == set(PER_LAYER_UNITS)
    listed = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"] for m in listed["per_layer"]} == set(PER_LAYER_UNITS) | {
        "tracing_overhead_frac"}
