"""Fuzz of the scenario parser through ``capchain scenario``.

Mutations of the sample scenario and of the benchmark workloads (at a small
scale) must either run and write the artifacts, or exit 1 with exactly one
``{"error","detail"}`` line; a ``scenario-error`` detail starts with the JSON
path of the field at fault. The CLI never raises. The same mutations drive
``parse_script`` against ``reference_parse_script``, the parser it replaced.
"""

import contextlib
import copy
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capchain.cli import main
from capchain.netsim import run_scenario
from capchain.scenario import MAX_NESTING, ScenarioError, parse_script, parse_topology

from reference_models import reference_parse_script
from workloads import WORKLOADS

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
BASES = [json.loads((SCENARIOS / "registration_and_revocation.json").read_text())] + \
    [make(3, scale=0.01) for _, make in sorted(WORKLOADS.items())]
ARTIFACTS = ["gas_report.csv", "chain.jsonl", "measurements.csv", "stage_traces.csv",
             "summary.txt"]
JSON_PATH = re.compile(r"[A-Za-z_]\w*(\[\d+\])*(\.[A-Za-z_]\w*(\[\d+\])*)*: ")


def locations(config):
    """Every ``(keys, value)`` below the top level, shallowest first."""
    found, level = [], [((), config)]
    while level:
        deeper = []
        for keys, value in level:
            children = value.items() if isinstance(value, dict) else \
                enumerate(value) if isinstance(value, list) else ()
            deeper += [(keys + (key,), child) for key, child in children]
        found += deeper
        level = deeper
    return found


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def retyped(value):
    """Values of other JSON types; a number also becomes its numeric string.
    No small positive number: a 1 ms block interval is valid and slow."""
    others = [None, "x", 7, [], {}]
    if is_number(value):
        others.append(str(value))
    return [other for other in others if type(other) is not type(value)
            and not (is_number(other) and is_number(value))]


DROP = object()
MUTATIONS = {
    "drop": lambda value, data: DROP,
    "retype": lambda value, data: data.draw(st.sampled_from(retyped(value))),
    "wrap": lambda value, data: [value],
    "negate": lambda value, data: -value,
}


def mutate(config, data):
    kind = data.draw(st.sampled_from(sorted(MUTATIONS)))
    places = [(keys, value) for keys, value in locations(config)
              if kind != "negate" or is_number(value)]
    if not places:
        return
    keys, value = data.draw(st.sampled_from(places))
    parent = config
    for key in keys[:-1]:
        parent = parent[key]
    new = MUTATIONS[kind](value, data)
    if new is DROP:
        del parent[keys[-1]]
    else:
        parent[keys[-1]] = new


def run_cli(config):
    """Exit code, stderr lines and the names of the files written."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "scenario.json", Path(tmp) / "out"
        path.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["scenario", str(path), "--out", str(out)])
        written = sorted(f.name for f in out.iterdir()) if out.exists() else []
    return code, err.getvalue().splitlines(), written


@settings(max_examples=250, deadline=None)
@given(base=st.sampled_from(range(len(BASES))), count=st.integers(1, 2), data=st.data())
def test_mutated_scenario_runs_or_fails_with_one_error_line(base, count, data):
    config = copy.deepcopy(BASES[base])
    for _ in range(count):
        mutate(config, data)
    code, lines, written = run_cli(config)
    errors = [json.loads(line) for line in lines if line.startswith("{")]
    if code == 0:
        assert errors == [] and written == sorted(ARTIFACTS)
        return
    assert code == 1 and len(errors) == 1 and set(errors[0]) == {"error", "detail"}
    error = errors[0]
    # a failed expectation is a finished run: its artifacts are written
    assert written == (sorted(ARTIFACTS) if error["error"] == "scenario-expectations-failed"
                       else [])
    if error["error"] == "scenario-error":
        assert JSON_PATH.match(error["detail"]), error["detail"]


def test_unmutated_bases_run():
    for config in BASES:
        code, lines, written = run_cli(copy.deepcopy(config))
        assert (code, lines, written) == (0, [], sorted(ARTIFACTS))


def reversed_names(config):
    """The config with every node name spelt backwards, so that a requester that
    sorted before its provider may now sort after it (channels key by sorted pair)."""
    for node in config["nodes"]:
        node["name"] = node["name"][::-1]
        node["members"] = [member[::-1] for member in node.get("members", [])]
    for channel in config["channels"]:
        channel["a"], channel["b"] = channel["a"][::-1], channel["b"][::-1]
    for event in config["script"]:
        for key in ("requester", "provider", "node", "master", "subject"):
            if key in event:
                event[key] = event[key][::-1]


def parsed(parse, script, topology):
    """``repr`` of the events (it tells ``-0.0`` from ``0.0``), or the error message."""
    try:
        return repr(parse(script, topology))
    except ScenarioError as exc:
        return f"ScenarioError: {exc}"


@settings(max_examples=300, deadline=None)
@given(base=st.sampled_from(["sample"] + sorted(WORKLOADS)), seed=st.integers(0, 2**16),
       scale=st.sampled_from([0.01, 0.02, 0.05]), reverse=st.booleans(),
       count=st.integers(0, 2), data=st.data())
def test_parse_script_equals_reference_on_mutated_scripts(base, seed, scale, reverse, count,
                                                          data):
    config = copy.deepcopy(BASES[0]) if base == "sample" else \
        WORKLOADS[base](seed, scale=scale)
    if reverse:
        reversed_names(config)
    topology = parse_topology(config)
    view = {"script": config["script"]}   # every mutation lands in the script
    for _ in range(count):
        mutate(view, data)
    script = view.get("script", [])
    assert parsed(parse_script, script, topology) == \
        parsed(reference_parse_script, script, topology)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_parse_script_equals_reference_on_full_workloads(name):
    config = WORKLOADS[name](7, scale=1)
    topology = parse_topology(config)
    assert repr(parse_script(config["script"], topology)) == \
        repr(reference_parse_script(config["script"], topology))


def nested(depth):
    """A list that nests ``depth`` levels deep: ``[[...[]...]]``."""
    value = []
    for _ in range(depth - 1):
        value = [value]
    return value


@pytest.mark.parametrize("key", ["rules", "attributes"])
@pytest.mark.parametrize("depth", [64, 65, 2000])
def test_unparsed_values_nest_within_the_bound(key, depth):
    # the two values the parser passes on unparsed; a library caller gets a
    # ScenarioError, not a RecursionError from encoding or reporting them
    config = copy.deepcopy(BASES[0])
    issue = next(event for event in config["script"] if event["op"] == "issue")
    event = {"at": issue["at"], "master": issue["master"]}
    if key == "rules":
        event.update(op="revoke_rules", subject=issue["subject"], rules=nested(depth))
    else:
        event.update(op="register", node=issue["subject"], attributes={"a": nested(depth - 1)})
    config["script"].append(event)
    index = len(config["script"]) - 1
    if depth <= MAX_NESTING:
        run_scenario(config)
    else:
        with pytest.raises(ScenarioError, match=re.escape(
                f"script[{index}].{key}: arrays and objects nest deeper than 64 levels")):
            run_scenario(config)
