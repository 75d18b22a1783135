"""Fuzz of the scenario parser through ``capchain scenario``.

Mutations of the sample scenario and of the benchmark workloads (at a small
scale) must either run and write the artifacts, or exit 1 with exactly one
``{"error","detail"}`` line; a ``scenario-error`` detail starts with the JSON
path of the field at fault. The CLI never raises.
"""

import contextlib
import copy
import io
import json
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from capchain.cli import main

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
