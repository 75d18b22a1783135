"""Fuzz of the scenario parser through ``capchain scenario``.

Mutations of the sample scenario and of the benchmark workloads (at a small
scale) must either run and write the artifacts, or exit 1 with exactly one
``{"error","detail"}`` line; a ``scenario-error`` detail starts with the JSON
path of the field at fault. The CLI never raises. The same mutations drive
``parse_script`` against ``reference_parse_script``, the parser it replaced,
and generated topologies with one or two bad fields drive ``parse_topology``
against ``reference_parse_topology``.
"""

import contextlib
import copy
import gc
import io
import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capchain.cli import main
from capchain.netsim import Simulation, run_scenario
from capchain.scenario import (COSTS, MAX_NESTING, PROFILES, Request, ScenarioError,
                               parse_script, parse_topology)

from reference_models import reference_parse_script, reference_parse_topology
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


def reference_events(script, topology):
    """``reference_parse_script`` with each request as the plain tuple of its
    fields that ``parse_script`` builds; the other events stay named tuples."""
    return [tuple(event) if type(event) is Request else event
            for event in reference_parse_script(script, topology)]


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
        parsed(reference_events, script, topology)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_parse_script_equals_reference_on_full_workloads(name):
    config = WORKLOADS[name](7, scale=1)
    topology = parse_topology(config)
    assert repr(parse_script(config["script"], topology)) == \
        repr(reference_events(config["script"], topology))


# Each token event and the register event of the sample, with one node it names
# unknown, not a string or unhashable, or the issue's validity_ms of each JSON type
# the parser converts or refuses.
NODE_FIELDS = [("register", "node"), ("register", "master"), *[
    (op, key) for op in ("issue", "revoke", "revoke_rules", "suspend", "restore")
    for key in ("master", "subject")]]
BAD_NAMES = ["nobody", "", 5, None, True, ["client"], {"name": "client"}]
VALIDITIES = [True, -1, "5", "-1", 1.5, json.loads("1e400"), None, 0, "x"]


def sample_event(op):
    """The sample's event of ``op``; the token changes but revoke are written in."""
    config = copy.deepcopy(BASES[0])
    event = next((event for event in config["script"] if event["op"] == op), None)
    if event is None:
        event = {"at": 34000, "op": op, "master": "master", "subject": "client"}
        if op == "revoke_rules":
            event["rules"] = [{"action": "GET", "resource": "/api/data"}]
        config["script"].append(event)
    return config, event


@pytest.mark.parametrize("value", BAD_NAMES, ids=repr)
@pytest.mark.parametrize("op, key", NODE_FIELDS)
def test_parse_script_equals_reference_on_bad_node_names(op, key, value):
    config, event = sample_event(op)
    event[key] = value
    topology = parse_topology(config)
    expected = parsed(reference_events, config["script"], topology)
    assert expected.startswith("ScenarioError: ")
    assert parsed(parse_script, config["script"], topology) == expected


def test_parse_script_equals_reference_on_a_register_with_a_non_master():
    config, event = sample_event("register")
    event["master"] = "provider"
    topology = parse_topology(config)
    expected = parsed(reference_events, config["script"], topology)
    assert expected == "ScenarioError: script[0].master: 'provider' is not a master"
    assert parsed(parse_script, config["script"], topology) == expected


@pytest.mark.parametrize("value", VALIDITIES, ids=repr)
def test_parse_script_equals_reference_on_validity_ms(value):
    config, event = sample_event("issue")
    event["validity_ms"] = value
    topology = parse_topology(config)
    assert parsed(parse_script, config["script"], topology) == \
        parsed(reference_events, config["script"], topology)


def nested(depth, container=list):
    """A list (or ``container``) that nests ``depth`` levels deep: ``[[...[]...]]``."""
    value = container()
    for _ in range(depth - 1):
        value = container([value])
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


# -- the topology parser against the one it replaced ------------------------------

NAMES = st.text(alphabet="abz-09", min_size=1, max_size=4)
VIDS = st.binary(min_size=20, max_size=20).map(lambda raw: "0x" + raw.hex())
MS = st.one_of(st.integers(0, 500), st.floats(0, 500, allow_nan=False), st.just(-0.0))
PROFILE_VALUES = st.one_of(
    st.sampled_from([None, *PROFILES]),
    st.dictionaries(st.sampled_from(COSTS), MS, max_size=3))


@st.composite
def topologies(draw):
    """A topology that both parsers accept: a supervisor, masters owning zones,
    providers and clients under generated names, and channels between distinct
    pairs, some with ``a`` and ``b`` in reverse order. Vids are lower-case hex,
    which both parsers keep as the same text."""
    masters, providers, clients = (draw(st.integers(1, 2)), draw(st.integers(0, 3)),
                                   draw(st.integers(0, 3)))
    names = draw(st.lists(NAMES, min_size=1 + masters + providers + clients,
                          max_size=1 + masters + providers + clients, unique=True))
    nodes = [{"name": names[0], "role": "supervisor"}]
    if draw(st.booleans()):
        nodes[0]["zone"] = "zone-s"
    for k, name in enumerate(names[1:1 + masters]):
        nodes.append({"name": name, "role": "master", "zone": f"zone-{k}",
                      "members": draw(st.lists(st.sampled_from(names), max_size=3))})
    for name in names[1 + masters:1 + masters + providers]:
        nodes.append({"name": name, "role": draw(st.sampled_from(["satellite", "ground"])),
                      "profile": draw(PROFILE_VALUES),
                      "services": draw(st.lists(st.sampled_from(["/a", "/b/c", "/"]),
                                                max_size=2)),
                      "location": draw(st.sampled_from(["", "orbit-a"]))})
    for name in names[1 + masters + providers:]:
        nodes.append({"name": name, "role": "client"})
        if draw(st.booleans()):
            nodes[-1]["profile"] = draw(PROFILE_VALUES)
    for node in nodes:   # spelt out, the defaults are fields that a mutation can hit
        if draw(st.booleans()):
            for key, default in (("zone", ""), ("services", []), ("members", []),
                                 ("location", ""), ("profile", None)):
                node.setdefault(key, default)
    nodes = draw(st.permutations(nodes))
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    channels = []
    for a, b in draw(st.lists(st.sampled_from(pairs), unique=True, max_size=6)):
        if draw(st.booleans()):
            a, b = b, a
        low, high = sorted([draw(MS), draw(MS)])
        channel = {"a": a, "b": b, "one_way_delay_ms": draw(st.sampled_from(
            [low, [low, high]]))}
        if draw(st.booleans()):
            channel["drop_rate"] = draw(st.one_of(
                st.floats(0, 0.99), st.sampled_from([0, -0.0, "0.25"])))
        channels.append(channel)
    config = {"seed": draw(st.integers(0, 2**32)), "nodes": nodes, "channels": channels}
    for key, values in (("block_interval_ms", st.integers(1, 20000)),
                        ("timeout_ms", st.integers(0, 40000)),
                        ("access_control", st.booleans())):
        if draw(st.booleans()):
            config[key] = draw(values)
    if draw(st.booleans()):
        config["registration_policy"] = {
            "kind": draw(st.sampled_from(["allow_all", "allowlist", "denylist", "attribute"])),
            "vids": draw(st.lists(VIDS, max_size=3)),
            "required_attributes": draw(st.dictionaries(NAMES, NAMES, max_size=2))}
    return config


#: Values of the wrong type or range for some field: JSON booleans, null, the
#: non-finite floats, numeric strings, negatives, lists, objects and NUL strings.
BAD_VALUES = [True, False, None, math.nan, math.inf, -math.inf, "7", "2.5", "-3", -1, -0.5,
              0, "", "a\0b", [], ["x"], {}, {"x": 1}, "satellite", "master", "supervisor"]


def bad_field(config, data):
    """Give one field a bad value, drop it, or wrap it in a list."""
    keys, value = data.draw(st.sampled_from(locations(config)))
    parent = config
    for key in keys[:-1]:
        parent = parent[key]
    own = [value + "\0"] * 4 if isinstance(value, str) else []   # a NUL in this very text
    new = data.draw(st.sampled_from(BAD_VALUES + [DROP, [value]] + own))
    if new is DROP:
        del parent[keys[-1]]
    else:
        parent[keys[-1]] = new


def shape_fault(config, data):
    """A fault in the topology's shape: a duplicate name, zone or channel (the
    copy maybe with ``a`` and ``b`` reversed), an unknown or unhashable member or
    endpoint, a NUL in a node's text, or no supervisor or two. Nothing changes
    once ``bad_field`` has broken the node or channel list itself."""
    nodes, channels = config.get("nodes"), config.get("channels")
    if not (isinstance(nodes, list) and isinstance(channels, list) and nodes
            and all(isinstance(item, dict) for item in nodes + channels)):
        return
    node = data.draw(st.sampled_from(nodes))
    fault = data.draw(st.sampled_from(["name", "zone", "channel", "member", "endpoint",
                                       "unhashable", "nul", "no-supervisor", "supervisors"]))
    if fault == "name":
        node["name"] = data.draw(st.sampled_from(nodes)).get("name")
    elif fault == "zone":
        owners = [each for each in nodes if each.get("role") in ("master", "supervisor")]
        node = data.draw(st.sampled_from(owners or nodes))
        node["zone"] = data.draw(st.sampled_from(
            [each["zone"] for each in nodes if each is not node and each.get("zone")]
            + ["zone-x"]))
    elif fault == "channel" and channels:
        copied = dict(data.draw(st.sampled_from(channels)))
        if data.draw(st.booleans()):
            copied["a"], copied["b"] = copied.get("b"), copied.get("a")
        channels.insert(data.draw(st.integers(0, len(channels))), copied)
    elif fault == "member":
        members = node.get("members")
        node["members"] = (members if isinstance(members, list) else []) + [
            data.draw(st.sampled_from(["ghost", 5, ["x"]]))]
    elif fault == "endpoint" and channels:
        data.draw(st.sampled_from(channels))[data.draw(st.sampled_from("ab"))] = "ghost"
    elif fault == "unhashable":
        target = data.draw(st.sampled_from([node] + channels))
        key = "name" if target is node else data.draw(st.sampled_from("ab"))
        target[key] = data.draw(st.sampled_from([[target.get(key)], {"x": target.get(key)}]))
    elif fault == "nul":
        key = data.draw(st.sampled_from(["name", "zone", "location", "services", "members"]))
        text = "/\0" if key == "services" else f"{node.get('name')}\0"
        node[key] = [text] if key in ("services", "members") else text
    elif fault == "no-supervisor":
        for each in nodes:
            if each.get("role") == "supervisor":
                each["role"] = "client"
                each.pop("zone", None)
    elif fault == "supervisors":
        node["role"] = "supervisor"


def topology_outcome(parse, config):
    """The topology with every field's type in view (the ``repr`` of the settings,
    the policy with its vids sorted, the node specs and the channel dict in key
    order, which tell ``3`` from ``3.0`` and ``-0.0`` from ``0.0``), or the error."""
    try:
        topology = parse(config)
    except ScenarioError as exc:
        return f"ScenarioError: {exc}"
    policy = topology.registration_policy
    return repr((topology[:5], policy.kind, sorted(policy.vids), policy.required_attributes,
                 list(topology.nodes.items()), topology.supervisor,
                 sorted(topology.channels.items())))


@settings(max_examples=600, deadline=None)
@given(config=topologies(), count=st.sampled_from([0, 1, 1, 2]), data=st.data())
# the list of vids replaced whole by ``["x"]``, a string that is no address
@example(config={"seed": 1, "nodes": [{"name": "s", "role": "supervisor"}],
                 "registration_policy": {"vids": ["x"]}}, count=0, data=None)
def test_parse_topology_equals_reference(config, count, data):
    for _ in range(count):
        data.draw(st.sampled_from([bad_field, shape_fault]))(config, data)
    assert topology_outcome(parse_topology, config) == \
        topology_outcome(reference_parse_topology, config)


@pytest.mark.parametrize("name", ["sample"] + sorted(WORKLOADS))
def test_parse_topology_equals_reference_on_full_inputs(name):
    config = BASES[0] if name == "sample" else WORKLOADS[name](7, scale=1)
    assert topology_outcome(parse_topology, config) == \
        topology_outcome(reference_parse_topology, config)


def test_channels_are_plain_tuples_the_collector_stops_tracking():
    # idle_sync's 3,000 channels live as long as the run; a named tuple stays tracked
    channels = list(parse_topology(WORKLOADS["idle_sync"](7)).channels.values())
    gc.collect()
    gc.collect()
    assert len(channels) == 3000 and {type(channel) for channel in channels} == {tuple}
    assert not any(map(gc.is_tracked, channels))


# -- values nested past the bound, and the vids -----------------------------------

DEEP = 3000   # past the interpreter's recursion limit, where a repr would fail


@pytest.mark.parametrize("place,named", [
    (lambda c: c["nodes"][2].update(role=nested(DEEP)),
     "nodes[2].role: unknown role <list nested deeper than 64 levels>"),
    (lambda c: c["channels"][0].update(one_way_delay_ms={"x": nested(DEEP)}),
     "channels[0].one_way_delay_ms: must be a number or a range [low, high] with 0 <= low "
     "<= high <= the horizon (1.5e+09 ms), got <dict nested deeper than 64 levels>"),
    (lambda c: c["registration_policy"].update(vids=[nested(DEEP)]),
     "registration_policy.vids: must be a list of hex strings, got <list nested deeper "
     "than 64 levels>"),
    (lambda c: c["script"][0].update(op=nested(DEEP)),
     "script[0].op: unknown op <list nested deeper than 64 levels>"),
    (lambda c: c["nodes"][3].update(profile=[nested(DEEP)]),
     "nodes[3].profile: must be a preset (satellite, ground, satellite_query, none) or an "
     "object of costs, got <list nested deeper than 64 levels>"),
    (lambda c: c["script"][1]["rules"][0].update(conditions=[{"kind": nested(DEEP)}]),
     "script[1].rules[0]: is not a rule (ValueError: <list> is not a valid ConditionKind)"),
    # a library caller may pass a tuple, which JSON never gives
    (lambda c: c["script"][1]["rules"][0].update(conditions=[{"kind": nested(DEEP, tuple)}]),
     "script[1].rules[0]: is not a rule (ValueError: <tuple> is not a valid ConditionKind)"),
], ids=["role", "delay", "vid", "op", "profile", "condition-kind", "condition-kind-tuple"])
def test_a_deep_value_is_named_by_type_in_the_error(place, named):
    # a library caller gets the ScenarioError, not a RecursionError from repr
    config = copy.deepcopy(BASES[0])
    place(config)
    with pytest.raises(ScenarioError) as caught:
        Simulation(config).run()
    assert str(caught.value) == named


def test_a_value_within_the_bound_is_shown_whole():
    config = copy.deepcopy(BASES[0])
    config["nodes"][2]["role"] = nested(MAX_NESTING)
    with pytest.raises(ScenarioError, match=re.escape(
            f"nodes[2].role: unknown role {nested(MAX_NESTING)!r}")):
        Simulation(config)


@pytest.mark.parametrize("spell", [lambda text: "0x" + text[2:].upper(), str.upper,
                                   str.lower, lambda text: text[2:]],
                         ids=["upper-digits", "upper", "lower", "unprefixed"])
def test_a_listed_vid_matches_in_any_spelling(spell):
    config = copy.deepcopy(BASES[0])
    client = parse_topology(config).nodes["client"].vid.hex
    config["registration_policy"] = {"kind": "denylist", "vids": [spell(client)]}
    registrations = run_scenario(config)[1].registrations
    assert [r["status"] for r in registrations] == ["denied"]
    config["registration_policy"]["kind"] = "allowlist"
    assert [r["status"] for r in run_scenario(config)[1].registrations] == ["confirmed"]
