"""Scenario input: one parser from the JSON a user writes to typed specs.

``parse_topology`` reads the settings, registration policy, nodes and
channels; ``parse_script`` reads the timed events and resolves the nodes
and channel each names. Both check each item once, inline, and build its
path text only when a check fails. Every error names its JSON path, e.g.
``script[1].rules[0].action: 'FLY' is not an action``, and shows the value at
fault by ``_shown``. Unknown keys are ignored; numbers convert as ``int()``
and ``float()`` do, so ``"15000"`` works, but a JSON boolean is not a number.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, fields
from operator import itemgetter
from typing import Any, NamedTuple, NoReturn, Union

from .address import Address, AddressFactory
from .master import RegistrationPolicy
from .tokens import ACTIONS, RULE_ERRORS, rule_wire

ROLES = ("supervisor", "master", "satellite", "ground", "client")
POLICY_KINDS = ("allow_all", "allowlist", "denylist", "attribute")
#: A request's ``expect``: an outcome it must reach, or null (or absent) for none.
EXPECTS = ("grant", "deny", "timeout", None)

#: How many block intervals a run may span. Blocks are produced until the last
#: event is due: at the default 15 s interval ``at: 1e9`` writes 66,669 blocks
#: and ``1e300`` would never end. The largest benchmark workload spans 43.
MAX_BLOCKS = 100_000

#: The longest block interval. The loop keeps block times as floats, and every
#: one it can reach, up to MAX_BLOCKS + 1 intervals, must be an integer a float
#: holds exactly, or a block lands below the chain's integer due time.
MAX_BLOCK_INTERVAL_MS = 2 ** 53 // (MAX_BLOCKS + 1)

#: How long a request waits for its response when a scenario sets no ``timeout_ms``.
DEFAULT_TIMEOUT_MS = 30000

#: Every int strictly between minus this and this converts to a float.
_FLOAT_INTS = 2 ** 1023


#: How deep a scenario file, or the args of a transaction in a chain export, may
#: nest arrays and objects. A scenario's deepest field, a weekday's ``days``, sits
#: at depth 8. The bound is far below the interpreter's recursion limit, which a
#: later encoding or error message of a deep value would otherwise reach.
#: ``parse_script`` applies it to the values it passes on unparsed.
MAX_NESTING = 64

_CONTAINERS = (list, tuple, dict)


def nests_deeper(value: Union[list, tuple, dict], levels: int) -> bool:
    """Whether the container ``value`` nests lists, tuples and dicts more than
    ``levels`` deep, for ``levels`` >= 1, where a flat list is 1 deep. It stops at
    the first container ``levels`` down, so it recurses at most ``levels`` frames
    deep, and an event's few rules cost a call per container, not a list per level."""
    for item in (value.values() if isinstance(value, dict) else value):
        if isinstance(item, _CONTAINERS) and (levels == 1 or nests_deeper(item, levels - 1)):
            return True
    return False


class ScenarioError(Exception):
    """A scenario field failed validation; the message starts with its JSON path."""


@dataclass(frozen=True)
class ProcessingProfile:
    """Per-stage processing cost in milliseconds for one node class."""

    token_processing: float = 0.0
    identity_auth: float = 0.0
    capac_validation: float = 0.0
    data_parse: float = 0.0
    service_handler: float = 0.0

    def stage_costs(self) -> dict[str, float]:
        """Cost-model keys for the enforcement pipeline.

        Token processing is the contract fetch, so it is charged on cache
        misses only. Validation cost splits 1/4 status, 1/2 rule matching,
        1/4 conditions; quarters stay exact in binary floats, so the three
        parts always sum back to capac_validation.
        """
        return {
            "identity_auth": self.identity_auth,
            "token_fetch_miss": self.token_processing,
            "token_fetch_hit": 0.0,
            "token_status": self.capac_validation / 4,
            "rule_match": self.capac_validation / 2,
            "condition_check": self.capac_validation / 4,
        }


COSTS = tuple(cost.name for cost in fields(ProcessingProfile))

# Stage-cost presets. "satellite" and "ground" reproduce the reference
# per-stage timings (steady-state totals 250 ms and 60 ms); the parse /
# handler / transport splits cover the remainder the stage arithmetic
# leaves unattributed. "satellite_query" is the caching experiment pair:
# 35 ms of plain data service plus 9 ms of cached-token enforcement.
PROFILES: dict[str, ProcessingProfile] = {
    "satellite": ProcessingProfile(
        token_processing=60.0, identity_auth=152.0, capac_validation=62.5,
        data_parse=10.5, service_handler=15.0),
    "ground": ProcessingProfile(
        token_processing=10.0, identity_auth=30.0, capac_validation=12.5,
        data_parse=4.0, service_handler=6.0),
    "satellite_query": ProcessingProfile(
        token_processing=60.0, identity_auth=4.5, capac_validation=4.5,
        data_parse=10.0, service_handler=15.0),
    "none": ProcessingProfile(),
}


class NodeSpec(NamedTuple):
    """One node of the topology; a tuple, so thousands of them build fast."""

    name: str
    role: str
    vid: Address
    profile: ProcessingProfile
    services: tuple[str, ...] = ()
    zone: str = ""
    members: tuple[str, ...] = ()
    location: str = ""


# A link's one-way delay, a constant or a uniform ``(low, high)`` range: the field
# order of the plain tuple each channel is, which the collector stops tracking.
ChannelSpec = namedtuple("ChannelSpec", "one_way_delay_ms drop_rate")


# ``latest_at_ms`` is the horizon, MAX_BLOCKS block intervals, less the longest
# a request can wait (its timeout or a delay); a channel's key is its ends' names, sorted.
Topology = namedtuple("Topology", "seed block_interval_ms access_control timeout_ms "
                      "latest_at_ms registration_policy nodes supervisor channels")
# Script events start with ``(at, index)`` and name nodes by NodeSpec. A request
# is a plain tuple in ``Request._fields`` order, which ``Simulation.run`` tells
# from the named tuples of the other events by its exact type. An Issue's
# ``rules`` are the list of wire dicts ``rule_wire`` returned; an Issue by a
# non-master goes to the contract directly. A TokenChange is a revoke, suspend,
# restore or revoke_rules, whose ``rules`` go to the contract unparsed.
Request = namedtuple("Request", "at index requester provider channel method uri expect")
Register = namedtuple("Register", "at index node master attributes")
Issue = namedtuple("Issue", "at index master subject rules validity_ms")
TokenChange = namedtuple("TokenChange", "at index op master subject rules")
Advance = namedtuple("Advance", "at index")
Event = Union[tuple, Register, Issue, TokenChange, Advance]   # tuple: a request


def _shown(value: Any) -> str:
    """``repr(value)`` for an error message, unless ``value`` nests deeper than
    ``MAX_NESTING``: such a repr could exhaust the stack, so the text names the
    type and the bound instead. Called only once a check has failed."""
    if isinstance(value, _CONTAINERS) and nests_deeper(value, MAX_NESTING):
        return f"<{type(value).__name__} nested deeper than {MAX_NESTING} levels>"
    return repr(value)


def _fail(path: Union[str, int], key: str, reason: str) -> NoReturn:
    """Raise ``path.key: reason``. An int path is the index of a script event,
    so the script checks build their ``script[i]`` text only when one fails."""
    if isinstance(path, int):
        path = f"script[{path}]"
    raise ScenarioError(f"{path}.{key}: {reason}" if path and key else f"{path}{key}: {reason}")


def _check(ok: Any, path: Union[str, int], key: str, reason: str, *values: Any) -> None:
    """``_fail`` unless ``ok``, with each of ``values`` shown by ``_shown`` at a
    ``%s`` of ``reason``; per-node and per-event checks are inline ``if``s."""
    if not ok:
        _fail(path, key, reason % tuple(map(_shown, values)))


def _number(value: Any, kind: type, path: Union[str, int], key: str) -> Any:
    """``kind(value)``; a JSON boolean is not a number, though ``int(True)`` is 1."""
    if value.__class__ is bool:
        _fail(path, key, f"must be a number, got {_shown(value)}")
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:   # OverflowError: int(inf)
        _fail(path, key, str(exc))


def _objects(value: Any, path: str) -> list[dict]:
    _check(isinstance(value, list), path, "", "must be a list of objects, got %s", value)
    for i, item in enumerate(value):
        if not isinstance(item, dict):
            _fail(f"{path}[{i}]", "", f"must be an object, got {_shown(item)}")
    return value


def parse_topology(config: dict) -> Topology:
    """Everything but the script: settings, registration policy, nodes, channels."""
    _check("seed" in config, "", "seed", "is required")
    seed = _number(config["seed"], int, "", "seed")
    interval = _number(config.get("block_interval_ms", 15000), int, "", "block_interval_ms")
    _check(1 <= interval <= MAX_BLOCK_INTERVAL_MS, "", "block_interval_ms",
           f"must be >= 1 and at most {MAX_BLOCK_INTERVAL_MS}, got %s", interval)
    horizon = float(MAX_BLOCKS * interval)   # exact, within the bound
    access_control = config.get("access_control", True)
    _check(isinstance(access_control, bool), "", "access_control",
           "must be true or false, got %s", access_control)
    timeout = _number(config.get("timeout_ms", DEFAULT_TIMEOUT_MS), float, "", "timeout_ms")
    if not 0 <= timeout <= horizon:
        _fail("", "timeout_ms", f"must be a number from 0 to the horizon of {MAX_BLOCKS} "
              f"blocks ({horizon:g} ms), got {_shown(timeout)}")
    policy = config.get("registration_policy", {})
    _check(isinstance(policy, dict), "", "registration_policy",
           "must be an object, got %s", policy)
    kind, vids, required = (policy.get("kind", "allow_all"), policy.get("vids", []),
                            policy.get("required_attributes", {}))
    if kind not in POLICY_KINDS:
        _fail("registration_policy", "kind",
              f"must be one of {', '.join(POLICY_KINDS)}, got {_shown(kind)}")
    _check(isinstance(vids, list) and all(isinstance(vid, str) for vid in vids),
           "registration_policy", "vids", "must be a list of hex strings, got %s", vids)
    hexes = []
    for i, vid in enumerate(vids):   # as ``Address.hex`` spells it, so any spelling matches
        try:
            hexes.append(Address.from_hex(vid).hex)
        except ValueError as exc:
            _fail("registration_policy", f"vids[{i}]", f"{_shown(vid)} is not an address ({exc})")
    _check(isinstance(required, dict), "registration_policy", "required_attributes",
           "must be an object, got %s", required)
    nodes, supervisor = _parse_nodes(config.get("nodes", []), seed, horizon)
    channels, longest_delay = _parse_channels(config.get("channels", []), nodes, horizon)
    return Topology(seed, interval, access_control, timeout,
                    horizon - max(timeout, longest_delay),
                    RegistrationPolicy(kind, frozenset(hexes), tuple(sorted(required.items()))),
                    nodes, supervisor, channels)


#: A node's ``profile`` when it names a preset or is absent (``None``).
_PRESETS: dict[Any, ProcessingProfile] = {None: PROFILES["none"], **PROFILES}


def _parse_profile(value: Any, i: int, horizon: float) -> ProcessingProfile:
    """Node ``i``'s ``profile`` when it is not a preset: an object of costs."""
    if not isinstance(value, dict):
        _fail(f"nodes[{i}]", "profile", f"must be a preset ({', '.join(PROFILES)}) or an "
              f"object of costs, got {_shown(value)}")
    for cost, ms in value.items():
        # NaN fails the comparison; a cost within the horizon keeps every sum finite
        if not (cost in COSTS and type(ms) in (int, float) and 0 <= ms <= horizon):
            _fail(f"nodes[{i}]", f"profile.{cost}", f"must be a cost ({', '.join(COSTS)}), at "
                  f"most the horizon ({horizon:g} ms), of a number >= 0, got {_shown(ms)}")
    return ProcessingProfile(**value)


def _texts(values: Any, i: int, key: str) -> tuple[str, ...]:
    """Node ``i``'s list ``key`` of strings without NUL, which the CSV reports
    cannot hold on Python 3.10."""
    if not isinstance(values, list):
        _fail(f"nodes[{i}]", key, f"must be a list, got {_shown(values)}")
    for j, value in enumerate(values):
        if not isinstance(value, str) or "\0" in value:
            _fail(f"nodes[{i}]", f"{key}[{j}]",
                  f"must be a string without NUL, got {_shown(value)}")
    return tuple(values)


def _parse_nodes(specs: Any, seed: int, horizon: float) -> tuple[dict[str, NodeSpec], NodeSpec]:
    """The nodes keyed by name, each with the next vid the seed draws, in node
    order, and the supervisor. The checks are inline ``if``s that build the
    ``nodes[i]`` path only when one fails."""
    _check(_objects(specs, "nodes"), "", "nodes", "must list at least one node")
    new, new_address = tuple.__new__, AddressFactory(seed).new_address
    nodes: dict[str, NodeSpec] = {}
    zones: set[str] = set()
    supervisors: list[NodeSpec] = []
    for i, spec in enumerate(specs):
        get = spec.get
        name, role, zone = get("name"), get("role", "client"), get("zone", "")
        if not (name and isinstance(name, str) and "\0" not in name):
            _fail(f"nodes[{i}]", "name",
                  f"must be a nonempty string without NUL, got {_shown(name)}")
        if name in nodes:
            _fail(f"nodes[{i}]", "name", f"duplicate node name {_shown(name)}")
        if role not in ROLES:
            _fail(f"nodes[{i}]", "role", f"unknown role {_shown(role)}")
        if not isinstance(zone, str) or "\0" in zone:
            _fail(f"nodes[{i}]", "zone", f"must be a string without NUL, got {_shown(zone)}")
        if zone or role == "master":
            if not zone:
                _fail(f"nodes[{i}]", "zone", "a master must own a zone")
            if role not in ("master", "supervisor"):
                _fail(f"nodes[{i}]", "zone", "only masters or the supervisor own zones")
            if zone in zones:
                _fail(f"nodes[{i}]", "zone", f"zone {_shown(zone)} owned by more than one node")
            zones.add(zone)
        services = _texts(spec["services"], i, "services") if "services" in spec else ()
        for j, uri in enumerate(services):
            if not uri.startswith("/"):
                _fail(f"nodes[{i}]", f"services[{j}]", f"must start with '/', got {_shown(uri)}")
        profile = get("profile")
        try:
            profile = _PRESETS[profile]
        except (KeyError, TypeError):   # TypeError: an unhashable profile, such as an object
            profile = _parse_profile(profile, i, horizon)
        members = _texts(spec["members"], i, "members") if "members" in spec else ()
        location = get("location", "")
        if not isinstance(location, str) or "\0" in location:
            _fail(f"nodes[{i}]", "location",
                  f"must be a string without NUL, got {_shown(location)}")
        node = nodes[name] = new(NodeSpec, (name, role, new_address(), profile, services,
                                            zone, members, location))
        if role == "supervisor":
            supervisors.append(node)
    _check(len(supervisors) == 1, "", "nodes", "exactly one supervisor required, found %s",
           len(supervisors))
    for i, node in enumerate(nodes.values()):
        for j, member in enumerate(node.members):
            if member not in nodes:
                _fail(f"nodes[{i}]", f"members[{j}]", f"unknown node {_shown(member)}")
    return nodes, supervisors[0]


def _parse_channels(specs: Any, nodes: dict[str, NodeSpec], horizon: float
                    ) -> tuple[dict[tuple[str, str], tuple], float]:
    """The channels keyed by ``link``, in ``ChannelSpec`` order, and the longest one-way
    delay. The checks are inline ``if``s that build the ``channels[i]`` path only when
    one fails."""
    names = {name: name for name in nodes}   # an endpoint's check and its key text at once
    channels: dict[tuple[str, str], tuple] = {}
    longest = 0.0
    for i, spec in enumerate(_objects(specs, "channels")):
        get = spec.get
        a, b = get("a"), get("b")
        try:
            a = names[a]
        except (KeyError, TypeError):   # TypeError: an unhashable name
            _fail(f"channels[{i}]", "a", f"unknown node {_shown(a)}")
        try:
            b = names[b]
        except (KeyError, TypeError):
            _fail(f"channels[{i}]", "b", f"unknown node {_shown(b)}")
        drop_rate = get("drop_rate", 0.0)
        if drop_rate.__class__ is not float:
            drop_rate = _number(drop_rate, float, f"channels[{i}]", "drop_rate")
        if not 0 <= drop_rate < 1:
            _fail(f"channels[{i}]", "drop_rate", f"must be in [0, 1), got {_shown(drop_rate)}")
        given = get("one_way_delay_ms", 0.0)
        delay = tuple(given) if isinstance(given, list) else given
        low, high = delay if isinstance(delay, tuple) and len(delay) == 2 else (delay, delay)
        if not (type(low) in (int, float) and type(high) in (int, float)
                and 0 <= low <= high <= horizon):
            _fail(f"channels[{i}]", "one_way_delay_ms", f"must be a number or a range [low, "
                  f"high] with 0 <= low <= high <= the horizon ({horizon:g} ms), got "
                  f"{_shown(given)}")
        key = (a, b) if a <= b else (b, a)   # a channel's key: its ends' names, sorted
        if key in channels:
            _fail(f"channels[{i}]", "", f"duplicate channel between {_shown(key[0])} and "
                  f"{_shown(key[1])}")
        channels[key] = (delay, drop_rate)
        if high > longest:
            longest = high
    return channels, longest


def parse_script(script: Any, topology: Topology) -> list[Event]:
    """The script's events in the order they run: by ``at``, then by index. A request
    is a few dict reads and one plain tuple in ``Request._fields`` order; each node an
    event names is one ``nodes`` lookup, and ``_fail`` takes the index ``i``."""
    nodes, channels, latest = topology.nodes, topology.channels, topology.latest_at_ms
    new = tuple.__new__   # a named tuple from its fields in order, without its __new__
    events: list[Event] = []
    for i, event in enumerate(_objects(script, "script")):
        at = event.get("at", 0)
        if at.__class__ is int and -_FLOAT_INTS < at < _FLOAT_INTS:
            at = float(at)   # what ``_number`` returns for it, without its frame
        elif at.__class__ is not float:
            at = _number(at, float, i, "at")
        if not -math.inf < at <= latest:   # NaN fails too
            _fail(i, "at", f"must be a finite time of at most {latest:g} ms (the horizon "
                  f"of {MAX_BLOCKS} blocks less the longest wait), got {_shown(at)}")
        op = event.get("op")
        if op == "request":
            a, b = event.get("requester"), event.get("provider")
            try:
                requester = nodes[a]
            except (KeyError, TypeError):   # TypeError: an unhashable name
                _fail(i, "requester", f"unknown node {_shown(a)}")
            try:
                provider = nodes[b]
            except (KeyError, TypeError):
                _fail(i, "provider", f"unknown node {_shown(b)}")
            uri, method, expect = event.get("uri"), event.get("method"), event.get("expect")
            if uri not in provider.services:
                _fail(i, "uri", f"{_shown(provider.name)} does not serve {_shown(uri)}")
            if method not in ACTIONS:
                _fail(i, "method", f"unknown method {_shown(method)}")
            if expect not in EXPECTS:
                _fail(i, "expect", f"must be grant, deny, timeout or null, got {_shown(expect)}")
            channel = channels.get((a, b) if a <= b else (b, a))   # the channel's key
            if channel is None:
                _fail(i, "", f"no channel between {_shown(requester.name)} and "
                      f"{_shown(provider.name)}")
            event = (at, i, requester, provider, channel, method, uri, expect)
        elif op == "register":
            a, b = event.get("node"), event.get("master")
            try:
                node = nodes[a]
            except (KeyError, TypeError):
                _fail(i, "node", f"unknown node {_shown(a)}")
            try:
                master = nodes[b]
            except (KeyError, TypeError):
                _fail(i, "master", f"unknown node {_shown(b)}")
            attributes = event.get("attributes", {})
            if master.role != "master":
                _fail(i, "master", f"{_shown(master.name)} is not a master")
            if not isinstance(attributes, dict):
                _fail(i, "attributes", f"must be an object, got {_shown(attributes)}")
            if attributes:
                _shallow(attributes, i, "attributes")
            event = new(Register, (at, i, node, master, attributes))
        elif op in ("issue", "revoke", "revoke_rules", "suspend", "restore"):
            a, b = event.get("master"), event.get("subject")
            try:
                master = nodes[a]
            except (KeyError, TypeError):
                _fail(i, "master", f"unknown node {_shown(a)}")
            try:
                subject = nodes[b]
            except (KeyError, TypeError):
                _fail(i, "subject", f"unknown node {_shown(b)}")
            rules = event.get("rules")
            if op == "issue":
                validity = event.get("validity_ms", 3_600_000)
                if validity.__class__ is not int:   # an int is what ``_number`` returns for it
                    validity = _number(validity, int, i, "validity_ms")
                if validity < 0:
                    _fail(i, "validity_ms", f"must be >= 0, got {_shown(validity)}")
                event = new(Issue, (at, i, master, subject, _parse_rules(rules, i), validity))
            else:
                if op == "revoke_rules":
                    if not isinstance(rules, list):
                        _fail(i, "rules", f"must be a list, got {_shown(rules)}")
                    _shallow(rules, i, "rules")
                else:
                    rules = None
                event = new(TokenChange, (at, i, op, master, subject, rules))
        else:
            _check(op == "advance", i, "op", "unknown op %s", op)
            event = new(Advance, (at, i))
        events.append(event)
    events.sort(key=itemgetter(0))   # stable: equal times keep index order
    return events


def _shallow(value: Union[list, dict], i: int, key: str) -> None:
    """Fail unless event ``i``'s ``key``, which goes on unparsed, nests within
    ``MAX_NESTING``. The check walks only this value, not the whole script."""
    if nests_deeper(value, MAX_NESTING):
        _fail(i, key, f"arrays and objects nest deeper than {MAX_NESTING} levels")


def _parse_rules(rules: Any, i: int) -> list[dict]:
    """Event ``i``'s rules as the token contract reads them, by ``rule_wire``: the
    wire dicts that go to the contract as they are."""
    if not isinstance(rules, list):
        _fail(i, "rules", f"must be a list of rules, got {_shown(rules)}")
    parsed = []
    for j, rule in enumerate(rules):
        if not isinstance(rule, dict):
            _fail(f"script[{i}].rules[{j}]", "", f"must be an object, got {_shown(rule)}")
        if rule.get("action") not in ACTIONS:
            _fail(f"script[{i}].rules[{j}]", "action",
                  f"{_shown(rule.get('action'))} is not an action")
        try:
            parsed.append(rule_wire(rule))
        except RULE_ERRORS as exc:
            _fail(f"script[{i}].rules[{j}]", "", f"is not a rule ({type(exc).__name__}: {exc})")
    return parsed
