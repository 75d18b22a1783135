"""Scenario input: one parser from the JSON a user writes to typed specs.

``parse_topology`` reads the settings, registration policy, nodes and
channels; ``parse_script`` reads the timed events and resolves the nodes
and channel each names. Every error names its JSON path, e.g.
``script[1].rules[0].action: 'FLY' is not an action``. Unknown keys are
ignored; numbers convert as ``int()`` and ``float()`` do, so ``"15000"`` works,
but a JSON boolean is not a number.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, fields
from operator import itemgetter
from typing import Any, NamedTuple, NoReturn, Union

from .address import Address, AddressFactory
from .master import RegistrationPolicy
from .tokens import RULE_ERRORS, AccessRule, Action

ROLES = ("supervisor", "master", "satellite", "ground", "client")
POLICY_KINDS = ("allow_all", "allowlist", "denylist", "attribute")
ACTIONS = tuple(action.value for action in Action)
#: A request's ``expect``: an outcome it must reach, or null (or absent) for none.
EXPECTS = ("grant", "deny", "timeout", None)

#: How many block intervals a run may span. Blocks are produced until the last
#: event is due: at the default 15 s interval ``at: 1e9`` writes 66,669 blocks
#: and ``1e300`` would never end. The largest benchmark workload spans 43.
MAX_BLOCKS = 100_000


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


# A link's one-way delay, a constant or a uniform ``(low, high)`` range.
ChannelSpec = namedtuple("ChannelSpec", "one_way_delay_ms drop_rate")


def link(a: str, b: str) -> tuple[str, str]:
    """Key of the channel between nodes ``a`` and ``b``: the names in sorted order."""
    return (a, b) if a <= b else (b, a)


# ``latest_at_ms`` is the horizon, MAX_BLOCKS block intervals, less the longest
# a request can wait (its timeout or a delay); ``channels`` are keyed by ``link``.
Topology = namedtuple("Topology", "seed block_interval_ms access_control timeout_ms "
                      "latest_at_ms registration_policy nodes supervisor channels")
# Script events start with ``(at, index)`` and name nodes by NodeSpec. An Issue by
# a non-master goes to the contract directly; a TokenChange is a revoke, suspend,
# restore or revoke_rules, whose ``rules`` go to the contract unparsed.
Request = namedtuple("Request", "at index requester provider channel method uri expect")
Register = namedtuple("Register", "at index node master attributes")
Issue = namedtuple("Issue", "at index master subject rules validity_ms")
TokenChange = namedtuple("TokenChange", "at index op master subject rules")
Advance = namedtuple("Advance", "at index")
Event = Union[Request, Register, Issue, TokenChange, Advance]


def _fail(path: Union[str, int], key: str, reason: str) -> NoReturn:
    """Raise ``path.key: reason``. An int path is the index of a script event,
    so the script checks build their ``script[i]`` text only when one fails."""
    if isinstance(path, int):
        path = f"script[{path}]"
    raise ScenarioError(f"{path}.{key}: {reason}" if path and key else f"{path}{key}: {reason}")


def _check(ok: Any, path: Union[str, int], key: str, reason: str, *args: Any) -> None:
    """``_fail`` unless ``ok``; per-node and per-request checks are inline ``if``s."""
    if not ok:
        _fail(path, key, reason % args)


def _number(value: Any, kind: type, path: Union[str, int], key: str) -> Any:
    """``kind(value)``; a JSON boolean is not a number, though ``int(True)`` is 1."""
    if value.__class__ is bool:
        _fail(path, key, f"must be a number, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:   # OverflowError: int(inf)
        _fail(path, key, str(exc))


def _objects(value: Any, path: str) -> list[dict]:
    _check(isinstance(value, list), path, "", "must be a list of objects, got %r", value)
    for i, item in enumerate(value):
        if not isinstance(item, dict):
            _fail(f"{path}[{i}]", "", f"must be an object, got {item!r}")
    return value


def _text(value: Any, path: str, key: str) -> str:
    """A string without NUL, which the CSV reports cannot hold on Python 3.10."""
    if not isinstance(value, str) or "\0" in value:
        _fail(path, key, f"must be a string without NUL, got {value!r}")
    return value


def _texts(values: Any, path: str, key: str) -> tuple[str, ...]:
    if not isinstance(values, list):
        _fail(path, key, f"must be a list, got {values!r}")
    for i, value in enumerate(values):
        if not isinstance(value, str) or "\0" in value:
            _text(value, path, f"{key}[{i}]")
    return tuple(values)


def _node(nodes: dict[str, NodeSpec], value: Any, path: Union[str, int], key: str) -> NodeSpec:
    if not (isinstance(value, str) and value in nodes):
        _fail(path, key, f"unknown node {value!r}")
    return nodes[value]


def parse_topology(config: dict) -> Topology:
    """Everything but the script: settings, registration policy, nodes, channels."""
    _check("seed" in config, "", "seed", "is required")
    seed = _number(config["seed"], int, "", "seed")
    interval = _number(config.get("block_interval_ms", 15000), int, "", "block_interval_ms")
    _check(interval >= 1, "", "block_interval_ms", "must be >= 1, got %r", interval)
    # event times are floats, so the horizon must be one
    horizon = _number(MAX_BLOCKS * interval, float, "", "block_interval_ms")
    access_control = config.get("access_control", True)
    _check(isinstance(access_control, bool), "", "access_control",
           "must be true or false, got %r", access_control)
    timeout = _number(config.get("timeout_ms", 30000), float, "", "timeout_ms")
    _check(0 <= timeout <= horizon, "", "timeout_ms", "must be a number from 0 to the "
           "horizon of %d blocks (%g ms), got %r", MAX_BLOCKS, horizon, timeout)
    policy = config.get("registration_policy", {})
    _check(isinstance(policy, dict), "", "registration_policy",
           "must be an object, got %r", policy)
    kind, vids, required = (policy.get("kind", "allow_all"), policy.get("vids", []),
                            policy.get("required_attributes", {}))
    _check(kind in POLICY_KINDS, "registration_policy", "kind", "must be one of %s, got %r",
           ", ".join(POLICY_KINDS), kind)
    _check(isinstance(vids, list) and all(isinstance(vid, str) for vid in vids),
           "registration_policy", "vids", "must be a list of hex strings, got %r", vids)
    _check(isinstance(required, dict), "registration_policy", "required_attributes",
           "must be an object, got %r", required)
    nodes, supervisor = _parse_nodes(config.get("nodes", []), seed)
    channels, longest_delay = _parse_channels(config.get("channels", []), nodes, horizon)
    return Topology(seed, interval, access_control, timeout,
                    horizon - max(timeout, longest_delay),
                    RegistrationPolicy(kind, frozenset(vids), tuple(sorted(required.items()))),
                    nodes, supervisor, channels)


def _parse_profile(value: Any, path: str) -> ProcessingProfile:
    if value is None or isinstance(value, str) and value in PROFILES:
        return PROFILES["none" if value is None else value]
    _check(isinstance(value, dict), path, "profile",
           "must be a preset (%s) or an object of costs, got %r", ", ".join(PROFILES), value)
    for cost, ms in value.items():
        _check(cost in COSTS and type(ms) in (int, float) and not ms < 0, path,
               f"profile.{cost}", "must be a cost (%s) of a number >= 0, got %r",
               ", ".join(COSTS), ms)
    return ProcessingProfile(**value)


def _parse_nodes(specs: Any, seed: int) -> tuple[dict[str, NodeSpec], NodeSpec]:
    _check(_objects(specs, "nodes"), "", "nodes", "must list at least one node")
    factory = AddressFactory(seed)
    nodes: dict[str, NodeSpec] = {}
    zones: set[str] = set()
    for i, spec in enumerate(specs):
        path = f"nodes[{i}]"
        name = spec.get("name")
        if not (name and isinstance(name, str) and "\0" not in name):
            _fail(path, "name", f"must be a nonempty string without NUL, got {name!r}")
        if name in nodes:
            _fail(path, "name", f"duplicate node name {name!r}")
        role = spec.get("role", "client")
        if role not in ROLES:
            _fail(path, "role", f"unknown role {role!r}")
        zone = _text(spec.get("zone", ""), path, "zone")
        if zone or role == "master":
            _check(zone, path, "zone", "a master must own a zone")
            _check(role in ("master", "supervisor"), path, "zone",
                   "only masters or the supervisor own zones")
            _check(zone not in zones, path, "zone", "zone %r owned by more than one node", zone)
            zones.add(zone)
        services = _texts(spec.get("services", []), path, "services")
        for j, uri in enumerate(services):
            _check(uri.startswith("/"), path, f"services[{j}]", "must start with '/', got %r", uri)
        nodes[name] = NodeSpec(
            name, role, factory.new_address(), _parse_profile(spec.get("profile"), path),
            services, zone, _texts(spec.get("members", []), path, "members"),
            _text(spec.get("location", ""), path, "location"))
    supervisors = [node for node in nodes.values() if node.role == "supervisor"]
    _check(len(supervisors) == 1, "", "nodes", "exactly one supervisor required, found %d",
           len(supervisors))
    for i, node in enumerate(nodes.values()):
        for j, member in enumerate(node.members):
            if member not in nodes:
                _fail(f"nodes[{i}]", f"members[{j}]", f"unknown node {member!r}")
    return nodes, supervisors[0]


def _parse_channels(specs: Any, nodes: dict[str, NodeSpec], horizon: float
                    ) -> tuple[dict[tuple[str, str], ChannelSpec], float]:
    """The channels keyed by ``link``, and the longest one-way delay."""
    channels: dict[tuple[str, str], ChannelSpec] = {}
    longest = 0.0
    for i, spec in enumerate(_objects(specs, "channels")):
        path = f"channels[{i}]"
        key = link(_node(nodes, spec.get("a"), path, "a").name,
                   _node(nodes, spec.get("b"), path, "b").name)
        drop_rate = _number(spec.get("drop_rate", 0.0), float, path, "drop_rate")
        if not 0 <= drop_rate < 1:
            _fail(path, "drop_rate", f"must be in [0, 1), got {drop_rate!r}")
        given = spec.get("one_way_delay_ms", 0.0)
        delay = tuple(given) if isinstance(given, list) else given
        low, high = delay if isinstance(delay, tuple) and len(delay) == 2 else (delay, delay)
        if not (type(low) in (int, float) and type(high) in (int, float)
                and 0 <= low <= high <= horizon):
            _fail(path, "one_way_delay_ms", f"must be a number or a range [low, high] with "
                  f"0 <= low <= high <= the horizon ({horizon:g} ms), got {given!r}")
        if key in channels:
            _fail(path, "", f"duplicate channel between {key[0]!r} and {key[1]!r}")
        channels[key] = ChannelSpec(delay, drop_rate)
        longest = max(longest, high)
    return channels, longest


def parse_script(script: Any, topology: Topology) -> list[Event]:
    """The script's events in the order they run: by ``at``, then by index. A request
    is a few dict reads and one positional tuple; ``_fail`` takes the index ``i``."""
    nodes, channels, latest = topology.nodes, topology.channels, topology.latest_at_ms
    new = tuple.__new__   # a named tuple from its fields in order, without its __new__
    events: list[Event] = []
    for i, event in enumerate(_objects(script, "script")):
        at = _number(event.get("at", 0), float, i, "at")
        if not -math.inf < at <= latest:   # NaN fails too
            _fail(i, "at", f"must be a finite time of at most {latest:g} ms (the horizon "
                  f"of {MAX_BLOCKS} blocks less the longest wait), got {at!r}")
        op = event.get("op")
        if op == "request":
            a, b = event.get("requester"), event.get("provider")
            try:
                requester = nodes[a]
            except (KeyError, TypeError):   # TypeError: an unhashable name
                _fail(i, "requester", f"unknown node {a!r}")
            try:
                provider = nodes[b]
            except (KeyError, TypeError):
                _fail(i, "provider", f"unknown node {b!r}")
            uri, method, expect = event.get("uri"), event.get("method"), event.get("expect")
            if uri not in provider.services:
                _fail(i, "uri", f"{provider.name!r} does not serve {uri!r}")
            if method not in ACTIONS:
                _fail(i, "method", f"unknown method {method!r}")
            if expect not in EXPECTS:
                _fail(i, "expect", f"must be grant, deny, timeout or null, got {expect!r}")
            channel = channels.get(link(a, b))
            if channel is None:
                _fail(i, "", f"no channel between {requester.name!r} and {provider.name!r}")
            event = new(Request, (at, i, requester, provider, channel, method, uri, expect))
        elif op == "register":
            node = _node(nodes, event.get("node"), i, "node")
            master = _node(nodes, event.get("master"), i, "master")
            attributes = event.get("attributes", {})
            _check(master.role == "master", i, "master", "%r is not a master", master.name)
            _check(isinstance(attributes, dict), i, "attributes",
                   "must be an object, got %r", attributes)
            event = new(Register, (at, i, node, master, attributes))
        elif op in ("issue", "revoke", "revoke_rules", "suspend", "restore"):
            master = _node(nodes, event.get("master"), i, "master")
            subject = _node(nodes, event.get("subject"), i, "subject")
            rules = event.get("rules")
            if op == "issue":
                validity = _number(event.get("validity_ms", 3_600_000), int, i, "validity_ms")
                _check(validity >= 0, i, "validity_ms", "must be >= 0, got %r", validity)
                event = new(Issue, (at, i, master, subject, _parse_rules(rules, i), validity))
            else:
                _check(op != "revoke_rules" or isinstance(rules, list), i, "rules",
                       "must be a list, got %r", rules)
                event = new(TokenChange, (at, i, op, master, subject,
                                          rules if op == "revoke_rules" else None))
        else:
            _check(op == "advance", i, "op", "unknown op %r", op)
            event = new(Advance, (at, i))
        events.append(event)
    events.sort(key=itemgetter(0))   # stable: equal times keep index order
    return events


def _parse_rules(rules: Any, i: int) -> tuple[AccessRule, ...]:
    """Event ``i``'s rules as the token contract reads them, by ``AccessRule.from_wire``."""
    _check(isinstance(rules, list), i, "rules", "must be a list of rules, got %r", rules)
    parsed = []
    for j, rule in enumerate(rules):
        if not isinstance(rule, dict):
            _fail(f"script[{i}].rules[{j}]", "", f"must be an object, got {rule!r}")
        if rule.get("action") not in ACTIONS:
            _fail(f"script[{i}].rules[{j}]", "action", f"{rule.get('action')!r} is not an action")
        try:
            parsed.append(AccessRule.from_wire(rule))
        except RULE_ERRORS as exc:
            _fail(f"script[{i}].rules[{j}]", "", f"is not a rule ({type(exc).__name__}: {exc})")
    return tuple(parsed)
