"""Independent reference models used as oracles.

These deliberately share no code with the package: state is plain dicts
keyed by hex strings, and each operation is a straight-line transcription
of the zone lifecycle guards. The enforcement oracle evaluates the whole
decision directly instead of going through a staged pipeline object.
The token caches are the exception (they key by ``Address``, as the
package's cache does): ``ReferenceTokenCache`` is the change-driven sync
that walked every change the feed names, which ``TokenCache``'s walk of
the fewer of its entries and the changes replaced, and
``FullRefetchTokenCache`` is the sync before the feed, which refetched
every entry. So is ``reference_jsonify``, the argument
walk that turned tuples into lists before encoding, which the encoder does
itself.
The wire dicts and report writers at the end are the ones the assembled
texts replaced: dicts handed whole to ``canonical_json``, rows handed
whole to ``csv.writer``, statistics gathered one list at a time, numbers
formatted by ``reference_fmt``, the one-line formatter that ``netsim._fmt``
extends with a fast path.
Then comes the nesting walk that built a list per level, which the bounded
recursion of ``scenario.nests_deeper`` replaced.
Then come the script parser that formatted every event's path and checked
its nodes through helpers, the topology parser that did the same for every
node and channel, the event loop
that pushed every script event through the heap and built each request's
records by keyword, and the pipeline that built a fresh record and decision
per stage, authenticating through a query helper per record; they share the
package's check helpers, handlers and stage checks. Then come the value
types that interning and memoising replaced: the frozen-dataclass address
and the fee computation done afresh for every transaction. Then comes the
chain that stored two frozen records per transaction, a receipt and a gas
entry, before ``Receipt`` carried the gas and fees itself. Last is the
typed token model that ``tokens.rule_wire`` and the wire-dict contract
replaced: rules and conditions as frozen dataclasses with their checks
inline, decoded by the calls of the ``Action`` and ``ConditionKind`` enums
that the wire-name tuples replaced, and a ``ReferenceCapabilityToken``
holding them, none of which shares code with ``capchain.tokens``; then the
token contract that held one such token per subject,
edited it in place and rebuilt its wire dict on every view (it inherits
the dispatch, the change log and the issuer check from ``TokenContract``),
and the token contract that also kept the recency index the change log
replaced: one number per subject, read newest first back to a cursor.
Last come the transaction that held its args and cached their text on first
use, the export reader that built each one through a checked-field helper,
and the replay that resubmitted a copy of every transaction and resealed
the block through ``Chain.submit_transaction`` and ``Chain.produce_block``.
"""

import csv
import heapq
import io
import itertools
import json
import math
import statistics
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from enum import Enum

from capchain.address import Address, AddressFactory
from capchain.enforcement import (PIPELINE_STAGES, Decision, ServiceProvider, ServiceRequest,
                                  StageRecord, StageTrace, match_access_rule,
                                  verify_conditions, verify_token_status)
from capchain.encoding import canonical_json, canonical_str, sha256_hex
from capchain.ledger import (DEFAULT_ETH_PRICE_USD, DEFAULT_GAS_PRICE_ETC, DEFAULT_OP_GAS,
                             GENESIS, Block, Chain, ChainFileError,
                             ContractRejection, CorruptChainError, LedgerError)
from capchain.master import RegistrationPolicy
from capchain.netsim import MEASUREMENT_COLUMNS, Measurement, SimulationResult
from capchain.scenario import (ACTIONS, COSTS, EXPECTS, MAX_BLOCKS, POLICY_KINDS, PROFILES,
                               ROLES, RULE_ERRORS, Advance, ChannelSpec, Issue, NodeSpec,
                               ProcessingProfile, Register, Request, TokenChange, Topology,
                               _check, _fail, _number, _objects, _shown)
from capchain.tokens import TokenContract
from capchain.zones import NODE_TYPE_NONE, ZoneContract

ZERO_HEX = "0x" + "00" * 20

#: Each contract op's gas, written out here rather than read from the
#: contracts' ``OPS``: the token assignment is the paper's 159544 units.
REFERENCE_GAS_TABLE = {
    "create_vzone": 88421,
    "revoke_vzone": 44216,
    "join_vzone": 64733,
    "leave_vzone": 29850,
    "set_master_allowlist": 45102,
    "issue_token": 159544,
    "revoke_access_rights": 52077,
    "revoke_token": 31877,
    "set_token_validity": 29444,
}

MS_PER_DAY = 86_400_000


# ---------------------------------------------------------------------------
# Zone state machine (literal interpreter)
# ---------------------------------------------------------------------------

def new_zone_model(supervisor_hex):
    return {
        "supervisor": supervisor_hex,
        "allowlist": set(),
        "vzone": {},   # zone_id -> {"master": hex, "uid": int}
        "vnode": {},   # hex -> {"vzone_id": str, "node_type": int}
    }


def _zone_master(model, zone_id):
    entry = model["vzone"].get(zone_id)
    return entry["master"] if entry else ZERO_HEX


def _node_type(model, addr):
    entry = model["vnode"].get(addr)
    return entry["node_type"] if entry else 0


def model_create_vzone(model, sender, zone_id):
    if sender == model["supervisor"] or sender in model["allowlist"]:
        if _zone_master(model, zone_id) == ZERO_HEX:
            entry = model["vzone"].setdefault(zone_id, {"master": ZERO_HEX, "uid": 0})
            entry["uid"] += 1
            entry["master"] = sender
            model["vnode"][sender] = {"vzone_id": zone_id, "node_type": 1}
            return True
        return False
    return False


def model_revoke_vzone(model, sender, zone_id):
    master = _zone_master(model, zone_id)
    if master == ZERO_HEX:
        return False
    if sender == model["supervisor"] or (sender in model["allowlist"] and master == sender):
        entry = model["vzone"][zone_id]
        entry["uid"] += 1
        entry["master"] = ZERO_HEX
        model["vnode"][master] = {"vzone_id": "", "node_type": 0}
        return True
    return False


def model_join_vzone(model, sender, zone_id, node):
    if sender == model["supervisor"] or sender == _zone_master(model, zone_id):
        if _node_type(model, node) == 0:
            model["vnode"][node] = {"vzone_id": zone_id, "node_type": 2}
            return True
        return False
    return False


def model_leave_vzone(model, sender, zone_id, node):
    if sender == model["supervisor"] or sender == _zone_master(model, zone_id):
        if _node_type(model, node) == 2:
            model["vnode"][node] = {"vzone_id": "", "node_type": 0}
            return True
        return False
    return False


def model_set_allowlist(model, sender, addr, allowed):
    if sender != model["supervisor"]:
        return False
    if allowed:
        model["allowlist"].add(addr)
    else:
        model["allowlist"].discard(addr)
    return True


MODEL_OPS = {
    "create_vzone": model_create_vzone,
    "revoke_vzone": model_revoke_vzone,
    "join_vzone": model_join_vzone,
    "leave_vzone": model_leave_vzone,
    "set_master_allowlist": model_set_allowlist,
}


def model_state_view(model):
    """Comparable projection: live zones and live memberships only."""
    zones = {zone_id: (entry["master"], entry["uid"])
             for zone_id, entry in model["vzone"].items() if entry["uid"] > 0}
    nodes = {addr: (entry["vzone_id"], entry["node_type"])
             for addr, entry in model["vnode"].items() if entry["node_type"] != 0}
    return {"zones": zones, "nodes": nodes, "allowlist": frozenset(model["allowlist"])}


def contract_state_view(dump):
    """Same projection computed from a zone contract state dump."""
    zones = {zone_id: (entry["master"], entry["uid"])
             for zone_id, entry in dump["zones"].items() if entry["uid"] > 0}
    nodes = {vid: (entry["VZoneID"], entry["node_type"])
             for vid, entry in dump["nodes"].items()}
    return {"zones": zones, "nodes": nodes, "allowlist": frozenset(dump["allowlist"])}


# ---------------------------------------------------------------------------
# Authorization decision oracle (brute force, no pipeline machinery)
# ---------------------------------------------------------------------------

def oracle_condition_ok(condition, now, location_tag):
    kind = condition["kind"]
    if kind == "time_window":
        tod = now % MS_PER_DAY
        return tod >= condition["start_ms"] and tod < condition["end_ms"]
    if kind == "weekday":
        return (int(now // MS_PER_DAY) % 7) in condition["days"]
    if kind == "location_tag":
        return condition["tag"] == location_tag
    return False


def oracle_authorize(provider_rec, requester_rec, zone_master_hex, token,
                     method, uri, now, location_tag):
    """Expected (outcome, abort_stage, recorded_stages) for one request.

    provider_rec / requester_rec are (vzone_id, node_type) pairs; token is
    a wire dict or None.
    """
    recorded = []

    recorded.append("identity_auth")
    member = provider_rec[1] != 0 and requester_rec[1] != 0
    same_zone = provider_rec[0] == requester_rec[0]
    zone_live = zone_master_hex != ZERO_HEX
    if not (member and same_zone and zone_live):
        return "deny", "identity_auth", tuple(recorded)

    recorded.append("token_fetch")
    if token is None:
        return "deny", "token_fetch", tuple(recorded)

    recorded.append("token_status")
    status_ok = (token["initialized"] and token["isValid"]
                 and token["issuedate"] <= now and now < token["expireddate"])
    if not status_ok:
        return "deny", "token_status", tuple(recorded)

    recorded.append("rule_match")
    matched = None
    for rule in token["authorization"]:
        if rule["action"] == method and rule["resource"] == uri:
            matched = rule
            break
    if matched is None:
        return "deny", "rule_match", tuple(recorded)

    recorded.append("condition_check")
    if not all(oracle_condition_ok(c, now, location_tag)
               for c in matched.get("conditions", [])):
        return "deny", "condition_check", tuple(recorded)

    return "grant", None, tuple(recorded)


def oracle_status_reason(token, now):
    """First failing flag in fixed order, or None if the status is good."""
    if not token["initialized"]:
        return "initialized"
    if not token["isValid"]:
        return "isValid"
    if not token["issuedate"] <= now:
        return "issuedate"
    if not now < token["expireddate"]:
        return "expireddate"
    return None


# ---------------------------------------------------------------------------
# Token caches (walk every change, or refetch every entry)
# ---------------------------------------------------------------------------

class ReferenceTokenCache:
    """The token cache whose sync walks every change the feed names.

    Same interface as ``TokenCache``: ``sync`` refetches, on a copy of the
    entries, each held subject the change feed names, however few entries
    are held, and drops those whose token is gone. Only once every fetch has
    returned does it keep the copy and move ``cursor`` to the feed's latest
    height; a feed or fetch that raises leaves both as they were.
    """

    def __init__(self, changes, cursor):
        self.changes = changes
        self.entries = {}
        self.cursor = cursor

    def walked(self, changed):
        """The subjects a sync refetches if held."""
        return list(changed)

    def sync(self, fetch, now, height):
        entries = dict(self.entries)
        refreshed = 0
        try:
            latest, changed = self.changes(self.cursor)
            for subject in self.walked(changed):
                if subject not in entries:
                    continue
                token = fetch(subject)
                if token is None:
                    del entries[subject]
                elif token != entries[subject]:
                    entries[subject] = token
                    refreshed += 1
        except (OSError, LedgerError):
            return 0
        self.entries, self.cursor = entries, latest
        return refreshed


class FullRefetchTokenCache(ReferenceTokenCache):
    """The sync before the change feed: every held entry is refetched. The
    feed is read only for its latest height, so the cursor moves, and an
    unreachable feed fails the sync, as ``TokenCache``'s do."""

    def walked(self, changed):
        return list(self.entries)


# ---------------------------------------------------------------------------
# Transaction argument normalization (walk before encoding)
# ---------------------------------------------------------------------------

def reference_jsonify(value):
    """Normalize argument structures to plain JSON types."""
    if isinstance(value, (list, tuple)):
        return [reference_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {k: reference_jsonify(v) for k, v in value.items()}
    return value


# ---------------------------------------------------------------------------
# Ledger wire objects (a dict per transaction and block, encoded whole)
# ---------------------------------------------------------------------------

def reference_call_wire(tx):
    """What ``Transaction.digest`` covers: the call without its gas."""
    return {
        "sender": tx.sender.hex,
        "contract": tx.contract,
        "op": tx.op,
        "args": tx.args,
        "nonce": tx.nonce,
    }


def reference_tx_wire(tx):
    return dict(reference_call_wire(tx), gas=tx.gas_used)


def reference_block_body(height, timestamp, parent_digest, transactions):
    """What a block digest covers: the block without its digest."""
    return {
        "height": height,
        "timestamp": timestamp,
        "parent": parent_digest,
        "txs": [reference_tx_wire(tx) for tx in transactions],
    }


def reference_block_wire(block):
    """A block as its export line carries it."""
    return dict(reference_block_body(block.height, block.timestamp, block.parent_digest,
                                     block.transactions), digest=block.digest)


# ---------------------------------------------------------------------------
# Report writers (a csv.writer row per line, one list per statistic)
# ---------------------------------------------------------------------------

def reference_fmt(value):
    """Six decimals with trailing zeros and point dropped; ``-0.0`` keeps its sign."""
    return f"{value:.6f}".rstrip("0").rstrip(".") or "0"


def reference_write_measurements_csv(measurements, stream):
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(MEASUREMENT_COLUMNS)
    for m in measurements:
        writer.writerow([
            m.request_id, reference_fmt(m.at_ms), m.requester, m.provider, m.method, m.uri,
            m.outcome, m.stage or "", m.reason or "",
            "" if m.cache_hit is None else str(m.cache_hit).lower(),
            m.block_height, reference_fmt(m.total_ms),
        ])


def reference_write_stage_traces_csv(measurements, stream):
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["request_id", "stage", "outcome", "duration_ms"])
    for m in measurements:
        if m.trace is None:
            continue
        for record in m.trace.records:
            writer.writerow([m.request_id, record.stage, record.outcome,
                             reference_fmt(record.duration_ms)])


def reference_write_gas_report(entries, stream):
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["tx_digest", "op", "gas", "fee_etc", "fee_usd"])
    for entry in entries:
        writer.writerow([entry.tx_digest, entry.op, entry.gas,
                         str(entry.fee_etc), str(entry.fee_usd)])


def reference_ac_share(measurement):
    """Fraction of the total spent on authentication plus validation stages."""
    if measurement.trace is None or measurement.total_ms == 0:
        return None
    ac_ms = sum(r.duration_ms for r in measurement.trace.records
                if r.stage != "token_fetch")
    return ac_ms / measurement.total_ms


def reference_summarize(measurements):
    totals = [m.total_ms for m in measurements]
    steady = totals[1:] if len(totals) > 1 else totals
    hits = [m for m in measurements if m.cache_hit]
    flagged = [m for m in measurements if m.cache_hit is not None]
    per_stage = {stage: [] for stage in PIPELINE_STAGES}
    for m in measurements:
        if m.trace is not None:
            for record in m.trace.records:
                per_stage[record.stage].append(record.duration_ms)
    steady_shares = [share for m in measurements[1:]
                     if (share := reference_ac_share(m)) is not None]
    return {
        "requests": len(measurements),
        "grants": sum(1 for m in measurements if m.outcome == "grant"),
        "denials": sum(1 for m in measurements if m.outcome == "deny"),
        "timeouts": sum(1 for m in measurements if m.outcome == "timeout"),
        "mean_total_ms": statistics.fmean(totals) if totals else 0.0,
        "median_total_ms": statistics.median(totals) if totals else 0.0,
        "first_request_ms": totals[0] if totals else 0.0,
        "steady_mean_ms": statistics.fmean(steady) if steady else 0.0,
        "steady_median_ms": statistics.median(steady) if steady else 0.0,
        "cache_hits": len(hits),
        "cache_hit_rate": len(hits) / len(flagged) if flagged else 0.0,
        "steady_ac_share": statistics.fmean(steady_shares) if steady_shares else 0.0,
        "stage_mean_ms": {stage: (statistics.fmean(values) if values else 0.0)
                          for stage, values in per_stage.items()},
        "stage_median_ms": {stage: (statistics.median(values) if values else 0.0)
                            for stage, values in per_stage.items()},
    }


# ---------------------------------------------------------------------------
# Nesting walk (a list per level, which ``scenario.nests_deeper`` replaced)
# ---------------------------------------------------------------------------

def nesting_depth(values):
    """How deep the deepest of ``values`` nests lists, tuples and dicts: 0 for a
    scalar, 1 for a flat list. One level at a time, so no input can exhaust the stack."""
    containers = (list, tuple, dict)
    depth, level = 0, [value for value in values if isinstance(value, containers)]
    while level:
        depth += 1
        level = [item for value in level
                 for item in (value.values() if isinstance(value, dict) else value)
                 if isinstance(item, containers)]
    return depth


# ---------------------------------------------------------------------------
# Script parser (a path text per event, nodes checked through ``_node``)
# ---------------------------------------------------------------------------

def link(a, b):
    """Key of the channel between nodes ``a`` and ``b``: the names in sorted order."""
    return (a, b) if a <= b else (b, a)


def _node(nodes, value, path, key):
    """The node ``value`` names, checked as a string before it is looked up."""
    if not (isinstance(value, str) and value in nodes):
        _fail(path, key, f"unknown node {_shown(value)}")
    return nodes[value]


def reference_parse_script(script, topology):
    """``scenario.parse_script`` formatting ``script[i]`` for every event and
    every rule, looking up nodes through ``_node`` and building each event
    through its named tuple's constructor."""
    nodes, channels, latest = topology.nodes, topology.channels, topology.latest_at_ms
    events = []
    for i, event in enumerate(_objects(script, "script")):
        path = f"script[{i}]"
        at = _number(event.get("at", 0), float, path, "at")
        if not -math.inf < at <= latest:   # NaN fails too
            _fail(path, "at", f"must be a finite time of at most {latest:g} ms (the horizon "
                  f"of {MAX_BLOCKS} blocks less the longest wait), got {at!r}")
        op = event.get("op")
        if op == "request":
            requester = _node(nodes, event.get("requester"), path, "requester")
            provider = _node(nodes, event.get("provider"), path, "provider")
            uri, method, expect = event.get("uri"), event.get("method"), event.get("expect")
            if uri not in provider.services:
                _fail(path, "uri", f"{provider.name!r} does not serve {uri!r}")
            if method not in ACTIONS:
                _fail(path, "method", f"unknown method {method!r}")
            if expect not in EXPECTS:
                _fail(path, "expect", f"must be grant, deny, timeout or null, got {expect!r}")
            channel = channels.get(link(requester.name, provider.name))
            if channel is None:
                _fail(path, "", f"no channel between {requester.name!r} and {provider.name!r}")
            event = Request(at, i, requester, provider, channel, method, uri, expect)
        elif op == "register":
            node = _node(nodes, event.get("node"), path, "node")
            master = _node(nodes, event.get("master"), path, "master")
            attributes = event.get("attributes", {})
            _check(master.role == "master", path, "master", "%s is not a master", master.name)
            _check(isinstance(attributes, dict), path, "attributes",
                   "must be an object, got %s", attributes)
            event = Register(at, i, node, master, attributes)
        elif op in ("issue", "revoke", "revoke_rules", "suspend", "restore"):
            master = _node(nodes, event.get("master"), path, "master")
            subject = _node(nodes, event.get("subject"), path, "subject")
            rules = event.get("rules")
            if op == "issue":
                validity = _number(event.get("validity_ms", 3_600_000), int, path, "validity_ms")
                _check(validity >= 0, path, "validity_ms", "must be >= 0, got %s", validity)
                event = Issue(at, i, master, subject, _reference_parse_rules(rules, path),
                              validity)
            else:
                _check(op != "revoke_rules" or isinstance(rules, list), path, "rules",
                       "must be a list, got %s", rules)
                event = TokenChange(at, i, op, master, subject,
                                    rules if op == "revoke_rules" else None)
        else:
            _check(op == "advance", path, "op", "unknown op %s", op)
            event = Advance(at, i)
        events.append(event)
    events.sort(key=lambda event: event.at)   # stable: equal times keep index order
    return events


def _reference_parse_rules(rules, path):
    """Each rule decoded into a typed rule, then turned back into the wire dict
    that the master submitted."""
    _check(isinstance(rules, list), path, "rules", "must be a list of rules, got %s", rules)
    parsed = []
    for j, rule in enumerate(rules):
        where = f"{path}.rules[{j}]"
        _check(isinstance(rule, dict), where, "", "must be an object, got %s", rule)
        _check(rule.get("action") in ACTIONS, where, "action", "%s is not an action",
               rule.get("action"))
        try:
            parsed.append(ReferenceAccessRule.from_wire(rule).wire())
        except RULE_ERRORS as exc:
            _fail(where, "", f"is not a rule ({type(exc).__name__}: {exc})")
    return parsed


# ---------------------------------------------------------------------------
# Topology parser (a path text per node and channel, checks through helpers)
# ---------------------------------------------------------------------------

def reference_parse_topology(config):
    """``scenario.parse_topology`` formatting ``nodes[i]`` and ``channels[i]`` for
    every node and channel, checking each field through a helper and building each
    spec through its named tuple's constructor."""
    _check("seed" in config, "", "seed", "is required")
    seed = _number(config["seed"], int, "", "seed")
    interval = _number(config.get("block_interval_ms", 15000), int, "", "block_interval_ms")
    # every block time the loop reaches, up to MAX_BLOCKS + 1 intervals, is an
    # integer of at most 2**53, which a float holds exactly
    longest = 2 ** 53 // (MAX_BLOCKS + 1)
    _check(1 <= interval <= longest, "", "block_interval_ms",
           f"must be >= 1 and at most {longest}, got %s", interval)
    horizon = float(MAX_BLOCKS * interval)
    access_control = config.get("access_control", True)
    _check(isinstance(access_control, bool), "", "access_control",
           "must be true or false, got %s", access_control)
    timeout = _number(config.get("timeout_ms", 30000), float, "", "timeout_ms")
    _check(0 <= timeout <= horizon, "", "timeout_ms", f"must be a number from 0 to the "
           f"horizon of {MAX_BLOCKS} blocks ({horizon:g} ms), got %s", timeout)
    policy = config.get("registration_policy", {})
    _check(isinstance(policy, dict), "", "registration_policy",
           "must be an object, got %s", policy)
    kind, vids, required = (policy.get("kind", "allow_all"), policy.get("vids", []),
                            policy.get("required_attributes", {}))
    _check(kind in POLICY_KINDS, "registration_policy", "kind",
           f"must be one of {', '.join(POLICY_KINDS)}, got %s", kind)
    _check(isinstance(vids, list) and all(isinstance(vid, str) for vid in vids),
           "registration_policy", "vids", "must be a list of hex strings, got %s", vids)
    hexes = [_reference_vid_hex(vid, i) for i, vid in enumerate(vids)]
    _check(isinstance(required, dict), "registration_policy", "required_attributes",
           "must be an object, got %s", required)
    nodes, supervisor = _reference_parse_nodes(config.get("nodes", []), seed, horizon)
    channels, longest_delay = _reference_parse_channels(config.get("channels", []), nodes,
                                                        horizon)
    return Topology(seed, interval, access_control, timeout,
                    horizon - max(timeout, longest_delay),
                    RegistrationPolicy(kind, frozenset(hexes), tuple(sorted(required.items()))),
                    nodes, supervisor, channels)


def _reference_vid_hex(vid, i):
    """Registration vid ``i`` as ``Address.hex`` spells it."""
    try:
        return Address.from_hex(vid).hex
    except ValueError as exc:
        _fail("registration_policy", f"vids[{i}]", f"{vid!r} is not an address ({exc})")


def _reference_text(value, path, key):
    if not isinstance(value, str) or "\0" in value:
        _fail(path, key, f"must be a string without NUL, got {value!r}")
    return value


def _reference_texts(values, path, key):
    if not isinstance(values, list):
        _fail(path, key, f"must be a list, got {values!r}")
    for i, value in enumerate(values):
        if not isinstance(value, str) or "\0" in value:
            _reference_text(value, path, f"{key}[{i}]")
    return tuple(values)


def _reference_parse_profile(value, path, horizon):
    if value is None or isinstance(value, str) and value in PROFILES:
        return PROFILES["none" if value is None else value]
    _check(isinstance(value, dict), path, "profile",
           f"must be a preset ({', '.join(PROFILES)}) or an object of costs, got %s", value)
    for cost, ms in value.items():
        _check(cost in COSTS and type(ms) in (int, float) and 0 <= ms <= horizon,
               path, f"profile.{cost}", f"must be a cost ({', '.join(COSTS)}), at most the "
               f"horizon ({horizon:g} ms), of a number >= 0, got %s", ms)
    return ProcessingProfile(**value)


def _reference_parse_nodes(specs, seed, horizon):
    _check(_objects(specs, "nodes"), "", "nodes", "must list at least one node")
    factory = AddressFactory(seed)
    nodes = {}
    zones = set()
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
        zone = _reference_text(spec.get("zone", ""), path, "zone")
        if zone or role == "master":
            _check(zone, path, "zone", "a master must own a zone")
            _check(role in ("master", "supervisor"), path, "zone",
                   "only masters or the supervisor own zones")
            _check(zone not in zones, path, "zone", "zone %s owned by more than one node", zone)
            zones.add(zone)
        services = _reference_texts(spec.get("services", []), path, "services")
        for j, uri in enumerate(services):
            _check(uri.startswith("/"), path, f"services[{j}]", "must start with '/', got %s",
                   uri)
        nodes[name] = NodeSpec(
            name, role, factory.new_address(),
            _reference_parse_profile(spec.get("profile"), path, horizon), services, zone,
            _reference_texts(spec.get("members", []), path, "members"),
            _reference_text(spec.get("location", ""), path, "location"))
    supervisors = [node for node in nodes.values() if node.role == "supervisor"]
    _check(len(supervisors) == 1, "", "nodes", "exactly one supervisor required, found %s",
           len(supervisors))
    for i, node in enumerate(nodes.values()):
        for j, member in enumerate(node.members):
            if member not in nodes:
                _fail(f"nodes[{i}]", f"members[{j}]", f"unknown node {member!r}")
    return nodes, supervisors[0]


def _reference_parse_channels(specs, nodes, horizon):
    channels = {}
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
        channels[key] = tuple(ChannelSpec(one_way_delay_ms=delay, drop_rate=drop_rate))
        longest = max(longest, high)
    return channels, longest


# ---------------------------------------------------------------------------
# Event loop (every event through one heap, records built by keyword)
# ---------------------------------------------------------------------------

def reference_run(simulation):
    """``Simulation.run`` with the script read by ``reference_parse_script`` and
    pushed onto the heap, in index order and ahead of the first block, so
    ``(at, seq)`` alone orders them; every event goes through ``push``, a
    ranged delay is drawn by ``rng.uniform``, and requests go through the
    keyword-built records below."""
    result = SimulationResult([], [], [], [])
    queue = []
    seq, request_ids = itertools.count(1), itertools.count(1)

    def push(at, kind, payload):
        heapq.heappush(queue, (at, next(seq), kind, payload))

    script = reference_parse_script(simulation._script, simulation.topology)
    for event in sorted(script, key=lambda event: event.index):
        push(event.at, "script", event)
    push(float(simulation.topology.block_interval_ms), "block", None)
    while queue:
        at, _, kind, payload = heapq.heappop(queue)
        if kind == "block":
            simulation._handle_block(at, result)
            if queue:
                push(at + simulation.topology.block_interval_ms, "block", None)
        elif kind == "arrival":
            _reference_arrival(simulation, at, payload, result)
        elif kind == "script" and type(payload) is Request:
            _reference_request(simulation, payload, next(request_ids), push, result)
        elif kind == "script":
            simulation._handle_script(payload, result)
    return result


def _reference_request(simulation, event, request_id, push, result):
    delay, drop_rate = event.channel
    timeout_ms = simulation.topology.timeout_ms
    if drop_rate and simulation.rng.random() < drop_rate:
        _reference_record(simulation, event, request_id, result,
                          "timeout", timeout_ms, reason="message-dropped")
        push(event.at + timeout_ms, "complete", None)
        return
    if isinstance(delay, tuple):
        delay = simulation.rng.uniform(*delay)
    push(event.at + delay, "arrival", (event, request_id, delay))


def _reference_arrival(simulation, at, flight, result):
    event, request_id, delay = flight
    profile = event.provider.profile
    if not simulation.topology.access_control:
        _reference_record(simulation, event, request_id, result, "grant",
                          profile.data_parse + profile.service_handler + 2 * delay)
        return
    request = ServiceRequest(requester=event.requester.vid, method=event.method,
                             uri=event.uri, now=at, location_tag=event.provider.location)
    decision, trace = simulation.providers[event.provider.name].authorize(request)
    processing = profile.data_parse + trace.stage_ms
    if decision.granted:
        processing += profile.service_handler
    _reference_record(simulation, event, request_id, result,
                      "grant" if decision.granted else "deny", processing + 2 * delay,
                      stage=decision.stage, reason=decision.reason, trace=trace)


def _reference_record(simulation, event, request_id, result, outcome, total_ms,
                      stage=None, reason=None, trace=None):
    result.measurements.append(Measurement(
        request_id=request_id, at_ms=event.at, requester=event.requester.name,
        provider=event.provider.name, method=event.method, uri=event.uri, outcome=outcome,
        stage=stage, reason=reason, cache_hit=None if trace is None else trace.cache_hit,
        block_height=simulation.chain.height, total_ms=total_ms, trace=trace))
    if event.expect and outcome != event.expect:
        result.expectation_failures.append(
            f"request {request_id} (event {event.index}): expected {event.expect}, "
            f"got {outcome}" + (f" at {stage}" if stage else ""))


# ---------------------------------------------------------------------------
# Enforcement pipeline (a new record per stage and a new trace per call)
# ---------------------------------------------------------------------------

def reference_authenticate(provider, requester):
    """``ServiceProvider.authenticate`` reading the requester's record, the
    provider's own and its zone from the contract on every call, through a
    query helper, and testing a revoked zone's master by ``is_zero``."""
    def query_vnode(addr):
        return provider.chain.query_state(ZoneContract.name, "get_vnode", (addr,))

    requester_record = query_vnode(requester)
    own_record = query_vnode(provider.address)
    if own_record.node_type == NODE_TYPE_NONE or \
            requester_record.node_type == NODE_TYPE_NONE:
        return "not-member"
    if requester_record.vzone_id != own_record.vzone_id:
        return "zone-mismatch"
    zone = provider.chain.query_state(ZoneContract.name, "get_vzone", (own_record.vzone_id,))
    if zone.master.is_zero:
        return "zone-revoked"
    return None


class RereadingIdentityProvider(ServiceProvider):
    """``ServiceProvider`` re-reading its own zone record and its zone's status at
    every refresh, whatever the zone feed names, as it did before the feed decided
    which of the two to re-read."""

    def refresh_membership(self):
        super().refresh_membership()
        query = self.chain.query_state
        self._own_record = query(ZoneContract.name, "get_vnode", (self.address,))
        self._zone_revoked = query(ZoneContract.name, "get_vzone",
                                   (self._own_record.vzone_id,)).master.is_zero


def reference_authorize(provider, stage_costs, request):
    """``ServiceProvider.authorize`` authenticating through ``reference_authenticate``,
    pricing each stage from ``stage_costs`` as it runs and building a fresh trace
    per call; missing keys cost zero."""
    records = []
    hit = None

    def cost(key):
        return stage_costs.get(key, 0.0)

    def deny(stage, reason, duration):
        records.append(StageRecord(stage, "fail", duration))
        return (Decision(granted=False, stage=stage, reason=reason),
                StageTrace(tuple(records), cache_hit=hit))

    def passed(stage, duration):
        records.append(StageRecord(stage, "pass", duration))

    reason = reference_authenticate(provider, request.requester)
    if reason is not None:
        return deny("identity_auth", reason, cost("identity_auth"))
    passed("identity_auth", cost("identity_auth"))

    token, hit = provider.fetch_or_cache_token(request.requester)
    fetch_cost = cost("token_fetch_hit" if hit else "token_fetch_miss")
    if token is None:
        return deny("token_fetch", "token-absent", fetch_cost)
    passed("token_fetch", fetch_cost)

    reason = verify_token_status(token, request.now)
    if reason is not None:
        return deny("token_status", reason, cost("token_status"))
    passed("token_status", cost("token_status"))

    rule = match_access_rule(token, request.method, request.uri)
    if rule is None:
        return deny("rule_match", "no-matching-rule", cost("rule_match"))
    passed("rule_match", cost("rule_match"))

    reason = verify_conditions(rule, request.now, request.location_tag)
    if reason is not None:
        return deny("condition_check", reason, cost("condition_check"))
    passed("condition_check", cost("condition_check"))

    return Decision(granted=True), StageTrace(tuple(records), cache_hit=hit)


# ---------------------------------------------------------------------------
# Value types (a dataclass per address, a fee computed per transaction)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class ReferenceAddress:
    """``Address`` as a frozen dataclass: equal by value, any number of objects."""

    raw: bytes

    def __post_init__(self):
        if not isinstance(self.raw, bytes) or len(self.raw) != 20:
            raise ValueError("address must be exactly 20 bytes")

    @classmethod
    def from_hex(cls, text):
        if not isinstance(text, str):
            raise TypeError(f"address hex must be a string, got {type(text).__name__}")
        if text.startswith("0x") or text.startswith("0X"):
            text = text[2:]
        if len(text) != 40:
            raise ValueError(f"address hex must be 40 chars, got {len(text)}")
        return cls(bytes.fromhex(text))

    @property
    def hex(self):
        return "0x" + self.raw.hex()


def reference_fees(gas, gas_price_etc, eth_price_usd):
    """The ETC and USD fees of ``gas`` at the given prices, two quantizes per call."""
    raw_etc = gas * gas_price_etc
    return (raw_etc.quantize(Decimal("1E-7"), rounding=ROUND_HALF_UP),
            (raw_etc * eth_price_usd).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


# ---------------------------------------------------------------------------
# Two records per transaction (a receipt and a gas entry in two dicts)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReferenceReceipt:
    tx_digest: str
    sender: Address
    op: str
    status: str
    result: object
    error: object
    gas_used: int
    block_height: int

    @property
    def ok(self):
        return self.status == "ok"


@dataclass(frozen=True)
class ReferenceGasEntry:
    tx_digest: str
    op: str
    gas: int
    fee_etc: Decimal
    fee_usd: Decimal


class ReferenceChain(Chain):
    """``Chain`` applying each transaction into a receipt and a separate gas
    entry, each dict keyed by digest; the fees are computed afresh and the
    gas report is written by ``csv.writer``."""

    def __init__(self, config, contracts=()):
        super().__init__(config, contracts)
        self._gas_log = {}

    def _apply(self, tx, digest, args):
        height = self.height + 1   # the block being sealed
        contract = self._contracts[tx.contract]
        gas = REFERENCE_GAS_TABLE.get(tx.op, DEFAULT_OP_GAS)
        try:
            result = contract.execute(tx.sender, tx.op, args)
            receipt = ReferenceReceipt(digest, tx.sender, tx.op, "ok", result, None, gas,
                                       height)
        except ContractRejection as rejection:
            receipt = ReferenceReceipt(digest, tx.sender, tx.op, "rejected", None,
                                       rejection.code, gas, height)
        except (TypeError, ValueError, KeyError, IndexError):
            receipt = ReferenceReceipt(digest, tx.sender, tx.op, "rejected", None,
                                       "invalid-args", gas, height)
        self._receipts[digest] = receipt
        self._gas_log[digest] = ReferenceGasEntry(
            digest, tx.op, gas,
            *reference_fees(gas, DEFAULT_GAS_PRICE_ETC, DEFAULT_ETH_PRICE_USD))
        return gas

    def get_receipt(self, tx_digest):
        return self._receipts.get(tx_digest)

    def gas_entries(self):
        return tuple(self._gas_log.values())

    def gas_report_text(self):
        buffer = io.StringIO()
        reference_write_gas_report(self.gas_entries(), buffer)
        return buffer.getvalue()


# ---------------------------------------------------------------------------
# Typed rules and the token contract that held them (a rule decoded into
# frozen dataclasses with inline checks, a token rebuilt into a dict per view)
# ---------------------------------------------------------------------------

class Action(str, Enum):
    GET = "GET"
    POST = "POST"
    PUT = "PUT"
    DELETE = "DELETE"


class ConditionKind(str, Enum):
    TIME_WINDOW = "time_window"
    WEEKDAY = "weekday"
    LOCATION_TAG = "location_tag"


def _reference_member(enum, value):
    """``enum(value)``, but a list, tuple or dict, never a member, is named by its
    type, as ``tokens`` names it: the repr of a deep one would exhaust the stack."""
    if isinstance(value, (list, tuple, dict)):
        raise ValueError(f"<{type(value).__name__}> is not a valid {enum.__qualname__}")
    return enum(value)


@dataclass(frozen=True)
class ReferenceCondition:
    """One context constraint, typed, with its checks written inline."""

    kind: ConditionKind
    start_ms: object = None
    end_ms: object = None
    days: tuple = ()
    tag: str = ""

    def __post_init__(self):
        if self.kind == ConditionKind.TIME_WINDOW:
            times = (self.start_ms, self.end_ms)
            if not all(isinstance(t, (int, float)) and not isinstance(t, bool) for t in times) \
                    or not times[0] < times[1]:
                raise ValueError("time_window requires numbers start_ms < end_ms")
        elif self.kind == ConditionKind.WEEKDAY:
            if not self.days or any(type(d) is not int or not 0 <= d <= 6 for d in self.days):
                raise ValueError("weekday requires a nonempty set of int days 0..6")
        elif self.kind == ConditionKind.LOCATION_TAG:
            if not (isinstance(self.tag, str) and self.tag):
                raise ValueError("location_tag requires a nonempty string tag")
        else:
            raise ValueError(f"unknown condition kind {self.kind!r}")

    def wire(self):
        if self.kind == ConditionKind.TIME_WINDOW:
            return {"kind": self.kind.value, "start_ms": self.start_ms, "end_ms": self.end_ms}
        if self.kind == ConditionKind.WEEKDAY:
            return {"kind": self.kind.value, "days": sorted(self.days)}
        return {"kind": self.kind.value, "tag": self.tag}

    @classmethod
    def from_wire(cls, body):
        kind = _reference_member(ConditionKind, body["kind"])
        if kind == ConditionKind.TIME_WINDOW:
            return cls(kind, start_ms=body["start_ms"], end_ms=body["end_ms"])
        if kind == ConditionKind.WEEKDAY:
            return cls(kind, days=tuple(body["days"]))
        return cls(kind, tag=body["tag"])


@dataclass(frozen=True)
class ReferenceAccessRule:
    """One typed (action, resource, conditions) grant: the one reader of rules
    before ``rule_wire``."""

    action: Action
    resource: str
    conditions: tuple = ()

    def __post_init__(self):
        if not self.resource or not self.resource.startswith("/"):
            raise ValueError("resource must be a nonempty path starting with '/'")

    def wire(self):
        return {"action": self.action.value, "resource": self.resource,
                "conditions": [c.wire() for c in self.conditions]}

    @classmethod
    def from_wire(cls, body):
        conditions = body.get("conditions", [])
        if not isinstance(conditions, list):
            raise TypeError(f"conditions must be a list, got {type(conditions).__name__}")
        return cls(action=_reference_member(Action, body["action"]), resource=body["resource"],
                   conditions=tuple(ReferenceCondition.from_wire(c) for c in conditions))


@dataclass
class ReferenceCapabilityToken:
    """A whole token holding typed rules, its wire dict rebuilt on every call."""

    vid: Address
    vzone_master: Address
    id: int
    initialized: bool
    is_valid: bool
    issue_date: int
    expired_date: int
    authorization: list = field(default_factory=list)

    def wire(self):
        return {
            "vid": self.vid.hex,
            "VZone_master": self.vzone_master.hex,
            "id": self.id,
            "initialized": self.initialized,
            "isValid": self.is_valid,
            "issuedate": self.issue_date,
            "expireddate": self.expired_date,
            "authorization": [rule.wire() for rule in self.authorization],
        }

    @classmethod
    def from_wire(cls, body):
        return cls(
            vid=Address.from_hex(body["vid"]),
            vzone_master=Address.from_hex(body["VZone_master"]),
            id=body["id"],
            initialized=body["initialized"],
            is_valid=body["isValid"],
            issue_date=body["issuedate"],
            expired_date=body["expireddate"],
            authorization=[ReferenceAccessRule.from_wire(r) for r in body["authorization"]],
        )


class ReferenceTokenContract(TokenContract):
    """``TokenContract`` holding a ``ReferenceCapabilityToken`` per subject,
    edited in place by each mutation (``_store`` re-holds the same object and
    reports the change), and building a fresh wire dict per view."""

    def issue_token(self, sender, subject, rules, issue_date, expired_date):
        if not (isinstance(issue_date, (int, float)) and isinstance(expired_date, (int, float))):
            raise TypeError("token dates must be numbers")
        sender_zone = self._sender_zone(sender)
        subject_record = self._zones.get_vnode(subject)
        if subject_record.node_type == NODE_TYPE_NONE:
            raise ContractRejection("subject-not-in-zone", "subject has no zone membership")
        if sender != self.supervisor and subject_record.vzone_id != sender_zone:
            raise ContractRejection("subject-not-in-zone",
                                    "subject belongs to a different zone than the issuer")
        if not issue_date <= expired_date:
            raise ContractRejection("invalid-dates", "issue date after expiry date")
        try:
            authorization = [ReferenceAccessRule.from_wire(rule) for rule in rules]
        except RULE_ERRORS as exc:
            raise ContractRejection("invalid-rule", str(exc))
        token = ReferenceCapabilityToken(
            vid=subject, vzone_master=self._zones.get_vzone(subject_record.vzone_id).master,
            id=self._next_id, initialized=True, is_valid=True, issue_date=issue_date,
            expired_date=expired_date, authorization=authorization)
        self._next_id += 1
        self._store(subject, token)
        return token.id

    def _authorize_revocation(self, sender, token):
        if sender != self.supervisor and sender != token.vzone_master:
            raise ContractRejection("unauthorized",
                                    "only the supervisor or the issuing master may revoke")

    def revoke_access_rights(self, sender, subject, rules):
        token = self._tokens.get(subject)
        if token is None:
            return False
        self._authorize_revocation(sender, token)
        targets = {(rule["action"], rule["resource"]) for rule in rules}
        kept = [rule for rule in token.authorization
                if (rule.action.value, rule.resource) not in targets]
        removed = len(token.authorization) - len(kept)
        token.authorization = kept
        if removed:
            self._store(subject, token)
        return removed > 0

    def revoke_token(self, sender, subject):
        token = self._tokens.get(subject)
        if token is None:
            return False
        self._authorize_revocation(sender, token)
        token.authorization = []
        token.is_valid = False
        self._store(subject, token)
        return True

    def set_token_validity(self, sender, subject, valid):
        token = self._tokens.get(subject)
        if token is None:
            return False
        self._authorize_revocation(sender, token)
        token.is_valid = valid
        self._store(subject, token)
        return True

    def get_token(self, subject):
        if not isinstance(subject, Address):
            raise TypeError(f"get_token takes an Address, got {type(subject).__name__}")
        token = self._tokens.get(subject)
        return token.wire() if token is not None else None

    def dump_state(self):
        return {
            "supervisor": self.supervisor.hex,
            "next_id": self._next_id,
            "tokens": {subject.hex: token.wire() for subject, token in self._tokens.items()},
        }


class ChangeLogTokenContract(TokenContract):
    """``TokenContract`` that also keeps the log the chain's change feed replaced:
    the subject of every mutation, oldest first, for the chain's whole life.
    ``reference_changes_since(cursor)`` is the removed ``changes_since`` view:
    the number of mutations so far and the subjects changed after the first
    ``cursor``, newest first, each once."""

    def __init__(self, supervisor, zones):
        super().__init__(supervisor, zones)
        self._changes = []

    def _store(self, subject, token):
        super()._store(subject, token)
        self._changes.append(subject)

    def reference_changes_since(self, cursor):
        return len(self._changes), list(dict.fromkeys(reversed(self._changes[cursor:])))


class RecencyIndexTokenContract(TokenContract):
    """``TokenContract`` that also keeps the change index the per-mutation log
    replaced: each subject once, at the number of its last change, oldest first.
    ``reference_changes_since`` walks it newest first and stops at the cursor, a
    number of mutations as for ``ChangeLogTokenContract``."""

    def __init__(self, supervisor, zones):
        super().__init__(supervisor, zones)
        self._last_change = {}
        self._change_number = 0

    def _store(self, subject, token):
        super()._store(subject, token)
        self._change_number += 1
        self._last_change.pop(subject, None)   # reinsert as the newest entry
        self._last_change[subject] = self._change_number

    def reference_changes_since(self, cursor):
        changed = []
        for subject, number in reversed(self._last_change.items()):
            if number <= cursor:
                break
            changed.append(subject)
        return self._change_number, changed


# ---------------------------------------------------------------------------
# Replay by resubmitting (a transaction holding its args, a reader checking
# one field per call, a second transaction per replayed one)
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class ReferenceTransaction:
    """A transaction holding its args; their canonical text is cached on first use."""

    sender: Address
    contract: str
    op: str
    args: tuple
    nonce: int
    gas_used: int = 0
    _args_text: object = field(default=None, init=False, repr=False, compare=False)

    def _text(self, gas):
        args = self._args_text
        if args is None:
            args = self._args_text = canonical_json(self.args)
        return (f'{{"args":{args},"contract":{canonical_str(self.contract)},{gas}'
                f'"nonce":{self.nonce},"op":{canonical_str(self.op)},'
                f'"sender":"{self.sender.hex}"}}')

    def call_text(self):
        return self._text("")

    def wire_text(self):
        return self._text(f'"gas":{self.gas_used},')

    @property
    def digest(self):
        return sha256_hex(self.call_text())


def _reference_field(body, key, kind):
    if not isinstance(body, dict) or key not in body:
        raise ValueError(f"missing {key!r}")
    value = body[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"{key!r} must be {kind.__name__}, got {type(value).__name__}")
    return value


def reference_tx_from_wire(body):
    return ReferenceTransaction(
        sender=Address.from_hex(_reference_field(body, "sender", str)),
        contract=_reference_field(body, "contract", str),
        op=_reference_field(body, "op", str),
        args=tuple(_reference_field(body, "args", list)),
        nonce=_reference_field(body, "nonce", int),
        gas_used=_reference_field(body, "gas", int) if "gas" in body else 0,
    )


def reference_block_from_wire(body):
    return Block(
        height=_reference_field(body, "height", int),
        timestamp=_reference_field(body, "timestamp", int),
        parent_digest=_reference_field(body, "parent", str),
        transactions=tuple(reference_tx_from_wire(t)
                           for t in _reference_field(body, "txs", list)),
        digest=_reference_field(body, "digest", str),
    )


def reference_read_chain(stream):
    blocks = []
    for number, line in enumerate(stream, 1):
        line = line.strip()
        if line:
            try:
                blocks.append(reference_block_from_wire(json.loads(line)))
            except (ValueError, RecursionError) as exc:
                raise ChainFileError(f"line {number}: not a block object: {exc}") from exc
    return blocks


def reference_replay_chain(config, blocks, contract_factory):
    """Check each block's header against the chain's latest block, then resubmit a
    copy of every transaction, reseal, and compare the sealed block."""
    if not blocks or blocks[0] != GENESIS:
        raise CorruptChainError("chain must start with the genesis block")
    chain = Chain(config, contract_factory())
    for block in blocks[1:]:
        latest = chain.latest_block
        if block.timestamp < latest.timestamp:
            raise CorruptChainError(
                f"invalid block at height {block.height}: block at {block.timestamp} ms "
                f"precedes its parent at {latest.timestamp} ms")
        if block.height != latest.height + 1 or block.parent_digest != latest.digest:
            raise CorruptChainError(f"block at height {block.height} differs from its replay")
        try:
            for tx in block.transactions:
                chain.submit_transaction(
                    ReferenceTransaction(tx.sender, tx.contract, tx.op, tx.args, tx.nonce))
            sealed = chain.produce_block(block.timestamp, force=True)
        except LedgerError as exc:
            raise CorruptChainError(f"invalid block at height {block.height}: {exc}") from exc
        if sealed != block:
            raise CorruptChainError(f"block at height {block.height} differs from its replay")
    return chain
