"""Independent reference models used as oracles.

These deliberately share no code with the package: state is plain dicts
keyed by hex strings, and each operation is a straight-line transcription
of the zone lifecycle guards. The enforcement oracle evaluates the whole
decision directly instead of going through a staged pipeline object.
The token cache reference is the exception: it is the full-refetch sync
that the change-driven ``TokenCache.sync`` replaced, run on a real cache.
So is ``reference_jsonify``, the argument walk that turned ``Address``
objects into hex before encoding, which the encoder's own hook replaced.
The wire dicts and report writers at the end are the ones the assembled
texts replaced: dicts handed whole to ``canonical_json``, rows handed
whole to ``csv.writer``, statistics gathered one list at a time. They
share ``netsim._fmt``, the one float formatter, with the package.
Then come the script parser that formatted every event's path and checked
its nodes through helpers, and the event loop that pushed every script
event through the heap and built each request's records by keyword, and
the pipeline that built a fresh record and decision per stage; they share
the package's check helpers, handlers and stage checks. Then come the value
types that interning and memoising replaced: the frozen-dataclass address
and the fee computation done afresh for every transaction. Last is the
chain that stored two frozen records per transaction, a receipt and a gas
entry, before ``Receipt`` carried the gas and fees itself.
"""

import csv
import heapq
import io
import math
import statistics
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal

from capchain.address import Address
from capchain.enforcement import (PIPELINE_STAGES, Decision, ServiceRequest, StageRecord,
                                  StageTrace, match_access_rule, verify_conditions,
                                  verify_token_status)
from capchain.ledger import Chain, ContractRejection, LedgerError, NoGasRecordedError
from capchain.netsim import MEASUREMENT_COLUMNS, Measurement, SimulationResult, _fmt
from capchain.scenario import (ACTIONS, EXPECTS, MAX_BLOCKS, RULE_ERRORS, AccessRule, Advance,
                               Issue, Register, Request, TokenChange, _check, _fail, _node,
                               _number, _objects, link)

ZERO_HEX = "0x" + "00" * 20

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
# Token cache sync (full refetch)
# ---------------------------------------------------------------------------

def full_refetch_sync(cache, fetch, now, height):
    """Refetch every cached token from confirmed state; returns replaced-entry count.

    Same signature as ``TokenCache.sync``, so it can stand in for it.
    """
    refreshed = 0
    for subject in list(cache.entries):
        try:
            token = fetch(subject)
        except (OSError, LedgerError):
            token = None
        if token is None:
            del cache.entries[subject]
            continue
        entry = cache.entries[subject]
        if token != entry.token:
            entry.token = token
            refreshed += 1
        entry.synced_at = now
    return refreshed


# ---------------------------------------------------------------------------
# Transaction argument normalization (walk before encoding)
# ---------------------------------------------------------------------------

def reference_jsonify(value):
    """Normalize argument structures to plain JSON types."""
    if isinstance(value, Address):
        return value.hex
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

def reference_write_measurements_csv(measurements, stream):
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(MEASUREMENT_COLUMNS)
    for m in measurements:
        writer.writerow([
            m.request_id, _fmt(m.at_ms), m.requester, m.provider, m.method, m.uri,
            m.outcome, m.stage or "", m.reason or "",
            "" if m.cache_hit is None else str(m.cache_hit).lower(),
            m.block_height, _fmt(m.total_ms),
        ])


def reference_write_stage_traces_csv(measurements, stream):
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["request_id", "stage", "outcome", "duration_ms"])
    for m in measurements:
        if m.trace is None:
            continue
        for record in m.trace.records:
            writer.writerow([m.request_id, record.stage, record.outcome,
                             _fmt(record.duration_ms)])


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
# Script parser (a path text per event, nodes checked through ``_node``)
# ---------------------------------------------------------------------------

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
            _check(master.role == "master", path, "master", "%r is not a master", master.name)
            _check(isinstance(attributes, dict), path, "attributes",
                   "must be an object, got %r", attributes)
            event = Register(at, i, node, master, attributes)
        elif op in ("issue", "revoke", "revoke_rules", "suspend", "restore"):
            master = _node(nodes, event.get("master"), path, "master")
            subject = _node(nodes, event.get("subject"), path, "subject")
            rules = event.get("rules")
            if op == "issue":
                validity = _number(event.get("validity_ms", 3_600_000), int, path, "validity_ms")
                _check(validity >= 0, path, "validity_ms", "must be >= 0, got %r", validity)
                event = Issue(at, i, master, subject, _reference_parse_rules(rules, path),
                              validity)
            else:
                _check(op != "revoke_rules" or isinstance(rules, list), path, "rules",
                       "must be a list, got %r", rules)
                event = TokenChange(at, i, op, master, subject,
                                    rules if op == "revoke_rules" else None)
        else:
            _check(op == "advance", path, "op", "unknown op %r", op)
            event = Advance(at, i)
        events.append(event)
    events.sort(key=lambda event: event.at)   # stable: equal times keep index order
    return events


def _reference_parse_rules(rules, path):
    _check(isinstance(rules, list), path, "rules", "must be a list of rules, got %r", rules)
    parsed = []
    for j, rule in enumerate(rules):
        where = f"{path}.rules[{j}]"
        _check(isinstance(rule, dict), where, "", "must be an object, got %r", rule)
        _check(rule.get("action") in ACTIONS, where, "action", "%r is not an action",
               rule.get("action"))
        try:
            parsed.append(AccessRule.from_wire(rule))
        except RULE_ERRORS as exc:
            _fail(where, "", f"is not a rule ({type(exc).__name__}: {exc})")
    return tuple(parsed)


# ---------------------------------------------------------------------------
# Event loop (every event through one heap, records built by keyword)
# ---------------------------------------------------------------------------

def reference_run(simulation):
    """``Simulation.run`` with the script read by ``reference_parse_script`` and
    pushed onto the heap, in index order and ahead of the first block, so
    ``(at, seq)`` alone orders them; requests go through the keyword-built
    records below."""
    result = SimulationResult([], [], [], [])
    queue = []
    script = reference_parse_script(simulation._script, simulation.topology)
    for event in sorted(script, key=lambda event: event.index):
        simulation._push(queue, event.at, "script", event)
    simulation._push(queue, float(simulation.topology.block_interval_ms), "block", None)
    while queue:
        at, _, kind, payload = heapq.heappop(queue)
        if kind == "block":
            simulation._handle_block(at, result)
            if queue:
                simulation._push(queue, at + simulation.topology.block_interval_ms, "block", None)
        elif kind == "arrival":
            _reference_arrival(simulation, at, payload, result)
        elif kind == "script" and type(payload) is Request:
            _reference_request(simulation, payload, queue, result)
        elif kind == "script":
            simulation._handle_script(payload, result)
    simulation._drain(result)
    return result


def _reference_request(simulation, event, queue, result):
    simulation._request_counter += 1
    delay, drop_rate = event.channel
    timeout_ms = simulation.topology.timeout_ms
    if drop_rate and simulation.rng.random() < drop_rate:
        _reference_record(simulation, event, simulation._request_counter, result,
                          "timeout", timeout_ms, reason="message-dropped")
        simulation._push(queue, event.at + timeout_ms, "complete", None)
        return
    if isinstance(delay, tuple):
        delay = simulation.rng.uniform(*delay)
    simulation._push(queue, event.at + delay, "arrival",
                     (event, simulation._request_counter, delay))


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

def reference_authorize(provider, stage_costs, request):
    """``ServiceProvider.authorize`` pricing each stage from ``stage_costs`` as it
    runs and building a fresh trace per call; missing keys cost zero."""
    records = []
    hit = None

    def cost(key):
        return stage_costs.get(key, 0.0)

    def deny(stage, reason, duration):
        records.append(StageRecord(stage, "fail", duration))
        return (Decision(granted=False, stage=stage, reason=reason),
                StageTrace(tuple(records), aborted_at=stage, cache_hit=hit))

    def passed(stage, duration):
        records.append(StageRecord(stage, "pass", duration))

    ok, reason = provider.authenticate(request.requester)
    if not ok:
        return deny("identity_auth", reason, cost("identity_auth"))
    passed("identity_auth", cost("identity_auth"))

    token, hit = provider.fetch_or_cache_token(request.requester, request.now)
    fetch_cost = cost("token_fetch_hit" if hit else "token_fetch_miss")
    if token is None:
        return deny("token_fetch", "token-absent", fetch_cost)
    passed("token_fetch", fetch_cost)

    ok, reason = verify_token_status(token, request.now)
    if not ok:
        return deny("token_status", reason, cost("token_status"))
    passed("token_status", cost("token_status"))

    rule = match_access_rule(token, request.method, request.uri)
    if rule is None:
        return deny("rule_match", "no-matching-rule", cost("rule_match"))
    passed("rule_match", cost("rule_match"))

    ok, reason = verify_conditions(rule, request.now, request.location_tag)
    if not ok:
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
    """``Chain._fees`` without its memo: two quantizes per call, zero unsigned."""
    raw_etc = gas * gas_price_etc
    fee_etc = raw_etc.quantize(Decimal("1E-7"), rounding=ROUND_HALF_UP)
    fee_usd = (raw_etc * eth_price_usd).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP)
    if fee_etc == 0:
        fee_etc = Decimal("0E-7")
    if fee_usd == 0:
        fee_usd = Decimal("0.00")
    return fee_etc, fee_usd


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

    def _apply(self, tx, digest):
        height = self.height + 1   # the block being sealed
        contract = self._contracts[tx.contract]
        gas = self.config.gas_table.get(tx.op, self.config.default_op_gas)
        tx.gas_used = gas
        try:
            result = contract.execute(tx.sender, tx.op, tx.args)
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
            *reference_fees(gas, self.config.gas_price_etc, self.config.eth_price_usd))

    def account_gas(self, tx_digest):
        entry = self._gas_log.get(tx_digest)
        if entry is None:
            raise NoGasRecordedError(f"transaction {tx_digest} not applied in any block")
        return entry

    def gas_entries(self):
        return tuple(self._gas_log.values())

    def gas_report_text(self):
        buffer = io.StringIO()
        reference_write_gas_report(self.gas_entries(), buffer)
        return buffer.getvalue()
