"""Discrete-event harness: topology, virtual clock, latency model, reports.

Nodes (supervisor, masters, satellites, ground sites, clients) share one
simulated chain. Block production is just another scheduled event, so a
whole scenario runs on a single virtual clock and is bit-reproducible
from its seed.

Latency is a cost model, not wall-clock measurement: per-stage
processing costs come from a node's ProcessingProfile and transport from
the channel's one-way delay, so every reported duration is a
deterministic function of configuration. A request's total is exactly

    data_parse + recorded pipeline stage costs (+ service_handler on
    grant) + 2 x one-way channel delay.
"""

from __future__ import annotations

import heapq
import math
import random
import statistics
from dataclasses import dataclass
from typing import Any, Iterator, NamedTuple, Optional, Union

from .address import AddressFactory
from .encoding import CsvCells
from .enforcement import ServiceProvider, ServiceRequest, StageTrace, PIPELINE_STAGES
from .ledger import Chain, ChainConfig
from .master import (AccessDecision, DomainMaster, MasterError, ProfileStore,
                     RegistrationPolicy, RegistrationRequest)
from .tokens import AccessRule, TokenContract
from .zones import ZoneContract

ROLES = ("supervisor", "master", "satellite", "ground", "client")


class ScenarioError(Exception):
    """Scenario configuration failed validation."""


class ScriptedEventError(ScenarioError):
    """A script event references something the topology does not define."""

    def __init__(self, index: int, message: str):
        self.index = index
        super().__init__(f"event {index}: {message}")


@dataclass(frozen=True)
class ProcessingProfile:
    """Per-stage processing cost in milliseconds for one node class."""

    token_processing: float = 0.0
    identity_auth: float = 0.0
    capac_validation: float = 0.0
    data_parse: float = 0.0
    service_handler: float = 0.0

    def __post_init__(self) -> None:
        for name in ("token_processing", "identity_auth", "capac_validation",
                     "data_parse", "service_handler"):
            if getattr(self, name) < 0:
                raise ScenarioError(f"profile cost {name} must be >= 0")

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

#: One-way channel delay paired with each preset (ms).
PROFILE_DELAYS: dict[str, float] = {
    "satellite": 5.0,
    "ground": 3.75,
    "satellite_query": 5.0,
    "none": 0.0,
}


class ChannelSpec(NamedTuple):
    """Point-to-point link with a one-way delay (constant or uniform range).

    A tuple, so a topology of thousands of links builds fast; ``checked``
    is the validating constructor.
    """

    name: str
    a: str
    b: str
    one_way_delay_ms: Union[float, tuple[float, float]] = 0.0
    drop_rate: float = 0.0

    @classmethod
    def checked(cls, name: str, a: str, b: str, one_way_delay_ms: Any = 0.0,
                drop_rate: float = 0.0) -> "ChannelSpec":
        delay = one_way_delay_ms
        if isinstance(delay, list):
            delay = tuple(delay)
        bounds = delay if isinstance(delay, tuple) else (delay, delay)
        if not (len(bounds) == 2 and type(bounds[0]) in (int, float)
                and type(bounds[1]) in (int, float)
                and 0 <= bounds[0] <= bounds[1] < math.inf):
            raise ScenarioError(
                f"channel {name!r}: one_way_delay_ms must be a finite number >= 0 or a "
                f"range [low, high] with 0 <= low <= high, got {one_way_delay_ms!r}")
        if not 0 <= drop_rate < 1:
            raise ScenarioError(f"channel {name!r}: drop_rate must be in [0, 1)")
        return cls(name, a, b, delay, drop_rate)

    def sample_delay(self, rng: random.Random) -> float:
        if isinstance(self.one_way_delay_ms, tuple):
            low, high = self.one_way_delay_ms
            return rng.uniform(low, high)
        return self.one_way_delay_ms


def _link(a: str, b: str) -> tuple[str, str]:
    """Key of the channel between nodes ``a`` and ``b``: the names in sorted order."""
    return (a, b) if a <= b else (b, a)


class NodeSpec(NamedTuple):
    """One node of the topology; a tuple, like ``ChannelSpec``, so it builds fast."""

    name: str
    role: str
    vid: Address
    profile: ProcessingProfile
    services: tuple[str, ...] = ()
    zone: str = ""
    members: tuple[str, ...] = ()
    location: str = ""


@dataclass
class Measurement:
    """One request's outcome with its timing breakdown."""

    request_id: int
    at_ms: float
    requester: str
    provider: str
    method: str
    uri: str
    outcome: str                      # "grant" | "deny" | "timeout"
    stage: Optional[str]
    reason: Optional[str]
    cache_hit: Optional[bool]
    block_height: int
    total_ms: float
    trace: Optional[StageTrace] = None


@dataclass
class SimulationResult:
    measurements: list[Measurement]
    registrations: list[dict]
    issues: list[dict]
    expectation_failures: list[str]


def _objects(field: str, items: Any) -> list[dict]:
    """``items`` if it is a list of objects, else ``ScenarioError`` naming ``field``."""
    if not isinstance(items, (list, tuple)) or not all(isinstance(i, dict) for i in items):
        raise ScenarioError(f"config field {field!r} must be a list of objects")
    return items


def _config_number(config: dict, key: str, default: Any, kind: type) -> Any:
    try:
        return kind(config.get(key, default))
    except (TypeError, ValueError, OverflowError) as exc:   # OverflowError: int(inf)
        raise ScenarioError(f"config field {key!r}: {exc}") from None


def _text(node: Any, field: str, value: Any) -> str:
    """``value`` if it is a string without NUL, else ``ScenarioError``: names and
    URIs reach the CSV reports, whose ``csv`` module cannot write NUL on 3.10."""
    if not isinstance(value, str) or "\0" in value:
        raise ScenarioError(
            f"node {node!r}: {field} must be a string without NUL, got {value!r}")
    return value


def _texts(node: str, field: str, values: Any) -> tuple[str, ...]:
    if not isinstance(values, (list, tuple)):
        raise ScenarioError(f"node {node!r}: {field} must be a list, got {values!r}")
    for value in values:
        _text(node, field, value)
    return tuple(values)


def _parse_profile(node: str, value: Any) -> ProcessingProfile:
    if value is None:
        return PROFILES["none"]
    if isinstance(value, str):
        if value not in PROFILES:
            raise ScenarioError(f"node {node!r}: unknown profile {value!r}")
        return PROFILES[value]
    if isinstance(value, dict):
        try:
            return ProcessingProfile(**value)
        except (TypeError, ScenarioError) as exc:   # TypeError: unknown key, cost not a number
            raise ScenarioError(f"node {node!r}: profile: {exc}") from None
    raise ScenarioError(f"node {node!r}: profile must be a name or mapping, got {value!r}")


class Simulation:
    """A built topology plus the event loop that drives it."""

    def __init__(self, config: dict):
        if "seed" not in config:
            raise ScenarioError("config field 'seed' is required")
        self.config = dict(config)
        self.seed = _config_number(config, "seed", None, int)
        self.block_interval_ms = _config_number(config, "block_interval_ms", 15000, int)
        if self.block_interval_ms < 1:
            raise ScenarioError("config field 'block_interval_ms' must be >= 1")
        self.access_control = bool(config.get("access_control", True))
        self.timeout_ms = _config_number(config, "timeout_ms", 30000, float)
        if not math.isfinite(self.timeout_ms):
            raise ScenarioError("config field 'timeout_ms' must be a finite number")
        self.rng = random.Random(self.seed ^ 0x6E65747369)  # distinct stream from vids
        self._build_nodes(_objects("nodes", config.get("nodes", [])))
        self._build_channels(_objects("channels", config.get("channels", [])))
        self._build_chain()
        self._bootstrap()
        self._build_services(config)
        self._seq = 0
        self._request_counter = 0

    # -- topology construction ---------------------------------------------------

    def _build_nodes(self, specs: list[dict]) -> None:
        if not specs:
            raise ScenarioError("config field 'nodes' must list at least one node")
        factory = AddressFactory(self.seed)
        self.nodes: dict[str, NodeSpec] = {}
        supervisors = []
        zones_seen: set[str] = set()
        for spec in specs:
            name = spec.get("name")
            if not name:
                raise ScenarioError("node field 'name' is required")
            _text(name, "name", name)
            if name in self.nodes:
                raise ScenarioError(f"duplicate node name {name!r}")
            role = spec.get("role", "client")
            if role not in ROLES:
                raise ScenarioError(f"node {name!r}: unknown role {role!r}")
            zone = _text(name, "zone", spec.get("zone", ""))
            if role == "master" and not zone:
                raise ScenarioError(f"node {name!r}: master role requires a zone")
            if zone:
                if role not in ("master", "supervisor"):
                    raise ScenarioError(f"node {name!r}: only masters or the supervisor own zones")
                if zone in zones_seen:
                    raise ScenarioError(f"zone {zone!r} owned by more than one node")
                zones_seen.add(zone)
            services = _texts(name, "services", spec.get("services", ()))
            for uri in services:
                if not uri.startswith("/"):
                    raise ScenarioError(f"node {name!r}: service {uri!r} must start with '/'")
            node = NodeSpec(
                name=name,
                role=role,
                vid=factory.new_address(),
                profile=_parse_profile(name, spec.get("profile")),
                services=services,
                zone=zone,
                members=_texts(name, "members", spec.get("members", ())),
                location=_text(name, "location", spec.get("location", "")),
            )
            self.nodes[name] = node
            if role == "supervisor":
                supervisors.append(name)
        if len(supervisors) != 1:
            raise ScenarioError(f"exactly one supervisor required, found {len(supervisors)}")
        self.supervisor = self.nodes[supervisors[0]]
        for node in self.nodes.values():
            for member in node.members:
                if member not in self.nodes:
                    raise ScenarioError(f"node {node.name!r}: unknown member {member!r}")

    def _build_channels(self, specs: list[dict]) -> None:
        self.channels: dict[tuple[str, str], ChannelSpec] = {}
        for i, spec in enumerate(specs):
            a, b = spec.get("a"), spec.get("b")
            for end in (a, b):
                if not (isinstance(end, str) and end in self.nodes):
                    raise ScenarioError(f"channel {i}: unknown node {end!r}")
            try:
                drop_rate = float(spec.get("drop_rate", 0.0))
            except (TypeError, ValueError) as exc:
                raise ScenarioError(f"channel {i}: drop_rate: {exc}") from None
            channel = ChannelSpec.checked(spec.get("name", f"{a}--{b}"), a, b,
                                          spec.get("one_way_delay_ms", 0.0), drop_rate)
            key = _link(a, b)
            if key in self.channels:
                raise ScenarioError(f"duplicate channel between {a!r} and {b!r}")
            self.channels[key] = channel

    def _build_chain(self) -> None:
        chain_config = ChainConfig(
            supervisor=self.supervisor.vid,
            block_interval_ms=self.block_interval_ms,
        )
        self.zone_contract = ZoneContract(self.supervisor.vid)
        self.token_contract = TokenContract(self.supervisor.vid, self.zone_contract)
        self.chain = Chain(chain_config, [self.zone_contract, self.token_contract])

    def _bootstrap(self) -> None:
        """Allowlist masters, create zones, join configured members; seal at t=0."""
        supervisor = self.supervisor.vid
        submit = self.chain.submit
        for node in self.nodes.values():
            if node.role == "master":
                submit(supervisor, "vzone", "set_master_allowlist", (node.vid.hex, True))
        for node in self.nodes.values():
            if node.zone:
                submit(node.vid, "vzone", "create_vzone", (node.zone,))
                for member in node.members:
                    submit(node.vid, "vzone", "join_vzone",
                           (node.zone, self.nodes[member].vid.hex))
        self.chain.produce_block(0, force=True)

    def _build_services(self, config: dict) -> None:
        self.masters: dict[str, DomainMaster] = {}
        registration_policy = RegistrationPolicy.from_config(
            config.get("registration_policy", {}))
        for node in self.nodes.values():
            if node.role == "master":
                self.masters[node.name] = DomainMaster(
                    node.vid, node.zone, self.chain,
                    store=ProfileStore(),
                    registration_policy=registration_policy,
                )
        self.providers: dict[str, ServiceProvider] = {}
        for node in self.nodes.values():
            if node.services:
                self.providers[node.name] = ServiceProvider(
                    node.vid, self.chain,
                    stage_costs=node.profile.stage_costs(),
                )

    # -- script handling --------------------------------------------------------------

    def _schedule(self, script: Any) -> list[tuple[float, int, dict]]:
        """Check every script event against the topology and return the events
        as ``(at, index, event)`` entries in index order."""
        nodes = self.nodes
        entries = []
        for i, event in enumerate(_objects("script", script)):
            op = event.get("op")
            if op == "request":
                requester, provider = event.get("requester"), event.get("provider")
                for end in (requester, provider):
                    if not (isinstance(end, str) and end in nodes):
                        raise ScriptedEventError(i, f"unknown node {end!r}")
                if provider not in self.providers:
                    raise ScriptedEventError(i, f"{provider!r} offers no services")
                if event.get("uri") not in nodes[provider].services:
                    raise ScriptedEventError(
                        i, f"{provider!r} does not serve {event.get('uri')!r}")
                if event.get("method") not in ("GET", "POST", "PUT", "DELETE"):
                    raise ScriptedEventError(i, f"unknown method {event.get('method')!r}")
                if _link(requester, provider) not in self.channels:
                    raise ScriptedEventError(
                        i, f"no channel between {requester!r} and {provider!r}")
            elif op == "register":
                for key in ("node", "master"):
                    if not (isinstance(event.get(key), str) and event[key] in nodes):
                        raise ScriptedEventError(i, f"unknown node {event.get(key)!r}")
                if event["master"] not in self.masters:
                    raise ScriptedEventError(i, f"{event['master']!r} is not a master")
            elif op in ("issue", "revoke", "revoke_rules", "suspend", "restore"):
                for end in (event.get("master", event.get("by")), event.get("subject")):
                    if not (isinstance(end, str) and end in nodes):
                        raise ScriptedEventError(i, f"unknown node {end!r}")
                if op in ("issue", "revoke_rules") and not isinstance(event.get("rules"), list):
                    raise ScriptedEventError(i, f"{op} needs a 'rules' list")
            elif op != "advance":
                raise ScriptedEventError(i, f"unknown op {op!r}")
            try:
                at = float(event.get("at", 0))
            except (TypeError, ValueError, OverflowError) as exc:   # OverflowError: 10**400
                raise ScriptedEventError(i, f"at: {exc}") from None
            if not math.isfinite(at):
                raise ScriptedEventError(i, f"at: must be a finite number, got {at!r}")
            entries.append((at, i, event))
        return entries

    def _push(self, queue: list, at: float, kind: str, payload: Any) -> None:
        self._seq += 1
        heapq.heappush(queue, (at, self._seq, kind, payload))

    def run(self, script: Optional[list[dict]] = None) -> SimulationResult:
        """Play the script, producing a block every ``block_interval_ms``.

        Script events run in ``(at, index)`` order, straight from the sorted
        script. The heap holds only generated events (blocks, request
        arrivals, timeouts), in push order at equal times, and at equal
        times a script event runs first. Blocks continue while any event
        is left.
        """
        if script is None:
            script = self.config.get("script", [])
        scheduled = sorted(self._schedule(script))
        result = SimulationResult([], [], [], [])
        queue: list = []
        self._push(queue, float(self.block_interval_ms), "block", None)
        pop = heapq.heappop
        position, count = 0, len(scheduled)
        while True:
            if position < count and (not queue or scheduled[position][0] <= queue[0][0]):
                at, index, event = scheduled[position]
                position += 1
                self._handle_script(at, index, event, queue, result)
            elif queue:
                at, _, kind, payload = pop(queue)
                if kind == "block":
                    self._handle_block(at, result)
                    if position < count or queue:
                        self._push(queue, at + self.block_interval_ms, "block", None)
                elif kind == "arrival":
                    self._handle_arrival(at, payload, result)
                # a "complete" only extends the horizon
            else:
                break
        self._drain(result)
        return result

    # -- event handlers ------------------------------------------------------------------

    def _handle_script(self, at: float, index: int, event: dict, queue: list,
                       result: SimulationResult) -> None:
        op = event["op"]
        if op == "request":
            self._handle_request(at, index, event, queue, result)
        elif op == "register":
            self._handle_register(at, event, result)
        elif op == "issue":
            self._handle_issue(at, index, event)
        elif op != "advance":   # "advance" only extends the horizon
            self._handle_revocation(op, event)

    def _handle_block(self, at: float, result: SimulationResult) -> None:
        self.chain.produce_block(int(at))
        for provider in self.providers.values():
            provider.sync_cache(at)
        self._poll_masters(result)

    def _poll_masters(self, result: SimulationResult) -> None:
        for name, master in self.masters.items():
            registrations, issues = master.poll_all()
            result.registrations += [dict(r, master=name) for r in registrations]
            result.issues += [dict(r, master=name) for r in issues]

    def _handle_register(self, at: float, event: dict, result: SimulationResult) -> None:
        master = self.masters[event["master"]]
        node = self.nodes[event["node"]]
        request = RegistrationRequest(node.vid, node.name,
                                      dict(event.get("attributes", {})))
        try:
            master.register_entity(request, int(at))
        except MasterError as exc:
            result.registrations.append(
                {"vid": node.vid.hex, "master": event["master"],
                 "status": "denied", "reason": str(exc)})

    def _handle_issue(self, at: float, index: int, event: dict) -> None:
        master_name = event["master"]
        subject = self.nodes[event["subject"]].vid
        rules = []
        for j, rule in enumerate(event["rules"]):
            try:
                rules.append(AccessRule.from_wire(rule))
            except (TypeError, ValueError, KeyError, AttributeError) as exc:
                raise ScriptedEventError(
                    index, f"rules[{j}] is not a rule ({type(exc).__name__}: {exc})") from None
        try:
            validity_ms = int(event.get("validity_ms", 3_600_000))
        except (TypeError, ValueError, OverflowError) as exc:   # OverflowError: int(inf)
            raise ScriptedEventError(index, f"validity_ms: {exc}") from None
        decision = AccessDecision(granted=tuple(rules), validity_ms=validity_ms)
        if master_name in self.masters:
            self.masters[master_name].issue_capability(subject, decision, int(at))
        else:
            # supervisor-issued tokens go straight to the contract
            sender = self.nodes[master_name].vid
            self.chain.submit(sender, "captoken", "issue_token",
                              (subject.hex, [r.wire() for r in rules],
                               int(at), int(at) + decision.validity_ms))

    def _handle_revocation(self, kind: str, event: dict) -> None:
        sender = self.nodes[event.get("master", event.get("by"))].vid
        subject = self.nodes[event["subject"]].vid
        if kind == "revoke":
            self.chain.submit(sender, "captoken", "revoke_token", (subject.hex,))
        elif kind == "revoke_rules":
            self.chain.submit(sender, "captoken", "revoke_access_rights",
                              (subject.hex, list(event["rules"])))
        else:
            self.chain.submit(sender, "captoken", "set_token_validity",
                              (subject.hex, kind == "restore"))

    def _handle_request(self, at: float, index: int, event: dict, queue: list,
                        result: SimulationResult) -> None:
        """Send the request: it arrives after the channel's delay, or is dropped.

        The in-flight payload is ``(event, index, request_id, sent_at, delay)``;
        a dropped request has no delay.
        """
        self._request_counter += 1
        channel = self.channels[_link(event["requester"], event["provider"])]
        if channel.drop_rate and self.rng.random() < channel.drop_rate:
            self._record((event, index, self._request_counter, at, None), result,
                         "timeout", self.timeout_ms, reason="message-dropped")
            self._push(queue, at + self.timeout_ms, "complete", None)
            return
        delay = channel.sample_delay(self.rng)
        self._push(queue, at + delay, "arrival",
                   (event, index, self._request_counter, at, delay))

    def _handle_arrival(self, at: float, flight: tuple, result: SimulationResult) -> None:
        event, _, _, _, delay = flight
        provider_node = self.nodes[event["provider"]]
        profile = provider_node.profile
        transport = 2 * delay
        if self.access_control:
            provider = self.providers[event["provider"]]
            request = ServiceRequest(
                requester=self.nodes[event["requester"]].vid,
                method=event["method"], uri=event["uri"],
                now=at, location_tag=provider_node.location)
            decision, trace = provider.authorize(request, transport_ms=transport)
            processing = profile.data_parse + sum(r.duration_ms for r in trace.records)
            if decision.granted:
                processing += profile.service_handler
            self._record(flight, result, "grant" if decision.granted else "deny",
                         processing + transport, decision.stage, decision.reason, trace)
        else:
            self._record(flight, result, "grant",
                         profile.data_parse + profile.service_handler + transport)

    def _record(self, flight: tuple, result: SimulationResult, outcome: str,
                total_ms: float, stage: Optional[str] = None,
                reason: Optional[str] = None, trace: Optional[StageTrace] = None) -> None:
        """Append the request's measurement and check its scripted expectation."""
        event, index, request_id, sent_at, _ = flight
        measurement = Measurement(
            request_id=request_id, at_ms=sent_at,
            requester=event["requester"], provider=event["provider"],
            method=event["method"], uri=event["uri"],
            outcome=outcome, stage=stage, reason=reason,
            cache_hit=None if trace is None else trace.cache_hit,
            block_height=self.chain.height, total_ms=total_ms, trace=trace)
        result.measurements.append(measurement)
        expected = event.get("expect")
        if expected and outcome != expected:
            result.expectation_failures.append(
                f"request {request_id} (event {index}): "
                f"expected {expected}, got {outcome}"
                + (f" at {stage}" if stage else ""))

    def _drain(self, result: SimulationResult) -> None:
        """Confirm whatever is still pending after the last scripted event."""
        rounds = 0
        while rounds < 2 and any(m.has_pending for m in self.masters.values()):
            self.chain.produce_next_block()
            self._poll_masters(result)
            rounds += 1


def run_scenario(config: dict) -> tuple[Simulation, SimulationResult]:
    simulation = Simulation(config)
    return simulation, simulation.run()


# ---------------------------------------------------------------------------
# Benchmark scenario builders
# ---------------------------------------------------------------------------

def latency_bench_config(profile_name: str, seed: int, requests: int = 100,
                         block_interval_ms: int = 15000,
                         access_control: bool = True) -> dict:
    """Warmed request stream between one client and one provider.

    The token is issued right after bootstrap and confirms at the first
    interval block; requests then arrive every 150 ms, so the first one
    is a cold cache miss and the rest are hits.
    """
    if profile_name not in PROFILES:
        raise ScenarioError(f"unknown profile {profile_name!r}")
    delay = PROFILE_DELAYS[profile_name]
    start = block_interval_ms + 1000
    script: list[dict] = [
        {"at": 100, "op": "issue", "master": "master", "subject": "client",
         "rules": [{"action": "GET", "resource": "/api/data", "conditions": []}],
         "validity_ms": 86_400_000},
    ]
    for k in range(requests):
        script.append({"at": start + 150 * k, "op": "request",
                       "requester": "client", "provider": "provider",
                       "method": "GET", "uri": "/api/data",
                       "expect": "grant" if access_control else None})
    return {
        "seed": seed,
        "block_interval_ms": block_interval_ms,
        "access_control": access_control,
        "nodes": [
            {"name": "supervisor", "role": "supervisor"},
            {"name": "master", "role": "master", "zone": "zone-a",
             "members": ["client", "provider"]},
            {"name": "client", "role": "client"},
            {"name": "provider", "role": "satellite", "profile": profile_name,
             "services": ["/api/data"]},
        ],
        "channels": [
            {"name": "link", "a": "client", "b": "provider",
             "one_way_delay_ms": delay},
        ],
        "script": script,
    }


def run_latency_bench(profile_name: str, seed: int,
                      requests: int = 100) -> tuple[Simulation, SimulationResult]:
    return run_scenario(latency_bench_config(profile_name, seed, requests))


def run_overhead_bench(seed: int, requests: int = 100
                       ) -> tuple[SimulationResult, SimulationResult]:
    """Enforcement-on vs enforcement-off pair on the caching-query preset."""
    _, with_ac = run_scenario(latency_bench_config(
        "satellite_query", seed, requests, access_control=True))
    _, without_ac = run_scenario(latency_bench_config(
        "satellite_query", seed, requests, access_control=False))
    return with_ac, without_ac


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def _fmt(value: float) -> str:
    text = f"{value:.6f}".rstrip("0").rstrip(".")
    return text if text else "0"


MEASUREMENT_COLUMNS = ["request_id", "at_ms", "requester", "provider", "method",
                       "uri", "outcome", "stage", "reason", "cache_hit",
                       "block_height", "total_ms"]


def write_measurements_csv(measurements: list[Measurement], stream) -> None:
    """One row per request. String cells are quoted by the ``csv`` module, once
    per distinct value; ids, heights and ``_fmt`` numbers never need quotes."""
    cells = CsvCells()
    rows = [",".join(MEASUREMENT_COLUMNS) + "\n"]
    for m in measurements:
        hit = "" if m.cache_hit is None else str(m.cache_hit).lower()
        rows.append(
            f"{m.request_id},{_fmt(m.at_ms)},{cells[m.requester]},{cells[m.provider]},"
            f"{cells[m.method]},{cells[m.uri]},{cells[m.outcome]},{cells[m.stage or '']},"
            f"{cells[m.reason or '']},{hit},{m.block_height},{_fmt(m.total_ms)}\n")
    stream.write("".join(rows))


def write_stage_traces_csv(measurements: list[Measurement], stream) -> None:
    """One row per recorded stage; each distinct ``stage,outcome,duration`` tail is
    formatted once. Stage and outcome names are the pipeline's own, never quoted."""
    tails: dict[tuple, str] = {}
    parts = ["request_id,stage,outcome,duration_ms\n"]
    append = parts.append
    for m in measurements:
        if m.trace is None:
            continue
        head = f"{m.request_id},"
        for record in m.trace.records:
            duration = record.duration_ms
            # -0.0 equals 0.0 but prints "-0"; a zero keys on its repr instead
            key = (record.stage, record.outcome, duration if duration else repr(duration))
            tail = tails.get(key)
            if tail is None:
                tail = tails[key] = f"{record.stage},{record.outcome},{_fmt(duration)}\n"
            append(head)
            append(tail)
    stream.write("".join(parts))


def summarize(measurements: list[Measurement]) -> dict:
    """Counts, latency statistics, per-stage statistics and the steady-state
    access-control share, gathered in one pass over the measurements.

    A request's access-control share is its authentication plus validation
    stage time (every stage but ``token_fetch``) over its total; the first
    request and requests without a trace or with a zero total have none.
    """
    totals: list[float] = []
    outcomes: list[str] = []
    hits = flagged = 0
    per_stage: dict[str, list[float]] = {stage: [] for stage in PIPELINE_STAGES}
    steady_shares: list[float] = []
    for m in measurements:
        totals.append(m.total_ms)
        outcomes.append(m.outcome)
        if m.cache_hit is not None:
            flagged += 1
            hits += bool(m.cache_hit)
        if m.trace is not None:
            ac_ms: list[float] = []
            for record in m.trace.records:
                per_stage[record.stage].append(record.duration_ms)
                if record.stage != "token_fetch":
                    ac_ms.append(record.duration_ms)
            if m.total_ms and len(totals) > 1:
                steady_shares.append(sum(ac_ms) / m.total_ms)
    steady = totals[1:] if len(totals) > 1 else totals
    summary = {
        "requests": len(measurements),
        "grants": outcomes.count("grant"),
        "denials": outcomes.count("deny"),
        "timeouts": outcomes.count("timeout"),
        "mean_total_ms": statistics.fmean(totals) if totals else 0.0,
        "median_total_ms": statistics.median(totals) if totals else 0.0,
        "first_request_ms": totals[0] if totals else 0.0,
        "steady_mean_ms": statistics.fmean(steady) if steady else 0.0,
        "steady_median_ms": statistics.median(steady) if steady else 0.0,
        "cache_hits": hits,
        "cache_hit_rate": hits / flagged if flagged else 0.0,
        "steady_ac_share": statistics.fmean(steady_shares) if steady_shares else 0.0,
        "stage_mean_ms": {stage: (statistics.fmean(values) if values else 0.0)
                          for stage, values in per_stage.items()},
        "stage_median_ms": {stage: (statistics.median(values) if values else 0.0)
                            for stage, values in per_stage.items()},
    }
    return summary


def ac_overhead_ms(with_ac: list[Measurement], without_ac: list[Measurement]) -> float:
    """Mean steady-state enforcement overhead against a no-enforcement baseline."""
    return (summarize(with_ac)["steady_mean_ms"]
            - summarize(without_ac)["steady_mean_ms"])


def summary_rows(summary: dict) -> Iterator[tuple[str, str]]:
    """The summary as (key, rendered value) pairs in ``summarize`` order.

    Per-stage mappings flatten to ``<key>.<stage>``; floats go through
    ``_fmt`` and counts print as integers.
    """
    for key, value in summary.items():
        if isinstance(value, dict):
            for stage, stage_value in value.items():
                yield f"{key}.{stage}", _fmt(stage_value)
        else:
            yield key, _fmt(value) if isinstance(value, float) else str(value)


def write_summary_text(summary: dict, stream) -> None:
    for key, value in summary_rows(summary):
        stream.write(f"{key}: {value}\n")
