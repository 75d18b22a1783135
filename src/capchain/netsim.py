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
import random
import statistics
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

from .encoding import CsvCells
from .enforcement import ServiceProvider, ServiceRequest, StageTrace, PIPELINE_STAGES
from .ledger import Chain, ChainConfig
from .master import DomainMaster, MasterError, RegistrationRequest
from .scenario import Event, Issue, Register, Request, TokenChange, parse_script, parse_topology
from .tokens import TokenContract
from .zones import ZoneContract

#: One-way channel delay paired with each preset (ms).
PROFILE_DELAYS: dict[str, float] = {
    "satellite": 5.0,
    "ground": 3.75,
    "satellite_query": 5.0,
    "none": 0.0,
}


class Measurement(NamedTuple):
    """One request's outcome, its timing breakdown and its provider's shared trace."""

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


class Simulation:
    """A built topology plus the event loop that drives it."""

    def __init__(self, config: dict):
        topology = self.topology = parse_topology(config)
        self.nodes = topology.nodes
        self.supervisor = topology.supervisor
        self._script = config.get("script", [])
        self.rng = random.Random(topology.seed ^ 0x6E65747369)  # distinct stream from vids
        self._build_chain()
        self._bootstrap()
        self._build_services()
        self._seq = 0
        self._request_counter = 0

    # -- topology construction ---------------------------------------------------

    def _build_chain(self) -> None:
        chain_config = ChainConfig(
            supervisor=self.supervisor.vid,
            block_interval_ms=self.topology.block_interval_ms,
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

    def _build_services(self) -> None:
        self.masters: dict[str, DomainMaster] = {}
        for node in self.nodes.values():
            if node.role == "master":
                self.masters[node.name] = DomainMaster(
                    node.vid, node.zone, self.chain,
                    registration_policy=self.topology.registration_policy,
                )
        self.providers: dict[str, ServiceProvider] = {}
        for node in self.nodes.values():
            if node.services:
                self.providers[node.name] = ServiceProvider(
                    node.vid, self.chain,
                    stage_costs=node.profile.stage_costs(),
                )

    # -- event loop ---------------------------------------------------------------------

    def _push(self, queue: list, at: float, kind: str, payload: object) -> None:
        self._seq += 1
        heapq.heappush(queue, (at, self._seq, kind, payload))

    def run(self) -> SimulationResult:
        """Play the script, producing a block every ``block_interval_ms``.

        Script events run in ``(at, index)`` order, straight from the parsed
        script. The heap holds only generated events (blocks, request
        arrivals, timeouts), in push order at equal times, and at equal
        times a script event runs first. Blocks continue while any event
        is left.
        """
        script = parse_script(self._script, self.topology)
        result = SimulationResult([], [], [], [])
        queue: list = []
        self._push(queue, float(self.topology.block_interval_ms), "block", None)
        pop = heapq.heappop
        position, count = 0, len(script)
        while True:
            if position < count and (not queue or script[position][0] <= queue[0][0]):
                event = script[position]
                position += 1
                if event.__class__ is Request:
                    self._handle_request(event, queue, result)
                else:
                    self._handle_script(event, result)
            elif queue:
                at, _, kind, payload = pop(queue)
                if kind == "block":
                    self._handle_block(at, result)
                    if position < count or queue:
                        self._push(queue, at + self.topology.block_interval_ms, "block", None)
                elif kind == "arrival":
                    self._handle_arrival(at, payload, result)
                # a "complete" only extends the horizon
            else:
                break
        self._drain(result)
        return result

    # -- event handlers ------------------------------------------------------------------

    def _handle_script(self, event: Event, result: SimulationResult) -> None:
        """Run a script event other than a ``Request``, which ``run`` sends itself."""
        kind = type(event)
        if kind is Register:
            self._handle_register(event, result)
        elif kind is Issue:
            self._handle_issue(event)
        elif kind is TokenChange:
            self._handle_token_change(event)
        # an Advance only extends the horizon

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

    def _handle_register(self, event: Register, result: SimulationResult) -> None:
        node, master = event.node, event.master.name
        request = RegistrationRequest(node.vid, node.name, event.attributes)
        try:
            self.masters[master].register_entity(request)
        except MasterError as exc:
            result.registrations.append(
                {"vid": node.vid.hex, "master": master,
                 "status": "denied", "reason": str(exc)})

    def _handle_issue(self, event: Issue) -> None:
        at, subject = int(event.at), event.subject.vid
        master = self.masters.get(event.master.name)
        if master is not None:
            master.issue_capability(subject, event.rules, event.validity_ms, at)
        else:
            # supervisor-issued tokens go straight to the contract
            self.chain.submit(event.master.vid, "captoken", "issue_token",
                              (subject.hex, [r.wire() for r in event.rules],
                               at, at + event.validity_ms))

    def _handle_token_change(self, event: TokenChange) -> None:
        sender, subject, op = event.master.vid, event.subject.vid.hex, event.op
        if op == "revoke":
            self.chain.submit(sender, "captoken", "revoke_token", (subject,))
        elif op == "revoke_rules":
            self.chain.submit(sender, "captoken", "revoke_access_rights",
                              (subject, event.rules))
        else:
            self.chain.submit(sender, "captoken", "set_token_validity",
                              (subject, op == "restore"))

    def _handle_request(self, event: Request, queue: list, result: SimulationResult) -> None:
        """Send the request: it arrives after the channel's delay, or is dropped.

        The in-flight payload is ``(event, request_id, delay)``; a dropped
        request has no delay.
        """
        self._request_counter += 1
        delay, drop_rate = event.channel
        if drop_rate and self.rng.random() < drop_rate:
            self._record((event, self._request_counter, None), result,
                         "timeout", self.topology.timeout_ms, reason="message-dropped")
            self._push(queue, event.at + self.topology.timeout_ms, "complete", None)
            return
        if isinstance(delay, tuple):
            delay = self.rng.uniform(*delay)
        self._push(queue, event.at + delay, "arrival", (event, self._request_counter, delay))

    def _handle_arrival(self, at: float, flight: tuple, result: SimulationResult) -> None:
        event, _, delay = flight
        provider_node = event.provider
        profile = provider_node.profile
        transport = 2 * delay
        if self.topology.access_control:
            # tuple.__new__ skips the named tuple's generated __new__ and its frame
            decision, trace = self.providers[provider_node.name].authorize(tuple.__new__(
                ServiceRequest, (event.requester.vid, event.method, event.uri, at,
                                 provider_node.location)))
            processing = profile.data_parse + trace.stage_ms
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
        event, request_id, _ = flight
        result.measurements.append(tuple.__new__(Measurement, (
            request_id, event.at, event.requester.name, event.provider.name, event.method,
            event.uri, outcome, stage, reason, None if trace is None else trace.cache_hit,
            self.chain.height, total_ms, trace)))
        expected = event.expect
        if expected and outcome != expected:
            result.expectation_failures.append(
                f"request {request_id} (event {event.index}): "
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
    for (request_id, at_ms, requester, provider, method, uri, outcome, stage, reason,
         cache_hit, block_height, total_ms, _) in measurements:
        hit = "" if cache_hit is None else str(cache_hit).lower()
        rows.append(
            f"{request_id},{_fmt(at_ms)},{cells[requester]},{cells[provider]},"
            f"{cells[method]},{cells[uri]},{cells[outcome]},{cells[stage or '']},"
            f"{cells[reason or '']},{hit},{block_height},{_fmt(total_ms)}\n")
    stream.write("".join(rows))


def write_stage_traces_csv(measurements: list[Measurement], stream) -> None:
    """One row per recorded stage; the row tails of each distinct trace object are
    formatted once. Stage and outcome names are the pipeline's own, never quoted."""
    tails: dict[int, tuple[str, ...]] = {}   # by id(trace): the rows keep every trace alive
    parts = ["request_id,stage,outcome,duration_ms\n"]
    append = parts.append
    for request_id, _, _, _, _, _, _, _, _, _, _, _, trace in measurements:
        if trace is None:
            continue
        trace_tails = tails.get(id(trace))
        if trace_tails is None:
            trace_tails = tails[id(trace)] = tuple(
                f"{r.stage},{r.outcome},{_fmt(r.duration_ms)}\n" for r in trace.records)
        if trace_tails:
            head = f"{request_id},"
            append(head)
            append(head.join(trace_tails))
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
    for _, _, _, _, _, _, outcome, _, _, cache_hit, _, total_ms, trace in measurements:
        totals.append(total_ms)
        outcomes.append(outcome)
        if cache_hit is not None:
            flagged += 1
            hits += bool(cache_hit)
        if trace is not None:
            ac_ms: list[float] = []
            for record in trace.records:
                per_stage[record.stage].append(record.duration_ms)
                if record.stage != "token_fetch":
                    ac_ms.append(record.duration_ms)
            if total_ms and len(totals) > 1:
                steady_shares.append(sum(ac_ms) / total_ms)
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
