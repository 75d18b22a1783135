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
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter
from typing import Iterator, NamedTuple, Optional

from .encoding import CsvCells
from .enforcement import ServiceProvider, StageTrace, PIPELINE_STAGES
from .ledger import Chain, ChainConfig
from .master import DomainMaster, MasterError, RegistrationRequest
from .scenario import (DEFAULT_TIMEOUT_MS, MAX_BLOCKS, Call, Event, Issue, Register,
                       parse_script, parse_topology)
from .tokens import TokenContract, contracts
from .zones import ZoneContract

#: One-way channel delay paired with each preset (ms).
PROFILE_DELAYS: dict[str, float] = {
    "satellite": 5.0,
    "ground": 3.75,
    "satellite_query": 5.0,
    "none": 0.0,
}


class Measurement(NamedTuple):
    """One request's outcome, its timing breakdown and its provider's shared trace.

    The field order of the rows a run records: each row is a plain tuple, which
    builds faster than the named tuple, and ``Measurement._make(row)`` names its
    fields."""

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
    measurements: list[tuple]   # rows in ``Measurement`` order
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
        self.zone_contract, self.token_contract = pair = contracts(self.supervisor.vid)
        self.chain = Chain(ChainConfig(self.supervisor.vid, topology.block_interval_ms), pair)
        self._bootstrap()
        self._build_services()

    # -- topology construction ---------------------------------------------------

    def _bootstrap(self) -> None:
        """Allowlist masters, create zones, join configured members; seal at t=0."""
        supervisor = self.supervisor.vid
        submit = self.chain.submit
        for node in self.nodes.values():
            if node.role == "master":
                submit(supervisor, ZoneContract.name, "set_master_allowlist", (node.vid.hex, True))
        for node in self.nodes.values():
            if node.zone:
                submit(node.vid, ZoneContract.name, "create_vzone", (node.zone,))
                for member in node.members:
                    submit(node.vid, ZoneContract.name, "join_vzone",
                           (node.zone, self.nodes[member].vid.hex))
        self.chain.produce_block(0, force=True)

    def _build_services(self) -> None:
        self.masters: dict[str, DomainMaster] = {}
        self.providers: dict[str, ServiceProvider] = {}
        # what an arrival reads of its provider, in one tuple per provider name
        self._endpoints: dict[str, tuple[ServiceProvider, float, float, str]] = {}
        for node in self.nodes.values():
            if node.role == "master":
                self.masters[node.name] = DomainMaster(
                    node.vid, node.zone, self.chain,
                    registration_policy=self.topology.registration_policy,
                )
            if node.services:
                provider = self.providers[node.name] = ServiceProvider(
                    node.vid, self.chain,
                    stage_costs=node.profile.stage_costs(),
                )
                self._endpoints[node.name] = (provider, node.profile.data_parse,
                                              node.profile.service_handler, node.location)

    # -- event loop ---------------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Play the script, producing a block every ``block_interval_ms``.

        Script events run in ``(at, index)`` order, straight from the parsed
        script. The heap holds only generated events (blocks, request
        arrivals, timeouts), in push order at equal times, and at equal
        times a script event runs first. Blocks continue while any event
        is left, so the block after the last submission seals it and its
        poll reads the outcome; nothing submits during a block's sync or poll.
        """
        script = parse_script(self._script, self.topology)
        # release the raw script: a second run parses no event and fails at its
        # first block, which the chain is already past
        self._script = []
        result = SimulationResult([], [], [], [])
        interval, timeout_ms = self.topology.block_interval_ms, self.topology.timeout_ms
        draw = self.rng.random
        # read through the module when the run starts, so a stand-in for it is used
        push, pop = heapq.heappush, heapq.heappop
        seq = 1   # push order, which orders generated events at equal times
        queue: list = [(float(interval), seq, "block", None)]
        request_id = 0
        position, count = 0, len(script)
        while True:
            if position < count and (not queue or script[position][0] <= queue[0][0]):
                event = script[position]
                position += 1
                if event.__class__ is not tuple:
                    self._handle_script(event, result)
                    continue
                # send the request, a plain tuple in ``Request`` order: it arrives
                # after the channel's delay, or is dropped
                request_id += 1
                seq += 1
                at = event[0]
                delay, drop_rate = event[4]
                if drop_rate and draw() < drop_rate:
                    self._record(event, request_id, result, "timeout", timeout_ms,
                                 "message-dropped")
                    push(queue, (at + timeout_ms, seq, "complete", None))
                    continue
                if isinstance(delay, tuple):
                    low, high = delay
                    delay = low + (high - low) * draw()   # the body of ``rng.uniform``
                push(queue, (at + delay, seq, "arrival", (event, request_id, delay)))
            elif queue:
                at, _, kind, payload = pop(queue)
                if kind == "arrival":
                    self._handle_arrival(at, payload, result)
                elif kind == "block":
                    self._handle_block(at, result)
                    if position < count or queue:
                        seq += 1
                        push(queue, (at + interval, seq, "block", None))
                # a "complete" only extends the horizon
            else:
                break
        return result

    # -- event handlers ------------------------------------------------------------------

    def _handle_script(self, event: Event, result: SimulationResult) -> None:
        """Run a script event other than a request, which ``run`` sends itself. A
        Call is one submission to the token contract; an Issue goes through its
        master, whose poll reads the outcome."""
        kind = type(event)
        if kind is Call:
            self.chain.submit(event.sender, TokenContract.name, event.op, event.args)
        elif kind is Register:
            self._handle_register(event, result)
        elif kind is Issue:
            self.masters[event.master.name].issue_capability(
                event.subject.vid, event.rules, event.validity_ms, int(event.at))
        # an Advance only extends the horizon

    def _handle_block(self, at: float, result: SimulationResult) -> None:
        self.chain.produce_block(int(at))
        for provider in self.providers.values():
            provider.sync_cache()
        for name, master in self.masters.items():
            registrations, issues = master.poll_all()
            result.registrations += [dict(r, master=name) for r in registrations]
            result.issues += [dict(r, master=name) for r in issues]

    def _handle_register(self, event: Register, result: SimulationResult) -> None:
        node, master = event.node, event.master.name
        request = RegistrationRequest(node.vid, event.attributes)
        try:
            self.masters[master].register_entity(request)
        except MasterError as exc:
            result.registrations.append(
                {"vid": node.vid.hex, "master": master,
                 "status": "denied", "reason": str(exc)})

    def _handle_arrival(self, at: float, flight: tuple, result: SimulationResult) -> None:
        """Serve a request that reached its provider. The in-flight payload is
        ``(request, request_id, one-way delay)``; the request, the row and what
        ``authorize`` is passed are plain tuples in ``Request``, ``Measurement``
        and ``ServiceRequest`` order."""
        request, request_id, delay = flight
        sent_at, index, requester, provider, _, method, uri, expect = request
        service, data_parse, service_handler, location = self._endpoints[provider.name]
        if not self.topology.access_control:
            self._record(request, request_id, result, "grant",
                         data_parse + service_handler + 2 * delay)
            return
        decision, trace = service.authorize((requester.vid, method, uri, at, location))
        # each total adds its terms left to right in the module docstring's order
        if decision.granted:
            outcome, total_ms = "grant", data_parse + trace.stage_ms + service_handler + 2 * delay
        else:
            outcome, total_ms = "deny", data_parse + trace.stage_ms + 2 * delay
        stage = decision.stage
        result.measurements.append((
            request_id, sent_at, requester.name, provider.name, method, uri, outcome, stage,
            decision.reason, trace.cache_hit, self.chain.height, total_ms, trace))
        if expect and outcome != expect:
            self._missed(result, index, expect, request_id, outcome, stage)

    def _record(self, request: tuple, request_id: int, result: SimulationResult,
                outcome: str, total_ms: float, reason: Optional[str] = None) -> None:
        """Append the row of a request that no pipeline checked: one that was
        dropped, or served without access control."""
        sent_at, index, requester, provider, _, method, uri, expect = request
        result.measurements.append((
            request_id, sent_at, requester.name, provider.name, method, uri, outcome, None,
            reason, None, self.chain.height, total_ms, None))
        if expect and outcome != expect:
            self._missed(result, index, expect, request_id, outcome, None)

    @staticmethod
    def _missed(result: SimulationResult, index: int, expect: str, request_id: int,
                outcome: str, stage: Optional[str]) -> None:
        """Note that the outcome of the request of script event ``index`` is not
        the ``expect`` it names."""
        result.expectation_failures.append(
            f"request {request_id} (event {index}): "
            f"expected {expect}, got {outcome}" + (f" at {stage}" if stage else ""))


def run_scenario(config: dict) -> tuple[Simulation, SimulationResult]:
    simulation = Simulation(config)
    return simulation, simulation.run()


# ---------------------------------------------------------------------------
# Benchmark scenario builders
# ---------------------------------------------------------------------------

#: The latency bench's block interval and request times (a second after the first
#: block, then one per spacing), and the most requests the scenario checks accept.
BENCH_INTERVAL_MS, BENCH_SPACING_MS = 15000, 150
BENCH_START_MS = BENCH_INTERVAL_MS + 1000
MAX_BENCH_REQUESTS = (MAX_BLOCKS * BENCH_INTERVAL_MS - BENCH_START_MS
                      - max(DEFAULT_TIMEOUT_MS, *PROFILE_DELAYS.values())) // BENCH_SPACING_MS + 1


def latency_bench_config(profile_name: str, seed: int, requests: int = 100,
                         access_control: bool = True) -> dict:
    """Warmed request stream between one client and one provider.

    The token is issued right after bootstrap and confirms at the first
    interval block; requests then arrive every 150 ms, so the first one
    is a cold cache miss and the rest are hits.
    """
    delay = PROFILE_DELAYS[profile_name]
    script: list[dict] = [
        {"at": 100, "op": "issue", "master": "master", "subject": "client",
         "rules": [{"action": "GET", "resource": "/api/data", "conditions": []}],
         "validity_ms": 86_400_000},
    ]
    for k in range(requests):
        script.append({"at": BENCH_START_MS + BENCH_SPACING_MS * k, "op": "request",
                       "requester": "client", "provider": "provider",
                       "method": "GET", "uri": "/api/data",
                       "expect": "grant" if access_control else None})
    return {
        "seed": seed,
        "block_interval_ms": BENCH_INTERVAL_MS,
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
    """A number with at most six decimals and no trailing zeros: ``250.0`` prints
    ``250``, ``-0.0`` prints ``-0``. An integer-valued float other than a zero
    prints its digits through ``%d``, which writes the same text faster."""
    if type(value) is float and value.is_integer() and value:
        return "%d" % value
    text = ("%.6f" % value).rstrip("0").rstrip(".")
    return text if text else "0"


#: The measurements CSV header: every ``Measurement`` field but its trace.
MEASUREMENT_COLUMNS = [name for name in Measurement._fields if name != "trace"]

_HIT_CELLS = {None: "", True: "true", False: "false"}


def write_measurements_csv(measurements: list[Measurement], stream) -> None:
    """One row per request. String cells are quoted by the ``csv`` module, once
    per distinct value; ids, heights and ``_fmt`` numbers never need quotes."""
    cells = CsvCells()
    rows = [",".join(MEASUREMENT_COLUMNS) + "\n"]
    for (request_id, at_ms, requester, provider, method, uri, outcome, stage, reason,
         cache_hit, block_height, total_ms, _) in measurements:
        rows.append(
            f"{request_id},{_fmt(at_ms)},{cells[requester]},{cells[provider]},"
            f"{cells[method]},{cells[uri]},{cells[outcome]},{cells[stage or '']},"
            f"{cells[reason or '']},{_HIT_CELLS[cache_hit]},{block_height},{_fmt(total_ms)}\n")
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
    access-control share.

    A request's access-control share is its authentication plus validation
    stage time (every stage but ``token_fetch``) over its total; the first
    request and requests without a trace or with a zero total have none.

    Rows share a few trace objects, so each distinct trace (by identity)
    gives its stage durations and access-control sum once, weighted by its
    row count. The statistics equal those of the row-ordered lists: a mean
    is ``fsum`` over the values, in any order, and a median depends on row
    order only where it lands among equal values that print differently
    (``0``, ``0.0``, ``-0.0``). Such a stage, or one with a NaN or a value
    large enough to overflow ``fsum`` in some orders, is taken row by row.
    """
    outcomes = list(map(itemgetter(6), measurements))
    cache_hits = list(map(itemgetter(9), measurements))
    totals = list(map(itemgetter(11), measurements))
    traces = list(map(itemgetter(12), measurements))
    ids = list(map(id, traces))
    trace_of = dict(zip(ids, traces))   # ids stay distinct: ``traces`` holds every trace
    per_stage: dict[str, list[tuple[float, int]]] = {stage: [] for stage in PIPELINE_STAGES}
    ac_ms: dict[int, float] = {}
    for key, rows in Counter(ids).items():
        trace = trace_of[key]
        if trace is None:
            continue
        for record in trace.records:
            per_stage[record.stage].append((record.duration_ms, rows))
        ac_ms[key] = sum(r.duration_ms for r in trace.records if r.stage != "token_fetch")
    steady_shares = [ac / total_ms for ac, total_ms in zip(map(ac_ms.get, ids[1:]), totals[1:])
                     if ac is not None and total_ms]
    steady = totals[1:] if len(totals) > 1 else totals
    flagged = len(cache_hits) - cache_hits.count(None)
    hits = cache_hits.count(True)
    mean_total = statistics.fmean(totals) if totals else 0.0
    median_total, steady_median = _total_medians(totals, mean_total) if totals else (0.0, 0.0)
    summary = {
        "requests": len(measurements),
        "grants": outcomes.count("grant"),
        "denials": outcomes.count("deny"),
        "timeouts": outcomes.count("timeout"),
        "mean_total_ms": mean_total,
        "median_total_ms": median_total,
        "first_request_ms": totals[0] if totals else 0.0,
        "steady_mean_ms": statistics.fmean(steady) if steady else 0.0,
        "steady_median_ms": steady_median,
        "cache_hits": hits,
        "cache_hit_rate": hits / flagged if flagged else 0.0,
        "steady_ac_share": statistics.fmean(steady_shares) if steady_shares else 0.0,
    }
    stage_stats = {stage: _stage_stats(stage, counted, traces)
                   for stage, counted in per_stage.items()}
    summary["stage_mean_ms"] = {stage: mean for stage, (mean, _) in stage_stats.items()}
    summary["stage_median_ms"] = {stage: median for stage, (_, median) in stage_stats.items()}
    return summary


def _total_medians(totals: list[float], mean: float) -> tuple[float, float]:
    """``statistics.median`` of the totals and of the steady totals (all but
    the first, unless it is the only one), from one sort. ``mean`` is the
    totals' ``fmean``, which is NaN if and only if a total is."""
    if mean != mean:   # NaN compares false both ways, so the sort has no order to reuse
        return statistics.median(totals), statistics.median(totals[1:] or totals)
    ordered = sorted(totals)
    median = statistics.median(ordered)   # re-sorting a sorted list is one linear pass
    if len(ordered) > 1:
        # a stable sort puts totals[0] first among its equals, so the rest is
        # exactly sorted(totals[1:])
        del ordered[bisect_left(ordered, totals[0])]
    return median, statistics.median(ordered)


#: ``fsum`` cannot overflow while the absolute values add up to less than this.
_FSUM_SAFE = 2.0 ** 1000


def _stage_stats(stage: str, counted: list[tuple[float, int]],
                 traces: list[Optional[StageTrace]]) -> tuple[float, float]:
    """``(fmean, median)`` of one stage's durations over the rows, from
    ``(duration, rows)`` pairs of distinct traces; row by row from ``traces``
    where row order could change the result."""
    if not counted:
        return 0.0, 0.0
    ordered = sorted(counted, key=itemgetter(0))
    ends = list(accumulate(rows for _, rows in ordered))   # past each value's last copy
    n = ends[-1]
    low, high = (ordered[bisect_right(ends, position)][0] for position in ((n - 1) // 2, n // 2))
    limit = _FSUM_SAFE / n
    # a NaN has no place in the order; a huge value may overflow fsum in one order only
    if all(-limit < duration < limit for duration, _ in counted) and all(
            len({repr(d) for d, _ in counted if d == middle}) == 1 for middle in (low, high)):
        values: list[float] = []
        for duration, rows in counted:
            values += [duration] * rows
        return statistics.fmean(values), high if n % 2 else (low + high) / 2
    values = [record.duration_ms for trace in traces if trace is not None
              for record in trace.records if record.stage == stage]
    return statistics.fmean(values), statistics.median(values)


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
