"""Span tracing around capchain's public entry points, installed at runtime.

``Tracer.installed()`` wraps the entry points listed in ``_TIMED`` for
the duration of a ``with`` block and restores the originals afterwards;
no file of the program changes. Each call becomes a span with its name,
start, end and parent span. Spans under one ``authorize`` share a request
id, and spans under one ``produce_block`` or ``sync_cache`` share that
block's height. Spans stay in memory (parallel arrays, about 40 bytes
each) until ``write_spans`` or ``layer_metrics`` reads them.

A span's self time is its duration minus the durations of its direct
children; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import heapq
import statistics
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter_ns

from capchain import address, enforcement, ledger, master, netsim, tokens, zones

# (owner, attribute, span name). Descriptors (classmethod, property) are
# unwrapped and rewrapped so the patched attribute behaves like the original.
_TIMED = (
    (netsim.Simulation, "run", "netsim.run"),
    (netsim, "summarize", "netsim.reports"),
    (netsim, "write_measurements_csv", "netsim.reports"),
    (netsim, "write_stage_traces_csv", "netsim.reports"),
    (netsim, "write_summary_text", "netsim.reports"),
    (ledger.Chain, "submit_transaction", "ledger.submit"),
    (ledger.Chain, "produce_block", "ledger.produce"),
    (ledger.Chain, "query_state", "ledger.query"),
    (ledger.Chain, "export_chain_text", "ledger.export"),
    (ledger.Transaction, "digest", "ledger.tx_digest"),
    (ledger, "replay_chain", "ledger.replay"),
    (zones.ZoneContract, "view", "zones.view"),
    (zones.ZoneContract, "execute", "zones.execute"),
    (tokens.TokenContract, "view", "tokens.view"),
    (tokens.TokenContract, "execute", "tokens.execute"),
    (address.Address, "from_hex", "address.from_hex"),
    (master.DomainMaster, "register_entity", "master.register"),
    (master.ProfileStore, "upsert", "master.store"),
    (master.DomainMaster, "issue_capability", "master.issue"),
    (master.DomainMaster, "poll_registration", "master.poll"),
    (master.DomainMaster, "poll_issue", "master.poll"),
    (enforcement.ServiceProvider, "authorize", "enforcement.authorize"),
    (enforcement.ServiceProvider, "authenticate", "enforcement.authenticate"),
    (enforcement.ServiceProvider, "sync_cache", "enforcement.sync"),
)

# Spans that start a new context: which height a span tree belongs to.
_HEIGHT_OF = {
    "ledger.produce": lambda args: args[0].height + 1,
    "enforcement.sync": lambda args: args[0].chain.height,
}

PER_LAYER_UNITS = {
    "netsim.loop_self_s": "s",
    "netsim.events": "count",
    "netsim.reports_s": "s",
    "ledger.submit_calls": "count",
    "ledger.submit_s": "s",
    "ledger.produce_calls": "count",
    "ledger.produce_self_s": "s",
    "ledger.tx_digest_calls": "count",
    "ledger.tx_digest_per_tx": "1/tx",
    "ledger.query_calls": "count",
    "ledger.query_s": "s",
    "ledger.export_s": "s",
    "ledger.replay_self_s": "s",
    "zones.view_calls": "count",
    "zones.view_s": "s",
    "zones.execute_calls": "count",
    "zones.execute_s": "s",
    "tokens.view_calls": "count",
    "tokens.view_s": "s",
    "tokens.wire_calls": "count",
    "tokens.execute_calls": "count",
    "tokens.execute_s": "s",
    "address.from_hex_calls": "count",
    "address.from_hex_s": "s",
    "master.register_s": "s",
    "master.store_s": "s",
    "master.issue_s": "s",
    "master.poll_s": "s",
    "enforcement.authorize_calls": "count",
    "enforcement.authorize_self_s": "s",
    "enforcement.authorize_p50_us": "us",
    "enforcement.authorize_tail_us": "us",
    "enforcement.authorize_tail_pct": "%",
    "enforcement.authenticate_s": "s",
    "enforcement.cache_hit_ratio": "ratio",
    "enforcement.queries_per_request": "1/request",
    "enforcement.sync_calls": "count",
    "enforcement.sync_s": "s",
    "enforcement.sync_refetches": "count",
    "enforcement.sync_changed": "count",
    "enforcement.sync_useful_ratio": "ratio",
}


class _CountingHeap:
    """Stands in for the ``heapq`` module inside netsim; counts events popped."""

    def __init__(self, counts: Counter):
        self._counts = counts
        self.heappush = heapq.heappush

    def heappop(self, queue):
        self._counts["netsim.events"] += 1
        return heapq.heappop(queue)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.request = array("l")
        self.height = array("l")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._requests = 0

    def _timed(self, span: str, fn):
        if span not in self._name_ids:
            self._name_ids[span] = len(self.names)
            self.names.append(span)
        nid = self._name_ids[span]
        height_of = _HEIGHT_OF.get(span)
        new_request = span == "enforcement.authorize"
        names, start, end, parent = self.name, self.start, self.end, self.parent
        request, height, stack = self.request, self.height, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            if stack:
                up = stack[-1]
                req, hgt = request[up], height[up]
            else:
                up = req = hgt = -1
            if new_request:
                self._requests += 1
                req = self._requests
            if height_of is not None:
                hgt = height_of(args)
            names.append(nid)
            parent.append(up)
            request.append(req)
            height.append(hgt)
            end.append(0)
            stack.append(idx)
            start.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()

        return wrapper

    def _patches(self) -> list[tuple[object, str, object]]:
        counts = self.counts
        patches = {}
        for owner, attr, span in _TIMED:
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                patches[owner, attr] = classmethod(self._timed(span, original.__func__))
            elif isinstance(original, property):
                patches[owner, attr] = property(self._timed(span, original.fget))
            else:
                patches[owner, attr] = self._timed(span, original)

        authorize = patches[enforcement.ServiceProvider, "authorize"]

        def authorize_counting(provider, request, *args, **kwargs):
            decision, trace = authorize(provider, request, *args, **kwargs)
            if trace.cache_hit is not None:
                counts["enforcement.token_fetches"] += 1
                counts["enforcement.cache_hits"] += trace.cache_hit
            return decision, trace

        wire = tokens.CapabilityToken.wire

        def wire_counting(token):
            counts["tokens.wire_calls"] += 1
            return wire(token)

        sync = enforcement.TokenCache.sync

        def sync_counting(cache, fetch, now, height):
            counts["enforcement.sync_refetches"] += len(cache.entries)
            changed = sync(cache, fetch, now, height)
            counts["enforcement.sync_changed"] += changed
            return changed

        patches[enforcement.ServiceProvider, "authorize"] = authorize_counting
        patches[tokens.CapabilityToken, "wire"] = wire_counting
        patches[enforcement.TokenCache, "sync"] = sync_counting
        patches[netsim, "heapq"] = _CountingHeap(counts)
        return [(owner, attr, replacement) for (owner, attr), replacement in patches.items()]

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced entry point for the duration of the block."""
        saved = []
        try:
            for owner, attr, replacement in self._patches():
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layer_metrics(self, transactions: int) -> dict[str, float]:
        """Per-layer counts and host times; ``transactions`` is the chain's tx count."""
        n = len(self.name)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        children = [0] * n
        for i, up in enumerate(self.parent):
            if up >= 0:
                children[up] += duration[i]
        calls: Counter = Counter()
        total: dict[str, int] = defaultdict(int)
        own: dict[str, int] = defaultdict(int)
        authorize_ns = []
        queries_in_requests = 0
        for i in range(n):
            span = self.names[self.name[i]]
            calls[span] += 1
            total[span] += duration[i]
            own[span] += duration[i] - children[i]
            if span == "enforcement.authorize":
                authorize_ns.append(duration[i])
            elif span == "ledger.query" and self.request[i] >= 0:
                queries_in_requests += 1

        def seconds(ns: int) -> float:
            return ns / 1e9

        counts = self.counts
        requests = calls["enforcement.authorize"]
        authorize_ns.sort()
        # the highest percentile with at least ten samples beyond it
        tail_index = max(0, requests - 11)
        refetches = counts["enforcement.sync_refetches"]
        return {
            "netsim.loop_self_s": seconds(own["netsim.run"]),
            "netsim.events": counts["netsim.events"],
            "netsim.reports_s": seconds(total["netsim.reports"]),
            "ledger.submit_calls": calls["ledger.submit"],
            "ledger.submit_s": seconds(total["ledger.submit"]),
            "ledger.produce_calls": calls["ledger.produce"],
            "ledger.produce_self_s": seconds(own["ledger.produce"]),
            "ledger.tx_digest_calls": calls["ledger.tx_digest"],
            "ledger.tx_digest_per_tx": calls["ledger.tx_digest"] / max(1, transactions),
            "ledger.query_calls": calls["ledger.query"],
            "ledger.query_s": seconds(total["ledger.query"]),
            "ledger.export_s": seconds(total["ledger.export"]),
            "ledger.replay_self_s": seconds(own["ledger.replay"]),
            "zones.view_calls": calls["zones.view"],
            "zones.view_s": seconds(total["zones.view"]),
            "zones.execute_calls": calls["zones.execute"],
            "zones.execute_s": seconds(total["zones.execute"]),
            "tokens.view_calls": calls["tokens.view"],
            "tokens.view_s": seconds(total["tokens.view"]),
            "tokens.wire_calls": counts["tokens.wire_calls"],
            "tokens.execute_calls": calls["tokens.execute"],
            "tokens.execute_s": seconds(total["tokens.execute"]),
            "address.from_hex_calls": calls["address.from_hex"],
            "address.from_hex_s": seconds(total["address.from_hex"]),
            "master.register_s": seconds(total["master.register"]),
            "master.store_s": seconds(total["master.store"]),
            "master.issue_s": seconds(total["master.issue"]),
            "master.poll_s": seconds(total["master.poll"]),
            "enforcement.authorize_calls": requests,
            "enforcement.authorize_self_s": seconds(own["enforcement.authorize"]),
            "enforcement.authorize_p50_us":
                statistics.median(authorize_ns) / 1e3 if authorize_ns else 0.0,
            "enforcement.authorize_tail_us":
                authorize_ns[tail_index] / 1e3 if authorize_ns else 0.0,
            "enforcement.authorize_tail_pct":
                100.0 * (tail_index + 1) / requests if requests else 0.0,
            "enforcement.authenticate_s": seconds(total["enforcement.authenticate"]),
            "enforcement.cache_hit_ratio":
                counts["enforcement.cache_hits"] / max(1, counts["enforcement.token_fetches"]),
            "enforcement.queries_per_request": queries_in_requests / max(1, requests),
            "enforcement.sync_calls": calls["enforcement.sync"],
            "enforcement.sync_s": seconds(total["enforcement.sync"]),
            "enforcement.sync_refetches": refetches,
            "enforcement.sync_changed": counts["enforcement.sync_changed"],
            "enforcement.sync_useful_ratio":
                counts["enforcement.sync_changed"] / max(1, refetches),
        }

    def write_spans(self, path: Path) -> None:
        """All spans as gzipped TSV, times in ns from the first span's start."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.start[0] if len(self.start) else 0
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as out:
            out.write("span\tname\tstart_ns\tend_ns\tparent\trequest\theight\n")
            for i in range(len(self.name)):
                out.write(f"{i}\t{self.names[self.name[i]]}\t{self.start[i] - origin}\t"
                          f"{self.end[i] - origin}\t{self.parent[i]}\t{self.request[i]}\t"
                          f"{self.height[i]}\n")
