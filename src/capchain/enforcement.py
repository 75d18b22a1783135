"""Service-provider enforcement: identity authentication and token validation.

A request passes through five stages in a fixed order, aborting at the
first failure:

    identity_auth -> token_fetch -> token_status -> rule_match -> condition_check

Token data is read from a provider-local cache that is synced once per
block interval, refetching only the tokens the contract reports changed;
entries that miss a sync go stale and fall back to a direct contract
query (fail-closed). Stage durations come from a deterministic cost
model supplied by the harness, so traces are exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

from .address import Address
from .ledger import Chain, LedgerError
from .tokens import MS_PER_DAY, ConditionKind, TokenContract
from .zones import NODE_TYPE_NONE, VNodeRecord, ZoneContract

PIPELINE_STAGES = ("identity_auth", "token_fetch", "token_status", "rule_match",
                   "condition_check")

#: Cost-model keys and the stage each prices; a token fetch is priced by
#: whether the cache served it.
COST_KEYS = {
    "identity_auth": "identity_auth",
    "token_fetch_hit": "token_fetch",
    "token_fetch_miss": "token_fetch",
    "token_status": "token_status",
    "rule_match": "rule_match",
    "condition_check": "condition_check",
}


@dataclass(frozen=True)
class ServiceRequest:
    requester: Address
    method: str                # REST action name: GET/POST/PUT/DELETE
    uri: str                   # Request-URI path
    now: float                 # virtual-time ms at evaluation
    location_tag: str = ""


@dataclass(frozen=True)
class StageRecord:
    stage: str
    outcome: str               # "pass" | "fail"
    duration_ms: float


@dataclass
class StageTrace:
    """Per-request record of stage outcomes and durations."""

    records: list[StageRecord] = field(default_factory=list)
    transport_ms: float = 0.0
    aborted_at: Optional[str] = None
    cache_hit: Optional[bool] = None

    @property
    def total_ms(self) -> float:
        return sum(r.duration_ms for r in self.records) + self.transport_ms

    def recorded_stages(self) -> tuple[str, ...]:
        return tuple(r.stage for r in self.records)


@dataclass(frozen=True)
class Decision:
    granted: bool
    stage: Optional[str] = None      # denial stage, None on grant
    reason: Optional[str] = None

    def denial_wire(self, requester: Address) -> dict:
        """Machine-readable denial response."""
        return {"stage": self.stage, "reason": self.reason, "requester": requester.hex}


GRANTED = Decision(granted=True)


# ---------------------------------------------------------------------------
# Pure validation steps (operate on token wire dicts)
# ---------------------------------------------------------------------------

def verify_token_status(token: dict, now: float) -> tuple[bool, Optional[str]]:
    """Flag and date-window check; reason names the first failing field."""
    if not token["initialized"]:
        return False, "initialized"
    if not token["isValid"]:
        return False, "isValid"
    if not token["issuedate"] <= now:
        return False, "issuedate"
    if not now < token["expireddate"]:
        return False, "expireddate"
    return True, None


def match_access_rule(token: dict, method: str, uri: str) -> Optional[dict]:
    """First rule whose action and resource both match, in list order.

    Resource matching is exact string equality on the Request-URI; no
    prefixes or wildcards.
    """
    for rule in token["authorization"]:
        if rule["action"] == method and rule["resource"] == uri:
            return rule
    return None


def condition_satisfied(condition: dict, now: float, location_tag: str) -> bool:
    kind = condition["kind"]
    if kind == ConditionKind.TIME_WINDOW.value:
        ms_of_day = now % MS_PER_DAY
        return condition["start_ms"] <= ms_of_day < condition["end_ms"]
    if kind == ConditionKind.WEEKDAY.value:
        day = int(now // MS_PER_DAY) % 7
        return day in condition["days"]
    if kind == ConditionKind.LOCATION_TAG.value:
        return location_tag == condition["tag"]
    return False


def verify_conditions(rule: dict, now: float,
                      location_tag: str) -> tuple[bool, Optional[str]]:
    """All conditions must hold (conjunctive); an empty list is satisfied."""
    for condition in rule.get("conditions", []):
        if not condition_satisfied(condition, now, location_tag):
            return False, condition["kind"]
    return True, None


# ---------------------------------------------------------------------------
# Token cache
# ---------------------------------------------------------------------------

@dataclass
class CacheEntry:
    token: dict
    synced_at: float


class TokenCache:
    """Provider-local token store, kept in step with the chain per block.

    An entry is served only while its last sync is at most one block
    interval old; anything older is evicted so the next request goes back
    to the contract (fail-closed).

    ``changes(cursor)`` is the token contract's change feed: it returns
    the latest change number and the subjects whose tokens changed after
    ``cursor``. ``cursor`` is the last change number a sync completed
    through; it starts at 0, so the first sync refetches every entry.
    """

    def __init__(self, block_interval_ms: int,
                 changes: Callable[[int], tuple[int, list[Address]]]):
        self.block_interval_ms = block_interval_ms
        self.changes = changes
        self.entries: dict[Address, CacheEntry] = {}
        self.cursor = 0

    def get(self, subject: Address, now: float) -> Optional[CacheEntry]:
        entry = self.entries.get(subject)
        if entry is None:
            return None
        if now - entry.synced_at > self.block_interval_ms:
            del self.entries[subject]
            return None
        return entry

    def put(self, subject: Address, token: dict, now: float) -> None:
        self.entries[subject] = CacheEntry(token=token, synced_at=now)

    def sync(self, fetch, now: float, height: int) -> int:
        """Refetch the entries changed since the last sync; returns replaced-entry count.

        Every other entry is unchanged on the chain and is only marked
        synced at ``now``. An unreachable change feed leaves nothing to
        trust, so every entry is evicted (fail-closed) and the cursor stays.
        """
        try:
            latest, changed = self.changes(self.cursor)
        except (OSError, LedgerError):
            self.entries.clear()
            return 0
        refreshed = 0
        for subject in changed:
            entry = self.entries.get(subject)
            if entry is None:
                continue
            try:
                token = fetch(subject)
            except (OSError, LedgerError):
                token = None
            if token is None:
                del self.entries[subject]   # fail-closed: force a re-query next time
            elif token != entry.token:
                entry.token = token
                refreshed += 1
        for entry in self.entries.values():
            entry.synced_at = now
        self.cursor = latest
        return refreshed


# ---------------------------------------------------------------------------
# Service provider
# ---------------------------------------------------------------------------

class ServiceProvider:
    """One service endpoint enforcing the authorization pipeline.

    ``stage_costs`` maps cost-model keys (``COST_KEYS``) to milliseconds;
    missing keys cost zero. The costs are fixed, so the pass and fail
    record of every key is built once and shared by every trace. Handles
    one request at a time; the cache is only written between requests
    (initial fetch aside), so each request sees a coherent token snapshot.
    """

    def __init__(self, address: Address, chain: Chain,
                 stage_costs: Optional[Mapping[str, float]] = None):
        self.address = address
        self.chain = chain
        costs = stage_costs or {}
        self._passed = {key: StageRecord(stage, "pass", costs.get(key, 0.0))
                        for key, stage in COST_KEYS.items()}
        self._failed = {key: StageRecord(stage, "fail", costs.get(key, 0.0))
                        for key, stage in COST_KEYS.items()}
        self._denials: dict[tuple[str, str], Decision] = {}
        self.cache = TokenCache(
            chain.config.block_interval_ms,
            lambda cursor: chain.query_state(TokenContract.name, "changes_since", (cursor,)))
        self.contract_queries = 0
        self._own_record: VNodeRecord = self._query_vnode(address)

    def _query_vnode(self, addr: Address) -> VNodeRecord:
        self.contract_queries += 1
        return self.chain.query_state(ZoneContract.name, "get_vnode", (addr,))

    def refresh_membership(self) -> None:
        self._own_record = self.chain.query_state(
            ZoneContract.name, "get_vnode", (self.address,))

    # -- stage 0: identity authentication -------------------------------------

    def authenticate(self, requester: Address) -> tuple[bool, Optional[str]]:
        """Same-zone check: two contract queries (requester Vnode, then VZone)."""
        requester_record = self._query_vnode(requester)
        if self._own_record.node_type == NODE_TYPE_NONE or \
                requester_record.node_type == NODE_TYPE_NONE:
            return False, "not-member"
        if requester_record.vzone_id != self._own_record.vzone_id:
            return False, "zone-mismatch"
        self.contract_queries += 1
        zone = self.chain.query_state(ZoneContract.name, "get_vzone",
                                      (self._own_record.vzone_id,))
        if zone.master.is_zero:
            return False, "zone-revoked"
        return True, None

    # -- stage 1: token fetch ----------------------------------------------------

    def fetch_or_cache_token(self, subject: Address,
                             now: float) -> tuple[Optional[dict], bool]:
        entry = self.cache.get(subject, now)
        if entry is not None:
            return entry.token, True
        self.contract_queries += 1
        token = self.chain.query_state(TokenContract.name, "get_token", (subject,))
        if token is not None:
            self.cache.put(subject, token, now)
        return token, False

    # -- full pipeline --------------------------------------------------------------

    def authorize(self, request: ServiceRequest,
                  transport_ms: float = 0.0) -> tuple[Decision, StageTrace]:
        trace = StageTrace(transport_ms=transport_ms)
        ok, reason = self.authenticate(request.requester)
        if not ok:
            return self._deny(trace, "identity_auth", reason), trace
        records, passed = trace.records, self._passed
        records.append(passed["identity_auth"])

        token, hit = self.fetch_or_cache_token(request.requester, request.now)
        trace.cache_hit = hit
        fetch = "token_fetch_hit" if hit else "token_fetch_miss"
        if token is None:
            return self._deny(trace, fetch, "token-absent"), trace
        records.append(passed[fetch])

        ok, reason = verify_token_status(token, request.now)
        if not ok:
            return self._deny(trace, "token_status", reason), trace
        records.append(passed["token_status"])

        rule = match_access_rule(token, request.method, request.uri)
        if rule is None:
            return self._deny(trace, "rule_match", "no-matching-rule"), trace
        records.append(passed["rule_match"])

        ok, reason = verify_conditions(rule, request.now, request.location_tag)
        if not ok:
            return self._deny(trace, "condition_check", reason), trace
        records.append(passed["condition_check"])
        return GRANTED, trace

    def _deny(self, trace: StageTrace, key: str, reason: str) -> Decision:
        """Record the failed stage priced by cost key ``key``; one shared
        ``Decision`` per stage and reason."""
        record = self._failed[key]
        trace.records.append(record)
        trace.aborted_at = record.stage
        decision = self._denials.get((record.stage, reason))
        if decision is None:
            decision = self._denials[record.stage, reason] = \
                Decision(granted=False, stage=record.stage, reason=reason)
        return decision

    # -- cache synchronization ---------------------------------------------------------

    def sync_cache(self, now: float) -> int:
        """Sync cached tokens with confirmed state; once per block interval."""
        self.refresh_membership()

        def fetch(subject: Address):
            return self.chain.query_state(TokenContract.name, "get_token", (subject,))

        return self.cache.sync(fetch, now, self.chain.height)

