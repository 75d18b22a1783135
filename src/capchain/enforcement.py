"""Service-provider enforcement: identity authentication and token validation.

A request passes through five stages in a fixed order, aborting at the
first failure:

    identity_auth -> token_fetch -> token_status -> rule_match -> condition_check

Tokens and identity are held by one rule: a provider serves what it holds
only while the chain is at its cursor, which moves once per block when a
whole sync completes. Each sync refetches only the tokens the chain's change
feed names, re-reads the provider's own record and its zone's status only if
the zone feed names them, and drops each requester record the feed names, so
a warm request at the synced height reads no contract. At any other height
a request reads the contract and nothing is held (fail-closed). Stage
durations come from a deterministic cost model supplied by the harness, so
traces are exactly reproducible.

Each check returns its denial reason, or None when it passes; a denial's
stage is recorded once, on its ``Decision``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple, Optional

from .address import ZERO_ADDRESS, Address
from .ledger import Chain, LedgerError
from .tokens import MS_PER_DAY, TokenContract
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


class ServiceRequest(NamedTuple):
    """What ``ServiceProvider.authorize`` reads, in order; it unpacks its request
    by position, so the simulator passes a plain tuple in this order."""

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


@dataclass(frozen=True)
class StageTrace:
    """One path through the pipeline. ``stage_ms`` sums the record durations in
    stage order; transport is per request and stays out of the trace. A denied
    path ends in its failing record; its stage is the ``Decision``'s."""

    records: tuple[StageRecord, ...]
    cache_hit: Optional[bool] = None
    stage_ms: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "stage_ms", sum(r.duration_ms for r in self.records))

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

_VZONE = ZoneContract.name


# ---------------------------------------------------------------------------
# Pure validation steps (operate on token wire dicts)
# ---------------------------------------------------------------------------

def verify_token_status(token: dict, now: float) -> Optional[str]:
    """Flag and date-window check: the first failing field, or None."""
    if not token["initialized"]:
        return "initialized"
    if not token["isValid"]:
        return "isValid"
    if not token["issuedate"] <= now:
        return "issuedate"
    if not now < token["expireddate"]:
        return "expireddate"
    return None


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
    if kind == "time_window":
        ms_of_day = now % MS_PER_DAY
        return condition["start_ms"] <= ms_of_day < condition["end_ms"]
    if kind == "weekday":
        day = int(now // MS_PER_DAY) % 7
        return day in condition["days"]
    if kind == "location_tag":
        return location_tag == condition["tag"]
    return False


def verify_conditions(rule: dict, now: float, location_tag: str) -> Optional[str]:
    """The kind of the first condition that fails, or None: all must hold
    (conjunctive), and an empty list is satisfied."""
    for condition in rule.get("conditions", []):
        if not condition_satisfied(condition, now, location_tag):
            return condition["kind"]
    return None


# ---------------------------------------------------------------------------
# Token cache
# ---------------------------------------------------------------------------

class TokenCache:
    """Provider-local tokens, held as of chain height ``cursor``.

    ``entries`` maps each held subject to its token wire dict. The provider
    serves and holds them only while the chain is at ``cursor``; at any other
    height it reads the contract.

    ``changes(cursor)`` is the token change feed (``Chain.changes_since``):
    it returns the latest height and a dict naming, once each, the subjects
    whose tokens changed in the blocks after height ``cursor``. A sync costs
    O(fewer of entries held and changed subjects): it walks whichever is
    smaller to find the held entries the feed names, refetches them and
    moves ``cursor`` to the latest height.
    """

    def __init__(self, changes: Callable[[int], tuple[int, dict]], cursor: int):
        self.changes = changes
        self.entries: dict[Address, dict] = {}
        self.cursor = cursor

    def sync(self, fetch, now: float, height: int) -> int:
        """Refetch the entries changed since the last sync; returns replaced-entry count.

        A sync completes or writes nothing: if the feed or a fetch raises
        ``OSError`` or ``LedgerError`` it returns 0, and any other exception
        propagates, with the entries and the cursor as they were either way.
        """
        # ``now`` and ``height`` are unread; they stay while the benchmark's tracer
        # passes them positionally.
        entries = self.entries
        try:
            latest, changed = self.changes(self.cursor)
            walked, other = sorted((changed, entries), key=len)   # walk the fewer
            fetched = [(subject, fetch(subject)) for subject in walked if subject in other]
        except (OSError, LedgerError):
            return 0
        refreshed = 0
        for subject, token in fetched:
            if token is None:
                del entries[subject]
            elif token != entries[subject]:
                entries[subject] = token
                refreshed += 1
        self.cursor = latest
        return refreshed


# ---------------------------------------------------------------------------
# Service provider
# ---------------------------------------------------------------------------

class ServiceProvider:
    """One service endpoint enforcing the authorization pipeline.

    ``stage_costs`` maps cost-model keys (``COST_KEYS``) to milliseconds;
    missing keys cost zero. The costs are fixed, so each path through the
    pipeline (failing stage and reason, cache hit or miss) has one shared
    ``(Decision, StageTrace)`` pair; every check still runs on every request.
    Handles one request at a time; the cache is only written between requests
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
        self._granted = {hit: (GRANTED, self._path(hit)) for hit in (True, False)}
        self._denials: dict[tuple[Optional[bool], str, str], tuple[Decision, StageTrace]] = {}
        self.cache = TokenCache(lambda cursor: chain.changes_since(TokenContract.name, cursor),
                                chain.height)
        self._fetch_token = \
            lambda subject: chain.query_state(TokenContract.name, "get_token", (subject,))
        # identity as of the cache's cursor: the provider's own record, whether
        # its zone is revoked, and each requester record read since
        self._requesters: dict[Address, VNodeRecord] = {}
        self._own_record = chain.query_state(_VZONE, "get_vnode", (address,))
        self._read_zone_status()

    def _read_zone_status(self) -> None:
        self._zone_revoked = self.chain.query_state(
            _VZONE, "get_vzone", (self._own_record.vzone_id,)).master is ZERO_ADDRESS

    def refresh_membership(self) -> None:
        """Sync's identity step, by the zone feed since the cursor: re-read the
        provider's own record if the feed names its address, its zone's status if
        the feed names the zone or the own record was re-read, and drop each held
        requester record the feed names. A block that wrote no zone record reads
        no contract. It moves no cursor; the token sync after it does."""
        changed = self.chain.changes_since(_VZONE, self.cache.cursor)[1]
        if self.address in changed:
            self._own_record = self.chain.query_state(_VZONE, "get_vnode", (self.address,))
        if self.address in changed or self._own_record.vzone_id in changed:
            self._read_zone_status()
        requesters = self._requesters
        for node in (changed if len(changed) <= len(requesters)
                     else [node for node in requesters if node in changed]):
            requesters.pop(node, None)

    # -- stage 0: identity authentication -------------------------------------

    def authenticate(self, requester: Address) -> Optional[str]:
        """Same-zone check of the requester's record against the provider's own;
        the denial reason, or None.

        At the synced height, the requester's record is read from the
        contract once and then held, and the own record and the zone's
        status are the ones the syncs read. At any other height (a block
        sealed without a sync, or a sync that failed) all three are read
        from the contract and nothing is held.
        """
        chain = self.chain
        synced = chain.height == self.cache.cursor
        record = self._requesters.get(requester) if synced else None
        if record is None:
            record = chain.query_state(_VZONE, "get_vnode", (requester,))
            if synced:
                self._requesters[requester] = record
        own = self._own_record if synced else \
            chain.query_state(_VZONE, "get_vnode", (self.address,))
        if own.node_type == NODE_TYPE_NONE or record.node_type == NODE_TYPE_NONE:
            return "not-member"
        if record.vzone_id != own.vzone_id:
            return "zone-mismatch"
        revoked = self._zone_revoked if synced else chain.query_state(
            _VZONE, "get_vzone", (own.vzone_id,)).master is ZERO_ADDRESS   # interned
        if revoked:
            return "zone-revoked"
        return None

    # -- stage 1: token fetch ----------------------------------------------------

    def fetch_or_cache_token(self, subject: Address) -> tuple[Optional[dict], bool]:
        """The subject's token, or None, and whether the cache served it.

        At the synced height a token is read from the contract once and then
        held; at any other height it is read and not held, as in ``authenticate``.
        """
        cache = self.cache
        synced = self.chain.height == cache.cursor
        token = cache.entries.get(subject) if synced else None
        if token is not None:
            return token, True
        token = self._fetch_token(subject)
        if token is not None and synced:
            cache.entries[subject] = token
        return token, False

    # -- full pipeline --------------------------------------------------------------

    def authorize(self, request: ServiceRequest) -> tuple[Decision, StageTrace]:
        requester, method, uri, now, location_tag = request
        reason = self.authenticate(requester)
        if reason is not None:
            return self._deny(None, "identity_auth", reason)

        token, hit = self.fetch_or_cache_token(requester)
        if token is None:
            return self._deny(hit, "token_fetch_hit" if hit else "token_fetch_miss",
                              "token-absent")

        reason = verify_token_status(token, now)
        if reason is not None:
            return self._deny(hit, "token_status", reason)

        rule = match_access_rule(token, method, uri)
        if rule is None:
            return self._deny(hit, "rule_match", "no-matching-rule")

        reason = verify_conditions(rule, now, location_tag)
        if reason is not None:
            return self._deny(hit, "condition_check", reason)
        return self._granted[hit]

    def _path(self, hit: Optional[bool], failed: Optional[str] = None) -> StageTrace:
        """The trace failing at cost key ``failed``, or passing all five stages if None."""
        keys = ("identity_auth", "token_fetch_hit" if hit else "token_fetch_miss",
                "token_status", "rule_match", "condition_check")
        if failed is None:
            return StageTrace(tuple(self._passed[key] for key in keys), hit)
        passed = keys[:keys.index(failed)]
        return StageTrace(tuple(self._passed[key] for key in passed) + (self._failed[failed],),
                          hit)

    def _deny(self, hit: Optional[bool], key: str,
              reason: str) -> tuple[Decision, StageTrace]:
        """The shared denial pair of the path failing at cost key ``key``; the
        decision's stage is that of the trace's failing record."""
        pair = self._denials.get((hit, key, reason))
        if pair is None:
            trace = self._path(hit, key)
            pair = self._denials[hit, key, reason] = \
                (Decision(False, trace.records[-1].stage, reason), trace)
        return pair

    # -- cache synchronization ---------------------------------------------------------

    def sync_cache(self) -> int:
        """Sync held identity, then cached tokens, with confirmed state; once per
        block. The cursor moves only when both complete; an identity step that
        raises propagates, and nothing held is served until a sync completes."""
        self.refresh_membership()
        return self.cache.sync(self._fetch_token, 0.0, self.chain.height)

