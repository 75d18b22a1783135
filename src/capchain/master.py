"""Domain master: entity registration, policy decisions, token issuance.

A master owns one zone. It keeps member profiles in an embedded SQLite
store (survives restarts when given a file path), admits registrations
through a configurable policy, evaluates access requests against a rule
file, and turns grant decisions into confirmed token issuances.

Registration and issuance are two-phase because confirmation takes a
block: the submitting call returns a pending handle, and the matching
``poll_*`` call yields the result only once the transaction is in a
confirmed block.
"""

from __future__ import annotations

import csv
import json
import sqlite3
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from .address import Address
from .ledger import Chain
from .tokens import AccessRule, TokenContract
from .zones import NODE_TYPE_NONE, ZoneContract


class MasterError(Exception):
    """Base error for domain-master operations."""


class DeniedRegistration(MasterError):
    """Registration policy rejected the applicant."""


class DuplicateRegistration(MasterError):
    """Applicant already holds a confirmed zone membership."""


class RegistrationFailed(MasterError):
    """The confirmed join transaction returned false (duplicate/foreign membership)."""


class IssuanceRejected(MasterError):
    """The token contract rejected the issuance transaction."""

    def __init__(self, cause: str):
        self.cause = cause
        super().__init__(f"issuance rejected: {cause}")


@dataclass(frozen=True)
class EntityProfile:
    vid: Address
    display_name: str
    group_id: str
    registered_at: int
    attributes: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class RegistrationRequest:
    vid: Address
    display_name: str
    attributes: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class Ticket:
    """Registration receipt: membership is recorded on-chain, this is the stub."""
    vid: Address
    group_id: str


@dataclass(frozen=True)
class PendingRegistration:
    vid: Address
    tx_digest: str


@dataclass(frozen=True)
class PendingIssue:
    subject: Address
    tx_digest: str


@dataclass(frozen=True)
class IssueReceipt:
    subject: Address
    contract: str
    token_id: int


@dataclass(frozen=True)
class AccessDecision:
    granted: tuple[AccessRule, ...]
    validity_ms: int


@dataclass(frozen=True)
class AccessDenial:
    reason: str


class ProfileStore:
    """SQLite-backed profile table keyed by vid."""

    def __init__(self, path: Union[str, Path] = ":memory:"):
        self._conn = sqlite3.connect(str(path))
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS profiles ("
            " vid TEXT PRIMARY KEY,"
            " display_name TEXT NOT NULL,"
            " group_id TEXT NOT NULL,"
            " registered_at INTEGER NOT NULL,"
            " attributes TEXT NOT NULL)"
        )
        self._conn.commit()

    def upsert(self, profile: EntityProfile) -> None:
        self._conn.execute(
            "INSERT INTO profiles (vid, display_name, group_id, registered_at, attributes)"
            " VALUES (?, ?, ?, ?, ?)"
            " ON CONFLICT(vid) DO UPDATE SET display_name=excluded.display_name,"
            " group_id=excluded.group_id, registered_at=excluded.registered_at,"
            " attributes=excluded.attributes",
            (profile.vid.hex, profile.display_name, profile.group_id,
             profile.registered_at, json.dumps(profile.attributes, sort_keys=True)),
        )
        self._conn.commit()

    def get(self, vid: Address) -> Optional[EntityProfile]:
        row = self._conn.execute(
            "SELECT vid, display_name, group_id, registered_at, attributes"
            " FROM profiles WHERE vid = ?", (vid.hex,)).fetchone()
        if row is None:
            return None
        return EntityProfile(Address.from_hex(row[0]), row[1], row[2], row[3],
                             json.loads(row[4]))

    def all_profiles(self) -> list[EntityProfile]:
        rows = self._conn.execute(
            "SELECT vid, display_name, group_id, registered_at, attributes"
            " FROM profiles ORDER BY vid").fetchall()
        return [EntityProfile(Address.from_hex(r[0]), r[1], r[2], r[3], json.loads(r[4]))
                for r in rows]

    def export_csv(self, stream) -> None:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["vid", "display_name", "group_id", "registered_at", "attributes"])
        for profile in self.all_profiles():
            writer.writerow([profile.vid.hex, profile.display_name, profile.group_id,
                             profile.registered_at,
                             json.dumps(profile.attributes, sort_keys=True)])

    def close(self) -> None:
        self._conn.close()


@dataclass(frozen=True)
class RegistrationPolicy:
    """Admission policy chain: allow_all | allowlist | denylist | attribute."""

    kind: str = "allow_all"
    vids: frozenset[str] = frozenset()
    required_attributes: tuple[tuple[str, str], ...] = ()

    def permits(self, request: RegistrationRequest) -> bool:
        if self.kind == "allow_all":
            return True
        if self.kind == "allowlist":
            return request.vid.hex in self.vids
        if self.kind == "denylist":
            return request.vid.hex not in self.vids
        if self.kind == "attribute":
            return all(request.attributes.get(key) == value
                       for key, value in self.required_attributes)
        raise ValueError(f"unknown registration policy kind {self.kind!r}")

    @classmethod
    def from_config(cls, body: dict) -> "RegistrationPolicy":
        return cls(
            kind=body.get("kind", "allow_all"),
            vids=frozenset(body.get("vids", ())),
            required_attributes=tuple(sorted(body.get("required_attributes", {}).items())),
        )


@dataclass(frozen=True)
class PolicyRule:
    """One authorization policy rule: attribute match -> granted access rules.

    ``match`` entries are equality predicates against profile attributes;
    the keys ``vid``, ``display_name`` and ``group_id`` address the profile
    fields directly. An empty match matches every profile.
    """

    match: tuple[tuple[str, str], ...]
    grant: tuple[AccessRule, ...]
    validity_ms: int

    def __post_init__(self) -> None:
        if not self.grant:
            raise ValueError("policy rule must grant at least one access rule")
        if self.validity_ms <= 0:
            raise ValueError("validity_ms must be positive")

    def matches(self, profile: EntityProfile) -> bool:
        fields = {"vid": profile.vid.hex, "display_name": profile.display_name,
                  "group_id": profile.group_id}
        for key, value in self.match:
            actual = fields.get(key, profile.attributes.get(key))
            if actual != value:
                return False
        return True

    def wire(self) -> dict:
        return {
            "match": dict(self.match),
            "grant": [rule.wire() for rule in self.grant],
            "validity_ms": self.validity_ms,
        }

    @classmethod
    def from_wire(cls, body: dict) -> "PolicyRule":
        return cls(
            match=tuple(sorted(body.get("match", {}).items())),
            grant=tuple(AccessRule.from_wire(r) for r in body["grant"]),
            validity_ms=body["validity_ms"],
        )


def load_policy_rules(path: Union[str, Path]) -> list[PolicyRule]:
    with open(path, encoding="utf-8") as handle:
        body = json.load(handle)
    return [PolicyRule.from_wire(rule) for rule in body["rules"]]


class DomainMaster:
    """One master node: registration, decision making, issuance."""

    def __init__(self, address: Address, zone_id: str, chain: Chain,
                 store: Optional[ProfileStore] = None,
                 registration_policy: Optional[RegistrationPolicy] = None,
                 policy_rules: tuple[PolicyRule, ...] = ()):
        self.address = address
        self.zone_id = zone_id
        self.chain = chain
        self.store = store or ProfileStore()
        self.registration_policy = registration_policy or RegistrationPolicy()
        self.policy_rules = tuple(policy_rules)
        self._pending_joins: dict[Address, str] = {}     # vid -> tx digest
        self._pending_issues: dict[Address, str] = {}    # subject -> tx digest

    # -- helpers -----------------------------------------------------------------

    def owns_zone(self) -> bool:
        zone = self.chain.query_state(ZoneContract.name, "get_vzone", (self.zone_id,))
        return zone.master == self.address

    # -- registration ----------------------------------------------------------------

    def register_entity(self, request: RegistrationRequest, now: int) -> PendingRegistration:
        if not self.owns_zone():
            raise MasterError(f"master does not own a confirmed zone {self.zone_id!r}")
        if not self.registration_policy.permits(request):
            raise DeniedRegistration(f"policy rejected {request.vid.hex}")
        record = self.chain.query_state(ZoneContract.name, "get_vnode", (request.vid,))
        if record.node_type != NODE_TYPE_NONE:
            raise DuplicateRegistration(
                f"{request.vid.hex} already belongs to zone {record.vzone_id!r}")
        profile = EntityProfile(request.vid, request.display_name, self.zone_id,
                                now, dict(request.attributes))
        self.store.upsert(profile)
        digest = self.chain.submit(self.address, ZoneContract.name, "join_vzone",
                                   (self.zone_id, request.vid.hex))
        self._pending_joins[request.vid] = digest
        return PendingRegistration(request.vid, digest)

    def poll_registration(self, vid: Address) -> Optional[Ticket]:
        """Ticket once the join is confirmed; None while pending.

        Raises RegistrationFailed when the confirmed join returned false
        (the node already belonged to some zone at application time).
        """
        digest = self._pending_joins.get(vid)
        if digest is None:
            return None
        receipt = self.chain.get_receipt(digest)
        if receipt is None:
            return None
        del self._pending_joins[vid]
        if not receipt.ok or receipt.result is not True:
            raise RegistrationFailed(
                f"join for {vid.hex} was not accepted (duplicate or foreign membership)")
        return Ticket(vid, self.zone_id)

    # -- policy decisions ----------------------------------------------------------------

    def evaluate_access_request(
            self, subject: Address,
            requested: tuple[AccessRule, ...]) -> Union[AccessDecision, AccessDenial]:
        """Pure decision: union of matching policy grants, cut down to the request."""
        profile = self.store.get(subject)
        if profile is None:
            return AccessDenial("unknown-subject")
        record = self.chain.query_state(ZoneContract.name, "get_vnode", (subject,))
        if record.node_type == NODE_TYPE_NONE or record.vzone_id != self.zone_id:
            return AccessDenial("not-a-member")
        granted: dict[tuple[str, str], AccessRule] = {}
        validity = 0
        for rule in self.policy_rules:
            if not rule.matches(profile):
                continue
            validity = max(validity, rule.validity_ms)
            for grant in rule.grant:
                granted.setdefault((grant.action.value, grant.resource), grant)
        requested_keys = {(r.action.value, r.resource) for r in requested}
        selected = tuple(rule for key, rule in granted.items() if key in requested_keys)
        if not selected:
            return AccessDenial("no-matching-policy")
        return AccessDecision(granted=selected, validity_ms=validity)

    # -- issuance -------------------------------------------------------------------------

    def issue_capability(self, subject: Address, decision: AccessDecision,
                         now: int) -> PendingIssue:
        if not isinstance(decision, AccessDecision):
            raise MasterError("issue_capability requires a grant decision")
        rules_wire = [rule.wire() for rule in decision.granted]
        digest = self.chain.submit(self.address, TokenContract.name, "issue_token",
                                   (subject.hex, rules_wire, now, now + decision.validity_ms))
        self._pending_issues[subject] = digest
        return PendingIssue(subject, digest)

    def poll_issue(self, subject: Address) -> Optional[IssueReceipt]:
        """Issue receipt (contract id + token id) once confirmed; None while pending."""
        digest = self._pending_issues.get(subject)
        if digest is None:
            return None
        receipt = self.chain.get_receipt(digest)
        if receipt is None:
            return None
        del self._pending_issues[subject]
        if not receipt.ok:
            raise IssuanceRejected(receipt.error or "rejected")
        return IssueReceipt(subject, TokenContract.name, receipt.result)

    # -- pending transactions ----------------------------------------------------------

    @property
    def has_pending(self) -> bool:
        """True while a submitted join or issuance awaits its block."""
        return bool(self._pending_joins or self._pending_issues)

    def poll_all(self) -> tuple[list[dict], list[dict]]:
        """Poll every pending join, then every pending issuance, once.

        Returns ``(registrations, issues)``: one outcome record for each
        transaction now in a confirmed block, in submission order.
        Unconfirmed ones stay pending.
        """
        registrations: list[dict] = []
        for vid in list(self._pending_joins):
            try:
                ticket = self.poll_registration(vid)
            except RegistrationFailed as exc:
                registrations.append({"vid": vid.hex, "status": "rejected",
                                      "reason": str(exc)})
                continue
            if ticket is not None:
                registrations.append({"vid": vid.hex, "status": "confirmed",
                                      "group_id": ticket.group_id})
        issues: list[dict] = []
        for subject in list(self._pending_issues):
            try:
                receipt = self.poll_issue(subject)
            except IssuanceRejected as exc:
                issues.append({"subject": subject.hex, "status": "rejected",
                               "reason": exc.cause})
                continue
            if receipt is not None:
                issues.append({"subject": subject.hex, "status": "confirmed",
                               "token_id": receipt.token_id})
        return registrations, issues
