"""Capability token contract: the subject-to-capability registry.

Each subject address maps to at most one token. A token carries validity
flags, a half-open date window ``[issuedate, expireddate)``, and an
ordered list of access rules; each rule grants one REST action on one
resource path under zero or more context conditions.

Wire field names are fixed by the token interchange format (``vid``,
``VZone_master``, ``id``, ``initialized``, ``isValid``, ``issuedate``,
``expireddate``, ``authorization``, ``action``, ``resource``,
``conditions``) and must round-trip byte-stably through
``canonical_token_json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .address import Address
from .encoding import canonical_json
from .ledger import Contract, ContractRejection
from .zones import NODE_TYPE_MASTER, NODE_TYPE_NONE, ZoneContract

MS_PER_DAY = 86_400_000


class Action(str, Enum):
    GET = "GET"
    POST = "POST"
    PUT = "PUT"
    DELETE = "DELETE"


class ConditionKind(str, Enum):
    TIME_WINDOW = "time_window"
    WEEKDAY = "weekday"
    LOCATION_TAG = "location_tag"


@dataclass(frozen=True)
class Condition:
    """One context constraint.

    time_window: ``start_ms``/``end_ms`` are milliseconds of day, start < end.
    weekday: ``days`` is a nonempty set of 0..6, with day 0 = Monday of the
    virtual epoch (virtual time starts on a Monday at midnight).
    location_tag: ``tag`` is a nonempty provider-side location label.
    """

    kind: ConditionKind
    start_ms: Optional[int] = None
    end_ms: Optional[int] = None
    days: tuple[int, ...] = ()
    tag: str = ""

    def __post_init__(self) -> None:
        if self.kind == ConditionKind.TIME_WINDOW:
            times = (self.start_ms, self.end_ms)
            if not all(isinstance(t, (int, float)) for t in times) or not times[0] < times[1]:
                raise ValueError("time_window requires numbers start_ms < end_ms")
        elif self.kind == ConditionKind.WEEKDAY:
            if not self.days or any(d not in range(7) for d in self.days):
                raise ValueError("weekday requires a nonempty set of days 0..6")
        elif self.kind == ConditionKind.LOCATION_TAG:
            if not self.tag:
                raise ValueError("location_tag requires a nonempty tag")
        else:
            raise ValueError(f"unknown condition kind {self.kind!r}")

    def wire(self) -> dict:
        if self.kind == ConditionKind.TIME_WINDOW:
            return {"kind": self.kind.value, "start_ms": self.start_ms, "end_ms": self.end_ms}
        if self.kind == ConditionKind.WEEKDAY:
            return {"kind": self.kind.value, "days": sorted(self.days)}
        return {"kind": self.kind.value, "tag": self.tag}

    @classmethod
    def from_wire(cls, body: dict) -> "Condition":
        kind = ConditionKind(body["kind"])
        if kind == ConditionKind.TIME_WINDOW:
            return cls(kind, start_ms=body["start_ms"], end_ms=body["end_ms"])
        if kind == ConditionKind.WEEKDAY:
            return cls(kind, days=tuple(body["days"]))
        return cls(kind, tag=body["tag"])


@dataclass(frozen=True)
class AccessRule:
    """One (action, resource, conditions) grant inside a token."""

    action: Action
    resource: str
    conditions: tuple[Condition, ...] = ()

    def __post_init__(self) -> None:
        if not self.resource or not self.resource.startswith("/"):
            raise ValueError("resource must be a nonempty path starting with '/'")

    def wire(self) -> dict:
        return {
            "action": self.action.value,
            "resource": self.resource,
            "conditions": [c.wire() for c in self.conditions],
        }

    @classmethod
    def from_wire(cls, body: dict) -> "AccessRule":
        return cls(
            action=Action(body["action"]),
            resource=body["resource"],
            conditions=tuple(Condition.from_wire(c) for c in body.get("conditions", [])),
        )


@dataclass
class CapabilityToken:
    vid: Address
    vzone_master: Address
    id: int
    initialized: bool
    is_valid: bool
    issue_date: int
    expired_date: int
    authorization: list[AccessRule] = field(default_factory=list)

    def wire(self) -> dict:
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
    def from_wire(cls, body: dict) -> "CapabilityToken":
        return cls(
            vid=Address.from_hex(body["vid"]),
            vzone_master=Address.from_hex(body["VZone_master"]),
            id=body["id"],
            initialized=body["initialized"],
            is_valid=body["isValid"],
            issue_date=body["issuedate"],
            expired_date=body["expireddate"],
            authorization=[AccessRule.from_wire(r) for r in body["authorization"]],
        )


def canonical_token_json(token_wire: dict) -> str:
    """Canonical rendering: sorted keys, compact separators, byte-stable."""
    return canonical_json(token_wire)


class TokenContract(Contract):
    """Issuance, partial revocation and full revocation of capability tokens.

    Only the supervisor or the master recorded on a token may revoke or
    suspend it; issuance additionally requires the subject to be a
    confirmed member of the issuing master's zone. Token ids are globally
    monotone and never reused, including across re-issuance.

    Every mutation also stamps its subject with the next change number,
    so a reader can ask which subjects changed after a number it saw
    (``changes_since``) instead of refetching every token it holds. The
    change index is bookkeeping, not state: it is outside ``dump_state``.
    """

    name = "captoken"

    def __init__(self, supervisor: Address, zones: ZoneContract):
        self.supervisor = supervisor
        self._zones = zones
        self._tokens: dict[Address, CapabilityToken] = {}
        self._next_id = 1
        # subject -> number of its last change, oldest first; one entry per subject
        self._last_change: dict[Address, int] = {}
        self._change_number = 0

    # -- ledger protocol -------------------------------------------------------

    def execute(self, sender: Address, op: str, args: tuple):
        if op == "issue_token":
            subject, rules, issue_date, expired_date = args
            return self.issue_token(sender, Address.from_hex(subject),
                                    list(rules), issue_date, expired_date)
        if op == "revoke_access_rights":
            return self.revoke_access_rights(sender, Address.from_hex(args[0]), list(args[1]))
        if op == "revoke_token":
            return self.revoke_token(sender, Address.from_hex(args[0]))
        if op == "set_token_validity":
            return self.set_token_validity(sender, Address.from_hex(args[0]), bool(args[1]))
        raise ContractRejection("unknown-op", f"token contract has no operation {op!r}")

    def view(self, op: str, args: tuple = ()):
        if op == "get_token":
            return self.get_token(args[0])
        if op == "changes_since":
            return self.changes_since(args[0])
        raise ContractRejection("unknown-view", f"token contract has no view {op!r}")

    # -- mutations ----------------------------------------------------------------

    def _sender_zone(self, sender: Address) -> str:
        """Zone the sender masters, or rejection if the sender may not issue."""
        if sender == self.supervisor:
            return ""
        record = self._zones.get_vnode(sender)
        if record.node_type != NODE_TYPE_MASTER:
            raise ContractRejection("unauthorized", "sender is neither supervisor nor a zone master")
        return record.vzone_id

    def issue_token(self, sender: Address, subject: Address, rules: list[dict],
                    issue_date: int, expired_date: int) -> int:
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
            authorization = [AccessRule.from_wire(rule) for rule in rules]
        except (ValueError, KeyError) as exc:
            raise ContractRejection("invalid-rule", str(exc))
        token = CapabilityToken(
            vid=subject,
            vzone_master=self._zones.get_vzone(subject_record.vzone_id).master,
            id=self._next_id,
            initialized=True,
            is_valid=True,
            issue_date=issue_date,
            expired_date=expired_date,
            authorization=authorization,
        )
        self._next_id += 1
        self._tokens[subject] = token
        self._changed(subject)
        return token.id

    def _authorize_revocation(self, sender: Address, token: CapabilityToken) -> None:
        if sender != self.supervisor and sender != token.vzone_master:
            raise ContractRejection("unauthorized",
                                    "only the supervisor or the issuing master may revoke")

    def revoke_access_rights(self, sender: Address, subject: Address,
                             rules: list[dict]) -> bool:
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
            self._changed(subject)
        return removed > 0

    def revoke_token(self, sender: Address, subject: Address) -> bool:
        token = self._tokens.get(subject)
        if token is None:
            return False
        self._authorize_revocation(sender, token)
        token.authorization = []
        token.is_valid = False
        self._changed(subject)
        return True

    def set_token_validity(self, sender: Address, subject: Address, valid: bool) -> bool:
        token = self._tokens.get(subject)
        if token is None:
            return False
        self._authorize_revocation(sender, token)
        token.is_valid = valid
        self._changed(subject)
        return True

    def _changed(self, subject: Address) -> None:
        self._change_number += 1
        self._last_change.pop(subject, None)   # reinsert as the newest entry
        self._last_change[subject] = self._change_number

    # -- views -----------------------------------------------------------------------

    def get_token(self, subject: Address) -> Optional[dict]:
        """Token wire data for a subject, or None if never issued."""
        if not isinstance(subject, Address):
            raise TypeError(f"get_token takes an Address, got {type(subject).__name__}")
        token = self._tokens.get(subject)
        return token.wire() if token is not None else None

    def changes_since(self, cursor: int) -> tuple[int, list[Address]]:
        """The latest change number and the subjects changed after ``cursor``.

        Subjects come newest first, each once. Pass the returned number
        as the next cursor; cursor 0 names every subject ever changed.
        """
        changed = []
        for subject, number in reversed(self._last_change.items()):
            if number <= cursor:
                break
            changed.append(subject)
        return self._change_number, changed

    def dump_state(self) -> dict:
        return {
            "supervisor": self.supervisor.hex,
            "next_id": self._next_id,
            "tokens": {subject.hex: token.wire() for subject, token in self._tokens.items()},
        }
