"""Capability token contract: the subject-to-capability registry.

Each subject address maps to at most one token. A token carries validity
flags, a half-open date window ``[issuedate, expireddate)``, and an
ordered list of access rules; each rule grants one REST action on one
resource path under zero or more context conditions.

Wire field names are fixed by the token interchange format (``vid``,
``VZone_master``, ``id``, ``initialized``, ``isValid``, ``issuedate``,
``expireddate``, ``authorization``, ``action``, ``resource``,
``conditions``). A token's text is ``encoding.canonical_json`` of its
wire dict, and it round-trips byte-stably.

``rule_wire`` is the one reader of rules: it checks a rule body and
returns its canonical wire dict, which the scenario parser keeps, the
master submits and the contract stores. ``_token_wire`` is the one writer
of a whole token's wire dict. ``TokenContract`` holds each token as that
dict and serves views from it. It keeps no log of changes: each mutation
reports its subject, and the chain's change feed (``Chain.changes_since``)
holds them per block. ``CapabilityToken`` reads a whole token, its
addresses typed and its rules the dicts ``rule_wire`` returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from .address import Address
from .ledger import Contract, ContractRejection
from .zones import NODE_TYPE_MASTER, NODE_TYPE_NONE, ZoneContract

MS_PER_DAY = 86_400_000


#: The wire names of a rule's REST actions and of its condition kinds.
ACTIONS = ("GET", "POST", "PUT", "DELETE")
CONDITION_KINDS = ("time_window", "weekday", "location_tag")


def _decoder(names: tuple[str, ...], kind: str) -> Callable[[Any], str]:
    """The one of ``names`` a value equals, as one dict lookup; any other value
    raises ``ValueError("<repr> is not a valid <kind>")``, except that a list,
    tuple or dict is shown by its type: its ``repr`` could nest deep enough to
    exhaust the stack."""
    members = dict(zip(names, names))

    def decode(value: Any) -> str:
        try:
            return members[value]
        except (KeyError, TypeError):   # TypeError: an unhashable value
            shown = f"<{type(value).__name__}>" if isinstance(value, (list, tuple, dict)) \
                else repr(value)
            raise ValueError(f"{shown} is not a valid {kind}") from None

    return decode


_action_value = _decoder(ACTIONS, "Action")
_condition_kind_value = _decoder(CONDITION_KINDS, "ConditionKind")

#: What ``rule_wire``, and so ``CapabilityToken.from_wire``, raises for a body
#: that is not a rule.
RULE_ERRORS = (TypeError, ValueError, KeyError, AttributeError)


def _condition_wire(body: dict) -> dict:
    """One context constraint in its canonical wire form.

    time_window: ``start_ms``/``end_ms`` are milliseconds of day, numbers
    but not bools, start < end.
    weekday: ``days`` is a nonempty set of ints 0..6 (no bools, no floats),
    with day 0 = Monday of the virtual epoch (virtual time starts on a
    Monday at midnight).
    location_tag: ``tag`` is a nonempty string, a provider-side location label.
    """
    kind = _condition_kind_value(body["kind"])
    if kind == "time_window":
        start_ms, end_ms = times = body["start_ms"], body["end_ms"]
        if not all(isinstance(t, (int, float)) and not isinstance(t, bool) for t in times) \
                or not start_ms < end_ms:
            raise ValueError("time_window requires numbers start_ms < end_ms")
        return {"kind": kind, "start_ms": start_ms, "end_ms": end_ms}
    if kind == "weekday":
        days = tuple(body["days"])
        if not days or any(type(d) is not int or not 0 <= d <= 6 for d in days):
            raise ValueError("weekday requires a nonempty set of int days 0..6")
        return {"kind": kind, "days": sorted(days)}
    tag = body["tag"]
    if not (isinstance(tag, str) and tag):
        raise ValueError("location_tag requires a nonempty string tag")
    return {"kind": kind, "tag": tag}


def rule_wire(body: dict) -> dict:
    """The rule a wire body names, in its canonical wire form: one
    (action, resource, conditions) grant inside a token.

    The result is a new dict of ``action``, ``resource`` and ``conditions``,
    each condition with its ``kind`` and that kind's fields only, weekday
    ``days`` sorted; other keys are dropped, and nothing in it is shared with
    ``body`` but immutable values. A body that is not a rule raises one of
    ``RULE_ERRORS``; a bad condition is reported before a bad resource.
    """
    conditions = body.get("conditions", [])   # none when the key is absent
    if not isinstance(conditions, (list, tuple)):   # replay reads a tuple as a list
        raise TypeError(f"conditions must be a list, got {type(conditions).__name__}")
    action = _action_value(body["action"])
    resource = body["resource"]
    conditions = [_condition_wire(condition) for condition in conditions]
    if not resource or not resource.startswith("/"):
        raise ValueError("resource must be a nonempty path starting with '/'")
    return {"action": action, "resource": resource, "conditions": conditions}


def _token_wire(vid: Address, vzone_master: Address, token_id: int, initialized: bool,
                is_valid: bool, issue_date: int, expired_date: int, authorization: list) -> dict:
    """A token's wire dict; ``authorization`` is held as it is passed."""
    return {"vid": vid.hex, "VZone_master": vzone_master.hex, "id": token_id,
            "initialized": initialized, "isValid": is_valid, "issuedate": issue_date,
            "expireddate": expired_date, "authorization": authorization}


@dataclass
class CapabilityToken:
    """A whole token read from its wire dict; each rule is the dict ``rule_wire``
    returns, so ``from_wire(body).wire()`` is the canonical form of ``body``."""

    vid: Address
    vzone_master: Address
    id: int
    initialized: bool
    is_valid: bool
    issue_date: int
    expired_date: int
    authorization: list[dict] = field(default_factory=list)

    def wire(self) -> dict:
        return _token_wire(self.vid, self.vzone_master, self.id, self.initialized,
                           self.is_valid, self.issue_date, self.expired_date,
                           list(self.authorization))

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
            authorization=[rule_wire(rule) for rule in body["authorization"]],
        )


class TokenContract(Contract):
    """Issuance, partial revocation and full revocation of capability tokens.

    Only the supervisor or the master recorded on a token may revoke or
    suspend it; issuance additionally requires the subject to be a
    confirmed member of the issuing master's zone. Token ids are globally
    monotone and never reused, including across re-issuance.

    ``OPS`` prices the four mutations: the token assignment's gas is
    calibrated to the reported 159544-unit figure, the rest are fixed
    constants chosen to be stable across runs.

    Each token is held as its wire dict, built once when it is issued from
    rules read by ``rule_wire``, so it shares nothing with the transaction
    args. ``get_token`` and ``dump_state`` return the held dicts themselves.
    A mutation stores a new dict and never edits a held one, so a view a
    reader keeps stays the snapshot it was; readers must not edit it.
    Every mutation reports its subject in ``changed``, so a reader asks the
    chain's change feed which subjects changed after the height it synced
    (``Chain.changes_since``) instead of refetching every token it holds.
    """

    name = "captoken"

    def __init__(self, supervisor: Address, zones: ZoneContract):
        super().__init__()
        self.supervisor = supervisor
        self._zones = zones
        self._tokens: dict[Address, dict] = {}   # subject -> its token's wire dict
        self._next_id = 1

    # -- ledger protocol -------------------------------------------------------
    # issue_token's dates are args[2:], so any count of args but four is a TypeError

    OPS = {
        "issue_token": (159544, lambda self, sender, args: self.issue_token(
            sender, Address.from_hex(args[0]), list(args[1]), *args[2:])),
        "revoke_access_rights": (52077, lambda self, sender, args: self.revoke_access_rights(
            sender, Address.from_hex(args[0]), list(args[1]))),
        "revoke_token": (31877, lambda self, sender, args:
                         self.revoke_token(sender, Address.from_hex(args[0]))),
        "set_token_validity": (29444, lambda self, sender, args: self.set_token_validity(
            sender, Address.from_hex(args[0]), bool(args[1]))),
    }
    execute = Contract.execute

    def view(self, op: str, args: tuple = ()):
        if op == "get_token":
            return self.get_token(args[0])
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
        if not (isinstance(issue_date, (int, float)) and isinstance(expired_date, (int, float))):
            raise TypeError("token dates must be numbers")   # (1,) <= [2] fails live only
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
            authorization = [rule_wire(rule) for rule in rules]
        except RULE_ERRORS as exc:
            raise ContractRejection("invalid-rule", str(exc))
        token_id = self._next_id
        master = self._zones.get_vzone(subject_record.vzone_id).master
        self._store(subject, _token_wire(subject, master, token_id, True, True, issue_date,
                                         expired_date, authorization))
        self._next_id += 1
        return token_id

    def _authorize_revocation(self, sender: Address, token: dict) -> None:
        if sender != self.supervisor and sender.hex != token["VZone_master"]:
            raise ContractRejection("unauthorized",
                                    "only the supervisor or the issuing master may revoke")

    def revoke_access_rights(self, sender: Address, subject: Address,
                             rules: list[dict]) -> bool:
        token = self._tokens.get(subject)
        if token is None:
            return False
        self._authorize_revocation(sender, token)
        targets = {(rule["action"], rule["resource"]) for rule in rules}
        if not all(isinstance(part, str) for target in targets for part in target):
            raise TypeError("a revoked rule names its action and resource by strings")
        authorization = token["authorization"]
        kept = [rule for rule in authorization
                if (rule["action"], rule["resource"]) not in targets]
        if len(kept) == len(authorization):
            return False
        self._store(subject, {**token, "authorization": kept})
        return True

    def revoke_token(self, sender: Address, subject: Address) -> bool:
        token = self._tokens.get(subject)
        if token is None:
            return False
        self._authorize_revocation(sender, token)
        self._store(subject, {**token, "isValid": False, "authorization": []})
        return True

    def set_token_validity(self, sender: Address, subject: Address, valid: bool) -> bool:
        token = self._tokens.get(subject)
        if token is None:
            return False
        self._authorize_revocation(sender, token)
        self._store(subject, {**token, "isValid": valid})
        return True

    def _store(self, subject: Address, token: dict) -> None:
        """Hold ``token`` as the subject's and report the subject as changed."""
        self._tokens[subject] = token
        self.changed.append(subject)

    # -- views -----------------------------------------------------------------------

    def get_token(self, subject: Address) -> Optional[dict]:
        """The held token wire dict of a subject, or None if never issued; not to be edited."""
        if not isinstance(subject, Address):
            raise TypeError(f"get_token takes an Address, got {type(subject).__name__}")
        return self._tokens.get(subject)

    def dump_state(self) -> dict:
        return {
            "supervisor": self.supervisor.hex,
            "next_id": self._next_id,
            "tokens": {subject.hex: token for subject, token in self._tokens.items()},
        }


def contracts(supervisor: Address) -> list[Contract]:
    """The zone contract and the token contract that reads it, as a chain hosts them."""
    zones = ZoneContract(supervisor)
    return [zones, TokenContract(supervisor, zones)]
