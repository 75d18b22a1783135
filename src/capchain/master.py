"""Domain master: entity registration and token issuance.

A master owns one zone. It admits registrations through a
``RegistrationPolicy`` and submits the zone join for each admitted
entity, and it submits token issuances for the rules it is given.

Registration and issuance are two-phase because confirmation takes a
block: the submitting call returns a pending handle, and the matching
``poll_*`` call yields the result only once the transaction is in a
confirmed block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .address import Address
from .ledger import Chain
from .tokens import TokenContract
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


class ProfileStore:
    """In-memory profile table keyed by vid; nothing reads it back."""

    # Stays while the benchmark's tracer times ``upsert`` as ``master.store_s``.

    def __init__(self) -> None:
        self._profiles: dict[Address, RegistrationRequest] = {}

    def upsert(self, request: RegistrationRequest) -> None:
        self._profiles[request.vid] = request


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


class DomainMaster:
    """One master node: registration and issuance."""

    def __init__(self, address: Address, zone_id: str, chain: Chain,
                 registration_policy: Optional[RegistrationPolicy] = None):
        self.address = address
        self.zone_id = zone_id
        self.chain = chain
        self.store = ProfileStore()
        self.registration_policy = registration_policy or RegistrationPolicy()
        self._pending_joins: dict[Address, str] = {}     # vid -> tx digest
        self._pending_issues: dict[Address, str] = {}    # subject -> tx digest

    # -- helpers -----------------------------------------------------------------

    def owns_zone(self) -> bool:
        zone = self.chain.query_state(ZoneContract.name, "get_vzone", (self.zone_id,))
        return zone.master == self.address

    # -- registration ----------------------------------------------------------------

    def register_entity(self, request: RegistrationRequest) -> PendingRegistration:
        if not self.owns_zone():
            raise MasterError(f"master does not own a confirmed zone {self.zone_id!r}")
        if not self.registration_policy.permits(request):
            raise DeniedRegistration(f"policy rejected {request.vid.hex}")
        record = self.chain.query_state(ZoneContract.name, "get_vnode", (request.vid,))
        if record.node_type != NODE_TYPE_NONE:
            raise DuplicateRegistration(
                f"{request.vid.hex} already belongs to zone {record.vzone_id!r}")
        self.store.upsert(request)
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

    # -- issuance -------------------------------------------------------------------------

    def issue_capability(self, subject: Address, rules: list[dict],
                         validity_ms: int, now: int) -> PendingIssue:
        """Submit a token for ``subject``; ``rules`` are wire dicts, submitted as they are."""
        digest = self.chain.submit(self.address, TokenContract.name, "issue_token",
                                   (subject.hex, rules, now, now + validity_ms))
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
