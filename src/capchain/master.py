"""Domain master: entity registration and token issuance.

A master owns one zone. It admits registrations through a
``RegistrationPolicy`` and submits the zone join for each admitted
entity, and it submits token issuances for the rules it is given.

Each submitting call returns the transaction digest. The chain's
receipt is the one record of the outcome: once the transaction is in a
confirmed block, the matching ``poll_*`` call reads that receipt and
returns the outcome as a dict (``confirmed`` or ``rejected``, with a
reason); while it is pending, ``poll_*`` returns None.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .address import Address
from .ledger import Chain, Receipt
from .tokens import TokenContract
from .zones import NODE_TYPE_NONE, ZoneContract


class MasterError(Exception):
    """Base error for domain-master operations."""


class DeniedRegistration(MasterError):
    """Registration policy rejected the applicant."""


class DuplicateRegistration(MasterError):
    """Applicant already holds a confirmed zone membership."""


@dataclass(frozen=True)
class RegistrationRequest:
    vid: Address
    display_name: str
    attributes: dict[str, str] = field(default_factory=dict)


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

    def register_entity(self, request: RegistrationRequest) -> str:
        """Submit the zone join for an admitted ``request``; returns the tx digest."""
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
        return digest

    def poll_registration(self, vid: Address) -> Optional[dict]:
        """The outcome of ``vid``'s join once confirmed, None while pending. A join
        that did not return true is rejected: the node was in some zone by then."""
        receipt = self._confirmed(self._pending_joins, vid)
        if receipt is None:
            return None
        if receipt.ok and receipt.result is True:
            return {"vid": vid.hex, "status": "confirmed", "group_id": self.zone_id}
        return {"vid": vid.hex, "status": "rejected",
                "reason": f"join for {vid.hex} was not accepted "
                          "(duplicate or foreign membership)"}

    # -- issuance -------------------------------------------------------------------------

    def issue_capability(self, subject: Address, rules: list[dict],
                         validity_ms: int, now: int) -> str:
        """Submit a token for ``subject``; returns the tx digest. ``rules`` go as they are."""
        digest = self.chain.submit(self.address, TokenContract.name, "issue_token",
                                   (subject.hex, rules, now, now + validity_ms))
        self._pending_issues[subject] = digest
        return digest

    def poll_issue(self, subject: Address) -> Optional[dict]:
        """The outcome of ``subject``'s issuance once confirmed, with the token
        id or the contract's rejection code; None while pending."""
        receipt = self._confirmed(self._pending_issues, subject)
        if receipt is None:
            return None
        if receipt.ok:
            return {"subject": subject.hex, "status": "confirmed", "token_id": receipt.result}
        return {"subject": subject.hex, "status": "rejected", "reason": receipt.error}

    # -- pending transactions ----------------------------------------------------------

    def _confirmed(self, pending: dict[Address, str], key: Address) -> Optional[Receipt]:
        """The receipt of ``key``'s pending transaction, which then stops pending;
        None while it awaits its block or when ``key`` has none."""
        digest = pending.get(key)
        receipt = None if digest is None else self.chain.get_receipt(digest)
        if receipt is not None:
            del pending[key]
        return receipt

    @property
    def has_pending(self) -> bool:
        """True while a submitted join or issuance awaits its block."""
        return bool(self._pending_joins or self._pending_issues)

    def poll_all(self) -> tuple[list[dict], list[dict]]:
        """Poll every pending join, then every pending issuance, once.

        Returns ``(registrations, issues)``: the outcome of each
        transaction now in a confirmed block, in submission order.
        Unconfirmed ones stay pending.
        """
        registrations = [outcome for vid in list(self._pending_joins)
                         if (outcome := self.poll_registration(vid)) is not None]
        issues = [outcome for subject in list(self._pending_issues)
                  if (outcome := self.poll_issue(subject)) is not None]
        return registrations, issues
