"""Domain master: entity registration and token issuance.

A master owns one zone. It admits registrations through a
``RegistrationPolicy`` and submits the zone join for each admitted
entity, and it submits token issuances for the rules it is given.

Each submitting call returns the transaction digest, which keys the
submission while it is pending. The chain's receipt is the one record
of its outcome: once the transaction is in a confirmed block, ``poll_*``
of the digest reads that receipt and returns the outcome as a dict
(``confirmed`` or ``rejected``, with a reason), or None while pending.
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
        # tx digest -> (is an issuance, vid or subject), in submission order
        self._pending: dict[str, tuple[bool, Address]] = {}

    # -- registration ----------------------------------------------------------------

    def register_entity(self, request: RegistrationRequest) -> str:
        """Submit the zone join for an admitted ``request``; returns the tx digest."""
        zone = self.chain.query_state(ZoneContract.name, "get_vzone", (self.zone_id,))
        if zone.master != self.address:
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
        self._pending[digest] = (False, request.vid)
        return digest

    def poll_registration(self, digest: str) -> Optional[dict]:
        """The outcome of join ``digest`` once confirmed, None while pending. A join
        that did not return true is rejected: the node was in some zone by then."""
        vid, receipt = self._confirmed(digest, False)
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
        self._pending[digest] = (True, subject)
        return digest

    def poll_issue(self, digest: str) -> Optional[dict]:
        """The outcome of issuance ``digest`` once confirmed, with the token id
        or the contract's rejection code; None while pending."""
        subject, receipt = self._confirmed(digest, True)
        if receipt is None:
            return None
        if receipt.ok:
            return {"subject": subject.hex, "status": "confirmed", "token_id": receipt.result}
        return {"subject": subject.hex, "status": "rejected", "reason": receipt.error}

    # -- pending transactions ----------------------------------------------------------

    def _confirmed(self, digest: str, issue: bool) -> tuple[Optional[Address], Optional[Receipt]]:
        """The vid or subject of pending join ``digest`` (issuance, if ``issue``) and,
        once confirmed, its receipt, and it stops pending; else the receipt is None."""
        is_issue, key = self._pending.get(digest, (None, None))
        receipt = self.chain.get_receipt(digest) if is_issue is issue else None
        if receipt is not None:
            del self._pending[digest]
        return key, receipt

    @property
    def has_pending(self) -> bool:
        """True while a submitted join or issuance awaits its block."""
        return bool(self._pending)

    def poll_all(self) -> tuple[list[dict], list[dict]]:
        """Poll every pending join, then every pending issuance, once.

        Returns ``(registrations, issues)``: the outcome of each
        transaction now in a confirmed block, in submission order.
        Unconfirmed ones stay pending.
        """
        registrations = [outcome for digest, (issue, _) in list(self._pending.items())
                         if not issue and (outcome := self.poll_registration(digest))]
        issues = [outcome for digest, (issue, _) in list(self._pending.items())
                  if issue and (outcome := self.poll_issue(digest))]
        return registrations, issues
