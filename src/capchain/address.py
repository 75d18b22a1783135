"""Account addresses used as virtual identities.

An address is an opaque 20-byte value. It doubles as the account
address on the simulated chain and as the virtual identity (VID) of the
entity behind it; no key pairs exist in the simulation, so holding an
Address object is what it means to "be" that entity.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

ADDRESS_LENGTH = 20


@dataclass(frozen=True, order=True)
class Address:
    """A 20-byte account address / virtual identity."""

    raw: bytes

    def __post_init__(self) -> None:
        if not isinstance(self.raw, bytes) or len(self.raw) != ADDRESS_LENGTH:
            raise ValueError(f"address must be exactly {ADDRESS_LENGTH} bytes")

    @classmethod
    def from_hex(cls, text: str) -> "Address":
        if not isinstance(text, str):
            raise TypeError(f"address hex must be a string, got {type(text).__name__}")
        if text.startswith("0x") or text.startswith("0X"):
            text = text[2:]
        if len(text) != ADDRESS_LENGTH * 2:
            raise ValueError(f"address hex must be {ADDRESS_LENGTH * 2} chars, got {len(text)}")
        return cls(bytes.fromhex(text))

    @property
    def hex(self) -> str:
        """0x-prefixed lowercase hex, 42 characters total."""
        return "0x" + self.raw.hex()

    @property
    def is_zero(self) -> bool:
        return self.raw == b"\x00" * ADDRESS_LENGTH

    def __str__(self) -> str:
        return self.hex

    def __repr__(self) -> str:
        return f"Address({self.hex})"


#: The reserved "no owner" address.
ZERO_ADDRESS = Address(b"\x00" * ADDRESS_LENGTH)


class AddressFactory:
    """Deterministic address generator seeded once per scenario.

    All randomness in a run flows from a single seed; fresh factories with
    the same seed produce the same address sequence.
    """

    def __init__(self, seed: int):
        self._rng = random.Random(seed)

    def new_address(self) -> Address:
        raw = self._rng.randbytes(ADDRESS_LENGTH)
        while raw == b"\x00" * ADDRESS_LENGTH:  # zero is reserved
            raw = self._rng.randbytes(ADDRESS_LENGTH)
        return Address(raw)

    def new_addresses(self, count: int) -> list[Address]:
        return [self.new_address() for _ in range(count)]
