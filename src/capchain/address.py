"""Account addresses used as virtual identities.

An address is an opaque 20-byte value. It doubles as the account
address on the simulated chain and as the virtual identity (VID) of the
entity behind it; no key pairs exist in the simulation, so holding an
Address object is what it means to "be" that entity.

Addresses are interned: each 20-byte value has exactly one ``Address``
object per process, so equality and hashing are the identity defaults
and a dict keyed by addresses never runs Python-level ``__eq__``.
"""

from __future__ import annotations

import random

ADDRESS_LENGTH = 20

# Process-wide on purpose: one object per value must hold for every caller.
# raw bytes -> the one Address of that value; filled with ``setdefault`` so
# threads that build the same value at once agree on one object
_INTERNED: dict[bytes, "Address"] = {}
# exact hex text -> its Address, for texts that passed ``from_hex``'s checks
_FROM_HEX: dict[str, "Address"] = {}


class Address:
    """A 20-byte account address / virtual identity; one object per value.

    ``raw`` and ``hex`` are stored once. ``a == b`` is ``a is b``, which is
    value equality because ``Address(raw)`` returns the interned object.
    """

    __slots__ = ("raw", "hex")
    raw: bytes
    hex: str   # 0x-prefixed lowercase hex, 42 characters total

    def __new__(cls, raw: bytes) -> "Address":
        try:
            return _INTERNED[raw]
        except (KeyError, TypeError):   # TypeError: an unhashable raw
            pass
        if not isinstance(raw, bytes) or len(raw) != ADDRESS_LENGTH:
            raise ValueError(f"address must be exactly {ADDRESS_LENGTH} bytes")
        address = object.__new__(cls)
        object.__setattr__(address, "raw", raw)
        object.__setattr__(address, "hex", "0x" + raw.hex())
        return _INTERNED.setdefault(raw, address)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an Address")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an Address")

    def __reduce__(self) -> tuple:
        # copy, deepcopy and pickle rebuild through the intern table
        return (Address, (self.raw,))

    @classmethod
    def from_hex(cls, text: str) -> "Address":
        try:
            return _FROM_HEX[text]
        except (KeyError, TypeError):   # TypeError: an unhashable text
            pass
        if not isinstance(text, str):
            raise TypeError(f"address hex must be a string, got {type(text).__name__}")
        digits = text[2:] if text.startswith("0x") or text.startswith("0X") else text
        if len(digits) != ADDRESS_LENGTH * 2:
            raise ValueError(f"address hex must be {ADDRESS_LENGTH * 2} chars, got {len(digits)}")
        address = _FROM_HEX[text] = cls(bytes.fromhex(digits))
        return address

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
