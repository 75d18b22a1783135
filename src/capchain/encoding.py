"""Canonical serialization and digest helpers.

Every digest in the ledger and every exported artifact goes through
``canonical_json``: sorted keys, compact separators, ASCII-only. Two
states that serialize to the same bytes are considered identical, so
determinism of the whole system reduces to determinism of these bytes.

Addresses stay objects inside the process; this encoder is the one
place that writes them as hex, which is where bytes leave the process
(transactions, exports, digests).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from .address import Address

ZERO_DIGEST = "0" * 64


def _encode_address(value: Any) -> str:
    if isinstance(value, Address):
        return value.hex
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=True,
                            default=_encode_address)


def canonical_json(obj: Any) -> str:
    """Render ``obj`` as canonical JSON (sorted keys, no insignificant whitespace).

    An ``Address`` anywhere in ``obj`` is written as its 0x-prefixed hex;
    any other type JSON lacks raises ``TypeError``.
    """
    return _ENCODER.encode(obj)


def sha256_hex(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def digest_of(obj: Any) -> str:
    """SHA-256 over the canonical JSON encoding of ``obj``."""
    return sha256_hex(canonical_json(obj))
