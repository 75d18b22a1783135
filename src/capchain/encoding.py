"""Canonical serialization and digest helpers.

Every digest in the ledger and every exported artifact goes through
``canonical_json``: sorted keys, compact separators, ASCII-only. Two
states that serialize to the same bytes are considered identical, so
determinism of the whole system reduces to determinism of these bytes.

The encoder takes JSON types only; any other type, an ``Address``
included, raises ``TypeError``. Callers write an address as its hex
where bytes leave the process (transactions, exports, digests), so a
call's args are the same text live and on replay.

The CSV reports keep the ``csv`` module as the one judge of how a cell is
quoted; ``CsvCells`` asks it once per distinct cell.
"""

from __future__ import annotations

import csv
import hashlib
import json
from json.encoder import c_make_encoder, encode_basestring_ascii
from types import SimpleNamespace
from typing import Any

ZERO_DIGEST = "0" * 64


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=True)
# The C encoder (CPython's ``_json``) that ``_ENCODER.encode`` builds afresh on
# every call, built once. It gets no markers dict, which only detects a value
# that contains itself: such a value raises ``RecursionError`` here, not ``ValueError``.
_C_ENCODER = c_make_encoder(None, _ENCODER.default, encode_basestring_ascii,
                            _ENCODER.indent, _ENCODER.key_separator,
                            _ENCODER.item_separator, _ENCODER.sort_keys, _ENCODER.skipkeys,
                            _ENCODER.allow_nan)


def canonical_json(obj: Any) -> str:
    """Render ``obj`` as canonical JSON (sorted keys, no insignificant whitespace).

    Any type JSON lacks, an ``Address`` included, raises ``TypeError``.
    """
    return "".join(_C_ENCODER(obj, 0))


#: ``canonical_json`` of a ``str``: the encoder's own string writer, called
#: directly where a canonical text is assembled from parts.
canonical_str = encode_basestring_ascii


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_of(obj: Any) -> str:
    """SHA-256 over the canonical JSON encoding of ``obj``."""
    return sha256_hex(canonical_json(obj))


class CsvCells(dict):
    """``cells[value]`` is the text ``csv.writer`` writes for ``value`` as one
    cell of a row, quoted as this interpreter's ``csv`` module quotes it.

    Each distinct string goes through ``csv.writer`` once. The cell is
    written with an empty cell after it, because ``csv`` quotes an empty
    field only when it is alone in its row. Values of any other type are
    written each time and never stored: ``1 == 1.0 == True`` but each
    writes differently.
    """

    def __init__(self) -> None:
        super().__init__()
        self._lines: list[str] = []
        self._writer = csv.writer(SimpleNamespace(write=self._lines.append),
                                  lineterminator="\n")

    def __missing__(self, value: Any) -> str:
        self._writer.writerow((value, ""))
        text = self._lines.pop()[:-2]   # drop the empty cell's ",\n"
        if type(value) is str:
            self[value] = text
        return text
