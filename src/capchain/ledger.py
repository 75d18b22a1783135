"""Deterministic simulated blockchain.

The chain accepts transactions into a pending pool, applies them to
hosted contract state machines when a block is produced, and serves
reads of confirmed state only. There is no consensus: one producer
seals blocks on a virtual-clock interval, which makes every run
bit-reproducible.

Time is virtual milliseconds from scenario start; wall-clock time is
never consulted. Gas is charged per operation at the constant the hosted
contract's op table (``Contract.OPS``) lists, and converted to fees at a
fixed gas price and ETC/USD rate, so an export holds everything that
decides a receipt.
"""

from __future__ import annotations

import functools
import io
import json
import threading
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from json.scanner import make_scanner
from operator import itemgetter
from typing import Any, Callable, Iterable, NamedTuple, Optional

from .address import _FROM_HEX, Address
from .encoding import (ZERO_DIGEST, CsvCells, canonical_json, canonical_str, digest_of,
                       sha256_hex)


class LedgerError(Exception):
    """Base error for ledger operations."""


class NonceMismatchError(LedgerError):
    """Submitted nonce is not the sender's next expected nonce."""


class IntervalNotElapsedError(LedgerError):
    """Block production attempted before the block interval elapsed."""


class ContractNotFoundError(LedgerError):
    """State query addressed to an unknown contract."""


class CorruptChainError(LedgerError):
    """A replayed chain differs from what its export claims."""


class ChainFileError(LedgerError):
    """A chain export line is not a block object."""


class ContractRejection(Exception):
    """Raised by a contract to reject a transaction without state change.

    The transaction still lands in the block and consumes gas; the
    receipt carries the rejection code instead of a result.
    """

    def __init__(self, code: str, message: str = ""):
        self.code = code
        super().__init__(message or code)


class _Discard:
    """A ``changed`` that keeps no key: ``append`` and ``+=`` drop what they are given."""

    __slots__ = ()

    def append(self, key: Any) -> None:
        pass

    def __iadd__(self, keys: Any) -> "_Discard":
        return self


#: The ``changed`` of every contract no chain hosts.
DISCARD = _Discard()


class Contract:
    """A state machine hosted on the chain.

    Mutations happen only through ``execute`` during block production;
    ``view`` must be read-only. ``execute`` args are wire data (addresses
    as hex, as exports carry them); ``view`` args are in-process objects
    (an ``Address``, never its hex). ``dump_state`` must be a pure
    function of the confirmed state so replays can be compared byte-for-byte.

    ``OPS`` maps each op ``execute`` runs to ``(gas, run)``: the gas a call
    pays, succeeding or not, and ``run(contract, sender, args)``, which
    decodes the wire args and applies the op. ``Chain.deploy`` prices the
    listed ops. A subclass binds ``execute = Contract.execute`` in its own
    class dict, where the benchmark's tracer wraps it. Views stay ``if op ==``
    chains: they are the request path, where a table lookup measured slower,
    though a provider holds what a request reads per block (0.136 queries per
    request on the hot_reads benchmark).

    A mutation appends the key of each record it writes, an ``Address`` or a
    string, to ``changed``; the chain takes them into its change feed as each
    block seals (``Chain.changes_since``). ``Chain.deploy`` gives the contract
    that list; until then ``changed`` is ``DISCARD``, which keeps no key, since
    no feed reads the keys of a contract outside a chain.
    """

    name: str = ""
    OPS: dict[str, tuple[int, Callable[[Any, Address, Any], Any]]] = {}

    def __init__(self) -> None:
        self.changed: Any = DISCARD   # keys written since the last seal, oldest first

    def execute(self, sender: Address, op: str, args: tuple) -> Any:
        entry = self.OPS.get(op)
        if entry is None:
            raise ContractRejection("unknown-op", f"{self.name} contract has no operation {op!r}")
        return entry[1](self, sender, args)

    def view(self, op: str, args: tuple = ()) -> Any:
        """Read confirmed state. A view may return a record the contract holds,
        not a copy, so callers must not mutate what it returns."""
        raise NotImplementedError

    def dump_state(self) -> dict:
        raise NotImplementedError


#: Gas of an op that no deployed contract lists.
DEFAULT_OP_GAS = 21000

#: Gas price in ETC per unit. 6.4e-9 reproduces the published fee figures:
#: 159544 units -> 0.22 USD at 212.77 USD/ETC, and the reported average of
#: 169576 units -> 0.0010853 ETC.
DEFAULT_GAS_PRICE_ETC = Decimal("6.4E-9")

DEFAULT_ETH_PRICE_USD = Decimal("212.77")


@functools.cache   # a handful of gas constants, priced once each per process
def _priced(gas: int) -> tuple[int, Decimal, Decimal]:
    """``gas`` with its ETC and USD fees, rounded half up to 1E-7 ETC and 0.01 USD."""
    raw_etc = gas * DEFAULT_GAS_PRICE_ETC
    return (gas, raw_etc.quantize(Decimal("1E-7"), rounding=ROUND_HALF_UP),
            (raw_etc * DEFAULT_ETH_PRICE_USD).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


#: ``(gas, fee_etc, fee_usd)`` of an op no deployed contract lists.
_OTHER_OP_FEES = _priced(DEFAULT_OP_GAS)


@dataclass
class ChainConfig:
    """Scenario-level chain parameters."""

    supervisor: Address
    block_interval_ms: int = 15000

    def __post_init__(self) -> None:
        if self.block_interval_ms < 1:
            raise ValueError("block_interval_ms must be >= 1")


def _decode(text: str) -> Any:
    """The value of a canonical JSON text, which has no whitespace to skip."""
    return _SCAN(text, 0)[0]


#: The scanner (CPython's C one) that ``JSONDecoder.raw_decode`` calls, called
#: without that frame. Every text it reads is one the chain encoded, so the
#: ``StopIteration`` it raises for a text with no value never arises.
_SCAN = make_scanner(json.JSONDecoder())


@dataclass(init=False, eq=False)
class Transaction:
    """A contract call queued by a sender.

    ``gas_used`` is zero until the transaction is applied in a block.
    The transaction digest covers the submitted call only, not the gas,
    so a digest identifies the same call before and after application.

    A transaction holds the canonical JSON text of its args, encoded once
    when it is built, and not the args themselves: ``args`` decodes the
    text on each read, so arrays come back as lists.
    Equality, the digest and the wire texts read the text, so two calls
    are equal when their args encode alike: ``(1,)`` and ``[1]`` do, and
    ``1``, ``1.0`` and ``True`` do not. ``args`` is listed as a field so
    that ``dataclasses.replace`` reads it and encodes the new args afresh.
    """

    __slots__ = ("sender", "contract", "op", "args_text", "nonce", "gas_used")
    sender: Address
    contract: str
    op: str
    args: tuple
    nonce: int
    gas_used: int

    def __init__(self, sender: Address, contract: str, op: str, args: tuple, nonce: int,
                 gas_used: int = 0):
        self.sender = sender
        self.contract = contract
        self.op = op
        self.args_text = canonical_json(args)
        self.nonce = nonce
        self.gas_used = gas_used

    @property
    def args(self) -> tuple:
        return tuple(_decode(self.args_text))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.args_text == other.args_text and self.nonce == other.nonce
                and self.gas_used == other.gas_used and self.sender == other.sender
                and self.contract == other.contract and self.op == other.op)

    def _halves(self) -> tuple[str, str]:
        """The canonical call text split where the gas goes: the keys
        ``args < contract < gas < nonce < op < sender`` sort in that order."""
        return (f'{{"args":{self.args_text},"contract":{canonical_str(self.contract)},',
                f'"nonce":{self.nonce},"op":{canonical_str(self.op)},'
                f'"sender":"{self.sender.hex}"}}')

    def call_text(self) -> str:
        """Canonical JSON of the call: sender, contract, op, args, nonce."""
        head, tail = self._halves()
        return head + tail

    def wire_text(self) -> str:
        """Canonical JSON of the call plus its gas, as a block carries it."""
        head, tail = self._halves()
        return f'{head}"gas":{self.gas_used},{tail}'

    @property
    def digest(self) -> str:
        return sha256_hex(self.call_text())


def _sealed(height: int, timestamp: int, parent_digest: str, tx_texts: list[str],
            digest: Optional[str] = None) -> tuple:
    """``(height, timestamp, parent, digest, line)`` of a block from its transactions'
    wire texts, atoms the collector stops tracking. ``digest`` hashes the canonical body
    unless given; the export ``line`` puts it in front of that body (its key sorts first)."""
    body = (f'{{"height":{height},"parent":{canonical_str(parent_digest)},'
            f'"timestamp":{timestamp},"txs":[{",".join(tx_texts)}]}}')
    digest = sha256_hex(body) if digest is None else digest
    return (height, timestamp, parent_digest, digest,
            f'{{"digest":{canonical_str(digest)},{body[1:]}')


@dataclass(frozen=True)
class Block:
    height: int
    timestamp: int
    parent_digest: str
    transactions: tuple[Transaction, ...]
    digest: str

    @staticmethod
    def compute_digest(height: int, timestamp: int, parent_digest: str,
                       transactions: Iterable[Transaction]) -> str:
        """SHA-256 of the body: height, parent, timestamp, txs (no digest key)."""
        return _sealed(height, timestamp, parent_digest,
                       [tx.wire_text() for tx in transactions])[3]

    def wire_text(self) -> str:
        """The export line, with the block's own digest."""
        return _sealed(self.height, self.timestamp, self.parent_digest,
                       [tx.wire_text() for tx in self.transactions], self.digest)[4]


#: The empty block every chain starts from.
GENESIS = Block(0, 0, ZERO_DIGEST, (), Block.compute_digest(0, 0, ZERO_DIGEST, ()))


class Receipt(NamedTuple):
    """An applied transaction's outcome, with the gas and fees its op pays.

    ``status`` is ``"ok"`` with the contract's ``result``, or
    ``"rejected"`` with the rejection code in ``error``. A rejected
    transaction still pays its gas. The gas and fees are those of ``op``
    in its contract's ``OPS`` at the fixed gas and ETC prices.

    The chain stores only the outcome, the first five fields, as a plain
    tuple of atoms (a contract result is an int, a bool or None), which the
    collector stops tracking. The fees follow from the op and are no second
    record: ``get_receipt`` and ``gas_entries`` append the op's
    ``(gas, fee_etc, fee_usd)`` and name the fields on read.
    """

    tx_digest: str
    op: str
    status: str  # "ok" | "rejected"
    result: Any
    error: Optional[str]
    gas: int
    fee_etc: Decimal
    fee_usd: Decimal

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _field(body: Any, key: str, kind: type) -> Any:
    """``body[key]`` of a decoded wire object; ``ValueError`` unless it is a ``kind``."""
    if not isinstance(body, dict) or key not in body:
        raise ValueError(f"missing {key!r}")
    value = body[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"{key!r} must be {kind.__name__}, got {type(value).__name__}")
    return value


class Chain:
    """The ledger: pending pool, block store, hosted contracts, receipts.

    Writes (submit / produce) are funneled through one lock so the module
    can be shared by multiple logical processes; confirmed-state reads
    need no coordination because state only changes inside produce.

    Sealed blocks are stored as ``_sealed`` tuples, not as ``Block``s: export
    joins their lines, and ``blocks`` and ``latest_block`` decode them per call.
    ``height`` is the last row's height, a plain attribute set where a row is
    appended, since each request reads it.
    The change feed holds, per contract, a ``(height, *keys)`` row for each block
    that wrote one of its records: each key once, an ``Address`` held as its
    raw bytes, so the row is a flat tuple of atoms that
    the collector stops tracking at its first look (a nested one can take two).
    """

    def __init__(self, config: ChainConfig, contracts: Iterable[Contract] = ()):
        self.config = config
        self._contracts: dict[str, Contract] = {}
        self._feed: dict[str, list[tuple]] = {}
        # (contract, height) -> the answer of changes_since, until the next seal
        self._feed_answers: dict[tuple[str, int], tuple[int, dict]] = {}
        self._op_fees: dict[str, tuple] = {}   # op -> (gas, fee_etc, fee_usd) of its contract
        # by tx digest, in apply order: (tx_digest, op, status, result, error)
        self._receipts: dict[str, tuple] = {}
        for contract in contracts:
            self.deploy(contract)
        # (tx, its digest, its args): execute reads the args as submitted
        self._pending: list[tuple[Transaction, str, Any]] = []
        self._next_nonce: dict[Address, int] = {}
        self._write_lock = threading.Lock()
        self._blocks: list[tuple] = [_sealed(0, 0, ZERO_DIGEST, [])]   # genesis
        self.height = 0

    # -- deployment and reads ------------------------------------------------

    def deploy(self, contract: Contract) -> None:
        if not contract.name:
            raise ValueError("contract must carry a name")
        if contract.name in self._contracts:
            raise ValueError(f"contract {contract.name!r} already deployed")
        if self._receipts:   # a receipt's fees are read from the ops' prices
            raise ValueError("contracts deploy before the first transaction is applied")
        priced = [op for op in contract.OPS if op in self._op_fees]
        if priced:
            raise ValueError(f"op {priced[0]!r} already priced by a deployed contract")
        self._contracts[contract.name] = contract
        self._feed[contract.name] = []
        contract.changed = []
        self._op_fees.update((op, _priced(gas)) for op, (gas, _) in contract.OPS.items())

    @property
    def blocks(self) -> tuple[Block, ...]:
        return tuple(_read_block(_decode(row[4])) for row in self._blocks)

    @property
    def latest_block(self) -> Block:
        return _read_block(_decode(self._blocks[-1][4]))

    def next_nonce(self, sender: Address) -> int:
        return self._next_nonce.get(sender, 0)

    def query_state(self, contract: str, op: str, args: tuple = ()) -> Any:
        """Read-only view of confirmed state; never sees the pending pool."""
        try:
            target = self._contracts[contract]
        except KeyError:
            raise ContractNotFoundError(f"unknown contract {contract!r}") from None
        return target.view(op, args)

    def contract(self, name: str) -> Contract:
        if name not in self._contracts:
            raise ContractNotFoundError(f"unknown contract {name!r}")
        return self._contracts[name]

    def changes_since(self, contract: str, height: int) -> tuple[int, dict]:
        """``(latest height, changed)``: ``changed`` is a dict whose keys name,
        once each, the keys of the ``contract`` records written in the blocks
        after ``height``; its values are None. Pass the latest height as the
        next cursor; height 0 names every key ever written.

        The answer is computed once per ``(contract, height)`` until the next
        block seals, and every reader at that cursor shares it: none may edit it.
        It is computed under the write lock, so no seal lands halfway through it.
        """
        answer = self._feed_answers.get((contract, height))
        if answer is None:
            try:
                feed = self._feed[contract]
            except KeyError:
                raise ContractNotFoundError(f"unknown contract {contract!r}") from None
            with self._write_lock:
                start = len(feed)
                while start and feed[start - 1][0] > height:
                    start -= 1
                answer = self._feed_answers[contract, height] = (self.height, dict.fromkeys(
                    Address(key) if key.__class__ is bytes else key
                    for row in feed[start:] for key in row[1:]))
        return answer

    # -- writes ----------------------------------------------------------------

    def submit_transaction(self, tx: Transaction, args: Any = None) -> str:
        """Queue ``tx``; returns its digest. Pending until ``get_receipt`` finds it.

        ``args`` are the args ``tx`` was built from, if the caller holds
        them: the pool keeps them for ``execute``. Without them the pool
        keeps ``tx.args``, decoded from the text."""
        with self._write_lock:
            digest = tx.digest   # raises for a call JSON cannot encode, before the nonce
            self._admit(tx, self._next_nonce)
            self._pending.append((tx, digest, tx.args if args is None else args))
            return digest

    def submit(self, sender: Address, contract: str, op: str, args: tuple) -> str:
        """Queue a call with the sender's next nonce; returns the tx digest.
        The call is encoded once here and never decoded."""
        tx = Transaction(sender, contract, op, args, self._next_nonce.get(sender, 0))
        return self.submit_transaction(tx, args)

    def _admit(self, tx: Transaction, taken: dict[Address, int]) -> None:
        """Take ``tx``'s nonce into ``taken``; raise unless its contract exists and
        the nonce is the sender's next: its entry in ``taken``, else in the chain's
        ``_next_nonce`` (an entry taken is never 0)."""
        if tx.contract not in self._contracts:
            raise ContractNotFoundError(f"unknown contract {tx.contract!r}")
        expected = taken.get(tx.sender) or self._next_nonce.get(tx.sender, 0)
        if tx.nonce != expected:
            raise NonceMismatchError(
                f"sender {tx.sender.hex} nonce {tx.nonce}, expected {expected}"
            )
        taken[tx.sender] = expected + 1

    def _parent_at(self, now: int, force: bool) -> tuple[int, str]:
        """The parent's height and digest for a block sealed at ``now``, if it may be."""
        height, timestamp, _, digest, _ = self._blocks[-1]
        if now < timestamp:
            raise IntervalNotElapsedError(
                f"block at {now} ms precedes its parent at {timestamp} ms")
        due = timestamp + self.config.block_interval_ms
        if not force and now < due:
            raise IntervalNotElapsedError(f"block due at {due} ms, now {now} ms")
        return height, digest

    def produce_block(self, now: int, force: bool = False) -> Block:
        """Seal the pending pool into a block and apply it to contract state.

        The chain keeps the block's line only: the returned ``Block`` is a
        snapshot, and the pool's args are dropped with the pool."""
        with self._write_lock:
            parent_height, parent = self._parent_at(now, force)
            applied = tuple(tx for tx, _, _ in self._pending)
            for tx, digest, args in self._pending:
                tx.gas_used = self._apply(tx, digest, args)
            self._pending.clear()
            row = _sealed(parent_height + 1, now, parent, [tx.wire_text() for tx in applied])
            self._append(row)
            return Block(row[0], now, parent, applied, row[3])

    def produce_next_block(self) -> Block:
        """Produce a block at exactly the next interval boundary."""
        return self.produce_block(self._blocks[-1][1] + self.config.block_interval_ms)

    def _apply(self, tx: Transaction, digest: str, args: Any) -> int:
        """Execute ``tx`` with ``args`` and record its receipt; returns its gas."""
        contract = self._contracts[tx.contract]
        status, result, error = "ok", None, None
        try:
            result = contract.execute(tx.sender, tx.op, args)
        except ContractRejection as rejection:
            status, error = "rejected", rejection.code
        except (TypeError, ValueError, KeyError, IndexError):
            # malformed call payloads reject rather than halt production
            status, error = "rejected", "invalid-args"
        self._receipts[digest] = (digest, tx.op, status, result, error)
        return self._op_fees.get(tx.op, _OTHER_OP_FEES)[0]

    def _reseal(self, block: Block) -> bool:
        """Apply an imported ``block`` as ``produce_block`` would seal its
        transactions at its timestamp, if the seal equals ``block``; whether it does.

        Every check comes before anything is applied, so a refused block leaves
        state, nonces, receipts and the change feed as they were. The header
        comes first: the timestamp check raises as produce's does, and a block
        whose height or parent link differs is refused. Then the contract and
        nonce checks raise as submit's do, taking the nonces into a dict of the
        block's own. A call pays its op's gas whatever its outcome, so each
        claimed gas and then the block digest are checked before any call runs.
        The chain stores the line it resealed, not the one it read, so a
        re-spaced export replays to the canonical chain. Each call is formatted
        once, for its digest and its wire text, and each args text is decoded
        once, for ``execute``.
        """
        with self._write_lock:
            parent_height, parent = self._parent_at(block.timestamp, force=True)
            if block.height != parent_height + 1 or block.parent_digest != parent:
                return False
            taken: dict[Address, int] = {}
            op_fees, same, calls, wires = self._op_fees, True, [], []
            for tx in block.transactions:
                self._admit(tx, taken)
                head, tail = tx._halves()
                same = same and tx.gas_used == op_fees.get(tx.op, _OTHER_OP_FEES)[0]
                calls.append(head + tail)
                wires.append(f'{head}"gas":{tx.gas_used},{tail}')
            if not same:
                return False
            row = _sealed(block.height, block.timestamp, parent, wires)
            if row[3] != block.digest:
                return False
            self._next_nonce.update(taken)
            for tx, call in zip(block.transactions, calls):
                self._apply(tx, sha256_hex(call), tuple(_decode(tx.args_text)))
            self._append(row)
            return True

    def _append(self, row: tuple) -> None:
        """Append the sealed ``row`` and take the keys each contract reported into
        the feed, as the new block's."""
        self._blocks.append(row)
        self.height = height = row[0]
        for name, contract in self._contracts.items():
            changed = contract.changed
            if changed:
                self._feed[name].append((height, *[
                    key.raw if key.__class__ is Address else key
                    for key in dict.fromkeys(changed)]))
                changed.clear()
        self._feed_answers.clear()

    # -- receipts and gas --------------------------------------------------------

    def get_receipt(self, tx_digest: str) -> Optional[Receipt]:
        row = self._receipts.get(tx_digest)
        return None if row is None else self._receipt(row)

    def gas_entries(self) -> tuple[Receipt, ...]:
        return tuple(map(self._receipt, self._receipts.values()))

    def _receipt(self, row: tuple) -> Receipt:
        """The stored outcome ``row`` with its op's gas and fees."""
        return Receipt._make(row + self._op_fees.get(row[1], _OTHER_OP_FEES))

    def gas_report_text(self) -> str:
        """One CSV row per applied transaction; each op's row tail is formatted once,
        since the op alone decides the gas and fees.

        The digest is hex and the numbers print without separators or
        quotes, so only ``op`` needs the ``csv`` module's quoting.
        """
        cells = CsvCells()
        tails: dict[str, str] = {}
        rows = ["tx_digest,op,gas,fee_etc,fee_usd\n"]
        # the dict keys are the digests; itemgetter reads each receipt's op in C
        for tx_digest, op in zip(self._receipts, map(itemgetter(1), self._receipts.values())):
            tail = tails.get(op)
            if tail is None:
                gas, fee_etc, fee_usd = self._op_fees.get(op, _OTHER_OP_FEES)
                tail = tails[op] = f"{cells[op]},{gas!s},{fee_etc!s},{fee_usd!s}\n"
            rows.append(f"{tx_digest},{tail}")
        return "".join(rows)

    # -- export / import / replay -----------------------------------------------

    def export_chain_text(self) -> str:
        """One block per line: height, timestamp, parent, txs, digest. The empty last
        item ends the text with a newline without copying the joined text again."""
        return "\n".join([*map(itemgetter(4), self._blocks), ""])

    def state_digest(self) -> str:
        return digest_of({
            "contracts": {name: c.dump_state() for name, c in self._contracts.items()},
            "nonces": {addr.hex: n for addr, n in self._next_nonce.items()},
        })


_TX_KEYS = itemgetter("sender", "contract", "op", "args", "nonce")


def _read_tx(body: Any) -> Transaction:
    """The transaction of a decoded ``txs`` entry, its args encoded once."""
    try:
        sender, contract, op, args, nonce = _TX_KEYS(body)
        gas = body.get("gas", 0)
    except (KeyError, TypeError):   # not a dict, or a key missing
        sender = None
    if not (type(sender) is str and type(contract) is str and type(op) is str
            and type(args) is list and type(nonce) is int and type(gas) is int):
        # name the first bad field, in the order of the keys in an export; a
        # decoded body that passes every check has the exact types tested above
        Address.from_hex(_field(body, "sender", str))   # a bad address before later fields
        for key, kind in (("contract", str), ("op", str), ("args", list), ("nonce", int)):
            _field(body, key, kind)
        if "gas" in body:
            _field(body, "gas", int)
    # every field has its type: set what ``__init__`` sets, without its frame,
    # and look the sender up as ``from_hex`` looks up a text it has checked before
    tx = object.__new__(Transaction)
    try:
        tx.sender = _FROM_HEX[sender]
    except KeyError:
        tx.sender = Address.from_hex(sender)
    tx.contract = contract
    tx.op = op
    tx.args_text = canonical_json(args)
    tx.nonce = nonce
    tx.gas_used = gas
    return tx


def _read_block(body: Any) -> Block:
    height = _field(body, "height", int)
    timestamp = _field(body, "timestamp", int)
    parent = _field(body, "parent", str)
    transactions = tuple(map(_read_tx, _field(body, "txs", list)))
    return Block(height, timestamp, parent, transactions, _field(body, "digest", str))


def read_chain(stream: io.TextIOBase) -> list[Block]:
    """Parse a chain export; raises ``ChainFileError`` naming the first bad line.

    Each line is decoded once and its fields are checked in place; each
    transaction keeps the canonical text of its args, and the decoded
    line is dropped."""
    blocks = []
    for number, line in enumerate(stream, 1):
        line = line.strip()
        if line:
            try:
                blocks.append(_read_block(json.loads(line)))
            except (ValueError, RecursionError) as exc:  # RecursionError: deep nesting
                raise ChainFileError(f"line {number}: not a block object: {exc}") from exc
    return blocks


def replay_chain(config: ChainConfig, blocks: list[Block],
                 contract_factory: Callable[[], Iterable[Contract]]) -> Chain:
    """Rebuild a chain by re-applying every block of an export, in one pass.

    Each block is checked as resubmitting its transactions and resealing
    them would check it, header first: the timestamp, height and parent
    link, then the nonce and contract rules, then each transaction's
    re-derived gas and the digest, all before the block is applied. Any
    discrepancy raises ``CorruptChainError``, and the chain built so far
    is dropped.
    """
    if not blocks or blocks[0] != GENESIS:
        raise CorruptChainError("chain must start with the genesis block")
    chain = Chain(config, contract_factory())
    for block in blocks[1:]:
        try:
            same = chain._reseal(block)
        except LedgerError as exc:
            raise CorruptChainError(f"invalid block at height {block.height}: {exc}") from exc
        if not same:
            raise CorruptChainError(f"block at height {block.height} differs from its replay")
    return chain
