"""Deterministic simulated blockchain.

The chain accepts transactions into a pending pool, applies them to
hosted contract state machines when a block is produced, and serves
reads of confirmed state only. There is no consensus: one producer
seals blocks on a virtual-clock interval, which makes every run
bit-reproducible.

Time is virtual milliseconds from scenario start; wall-clock time is
never consulted. Gas is charged per operation from a fixed table and
converted to fees with a configured gas price and ETC/USD rate.
"""

from __future__ import annotations

import io
import json
import threading
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from typing import Any, Callable, Iterable, NamedTuple, Optional

from .address import Address
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


class NoGasRecordedError(LedgerError):
    """Gas accounting requested for a transaction that was never applied."""


class ContractRejection(Exception):
    """Raised by a contract to reject a transaction without state change.

    The transaction still lands in the block and consumes gas; the
    receipt carries the rejection code instead of a result.
    """

    def __init__(self, code: str, message: str = ""):
        self.code = code
        super().__init__(message or code)


class Contract:
    """A state machine hosted on the chain.

    Mutations happen only through ``execute`` during block production;
    ``view`` must be read-only. ``execute`` args are wire data (addresses
    as hex, as exports carry them); ``view`` args are in-process objects
    (an ``Address``, never its hex). ``dump_state`` must be a pure
    function of the confirmed state so replays can be compared byte-for-byte.
    """

    name: str = ""

    def execute(self, sender: Address, op: str, args: tuple) -> Any:
        raise NotImplementedError

    def view(self, op: str, args: tuple = ()) -> Any:
        raise NotImplementedError

    def dump_state(self) -> dict:
        raise NotImplementedError


# Per-operation gas, in units. The token assignment cost is calibrated to
# the reported 159544-unit figure; the rest are fixed constants chosen to
# be stable across runs, since only the token assignment has a published
# reference value.
DEFAULT_GAS_TABLE: dict[str, int] = {
    "create_vzone": 88421,
    "revoke_vzone": 44216,
    "join_vzone": 64733,
    "leave_vzone": 29850,
    "set_master_allowlist": 45102,
    "issue_token": 159544,
    "revoke_access_rights": 52077,
    "revoke_token": 31877,
    "set_token_validity": 29444,
}

#: Fallback gas for operations missing from the table.
DEFAULT_OP_GAS = 21000

#: Gas price in ETC per unit. 6.4e-9 reproduces the published fee figures:
#: 159544 units -> 0.22 USD at 212.77 USD/ETC, and the reported average of
#: 169576 units -> 0.0010853 ETC.
DEFAULT_GAS_PRICE_ETC = Decimal("6.4E-9")

DEFAULT_ETH_PRICE_USD = Decimal("212.77")

_ETC_QUANTUM = Decimal("1E-7")
_USD_QUANTUM = Decimal("0.01")


@dataclass
class ChainConfig:
    """Scenario-level chain parameters."""

    supervisor: Address
    block_interval_ms: int = 15000
    gas_table: dict[str, int] = field(default_factory=lambda: dict(DEFAULT_GAS_TABLE))
    default_op_gas: int = DEFAULT_OP_GAS
    gas_price_etc: Decimal = DEFAULT_GAS_PRICE_ETC
    eth_price_usd: Decimal = DEFAULT_ETH_PRICE_USD

    def __post_init__(self) -> None:
        if self.block_interval_ms < 1:
            raise ValueError("block_interval_ms must be >= 1")
        if self.eth_price_usd < 0:
            raise ValueError("eth_price_usd must be nonnegative")


@dataclass(slots=True)
class Transaction:
    """A contract call queued by a sender.

    ``gas_used`` is zero until the transaction is applied in a block.
    The transaction digest covers the submitted call only, not the gas,
    so a digest identifies the same call before and after application.

    The args are encoded once, on first use, and the canonical texts of
    the call and of its wire form are assembled around that encoding:
    the keys ``args < contract < gas < nonce < op < sender`` are already
    in sorted order. The cached text is not an init field, so
    ``dataclasses.replace`` encodes the new args afresh; args must not be
    mutated in place once the transaction is submitted.
    """

    sender: Address
    contract: str
    op: str
    args: tuple
    nonce: int
    gas_used: int = 0
    _args_text: Optional[str] = field(default=None, init=False, repr=False, compare=False)

    def _text(self, gas: str) -> str:
        args = self._args_text
        if args is None:
            args = self._args_text = canonical_json(self.args)
        return (f'{{"args":{args},"contract":{canonical_str(self.contract)},{gas}'
                f'"nonce":{self.nonce},"op":{canonical_str(self.op)},'
                f'"sender":"{self.sender.hex}"}}')

    def call_text(self) -> str:
        """Canonical JSON of the call: sender, contract, op, args, nonce."""
        return self._text("")

    def wire_text(self) -> str:
        """Canonical JSON of the call plus its gas, as a block carries it."""
        return self._text(f'"gas":{self.gas_used},')

    @property
    def digest(self) -> str:
        return sha256_hex(self.call_text())

    @classmethod
    def from_wire(cls, body: dict) -> "Transaction":
        return cls(
            sender=Address.from_hex(_field(body, "sender", str)),
            contract=_field(body, "contract", str),
            op=_field(body, "op", str),
            args=tuple(_field(body, "args", list)),
            nonce=_field(body, "nonce", int),
            gas_used=_field(body, "gas", int) if "gas" in body else 0,
        )


def _block_text(head: str, height: int, timestamp: int, parent_digest: str,
                transactions: Iterable[Transaction]) -> str:
    """Canonical JSON of a block body, ``head`` spliced in before ``height``."""
    txs = ",".join([tx.wire_text() for tx in transactions])
    return (f'{{{head}"height":{height},"parent":{canonical_str(parent_digest)},'
            f'"timestamp":{timestamp},"txs":[{txs}]}}')


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
        return sha256_hex(_block_text("", height, timestamp, parent_digest, transactions))

    def wire_text(self) -> str:
        """The export line: ``digest`` sorts first, so it goes in front of the body."""
        return _block_text(f'"digest":{canonical_str(self.digest)},', self.height,
                           self.timestamp, self.parent_digest, self.transactions)

    @classmethod
    def from_wire(cls, body: dict) -> "Block":
        return cls(
            height=_field(body, "height", int),
            timestamp=_field(body, "timestamp", int),
            parent_digest=_field(body, "parent", str),
            transactions=tuple(Transaction.from_wire(t) for t in _field(body, "txs", list)),
            digest=_field(body, "digest", str),
        )


#: The empty block every chain starts from.
GENESIS = Block(0, 0, ZERO_DIGEST, (), Block.compute_digest(0, 0, ZERO_DIGEST, ()))


class Receipt(NamedTuple):
    """The one record of an applied transaction: its outcome and its gas.

    ``status`` is ``"ok"`` with the contract's ``result``, or
    ``"rejected"`` with the rejection code in ``error``. A rejected
    transaction still pays its gas. The fees are ``gas`` priced at the
    gas and ETC prices in force when the transaction was applied.
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
    """

    def __init__(self, config: ChainConfig, contracts: Iterable[Contract] = ()):
        self.config = config
        self._contracts: dict[str, Contract] = {}
        for contract in contracts:
            self.deploy(contract)
        self._pending: list[tuple[Transaction, str]] = []   # (tx, its digest)
        self._next_nonce: dict[Address, int] = {}
        self._receipts: dict[str, Receipt] = {}   # by tx digest, in apply order
        self._fee_memo: dict[tuple[int, Decimal, Decimal], tuple[Decimal, Decimal]] = {}
        self._write_lock = threading.Lock()
        self._blocks: list[Block] = [GENESIS]

    # -- deployment and reads ------------------------------------------------

    def deploy(self, contract: Contract) -> None:
        if not contract.name:
            raise ValueError("contract must carry a name")
        if contract.name in self._contracts:
            raise ValueError(f"contract {contract.name!r} already deployed")
        self._contracts[contract.name] = contract

    @property
    def blocks(self) -> tuple[Block, ...]:
        return tuple(self._blocks)

    @property
    def latest_block(self) -> Block:
        return self._blocks[-1]

    @property
    def height(self) -> int:
        return self._blocks[-1].height

    def next_nonce(self, sender: Address) -> int:
        return self._next_nonce.get(sender, 0)

    def query_state(self, contract: str, op: str, args: tuple = ()) -> Any:
        """Read-only view of confirmed state; never sees the pending pool."""
        if contract not in self._contracts:
            raise ContractNotFoundError(f"unknown contract {contract!r}")
        return self._contracts[contract].view(op, args)

    def contract(self, name: str) -> Contract:
        if name not in self._contracts:
            raise ContractNotFoundError(f"unknown contract {name!r}")
        return self._contracts[name]

    # -- writes ----------------------------------------------------------------

    def submit_transaction(self, tx: Transaction) -> str:
        """Queue ``tx``; returns its digest. Pending until ``get_receipt`` finds it."""
        with self._write_lock:
            if tx.contract not in self._contracts:
                raise ContractNotFoundError(f"unknown contract {tx.contract!r}")
            expected = self._next_nonce.get(tx.sender, 0)
            if tx.nonce != expected:
                raise NonceMismatchError(
                    f"sender {tx.sender.hex} nonce {tx.nonce}, expected {expected}"
                )
            self._next_nonce[tx.sender] = expected + 1
            digest = tx.digest
            self._pending.append((tx, digest))
            return digest

    def submit(self, sender: Address, contract: str, op: str, args: tuple) -> str:
        """Queue a call with the sender's next nonce; returns the tx digest."""
        tx = Transaction(sender, contract, op, args, self.next_nonce(sender))
        return self.submit_transaction(tx)

    def produce_block(self, now: int, force: bool = False) -> Block:
        """Seal the pending pool into a block and apply it to contract state."""
        with self._write_lock:
            last = self._blocks[-1]
            if now < last.timestamp:
                raise IntervalNotElapsedError(
                    f"block at {now} ms precedes its parent at {last.timestamp} ms")
            due = last.timestamp + self.config.block_interval_ms
            if not force and now < due:
                raise IntervalNotElapsedError(f"block due at {due} ms, now {now} ms")
            applied: list[Transaction] = []
            height = last.height + 1
            for tx, digest in self._pending:
                self._apply(tx, digest)
                applied.append(tx)
            self._pending.clear()
            block = Block(
                height=height,
                timestamp=now,
                parent_digest=last.digest,
                transactions=tuple(applied),
                digest=Block.compute_digest(height, now, last.digest, applied),
            )
            self._blocks.append(block)
            return block

    def produce_next_block(self) -> Block:
        """Produce a block at exactly the next interval boundary."""
        return self.produce_block(self.latest_block.timestamp + self.config.block_interval_ms)

    def _apply(self, tx: Transaction, digest: str) -> None:
        contract = self._contracts[tx.contract]
        gas = self.config.gas_table.get(tx.op, self.config.default_op_gas)
        tx.gas_used = gas
        status, result, error = "ok", None, None
        try:
            result = contract.execute(tx.sender, tx.op, tx.args)
        except ContractRejection as rejection:
            status, error = "rejected", rejection.code
        except (TypeError, ValueError, KeyError, IndexError):
            # malformed call payloads reject rather than halt production
            status, error = "rejected", "invalid-args"
        fee_etc, fee_usd = self._fees(gas)
        self._receipts[digest] = Receipt(digest, tx.op, status, result, error, gas,
                                         fee_etc, fee_usd)

    # -- receipts and gas --------------------------------------------------------

    def get_receipt(self, tx_digest: str) -> Optional[Receipt]:
        return self._receipts.get(tx_digest)

    def _fees(self, gas: int) -> tuple[Decimal, Decimal]:
        """The rounded ETC and USD fees of ``gas``, computed once per distinct
        ``(gas, gas price, ETC price)``: the prices may change between blocks.

        Prices key by value, so ``Decimal("6.40E-9")`` shares the entry of
        ``6.4E-9`` and a ``-0`` price that of ``0``. Their rounded fees are
        equal and print alike, because a fee that rounds to zero is unsigned:
        ``0E-7``, never ``-0E-7``."""
        key = (gas, self.config.gas_price_etc, self.config.eth_price_usd)
        fees = self._fee_memo.get(key)
        if fees is None:
            raw_etc = gas * key[1]
            fee_etc = raw_etc.quantize(_ETC_QUANTUM, rounding=ROUND_HALF_UP)
            fee_usd = (raw_etc * key[2]).quantize(_USD_QUANTUM, rounding=ROUND_HALF_UP)
            fees = self._fee_memo[key] = (fee_etc or fee_etc.copy_abs(),
                                          fee_usd or fee_usd.copy_abs())
        return fees

    def account_gas(self, tx_digest: str) -> Receipt:
        """The receipt of an applied transaction, its fees priced when it was applied."""
        receipt = self._receipts.get(tx_digest)
        if receipt is None:
            raise NoGasRecordedError(f"transaction {tx_digest} not applied in any block")
        return receipt

    def gas_entries(self) -> tuple[Receipt, ...]:
        return tuple(self._receipts.values())

    def write_gas_report(self, stream: io.TextIOBase) -> None:
        """One CSV row per applied transaction; each distinct row tail is formatted once.

        The digest is hex and the numbers print without separators or
        quotes, so only ``op`` needs the ``csv`` module's quoting. Fees
        equal in value print alike: ``_fees`` fixes their exponent and
        writes zero unsigned.
        """
        cells = CsvCells()
        tails: dict[tuple, str] = {}
        rows = ["tx_digest,op,gas,fee_etc,fee_usd\n"]
        for tx_digest, op, _, _, _, gas, fee_etc, fee_usd in self._receipts.values():
            key = (op, gas, fee_etc, fee_usd)
            tail = tails.get(key)
            if tail is None:
                tail = tails[key] = f"{cells[op]},{gas!s},{fee_etc!s},{fee_usd!s}\n"
            rows.append(f"{tx_digest},{tail}")
        stream.write("".join(rows))

    def gas_report_text(self) -> str:
        buffer = io.StringIO()
        self.write_gas_report(buffer)
        return buffer.getvalue()

    # -- export / import / replay -----------------------------------------------

    def export_chain_text(self) -> str:
        """One block per line: height, timestamp, parent, txs, digest."""
        return "\n".join([block.wire_text() for block in self._blocks]) + "\n"

    def state_digest(self) -> str:
        return digest_of({
            "contracts": {name: c.dump_state() for name, c in self._contracts.items()},
            "nonces": {addr.hex: n for addr, n in self._next_nonce.items()},
        })

    def verify_stored_digests(self) -> bool:
        """Recompute every stored block digest; append-only self check."""
        try:
            for parent, block in zip(self._blocks, self._blocks[1:]):
                _check_block(parent, block)
        except CorruptChainError:
            return False
        return self._blocks[0] == GENESIS


def _check_block(parent: Block, block: Block) -> None:
    """Raise ``CorruptChainError`` unless ``block`` links to ``parent``."""
    if block.height != parent.height + 1:
        raise CorruptChainError(f"height gap: {parent.height} -> {block.height}")
    elif block.parent_digest != parent.digest:
        raise CorruptChainError(f"parent digest mismatch at height {block.height}")
    recomputed = Block.compute_digest(
        block.height, block.timestamp, block.parent_digest, block.transactions)
    if recomputed != block.digest:
        raise CorruptChainError(f"block digest mismatch at height {block.height}")


def read_chain(stream: io.TextIOBase) -> list[Block]:
    """Parse a chain export; raises ``ChainFileError`` naming the first bad line."""
    blocks = []
    for number, line in enumerate(stream, 1):
        line = line.strip()
        if line:
            try:
                blocks.append(Block.from_wire(json.loads(line)))
            except (ValueError, RecursionError) as exc:  # RecursionError: deep nesting
                raise ChainFileError(f"line {number}: not a block object: {exc}") from exc
    return blocks


def replay_chain(config: ChainConfig, blocks: list[Block],
                 contract_factory: Callable[[], Iterable[Contract]]) -> Chain:
    """Rebuild a chain by resubmitting and resealing every block of an export.

    ``submit_transaction`` and ``produce_block`` enforce the nonce,
    contract and timestamp rules and re-derive gas; the resealed block
    must then equal the imported one in every field: height, parent
    link, timestamp, each transaction with its gas, and digest. Any
    discrepancy raises ``CorruptChainError``.
    """
    if not blocks or blocks[0] != GENESIS:
        raise CorruptChainError("chain must start with the genesis block")
    chain = Chain(config, contract_factory())
    for block in blocks[1:]:
        try:
            for tx in block.transactions:
                chain.submit_transaction(
                    Transaction(tx.sender, tx.contract, tx.op, tx.args, tx.nonce))
            sealed = chain.produce_block(block.timestamp, force=True)
        except LedgerError as exc:
            raise CorruptChainError(f"invalid block at height {block.height}: {exc}") from exc
        if sealed != block:
            raise CorruptChainError(f"block at height {block.height} differs from its replay")
    return chain
