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

import csv
import io
import json
import threading
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from typing import Any, Callable, Iterable, Optional

from .address import Address
from .encoding import ZERO_DIGEST, canonical_json, digest_of


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
    ``view`` must be read-only. ``dump_state`` must be a pure function of
    the confirmed state so replays can be compared byte-for-byte.
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


@dataclass
class Transaction:
    """A contract call queued by a sender.

    ``gas_used`` is zero until the transaction is applied in a block.
    The transaction digest covers the submitted call only, not the gas,
    so a digest identifies the same call before and after application.
    """

    sender: Address
    contract: str
    op: str
    args: tuple
    nonce: int
    gas_used: int = 0

    def call_wire(self) -> dict:
        return {
            "sender": self.sender.hex,
            "contract": self.contract,
            "op": self.op,
            "args": _jsonify(self.args),
            "nonce": self.nonce,
        }

    def wire(self) -> dict:
        body = self.call_wire()
        body["gas"] = self.gas_used
        return body

    @property
    def digest(self) -> str:
        return digest_of(self.call_wire())

    @classmethod
    def from_wire(cls, body: dict) -> "Transaction":
        return cls(
            sender=Address.from_hex(_field(body, "sender", str)),
            contract=_field(body, "contract", str),
            op=_field(body, "op", str),
            args=tuple(_field(body, "args", list)),
            nonce=_field(body, "nonce", int),
            gas_used=body.get("gas", 0),
        )


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
        return digest_of({
            "height": height,
            "timestamp": timestamp,
            "parent": parent_digest,
            "txs": [tx.wire() for tx in transactions],
        })

    def wire(self) -> dict:
        return {
            "height": self.height,
            "timestamp": self.timestamp,
            "parent": self.parent_digest,
            "txs": [tx.wire() for tx in self.transactions],
            "digest": self.digest,
        }

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


@dataclass(frozen=True)
class Receipt:
    """Outcome of an applied transaction."""

    tx_digest: str
    sender: Address
    op: str
    status: str  # "ok" | "rejected"
    result: Any
    error: Optional[str]
    gas_used: int
    block_height: int

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass(frozen=True)
class GasEntry:
    tx_digest: str
    op: str
    gas: int
    fee_etc: Decimal
    fee_usd: Decimal


def _field(body: Any, key: str, kind: type) -> Any:
    """``body[key]`` of a decoded wire object; ``ValueError`` unless it is a ``kind``."""
    if not isinstance(body, dict) or key not in body:
        raise ValueError(f"missing {key!r}")
    value = body[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"{key!r} must be {kind.__name__}, got {type(value).__name__}")
    return value


def _jsonify(value: Any) -> Any:
    """Normalize argument structures to plain JSON types."""
    if isinstance(value, Address):
        return value.hex
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
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
        self._receipts: dict[str, Receipt] = {}
        self._gas_log: list[GasEntry] = []
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

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def pending_transactions(self) -> tuple[Transaction, ...]:
        return tuple(tx for tx, _ in self._pending)

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
                self._apply(tx, digest, height)
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

    def _apply(self, tx: Transaction, digest: str, height: int) -> None:
        contract = self._contracts[tx.contract]
        gas = self.config.gas_table.get(tx.op, self.config.default_op_gas)
        tx.gas_used = gas
        try:
            result = contract.execute(tx.sender, tx.op, tx.args)
            receipt = Receipt(digest, tx.sender, tx.op, "ok", result, None, gas, height)
        except ContractRejection as rejection:
            receipt = Receipt(digest, tx.sender, tx.op, "rejected", None,
                              rejection.code, gas, height)
        except (TypeError, ValueError, KeyError, IndexError):
            # malformed call payloads reject rather than halt production
            receipt = Receipt(digest, tx.sender, tx.op, "rejected", None,
                              "invalid-args", gas, height)
        self._receipts[digest] = receipt
        self._gas_log.append(GasEntry(digest, tx.op, gas, *self._fees(gas)))

    # -- receipts and gas --------------------------------------------------------

    def get_receipt(self, tx_digest: str) -> Optional[Receipt]:
        return self._receipts.get(tx_digest)

    def _fees(self, gas: int) -> tuple[Decimal, Decimal]:
        raw_etc = gas * self.config.gas_price_etc
        fee_etc = raw_etc.quantize(_ETC_QUANTUM, rounding=ROUND_HALF_UP)
        fee_usd = (raw_etc * self.config.eth_price_usd).quantize(
            _USD_QUANTUM, rounding=ROUND_HALF_UP)
        return fee_etc, fee_usd

    def account_gas(self, tx_digest: str) -> GasEntry:
        receipt = self._receipts.get(tx_digest)
        if receipt is None:
            raise NoGasRecordedError(f"transaction {tx_digest} not applied in any block")
        fee_etc, fee_usd = self._fees(receipt.gas_used)
        return GasEntry(tx_digest, receipt.op, receipt.gas_used, fee_etc, fee_usd)

    def gas_entries(self) -> tuple[GasEntry, ...]:
        return tuple(self._gas_log)

    def gas_summary(self) -> dict:
        """Scenario totals; USD/ETC totals are sums of the per-tx rounded fees."""
        total_gas = sum(entry.gas for entry in self._gas_log)
        total_etc = sum((entry.fee_etc for entry in self._gas_log), Decimal("0"))
        total_usd = sum((entry.fee_usd for entry in self._gas_log), Decimal("0"))
        return {
            "tx_count": len(self._gas_log),
            "total_gas": total_gas,
            "total_fee_etc": total_etc,
            "total_fee_usd": total_usd,
        }

    def write_gas_report(self, stream: io.TextIOBase) -> None:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["tx_digest", "op", "gas", "fee_etc", "fee_usd"])
        for entry in self._gas_log:
            writer.writerow([entry.tx_digest, entry.op, entry.gas,
                             str(entry.fee_etc), str(entry.fee_usd)])

    def gas_report_text(self) -> str:
        buffer = io.StringIO()
        self.write_gas_report(buffer)
        return buffer.getvalue()

    # -- export / import / replay -----------------------------------------------

    def export_chain_text(self) -> str:
        """One block per line: height, timestamp, parent, txs, digest."""
        return "".join(canonical_json(block.wire()) + "\n" for block in self._blocks)

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
