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
    """Replayed chain failed digest or height verification."""


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
            sender=Address.from_hex(body["sender"]),
            contract=body["contract"],
            op=body["op"],
            args=tuple(body["args"]),
            nonce=body["nonce"],
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
            height=body["height"],
            timestamp=body["timestamp"],
            parent_digest=body["parent"],
            transactions=tuple(Transaction.from_wire(t) for t in body["txs"]),
            digest=body["digest"],
        )


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
        self._pending: list[Transaction] = []
        self._next_nonce: dict[Address, int] = {}
        self._receipts: dict[str, Receipt] = {}
        self._gas_log: list[GasEntry] = []
        self._write_lock = threading.Lock()
        genesis = Block(0, 0, ZERO_DIGEST, (), Block.compute_digest(0, 0, ZERO_DIGEST, ()))
        self._blocks: list[Block] = [genesis]

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
        return tuple(self._pending)

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
            self._pending.append(tx)
            return tx.digest

    def submit(self, sender: Address, contract: str, op: str, args: tuple) -> str:
        """Queue a call with the sender's next nonce; returns the tx digest."""
        tx = Transaction(sender, contract, op, args, self.next_nonce(sender))
        return self.submit_transaction(tx)

    def produce_block(self, now: int, force: bool = False) -> Block:
        """Seal the pending pool into a block and apply it to contract state."""
        with self._write_lock:
            last = self._blocks[-1]
            due = last.timestamp + self.config.block_interval_ms
            if not force and now < due:
                raise IntervalNotElapsedError(f"block due at {due} ms, now {now} ms")
            applied: list[Transaction] = []
            height = last.height + 1
            for tx in self._pending:
                self._apply(tx, height)
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

    def _apply(self, tx: Transaction, height: int) -> None:
        contract = self._contracts[tx.contract]
        gas = self.config.gas_table.get(tx.op, self.config.default_op_gas)
        tx.gas_used = gas
        try:
            result = contract.execute(tx.sender, tx.op, tx.args)
            receipt = Receipt(tx.digest, tx.sender, tx.op, "ok", result, None, gas, height)
        except ContractRejection as rejection:
            receipt = Receipt(tx.digest, tx.sender, tx.op, "rejected", None,
                              rejection.code, gas, height)
        except (TypeError, ValueError, KeyError, IndexError):
            # malformed call payloads reject rather than halt production
            receipt = Receipt(tx.digest, tx.sender, tx.op, "rejected", None,
                              "invalid-args", gas, height)
        self._receipts[tx.digest] = receipt
        self._gas_log.append(GasEntry(tx.digest, tx.op, gas, *self._fees(gas)))

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
            for i, block in enumerate(self._blocks):
                _check_block(self._blocks[i - 1] if i else None, block)
        except CorruptChainError:
            return False
        return True


def _check_block(parent: Optional[Block], block: Block) -> None:
    """Raise ``CorruptChainError`` unless ``block`` links to ``parent``.

    ``parent`` is None for the genesis block, which must be empty.
    """
    if parent is None:
        if block.height != 0 or block.parent_digest != ZERO_DIGEST or block.transactions:
            raise CorruptChainError("invalid genesis block")
    elif block.height != parent.height + 1:
        raise CorruptChainError(f"height gap: {parent.height} -> {block.height}")
    elif block.parent_digest != parent.digest:
        raise CorruptChainError(f"parent digest mismatch at height {block.height}")
    recomputed = Block.compute_digest(
        block.height, block.timestamp, block.parent_digest, block.transactions)
    if recomputed != block.digest:
        raise CorruptChainError(f"block digest mismatch at height {block.height}")


def read_chain(stream: io.TextIOBase) -> list[Block]:
    blocks = []
    for line in stream:
        line = line.strip()
        if line:
            blocks.append(Block.from_wire(json.loads(line)))
    return blocks


def replay_chain(config: ChainConfig, blocks: list[Block],
                 contract_factory: Callable[[], Iterable[Contract]]) -> Chain:
    """Rebuild contract state by re-applying a chain from genesis.

    Verifies heights, parent links, and digests as it goes; any
    discrepancy (including a tampered transaction payload) raises
    ``CorruptChainError``. The resulting chain's state is byte-identical
    to the live chain that produced the same history.
    """
    if not blocks:
        raise CorruptChainError("empty chain: genesis required")
    chain = Chain(config, contract_factory())
    _check_block(None, blocks[0])
    chain._blocks = [blocks[0]]
    for block in blocks[1:]:
        _check_block(chain._blocks[-1], block)
        for tx in block.transactions:
            chain._apply(Transaction(tx.sender, tx.contract, tx.op, tx.args, tx.nonce),
                         block.height)
            chain._next_nonce[tx.sender] = tx.nonce + 1
        chain._blocks.append(block)
    return chain
