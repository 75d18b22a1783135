"""Chain helpers for the tests: ``Bench``, submit shortcuts and resealed exports."""

import dataclasses

from capchain.address import AddressFactory
from capchain.ledger import Block, Chain, ChainConfig
from capchain.tokens import TokenContract
from capchain.zones import ZoneContract


def submit(chain, sender, contract, op, args):
    """Build and queue a transaction with the sender's next nonce."""
    return chain.submit(sender, contract, op, args)


def apply_tx(chain, sender, contract, op, args):
    """Submit, confirm in the next block, and return the receipt."""
    digest = submit(chain, sender, contract, op, args)
    chain.produce_next_block()
    return chain.get_receipt(digest)


def reseal(blocks, height, change):
    """Apply ``change`` to the block at ``height``, then reseal it and its successors.

    Every stored digest and parent link stays consistent, so only a
    replay that re-runs the block can tell the export is false.
    """
    blocks[height] = change(blocks[height])
    for i in range(height, len(blocks)):
        block, parent = blocks[i], blocks[i - 1].digest
        blocks[i] = Block(block.height, block.timestamp, parent, block.transactions,
                          Block.compute_digest(block.height, block.timestamp, parent,
                                               block.transactions))
    return blocks


def digests_and_links_hold(blocks):
    """Whether each block after the first links to its parent by height and
    digest, and each stored digest is that of its body."""
    return all(block.height == parent.height + 1 and block.parent_digest == parent.digest
               and block.digest == Block.compute_digest(block.height, block.timestamp,
                                                        block.parent_digest,
                                                        block.transactions)
               for parent, block in zip(blocks, blocks[1:]))


def change_first_tx(**fields):
    """A ``reseal`` change that replaces fields of a block's first transaction."""
    def change(block):
        first = dataclasses.replace(block.transactions[0], **fields)
        return dataclasses.replace(block, transactions=(first,) + block.transactions[1:])
    return change


class Bench:
    """A chain with zone and token contracts plus a confirmed zone; ``token_contract``
    is the token contract's class."""

    def __init__(self, seed=1234, zone_id="zone-a", block_interval_ms=15000,
                 token_contract=TokenContract):
        factory = AddressFactory(seed)
        self.supervisor = factory.new_address()
        self.master = factory.new_address()
        self.provider = factory.new_address()
        self.client = factory.new_address()
        self.outsider = factory.new_address()
        self.factory = factory
        self.zone_id = zone_id
        self.zones = ZoneContract(self.supervisor)
        self.tokens = token_contract(self.supervisor, self.zones)
        self.chain = Chain(
            ChainConfig(supervisor=self.supervisor, block_interval_ms=block_interval_ms),
            [self.zones, self.tokens],
        )
        submit(self.chain, self.supervisor, "vzone", "set_master_allowlist",
               (self.master.hex, True))
        submit(self.chain, self.master, "vzone", "create_vzone", (zone_id,))
        submit(self.chain, self.master, "vzone", "join_vzone",
               (zone_id, self.provider.hex))
        submit(self.chain, self.master, "vzone", "join_vzone",
               (zone_id, self.client.hex))
        self.chain.produce_next_block()

    def submit(self, sender, contract, op, args):
        return submit(self.chain, sender, contract, op, args)

    def apply(self, sender, contract, op, args):
        return apply_tx(self.chain, sender, contract, op, args)

    def issue_client_token(self, rules=None, issue_date=0, expired_date=10**12):
        rules = rules if rules is not None else [
            {"action": "GET", "resource": "/api/data", "conditions": []}]
        return self.apply(self.master, "captoken", "issue_token",
                          (self.client.hex, rules, issue_date, expired_date))
