import pytest

from capchain.address import AddressFactory
from capchain.ledger import Chain, ChainConfig
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


class Bench:
    """A chain with zone and token contracts plus a confirmed zone."""

    def __init__(self, seed=1234, zone_id="zone-a", block_interval_ms=15000):
        factory = AddressFactory(seed)
        self.supervisor = factory.new_address()
        self.master = factory.new_address()
        self.provider = factory.new_address()
        self.client = factory.new_address()
        self.outsider = factory.new_address()
        self.factory = factory
        self.zone_id = zone_id
        self.zones = ZoneContract(self.supervisor)
        self.tokens = TokenContract(self.supervisor, self.zones)
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


@pytest.fixture
def bench():
    return Bench()
