"""Zone-authenticated, capability-based access control on a simulated chain.

Subpackage map:

- ``address``      account addresses / virtual identities
- ``ledger``       deterministic block production and gas accounting
- ``zones``        virtual trust zone contract
- ``tokens``       capability token contract and wire formats
- ``master``       domain-master registration, policy, issuance
- ``enforcement``  provider-side authentication and validation pipeline
- ``scenario``     scenario file parser: typed topology and script events
- ``netsim``       discrete-event harness, latency model, reports
- ``cli``          command-line interface
"""

from .address import Address, AddressFactory, ZERO_ADDRESS
from .ledger import (Block, Chain, ChainConfig, ContractRejection, Transaction,
                     replay_chain)
from .tokens import CapabilityToken
from .zones import VirtualZone, VNodeRecord

__all__ = [
    "Address", "AddressFactory", "ZERO_ADDRESS",
    "Block", "Chain", "ChainConfig", "ContractRejection", "Transaction", "replay_chain",
    "CapabilityToken",
    "VirtualZone", "VNodeRecord",
]

__version__ = "0.1.0"
