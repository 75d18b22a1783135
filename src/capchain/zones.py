"""Virtual trust zone contract.

A zone groups nodes that are allowed to authenticate to each other. The
contract keeps one record per zone (its master and a churn counter) and
one record per node (which zone it belongs to and in what role). All
mutations return booleans instead of aborting: an unauthorized or
inapplicable call is a ``False``, never an exception.

Roles are encoded as integers: 0 = none, 1 = master, 2 = follower.
"""

from __future__ import annotations

from dataclasses import dataclass

from .address import Address, ZERO_ADDRESS
from .ledger import Contract, ContractRejection

NODE_TYPE_NONE = 0
NODE_TYPE_MASTER = 1
NODE_TYPE_FOLLOWER = 2


@dataclass(frozen=True)
class VirtualZone:
    zone_id: str
    master: Address
    uid: int


@dataclass(frozen=True)
class VNodeRecord:
    address: Address
    vzone_id: str
    node_type: int


def _zone_id(value: object) -> str:
    """A zone id of call args, or ``TypeError``: replay reads a tuple id as an unhashable list."""
    if not isinstance(value, str):
        raise TypeError(f"zone id must be a string, got {type(value).__name__}")
    return value


class ZoneContract(Contract):
    """State machine for zone creation, revocation, joining and leaving.

    The supervisor address has override rights everywhere; ordinary
    masters must be on the supervisor-managed allowlist to create zones.
    ``OPS`` prices the five mutations at fixed constants chosen to be
    stable across runs, since only the token assignment has a published
    reference value.
    """

    name = "vzone"

    def __init__(self, supervisor: Address):
        self.supervisor = supervisor
        self._zones: dict[str, VirtualZone] = {}
        self._nodes: dict[Address, VNodeRecord] = {}
        self._allowlist: set[Address] = set()

    # -- ledger protocol -------------------------------------------------------

    OPS = {
        "create_vzone": (88421, lambda self, sender, args:
                         self.create_vzone(sender, _zone_id(args[0]))),
        "revoke_vzone": (44216, lambda self, sender, args:
                         self.revoke_vzone(sender, _zone_id(args[0]))),
        "join_vzone": (64733, lambda self, sender, args:
                       self.join_vzone(sender, _zone_id(args[0]), Address.from_hex(args[1]))),
        "leave_vzone": (29850, lambda self, sender, args:
                        self.leave_vzone(sender, _zone_id(args[0]), Address.from_hex(args[1]))),
        "set_master_allowlist": (45102, lambda self, sender, args: self.set_master_allowlist(
            sender, Address.from_hex(args[0]), bool(args[1]))),
    }
    execute = Contract.execute

    def view(self, op: str, args: tuple = ()):
        if op == "get_vnode":
            return self.get_vnode(args[0])
        if op == "get_vzone":
            return self.get_vzone(args[0])
        if op == "get_certificate":
            return self.get_certificate(args[0])
        raise ContractRejection("unknown-view", f"zone contract has no view {op!r}")

    # -- mutations (confirmed transactions only) ---------------------------------
    # Records are frozen: a mutation stores a new one under the same key, which
    # keeps the key's position, so dump_state's order is the first-write order.

    def create_vzone(self, sender: Address, zone_id: str) -> bool:
        if not zone_id:
            return False
        if sender != self.supervisor and sender not in self._allowlist:
            return False
        zone = self._zones.get(zone_id)
        if zone is not None and not zone.master.is_zero:
            return False
        uid = zone.uid if zone is not None else 0
        self._zones[zone_id] = VirtualZone(zone_id, sender, uid + 1)
        self._nodes[sender] = VNodeRecord(sender, zone_id, NODE_TYPE_MASTER)
        return True

    def revoke_vzone(self, sender: Address, zone_id: str) -> bool:
        zone = self._zones.get(zone_id)
        if zone is None or zone.master.is_zero:
            return False
        authorized = sender == self.supervisor or (
            sender in self._allowlist and zone.master == sender)
        if not authorized:
            return False
        self._zones[zone_id] = VirtualZone(zone_id, ZERO_ADDRESS, zone.uid + 1)
        self._nodes[zone.master] = VNodeRecord(zone.master, "", NODE_TYPE_NONE)
        return True

    def join_vzone(self, sender: Address, zone_id: str, node: Address) -> bool:
        if sender != self.supervisor and sender != self._zone_master(zone_id):
            return False
        record = self._nodes.get(node)
        if record is not None and record.node_type != NODE_TYPE_NONE:
            return False
        self._nodes[node] = VNodeRecord(node, zone_id, NODE_TYPE_FOLLOWER)
        return True

    def leave_vzone(self, sender: Address, zone_id: str, node: Address) -> bool:
        if sender != self.supervisor and sender != self._zone_master(zone_id):
            return False
        record = self._nodes.get(node)
        if record is None or record.node_type != NODE_TYPE_FOLLOWER:
            return False
        self._nodes[node] = VNodeRecord(node, "", NODE_TYPE_NONE)
        return True

    def set_master_allowlist(self, sender: Address, addr: Address, allowed: bool) -> bool:
        if sender != self.supervisor:
            return False
        if allowed:
            self._allowlist.add(addr)
        else:
            self._allowlist.discard(addr)
        return True

    # -- views ---------------------------------------------------------------------
    # Views take Address objects; hex is wire data and is decoded only in execute.

    def _zone_master(self, zone_id: str) -> Address:
        zone = self._zones.get(zone_id)
        return zone.master if zone is not None else ZERO_ADDRESS

    def get_vzone(self, zone_id: str) -> VirtualZone:
        zone = self._zones.get(zone_id)
        return zone if zone is not None else VirtualZone(zone_id, ZERO_ADDRESS, 0)

    def get_vnode(self, addr: Address) -> VNodeRecord:
        if not isinstance(addr, Address):
            raise TypeError(f"get_vnode takes an Address, got {type(addr).__name__}")
        record = self._nodes.get(addr)
        return record if record is not None else VNodeRecord(addr, "", NODE_TYPE_NONE)

    def get_certificate(self, addr: Address) -> dict:
        """Authentication certificate for a node, in wire field names."""
        record = self.get_vnode(addr)
        return {
            "vid": addr.hex,
            "VZone": {
                "VZoneID": record.vzone_id,
                "master": self._zone_master(record.vzone_id).hex if record.vzone_id else ZERO_ADDRESS.hex,
            },
            "Vnode": {
                "VZoneID": record.vzone_id,
                "node_type": record.node_type,
            },
        }

    def dump_state(self) -> dict:
        zones = {
            zone_id: {"VZoneID": zone_id, "master": zone.master.hex, "uid": zone.uid}
            for zone_id, zone in self._zones.items()
        }
        nodes = {
            addr.hex: {"vid": addr.hex, "VZoneID": rec.vzone_id, "node_type": rec.node_type}
            for addr, rec in self._nodes.items()
            if rec.node_type != NODE_TYPE_NONE
        }
        return {
            "supervisor": self.supervisor.hex,
            "allowlist": sorted(a.hex for a in self._allowlist),
            "zones": zones,
            "nodes": nodes,
        }
