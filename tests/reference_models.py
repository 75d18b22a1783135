"""Independent reference models used as oracles.

These deliberately share no code with the package: state is plain dicts
keyed by hex strings, and each operation is a straight-line transcription
of the zone lifecycle guards. The enforcement oracle evaluates the whole
decision directly instead of going through a staged pipeline object.
The token cache reference is the exception: it is the full-refetch sync
that the change-driven ``TokenCache.sync`` replaced, run on a real cache.
"""

from capchain.ledger import LedgerError

ZERO_HEX = "0x" + "00" * 20

MS_PER_DAY = 86_400_000


# ---------------------------------------------------------------------------
# Zone state machine (literal interpreter)
# ---------------------------------------------------------------------------

def new_zone_model(supervisor_hex):
    return {
        "supervisor": supervisor_hex,
        "allowlist": set(),
        "vzone": {},   # zone_id -> {"master": hex, "uid": int}
        "vnode": {},   # hex -> {"vzone_id": str, "node_type": int}
    }


def _zone_master(model, zone_id):
    entry = model["vzone"].get(zone_id)
    return entry["master"] if entry else ZERO_HEX


def _node_type(model, addr):
    entry = model["vnode"].get(addr)
    return entry["node_type"] if entry else 0


def model_create_vzone(model, sender, zone_id):
    if sender == model["supervisor"] or sender in model["allowlist"]:
        if _zone_master(model, zone_id) == ZERO_HEX:
            entry = model["vzone"].setdefault(zone_id, {"master": ZERO_HEX, "uid": 0})
            entry["uid"] += 1
            entry["master"] = sender
            model["vnode"][sender] = {"vzone_id": zone_id, "node_type": 1}
            return True
        return False
    return False


def model_revoke_vzone(model, sender, zone_id):
    master = _zone_master(model, zone_id)
    if master == ZERO_HEX:
        return False
    if sender == model["supervisor"] or (sender in model["allowlist"] and master == sender):
        entry = model["vzone"][zone_id]
        entry["uid"] += 1
        entry["master"] = ZERO_HEX
        model["vnode"][master] = {"vzone_id": "", "node_type": 0}
        return True
    return False


def model_join_vzone(model, sender, zone_id, node):
    if sender == model["supervisor"] or sender == _zone_master(model, zone_id):
        if _node_type(model, node) == 0:
            model["vnode"][node] = {"vzone_id": zone_id, "node_type": 2}
            return True
        return False
    return False


def model_leave_vzone(model, sender, zone_id, node):
    if sender == model["supervisor"] or sender == _zone_master(model, zone_id):
        if _node_type(model, node) == 2:
            model["vnode"][node] = {"vzone_id": "", "node_type": 0}
            return True
        return False
    return False


def model_set_allowlist(model, sender, addr, allowed):
    if sender != model["supervisor"]:
        return False
    if allowed:
        model["allowlist"].add(addr)
    else:
        model["allowlist"].discard(addr)
    return True


MODEL_OPS = {
    "create_vzone": model_create_vzone,
    "revoke_vzone": model_revoke_vzone,
    "join_vzone": model_join_vzone,
    "leave_vzone": model_leave_vzone,
    "set_master_allowlist": model_set_allowlist,
}


def model_state_view(model):
    """Comparable projection: live zones and live memberships only."""
    zones = {zone_id: (entry["master"], entry["uid"])
             for zone_id, entry in model["vzone"].items() if entry["uid"] > 0}
    nodes = {addr: (entry["vzone_id"], entry["node_type"])
             for addr, entry in model["vnode"].items() if entry["node_type"] != 0}
    return {"zones": zones, "nodes": nodes, "allowlist": frozenset(model["allowlist"])}


def contract_state_view(dump):
    """Same projection computed from a zone contract state dump."""
    zones = {zone_id: (entry["master"], entry["uid"])
             for zone_id, entry in dump["zones"].items() if entry["uid"] > 0}
    nodes = {vid: (entry["VZoneID"], entry["node_type"])
             for vid, entry in dump["nodes"].items()}
    return {"zones": zones, "nodes": nodes, "allowlist": frozenset(dump["allowlist"])}


# ---------------------------------------------------------------------------
# Authorization decision oracle (brute force, no pipeline machinery)
# ---------------------------------------------------------------------------

def oracle_condition_ok(condition, now, location_tag):
    kind = condition["kind"]
    if kind == "time_window":
        tod = now % MS_PER_DAY
        return tod >= condition["start_ms"] and tod < condition["end_ms"]
    if kind == "weekday":
        return (int(now // MS_PER_DAY) % 7) in condition["days"]
    if kind == "location_tag":
        return condition["tag"] == location_tag
    return False


def oracle_authorize(provider_rec, requester_rec, zone_master_hex, token,
                     method, uri, now, location_tag):
    """Expected (outcome, abort_stage, recorded_stages) for one request.

    provider_rec / requester_rec are (vzone_id, node_type) pairs; token is
    a wire dict or None.
    """
    recorded = []

    recorded.append("identity_auth")
    member = provider_rec[1] != 0 and requester_rec[1] != 0
    same_zone = provider_rec[0] == requester_rec[0]
    zone_live = zone_master_hex != ZERO_HEX
    if not (member and same_zone and zone_live):
        return "deny", "identity_auth", tuple(recorded)

    recorded.append("token_fetch")
    if token is None:
        return "deny", "token_fetch", tuple(recorded)

    recorded.append("token_status")
    status_ok = (token["initialized"] and token["isValid"]
                 and token["issuedate"] <= now and now < token["expireddate"])
    if not status_ok:
        return "deny", "token_status", tuple(recorded)

    recorded.append("rule_match")
    matched = None
    for rule in token["authorization"]:
        if rule["action"] == method and rule["resource"] == uri:
            matched = rule
            break
    if matched is None:
        return "deny", "rule_match", tuple(recorded)

    recorded.append("condition_check")
    if not all(oracle_condition_ok(c, now, location_tag)
               for c in matched.get("conditions", [])):
        return "deny", "condition_check", tuple(recorded)

    return "grant", None, tuple(recorded)


def oracle_status_reason(token, now):
    """First failing flag in fixed order, or None if the status is good."""
    if not token["initialized"]:
        return "initialized"
    if not token["isValid"]:
        return "isValid"
    if not token["issuedate"] <= now:
        return "issuedate"
    if not now < token["expireddate"]:
        return "expireddate"
    return None


# ---------------------------------------------------------------------------
# Policy-decision oracle (set algebra over explicit enumerations)
# ---------------------------------------------------------------------------

def oracle_policy_decision(matching_rule_grants, requested_keys):
    """Union of grants from matching rules, cut to the requested keys.

    ``matching_rule_grants`` is a list of grant-key lists (action, resource)
    in rule order; first occurrence wins for duplicates.
    """
    union = []
    seen = set()
    for grants in matching_rule_grants:
        for key in grants:
            if key not in seen:
                seen.add(key)
                union.append(key)
    return [key for key in union if key in requested_keys]


# ---------------------------------------------------------------------------
# Token cache sync (full refetch)
# ---------------------------------------------------------------------------

def full_refetch_sync(cache, fetch, now, height):
    """Refetch every cached token from confirmed state; returns replaced-entry count.

    Same signature as ``TokenCache.sync``, so it can stand in for it.
    """
    refreshed = 0
    for subject in list(cache.entries):
        try:
            token = fetch(subject)
        except (OSError, LedgerError):
            token = None
        if token is None:
            del cache.entries[subject]
            continue
        entry = cache.entries[subject]
        if token != entry.token:
            entry.token = token
            refreshed += 1
        entry.synced_at = now
    return refreshed
