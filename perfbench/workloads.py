"""Scenario generators for the host-time benchmark.

Each generator is a pure function of ``(seed, scale)`` and returns a
scenario dict that ``capchain scenario`` accepts unchanged. ``scale``
multiplies the client count only; providers, blocks and requests per
client stay fixed, so the ratios the layer-dominance tests check do not
depend on it.

Every request carries an ``expect`` annotation derived from the
generator's own model of confirmed token state. State changes only when
a block is produced, and no scripted event lands within 200 ms of a block
boundary, so the model needs only the block interval to know which
mutations a request sees.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

BLOCK_MS = 15_000
VALIDITY_MS = 86_400_000
SERVICES = ("/api/data", "/api/telemetry")
# Each script event keeps this far from a block boundary; channel delays
# stay well below it.
GUARD_MS = 200


def _clients(count: int, scale: float) -> int:
    return max(4, round(count * scale))


def _rule(action: str, resource: str, conditions: tuple = ()) -> dict:
    return {"action": action, "resource": resource, "conditions": list(conditions)}


def _request_time(rng: random.Random, start: int, end: int) -> int:
    """A time in [start, end) that stays GUARD_MS away from block boundaries."""
    while True:
        at = rng.randrange(start, end)
        if GUARD_MS <= at % BLOCK_MS <= BLOCK_MS - GUARD_MS:
            return at


def expected_outcome(token: Optional[dict], method: str, uri: str,
                     location: str, same_zone: bool) -> str:
    """Decision the five-stage pipeline must reach on confirmed ``token``.

    ``token`` is the model's view: ``{"valid": bool, "rules": [rule wire]}``,
    or None when no token is confirmed. Virtual time in every workload stays
    inside day 0 (a Monday), which is all the weekday condition needs.
    """
    if not same_zone or token is None or not token["valid"]:
        return "deny"
    for rule in token["rules"]:
        if rule["action"] == method and rule["resource"] == uri:
            for condition in rule["conditions"]:
                if condition["kind"] == "location_tag" and condition["tag"] != location:
                    return "deny"
                if condition["kind"] == "weekday" and 0 not in condition["days"]:
                    return "deny"
            return "grant"
    return "deny"


def _node(name: str, role: str, **fields) -> dict:
    return {"name": name, "role": role, **fields}


def _channel(client: str, provider: str, delay) -> dict:
    return {"name": f"{client}--{provider}", "a": client, "b": provider,
            "one_way_delay_ms": delay}


def hot_reads(seed: int, scale: float = 1.0) -> dict:
    """Dense request stream against a static token population.

    200 clients at scale 1 share ten satellite providers in zone-a; each
    talks to two home providers. A few clients belong to zone-b (denied at
    identity_auth), a few hold no token (denied at token_fetch), and a few
    register through the master instead of joining at bootstrap. Tokens
    mix location and weekday conditions, so every pipeline stage can deny.
    """
    rng = random.Random(f"hot_reads:{seed}")
    n = _clients(200, scale)
    providers = [f"sat-{i:02d}" for i in range(10)]
    locations = {p: ("orbit-a" if i % 2 == 0 else "orbit-b") for i, p in enumerate(providers)}
    clients = [f"client-{i:04d}" for i in range(n)]
    shuffled = rng.sample(clients, n)
    foreign = set(shuffled[:max(1, n // 25)])
    tokenless = set(shuffled[len(foreign):len(foreign) + max(1, n // 25)])
    registered = set(shuffled[len(foreign) + len(tokenless):
                              len(foreign) + len(tokenless) + max(1, n // 16)])

    script: list[dict] = []
    tokens: dict[str, dict] = {}
    for client in clients:
        if client in registered:
            script.append({"at": 200, "op": "register", "node": client, "master": "master-a"})
        if client in foreign or client in tokenless:
            continue
        draw = rng.random()
        if draw < 0.6:
            conditions: tuple = ()
        elif draw < 0.8:
            conditions = ({"kind": "location_tag", "tag": "orbit-a"},)
        elif draw < 0.9:
            conditions = ({"kind": "weekday", "days": [0, 1, 2, 3, 4]},)
        else:
            conditions = ({"kind": "weekday", "days": [5, 6]},)
        rules = [_rule("GET", "/api/data", conditions)]
        if rng.random() < 0.5:
            rules.append(_rule("POST", "/api/telemetry"))
        tokens[client] = {"valid": True, "rules": rules}
        # a registered client's join confirms at the first block, so its
        # issuance goes out just after it
        script.append({"at": BLOCK_MS + 200 if client in registered else 100,
                       "op": "issue", "master": "master-a", "subject": client,
                       "rules": rules, "validity_ms": VALIDITY_MS})

    channels = []
    for client in clients:
        homes = rng.sample(providers, 2)
        for provider in homes:
            channels.append(_channel(client, provider, [4.5, 5.5]))
        for _ in range(40):
            draw = rng.random()
            method, uri = (("GET", "/api/data") if draw < 0.7 else
                           ("PUT", "/api/data") if draw < 0.8 else
                           ("POST", "/api/telemetry"))
            provider = rng.choice(homes)
            script.append({
                "at": _request_time(rng, 2 * BLOCK_MS, 5 * BLOCK_MS),
                "op": "request", "requester": client, "provider": provider,
                "method": method, "uri": uri,
                "expect": expected_outcome(tokens.get(client), method, uri,
                                           locations[provider], client not in foreign)})
    script.sort(key=lambda event: event["at"])

    members_a = providers + [c for c in clients if c not in foreign and c not in registered]
    nodes = [
        _node("supervisor", "supervisor"),
        _node("master-a", "master", zone="zone-a", members=members_a),
        _node("master-b", "master", zone="zone-b", members=sorted(foreign)),
    ]
    nodes += [_node(p, "satellite", profile="satellite", services=list(SERVICES),
                    location=locations[p]) for p in providers]
    nodes += [_node(c, "client", profile="satellite") for c in clients]
    return {"name": "hot_reads", "seed": seed, "block_interval_ms": BLOCK_MS,
            "registration_policy": {"kind": "allow_all"},
            "nodes": nodes, "channels": channels, "script": script}


def idle_sync(seed: int, scale: float = 1.0) -> dict:
    """Warm every cache entry once, then run quiet blocks with no state change.

    300 clients at scale 1 each send one granted GET to each of ten ground
    providers during the block interval after issuance, which fills 3,000
    cache entries. Forty blocks then pass with no transaction at all, so
    each provider's per-block sync refetches every entry and finds nothing
    changed.
    """
    rng = random.Random(f"idle_sync:{seed}")
    n = _clients(300, scale)
    quiet_blocks = 40
    providers = [f"ground-{i:02d}" for i in range(10)]
    clients = [f"client-{i:04d}" for i in range(n)]
    registered = set(rng.sample(clients, max(1, n // 10)))
    rules = [_rule("GET", "/api/data")]

    script: list[dict] = []
    for client in sorted(registered):
        script.append({"at": 200, "op": "register", "node": client, "master": "master-a"})
    for client in clients:
        script.append({"at": BLOCK_MS + 200, "op": "issue", "master": "master-a",
                       "subject": client, "rules": rules, "validity_ms": VALIDITY_MS})
    channels = []
    for client in clients:
        for provider in providers:
            channels.append(_channel(client, provider, [3.0, 4.5]))
            script.append({"at": _request_time(rng, 2 * BLOCK_MS, 3 * BLOCK_MS),
                           "op": "request", "requester": client, "provider": provider,
                           "method": "GET", "uri": "/api/data", "expect": "grant"})
    script.sort(key=lambda event: event["at"])
    script.append({"at": (3 + quiet_blocks) * BLOCK_MS + 500, "op": "advance"})

    members = providers + [c for c in clients if c not in registered]
    nodes = [
        _node("supervisor", "supervisor"),
        _node("master-a", "master", zone="zone-a", members=members),
    ]
    nodes += [_node(p, "ground", profile="ground", services=["/api/data"])
              for p in providers]
    nodes += [_node(c, "client", profile="ground") for c in clients]
    return {"name": "idle_sync", "seed": seed, "block_interval_ms": BLOCK_MS,
            "registration_policy": {"kind": "allow_all"},
            "nodes": nodes, "channels": channels, "script": script}


CHURN_RULES = (("GET", "/api/data"), ("PUT", "/api/data"), ("POST", "/api/telemetry"))


def _churn_op(rng: random.Random, token: Optional[dict]) -> tuple[dict, dict]:
    """One state-changing token operation and the token state it confirms."""
    if token is not None and token["valid"] and token["rules"]:
        draw = rng.random()
        if draw < 0.15:
            return {"op": "revoke"}, {"valid": False, "rules": []}
        if draw < 0.4:
            victim = rng.choice(token["rules"])
            kept = [r for r in token["rules"] if r is not victim]
            return ({"op": "revoke_rules",
                     "rules": [{"action": victim["action"], "resource": victim["resource"]}]},
                    {"valid": True, "rules": kept})
        if draw < 0.7:
            return {"op": "suspend"}, {"valid": False, "rules": token["rules"]}
    elif token is not None and not token["valid"] and rng.random() < 0.6:
        return {"op": "restore"}, {"valid": True, "rules": token["rules"]}
    keys = rng.sample(CHURN_RULES, rng.randint(1, len(CHURN_RULES)))
    rules = [_rule(action, resource) for action, resource in sorted(keys)]
    return ({"op": "issue", "rules": rules, "validity_ms": VALIDITY_MS},
            {"valid": True, "rules": rules})


def churn(seed: int, scale: float = 1.0) -> dict:
    """Every client's token changes every block while it keeps sending requests.

    400 clients at scale 1 register through the masters of four zones, each
    zone with two ground providers. For twelve block intervals, every client
    gets one state-changing token operation (issue, revoke, revoke_rules,
    suspend or restore) early in the interval and sends one request later in
    it. The request sees the state confirmed at the interval's opening block,
    which is what its ``expect`` encodes.
    """
    rng = random.Random(f"churn:{seed}")
    n = _clients(400, scale)
    zones = 4
    intervals = 12
    clients = [f"client-{i:04d}" for i in range(n)]
    zone_of = {c: i % zones for i, c in enumerate(clients)}
    providers = {z: [f"ground-{z}{k}" for k in range(2)] for z in range(zones)}
    home = {c: rng.choice(providers[zone_of[c]]) for c in clients}

    script: list[dict] = [{"at": 100, "op": "register", "node": c,
                           "master": f"master-{zone_of[c]}"} for c in clients]
    tokens: dict[str, Optional[dict]] = {c: None for c in clients}
    for k in range(1, intervals + 1):
        start = k * BLOCK_MS
        for client in clients:
            method, uri = rng.choice(CHURN_RULES + (("GET", "/api/telemetry"),))
            script.append({
                "at": _request_time(rng, start + BLOCK_MS // 2, start + BLOCK_MS),
                "op": "request", "requester": client, "provider": home[client],
                "method": method, "uri": uri,
                "expect": expected_outcome(tokens[client], method, uri, "", True)})
        for client in clients:
            at = _request_time(rng, start, start + BLOCK_MS // 2)
            event, tokens[client] = _churn_op(rng, tokens[client])
            script.append({"at": at, "master": f"master-{zone_of[client]}",
                           "subject": client, **event})
    script.sort(key=lambda event: event["at"])

    nodes = [_node("supervisor", "supervisor")]
    nodes += [_node(f"master-{z}", "master", zone=f"zone-{z}", members=providers[z])
              for z in range(zones)]
    nodes += [_node(p, "ground", profile="ground", services=list(SERVICES))
              for z in range(zones) for p in providers[z]]
    nodes += [_node(c, "client", profile="ground") for c in clients]
    channels = [_channel(c, home[c], 3.75) for c in clients]
    return {"name": "churn", "seed": seed, "block_interval_ms": BLOCK_MS,
            "registration_policy": {"kind": "allow_all"},
            "nodes": nodes, "channels": channels, "script": script}


WORKLOADS: dict[str, Callable[[int, float], dict]] = {
    "hot_reads": hot_reads,
    "idle_sync": idle_sync,
    "churn": churn,
}
