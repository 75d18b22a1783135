import io
import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capchain.address import Address
from capchain.enforcement import (COST_KEYS, PIPELINE_STAGES, ServiceProvider,
                                  ServiceRequest, TokenCache, condition_satisfied,
                                  match_access_rule, verify_conditions, verify_token_status)
from capchain.ledger import ContractNotFoundError
from capchain.netsim import Measurement, write_stage_traces_csv
from capchain.tokens import MS_PER_DAY
from capchain.zones import NODE_TYPE_NONE

from chainbench import Bench
from reference_models import (FullRefetchTokenCache, ReferenceTokenCache,
                              RereadingIdentityProvider, oracle_authorize,
                              oracle_status_reason, reference_authenticate,
                              reference_authorize)

PAPER_REQUESTER = "0xaa09c6d65908e54bf695748812c51d8f2ceea0f5"

RULE_GET = {"action": "GET", "resource": "/api/data", "conditions": []}
RULE_POST = {"action": "POST", "resource": "/api/upload", "conditions": []}


def token_wire(initialized=True, is_valid=True, issuedate=0, expireddate=10**12,
               authorization=None, vid="0x" + "11" * 20, master="0x" + "22" * 20):
    return {
        "vid": vid, "VZone_master": master, "id": 1,
        "initialized": initialized, "isValid": is_valid,
        "issuedate": issuedate, "expireddate": expireddate,
        "authorization": authorization if authorization is not None else [RULE_GET],
    }


def provider_for(bench, node=None, **kwargs):
    return ServiceProvider(node or bench.provider, bench.chain, **kwargs)


def count_queries(chain):
    """Stand in for ``chain.query_state`` with a wrapper that counts its calls;
    returns the count, a one-item list."""
    count, query = [0], chain.query_state

    def counted(*args):
        count[0] += 1
        return query(*args)

    chain.query_state = counted
    return count


class TestAuthenticate:
    def test_same_zone_requester_passes(self, bench):
        requester = Address.from_hex(PAPER_REQUESTER)
        bench.apply(bench.master, "vzone", "join_vzone",
                    (bench.zone_id, requester.hex))
        provider = provider_for(bench)
        assert provider.authenticate(requester) is None

    def test_cross_zone_requester_denied(self, bench):
        bench.apply(bench.supervisor, "vzone", "create_vzone", ("zone-b",))
        bench.apply(bench.supervisor, "vzone", "join_vzone",
                    ("zone-b", bench.outsider.hex))
        provider = provider_for(bench)
        assert provider.authenticate(bench.outsider) == "zone-mismatch"

    def test_unregistered_requester_not_member(self, bench):
        provider = provider_for(bench)
        assert provider.authenticate(bench.outsider) == "not-member"

    def test_revoked_zone_denies_former_followers(self, bench):
        provider = provider_for(bench)
        bench.apply(bench.master, "vzone", "revoke_vzone", (bench.zone_id,))
        provider.sync_cache()
        assert provider.authenticate(bench.client) == "zone-revoked"

    def test_cold_request_reads_the_requester_and_warm_reads_nothing(self, bench):
        provider = provider_for(bench)
        queries = count_queries(bench.chain)
        assert provider.authenticate(bench.client) is None
        assert queries == [3]   # the requester's record, the own record and the zone
        assert provider.authenticate(bench.client) is None
        assert queries == [3]   # held at the synced height
        assert provider.authenticate(bench.outsider) == "not-member"
        assert provider.authenticate(bench.outsider) == "not-member"
        assert queries == [4]   # the outsider's record, once

    def test_a_sync_reads_only_the_zone_records_the_feed_names(self, bench):
        provider = provider_for(bench)   # its token cache is empty: a sync fetches no token
        assert provider.authenticate(bench.client) is None   # holds three records
        queries = count_queries(bench.chain)
        bench.issue_client_token()   # a block that writes no zone record
        provider.sync_cache()
        assert provider.authenticate(bench.client) is None
        assert queries == [0]
        bench.apply(bench.supervisor, "vzone", "create_vzone", ("zone-b",))   # another zone
        bench.apply(bench.supervisor, "vzone", "join_vzone", ("zone-b", bench.outsider.hex))
        provider.sync_cache()
        assert provider.authenticate(bench.client) is None
        assert queries == [0]
        bench.apply(bench.master, "vzone", "revoke_vzone", (bench.zone_id,))
        provider.sync_cache()
        assert queries == [0]
        assert provider.authenticate(bench.client) == "zone-revoked"
        assert queries == [1]   # the zone
        bench.apply(bench.master, "vzone", "create_vzone", (bench.zone_id,))
        bench.apply(bench.master, "vzone", "leave_vzone", (bench.zone_id, bench.provider.hex))
        provider.sync_cache()
        assert queries == [1]
        assert provider.authenticate(bench.client) == "not-member"
        assert queries == [1 + 1]   # its own record; the zone is not read for a non-member
        assert provider.authenticate(bench.client) == "not-member"
        assert queries == [2]

    def test_a_sync_reads_no_contract_and_a_request_reads_what_the_feed_named(self, bench):
        provider = provider_for(bench)
        assert provider.authenticate(bench.client) is None   # holds three records
        # the zone's master revokes and recreates it, and the provider leaves and
        # rejoins: the feed names the zone, the master and the provider
        bench.submit(bench.master, "vzone", "revoke_vzone", (bench.zone_id,))
        bench.submit(bench.master, "vzone", "create_vzone", (bench.zone_id,))
        for op in ("leave_vzone", "join_vzone"):
            bench.submit(bench.master, "vzone", op, (bench.zone_id, bench.provider.hex))
        bench.chain.produce_next_block()
        read, query = [], bench.chain.query_state

        def recorded(contract, op, args=()):
            read.append(args[0])
            return query(contract, op, args)

        bench.chain.query_state = recorded
        provider.sync_cache()
        assert read == []
        assert provider.authenticate(bench.client) is None
        assert read == [bench.provider, bench.zone_id]   # not the client's record

    def test_a_block_without_a_sync_reads_the_contract_and_holds_nothing(self, bench):
        provider = provider_for(bench)
        provider.authenticate(bench.client)
        bench.apply(bench.master, "vzone", "leave_vzone", (bench.zone_id, bench.client.hex))
        queries = count_queries(bench.chain)
        assert provider.authenticate(bench.client) == "not-member"
        bench.apply(bench.master, "vzone", "join_vzone", (bench.zone_id, bench.client.hex))
        assert provider.authenticate(bench.client) is None
        assert provider.authenticate(bench.client) is None
        # both records each time, and the zone too once they pass
        assert queries == [2 + 3 + 3]
        provider.sync_cache()
        queries[0] = 0
        assert provider.authenticate(bench.client) is None
        assert provider.authenticate(bench.client) is None
        assert queries == [1]

    def test_off_the_synced_height_the_own_record_is_read_from_the_contract(self, bench):
        bench.issue_client_token()
        provider = provider_for(bench)
        request = ServiceRequest(bench.client, "GET", "/api/data", 1000.0)
        assert provider.authorize(request)[0].granted
        bench.apply(bench.master, "vzone", "leave_vzone", (bench.zone_id, bench.provider.hex))
        # sealed without a sync: confirmed state gives the provider no zone
        decision, _ = provider.authorize(request)
        assert (decision.granted, decision.reason) == (False, "not-member")
        assert provider.authenticate(bench.client) == "not-member"
        provider.sync_cache()
        assert provider.authorize(request)[0].reason == "not-member"

    def test_an_identity_step_that_raises_leaves_identity_unserved(self, bench):
        provider = provider_for(bench)
        assert provider.authenticate(bench.client) is None   # held
        bench.submit(bench.master, "vzone", "leave_vzone", (bench.zone_id, bench.client.hex))
        # the provider leaves and rejoins, so the feed names it, but its record
        # cannot be read
        for op in ("leave_vzone", "join_vzone"):
            bench.submit(bench.master, "vzone", op, (bench.zone_id, bench.provider.hex))
        bench.chain.produce_next_block()
        changes_since = bench.chain.changes_since

        def unreachable_zone_feed(contract, height):
            if contract == "vzone":
                raise ConnectionError("chain replica unavailable")
            return changes_since(contract, height)

        bench.chain.changes_since = unreachable_zone_feed
        cursor, held = provider.cache.cursor, dict(provider.zone_records)
        with pytest.raises(ConnectionError):
            provider.sync_cache()
        bench.chain.changes_since = changes_since
        assert provider.cache.cursor == cursor and provider.zone_records == held
        # the client left in the block the sync did not complete
        assert provider.authenticate(bench.client) == "not-member"
        assert provider.zone_records == held   # read off the synced height, not held
        assert provider.sync_cache() == 0
        assert provider.authenticate(bench.client) == "not-member"
        assert provider.zone_records[bench.client].node_type == NODE_TYPE_NONE

    def test_sync_drops_the_requesters_the_zone_feed_names(self, bench):
        other = bench.factory.new_address()
        bench.apply(bench.master, "vzone", "join_vzone", (bench.zone_id, other.hex))
        provider = provider_for(bench)
        assert provider.authenticate(bench.client) is None
        assert provider.authenticate(other) is None
        bench.apply(bench.master, "vzone", "leave_vzone", (bench.zone_id, other.hex))
        provider.sync_cache()
        queries = count_queries(bench.chain)
        assert provider.authenticate(bench.client) is None
        assert provider.authenticate(other) == "not-member"
        assert queries == [1]   # the client's record was kept, the other's re-read

    def test_sync_drops_a_named_requester_among_fewer_held_records(self, bench):
        provider = provider_for(bench)
        assert provider.authenticate(bench.client) is None   # the one held record
        for node in bench.factory.new_addresses(3):
            bench.submit(bench.master, "vzone", "join_vzone", (bench.zone_id, node.hex))
        bench.submit(bench.master, "vzone", "leave_vzone", (bench.zone_id, bench.client.hex))
        bench.chain.produce_next_block()
        provider.sync_cache()   # four named nodes: it walks its one record
        assert provider.authenticate(bench.client) == "not-member"


class TestTokenFetch:
    def test_first_request_misses_then_caches(self, bench):
        bench.issue_client_token()
        provider = provider_for(bench)
        token, hit = provider.fetch_or_cache_token(bench.client)
        assert token is not None and hit is False
        assert bench.client in provider.cache.entries

    def test_second_request_hits_without_contract_query(self, bench):
        bench.issue_client_token()
        provider = provider_for(bench)
        provider.fetch_or_cache_token(bench.client)
        queries = count_queries(bench.chain)
        token, hit = provider.fetch_or_cache_token(bench.client)
        assert hit is True
        assert queries == [0]

    def test_unknown_subject_is_absent_and_uncached(self, bench):
        provider = provider_for(bench)
        token, hit = provider.fetch_or_cache_token(bench.outsider)
        assert token is None and hit is False
        assert bench.outsider not in provider.cache.entries

    def test_stale_entry_falls_back_to_contract(self, bench):
        bench.issue_client_token()
        provider = provider_for(bench)
        held, _ = provider.fetch_or_cache_token(bench.client)
        bench.chain.produce_next_block()   # sealed without a sync: the entry is not served
        queries = count_queries(bench.chain)
        token, hit = provider.fetch_or_cache_token(bench.client)
        assert token == held and hit is False and queries == [1]
        assert provider.cache.entries[bench.client] is held   # nor replaced

    def test_an_unsynced_block_sends_identity_and_tokens_to_the_contract(self, bench):
        bench.issue_client_token()
        provider = provider_for(bench)
        bench.chain.produce_next_block()   # sealed without a sync
        queries = count_queries(bench.chain)
        request = ServiceRequest(bench.client, "GET", "/api/data", now=100)
        for _ in range(2):
            decision, trace = provider.authorize(request)
            assert decision.granted and trace.cache_hit is False
        # each request read both zone records, the zone and the token; none is held
        assert queries == [8]
        assert provider.zone_records == {} and provider.cache.entries == {}
        provider.sync_cache()
        assert provider.authorize(request)[1].cache_hit is False
        assert queries == [12]   # the three records and the token, read once more and held
        assert provider.authorize(request)[1].cache_hit is True
        assert queries == [12]
        assert set(provider.zone_records) == {bench.client, bench.provider, bench.zone_id}
        assert bench.client in provider.cache.entries


class TestTokenStatus:
    def test_valid_token_inside_window(self):
        assert verify_token_status(token_wire(), now=100) is None

    def test_invalid_flag_named(self):
        assert verify_token_status(token_wire(is_valid=False), now=100) == "isValid"

    def test_expiry_boundary_is_half_open(self):
        token = token_wire(issuedate=0, expireddate=500)
        assert verify_token_status(token, now=500) == "expireddate"
        assert verify_token_status(token, now=499) is None

    def test_issue_boundary_inclusive(self):
        token = token_wire(issuedate=500, expireddate=1000)
        assert verify_token_status(token, now=500) is None
        assert verify_token_status(token, now=499) == "issuedate"

    def test_sixteen_combinations_match_oracle(self):
        # flags x date relations: all 2^4 cases against the reference order
        now = 1000
        for initialized, valid, issued_ok, not_expired in itertools.product(
                (True, False), repeat=4):
            token = token_wire(
                initialized=initialized, is_valid=valid,
                issuedate=0 if issued_ok else 2000,
                expireddate=5000 if not_expired else 500)
            assert verify_token_status(token, now) == oracle_status_reason(token, now)


class TestRuleMatch:
    def test_exact_match(self):
        assert match_access_rule(token_wire(), "GET", "/api/data") == RULE_GET

    def test_unmatched_action_returns_none(self):
        assert match_access_rule(token_wire(), "PUT", "/api/data") is None

    def test_resource_is_exact_string_equality(self):
        assert match_access_rule(token_wire(), "GET", "/api/data/") is None
        assert match_access_rule(token_wire(), "GET", "/api") is None

    def test_first_matching_rule_wins_in_list_order(self):
        token = token_wire(authorization=[RULE_POST, RULE_GET])
        assert match_access_rule(token, "GET", "/api/data") == RULE_GET

    def test_exhaustive_over_short_rule_lists(self):
        # all orderings of up to three rules drawn from {match, two mismatches}
        matching = RULE_GET
        mismatches = [RULE_POST, {"action": "GET", "resource": "/other",
                                  "conditions": []}]
        pool = [matching] + mismatches
        for n in range(4):
            for combo in itertools.product(pool, repeat=n):
                token = token_wire(authorization=list(combo))
                got = match_access_rule(token, "GET", "/api/data")
                expected = next((r for r in combo
                                 if r["action"] == "GET"
                                 and r["resource"] == "/api/data"), None)
                assert got == expected


NOON_MONDAY = 12 * 3600000          # virtual epoch day 0 is a Monday
WINDOW_9_17 = {"kind": "time_window", "start_ms": 9 * 3600000,
               "end_ms": 17 * 3600000}
WEEKDAYS = {"kind": "weekday", "days": [0, 1, 2, 3, 4]}
GROUND_1 = {"kind": "location_tag", "tag": "ground-station-1"}


class TestConditions:
    def test_empty_condition_list_ok(self):
        assert verify_conditions({"conditions": []}, now=0, location_tag="") is None

    def test_time_window_violation(self):
        rule = {"conditions": [WINDOW_9_17]}
        assert verify_conditions(rule, now=18 * 3600000, location_tag="") == "time_window"

    def test_time_window_wraps_by_day(self):
        assert condition_satisfied(WINDOW_9_17, now=3 * MS_PER_DAY + NOON_MONDAY,
                                   location_tag="")

    def test_weekday_and_location_conjunction(self):
        rule = {"conditions": [WEEKDAYS, GROUND_1]}
        assert verify_conditions(rule, now=NOON_MONDAY, location_tag="ground-station-1") is None
        assert verify_conditions(rule, now=NOON_MONDAY, location_tag="other") == "location_tag"

    def test_weekday_rollover(self):
        saturday_noon = 5 * MS_PER_DAY + NOON_MONDAY
        assert not condition_satisfied(WEEKDAYS, saturday_noon, "")
        assert condition_satisfied(WEEKDAYS, 7 * MS_PER_DAY + NOON_MONDAY, "")

    def test_conjunction_over_condition_powerset(self):
        # satisfied/violated variants of each kind, lists up to length 3
        context_now = NOON_MONDAY
        context_loc = "ground-station-1"
        satisfied = [WINDOW_9_17, WEEKDAYS, GROUND_1]
        violated = [
            {"kind": "time_window", "start_ms": 18 * 3600000, "end_ms": 19 * 3600000},
            {"kind": "weekday", "days": [5, 6]},
            {"kind": "location_tag", "tag": "elsewhere"},
        ]
        pool = satisfied + violated
        for n in range(4):
            for combo in itertools.product(pool, repeat=n):
                rule = {"conditions": list(combo)}
                failed = next((c["kind"] for c in combo if c not in satisfied), None)
                assert verify_conditions(rule, context_now, context_loc) == failed


class TestAuthorizePipeline:
    def test_fully_valid_request_grants_with_five_stages(self, bench):
        bench.issue_client_token()
        provider = provider_for(bench)
        decision, trace = provider.authorize(
            ServiceRequest(bench.client, "GET", "/api/data", now=100))
        assert decision.granted
        assert trace.recorded_stages() == PIPELINE_STAGES
        assert all(r.outcome == "pass" for r in trace.records)
        assert decision.stage is None

    def test_cross_zone_denial_records_only_first_stage(self, bench):
        bench.apply(bench.supervisor, "vzone", "create_vzone", ("zone-b",))
        bench.apply(bench.supervisor, "vzone", "join_vzone",
                    ("zone-b", bench.outsider.hex))
        provider = provider_for(bench)
        decision, trace = provider.authorize(
            ServiceRequest(bench.outsider, "GET", "/api/data", now=100))
        assert not decision.granted
        assert decision.stage == "identity_auth"
        assert decision.reason == "zone-mismatch"
        assert trace.recorded_stages() == ("identity_auth",)
        assert trace.records[-1].outcome == "fail"

    def test_revoked_token_denied_at_status_stage(self, bench):
        bench.issue_client_token()
        bench.apply(bench.master, "captoken", "revoke_token", (bench.client.hex,))
        provider = provider_for(bench)
        decision, trace = provider.authorize(
            ServiceRequest(bench.client, "GET", "/api/data", now=100))
        assert not decision.granted
        assert decision.stage == "token_status"
        assert decision.reason == "isValid"

    def test_absent_token_denied_at_fetch_stage(self, bench):
        provider = provider_for(bench)
        decision, trace = provider.authorize(
            ServiceRequest(bench.client, "GET", "/api/data", now=100))
        assert decision.stage == "token_fetch"
        assert decision.reason == "token-absent"
        assert trace.recorded_stages() == ("identity_auth", "token_fetch")

    def test_recorded_stages_are_always_a_pipeline_prefix(self, bench):
        bench.issue_client_token(rules=[RULE_GET], issue_date=0, expired_date=400)
        provider = provider_for(bench)
        for method, uri, now in [("GET", "/api/data", 100), ("PUT", "/api/data", 100),
                                 ("GET", "/api/data", 500), ("GET", "/other", 100)]:
            _, trace = provider.authorize(
                ServiceRequest(bench.client, method, uri, now=now))
            stages = trace.recorded_stages()
            assert stages == PIPELINE_STAGES[:len(stages)]

    def test_denial_wire_fields(self, bench):
        provider = provider_for(bench)
        decision, _ = provider.authorize(
            ServiceRequest(bench.outsider, "GET", "/api/data", now=5))
        wire = decision.denial_wire(bench.outsider)
        assert set(wire) == {"stage", "reason", "requester"}
        assert wire["requester"] == bench.outsider.hex

    def test_trace_totals_include_costs_and_transport(self, bench):
        bench.issue_client_token()
        costs = {"identity_auth": 152.0, "token_fetch_miss": 60.0,
                 "token_fetch_hit": 0.0, "token_status": 15.625,
                 "rule_match": 31.25, "condition_check": 15.625}
        provider = provider_for(bench, stage_costs=costs)
        transport = 10.0   # per request: the trace leaves it to the caller
        _, cold = provider.authorize(
            ServiceRequest(bench.client, "GET", "/api/data", now=100))
        assert cold.stage_ms == sum(r.duration_ms for r in cold.records)
        assert cold.stage_ms + transport == 152.0 + 60.0 + 62.5 + 10.0
        _, warm = provider.authorize(
            ServiceRequest(bench.client, "GET", "/api/data", now=200))
        assert warm.stage_ms + transport == 152.0 + 62.5 + 10.0
        assert warm.cache_hit is True
        assert not hasattr(warm, "transport_ms") and not hasattr(warm, "total_ms")

    def test_suspend_then_restore_round_trip(self, bench):
        bench.issue_client_token()
        provider = provider_for(bench)
        request = ServiceRequest(bench.client, "GET", "/api/data", now=100)
        assert provider.authorize(request)[0].granted
        bench.apply(bench.master, "captoken", "set_token_validity",
                    (bench.client.hex, False))
        provider.sync_cache()
        decision, _ = provider.authorize(request)
        assert not decision.granted and decision.reason == "isValid"
        bench.apply(bench.master, "captoken", "set_token_validity",
                    (bench.client.hex, True))
        provider.sync_cache()
        assert provider.authorize(request)[0].granted


class TestCacheSync:
    def test_no_changes_refreshes_nothing(self, bench):
        bench.issue_client_token()
        provider = provider_for(bench)
        provider.fetch_or_cache_token(bench.client)
        assert provider.sync_cache() == 0

    def test_revocation_propagates_at_sync(self, bench):
        bench.issue_client_token()
        provider = provider_for(bench)
        request = ServiceRequest(bench.client, "GET", "/api/data", now=100)
        assert provider.authorize(request)[0].granted
        granted = provider.cache.entries[bench.client]
        bench.apply(bench.master, "captoken", "revoke_token", (bench.client.hex,))
        # before the sync the revoked token is read from the contract, and not held
        decision, trace = provider.authorize(
            ServiceRequest(bench.client, "GET", "/api/data", now=150))
        assert not decision.granted and decision.stage == "token_status"
        assert trace.cache_hit is False
        assert provider.cache.entries == {bench.client: granted}
        assert provider.sync_cache() == 1
        assert provider.cache.entries[bench.client]["isValid"] is False
        decision, trace = provider.authorize(
            ServiceRequest(bench.client, "GET", "/api/data", now=250))
        assert not decision.granted and decision.stage == "token_status"
        assert trace.cache_hit is True

    def test_partial_refresh_counts_changed_entries(self, bench):
        subjects = bench.factory.new_addresses(5)
        for subject in subjects:
            bench.submit(bench.master, "vzone", "join_vzone",
                         (bench.zone_id, subject.hex))
        bench.chain.produce_next_block()
        for subject in subjects:
            bench.submit(bench.master, "captoken", "issue_token",
                         (subject.hex, [RULE_GET], 0, 10**12))
        bench.chain.produce_next_block()
        provider = provider_for(bench)
        for subject in subjects:
            provider.fetch_or_cache_token(subject)
        for subject in subjects[:3]:
            bench.submit(bench.master, "captoken", "issue_token",
                         (subject.hex, [RULE_POST], 0, 10**12))
        bench.chain.produce_next_block()
        assert provider.sync_cache() == 3

    def test_a_failed_fetch_keeps_entries_and_cursor(self, bench):
        bench.issue_client_token()
        provider = provider_for(bench)
        held, _ = provider.fetch_or_cache_token(bench.client)
        cursor = provider.cache.cursor
        bench.issue_client_token()   # a change the next sync refetches

        def broken_fetch(subject):
            raise ConnectionError("chain replica unavailable")

        assert provider.cache.sync(broken_fetch, 200, bench.chain.height) == 0
        assert provider.cache.entries == {bench.client: held}
        assert provider.cache.cursor == cursor
        # the entry kept is not served: the next request reads the new token
        token, hit = provider.fetch_or_cache_token(bench.client)
        assert token["id"] != held["id"] and hit is False
        assert provider.cache.entries == {bench.client: held}
        assert provider.sync_cache() == 1
        assert provider.cache.cursor == bench.chain.height
        assert provider.fetch_or_cache_token(bench.client) == (token, True)

    def test_sync_fetch_bug_propagates_instead_of_evicting(self, bench):
        bench.issue_client_token()
        other = bench.factory.new_address()
        bench.apply(bench.master, "vzone", "join_vzone", (bench.zone_id, other.hex))
        bench.apply(bench.master, "captoken", "issue_token", (other.hex, [RULE_GET], 0, 10**12))
        provider = provider_for(bench)
        held = {subject: provider.fetch_or_cache_token(subject)[0]
                for subject in (bench.client, other)}
        cursor = provider.cache.cursor
        for subject in (bench.client, other):   # both change
            bench.submit(bench.master, "captoken", "set_token_validity", (subject.hex, False))
        bench.chain.produce_next_block()
        fetched = []

        def buggy_fetch(subject):
            fetched.append(subject)
            if len(fetched) == 2:
                raise AttributeError("bug in fetch")
            return provider._fetch_token(subject)

        with pytest.raises(AttributeError):
            provider.cache.sync(buggy_fetch, 200, bench.chain.height)
        # the token fetched before the bug was not written either
        assert provider.cache.entries == held
        # the cursor stays, so the entries kept are not served
        assert provider.cache.cursor == cursor
        assert provider.fetch_or_cache_token(bench.client)[1] is False

    def test_a_feed_outage_serves_nothing_until_the_next_sync_completes(self, bench):
        bench.issue_client_token()
        provider = provider_for(bench)
        held, _ = provider.fetch_or_cache_token(bench.client)
        bench.chain.produce_next_block()
        feed = provider.cache.changes

        def unreachable(cursor):
            raise ConnectionError("chain replica unavailable")

        provider.cache.changes = unreachable
        assert provider.sync_cache() == 0
        assert provider.cache.entries == {bench.client: held}   # kept, not evicted
        assert provider.fetch_or_cache_token(bench.client) == (held, False)
        provider.cache.changes = feed
        assert provider.sync_cache() == 0
        assert provider.fetch_or_cache_token(bench.client) == (held, True)

    def test_cache_transparency_against_direct_query(self, bench):
        bench.issue_client_token()
        provider = provider_for(bench)
        direct = ServiceProvider(bench.provider, bench.chain)
        request = ServiceRequest(bench.client, "GET", "/api/data", now=100)
        provider.authorize(request)
        bench.apply(bench.master, "captoken", "revoke_access_rights",
                    (bench.client.hex, [RULE_GET]))
        provider.sync_cache()
        direct.cache.entries.clear()
        later = ServiceRequest(bench.client, "GET", "/api/data", now=250)
        assert provider.authorize(later)[0].granted \
            == direct.authorize(later)[0].granted


def fixed_feed(*results):
    """A change feed that answers (or raises) each of ``results`` in turn."""
    cursors = []

    def changes(cursor):
        cursors.append(cursor)
        result = results[len(cursors) - 1]
        if isinstance(result, Exception):
            raise result
        return result

    return changes, cursors


class ReadRecordingDict(dict):
    """A dict that records every read of its keys or entries."""

    def __init__(self, *args):
        super().__init__(*args)
        self.reads = []

    def get(self, key, default=None):
        self.reads.append(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.reads.append(key)
        return super().__getitem__(key)

    def __iter__(self):
        self.reads.append("iter")
        return super().__iter__()

    def values(self):
        self.reads.append("values")
        return super().values()

    def items(self):
        self.reads.append("items")
        return super().items()


class TestChangeFeed:
    def test_only_changed_entries_are_refetched(self, bench):
        a, b = bench.factory.new_addresses(2)
        changes, cursors = fixed_feed((3, [a]), (3, []))
        cache = TokenCache(changes, 0)
        cache.entries.update({a: token_wire(), b: token_wire()})
        fetched = []

        def fetch(subject):
            fetched.append(subject)
            return token_wire(is_valid=False)

        assert cache.sync(fetch, now=200, height=1) == 1
        assert cache.sync(fetch, now=300, height=2) == 0
        assert fetched == [a]
        assert cursors == [0, 3] and cache.cursor == 3
        assert cache.entries[a]["isValid"] is False
        assert cache.entries[b] == token_wire()

    def test_sync_with_no_changes_reads_no_entry(self, bench):
        a, b = bench.factory.new_addresses(2)
        changes, _ = fixed_feed((4, []))
        cache = TokenCache(changes, 0)
        cache.entries = entries = ReadRecordingDict({a: token_wire(), b: token_wire()})

        def fetch(subject):
            raise AssertionError("nothing changed, so nothing is fetched")

        assert cache.sync(fetch, now=200, height=1) == 0
        assert entries.reads == []
        assert cache.cursor == 4

    @pytest.mark.parametrize("error", [ConnectionError("chain replica unavailable"),
                                       ContractNotFoundError("unknown contract")])
    def test_unreachable_feed_keeps_entries_and_cursor(self, bench, error):
        changes, cursors = fixed_feed(error, (5, []))
        cache = TokenCache(changes, 0)
        cache.entries[bench.client] = token_wire()
        assert cache.sync(lambda subject: token_wire(), now=200, height=1) == 0
        assert cache.entries == {bench.client: token_wire()} and cache.cursor == 0
        cache.sync(lambda subject: token_wire(), now=300, height=2)
        assert cursors == [0, 0]   # the failed sync did not advance the cursor
        assert cache.cursor == 5 and cache.entries == {bench.client: token_wire()}

    def test_feed_bug_propagates_and_keeps_entries(self, bench):
        changes, cursors = fixed_feed(AttributeError("bug in feed"), (5, [bench.client]))
        cache = TokenCache(changes, 0)
        cache.entries[bench.client] = token_wire()
        with pytest.raises(AttributeError):
            cache.sync(lambda subject: token_wire(), now=200, height=1)
        assert cache.entries[bench.client] == token_wire() and cache.cursor == 0
        assert cache.sync(lambda subject: token_wire(is_valid=False), now=300, height=2) == 1
        assert cursors == [0, 0] and cache.cursor == 5

    def test_contract_reports_each_changed_subject_once(self, bench):
        a, b = bench.factory.new_addresses(2)
        for subject in (a, b):
            bench.submit(bench.master, "vzone", "join_vzone", (bench.zone_id, subject.hex))
        bench.chain.produce_next_block()
        for subject in (a, b, a):
            bench.submit(bench.master, "captoken", "issue_token",
                         (subject.hex, [RULE_GET], 0, 10**12))
        bench.submit(bench.outsider, "captoken", "revoke_token", (b.hex,))  # rejected
        bench.submit(bench.master, "captoken", "revoke_access_rights",
                     (b.hex, [RULE_POST]))                                # removes nothing
        bench.chain.produce_next_block()

        def feed(contract, height):
            latest, changed = bench.chain.changes_since(contract, height)
            assert set(changed.values()) <= {None}   # a dict of names, with no ranks
            return latest, set(changed)

        assert feed("captoken", 0) == feed("captoken", 2) == (3, {a, b})
        assert feed("captoken", 3) == feed("captoken", 4) == (3, set())
        bench.submit(bench.master, "captoken", "revoke_access_rights", (a.hex, [RULE_GET]))
        bench.submit(bench.master, "captoken", "set_token_validity", (b.hex, False))
        bench.submit(bench.master, "captoken", "revoke_token", (a.hex,))
        bench.chain.produce_next_block()
        assert feed("captoken", 3) == feed("captoken", 0) == (4, {a, b})
        # the zone feed: the setup block's zone and nodes, then the block that joined a, b
        assert feed("vzone", 1) == (4, {a, b}) and feed("vzone", 2) == (4, set())
        assert feed("vzone", 0) == (4, {a, b, bench.client, bench.provider, bench.master,
                                        bench.zone_id})
        assert bench.tokens.dump_state().keys() == {"supervisor", "next_id", "tokens"}
        # every reader at one cursor shares one answer until the next block seals
        assert bench.chain.changes_since("captoken", 3) is bench.chain.changes_since(
            "captoken", 3)
        with pytest.raises(ContractNotFoundError):
            bench.chain.changes_since("nonesuch", 0)


SUBJECTS = 3
TOKEN_OPS = ("issue_token", "revoke_access_rights", "revoke_token", "set_token_validity")


def token_op_args(op, subject, choice):
    rule = (RULE_GET, RULE_POST)[choice]
    if op == "issue_token":
        return (subject.hex, [rule], 0, 10**12)
    if op == "revoke_access_rights":
        return (subject.hex, [rule])
    if op == "revoke_token":
        return (subject.hex,)
    return (subject.hex, bool(choice))


subject_sets = st.sets(st.integers(0, SUBJECTS - 1))
sync_steps = st.lists(st.fixed_dictionaries({
    # (op, subject, rule or validity, sender); an outsider's op is rejected
    "ops": st.lists(st.tuples(st.sampled_from(TOKEN_OPS), st.integers(0, SUBJECTS - 1),
                              st.integers(0, 1),
                              st.sampled_from(("master", "supervisor", "outsider"))),
                    max_size=3),
    # "skip": the block is sealed without a sync; a set: those subjects' fetches fail
    "sync": st.one_of(st.sampled_from(("skip", "ok", "outage")), subject_sets),
    # requests after the sync read the cache, and fill it from the contract on a miss
    "requests": subject_sets,
}), min_size=1, max_size=8)


@settings(max_examples=300, deadline=None)
@given(steps=sync_steps)
def test_change_driven_sync_matches_full_refetch(steps):
    bench = Bench()
    subjects = [bench.client] + bench.factory.new_addresses(SUBJECTS - 1)
    for subject in subjects[1:]:
        bench.submit(bench.master, "vzone", "join_vzone", (bench.zone_id, subject.hex))
    bench.chain.produce_next_block()
    outage = []

    def changes(cursor):
        if outage:
            raise ConnectionError("chain replica unavailable")
        return bench.chain.changes_since("captoken", cursor)

    def fetch(subject):
        return bench.chain.query_state("captoken", "get_token", (subject,))

    # one provider serves from each cache
    providers = provider_for(bench), provider_for(bench)
    cache = providers[0].cache = TokenCache(changes, bench.chain.height)
    reference = providers[1].cache = FullRefetchTokenCache(changes, bench.chain.height)
    for step in steps:
        for op, index, choice, sender in step["ops"]:
            bench.submit(getattr(bench, sender), "captoken", op,
                         token_op_args(op, subjects[index], choice))
        now = bench.chain.produce_next_block().timestamp
        if step["sync"] != "skip":
            if step["sync"] == "outage":
                outage.append(True)
                failing = set(subjects)
            elif step["sync"] == "ok":
                failing = set()
            else:
                # an unchanged entry is not refetched, so only a changed one can fail
                _, changed = bench.chain.changes_since("captoken", cache.cursor)
                failing = {subjects[i] for i in step["sync"]} & set(changed)

            def flaky_fetch(subject):
                if subject in failing:
                    raise ConnectionError("chain replica unavailable")
                return fetch(subject)

            height, before = bench.chain.height, dict(cache.entries)
            assert cache.sync(flaky_fetch, now, height) == \
                reference.sync(flaky_fetch, now, height)
            outage.clear()
            if cache.cursor == height:   # completed: each held token is the confirmed one
                assert all(token == fetch(subject) for subject, token in cache.entries.items())
            else:   # failed: nothing was written
                assert cache.entries == before
        assert cache.entries == reference.entries and cache.cursor == reference.cursor
        held = dict(cache.entries)
        hits = []
        for index in sorted(step["requests"]):
            token, hit = providers[0].fetch_or_cache_token(subjects[index])
            assert (token, hit) == providers[1].fetch_or_cache_token(subjects[index])
            assert token == fetch(subjects[index])   # the confirmed token, served or read
            hits.append(hit)
        if cache.cursor != bench.chain.height:
            # a skipped or failed sync: every request read the contract, none was held
            assert not any(hits) and cache.entries == held
        assert cache.entries == reference.entries


cache_subjects = st.integers(0, SUBJECTS - 1)
cache_calls = st.lists(st.one_of(
    # a subject's token is held at a version, as a request on a miss holds it
    st.tuples(st.just("put"), cache_subjects, st.integers(0, 2)),
    # the chain's token of a subject changes to a version, or None: gone
    st.tuples(st.just("change"), cache_subjects, st.sampled_from((0, 1, 2, None))),
    # the feed works, is out ("outage") or has a bug (raises); a fetch of a
    # "failing" subject raises one error, an outage's (the sync returns 0) or a
    # bug's (it propagates), so the outcome does not hang on the fetch order
    st.tuples(st.just("sync"), st.sampled_from(("ok", "outage", "feed-bug")),
              st.sets(cache_subjects), st.sampled_from((ConnectionError, AttributeError))),
), max_size=30)


@settings(max_examples=400, deadline=None)
@given(calls=cache_calls)
# a fetch fails after another entry's token was fetched: neither entry is written
# and the cursor does not move, whether the failure is an outage or a bug
@example(calls=[("put", 0, 0), ("put", 1, 0), ("change", 0, 1), ("change", 1, 1),
                ("sync", "ok", {1}, ConnectionError), ("sync", "ok", {0}, AttributeError),
                ("sync", "ok", set(), ConnectionError)])
# more changed subjects than held entries, so the sync walks the entries
@example(calls=[("put", 1, 0), ("put", 0, 0), ("change", 1, 1), ("change", 2, 1),
                ("change", 0, None), ("sync", "ok", {2}, AttributeError),
                ("sync", "ok", {1}, AttributeError), ("sync", "ok", set(), AttributeError)])
def test_walk_the_fewer_sync_matches_walking_every_change(calls):
    versions = dict.fromkeys(range(SUBJECTS), 0)
    log = []          # the subjects in change order; a change number is an index + 1
    sync = {}

    def changes(cursor):
        if sync["feed"] == "outage":
            raise ConnectionError("chain replica unavailable")
        if sync["feed"] == "feed-bug":
            raise AttributeError("bug in feed")
        return len(log), dict.fromkeys(log[cursor:])

    def fetch(subject):
        if subject in sync["failing"]:
            raise sync["error"]("fetch failed")
        version = versions[subject]
        return None if version is None else {"subject": subject, "version": version}

    cache = TokenCache(changes, 0)
    reference = ReferenceTokenCache(changes, 0)
    for call in calls:
        if call[0] == "put":
            _, subject, version = call
            for each in (cache, reference):
                each.entries[subject] = {"subject": subject, "version": version}
        elif call[0] == "change":
            _, subject, versions[subject] = call
            log.append(subject)
        else:
            _, sync["feed"], sync["failing"], sync["error"] = call
            outcomes = []
            for each in (cache, reference):
                before = dict(each.entries), each.cursor
                try:
                    outcomes.append(each.sync(fetch, 0, 0))
                except AttributeError as exc:
                    outcomes.append(str(exc))
                if each.cursor != len(log):   # a sync that did not complete changed nothing
                    assert (each.entries, each.cursor) == before
            assert outcomes[0] == outcomes[1]
        assert cache.entries == reference.entries
        assert cache.cursor == reference.cursor


class TestEndToEndOracle:
    def test_pipeline_agrees_with_bruteforce_oracle_on_crafted_tokens(self, bench):
        provider = provider_for(bench)
        provider_rec = ("zone-a", 2)
        requester_rec = ("zone-a", 2)
        zone_master = bench.master.hex
        now = NOON_MONDAY
        token_variants = [None] + [
            token_wire(initialized=i, is_valid=v,
                       issuedate=0 if d else now + 10,
                       expireddate=now + 1000 if e else now - 10,
                       authorization=[RULE_GET], vid=bench.client.hex)
            for i, v, d, e in itertools.product((True, False), repeat=4)]
        for token in token_variants:
            provider.cache.entries.clear()
            if token is not None:
                provider.cache.entries[bench.client] = token
            decision, trace = provider.authorize(
                ServiceRequest(bench.client, "GET", "/api/data", now=now))
            outcome, stage, stages = oracle_authorize(
                provider_rec, requester_rec, zone_master, token,
                "GET", "/api/data", now, "")
            assert ("grant" if decision.granted else "deny") == outcome
            assert decision.stage == stage
            assert trace.recorded_stages() == stages


def test_stage_trace_csv_columns(bench):
    bench.issue_client_token()
    provider = provider_for(bench)
    _, trace = provider.authorize(
        ServiceRequest(bench.client, "GET", "/api/data", now=100))
    measurement = Measurement(1, 100.0, "client", "provider", "GET", "/api/data",
                              "grant", None, None, trace.cache_hit, 1,
                              trace.stage_ms, trace)
    out = io.StringIO()
    write_stage_traces_csv([measurement], out)
    lines = out.getvalue().splitlines()
    assert lines[0] == "request_id,stage,outcome,duration_ms"
    assert len(lines) == 1 + len(PIPELINE_STAGES)
    assert lines[1].startswith("1,identity_auth,pass,")


# -- shared stage records against a fresh record per stage ---------------------

cost_values = st.sampled_from([0, 0.0, -0.0, 1, 2.5, 15.625]) \
    | st.floats(min_value=0, max_value=1e6, allow_nan=False)
stage_costs = st.dictionaries(st.sampled_from(sorted(COST_KEYS)), cost_values)
pipeline_requests = st.tuples(
    st.sampled_from(["client", "outsider", "provider"]),
    st.sampled_from(["GET", "PUT"]), st.sampled_from(["/api/data", "/other"]),
    st.sampled_from([100, 2500, 30_000, NOON_MONDAY]), st.sampled_from(["", "orbit"]),
    st.booleans())   # sync the caches before the request
token_rules = st.lists(st.sampled_from([
    RULE_GET, RULE_POST,
    {"action": "PUT", "resource": "/api/data",
     "conditions": [{"kind": "location_tag", "tag": "orbit"}]},
    {"action": "GET", "resource": "/api/data",
     "conditions": [{"kind": "time_window", "start_ms": 0, "end_ms": 3000}]},
]), max_size=3)


# -- identity held per block against fresh reads per request --------------------

SERVING = ("provider", "client", "outsider")
IDENTITY_NODES = ("master", "provider", "client", "outsider", "stranger")
ZONE_OPS = ("join_vzone", "leave_vzone", "create_vzone", "revoke_vzone")
identity_steps = st.lists(st.one_of(
    # a zone op by the supervisor or zone-a's master; create and revoke read no node
    st.tuples(st.just("op"), st.sampled_from(ZONE_OPS), st.sampled_from(["zone-a", "zone-b"]),
              st.sampled_from(IDENTITY_NODES), st.sampled_from(["supervisor", "master"])),
    # seal the pool; True: every provider syncs after it, False: none does, as a
    # library caller that produces a block without a sync leaves them
    st.tuples(st.just("block"), st.booleans()),
    st.tuples(st.just("sync"), st.sampled_from(SERVING)),
    # a request by every node to every provider
    st.tuples(st.just("requests"), st.sampled_from(["GET", "PUT"])),
), max_size=30)


class TestAuthorizeMatchesReference:
    @settings(max_examples=100, deadline=None)
    @given(costs=stage_costs, rules=st.none() | token_rules,
           expires=st.sampled_from([2000, 10**12]), requests=st.lists(pipeline_requests,
                                                                      max_size=6),
           serving=st.sampled_from(["provider", "outsider"]), zone_b=st.booleans(),
           revoked=st.booleans())
    # in stage order the grant path sums to 0.6000000000000001, in reverse to 0.6
    @example(costs={"identity_auth": 0.1, "token_fetch_miss": 0.2, "token_status": 0.3},
             rules=[RULE_GET], expires=10**12,
             requests=[("client", "GET", "/api/data", 100, "", False)],
             serving="provider", zone_b=False, revoked=False)
    def test_shared_records_equal_fresh_records(self, costs, rules, expires, requests,
                                                serving, zone_b, revoked):
        """``serving`` is the node that serves; the outsider is no member unless
        ``zone_b`` puts it in a zone of its own, and ``revoked`` revokes zone-a."""
        bench = Bench()
        if rules is not None:
            bench.issue_client_token(rules=rules, expired_date=expires)
        if zone_b:
            bench.apply(bench.supervisor, "vzone", "create_vzone", ("zone-b",))
            bench.apply(bench.supervisor, "vzone", "join_vzone", ("zone-b", bench.outsider.hex))
        if revoked:
            bench.apply(bench.master, "vzone", "revoke_vzone", (bench.zone_id,))
        node = getattr(bench, serving)
        provider = ServiceProvider(node, bench.chain, stage_costs=costs)
        reference = ServiceProvider(node, bench.chain, stage_costs=costs)
        queries, provider_queries, reference_queries = count_queries(bench.chain), 0, 0
        for who, method, uri, now, location, sync in requests:
            if sync:
                assert provider.sync_cache() == reference.sync_cache()
            request = ServiceRequest(getattr(bench, who), method, uri, now=now,
                                     location_tag=location)
            before = queries[0]
            got = provider.authorize(request)
            provider_queries += queries[0] - before
            before = queries[0]
            expected = reference_authorize(reference, costs, request)
            reference_queries += queries[0] - before
            # repr tells -0.0 from 0.0 and 0 from 0.0
            assert repr(got) == repr(expected)
            assert repr(got[1].stage_ms) == repr(
                sum(record.duration_ms for record in expected[1].records))
        assert provider_queries <= reference_queries

    @settings(max_examples=300, deadline=None)
    @given(steps=identity_steps)
    # a follower leaves in a block no provider syncs after, then one syncs
    @example(steps=[("requests", "GET"),
                    ("op", "leave_vzone", "zone-a", "client", "master"), ("block", False),
                    ("requests", "GET"), ("sync", "provider"), ("requests", "GET")])
    # a node no zone held joins one in a synced block
    @example(steps=[("requests", "GET"),
                    ("op", "join_vzone", "zone-a", "stranger", "supervisor"), ("block", True),
                    ("requests", "GET")])
    # the zone is revoked and its master creates it again, each in a synced block
    # and then in blocks no provider syncs after
    @example(steps=[("requests", "GET"),
                    ("op", "revoke_vzone", "zone-a", "client", "master"), ("block", True),
                    ("requests", "GET"),
                    ("op", "create_vzone", "zone-a", "master", "master"), ("block", True),
                    ("requests", "GET"),
                    ("op", "revoke_vzone", "zone-a", "client", "master"), ("block", False),
                    ("requests", "GET"),
                    ("op", "create_vzone", "zone-a", "master", "master"), ("block", False),
                    ("requests", "GET")])
    # blocks that change only another zone
    @example(steps=[("requests", "GET"),
                    ("op", "create_vzone", "zone-b", "master", "supervisor"), ("block", True),
                    ("requests", "GET"),
                    ("op", "join_vzone", "zone-b", "stranger", "supervisor"), ("block", True),
                    ("requests", "GET")])
    # the provider leaves its zone in a block no provider syncs after
    @example(steps=[("requests", "GET"),
                    ("op", "leave_vzone", "zone-a", "provider", "master"), ("block", False),
                    ("requests", "GET")])
    # the provider leaves its zone and rejoins it, each in a synced block
    @example(steps=[("requests", "GET"),
                    ("op", "leave_vzone", "zone-a", "provider", "master"), ("block", True),
                    ("requests", "GET"),
                    ("op", "join_vzone", "zone-a", "provider", "master"), ("block", True),
                    ("requests", "GET")])
    def test_held_identity_equals_fresh_reads(self, steps):
        """Zone ops, blocks with and without the syncs after them, and requests:
        each authentication and decision equals the reference's, which reads the
        requester's record and the zone per request, and makes no more contract
        queries. After each sync every zone record held equals the contract's
        view of its key, as for a provider that drops them all at every sync."""
        bench = Bench()
        stranger = bench.factory.new_address()
        for node in ("client", "provider"):
            bench.submit(bench.master, "captoken", "issue_token",
                         (getattr(bench, node).hex, [RULE_GET], 0, 10**12))
        bench.chain.produce_next_block()
        providers = {node: (ServiceProvider(getattr(bench, node), bench.chain),
                            RereadingIdentityProvider(getattr(bench, node), bench.chain))
                     for node in SERVING}
        query = bench.chain.query_state
        queries = count_queries(bench.chain)

        def counted(call, *args):
            before = queries[0]
            return call(*args), queries[0] - before

        def sync(node):
            held, fresh = providers[node]
            assert held.sync_cache() == fresh.sync_cache()
            for key, record in held.zone_records.items():
                op = "get_vnode" if isinstance(key, Address) else "get_vzone"
                assert record == query("vzone", op, (key,))

        now = bench.chain.latest_block.timestamp
        for step in steps:
            if step[0] == "op":
                _, op, zone, node, sender = step
                node = stranger if node == "stranger" else getattr(bench, node)
                args = (zone,) if op in ("create_vzone", "revoke_vzone") else (zone, node.hex)
                bench.submit(getattr(bench, sender), "vzone", op, args)
            elif step[0] == "block":
                now = bench.chain.produce_next_block().timestamp
                if step[1]:
                    for node in SERVING:
                        sync(node)
            elif step[0] == "sync":
                sync(step[1])
            else:
                for node, who in itertools.product(SERVING, IDENTITY_NODES):
                    held, fresh = providers[node]
                    requester = stranger if who == "stranger" else getattr(bench, who)
                    reason, held_queries = counted(held.authenticate, requester)
                    expected, fresh_queries = counted(reference_authenticate, fresh, requester)
                    assert reason == expected and held_queries <= fresh_queries
                    request = ServiceRequest(requester, step[1], "/api/data", now=now + 1)
                    got, held_queries = counted(held.authorize, request)
                    expected, fresh_queries = counted(reference_authorize, fresh, {}, request)
                    assert repr(got) == repr(expected) and held_queries <= fresh_queries

    def test_records_and_decisions_are_shared_between_requests(self, bench):
        bench.issue_client_token()
        provider = provider_for(bench)
        request = ServiceRequest(bench.client, "PUT", "/api/data", now=100)
        (first, cold), (second, warm) = provider.authorize(request), provider.authorize(request)
        # the miss and hit paths each share one pair; their decisions are equal
        assert first == second and first.reason == "no-matching-rule"
        assert cold.records[0] is warm.records[0]
        assert [r.stage for r in cold.records] == [r.stage for r in warm.records]
        assert cold.records[1] is not warm.records[1]   # fetch priced by miss, then hit
        # two requests on one path get the very same pair; hit and miss paths do not
        assert cold is not warm and (cold.cache_hit, warm.cache_hit) == (False, True)
        later, third = provider.authorize(
            ServiceRequest(bench.client, "PUT", "/api/data", now=300))
        assert later is second and third is warm
        grant = provider.authorize(ServiceRequest(bench.client, "GET", "/api/data", now=100))
        again = provider.authorize(ServiceRequest(bench.client, "GET", "/api/data", now=200))
        assert grant[0].granted and grant[0] is again[0] and grant[1] is again[1]
        provider.cache.entries.clear()
        cold_grant = provider.authorize(
            ServiceRequest(bench.client, "GET", "/api/data", now=250))
        assert cold_grant[0] is grant[0] and cold_grant[1] is not grant[1]
        assert cold_grant[1].cache_hit is False and grant[1].cache_hit is True
        assert provider.authorize(
            ServiceRequest(bench.client, "GET", "/api/data", now=260))[1] is grant[1]
