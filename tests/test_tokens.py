import copy
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capchain.encoding import canonical_json
from capchain.ledger import ContractRejection
from capchain.tokens import (RULE_ERRORS, CapabilityToken, TokenContract, _action_value,
                             _condition_kind_value, rule_wire)

from chainbench import Bench
from reference_models import (Action, ChangeLogTokenContract, ConditionKind,
                              RecencyIndexTokenContract, ReferenceAccessRule,
                              ReferenceCapabilityToken, ReferenceTokenContract)

RULE_GET = {"action": "GET", "resource": "/api/data", "conditions": []}
RULE_POST = {"action": "POST", "resource": "/api/upload", "conditions": []}


def rule_with(**fields):
    return dict(RULE_GET, **fields)


# rules the reader once accepted and misread; each is now not a rule
MISREAD_RULES = {
    "numeric-tag": rule_with(conditions=[{"kind": "location_tag", "tag": 5}]),
    "list-tag": rule_with(conditions=[{"kind": "location_tag", "tag": ["lab"]}]),
    "float-day": rule_with(conditions=[{"kind": "weekday", "days": [1.0]}]),
    "bool-day": rule_with(conditions=[{"kind": "weekday", "days": [True]}]),
    "bool-start": rule_with(conditions=[{"kind": "time_window", "start_ms": True,
                                         "end_ms": 5}]),
    "bool-end": rule_with(conditions=[{"kind": "time_window", "start_ms": 0,
                                       "end_ms": True}]),
    "string-conditions": rule_with(conditions=""),
    "object-conditions": rule_with(conditions={}),
}


class TestWireFormats:
    def test_condition_validation(self):
        for condition, message in [
            ({"kind": "time_window", "start_ms": 5, "end_ms": 5},
             "time_window requires numbers start_ms < end_ms"),
            ({"kind": "weekday", "days": []}, "weekday requires a nonempty set of int days 0..6"),
            ({"kind": "weekday", "days": [7]}, "weekday requires a nonempty set of int days 0..6"),
            ({"kind": "location_tag", "tag": ""}, "location_tag requires a nonempty string tag"),
            ({"kind": "altitude"}, "'altitude' is not a valid ConditionKind"),
        ]:
            with pytest.raises(ValueError) as raised:
                rule_wire(rule_with(conditions=[condition]))
            assert str(raised.value) == message

    def test_rule_validation(self):
        for resource in ("api/data", ""):
            with pytest.raises(ValueError) as raised:
                rule_wire(rule_with(resource=resource))
            assert str(raised.value) == "resource must be a nonempty path starting with '/'"
        # a bad condition is reported before a bad resource
        with pytest.raises(ValueError) as raised:
            rule_wire(rule_with(resource="", conditions=[{"kind": "weekday", "days": []}]))
        assert str(raised.value) == "weekday requires a nonempty set of int days 0..6"

    def test_rule_round_trip(self):
        rule = rule_with(conditions=[
            {"kind": "time_window", "start_ms": 9 * 3600000, "end_ms": 17 * 3600000},
            {"kind": "weekday", "days": [4, 0, 1, 2, 3]},
            {"kind": "location_tag", "tag": "ground-station-1"},
        ])
        wire = rule_wire(rule)
        assert wire["conditions"][1]["days"] == [0, 1, 2, 3, 4]
        assert rule_wire(wire) == wire
        assert rule_wire(json.loads(canonical_json(wire))) == wire

    @pytest.mark.parametrize("enum,decode", [(Action, _action_value),
                                             (ConditionKind, _condition_kind_value)])
    @settings(max_examples=200, deadline=None)
    @given(value=st.one_of(
        st.sampled_from([*Action, *ConditionKind, *(m.value for m in Action),
                         *(m.value for m in ConditionKind), "FLY", "get", "", "GET "]),
        st.text(max_size=12), st.integers(), st.floats(), st.booleans(), st.none(),
        st.lists(st.sampled_from(["GET", "weekday", 1]), max_size=2),
        st.tuples(st.sampled_from(["GET", "weekday", 1])),
        st.dictionaries(st.sampled_from(["GET", "kind"]), st.integers(), max_size=2)))
    def test_enum_tables_decode_as_the_enum_call(self, enum, decode, value):
        try:
            expected = enum(value)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                decode(value)
            # the Enum's text, but a list, tuple or dict is shown by its type, whose
            # text no nesting depth can overflow
            shown = f"<{type(value).__name__}>" if isinstance(value, (list, tuple, dict)) \
                else repr(value)
            assert str(raised.value) == str(exc).replace(repr(value), shown, 1)
        else:
            assert decode(value) is expected.value

    def test_token_wire_field_names(self, bench):
        bench.issue_client_token(rules=[RULE_GET])
        token = bench.tokens.get_token(bench.client)
        assert set(token) == {"vid", "VZone_master", "id", "initialized", "isValid",
                              "issuedate", "expireddate", "authorization"}
        assert set(token["authorization"][0]) == {"action", "resource", "conditions"}

    def test_token_round_trip_is_byte_stable(self, bench):
        rules = [{"action": "GET", "resource": "/api/data",
                  "conditions": [{"kind": "weekday", "days": [0, 4]}]},
                 RULE_POST]
        bench.issue_client_token(rules=rules)
        wire = bench.tokens.get_token(bench.client)
        text = canonical_json(wire)
        token = CapabilityToken.from_wire(json.loads(text))
        assert canonical_json(token.wire()) == text
        # canonical form has sorted keys and no insignificant whitespace
        assert text == canonical_json(json.loads(text))
        assert ": " not in text and ", " not in text


class TestIssue:
    def test_master_issues_single_rule_token(self, bench):
        receipt = bench.issue_client_token(rules=[RULE_GET])
        assert receipt.ok and receipt.result == 1
        token = bench.tokens.get_token(bench.client)
        assert token["isValid"] is True
        assert token["initialized"] is True
        assert token["VZone_master"] == bench.master.hex

    def test_follower_cannot_issue(self, bench):
        receipt = bench.apply(bench.provider, "captoken", "issue_token",
                              (bench.client.hex, [RULE_GET], 0, 10**9))
        assert receipt.status == "rejected"
        assert receipt.error == "unauthorized"

    def test_ids_are_monotone_across_subjects(self, bench):
        first = bench.apply(bench.master, "captoken", "issue_token",
                            (bench.client.hex, [RULE_GET], 0, 10**9))
        second = bench.apply(bench.master, "captoken", "issue_token",
                             (bench.provider.hex, [RULE_GET], 0, 10**9))
        assert (first.result, second.result) == (1, 2)

    def test_reissuance_replaces_rules_with_fresh_id(self, bench):
        bench.issue_client_token(rules=[RULE_GET, RULE_POST])
        receipt = bench.issue_client_token(rules=[RULE_POST], issue_date=5,
                                           expired_date=99)
        assert receipt.result == 2
        token = bench.tokens.get_token(bench.client)
        assert token["id"] == 2
        assert token["issuedate"] == 5
        assert [r["action"] for r in token["authorization"]] == ["POST"]

    def test_subject_outside_zone_rejected_distinctly(self, bench):
        receipt = bench.apply(bench.master, "captoken", "issue_token",
                              (bench.outsider.hex, [RULE_GET], 0, 10**9))
        assert receipt.status == "rejected"
        assert receipt.error == "subject-not-in-zone"

    def test_subject_in_foreign_zone_rejected_for_master(self, bench):
        bench.apply(bench.supervisor, "vzone", "create_vzone", ("zone-b",))
        bench.apply(bench.supervisor, "vzone", "join_vzone",
                    ("zone-b", bench.outsider.hex))
        receipt = bench.apply(bench.master, "captoken", "issue_token",
                              (bench.outsider.hex, [RULE_GET], 0, 10**9))
        assert receipt.status == "rejected"
        assert receipt.error == "subject-not-in-zone"

    def test_supervisor_issues_to_any_zone_member(self, bench):
        receipt = bench.apply(bench.supervisor, "captoken", "issue_token",
                              (bench.client.hex, [RULE_GET], 0, 10**9))
        assert receipt.ok
        token = bench.tokens.get_token(bench.client)
        assert token["VZone_master"] == bench.master.hex

    def test_inverted_dates_rejected(self, bench):
        receipt = bench.apply(bench.master, "captoken", "issue_token",
                              (bench.client.hex, [RULE_GET], 100, 50))
        assert receipt.status == "rejected"
        assert receipt.error == "invalid-dates"

    @pytest.mark.parametrize("name", sorted(MISREAD_RULES))
    def test_misread_rule_rejected(self, bench, name):
        for read in (rule_wire, ReferenceAccessRule.from_wire):
            with pytest.raises((TypeError, ValueError)):
                read(MISREAD_RULES[name])
        receipt = bench.apply(bench.master, "captoken", "issue_token",
                              (bench.client.hex, [MISREAD_RULES[name]], 0, 10**9))
        assert (receipt.status, receipt.error) == ("rejected", "invalid-rule")

    def test_malformed_rule_rejected(self, bench):
        receipt = bench.apply(bench.master, "captoken", "issue_token",
                              (bench.client.hex,
                               [{"action": "GET", "resource": "no-slash",
                                 "conditions": []}], 0, 10**9))
        assert receipt.status == "rejected"
        assert receipt.error == "invalid-rule"


class TestGetToken:
    def test_absent_for_never_issued(self, bench):
        assert bench.tokens.get_token(bench.outsider) is None

    def test_initialized_after_confirmed_issue(self, bench):
        bench.issue_client_token()
        assert bench.tokens.get_token(bench.client)["initialized"] is True

    def test_present_with_empty_rules_after_full_revocation(self, bench):
        bench.issue_client_token(rules=[RULE_GET, RULE_POST])
        bench.apply(bench.master, "captoken", "revoke_token", (bench.client.hex,))
        token = bench.tokens.get_token(bench.client)
        assert token is not None
        assert token["authorization"] == []
        assert token["isValid"] is False


class TestPartialRevocation:
    def test_removes_exact_match_only(self, bench):
        bench.issue_client_token(rules=[RULE_GET, RULE_POST])
        receipt = bench.apply(bench.master, "captoken", "revoke_access_rights",
                              (bench.client.hex, [RULE_GET]))
        assert receipt.result is True
        token = bench.tokens.get_token(bench.client)
        assert [r["resource"] for r in token["authorization"]] == ["/api/upload"]

    def test_absent_rule_returns_false_without_change(self, bench):
        bench.issue_client_token(rules=[RULE_POST])
        before = canonical_json(bench.tokens.get_token(bench.client))
        receipt = bench.apply(bench.master, "captoken", "revoke_access_rights",
                              (bench.client.hex, [RULE_GET]))
        assert receipt.result is False
        assert canonical_json(bench.tokens.get_token(bench.client)) == before

    def test_follower_revocation_unauthorized(self, bench):
        bench.issue_client_token()
        receipt = bench.apply(bench.provider, "captoken", "revoke_access_rights",
                              (bench.client.hex, [RULE_GET]))
        assert receipt.status == "rejected"
        assert receipt.error == "unauthorized"

    def test_frame_condition_other_fields_untouched(self, bench):
        # field-level diff: everything except the rule list is preserved
        rules = [RULE_GET, RULE_POST]
        bench.issue_client_token(rules=rules, issue_date=7, expired_date=777)
        before = bench.tokens.get_token(bench.client)
        bench.apply(bench.master, "captoken", "revoke_access_rights",
                    (bench.client.hex, [RULE_POST]))
        after = bench.tokens.get_token(bench.client)
        for key in ("vid", "VZone_master", "id", "initialized", "isValid",
                    "issuedate", "expireddate"):
            assert after[key] == before[key]
        assert after["authorization"] == [r for r in before["authorization"]
                                          if r["resource"] != "/api/upload"]


class TestFullRevocationAndValidity:
    def test_revoke_absent_token_false(self, bench):
        receipt = bench.apply(bench.master, "captoken", "revoke_token",
                              (bench.outsider.hex,))
        assert receipt.result is False

    def test_supervisor_revokes_any_token(self, bench):
        bench.issue_client_token()
        receipt = bench.apply(bench.supervisor, "captoken", "revoke_token",
                              (bench.client.hex,))
        assert receipt.result is True

    def test_validity_set_on_absent_token_false(self, bench):
        receipt = bench.apply(bench.master, "captoken", "set_token_validity",
                              (bench.outsider.hex, False))
        assert receipt.result is False

    def test_non_issuer_master_cannot_flip_validity(self, bench):
        bench.issue_client_token()
        other_master = bench.factory.new_address()
        bench.apply(bench.supervisor, "vzone", "set_master_allowlist",
                    (other_master.hex, True))
        bench.apply(other_master, "vzone", "create_vzone", ("zone-b",))
        receipt = bench.apply(other_master, "captoken", "set_token_validity",
                              (bench.client.hex, False))
        assert receipt.status == "rejected"
        assert receipt.error == "unauthorized"

    def test_suspend_and_restore_flags(self, bench):
        bench.issue_client_token()
        bench.apply(bench.master, "captoken", "set_token_validity",
                    (bench.client.hex, False))
        assert bench.tokens.get_token(bench.client)["isValid"] is False
        assert bench.tokens.get_token(bench.client)["authorization"] != []
        bench.apply(bench.master, "captoken", "set_token_validity",
                    (bench.client.hex, True))
        assert bench.tokens.get_token(bench.client)["isValid"] is True


class TestRegistryInvariants:
    def test_one_token_per_subject(self, bench):
        bench.issue_client_token(rules=[RULE_GET])
        bench.issue_client_token(rules=[RULE_POST])
        dump = bench.tokens.dump_state()
        assert list(dump["tokens"]) == [bench.client.hex]

    def test_ids_never_reused_after_replacement(self, bench):
        seen = set()
        for _ in range(4):
            receipt = bench.issue_client_token()
            assert receipt.result not in seen
            seen.add(receipt.result)
        assert seen == {1, 2, 3, 4}

    def test_unknown_op_rejected(self, bench):
        with pytest.raises(ContractRejection):
            bench.tokens.execute(bench.master, "transfer_token", ())


# rule bodies: mostly rules, with every field also given a value of the wrong
# kind or left out, unknown keys, and weekday days unsorted or repeated
ACTIONS = [action.value for action in Action]
numbers = st.sampled_from([0, 1, 5, 1.5, -1, 9 * 3_600_000, math.nan, math.inf, True,
                           False, "0", None])
days = st.lists(st.integers(0, 6), min_size=1, max_size=7) \
    | st.lists(st.sampled_from([0, 3, 6, 7, -1, 1.0, True, False, "1"]), max_size=4) \
    | st.sampled_from(["12", 3, None, {0: "x"}])
good_conditions = st.one_of(
    st.builds(lambda start, length: {"kind": "time_window", "start_ms": start,
                                     "end_ms": start + length},
              st.integers(0, 86_400_000), st.integers(1, 86_400_000)),
    st.builds(lambda days: {"kind": "weekday", "days": days},
              st.lists(st.integers(0, 6), min_size=1, max_size=9)),
    st.builds(lambda tag: {"kind": "location_tag", "tag": tag}, st.text(min_size=1, max_size=4)))
any_conditions = st.fixed_dictionaries({}, optional={
    "kind": st.sampled_from(["time_window", "weekday", "location_tag", "nope", 1, None,
                             ["weekday"]]),
    "start_ms": numbers, "end_ms": numbers, "days": days,
    "tag": st.sampled_from(["lab", "", 5, ["lab"], None])}) \
    | st.sampled_from([[], "weekday", 3, None])
extra_keys = st.dictionaries(st.sampled_from(["note", "kind2", "id"]), st.integers(), max_size=2)
conditions = (good_conditions | any_conditions).flatmap(
    lambda c: extra_keys.map(lambda extra: {**extra, **c}) if isinstance(c, dict) else st.just(c))
good_rules = st.builds(
    lambda action, resource, conds: {"action": action, "resource": resource, "conditions": conds},
    st.sampled_from(ACTIONS),
    st.sampled_from(["/api/data", "/api/upload", "/"]),
    st.lists(good_conditions, max_size=3))
any_rules = st.fixed_dictionaries({}, optional={
    "action": st.sampled_from([*ACTIONS, "FLY", "get", "", 1, None, True, ["GET"],
                               {"GET": 1}]),
    "resource": st.sampled_from(["/api/data", "/", "api/data", "", 7, 0, None, ["/x"]]),
    "conditions": st.lists(conditions, max_size=3) | st.sampled_from(["", {}, 7, None])}) \
    | st.sampled_from([[], "GET", 3, None, *MISREAD_RULES.values()])
rules = (good_rules | any_rules).flatmap(
    lambda r: extra_keys.map(lambda extra: {**extra, **r}) if isinstance(r, dict) else st.just(r))

# token bodies: the rules above in tokens with good or bad addresses, up to two keys left out
TOKEN_KEYS = ("vid", "VZone_master", "id", "initialized", "isValid", "issuedate",
              "expireddate", "authorization")
addresses = st.sampled_from(["0x" + "11" * 20, "0X" + "ab" * 20]) \
    | st.sampled_from(["0x12", "0x" + "zz" * 20, "", 5, None, ["0x"]])
tokens = st.fixed_dictionaries({
    "vid": addresses, "VZone_master": addresses, "id": st.integers(1, 9),
    "initialized": st.booleans(), "isValid": st.booleans(),
    "issuedate": st.integers(0, 9), "expireddate": st.integers(0, 9),
    "authorization": st.lists(rules, max_size=3) | st.sampled_from(["", "GET", 5, None, {}]),
}).flatmap(lambda body: st.sets(st.sampled_from(TOKEN_KEYS), max_size=2).map(
    lambda missing: {key: value for key, value in body.items() if key not in missing}))


def read(reader, body):
    """The rule a reader returns as its repr (which tells 1 from 1.0 and True),
    or the type and message of the exception it raises."""
    try:
        return repr(reader(body))
    except Exception as exc:
        return type(exc), str(exc)


def containers(value):
    """The ids of every dict and list in ``value``, itself included."""
    if isinstance(value, (dict, list)):
        yield id(value)
        for item in value.values() if isinstance(value, dict) else value:
            yield from containers(item)


def conditions_as(kind, body):
    """``body`` with its conditions, if a list or a tuple, as a ``kind``. A library
    caller may submit a tuple, which ``rule_wire`` accepts and replay decodes as
    a list."""
    if isinstance(body, dict) and isinstance(body.get("conditions"), (list, tuple)):
        return {**body, "conditions": kind(body["conditions"])}
    return body


class TestRuleWireMatchesReference:
    @settings(max_examples=500, deadline=None)
    @given(body=rules | rules.map(lambda body: conditions_as(tuple, body)))
    # conditions absent, empty as a list and as a tuple
    @example(body={"action": "GET", "resource": "/api/data"})
    @example(body={"action": "GET", "resource": "/api/data", "conditions": []})
    @example(body={"action": "PUT", "resource": "/", "conditions": ()})
    # no action, and actions that are not names: each is not a rule
    @example(body={"resource": "/api/data", "conditions": []})
    @example(body={"action": None, "resource": "/api/data", "conditions": []})
    @example(body={"action": True, "resource": "/api/data", "conditions": []})
    @example(body={"action": ["GET"], "resource": "/api/data", "conditions": []})
    @example(body={"action": {"GET": 1}, "resource": "/api/data", "conditions": []})
    def test_rule_wire_reads_what_the_typed_rule_read(self, body):
        expected = read(lambda b: ReferenceAccessRule.from_wire(conditions_as(list, b)).wire(),
                        body)
        assert read(rule_wire, body) == expected
        if isinstance(expected, tuple):
            assert issubclass(expected[0], RULE_ERRORS)
        else:
            assert not set(containers(rule_wire(body))) & set(containers(body))

    def test_weekday_days_are_sorted_and_unknown_keys_dropped(self):
        body = {"action": "GET", "resource": "/api/data", "note": 1,
                "conditions": [{"kind": "weekday", "days": [4, 0, 4], "tag": "lab"}]}
        assert rule_wire(body) == {"action": "GET", "resource": "/api/data", "conditions": [
            {"kind": "weekday", "days": [0, 4, 4]}]}
        assert rule_wire({"action": "PUT", "resource": "/"}) == \
            {"action": "PUT", "resource": "/", "conditions": []}


class TestTokenMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(body=tokens)
    def test_token_from_wire_reads_what_the_typed_token_read(self, body):
        assert read(lambda b: CapabilityToken.from_wire(b).wire(), body) == \
            read(lambda b: ReferenceCapabilityToken.from_wire(b).wire(), body)


SENDERS = ("supervisor", "master", "provider", "client", "outsider")
SUBJECTS = ("client", "provider", "outsider", "master")
# mostly a master's or the supervisor's transaction on a zone member's token
senders = st.sampled_from(["master", "supervisor"]) | st.sampled_from(SENDERS)
subjects = st.sampled_from(["client", "provider"]) | st.sampled_from(SUBJECTS)
# the issued rules, a rule not issued, and two revocation targets that are not rules
targets = st.lists(st.sampled_from([RULE_GET, RULE_POST, RULE_GET, RULE_POST,
                                    {"action": "GET", "resource": "/api/upload"}, {}, "GET"]),
                   min_size=1, max_size=2)
token_ops = st.lists(st.one_of(
    st.tuples(st.just("issue_token"), senders, subjects,
              st.lists(good_rules, min_size=1, max_size=3)
              | st.lists(rules, max_size=2) | st.sampled_from(["GET", 5]),
              st.integers(0, 3), st.integers(2, 5)),
    st.tuples(st.just("revoke_access_rights"), senders, subjects, targets),
    st.tuples(st.just("revoke_token"), senders, subjects),
    st.tuples(st.just("set_token_validity"), senders, subjects,
              st.sampled_from([True, False, 0, 1, "", "no"]))),
    max_size=12)


def token_views(bench):
    """Every subject's token and the whole state, as reprs."""
    return ([repr(bench.tokens.get_token(getattr(bench, name))) for name in SUBJECTS],
            repr(bench.tokens.dump_state()), bench.chain.changes_since("captoken", 0))


class TestContractMatchesReference:
    """The contract that holds wire dicts against the one that held typed tokens."""

    @settings(max_examples=150, deadline=None)
    @given(ops=token_ops)
    def test_receipts_views_and_state_match(self, ops):
        live, reference = Bench(), Bench(token_contract=ReferenceTokenContract)
        assert token_views(live) == token_views(reference)
        # tokens for the random transactions to change
        issued = [("issue_token", "master", subject, [RULE_GET, RULE_POST], 0, 10**9)
                  for subject in ("client", "provider")]
        for op, sender, subject, *rest in issued + ops:
            kept = [(view, copy.deepcopy(view)) for view in
                    (live.tokens.get_token(getattr(live, name)) for name in SUBJECTS)]
            receipts = [bench.apply(getattr(bench, sender), "captoken", op,
                                    (getattr(bench, subject).hex, *copy.deepcopy(rest)))
                        for bench in (live, reference)]
            assert [(r.status, r.result, r.error) for r in receipts[:1]] == \
                [(r.status, r.result, r.error) for r in receipts[1:]]
            assert token_views(live) == token_views(reference)
            # a view taken before the transaction is the snapshot it was
            assert all(view == snapshot for view, snapshot in kept)


def assert_feed_matches(bench, mutations):
    """The chain's token feed at every height against the reference contract's
    answer at the mutation count ``mutations[height]`` that height sealed with."""
    latest = bench.chain.height
    assert len(mutations) == latest + 1
    for height in range(latest + 2):   # one past the latest names nothing
        _, subjects = bench.tokens.reference_changes_since(mutations[min(height, latest)])
        got_latest, changed = bench.chain.changes_since("captoken", height)
        assert got_latest == latest
        assert list(changed) == subjects
        assert list(changed.values()) == list(range(len(subjects)))


class TestChangeLogMatchesRecencyIndex:
    """The chain's feed of changed subjects against the per-mutation log and the
    recency index it replaced, through rejected transactions and revocations
    that remove nothing."""

    @settings(max_examples=150, deadline=None)
    @given(ops=token_ops)
    def test_changes_since_matches_the_index_at_every_cursor(self, ops):
        bench = Bench(token_contract=RecencyIndexTokenContract)
        mutations = [0] * (bench.chain.height + 1)
        issued = [("issue_token", "master", subject, [RULE_GET, RULE_POST], 0, 10**9)
                  for subject in ("client", "provider")]
        for op, sender, subject, *rest in issued + ops:
            bench.apply(getattr(bench, sender), "captoken", op,
                        (getattr(bench, subject).hex, *rest))
            mutations.append(bench.tokens.reference_changes_since(0)[0])
            assert_feed_matches(bench, mutations)

    @settings(max_examples=150, deadline=None)
    @given(ops=token_ops, seals=st.lists(st.booleans(), min_size=14, max_size=14))
    def test_changes_since_matches_the_log_at_every_height(self, ops, seals):
        """Several mutations per block, and blocks with none."""
        bench = Bench(token_contract=ChangeLogTokenContract)
        mutations = [0] * (bench.chain.height + 1)
        issued = [("issue_token", "master", subject, [RULE_GET, RULE_POST], 0, 10**9)
                  for subject in ("client", "provider")]
        for (op, sender, subject, *rest), seal in zip(issued + ops, seals):
            bench.submit(getattr(bench, sender), "captoken", op,
                         (getattr(bench, subject).hex, *rest))
            if seal:
                bench.chain.produce_next_block()
                mutations.append(bench.tokens.reference_changes_since(0)[0])
        bench.chain.produce_next_block()
        mutations.append(bench.tokens.reference_changes_since(0)[0])
        bench.chain.produce_next_block()   # a block that changes nothing
        mutations.append(mutations[-1])
        assert_feed_matches(bench, mutations)
        assert not hasattr(TokenContract, "changes_since")
        with pytest.raises(ContractRejection, match="no view 'changes_since'"):
            bench.chain.query_state("captoken", "changes_since", (0,))


class TestHeldTokens:
    RULE_ON_WEEKDAYS = {"action": "GET", "resource": "/api/data",
                        "conditions": [{"kind": "weekday", "days": [4, 0]}]}

    @pytest.mark.parametrize("op,args", [
        ("issue_token", lambda b: (b.client.hex, [RULE_POST], 1, 10**9)),
        ("revoke_access_rights", lambda b: (b.client.hex, [RULE_GET])),
        ("revoke_token", lambda b: (b.client.hex,)),
        ("set_token_validity", lambda b: (b.client.hex, False)),
    ])
    def test_a_view_taken_before_a_mutation_is_unchanged_after_it(self, bench, op, args):
        bench.issue_client_token(rules=[self.RULE_ON_WEEKDAYS, RULE_POST])
        view, state = bench.tokens.get_token(bench.client), bench.tokens.dump_state()
        snapshot = copy.deepcopy((view, state))
        receipt = bench.apply(bench.master, "captoken", op, args(bench))
        assert receipt.ok and receipt.result
        assert (view, state) == snapshot
        assert bench.tokens.get_token(bench.client) != view

    def test_views_are_the_held_dict(self, bench):
        bench.issue_client_token()
        token = bench.tokens.get_token(bench.client)
        assert bench.tokens.get_token(bench.client) is token
        assert bench.tokens.dump_state()["tokens"][bench.client.hex] is token

    def test_held_token_shares_nothing_with_the_transaction_args(self, bench):
        rules = [dict(self.RULE_ON_WEEKDAYS, note="x")]
        bench.issue_client_token(rules=rules)
        token = bench.tokens.get_token(bench.client)
        rules[0]["resource"] = "/other"
        rules[0]["conditions"][0]["days"].append(6)
        rules.append(RULE_POST)
        assert token["authorization"] == [{"action": "GET", "resource": "/api/data",
                                           "conditions": [{"kind": "weekday", "days": [0, 4]}]}]
