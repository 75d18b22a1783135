import csv
import dataclasses
import io
import json
import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capchain.encoding import CsvCells
from capchain.enforcement import PIPELINE_STAGES, ServiceProvider, StageRecord, StageTrace
from capchain.netsim import (PROFILE_DELAYS, Measurement, Simulation, _fmt,
                             ac_overhead_ms, latency_bench_config,
                             run_latency_bench, run_overhead_bench, run_scenario,
                             summarize, write_measurements_csv,
                             write_stage_traces_csv, write_summary_text)
from capchain.ledger import IntervalNotElapsedError
from capchain.scenario import PROFILES, Request, ScenarioError, parse_script

from harness import render_artifacts
from reference_models import (reference_fmt, reference_parse_script, reference_run,
                              reference_summarize,
                              reference_write_measurements_csv,
                              reference_write_stage_traces_csv)
from workloads import WORKLOADS

RULE_GET = {"action": "GET", "resource": "/api/data", "conditions": []}


def named(result):
    """A run's rows, which are plain tuples, as ``Measurement``s."""
    return list(map(Measurement._make, result.measurements))


def base_config(seed=42, **overrides):
    config = {
        "seed": seed,
        "block_interval_ms": 15000,
        "nodes": [
            {"name": "supervisor", "role": "supervisor"},
            {"name": "master", "role": "master", "zone": "zone-a",
             "members": ["sat-client", "sat-provider", "ground-provider"]},
            {"name": "sat-client", "role": "client", "profile": "satellite"},
            {"name": "sat-provider", "role": "satellite", "profile": "satellite",
             "services": ["/api/data"]},
            {"name": "ground-provider", "role": "ground", "profile": "ground",
             "services": ["/api/data"]},
        ],
        "channels": [
            {"a": "sat-client", "b": "sat-provider", "one_way_delay_ms": 5.0},
            {"a": "sat-client", "b": "ground-provider", "one_way_delay_ms": 3.75},
        ],
        "script": [],
    }
    config.update(overrides)
    return config


class TestBuildTopology:
    def test_five_node_testbed_builds(self):
        sim = Simulation(base_config())
        assert len(sim.nodes) == 5
        assert sim.chain.height == 1  # bootstrap block
        assert sim.zone_contract.get_vzone("zone-a").master == \
            sim.nodes["master"].vid
        assert len({node.vid for node in sim.nodes.values()}) == 5

    def test_duplicate_name_rejected(self):
        config = base_config()
        config["nodes"].append({"name": "master", "role": "client"})
        with pytest.raises(ScenarioError, match="duplicate node name"):
            Simulation(config)

    def test_channel_referencing_unknown_node_rejected(self):
        config = base_config()
        config["channels"].append({"a": "sat-client", "b": "ghost"})
        with pytest.raises(ScenarioError, match="unknown node"):
            Simulation(config)

    def test_exactly_one_supervisor_required(self):
        config = base_config()
        config["nodes"][0]["role"] = "client"
        del config["nodes"][0]["name"]
        config["nodes"][0]["name"] = "not-supervisor"
        with pytest.raises(ScenarioError, match="supervisor"):
            Simulation(config)

    def test_seed_required(self):
        config = base_config()
        del config["seed"]
        with pytest.raises(ScenarioError, match="seed"):
            Simulation(config)

    def test_zone_owned_twice_rejected(self):
        config = base_config()
        config["nodes"].append({"name": "master2", "role": "master",
                                "zone": "zone-a"})
        with pytest.raises(ScenarioError, match="owned by more than one"):
            Simulation(config)


class TestRunScenario:
    def test_a_second_run_fails_at_its_first_block_and_runs_no_event(self, monkeypatch):
        simulation = Simulation(latency_bench_config("satellite", seed=42, requests=5))
        simulation.run()
        height, ran = simulation.chain.height, []
        for handler in ("_handle_script", "_handle_arrival", "_record"):
            monkeypatch.setattr(simulation, handler,
                                lambda *args, name=handler: ran.append(name))
        # the script, released by the first run, would issue a token before the block
        with pytest.raises(IntervalNotElapsedError):
            simulation.run()
        assert ran == []
        assert simulation.chain.height == height

    @pytest.mark.parametrize("name", ["sample"] + sorted(WORKLOADS))
    def test_the_loop_seals_and_polls_every_submission(self, name):
        # the run loop is the only block producer: the block after the last
        # submission must seal it, and that block's poll must read its outcome
        sample = Path(__file__).resolve().parent.parent / "scenarios" / \
            "registration_and_revocation.json"
        config = json.loads(sample.read_text()) if name == "sample" \
            else WORKLOADS[name](7, scale=0.05)
        simulation = Simulation(config)
        result = simulation.run()
        assert result.issues and not simulation.chain._pending
        assert not any(master.has_pending for master in simulation.masters.values())

    @pytest.mark.parametrize("name", ["sample"] + sorted(WORKLOADS))
    def test_every_request_is_served_at_the_synced_height(self, name, monkeypatch):
        # every provider syncs at every block and no sync fails, so the held
        # records and tokens decide each request of a run
        sample = Path(__file__).resolve().parent.parent / "scenarios" / \
            "registration_and_revocation.json"
        config = json.loads(sample.read_text()) if name == "sample" \
            else WORKLOADS[name](7, scale=0.05)
        authorize, calls = ServiceProvider.authorize, []

        def synced_authorize(provider, request):
            assert provider.chain.height == provider.cache.cursor
            calls.append(request)
            return authorize(provider, request)

        monkeypatch.setattr(ServiceProvider, "authorize", synced_authorize)
        _, result = run_scenario(config)
        assert calls and len(calls) == len(result.measurements)

    def test_empty_script_yields_no_measurements(self):
        _, result = run_scenario(base_config())
        assert result.measurements == []

    def test_warmed_request_stream_hits_cache(self):
        config = latency_bench_config("satellite", seed=42, requests=100)
        _, result = run_scenario(config)
        assert len(result.measurements) == 100
        rows = named(result)
        assert rows[0].cache_hit is False
        assert all(m.cache_hit for m in rows[1:])
        assert all(m.outcome == "grant" for m in rows)

    def test_script_event_with_unknown_node_fails_with_index(self):
        config = base_config(script=[
            {"at": 100, "op": "request", "requester": "ghost",
             "provider": "sat-provider", "method": "GET", "uri": "/api/data"},
        ])
        sim = Simulation(config)
        with pytest.raises(ScenarioError, match=r"^script\[0\]\.requester: unknown node 'ghost'"):
            sim.run()

    def test_unserved_resource_fails(self):
        config = base_config(script=[
            {"at": 100, "op": "request", "requester": "sat-client",
             "provider": "sat-provider", "method": "GET", "uri": "/api/missing"},
        ])
        with pytest.raises(ScenarioError, match=r"^script\[0\]\.uri: 'sat-provider' "
                                                r"does not serve '/api/missing'"):
            Simulation(config).run()

    def test_revocation_denies_after_next_block(self):
        interval = 15000
        script = [
            {"at": 100, "op": "issue", "master": "master", "subject": "sat-client",
             "rules": [RULE_GET], "validity_ms": 10**7},
        ]
        request_times = [16000 + 500 * k for k in range(40)]
        for at in request_times:
            script.append({"at": at, "op": "request", "requester": "sat-client",
                           "provider": "sat-provider", "method": "GET",
                           "uri": "/api/data"})
        revoke_at = 21000
        script.append({"at": revoke_at, "op": "revoke", "master": "master",
                       "subject": "sat-client"})
        _, result = run_scenario(base_config(script=script))
        confirm_at = 30000  # next block after the revoke submission
        for m in named(result):
            if m.at_ms >= confirm_at + interval:
                assert m.outcome == "deny"
        late_grants = [m for m in named(result)
                       if m.outcome == "grant" and m.at_ms > confirm_at]
        assert late_grants == []

    def test_registration_flow_confirms_via_block(self):
        config = base_config()
        config["nodes"].append({"name": "newcomer", "role": "client"})
        config["channels"].append({"a": "newcomer", "b": "sat-provider",
                                   "one_way_delay_ms": 5.0})
        # newcomer is not among bootstrap members; register dynamically
        config["nodes"][1]["members"] = ["sat-client", "sat-provider",
                                         "ground-provider"]
        config["script"] = [
            {"at": 100, "op": "register", "node": "newcomer", "master": "master"},
            {"at": 16000, "op": "advance"},
        ]
        sim, result = run_scenario(config)
        confirmed = [r for r in result.registrations if r["status"] == "confirmed"]
        assert len(confirmed) == 1
        assert confirmed[0]["vid"] == sim.nodes["newcomer"].vid.hex
        record = sim.zone_contract.get_vnode(sim.nodes["newcomer"].vid)
        assert record.vzone_id == "zone-a"

    def test_expectation_mismatch_reported(self):
        script = [{"at": 16000, "op": "request", "requester": "sat-client",
                   "provider": "sat-provider", "method": "GET",
                   "uri": "/api/data", "expect": "grant"}]
        _, result = run_scenario(base_config(script=script))
        # no token was issued, so the grant expectation fails
        assert len(result.expectation_failures) == 1

    def test_dropped_messages_time_out(self):
        config = base_config()
        config["channels"][0]["drop_rate"] = 0.999999
        config["timeout_ms"] = 4000
        config["script"] = [
            {"at": 100, "op": "request", "requester": "sat-client",
             "provider": "sat-provider", "method": "GET", "uri": "/api/data"},
        ]
        _, result = run_scenario(config)
        row = Measurement._make(result.measurements[0])
        assert row.outcome == "timeout"
        assert row.total_ms == 4000


class TestLatencyModel:
    def test_satellite_steady_state_totals(self):
        _, result = run_latency_bench("satellite", seed=42, requests=100)
        summary = summarize(result.measurements)
        assert summary["steady_mean_ms"] == pytest.approx(250.0, abs=1e-9)
        assert summary["first_request_ms"] == pytest.approx(310.0, abs=1e-9)
        assert abs(summary["steady_ac_share"] - 0.86) <= 0.02

    def test_ground_steady_state_totals(self):
        _, result = run_latency_bench("ground", seed=42, requests=100)
        summary = summarize(result.measurements)
        assert summary["steady_mean_ms"] == pytest.approx(60.0, abs=1e-9)

    def test_first_request_strictly_slower_than_steady_median(self):
        for profile in ("satellite", "ground"):
            _, result = run_latency_bench(profile, seed=9, requests=50)
            summary = summarize(result.measurements)
            assert summary["first_request_ms"] > summary["steady_median_ms"]

    def test_enforcement_overhead_about_nine_ms(self):
        with_ac, without_ac = run_overhead_bench(seed=5, requests=100)
        overhead = ac_overhead_ms(with_ac.measurements, without_ac.measurements)
        assert overhead == pytest.approx(9.0, abs=1e-9)
        assert summarize(without_ac.measurements)["steady_mean_ms"] == \
            pytest.approx(35.0, abs=1e-9)

    def test_accounting_identity_total_equals_costs_plus_transport(self):
        _, result = run_latency_bench("satellite", seed=13, requests=20)
        profile = PROFILES["satellite"]
        delay = PROFILE_DELAYS["satellite"]
        for m in named(result):
            stage_sum = sum(r.duration_ms for r in m.trace.records)
            expected = (profile.data_parse + stage_sum
                        + profile.service_handler + 2 * delay)
            assert m.total_ms == expected

    def test_split_validation_costs_sum_exactly(self):
        profile = PROFILES["satellite"]
        costs = profile.stage_costs()
        assert costs["token_status"] + costs["rule_match"] + \
            costs["condition_check"] == profile.capac_validation

    def test_negative_profile_cost_rejected(self):
        config = base_config()
        config["nodes"][3]["profile"] = {"identity_auth": -1.0}
        with pytest.raises(ScenarioError, match=r"^nodes\[3\]\.profile\.identity_auth: "
                                                r"must be a cost .* of a number >= 0, got -1.0"):
            Simulation(config)


class TestDeterminism:
    def test_identical_seeds_reproduce_measurements_and_chain(self):
        def run():
            sim, result = run_scenario(latency_bench_config("satellite", 77, 30))
            measurements = io.StringIO()
            write_measurements_csv(result.measurements, measurements)
            traces = io.StringIO()
            write_stage_traces_csv(result.measurements, traces)
            return (measurements.getvalue(), traces.getvalue(),
                    sim.chain.export_chain_text(), sim.chain.gas_report_text())
        assert run() == run()

    def test_different_seeds_differ_in_addresses(self):
        sim_a = Simulation(base_config(seed=1))
        sim_b = Simulation(base_config(seed=2))
        assert sim_a.nodes["master"].vid != sim_b.nodes["master"].vid


class TestReports:
    def test_measurement_csv_columns_stable(self):
        _, result = run_latency_bench("satellite", seed=4, requests=3)
        out = io.StringIO()
        write_measurements_csv(result.measurements, out)
        header = out.getvalue().splitlines()[0]
        assert header == ("request_id,at_ms,requester,provider,method,uri,"
                          "outcome,stage,reason,cache_hit,block_height,total_ms")

    @pytest.mark.parametrize("case", ["dropped", "unenforced", "denied"])
    def test_measurement_and_trace_rows_pinned(self, case):
        request = {"at": 100, "op": "request", "requester": "sat-client",
                   "provider": "sat-provider", "method": "GET", "uri": "/api/data"}
        if case == "dropped":
            config = base_config(timeout_ms=4000, script=[request])
            config["channels"][0]["drop_rate"] = 0.999999
        elif case == "unenforced":
            config = base_config(access_control=False, script=[request])
        else:  # enforced, no token issued
            config = base_config(script=[dict(request, at=16000)])
        expected_row, expected_traces = {
            "dropped": ("1,100,sat-client,sat-provider,GET,/api/data,"
                        "timeout,,message-dropped,,1,4000", []),
            "unenforced": ("1,100,sat-client,sat-provider,GET,/api/data,"
                           "grant,,,,1,35.5", []),
            "denied": ("1,16000,sat-client,sat-provider,GET,/api/data,"
                       "deny,token_fetch,token-absent,false,2,232.5",
                       ["1,identity_auth,pass,152", "1,token_fetch,fail,60"]),
        }[case]
        _, result = run_scenario(config)
        rows, traces = io.StringIO(), io.StringIO()
        write_measurements_csv(result.measurements, rows)
        write_stage_traces_csv(result.measurements, traces)
        assert rows.getvalue().splitlines()[1:] == [expected_row]
        assert traces.getvalue().splitlines()[1:] == expected_traces

    def test_summary_text_contains_per_stage_breakdown(self):
        _, result = run_latency_bench("satellite", seed=4, requests=10)
        out = io.StringIO()
        write_summary_text(summarize(result.measurements), out)
        text = out.getvalue()
        for stage in ("identity_auth", "token_fetch", "token_status",
                      "rule_match", "condition_check"):
            assert f"stage_mean_ms.{stage}:" in text
        assert "steady_mean_ms: 250" in text


# cells the csv module must quote (and, on some interpreters, cannot write)
csv_strings = st.text(st.sampled_from(',"\n\r a\x00é'), max_size=4)
# include values that _fmt trims to "0" or "-0"
report_floats = st.sampled_from([0.0, -0.0, 1e-7, -1e-7, 4.9e-7, 5e-7, -4.9e-7, 0.5, 250.0]) \
    | st.floats(min_value=-1e9, max_value=1e9, allow_nan=False)
# an int 0 duration prints "0" like 0.0, and -0.0 prints "-0"
stage_traces = st.builds(
    StageTrace,
    records=st.lists(st.builds(StageRecord, st.sampled_from(PIPELINE_STAGES),
                               st.sampled_from(["pass", "fail"]), st.just(0) | report_floats),
                     max_size=5).map(tuple),
    cache_hit=st.none() | st.booleans())


def measurement_rows(traces):
    return st.builds(
        Measurement,
        request_id=st.integers(min_value=0), at_ms=report_floats,
        requester=csv_strings, provider=csv_strings, method=csv_strings, uri=csv_strings,
        outcome=st.sampled_from(["grant", "deny", "timeout"]) | csv_strings,
        stage=st.none() | st.sampled_from(PIPELINE_STAGES), reason=st.none() | csv_strings,
        cache_hit=st.none() | st.booleans(), block_height=st.integers(min_value=0),
        total_ms=report_floats, trace=traces)


def other_zeros(trace):
    """An equal trace whose zero durations print differently: 0.0 -> -0.0 -> 0 -> 0.0."""
    flip = {"0.0": -0.0, "-0.0": 0, "0": 0.0}
    return dataclasses.replace(trace, records=tuple(
        dataclasses.replace(r, duration_ms=flip.get(repr(r.duration_ms), r.duration_ms))
        for r in trace.records))


@st.composite
def measurements(draw):
    """Rows whose traces come from a small pool, as a provider shares one trace
    per pipeline path: many rows hold the same trace object, some a distinct
    but equal one (a copy, or one whose zeros print differently), some a
    trace of their own, some none."""
    pool = draw(st.lists(stage_traces, min_size=1, max_size=3))
    shared = st.sampled_from(pool)
    traces = st.none() | shared | shared.map(dataclasses.replace) | shared.map(other_zeros) \
        | stage_traces
    return draw(st.lists(measurement_rows(traces), max_size=12))


def written(write, rows):
    """What ``write`` puts in a stream, or the type of ``csv.Error`` it raises."""
    stream = io.StringIO()
    try:
        write(rows, stream)
    except csv.Error as exc:
        return type(exc)
    return stream.getvalue()


def summarized(summarize_rows, rows):
    """The summary's repr and text, or the type of the error ``fmean`` raises on
    generated rows whose stages far exceed their totals: an ``OverflowError``
    when the shares overflow, a ``ValueError`` when they hold both infinities."""
    try:
        summary = summarize_rows(rows)
    except (OverflowError, ValueError) as exc:
        return type(exc)
    text = io.StringIO()
    write_summary_text(summary, text)
    # repr tells -0.0 from 0.0 and shows every bit of a float
    return repr(summary), text.getvalue()


def overflowing_share(request_id):
    return Measurement(request_id, 0.0, "c", "p", "GET", "/", "grant", None, None, None, 0,
                       3.767623999397665e-300,
                       StageTrace((StageRecord("identity_auth", "pass", 338651590.0),)))


def fetch_row(request_id, total_ms, trace):
    return Measurement(request_id, 0.0, "c", "p", "GET", "/", "grant", None, None, True, 1,
                       total_ms, trace)


def fetch_trace(duration):
    return StageTrace((StageRecord("token_fetch", "pass", duration),))


# three shared traces whose token_fetch zeros print differently; the rows use
# them in an order other than their first appearance, so the token_fetch median
# (the middle of -1.0, then 0.0, -0.0, 0, -0.0, 0.0 in row order, then 5.0) is
# the int 0, where first-appearance order would give -0.0
ZERO_A, ZERO_B, ZERO_C = fetch_trace(0.0), fetch_trace(-0.0), fetch_trace(0)
MIXED_ZERO_MEDIAN = [fetch_row(i, 1.0, trace) for i, trace in enumerate(
    [ZERO_A, ZERO_B, ZERO_C, ZERO_B, ZERO_A, fetch_trace(5.0), fetch_trace(-1.0)])]
# the first total has an equal twin of the other sign, and the steady median
# lands on the twin: -0.0, not the first request's 0.0
TWIN_FIRST_TOTAL = [fetch_row(i, total, ZERO_A) for i, total in
                    enumerate([0.0, 5.0, -0.0, -1.0])]
# NaN totals and durations leave a sort without order: only the row-ordered
# lists give statistics.median's answers (a steady median of 1.0, a token_fetch
# median of NaN)
NAN_ORDER = [fetch_row(i, total, trace) for i, (total, trace) in enumerate(
    [(2.0, fetch_trace(1.0)), (math.nan, fetch_trace(math.nan)), (1.0, fetch_trace(1.0)),
     (math.nan, None)])]
# access-control shares of +inf and -inf: one trace's 52,613 ms over a tiny total
# and over a tiny negative one, which fsum cannot add
LONG_AUTH = StageTrace((StageRecord("identity_auth", "pass", 52613.0),))
OPPOSITE_INFINITE_SHARES = [fetch_row(i, total, LONG_AUTH) for i, total in
                            enumerate([1.0, 2.92e-304, -2.2e-309])]
# fsum adds 1e308, -1e308, 1e308 in row order, but overflows on 1e308 + 1e308
BIG, MINUS_BIG = fetch_trace(1e308), fetch_trace(-1e308)
OVERFLOW_IN_ONE_ORDER = [fetch_row(i, 1.0, trace) for i, trace in enumerate([BIG, MINUS_BIG, BIG])]

# zeros of both signs and types, a value below the sixth decimal, halfway
# cases, integers floats hold exactly and the first ones they do not, a
# subnormal, infinities, NaN, then any integer-valued or other float
fmt_values = st.sampled_from([0.0, -0.0, 0, -1e-7, 5e-7, -5e-7, 2.5e-7, 1.5e-6, 2**53 - 1,
                              2**53 + 1, float(2**53 - 1), 2.0**53, 2.0**53 + 2, 5e-324,
                              -5e-324, math.inf, -math.inf, math.nan]) \
    | st.integers(min_value=-10**300, max_value=10**300).map(float) | st.floats()


class TestReportWritersMatchReference:
    @settings(max_examples=200, deadline=None)
    @given(rows=measurements())
    @example(rows=[overflowing_share(1), overflowing_share(2), overflowing_share(3)])
    @example(rows=MIXED_ZERO_MEDIAN)
    @example(rows=TWIN_FIRST_TOTAL)
    @example(rows=NAN_ORDER)
    @example(rows=OVERFLOW_IN_ONE_ORDER)
    @example(rows=OPPOSITE_INFINITE_SHARES)
    def test_writers_are_byte_equal_to_csv_writer_rows(self, rows):
        assert written(write_measurements_csv, rows) == \
            written(reference_write_measurements_csv, rows)
        assert written(write_stage_traces_csv, rows) == \
            written(reference_write_stage_traces_csv, rows)
        assert summarized(summarize, rows) == summarized(reference_summarize, rows)

    @settings(max_examples=500, deadline=None)
    @given(value=fmt_values)
    def test_fmt_writes_what_the_one_line_formatter_writes(self, value):
        assert _fmt(value) == reference_fmt(value)

    def test_zero_durations_keep_their_sign(self):
        records = [StageRecord("token_fetch", "pass", value) for value in (0.0, -0.0, 0, -0.0)]
        rows = [Measurement(1, 0.0, "c", "p", "GET", "/", "grant", None, None, True, 1, -0.0,
                            StageTrace(tuple(records)))]
        assert written(write_stage_traces_csv, rows) == \
            written(reference_write_stage_traces_csv, rows)
        assert written(write_stage_traces_csv, rows).count(",-0\n") == 2

    def test_csv_cells_write_equal_values_of_other_types_apart(self):
        cells = CsvCells()
        assert [cells[v] for v in (1, 1.0, True, "1", "a,b", "")] == \
            ["1", "1.0", "True", "1", '"a,b"', ""]


# -- the event loop against the heap-everything loop it replaced --------------

LOOP_INTERVAL_MS = 1000
LOOP_RULES = [[RULE_GET],
              [RULE_GET, {"action": "PUT", "resource": "/api/data", "conditions": [
                  {"kind": "location_tag", "tag": "orbit"}]}],
              [{"action": "GET", "resource": "/api/data", "conditions": [
                  {"kind": "time_window", "start_ms": 0, "end_ms": 2500}]}]]
# requester/provider pairs with a channel; sat-client--ground-provider drops half
# its messages, outsider--sat-provider has no delay, so arrivals tie with script times,
# and outsider--ground-provider both draws its delay from a range and drops
LOOP_LINKS = [("sat-client", "sat-provider"), ("sat-client", "ground-provider"),
              ("outsider", "sat-provider"), ("outsider", "ground-provider")]


def loop_config(script, access_control=True):
    config = base_config(seed=5, block_interval_ms=LOOP_INTERVAL_MS, timeout_ms=2500,
                         access_control=access_control, script=script)
    config["nodes"][3]["location"] = "orbit"
    config["nodes"].append({"name": "outsider", "role": "client"})
    config["channels"][0]["one_way_delay_ms"] = [0.5, 1500.0]
    config["channels"][1]["drop_rate"] = 0.5
    config["channels"].append({"a": "outsider", "b": "sat-provider"})
    config["channels"].append({"a": "outsider", "b": "ground-provider",
                               "one_way_delay_ms": [0.25, 900.0], "drop_rate": 0.3})
    return config


# block boundaries, ties and both zeros come up often; other times anywhere
loop_times = st.sampled_from([0, -0.0, 999.5, 1000, 1000.0, 2000, 3000, 3000.25]) \
    | st.integers(min_value=-500, max_value=6000) \
    | st.floats(min_value=-500, max_value=6000, allow_nan=False)
loop_events = st.one_of(
    st.builds(lambda at, link, method, expect: {
        "at": at, "op": "request", "requester": link[0], "provider": link[1],
        "method": method, "uri": "/api/data", "expect": expect},
        loop_times, st.sampled_from(LOOP_LINKS), st.sampled_from(["GET", "PUT"]),
        st.sampled_from([None, "grant", "deny"])),
    st.builds(lambda at, subject, rules, validity: {
        "at": at, "op": "issue", "master": "master", "subject": subject, "rules": rules,
        "validity_ms": validity},
        loop_times, st.sampled_from(["sat-client", "outsider"]), st.sampled_from(LOOP_RULES),
        st.sampled_from([500, 3000, 86_400_000])),
    st.builds(lambda at, op: {"at": at, "op": op, "master": "master",
                              "subject": "sat-client"},
              loop_times, st.sampled_from(["revoke", "suspend", "restore"])),
    st.builds(lambda at: {"at": at, "op": "register", "node": "outsider", "master": "master"},
              loop_times),
    st.builds(lambda at: {"at": at, "op": "advance"}, loop_times))


def fields_of(result):
    """``repr`` of a run's result with each row as a plain tuple of its fields, so
    rows compare by their fields; ``repr`` tells -0.0 from 0.0 and 1000 from 1000.0."""
    return repr(dataclasses.replace(
        result, measurements=[tuple(row) for row in result.measurements]))


class TestEventLoopMatchesReference:
    @settings(max_examples=100, deadline=None)
    @given(script=st.lists(loop_events, max_size=14), access_control=st.booleans())
    def test_merged_script_and_heap_order_equals_one_heap(self, script, access_control):
        simulation = Simulation(loop_config(script, access_control))
        result = simulation.run()
        reference = Simulation(loop_config(script, access_control))
        expected = reference_run(reference)
        assert fields_of(result) == fields_of(expected)
        assert render_artifacts(simulation, result) == render_artifacts(reference, expected)
        assert simulation.chain.height == reference.chain.height

    def test_script_events_run_before_generated_events_at_the_same_time(self):
        # the outsider's channel has no delay: its request arrives at 1000, the
        # time of the first block and of a scripted issue listed after it
        script = [{"at": 1000, "op": "issue", "master": "master", "subject": "outsider",
                   "rules": [RULE_GET]},
                  {"at": 1000, "op": "request", "requester": "outsider",
                   "provider": "sat-provider", "method": "GET", "uri": "/api/data"},
                  {"at": 0, "op": "register", "node": "outsider", "master": "master"}]
        simulation = Simulation(loop_config(script))
        result = simulation.run()
        # both script events at 1000 ran before the block at 1000, which confirmed
        # the registration and the issuance; the arrival at 1000 ran after it
        assert [(m.at_ms, m.outcome, m.block_height) for m in named(result)] == \
            [(1000.0, "grant", 2)]
        assert fields_of(result) == fields_of(reference_run(Simulation(loop_config(script))))

    def test_requests_and_rows_are_exact_tuples_of_the_reference_fields(self):
        # every link, one of which drops half its messages, and a revocation midway
        script = [{"at": 0, "op": "register", "node": "outsider", "master": "master"},
                  {"at": 100, "op": "issue", "master": "master", "subject": "outsider",
                   "rules": [RULE_GET]},
                  {"at": 2500, "op": "revoke", "master": "master", "subject": "outsider"}]
        script += [{"at": 1000 + 150 * k, "op": "request", "requester": requester,
                    "provider": provider, "method": "GET", "uri": "/api/data",
                    "expect": "grant"}
                   for k in range(16) for requester, provider in LOOP_LINKS]
        simulation, reference = Simulation(loop_config(script)), Simulation(loop_config(script))
        events = parse_script(script, simulation.topology)
        expected_events = reference_parse_script(script, simulation.topology)
        assert [type(event) for event in events] == \
            [tuple if type(event) is Request else type(event) for event in expected_events]
        assert [Request._make(event) if type(event) is tuple else event
                for event in events] == expected_events
        result, expected = simulation.run(), reference_run(reference)
        assert {type(row) for row in result.measurements} == {tuple}
        assert {row.outcome for row in expected.measurements} == {"grant", "deny", "timeout"}
        assert [Measurement._make(row) for row in result.measurements] == expected.measurements
        assert result.expectation_failures == expected.expectation_failures
