import csv
import io

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capchain.encoding import CsvCells
from capchain.enforcement import PIPELINE_STAGES, StageRecord, StageTrace
from capchain.netsim import (PROFILE_DELAYS, Measurement, Simulation,
                             ac_overhead_ms, latency_bench_config,
                             run_latency_bench, run_overhead_bench, run_scenario,
                             summarize, write_measurements_csv,
                             write_stage_traces_csv, write_summary_text)
from capchain.scenario import PROFILES, ScenarioError

from harness import render_artifacts
from reference_models import (reference_run, reference_summarize,
                              reference_write_measurements_csv,
                              reference_write_stage_traces_csv)

RULE_GET = {"action": "GET", "resource": "/api/data", "conditions": []}


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
    def test_empty_script_yields_no_measurements(self):
        _, result = run_scenario(base_config())
        assert result.measurements == []

    def test_warmed_request_stream_hits_cache(self):
        config = latency_bench_config("satellite", seed=42, requests=100)
        _, result = run_scenario(config)
        assert len(result.measurements) == 100
        assert result.measurements[0].cache_hit is False
        assert all(m.cache_hit for m in result.measurements[1:])
        assert all(m.outcome == "grant" for m in result.measurements)

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
        for m in result.measurements:
            if m.at_ms >= confirm_at + interval:
                assert m.outcome == "deny"
        late_grants = [m for m in result.measurements
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
        assert result.measurements[0].outcome == "timeout"
        assert result.measurements[0].total_ms == 4000


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
        for m in result.measurements:
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
stage_traces = st.builds(
    StageTrace,
    records=st.lists(st.builds(StageRecord, st.sampled_from(PIPELINE_STAGES),
                               st.sampled_from(["pass", "fail"]), report_floats), max_size=5),
    cache_hit=st.none() | st.booleans())
measurements = st.builds(
    Measurement,
    request_id=st.integers(min_value=0), at_ms=report_floats,
    requester=csv_strings, provider=csv_strings, method=csv_strings, uri=csv_strings,
    outcome=st.sampled_from(["grant", "deny", "timeout"]) | csv_strings,
    stage=st.none() | st.sampled_from(PIPELINE_STAGES), reason=st.none() | csv_strings,
    cache_hit=st.none() | st.booleans(), block_height=st.integers(min_value=0),
    total_ms=report_floats, trace=st.none() | stage_traces)


def written(write, rows):
    """What ``write`` puts in a stream, or the type of ``csv.Error`` it raises."""
    stream = io.StringIO()
    try:
        write(rows, stream)
    except csv.Error as exc:
        return type(exc)
    return stream.getvalue()


def summarized(summarize_rows, rows):
    """The summary's repr and text, or the type of the ``OverflowError`` raised
    when generated rows whose stages far exceed their totals overflow ``fmean``."""
    try:
        summary = summarize_rows(rows)
    except OverflowError as exc:
        return type(exc)
    text = io.StringIO()
    write_summary_text(summary, text)
    # repr tells -0.0 from 0.0 and shows every bit of a float
    return repr(summary), text.getvalue()


def overflowing_share(request_id):
    return Measurement(request_id, 0.0, "c", "p", "GET", "/", "grant", None, None, None, 0,
                       3.767623999397665e-300,
                       StageTrace([StageRecord("identity_auth", "pass", 338651590.0)]))


class TestReportWritersMatchReference:
    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(measurements, max_size=8))
    @example(rows=[overflowing_share(1), overflowing_share(2), overflowing_share(3)])
    def test_writers_are_byte_equal_to_csv_writer_rows(self, rows):
        assert written(write_measurements_csv, rows) == \
            written(reference_write_measurements_csv, rows)
        assert written(write_stage_traces_csv, rows) == \
            written(reference_write_stage_traces_csv, rows)
        assert summarized(summarize, rows) == summarized(reference_summarize, rows)

    def test_zero_durations_keep_their_sign(self):
        records = [StageRecord("token_fetch", "pass", value) for value in (0.0, -0.0, 0, -0.0)]
        rows = [Measurement(1, 0.0, "c", "p", "GET", "/", "grant", None, None, True, 1, -0.0,
                            StageTrace(records))]
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
# its messages, outsider--sat-provider has no delay, so arrivals tie with script times
LOOP_LINKS = [("sat-client", "sat-provider"), ("sat-client", "ground-provider"),
              ("outsider", "sat-provider")]


def loop_config(script):
    config = base_config(seed=5, block_interval_ms=LOOP_INTERVAL_MS, timeout_ms=2500,
                         script=script)
    config["nodes"][3]["location"] = "orbit"
    config["nodes"].append({"name": "outsider", "role": "client"})
    config["channels"][0]["one_way_delay_ms"] = [0.5, 1500.0]
    config["channels"][1]["drop_rate"] = 0.5
    config["channels"].append({"a": "outsider", "b": "sat-provider"})
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


class TestEventLoopMatchesReference:
    @settings(max_examples=100, deadline=None)
    @given(script=st.lists(loop_events, max_size=14))
    def test_merged_script_and_heap_order_equals_one_heap(self, script):
        simulation = Simulation(loop_config(script))
        result = simulation.run()
        reference = Simulation(loop_config(script))
        expected = reference_run(reference)
        # repr tells -0.0 from 0.0 and 1000 from 1000.0
        assert repr(result) == repr(expected)
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
        assert [(m.at_ms, m.outcome, m.block_height) for m in result.measurements] == \
            [(1000.0, "grant", 2)]
        assert repr(result) == repr(reference_run(Simulation(loop_config(script))))
