"""Tests for the command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import _parse_session_config, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze", "--scheme", "torrent"])

    def test_defaults(self):
        args = build_parser().parse_args(["analyze"])
        assert args.scheme == "multi-tree"
        assert args.nodes == 100


class TestCommands:
    @pytest.mark.parametrize(
        "scheme", ["multi-tree", "hypercube", "grouped-hypercube", "chain", "single-tree"]
    )
    def test_analyze_all_schemes(self, scheme, capsys):
        assert main(["analyze", "--scheme", scheme, "-n", "20", "-p", "8"]) == 0
        out = capsys.readouterr().out
        assert "max_delay" in out
        assert "20" in out

    def test_figure4(self, capsys):
        assert main(["figure4", "--max-nodes", "200", "--step", "60"]) == 0
        out = capsys.readouterr().out
        assert "degree 2" in out and "degree 5" in out

    def test_table1(self, capsys):
        assert main(["table1", "-n", "40", "-p", "10"]) == 0
        out = capsys.readouterr().out
        assert "O(d log N)" in out
        assert "Measured:" in out

    def test_simulate_with_exports(self, tmp_path, capsys):
        json_path = tmp_path / "trace.json"
        prefix = str(tmp_path / "run")
        assert main(
            ["simulate", "-n", "10", "-p", "5", "--json", str(json_path), "--csv", prefix]
        ) == 0
        assert json_path.exists()
        assert (tmp_path / "run_tx.csv").exists()
        assert (tmp_path / "run_arrivals.csv").exists()

    def test_churn(self, capsys):
        assert main(["churn", "-n", "18", "--events", "3", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "total hiccups" in out

    def test_churn_lazy(self, capsys):
        assert main(["churn", "-n", "18", "--events", "3", "--seed", "5", "--lazy"]) == 0


class TestGossipScheme:
    def test_analyze_gossip_best_effort(self, capsys):
        assert main(["analyze", "--scheme", "gossip", "-n", "20", "-d", "4", "-p", "15"]) == 0
        out = capsys.readouterr().out
        assert "random-gossip" in out


class TestVerifyCommand:
    def test_verify_roundtrip_ok(self, tmp_path, capsys):
        json_path = tmp_path / "t.json"
        assert main(["simulate", "-n", "12", "-p", "6", "--json", str(json_path)]) == 0
        capsys.readouterr()
        assert main(["verify", str(json_path)]) == 0
        out = capsys.readouterr().out
        assert "OK:" in out
        assert "source capacity 3" in out

    def test_verify_flags_wrong_capacity_model(self, tmp_path, capsys):
        json_path = tmp_path / "t.json"
        main(["simulate", "-n", "12", "-p", "6", "--json", str(json_path)])
        capsys.readouterr()
        assert main(["verify", str(json_path), "--source-capacity", "1"]) == 1
        out = capsys.readouterr().out
        assert "violations (send-capacity=" in out
        assert "send-capacity [slot 0, node 0]" in out

    @pytest.mark.parametrize("tamper, rule", [
        ("forged_forward", "causality"),
        ("moved_arrival", "arrivals"),
    ])
    def test_verify_names_the_rule_on_a_tampered_trace(
        self, tmp_path, capsys, tamper, rule
    ):
        json_path = tmp_path / "t.json"
        main(["simulate", "-n", "12", "-p", "6", "--json", str(json_path)])
        capsys.readouterr()
        payload = json.loads(json_path.read_text())
        if tamper == "forged_forward":
            # A receiver forwards a packet before it could hold it.
            tx = next(t for t in payload["transmissions"] if t["sender"] != 0)
            tx["slot"] = 0
        else:
            payload["arrivals"]["5"]["0"] += 1
        json_path.write_text(json.dumps(payload))
        assert main(["verify", str(json_path)]) == 1
        out = capsys.readouterr().out
        assert f"  - {rule} [" in out

    @pytest.mark.parametrize("text", ["[1, 2]", "{oops"], ids=["list", "undecodable"])
    def test_verify_malformed_file_is_one_line_and_status_1(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        src = Path(__file__).resolve().parent.parent / "src"
        result = subprocess.run(
            [sys.executable, "-m", "repro", "verify", str(path)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert result.returncode == 1, result.stderr
        assert "Traceback" not in result.stderr
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and str(path) in lines[0], result.stderr

    def test_figure4_parallel_matches_serial(self, capsys):
        # figure4 runs in-process since v12.0; its table is the per-cell
        # worst-case delay, and the process-pool flag is gone.
        from repro.trees.analysis import worst_case_delay
        from repro.trees.forest import MultiTreeForest

        assert main(["figure4", "--max-nodes", "150", "--step", "70"]) == 0
        lines = capsys.readouterr().out.splitlines()
        row = next(line.split() for line in lines if line.split()[:1] == ["80"])
        assert [int(v) for v in row[1:]] == [
            worst_case_delay(MultiTreeForest.construct(80, d)) for d in (2, 3, 4, 5)
        ]
        with pytest.raises(SystemExit):
            main(["figure4", "--parallel", "2"])


class TestRepairCommand:
    def test_repair_sweep_table(self, capsys):
        assert main(
            ["repair", "--scheme", "multi-tree", "-n", "7", "-p", "12",
             "--mode", "retransmit", "--epsilon", "0.2", "--loss", "0.05"]
        ) == 0
        out = capsys.readouterr().out
        assert "repair tradeoff" in out
        assert "retransmit" in out
        assert "delay_cost" in out

    def test_repair_json_export(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        assert main(
            ["repair", "--scheme", "hypercube", "-n", "7", "-p", "12",
             "--mode", "parity", "--loss", "0.02", "--json", str(path)]
        ) == 0
        import json

        rows = json.loads(path.read_text())
        assert rows and rows[0]["scheme"] == "hypercube"
        assert rows[0]["mode"] == "parity"

    def test_repair_epsilon_sweep_only_applies_to_retransmit(self, capsys):
        assert main(
            ["repair", "--scheme", "multi-tree", "-n", "7", "-p", "12",
             "--mode", "none", "--loss", "0.02",
             "--epsilon", "0.1", "0.2", "0.3"]
        ) == 0
        out = capsys.readouterr().out
        # mode=none does not multiply rows by the epsilon sweep
        assert out.count("none") == 1


def _profile_phases(out: str) -> set[str]:
    """Names in the first column of the printed per-phase table."""
    lines = out.split("per-phase timings\n", 1)[1].splitlines()
    assert lines[0].split()[0] == "name"
    names = set()
    for line in lines[2:]:  # after the header and its rule
        if not line.strip() or line.startswith("events:"):
            break
        names.add(line.split()[0])
    return names


class TestStatsCommand:
    def test_stats_prints_all_sections(self, capsys):
        assert main(["stats", "--scheme", "multi-tree", "-n", "15", "-p", "9"]) == 0
        out = capsys.readouterr().out
        assert "metrics registry:" in out
        assert "engine.tx.sent" in out
        assert "event counts:" in out
        assert "tx_delivered" in out
        assert {"schedule", "validate", "deliver"} <= _profile_phases(out)

    def test_stats_lossy(self, capsys):
        assert main(
            ["stats", "--scheme", "multi-tree", "-n", "15", "-p", "9",
             "--drop-rate", "0.05", "--seed", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "tx_dropped" in out

    def test_stats_json_export(self, tmp_path, capsys):
        path = tmp_path / "stats.json"
        assert main(
            ["stats", "-n", "15", "-p", "9", "--json", str(path)]
        ) == 0
        import json

        payload = json.loads(path.read_text())
        assert payload["metrics"]["counters"]
        assert payload["event_counts"]["run_start"] == 1
        assert payload["profile"]["deliver"]["calls"] > 0

    def test_stats_drop_rate_rejects_static_schemes(self):
        with pytest.raises(SystemExit):
            main(["stats", "--scheme", "chain", "-n", "10", "--drop-rate", "0.1"])


class TestInstrumentationFlags:
    def test_simulate_profile_and_trace_events(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        assert main(
            ["simulate", "-n", "15", "-p", "9",
             "--profile", "--trace-events", str(events)]
        ) == 0
        out = capsys.readouterr().out
        assert {"schedule", "validate", "deliver"} <= _profile_phases(out)
        assert "events:" in out
        assert events.stat().st_size > 0

    def test_trace_events_replayable(self, tmp_path):
        from repro.obs.events import count_events, read_events_jsonl

        events = tmp_path / "events.jsonl"
        assert main(
            ["simulate", "-n", "15", "-p", "9", "--trace-events", str(events)]
        ) == 0
        counts = count_events(read_events_jsonl(events))
        assert counts["run_start"] == 1
        assert counts["tx_delivered"] > 0

    def test_repair_profile_flag(self, capsys):
        assert main(
            ["repair", "--scheme", "multi-tree", "-n", "7", "-p", "12",
             "--mode", "retransmit", "--loss", "0.05", "--profile"]
        ) == 0
        phases = _profile_phases(capsys.readouterr().out)
        assert {"schedule", "deliver", "repair_hook"} <= phases

    def test_churn_trace_events(self, tmp_path, capsys):
        events = tmp_path / "churn.jsonl"
        assert main(
            ["churn", "-n", "18", "--events", "3", "--seed", "5",
             "--trace-events", str(events)]
        ) == 0
        from repro.obs.events import count_events, read_events_jsonl

        counts = count_events(read_events_jsonl(events))
        assert counts["churn_applied"] > 0

    def test_instrumentation_does_not_change_results(self, capsys):
        assert main(["simulate", "-n", "12", "-p", "6"]) == 0
        bare = capsys.readouterr().out
        assert main(["simulate", "-n", "12", "-p", "6", "--profile"]) == 0
        profiled = capsys.readouterr().out
        assert bare.splitlines()[0] in profiled  # same metrics row


class TestSimulateLossFlags:
    def test_simulate_with_drop_rate(self, capsys):
        assert main(
            ["simulate", "--scheme", "multi-tree", "-n", "10", "-p", "8",
             "--drop-rate", "0.05", "--seed", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "residual" in out
        assert "loss 0.05" in out

    def test_simulate_drop_rate_rejects_static_schemes(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--scheme", "chain", "-n", "10", "--drop-rate", "0.1"])

    def test_simulate_seed_changes_gossip(self, capsys):
        assert main(
            ["simulate", "--scheme", "multi-tree", "-n", "10", "-p", "6", "--seed", "9"]
        ) == 0
        assert "max_delay" in capsys.readouterr().out


class TestErrorBoundary:
    @pytest.mark.parametrize("argv", [
        ["churn", "-n", "15", "-d", "0"],
        ["analyze", "--scheme", "multi-tree", "-n", "15", "-d", "0"],
        ["repair", "-n", "15", "-d", "0", "--loss", "0.05"],
        ["table1", "-n", "15", "-d", "0"],
        ["simulate", "-n", "15", "--seed", "-1", "--drop-rate", "0.05"],
        ["churn", "-n", "15", "--seed", "-1"],
    ], ids=lambda argv: " ".join(argv))
    def test_domain_error_is_one_line_and_status_1(self, argv):
        src = Path(__file__).resolve().parent.parent / "src"
        result = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert result.returncode == 1, result.stderr
        assert "Traceback" not in result.stdout + result.stderr
        assert len(result.stderr.strip().splitlines()) == 1, result.stderr


class TestVersionFlag:
    def test_version_prints_and_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == "repro 17.1.0"


class TestLintCommand:
    @pytest.mark.parametrize("flag", [
        "--stats", "--no-analyzers",
        "--baseline=x.json", "--write-baseline", "--model-cache=x.pickle",
    ])
    def test_removed_flags_are_usage_errors(self, flag):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", "src", flag])
        assert excinfo.value.code == 2

    def test_unparseable_file_fails_any_rule_selection(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        ok = tmp_path / "ok.py"
        bad.write_text("def broken(:\n")
        ok.write_text("X = 1\n")
        code = main(["lint", str(bad), str(ok), "--rules", "REP005"])
        out = capsys.readouterr().out
        assert code == 1
        assert f"{bad}:1:" in out and "REP000" in out
        assert "files: 2" in out


class TestFleetCommand:
    SMALL = [
        "fleet", "--sessions", "20", "--mode", "serial",
        "--config", "multi-tree:15:3:6", "--config", "chain:8:1:6",
    ]

    def test_dry_run_prints_resolved_scenario(self, capsys):
        assert main([*self.SMALL, "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "resolved sessions:" in out
        assert "multi-tree/N15/d3" in out
        assert out.count("\n") > 20  # one row per session

    def test_dry_run_executes_nothing(self, capsys):
        assert main([*self.SMALL, "--dry-run"]) == 0
        assert "cache" not in capsys.readouterr().out

    def test_small_run_reports_slos(self, capsys):
        assert main(self.SMALL) == 0
        out = capsys.readouterr().out
        assert "admitted" in out
        assert "startup_p99" in out
        assert "executor: serial" in out
        assert "18 hits / 2 misses" in out

    def test_json_export_round_trips(self, tmp_path, capsys):
        from repro.reporting.export import read_fleet_report_json

        path = tmp_path / "fleet.json"
        assert main([*self.SMALL, "--json", str(path)]) == 0
        report = read_fleet_report_json(path)
        assert report.num_sessions == 20
        assert report.cache_hit_rate == pytest.approx(18 / 20)

    def test_default_mixed_fleet(self, capsys):
        assert main(["fleet", "--sessions", "8", "--mode", "serial", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "multi-tree/N31/d3" in out

    def test_bad_config_rejected(self):
        with pytest.raises(SystemExit):
            main(["fleet", "--config", "multi-tree:31"])
        with pytest.raises(SystemExit):
            main(["fleet", "--config", "multi-tree:lots:3"])

    _CONFIG_FIELD = st.one_of(
        st.sampled_from([
            "multi-tree", "hypercube", "chain", "single-tree", "gossip", "",
            "0", "1", "3", "15", "-1", "2.5", "nan", "inf", "-inf", "1e400",
            "0.05", "1.5", "True", " 3", "99999999999999999999",
        ]),
        st.text(max_size=4),
    )

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_CONFIG_FIELD, max_size=7).map(":".join))
    def test_config_parses_or_exits_with_bad_config(self, text):
        try:
            spec = _parse_session_config(text)
        except SystemExit as exc:
            assert str(exc).startswith(f"bad --config {text!r}: ")
            return
        scheme, nodes, degree, *_ = text.split(":")
        assert (spec.scheme, spec.num_nodes, spec.degree) == (
            scheme, int(nodes), int(degree)
        )

    def test_churn_marked_in_dry_run(self, capsys):
        assert main(
            [*self.SMALL, "--churn-rate", "0.9", "--seed", "3", "--dry-run"]
        ) == 0
        assert "@0." in capsys.readouterr().out


class TestAbrCommand:
    SMALL = ["abr", "--profiles", "steady", "onoff", "--startup", "1", "2",
             "--chunks", "8", "--chunk-slots", "2"]

    def test_prints_rows_tiers_and_curves(self, capsys):
        assert main(self.SMALL) == 0
        out = capsys.readouterr().out
        assert "delay_slots" in out and "buffer_slots" in out
        assert "tiers:" in out
        assert "standard/" in out  # at least one per-tier curve line
        assert "4 points" in out

    def test_json_export_round_trips(self, tmp_path, capsys):
        from repro.reporting.export import read_abr_report_json

        path = tmp_path / "abr.json"
        assert main([*self.SMALL, "--json", str(path)]) == 0
        report = read_abr_report_json(path)
        assert report.profiles == ("steady", "onoff")
        assert report.startup_grid == (1, 2)
        assert len(report.points) == 4

    def test_unknown_profile_rejected(self):
        with pytest.raises(SystemExit):
            main(["abr", "--profiles", "lte"])

    def test_default_sweep_covers_three_tiers(self, capsys):
        # The acceptance scenario: the default grid populates >= 3 profiles
        # and all three QoE tiers.
        assert main(["abr"]) == 0
        out = capsys.readouterr().out
        tiers_line = next(l for l in out.splitlines() if l.startswith("tiers:"))
        for tier in ("premium=", "standard=", "degraded="):
            assert tier in tiers_line
        assert "=0" not in tiers_line  # every tier populated


class TestFleetTelemetryFlags:
    SMALL = [
        "fleet", "--sessions", "20", "--mode", "serial",
        "--config", "multi-tree:15:3:6", "--config", "chain:8:1:6",
    ]

    def test_sketch_aggregation_flag(self, capsys):
        assert main([*self.SMALL, "--aggregation", "sketch"]) == 0
        out = capsys.readouterr().out
        assert "startup_p99" in out
        assert "executor: serial" in out

    def test_until_converged_prints_state(self, capsys):
        assert main([
            "fleet", "--sessions", "600", "--mode", "serial",
            "--config", "chain:8:1:6",
            "--aggregation", "sketch", "--until-converged",
        ]) == 0
        out = capsys.readouterr().out
        assert "convergence:" in out
        assert "half_width" in out

    def test_telemetry_prints_windowed_series(self, capsys):
        assert main([*self.SMALL, "--telemetry"]) == 0
        out = capsys.readouterr().out
        assert "telemetry (per arrival window):" in out
        assert "fleet.sessions_completed" in out
        assert "fleet.startup_delay" in out

    def test_chrome_trace_export(self, tmp_path, capsys):
        import json

        path = tmp_path / "trace.json"
        assert main([*self.SMALL, "--chrome-trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "chrome trace" in out
        trace = json.loads(path.read_text())
        names = {e["name"] for e in trace["traceEvents"]}
        assert "fleet.execute" in names
        assert "session.replay" in names
        assert all(e["ph"] == "X" for e in trace["traceEvents"])

    def test_telemetry_matches_plain_report(self, tmp_path, capsys):
        from repro.reporting.export import read_fleet_report_json

        plain = tmp_path / "plain.json"
        instrumented = tmp_path / "telemetry.json"
        assert main([*self.SMALL, "--json", str(plain)]) == 0
        assert main([*self.SMALL, "--telemetry", "--json", str(instrumented)]) == 0
        assert read_fleet_report_json(plain) == read_fleet_report_json(instrumented)

    def test_telemetry_run_is_recorded_like_a_plain_run(self, tmp_path, capsys):
        from repro.reporting.ledger import RunLedger

        plain, traced = tmp_path / "plain.jsonl", tmp_path / "traced.jsonl"
        trace = tmp_path / "trace.json"
        assert main([*self.SMALL, "--ledger", str(plain)]) == 0
        assert main([
            *self.SMALL, "--telemetry", "--chrome-trace", str(trace),
            "--ledger", str(traced),
        ]) == 0
        out = capsys.readouterr().out
        assert "telemetry (per arrival window):" in out
        assert json.loads(trace.read_text())["traceEvents"]
        (expected,), (record,) = list(RunLedger(plain)), list(RunLedger(traced))
        assert record["record"] == "run"
        assert record["provenance"] == expected["provenance"]


class TestRunsAndReportCommands:
    FLEET = [
        "fleet", "--sessions", "12", "--mode", "serial",
        "--config", "chain:8:1:6",
    ]

    def test_runs_empty_ledger(self, tmp_path, capsys):
        path = tmp_path / "none.jsonl"
        assert main(["runs", "--ledger", str(path)]) == 0
        assert "no runs recorded" in capsys.readouterr().out

    def test_fleet_appends_and_runs_lists(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        assert main([*self.FLEET, "--ledger", str(ledger)]) == 0
        assert main([*self.FLEET, "--ledger", str(ledger)]) == 0
        capsys.readouterr()
        assert main(["runs", "--ledger", str(ledger)]) == 0
        out = capsys.readouterr().out
        assert "2 run(s)" in out
        assert "fleet" in out

    def test_runs_json_output(self, tmp_path, capsys):
        import json

        ledger = tmp_path / "ledger.jsonl"
        assert main([*self.FLEET, "--ledger", str(ledger)]) == 0
        capsys.readouterr()
        assert main(["runs", "--ledger", str(ledger), "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 1
        assert records[0]["record"] == "run"
        assert records[0]["spec"]["kind"] == "fleet"
        assert records[0]["spec"]["fleet_sessions"] == 12

    def test_runs_respects_env_var(self, tmp_path, capsys, monkeypatch):
        from repro.reporting.ledger import LEDGER_ENV_VAR

        ledger = tmp_path / "env.jsonl"
        monkeypatch.setenv(LEDGER_ENV_VAR, str(ledger))
        assert main(self.FLEET) == 0
        capsys.readouterr()
        assert main(["runs"]) == 0
        assert "1 run(s)" in capsys.readouterr().out

    def test_runs_last_limits(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        for _ in range(3):
            assert main([*self.FLEET, "--ledger", str(ledger)]) == 0
        capsys.readouterr()
        assert main(["runs", "--ledger", str(ledger), "--last", "2"]) == 0
        assert "2 run(s)" in capsys.readouterr().out

    def test_runs_summarizes_by_kind(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        assert main([*self.FLEET, "--ledger", str(ledger)]) == 0
        assert main([*self.FLEET, "--ledger", str(ledger)]) == 0
        capsys.readouterr()
        assert main(["runs", "--ledger", str(ledger), "--last", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        # The summary covers the whole ledger, ahead of the --last table.
        assert lines[0].startswith(f"run ledger {ledger}: 2 run(s), ")
        assert lines[0].endswith("s recorded wall time")
        assert lines[1] == "  by kind: fleet=2"
        assert any(line.startswith("1 run(s) from") for line in lines)

    def test_report_command_removed(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["report"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'report'" in capsys.readouterr().err


class TestControlCommand:
    SMALL = ["control", "--scale", "0.2"]

    def test_comparison_table(self, capsys):
        assert main(self.SMALL) == 0
        out = capsys.readouterr().out
        assert "48 offered sessions" in out
        for policy in ("queue", "reject", "degrade", "adaptive"):
            assert policy in out

    def test_single_policy_run(self, capsys):
        assert main([*self.SMALL, "--policy", "queue"]) == 0
        out = capsys.readouterr().out
        assert "queue" in out
        assert "adaptive" not in out

    def test_decision_log_printed(self, capsys):
        assert main([*self.SMALL, "--decisions"]) == 0
        out = capsys.readouterr().out
        assert "control plane decisions:" in out
        assert "retune" in out

    def test_ledger_and_json_exports(self, tmp_path, capsys):
        import json

        from repro.control import decisions_from_record
        from repro.reporting.ledger import RunLedger

        ledger = tmp_path / "ledger.jsonl"
        report = tmp_path / "control.json"
        assert main([
            *self.SMALL, "--ledger", str(ledger), "--json", str(report),
        ]) == 0
        records = [
            r for r in RunLedger(ledger) if r.get("record") == "control"
        ]
        assert len(records) == 1
        replayed = decisions_from_record(records[0])
        payload = json.loads(report.read_text())
        assert [d.to_dict() for d in replayed] == payload["decisions"]
        assert len(payload["policies"]) == 4
