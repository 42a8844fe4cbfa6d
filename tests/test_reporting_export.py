"""Tests for trace export/import."""

from __future__ import annotations

import csv
import json
import re

import pytest

from repro.core.engine import simulate
from repro.core.errors import ReproError
from repro.core.metrics import collect_metrics
from repro.reporting.export import (
    metrics_to_dict,
    read_trace_json,
    trace_to_dict,
    write_arrivals_csv,
    write_trace_json,
    write_transmissions_csv,
)
from repro.trees import MultiTreeProtocol


@pytest.fixture(scope="module")
def trace():
    protocol = MultiTreeProtocol(9, 3)
    return simulate(protocol, protocol.slots_for_packets(6))


class TestJson:
    def test_round_trip(self, trace, tmp_path):
        path = write_trace_json(trace, tmp_path / "t.json")
        loaded = read_trace_json(path)
        assert loaded["num_slots"] == trace.num_slots
        assert loaded["arrivals"][1] == dict(trace.arrivals(1))
        assert loaded["neighbors"][1] == sorted(trace.nodes[1].neighbors)

    def test_transmissions_optional(self, trace):
        with_tx = trace_to_dict(trace)
        without = trace_to_dict(trace, include_transmissions=False)
        assert len(with_tx["transmissions"]) == len(trace.transmissions)
        assert "transmissions" not in without

    def test_version_check(self, trace, tmp_path):
        path = write_trace_json(trace, tmp_path / "t.json")
        payload = json.loads(path.read_text())
        payload["format_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ReproError, match="version"):
            read_trace_json(path)

    def test_json_is_plain_types(self, trace):
        json.dumps(trace_to_dict(trace))  # must not raise


class TestCsv:
    def test_transmissions_csv(self, trace, tmp_path):
        path = write_transmissions_csv(trace, tmp_path / "tx.csv")
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(trace.transmissions)
        assert rows[0]["sender"] == "0"  # the source transmits first

    def test_arrivals_csv(self, trace, tmp_path):
        path = write_arrivals_csv(trace, tmp_path / "arr.csv")
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        expected = sum(len(s.arrivals) for s in trace.nodes.values())
        assert len(rows) == expected


class TestMetricsExport:
    def test_metrics_dict(self, trace):
        metrics = collect_metrics(trace, num_packets=6)
        payload = metrics_to_dict(metrics)
        json.dumps(payload)
        assert payload["num_nodes"] == 9
        assert payload["per_node"]["1"]["startup_delay"] >= 1


class TestInstrumentationExport:
    def _instrumented_run(self):
        from repro.obs import Instrumentation

        instr = Instrumentation.collecting(profile=True)
        protocol = MultiTreeProtocol(9, 3)
        run = simulate(protocol, protocol.slots_for_packets(6), instrumentation=instr)
        return run, instr

    def test_trace_to_dict_embeds_instrumentation(self):
        run, instr = self._instrumented_run()
        payload = trace_to_dict(run, instrumentation=instr)
        json.dumps(payload)  # must stay plain types
        embedded = payload["instrumentation"]
        assert embedded["event_counts"]["run_start"] == 1
        assert any(
            row["name"] == "engine.tx.sent" for row in embedded["metrics"]["counters"]
        )
        deliver = embedded["profile"]["deliver"]
        assert deliver["calls"] == run.num_slots  # one deliver span per slot
        assert set(deliver) == {
            "calls", "total_s", "self_s", "mean_us", "max_us", "share_pct",
        }

    def test_trace_to_dict_without_instrumentation_unchanged(self, trace):
        assert "instrumentation" not in trace_to_dict(trace)

    def test_write_metrics_json(self, tmp_path):
        from repro.reporting.export import write_metrics_json

        _, instr = self._instrumented_run()
        path = write_metrics_json(instr, tmp_path / "metrics.json")
        payload = json.loads(path.read_text())
        assert set(payload) >= {"metrics", "profile", "event_counts"}


class TestVersionedEnvelopes:
    """The repro_version envelope field and its major-mismatch rejection."""

    def _abr_report(self):
        from repro.abr import abr_tradeoff

        return abr_tradeoff(("steady", "onoff"), (1, 2), num_chunks=6,
                            chunk_slots=2, seed=1)

    def test_abr_report_round_trip(self, tmp_path):
        from repro.reporting.export import (
            read_abr_report_json,
            write_abr_report_json,
        )

        report = self._abr_report()
        path = write_abr_report_json(report, tmp_path / "abr.json")
        assert read_abr_report_json(path) == report

    def test_envelope_carries_version_and_kind(self, tmp_path):
        import repro
        from repro.reporting.export import abr_report_to_dict, fleet_report_to_dict
        from repro.service.runner import FleetRunner
        from repro.service.spec import FleetSpec, SessionSpec

        abr_payload = abr_report_to_dict(self._abr_report())
        assert abr_payload["kind"] == "abr_tradeoff_report"
        assert abr_payload["repro_version"] == repro.__version__

        fleet = FleetSpec(sessions=(SessionSpec(num_nodes=7, num_packets=4),),
                          num_sessions=3)
        result = FleetRunner().run(fleet)
        fleet_payload = fleet_report_to_dict(result.report)
        assert fleet_payload["kind"] == "fleet_slo_report"
        assert fleet_payload["repro_version"] == repro.__version__

    def test_major_version_mismatch_rejected(self, tmp_path):
        from repro.reporting.export import (
            read_abr_report_json,
            write_abr_report_json,
        )

        path = write_abr_report_json(self._abr_report(), tmp_path / "abr.json")
        payload = json.loads(path.read_text())
        payload["repro_version"] = "99.0.0"
        path.write_text(json.dumps(payload))
        with pytest.raises(ReproError, match="different major version"):
            read_abr_report_json(path)

    def test_minor_version_drift_accepted(self, tmp_path):
        import repro
        from repro.reporting.export import (
            read_abr_report_json,
            write_abr_report_json,
        )

        report = self._abr_report()
        path = write_abr_report_json(report, tmp_path / "abr.json")
        payload = json.loads(path.read_text())
        major = repro.__version__.split(".", 1)[0]
        payload["repro_version"] = f"{major}.999.0"
        path.write_text(json.dumps(payload))
        assert read_abr_report_json(path) == report

    def test_legacy_report_without_version_accepted(self, tmp_path):
        from repro.reporting.export import (
            read_abr_report_json,
            write_abr_report_json,
        )

        report = self._abr_report()
        path = write_abr_report_json(report, tmp_path / "abr.json")
        payload = json.loads(path.read_text())
        del payload["repro_version"]
        path.write_text(json.dumps(payload))
        assert read_abr_report_json(path) == report

    @pytest.mark.parametrize(("field", "value"), [("seed", "x"), ("seed", 1.7),
                                                  ("delay_slots", None)])
    def test_malformed_point_rejected(self, tmp_path, field, value):
        from repro.reporting.export import read_abr_report_json, write_abr_report_json

        path = write_abr_report_json(self._abr_report(), tmp_path / "abr.json")
        payload = json.loads(path.read_text())
        payload["report"]["points"][2][field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ReproError, match=f"ABR report point 2: field '{field}' must be int"):
            read_abr_report_json(path)

    def test_malformed_point_qoe_rejected(self, tmp_path):
        from repro.reporting.export import read_abr_report_json, write_abr_report_json

        path = write_abr_report_json(self._abr_report(), tmp_path / "abr.json")
        payload = json.loads(path.read_text())
        payload["report"]["points"][0]["qoe"]["rebuffer_events"] = "many"
        path.write_text(json.dumps(payload))
        with pytest.raises(ReproError, match="point 0 qoe: field 'rebuffer_events' must be int"):
            read_abr_report_json(path)

    def test_wrong_kind_rejected(self, tmp_path):
        from repro.reporting.export import (
            read_fleet_report_json,
            write_abr_report_json,
        )

        path = write_abr_report_json(self._abr_report(), tmp_path / "abr.json")
        with pytest.raises(ReproError, match="not a fleet SLO report"):
            read_fleet_report_json(path)


class TestMalformedFiles:
    """Every reader goes through one JSON loader: a file that does not hold
    one JSON object raises a ReproError naming the path."""

    @pytest.mark.parametrize("text, problem", [
        ("[1, 2]", "must hold a JSON object, got list"),
        ("{oops", "is not valid JSON"),
    ], ids=["list", "undecodable"])
    @pytest.mark.parametrize("reader", [
        "read_trace_json", "read_fleet_report_json", "read_abr_report_json",
    ])
    def test_reader_names_the_path(self, tmp_path, text, problem, reader):
        import repro.reporting.export as export

        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(ReproError, match=f"{path} {problem}"):
            getattr(export, reader)(path)

    def test_missing_report_object(self, tmp_path):
        from repro.reporting.export import read_fleet_report_json

        path = tmp_path / "bare.json"
        path.write_text('{"format_version": 1, "kind": "fleet_slo_report"}')
        with pytest.raises(ReproError, match="'report' must be an object, got NoneType"):
            read_fleet_report_json(path)

    @pytest.mark.parametrize("section, change, problem", [
        ("arrivals", {"x": {}}, "arrivals: key 'x' is not an int"),
        ("arrivals", {"1": {"0": "late"}}, "arrivals[1][0]: slot must be an int, got 'late'"),
        ("neighbors", [], "neighbors must be an object, got list"),
        ("transmissions", [{"slot": 0}], "transmission 0: missing field 'sender'"),
    ], ids=["node-key", "slot", "neighbors", "transmission"])
    def test_trace_entry_is_named(self, trace, tmp_path, section, change, problem):
        path = write_trace_json(trace, tmp_path / "t.json")
        payload = json.loads(path.read_text())
        payload[section] = change
        path.write_text(json.dumps(payload))
        with pytest.raises(ReproError, match=re.escape(f"trace JSON {path} {problem}")):
            read_trace_json(path)


class TestTraceFromDict:
    def test_round_trip_rebuild(self, trace, tmp_path):
        from repro.check import check_trace
        from repro.reporting.export import trace_from_dict

        rebuilt = trace_from_dict(trace_to_dict(trace))
        assert rebuilt.arrivals(1) == dict(trace.arrivals(1))
        assert len(rebuilt.transmissions) == len(trace.transmissions)
        assert rebuilt.source_states[0].packets_sent == trace.source_states[0].packets_sent
        report = check_trace(
            rebuilt,
            send_capacity=lambda n: 3 if n == 0 else 1,
            recv_capacity=lambda n: 1,
        )
        assert report.ok, report.violations

    def test_rebuild_from_json_file(self, trace, tmp_path):
        from repro.reporting.export import read_trace_json, trace_from_dict

        path = write_trace_json(trace, tmp_path / "t.json")
        rebuilt = trace_from_dict(read_trace_json(path))
        assert rebuilt.num_slots == trace.num_slots

    def test_rebuild_without_arrivals_rejected(self):
        from repro.reporting.export import trace_from_dict

        with pytest.raises(ReproError, match="arrivals"):
            trace_from_dict({"num_slots": 3})
