"""Tests for the run ledger (repro.reporting.ledger)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.errors import ReproError
from repro.exec.executor import ExecutorPolicy
from repro.experiments import ExperimentSpec, run
from repro.reporting.ledger import (
    LEDGER_ENV_VAR,
    LEDGER_VERSION,
    RunLedger,
    default_ledger,
    run_record,
)


class TestRunLedger:
    def test_append_stamps_envelope(self, tmp_path):
        ledger = RunLedger(tmp_path / "nested" / "ledger.jsonl")
        stamped = ledger.append({"record": "run", "x": 1})
        assert stamped["ledger_version"] == LEDGER_VERSION
        assert stamped["repro_version"] == repro.__version__
        assert stamped["time_s"] > 0
        assert stamped["x"] == 1
        assert ledger.records() == [stamped]

    def test_explicit_time_s_preserved(self, tmp_path):
        ledger = RunLedger(tmp_path / "l.jsonl")
        stamped = ledger.append({"record": "run", "time_s": 123.0})
        assert stamped["time_s"] == 123.0

    def test_rejects_non_dict(self, tmp_path):
        with pytest.raises(ReproError):
            RunLedger(tmp_path / "l.jsonl").append(["not", "a", "dict"])

    def test_missing_file_is_empty(self, tmp_path):
        ledger = RunLedger(tmp_path / "absent.jsonl")
        assert ledger.records() == []
        assert len(ledger) == 0

    def test_torn_and_foreign_lines_skipped(self, tmp_path):
        path = tmp_path / "l.jsonl"
        ledger = RunLedger(path)
        ledger.append({"record": "run", "n": 1})
        with path.open("a") as fh:
            fh.write("[1, 2, 3]\n")       # valid JSON, not a dict
            fh.write("\n")                 # blank
            fh.write('{"record": "run"')  # torn final line
        records = ledger.records()
        assert len(records) == 1
        assert records[0]["n"] == 1

    def test_append_only_accumulates(self, tmp_path):
        ledger = RunLedger(tmp_path / "l.jsonl")
        for i in range(5):
            ledger.append({"record": "run", "i": i})
        assert [r["i"] for r in ledger] == [0, 1, 2, 3, 4]
        assert len(ledger) == 5

    def test_tail(self, tmp_path):
        ledger = RunLedger(tmp_path / "l.jsonl")
        for i in range(4):
            ledger.append({"i": i})
        assert [r["i"] for r in ledger.tail(2)] == [2, 3]
        assert [r["i"] for r in ledger.tail(99)] == [0, 1, 2, 3]
        assert ledger.tail(0) == []
        with pytest.raises(ReproError):
            ledger.tail(-1)


class TestDefaultLedger:
    def test_unset_env_means_none(self, monkeypatch):
        monkeypatch.delenv(LEDGER_ENV_VAR, raising=False)
        assert default_ledger() is None
        monkeypatch.setenv(LEDGER_ENV_VAR, "  ")
        assert default_ledger() is None

    def test_env_names_the_path(self, monkeypatch, tmp_path):
        monkeypatch.setenv(LEDGER_ENV_VAR, str(tmp_path / "env.jsonl"))
        ledger = default_ledger()
        assert ledger is not None
        assert ledger.path == tmp_path / "env.jsonl"


#: Appends COUNT ``run`` records of about PAD bytes to ``$REPRO_LEDGER``,
#: after printing "ready" and reading one line (so two writers start together).
_WRITER = """
import sys
from repro.reporting.ledger import default_ledger
ledger = default_ledger()
print("ready", flush=True)
sys.stdin.readline()
name, count, pad = sys.argv[1], int(sys.argv[2]), "x" * int(sys.argv[3])
for seq in range(count):
    ledger.append({"record": "run", "writer": name, "seq": seq, "pad": pad})
"""


class TestSharedLedger:
    """Two processes appending to one ``$REPRO_LEDGER``: every record reads
    back exactly once and no line is torn, with records larger than
    Python's 8 KB write buffer."""

    COUNT, PAD = 200, 20_000

    def test_two_writers_lose_and_tear_nothing(self, tmp_path):
        path = tmp_path / "shared.jsonl"
        env = {**os.environ, LEDGER_ENV_VAR: str(path),
               "PYTHONPATH": str(Path(repro.__file__).parents[1])}
        writers = [
            subprocess.Popen(
                [sys.executable, "-c", _WRITER, name, str(self.COUNT), str(self.PAD)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
            )
            for name in ("a", "b")
        ]
        assert [writer.stdout.readline() for writer in writers] == ["ready\n"] * 2
        for writer in writers:
            writer.stdin.write("go\n")
            writer.stdin.close()
        assert [writer.wait(timeout=60) for writer in writers] == [0, 0]
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert sorted((r["writer"], r["seq"]) for r in records) == [
            (name, seq) for name in ("a", "b") for seq in range(self.COUNT)
        ]
        assert all(len(r["pad"]) == self.PAD for r in records)
        assert RunLedger(path).records() == records


class TestRunRecord:
    def test_facade_appends_one_record_per_run(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        spec = ExperimentSpec(
            scheme="chain", num_nodes=8, degree=1, num_packets=4,
            executor=ExecutorPolicy(mode="serial"),
        )
        run(spec, ledger=path)
        run(spec, ledger=RunLedger(path))
        records = RunLedger(path).records()
        assert len(records) == 2
        for record in records:
            assert record["record"] == "run"
            assert record["spec"]["scheme"] == "chain"
            assert record["spec"]["kind"] == "stream"
            assert record["rows"] == 1
            assert record["timing_s"] >= 0
            assert "cache" in record["provenance"]
            json.dumps(record)  # self-contained plain JSON

    def test_env_var_default(self, monkeypatch, tmp_path):
        path = tmp_path / "env-ledger.jsonl"
        monkeypatch.setenv(LEDGER_ENV_VAR, str(path))
        run(ExperimentSpec(
            scheme="chain", num_nodes=6, degree=1, num_packets=3,
            executor=ExecutorPolicy(mode="serial"),
        ))
        assert len(RunLedger(path)) == 1

    def test_no_ledger_no_file(self, monkeypatch, tmp_path):
        monkeypatch.delenv(LEDGER_ENV_VAR, raising=False)
        monkeypatch.chdir(tmp_path)
        run(ExperimentSpec(
            scheme="chain", num_nodes=6, degree=1, num_packets=3,
            executor=ExecutorPolicy(mode="serial"),
        ))
        assert list(tmp_path.iterdir()) == []

    def test_fleet_spec_summary(self, tmp_path):
        fleet = repro.FleetSpec(
            sessions=(repro.SessionSpec(num_nodes=15, num_packets=4),),
            num_sessions=6,
        )
        spec = ExperimentSpec(
            kind="fleet", fleet=fleet, executor=ExecutorPolicy(mode="serial")
        )
        result = run(spec)
        record = run_record(spec, result)
        assert record["spec"]["fleet_sessions"] == 6
        assert record["spec"]["aggregation"] == "exact"
        assert "run_until_converged" not in record["spec"]

