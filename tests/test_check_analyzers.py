"""Adversarial fixtures for the model-based analyzer passes (REP005–REP007).

Every rule gets at least one fixture that triggers exactly that rule and a
near-miss twin that must stay clean (mirroring ``test_check_schedule.py``'s
pattern).  ``TestTaint`` keeps the fixtures of the retired flow check:
``lint_project`` must flag their nondeterministic sources at the call
(REP001/REP002) and leave their near misses clean.  Then come tests for
the project model itself (the one reader: symbol table, resolvers, one
parse per file, REP000 for what it cannot read), rule selection, and a
repo-clean gate: ``lint_project`` over the real ``src/`` tree must exit
clean, and the declared metric registry must carry no dead names.

Fixture trees are written under ``tmp_path/proj/repro/...`` so
:func:`repro.check.model.module_name_for` anchors them at the ``repro``
package root — which is also what lets a fixture ship its *own*
``repro.obs.names`` registry for the REP006 tests instead of resolving
against the installed one.
"""

import ast
import textwrap
from pathlib import Path

import pytest

from repro.check import (
    ANALYZER_RULES,
    ProjectModel,
    build_project_model,
    lint_project,
    run_analyzers,
)
from repro.check.analyzers import (
    frozen_spec,
    metric_names,
    process_safety,
)
from repro.check.model import module_name_for


def write_tree(root: Path, files: dict[str, str]) -> Path:
    """Write ``{relpath: source}`` under ``root/proj`` and return it."""
    base = root / "proj"
    for rel, source in files.items():
        path = base / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return base


def model_of(root: Path, files: dict[str, str]) -> ProjectModel:
    return build_project_model([write_tree(root, files)])


def rules_of(violations):
    return sorted(v.rule for v in violations)


# A minimal registry pair every REP006 fixture can include.
REGISTRY_FILES = {
    "repro/obs/names.py": """
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class MetricSpec:
            name: str
            kind: str

        METRIC_SPECS = (
            MetricSpec("fleet.sessions", "counter"),
            MetricSpec("fleet.goodput", "gauge"),
        )
        METRIC_NAMES = {s.name: s for s in METRIC_SPECS}
        """,
    "repro/obs/events.py": """
        SESSION_ADMITTED = "session_admitted"
        EVENT_SCHEMA = {SESSION_ADMITTED: ("slot",)}
        """,
}


# ---------------------------------------------------------------------- REP005
class TestProcessSafety:
    WORKER_TRIGGER = {
        "repro/exec/worker.py": """
            _CACHE = {}

            def worker(task):
                _CACHE[task] = 1  # shared-state write in the worker
                return task
            """,
        "repro/exec/driver.py": """
            from concurrent.futures import ProcessPoolExecutor

            from repro.exec.worker import worker

            def run(tasks):
                executor = ProcessPoolExecutor()
                return list(executor.map(worker, tasks))
            """,
    }

    def test_worker_global_write_fires(self, tmp_path):
        found = process_safety.analyze(model_of(tmp_path, self.WORKER_TRIGGER))
        assert rules_of(found) == ["REP005"]
        assert "worker" in found[0].message
        assert found[0].path.endswith("worker.py")

    def test_near_miss_unmapped_twin_is_clean(self, tmp_path):
        # Identical mutation, never shipped to a pool by name: it still
        # fires, because worker code reaches functions no call graph sees.
        files = dict(self.WORKER_TRIGGER)
        files["repro/exec/driver.py"] = """
            from repro.exec.worker import worker

            def run(tasks):
                return [worker(t) for t in tasks]
            """
        found = process_safety.analyze(model_of(tmp_path, files))
        assert rules_of(found) == ["REP005"]
        assert "'worker'" in found[0].message

    def test_method_write_fires(self, tmp_path):
        # A method reached through an object, as BatchMetrics.rows is from
        # replay_batch_task: no call-graph root, still checked.
        files = {
            "repro/exec/metrics.py": """
                _ROWS_SEEN = []

                class Metrics:
                    def rows(self):
                        out = [1]
                        _ROWS_SEEN.append(out)
                        return out
                """,
        }
        found = process_safety.analyze(model_of(tmp_path, files))
        assert rules_of(found) == ["REP005"]
        assert "_ROWS_SEEN" in found[0].message
        assert "'Metrics.rows'" in found[0].message

    def test_near_miss_local_mutation_is_clean(self, tmp_path):
        files = dict(self.WORKER_TRIGGER)
        files["repro/exec/worker.py"] = """
            def worker(task):
                cache = {}
                cache[task] = 1  # local: workers own their locals
                return task
            """
        assert process_safety.analyze(model_of(tmp_path, files)) == []

    def test_transitive_callee_is_caught(self, tmp_path):
        files = dict(self.WORKER_TRIGGER)
        files["repro/exec/worker.py"] = """
            _SEEN = []

            def record(task):
                _SEEN.append(task)

            def worker(task):
                record(task)
                return task
            """
        found = process_safety.analyze(model_of(tmp_path, files))
        assert rules_of(found) == ["REP005"]
        assert "record" in found[0].message

    def test_initializer_is_a_root(self, tmp_path):
        files = {
            "repro/exec/driver.py": """
                from concurrent.futures import ProcessPoolExecutor

                _STATE = []

                def init():
                    _STATE.append(1)

                def run(tasks):
                    with ProcessPoolExecutor(initializer=init) as pool:
                        return list(pool.map(str, tasks))
                """,
        }
        found = process_safety.analyze(model_of(tmp_path, files))
        assert rules_of(found) == ["REP005"]

    def test_line_pragma_suppresses(self, tmp_path):
        files = dict(self.WORKER_TRIGGER)
        files["repro/exec/worker.py"] = """
            _CACHE = {}

            def worker(task):
                _CACHE[task] = 1  # repro-lint: disable=REP005 -- per-process
                return task
            """
        model = model_of(tmp_path, files)
        assert process_safety.analyze(model)  # raw pass still sees it
        assert run_analyzers(model) == []  # pragma filter removes it


# ---------------------------------------------------------------------- REP006
class TestMetricNames:
    def test_undeclared_metric_fires(self, tmp_path):
        files = dict(REGISTRY_FILES)
        files["repro/service/emit.py"] = """
            def record(registry):
                registry.counter("fleet.session").inc()  # drifted: no final s
            """
        found = metric_names.analyze(model_of(tmp_path, files))
        assert rules_of(found) == ["REP006"]
        assert "fleet.session" in found[0].message

    def test_near_miss_declared_twin_is_clean(self, tmp_path):
        files = dict(REGISTRY_FILES)
        files["repro/service/emit.py"] = """
            def record(registry):
                registry.counter("fleet.sessions").inc()
            """
        assert metric_names.analyze(model_of(tmp_path, files)) == []

    def test_name_resolved_through_constant_chain(self, tmp_path):
        files = dict(REGISTRY_FILES)
        files["repro/service/consts.py"] = 'BAD = "fleet.oops"\n'
        files["repro/service/emit.py"] = """
            from repro.service.consts import BAD

            def record(registry):
                registry.gauge(BAD).set(1.0)
            """
        found = metric_names.analyze(model_of(tmp_path, files))
        assert rules_of(found) == ["REP006"]
        assert "fleet.oops" in found[0].message

    def test_undeclared_event_fires(self, tmp_path):
        files = dict(REGISTRY_FILES)
        files["repro/service/emit.py"] = """
            def record(tracer):
                tracer.emit("session_admited", 0)  # typo'd event name
            """
        found = metric_names.analyze(model_of(tmp_path, files))
        assert rules_of(found) == ["REP006"]
        assert "EVENT_SCHEMA" in found[0].message

    def test_near_miss_declared_event_is_clean(self, tmp_path):
        files = dict(REGISTRY_FILES)
        files["repro/service/emit.py"] = """
            def record(tracer):
                tracer.emit("session_admitted", 0)
            """
        assert metric_names.analyze(model_of(tmp_path, files)) == []

    def test_dynamic_names_are_skipped(self, tmp_path):
        files = dict(REGISTRY_FILES)
        files["repro/service/emit.py"] = """
            def record(registry, status):
                registry.counter(f"fleet.{status}").inc()
            """
        assert metric_names.analyze(model_of(tmp_path, files)) == []

    def test_str_count_never_matches(self, tmp_path):
        files = dict(REGISTRY_FILES)
        files["repro/service/emit.py"] = """
            def tally(text):
                return text.count("fleet.nope")
            """
        assert metric_names.analyze(model_of(tmp_path, files)) == []

    def test_unused_metric_names(self, tmp_path):
        files = dict(REGISTRY_FILES)
        files["repro/service/emit.py"] = """
            def record(registry):
                registry.counter("fleet.sessions").inc()
            """
        model = model_of(tmp_path, files)
        assert metric_names.unused_metric_names(model) == {"fleet.goodput"}


# ---------------------------------------------------------------------- REP007
class TestFrozenSpec:
    def test_object_setattr_outside_constructor_fires(self, tmp_path):
        files = {
            "repro/service/spec.py": """
                from dataclasses import dataclass

                @dataclass(frozen=True)
                class SessionSpec:
                    nodes: int

                def degrade(spec):
                    object.__setattr__(spec, "nodes", 1)
                    return spec
                """,
        }
        found = frozen_spec.analyze(model_of(tmp_path, files))
        assert rules_of(found) == ["REP007"]

    def test_near_miss_post_init_is_clean(self, tmp_path):
        files = {
            "repro/service/spec.py": """
                from dataclasses import dataclass

                @dataclass(frozen=True)
                class SessionSpec:
                    nodes: int

                    def __post_init__(self):
                        object.__setattr__(self, "nodes", max(1, self.nodes))
                """,
        }
        assert frozen_spec.analyze(model_of(tmp_path, files)) == []

    def test_direct_set_on_constructed_spec_fires(self, tmp_path):
        files = {
            "repro/service/spec.py": """
                from dataclasses import dataclass

                @dataclass(frozen=True)
                class SessionSpec:
                    nodes: int
                """,
            "repro/service/use.py": """
                from repro.service.spec import SessionSpec

                def build():
                    spec = SessionSpec(nodes=4)
                    spec.nodes = 8
                    return spec
                """,
        }
        found = frozen_spec.analyze(model_of(tmp_path, files))
        assert rules_of(found) == ["REP007"]
        assert "dataclasses.replace" in found[0].message

    def test_near_miss_unfrozen_twin_is_clean(self, tmp_path):
        files = {
            "repro/service/spec.py": """
                from dataclasses import dataclass

                @dataclass
                class MutableConfig:
                    nodes: int
                """,
            "repro/service/use.py": """
                from repro.service.spec import MutableConfig

                def build():
                    cfg = MutableConfig(nodes=4)
                    cfg.nodes = 8
                    return cfg
                """,
        }
        assert frozen_spec.analyze(model_of(tmp_path, files)) == []

    def test_self_write_in_frozen_method_fires(self, tmp_path):
        files = {
            "repro/service/spec.py": """
                from dataclasses import dataclass

                @dataclass(frozen=True)
                class SessionSpec:
                    nodes: int

                    def grow(self):
                        self.nodes = self.nodes + 1
                """,
        }
        found = frozen_spec.analyze(model_of(tmp_path, files))
        assert rules_of(found) == ["REP007"]
        assert "FrozenInstanceError" in found[0].message


# ------------------------------------------- REP001/REP002 at the source call
class TestTaint:
    """The retired REP008 flow fixtures: the source call itself is flagged."""

    def test_clock_through_assignment_fires(self, tmp_path):
        files = {
            "repro/service/emit.py": """
                import time

                def record(registry):
                    started = time.time()
                    elapsed = started - 100.0
                    registry.histogram("fleet.startup_delay").observe(elapsed)
                """,
        }
        found = lint_project([write_tree(tmp_path, files)]).violations
        assert rules_of(found) == ["REP002"]
        assert found[0].line == 5  # the read, not the sink
        assert "time.time()" in found[0].message

    def test_near_miss_seeded_rng_is_clean(self, tmp_path):
        files = {
            "repro/service/emit.py": """
                import numpy as np

                def record(registry, seed):
                    rng = np.random.default_rng(seed)
                    value = float(rng.integers(10))
                    registry.histogram("fleet.startup_delay").observe(value)
                """,
        }
        assert lint_project([write_tree(tmp_path, files)]).clean

    def test_near_miss_obs_wrapper_is_clean(self, tmp_path):
        files = {
            "repro/service/emit.py": """
                from repro.obs.spans import wall_time_s

                def record(ledger):
                    stamp = wall_time_s()
                    ledger.append({"time_s": stamp})
                """,
        }
        assert lint_project([write_tree(tmp_path, files)]).clean

    def test_unseeded_rng_into_ledger_fires(self, tmp_path):
        files = {
            "repro/reporting/rec.py": """
                import random

                from repro.reporting.ledger import RunLedger

                def record(path):
                    jitter = random.random()
                    ledger = RunLedger(path)
                    ledger.append({"jitter": jitter})
                """,
        }
        found = lint_project([write_tree(tmp_path, files)]).violations
        assert rules_of(found) == ["REP001"]
        assert "random.random()" in found[0].message

    def test_direct_source_in_sink_fires(self, tmp_path):
        files = {
            "repro/service/emit.py": """
                import time

                def record(registry):
                    registry.gauge("fleet.goodput").set(time.monotonic())
                """,
        }
        found = lint_project([write_tree(tmp_path, files)]).violations
        assert rules_of(found) == ["REP002"]

    def test_obs_modules_are_exempt(self, tmp_path):
        files = {
            "repro/obs/clock.py": """
                import time

                def stamp(registry):
                    registry.gauge("obs.now").set(time.time())
                """,
        }
        # The undeclared "obs.now" gauge is REP006's business, not this one.
        report = lint_project(
            [write_tree(tmp_path, files)], rules=["REP001", "REP002"]
        )
        assert report.clean


# ----------------------------------------------------------------- the model
class TestProjectModel:
    def test_module_name_anchoring(self):
        assert (
            module_name_for(Path("a/b/src/repro/exec/executor.py"))
            == "repro.exec.executor"
        )
        assert module_name_for(Path("src/repro/__init__.py")) == "repro"

    def test_symbol_table(self, tmp_path):
        model = model_of(tmp_path, {
            "repro/demo.py": """
                from dataclasses import dataclass

                NAME = "demo.metric"
                ITEMS = []

                @dataclass(frozen=True)
                class Spec:
                    x: int

                def helper():
                    return NAME
                """,
        })
        info = model.get("repro.demo")
        assert info is not None
        assert info.constants["NAME"] == "demo.metric"
        assert "ITEMS" in info.mutable_bindings
        assert info.classes["Spec"].frozen_dataclass
        assert "helper" in info.functions

    def test_resolvers_chase_from_imports(self, tmp_path):
        model = model_of(tmp_path, {
            "repro/a.py": "NAME = 'a.metric'\n",
            "repro/b.py": "from repro.a import NAME as alias\n",
            "repro/pkg/__init__.py": "from repro.b import alias\n",
            "repro/pkg/mod.py": "LABEL = 'mod.metric'\n",
            "repro/c.py": "import repro.a as amod\nfrom repro.pkg import mod\n",
        })
        b, c = model.get("repro.b"), model.get("repro.c")
        # from-import chains, through a re-exporting __init__ too
        assert model.resolve_str_constant(b, ast.Name(id="alias")) == "a.metric"
        pkg = model.get("repro.pkg")
        assert model.resolve_str_constant(pkg, ast.Name(id="alias")) == "a.metric"
        # module aliases: ``import X as y`` and ``from P import M``
        assert model.resolve_module_alias(c, "amod").name == "repro.a"
        assert model.resolve_module_alias(c, "mod").name == "repro.pkg.mod"
        read = ast.parse("mod.LABEL", mode="eval").body
        assert model.resolve_str_constant(c, read) == "mod.metric"

    def test_lint_project_parses_each_file_once(self, tmp_path, monkeypatch):
        base = write_tree(tmp_path, {
            "repro/one.py": "X = 1\n",
            "repro/two.py": "Y = 2\n",
            "repro/three.py": "Z = 3\n",
        })
        parsed = []
        real_parse = ast.parse

        def counting_parse(source, *args, **kwargs):
            parsed.append(kwargs.get("filename"))
            return real_parse(source, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        report = lint_project([base])
        assert report.clean and report.files_scanned == 3
        assert len(parsed) == 3

    def test_unparseable_file_is_reported_under_any_rules(self, tmp_path):
        base = write_tree(tmp_path, {
            "repro/bad.py": "def broken(:\n",
            "repro/ok.py": "X = 1\n",
        })
        for rules in (None, ["REP005"], ["REP001", "REP002"]):
            report = lint_project([base], rules=rules)
            assert rules_of(report.violations) == ["REP000"]
            assert report.violations[0].path.endswith("bad.py")
            assert report.files_scanned == 2

    def test_unreadable_file_is_rep000(self, tmp_path):
        base = write_tree(tmp_path, {"repro/ok.py": "X = 1\n"})
        (base / "repro" / "gone.py").symlink_to(tmp_path / "missing.py")
        report = lint_project([base])
        assert rules_of(report.violations) == ["REP000"]
        assert "cannot be read" in report.violations[0].message
        assert report.files_scanned == 2

    def test_files_sharing_a_dotted_name_are_all_checked(self, tmp_path):
        base = write_tree(tmp_path, {
            "a/repro/core/clock.py": """
                import time
                from dataclasses import dataclass

                @dataclass(frozen=True)
                class Spec:
                    n: int

                def bump(spec):
                    object.__setattr__(spec, "n", 1)
                    return time.time()
                """,
            "b/repro/core/clock.py": "X = 1\n",
        })
        model = build_project_model([base])
        assert len(model) == 2
        # name resolution still picks one module per name: the later one
        assert model.get("repro.core.clock").path.endswith(
            str(Path("b/repro/core/clock.py"))
        )
        report = lint_project([base])
        assert rules_of(report.violations) == ["REP002", "REP007"]
        assert all(
            str(Path("a/repro/core")) in v.path for v in report.violations
        )
        assert report.files_scanned == 2


# ------------------------------------------------------------ rule selection
class TestBaseline:
    def test_unknown_rule_rejected(self, tmp_path):
        from repro.core.errors import ReproError

        with pytest.raises(ReproError, match="REP999"):
            lint_project([tmp_path], rules=["REP999"])

    def test_rule_selection(self, tmp_path):
        files = dict(TestProcessSafety.WORKER_TRIGGER)
        files["repro/exec/clock.py"] = "import time\nSTARTED = time.time()\n"
        base = write_tree(tmp_path, files)
        only_frozen = lint_project([base], rules=["REP007"])
        assert only_frozen.clean
        only_ps = lint_project([base], rules=["REP005"])
        assert set(only_ps.per_rule) == {"REP005"}
        only_clock = lint_project([base], rules=["REP002"])
        assert set(only_clock.per_rule) == {"REP002"}


# ------------------------------------------------------------ repo-wide gates
class TestRepoIsClean:
    def test_src_tree_is_clean_against_committed_baseline(self):
        # No baseline any more: every exemption is a reasoned line pragma.
        report = lint_project(["src"])
        assert report.clean, "\n".join(str(v) for v in report.violations)

    def test_all_analyzer_rules_documented(self):
        text = Path("docs/CHECKS.md").read_text()
        for rule in ANALYZER_RULES:
            assert rule in text, f"{rule} missing from docs/CHECKS.md"

    def test_metric_registry_has_no_dead_names(self):
        model = build_project_model(["src"])
        assert metric_names.unused_metric_names(model) == frozenset()

    def test_every_emitted_name_is_declared(self):
        model = build_project_model(["src"])
        assert metric_names.analyze(model) == []
