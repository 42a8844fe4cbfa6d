"""Tests for the project lint pass (repro.check.lint / ``repro lint``)."""

import json
import textwrap
from pathlib import Path

import pytest

from repro.check import (
    LINT_RULES,
    LintViolation,
    format_violations,
    lint_file,
    lint_paths,
    lint_source,
)

LIB = Path("src/repro/core/example.py")  # in-scope library path
ORDERED = Path("src/repro/trees/example.py")  # emission-order critical path
OBS = Path("src/repro/obs/example.py")  # wall-clock exempt path
TEST = Path("tests/example.py")  # fully exempt path


def rules_of(violations):
    return sorted(v.rule for v in violations)


# ------------------------------------------------------------------ rule fires
class TestRules:
    def test_rep001_unseeded_default_rng(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert rules_of(lint_source(src, LIB)) == ["REP001"]

    def test_rep001_seeded_default_rng_is_clean(self):
        src = textwrap.dedent(
            """
            import numpy as np
            a = np.random.default_rng(42)
            b = np.random.default_rng(seed=7)
            """
        )
        assert lint_source(src, LIB) == []

    def test_rep001_none_seed_still_fires(self):
        src = "import numpy as np\nrng = np.random.default_rng(None)\n"
        assert rules_of(lint_source(src, LIB)) == ["REP001"]

    def test_rep001_legacy_numpy_global(self):
        src = "import numpy as np\nx = np.random.rand(3)\n"
        assert rules_of(lint_source(src, LIB)) == ["REP001"]

    def test_rep001_stdlib_module_rng(self):
        src = "import random\nx = random.random()\n"
        assert rules_of(lint_source(src, LIB)) == ["REP001"]

    def test_rep001_seeded_random_instance_is_clean(self):
        src = "import random\nrng = random.Random(3)\nx = rng.random()\n"
        assert lint_source(src, LIB) == []

    @pytest.mark.parametrize(
        "src",
        [
            "from random import shuffle\nshuffle(xs)\n",
            "def f(xs):\n    from random import shuffle\n    shuffle(xs)\n",
            "from numpy.random import default_rng\nrng = default_rng()\n",
            "from numpy.random import rand\nx = rand(3)\n",
            "import random\nrng = random.SystemRandom()\n",
            "import random\nrng = random.Random()\n",
            "import numpy as np\nss = np.random.SeedSequence()\n",
            "import os\nkey = os.urandom(8)\n",
            "import uuid\nrun_id = uuid.uuid4()\n",
            "import secrets\ntoken = secrets.token_hex(8)\n",
        ],
        ids=[
            "from-random-shuffle", "local-from-random-shuffle",
            "from-numpy-default_rng", "from-numpy-rand", "SystemRandom",
            "unseeded-Random", "unseeded-SeedSequence", "os.urandom",
            "uuid4", "secrets.token_hex",
        ],
    )
    def test_rep001_more_sources(self, src):
        assert rules_of(lint_source(src, LIB)) == ["REP001"]

    @pytest.mark.parametrize(
        "src",
        [
            "from numpy.random import default_rng\nrng = default_rng(3)\n",
            "import numpy as np\nss = np.random.SeedSequence(3)\n",
            "import random\nrng = random.Random(3)\n",
        ],
        ids=["from-numpy-default_rng", "SeedSequence", "Random"],
    )
    def test_rep001_seeded_calls_are_clean(self, src):
        assert lint_source(src, LIB) == []

    def test_rep002_time_call(self):
        src = "import time\nt = time.perf_counter()\n"
        assert rules_of(lint_source(src, LIB)) == ["REP002"]

    def test_rep002_from_import(self):
        src = "from time import monotonic\n"
        assert rules_of(lint_source(src, LIB)) == ["REP002"]

    def test_rep002_datetime_now(self):
        src = "from datetime import datetime\nstamp = datetime.now()\n"
        assert rules_of(lint_source(src, LIB)) == ["REP002"]

    @pytest.mark.parametrize(
        "src",
        [
            "import time\nt = time.time_ns()\n",
            "from datetime import date\nday = date.today()\n",
            "from datetime import datetime as dt\nstamp = dt.now()\n",
            "import time as clock\nt = clock.monotonic()\n",
        ],
        ids=["time_ns", "date.today", "aliased-datetime", "aliased-time"],
    )
    def test_rep002_more_sources(self, src):
        violations = lint_source(src, LIB)
        assert rules_of(violations) == ["REP002"]
        assert violations[0].line == 2  # at the call

    def test_rep002_obs_is_exempt(self):
        src = "import time\nt = time.perf_counter()\n"
        assert lint_source(src, OBS) == []

    def test_rep003_bare_assert(self):
        src = "def f(x):\n    assert x > 0\n    return x\n"
        assert rules_of(lint_source(src, LIB)) == ["REP003"]

    def test_rep004_set_iteration_in_order_critical_dir(self):
        src = "for n in {3, 1, 2}:\n    print(n)\n"
        assert rules_of(lint_source(src, ORDERED)) == ["REP004"]

    def test_rep004_variants(self):
        src = textwrap.dedent(
            """
            xs = [x for x in set(range(4))]
            ys = [y for y in {a for a in range(4)}]
            for z in {1} | {2}:
                pass
            """
        )
        assert rules_of(lint_source(src, ORDERED)) == ["REP004"] * 3

    def test_rep004_only_applies_in_emission_dirs(self):
        src = "for n in {3, 1, 2}:\n    print(n)\n"
        assert lint_source(src, LIB) == []

    def test_rep004_sorted_set_is_clean(self):
        src = "for n in sorted({3, 1, 2}):\n    print(n)\n"
        assert lint_source(src, ORDERED) == []

    def test_rep000_syntax_error(self):
        violations = lint_source("def broken(:\n", LIB)
        assert rules_of(violations) == ["REP000"]

    def test_rep000_not_utf8(self, tmp_path):
        path = tmp_path / "src" / "repro" / "core" / "latin.py"
        path.parent.mkdir(parents=True)
        path.write_bytes(b"NAME = '\xe9t\xe9'\n")
        violations = lint_file(path)
        assert rules_of(violations) == ["REP000"]
        assert "UTF-8" in violations[0].message

    def test_exempt_dirs_skip_every_rule(self):
        src = "import time\nassert time.time() > 0\n"
        assert lint_source(src, TEST) == []


# --------------------------------------------------------------------- pragmas
class TestPragmas:
    SRC = "import time\nt = time.perf_counter()\nassert t >= 0\n"

    def test_disable_single_rule(self):
        src = "# repro-lint: disable=REP002\n" + self.SRC
        assert rules_of(lint_source(src, LIB)) == ["REP003"]

    def test_disable_multiple_rules(self):
        src = "# repro-lint: disable=REP002, REP003\n" + self.SRC
        assert lint_source(src, LIB) == []

    def test_disable_all(self):
        src = "# repro-lint: disable=all\n" + self.SRC
        assert lint_source(src, LIB) == []

    def test_unknown_rule_token_is_harmless(self):
        src = "# repro-lint: disable=REP999\n" + self.SRC
        assert rules_of(lint_source(src, LIB)) == ["REP002", "REP003"]


# ------------------------------------------------------------ paths and output
class TestPathsAndFormats:
    def make_tree(self, tmp_path):
        pkg = tmp_path / "src" / "repro"
        (pkg / "trees").mkdir(parents=True)
        (pkg / "obs").mkdir()
        (tmp_path / "tests").mkdir()
        (pkg / "trees" / "bad.py").write_text(
            "for n in {1, 2}:\n    x = n\nassert x\n"
        )
        (pkg / "obs" / "clock.py").write_text("import time\nt = time.time()\n")
        (tmp_path / "tests" / "test_ok.py").write_text("assert True\n")
        return tmp_path

    def test_lint_paths_recurses_and_sorts(self, tmp_path):
        root = self.make_tree(tmp_path)
        violations = lint_paths([root])
        assert rules_of(violations) == ["REP003", "REP004"]
        assert violations == sorted(
            violations, key=lambda v: (v.path, v.line, v.col, v.rule)
        )

    def test_lint_file_reads_from_disk(self, tmp_path):
        root = self.make_tree(tmp_path)
        bad = root / "src" / "repro" / "trees" / "bad.py"
        assert rules_of(lint_file(bad)) == ["REP003", "REP004"]

    def test_text_format(self):
        violation = LintViolation("REP003", "x.py", 3, 0, "bare assert")
        text = format_violations([violation])
        assert "x.py:3:0: REP003 bare assert" in text
        assert "1 violation found" in text

    def test_text_format_empty(self):
        assert format_violations([]) == "OK: no lint violations"

    def test_json_format(self):
        violation = LintViolation("REP001", "y.py", 1, 4, "unseeded rng")
        payload = json.loads(format_violations([violation], format="json"))
        assert payload == [
            {"rule": "REP001", "path": "y.py", "line": 1, "col": 4,
             "message": "unseeded rng"}
        ]

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            format_violations([], format="yaml")

    def test_rule_catalogue_is_complete(self):
        assert set(LINT_RULES) == {"REP001", "REP002", "REP003", "REP004"}
        assert all(LINT_RULES[rule] for rule in LINT_RULES)


# -------------------------------------------------------------- the repo gate
class TestRepoIsClean:
    def test_src_tree_has_no_violations(self):
        # The CI static-analysis job runs `repro lint src`; keep it green.
        violations = lint_paths(["src"])
        assert violations == [], format_violations(violations)
