"""Tests for ``repro.check`` — the AST invariant checker.

Fixture corpus: ``tests/fixtures/check`` holds one failing and one
passing snippet per rule (plus a parse-error case).  Fixtures live
outside any ``repro`` package, so every rule applies to them regardless
of its scope.
"""

import pathlib
import re

import pytest

from repro.check import (
    RULES,
    check_file,
    check_paths,
    check_source,
    scope_of,
)
from repro.cli import main

ROOT = pathlib.Path(__file__).parent.parent
FIXTURES = ROOT / "tests" / "fixtures" / "check"
SRC_REPRO = ROOT / "src" / "repro"
CODES = ["RPR002", "RPR003", "RPR004", "RPR005"]


def codes(findings):
    return sorted(f.code for f in findings)


class TestRulePack:
    @pytest.mark.parametrize(
        "code, count",
        [
            ("RPR002", 4),
            ("RPR003", 3),
            ("RPR004", 2),
            ("RPR005", 3),
        ],
    )
    def test_fail_fixture_flags_only_its_rule(self, code, count):
        findings = check_file(FIXTURES / f"{code.lower()}_fail.py")
        assert codes(findings) == [code] * count

    @pytest.mark.parametrize("code", CODES)
    def test_pass_fixture_is_clean(self, code):
        findings = check_file(FIXTURES / f"{code.lower()}_pass.py")
        assert findings == []

    def test_parse_error_reported_as_rpr900(self):
        findings = check_file(FIXTURES / "rpr900_parse_error.py")
        assert codes(findings) == ["RPR900"]

    def test_findings_carry_locations(self):
        finding = check_file(FIXTURES / "rpr005_fail.py")[0]
        assert (finding.line, finding.col) == (5, 12)
        assert finding.path.endswith("rpr005_fail.py")
        assert "float ==" in finding.message

    def test_alias_resolution_flags_renamed_import(self):
        source = (
            "import time as clock\n"
            "def f():\n"
            "    return clock.time()\n"
        )
        findings = check_source(source, "x.py", scope=None)
        assert codes(findings) == ["RPR003"]

    def test_from_import_resolves_to_banned_call(self):
        source = (
            "from os import urandom as entropy\n"
            "def f():\n"
            "    return entropy(8)\n"
        )
        findings = check_source(source, "x.py", scope=None)
        assert codes(findings) == ["RPR003"]


class TestScientificImport:
    """RPR002 flags every NumPy/SciPy import, however it is spelled or
    guarded, and nothing that merely looks like one."""

    @pytest.mark.parametrize(
        "source, count",
        [
            ("import numpy\n", 1),
            ("import numpy as np\n", 1),
            ("import numpy.linalg\n", 1),
            ("from numpy import array\n", 1),
            ("from numpy.random import default_rng\n", 1),
            ("import scipy.sparse as sp\n", 1),
            ("from scipy import sparse\n", 1),
            ("import numpy, scipy\n", 2),
            (
                "try:\n"
                "    import numpy\n"
                "except ImportError:\n"
                "    numpy = None\n",
                1,
            ),
            ("def f():\n    import scipy.stats\n", 1),
            (
                "from typing import TYPE_CHECKING\n"
                "if TYPE_CHECKING:\n"
                "    import numpy\n",
                1,
            ),
        ],
    )
    def test_flagged(self, source, count):
        findings = check_source(source, "x.py", scope=None)
        assert codes(findings) == ["RPR002"] * count

    @pytest.mark.parametrize(
        "source",
        [
            "import numbers\n",
            "import numpy_compat\n",
            "from scipyish import sparse\n",
            "from . import numpy\n",
            "from .numpy import array\n",
            "x = 'import numpy'\n",
        ],
    )
    def test_clean(self, source):
        findings = check_source(source, "x.py", scope=None)
        assert findings == []


class TestWallClockEntropy:
    """RPR003 flags each clock, timer and entropy read, however it is
    imported, and leaves seeded and key-derived values alone."""

    @pytest.mark.parametrize(
        "source",
        [
            "import time\nt = time.time()\n",
            "import time\nt = time.time_ns()\n",
            "import time\nt = time.perf_counter()\n",
            "from time import monotonic\nt = monotonic()\n",
            "import datetime\nt = datetime.datetime.now()\n",
            "from datetime import date\nt = date.today()\n",
            "import os\nb = os.urandom(8)\n",
            "import uuid\nu = uuid.uuid4()\n",
            "import secrets\nb = secrets.token_bytes(8)\n",
            "import random\nr = random.SystemRandom()\n",
        ],
    )
    def test_flagged(self, source):
        findings = check_source(source, "x.py", scope=None)
        assert codes(findings) == ["RPR003"]

    @pytest.mark.parametrize(
        "source",
        [
            "import time\ntime.sleep(0)\n",
            "import random\nr = random.Random(7)\n",
            "import os\np = os.path.join('a', 'b')\n",
            "def time():\n    return 0\nt = time()\n",
            "t = 'time.time()'\n",
        ],
    )
    def test_clean(self, source):
        findings = check_source(source, "x.py", scope=None)
        assert findings == []


class TestUnorderedIteration:
    """RPR004 flags a loop or comprehension straight over a set
    expression, and nothing that is sorted first."""

    @pytest.mark.parametrize(
        "source",
        [
            "for x in {1, 2}:\n    pass\n",
            "for x in {y for y in ys}:\n    pass\n",
            "for x in set(ys):\n    pass\n",
            "for x in frozenset(ys):\n    pass\n",
            "out = [x for x in a.union(b)]\n",
            "out = {x: 1 for x in a.intersection(b)}\n",
            "out = (x for x in a.difference(b))\n",
            "out = [x for x in a.symmetric_difference(b)]\n",
            "async def f():\n    async for x in set(ys):\n        pass\n",
            # A local bound only to set expressions, iterated later.
            "def f(a):\n    s = set(a)\n    for x in s:\n        pass\n",
            "def f(a):\n    s = set(a)\n    s.update(a)\n    return list(s)\n",
            "def f(a, b):\n    s = a.union(b)\n    return tuple(s)\n",
            "def f(a):\n    s = {x for x in a}\n    return [x for x in s]\n",
            "def f(a):\n    s = set()\n    s |= a\n    return list(s)\n",
            "def f(a):\n    s: set = frozenset(a)\n    return list(s)\n",
            "def f(a):\n    if (s := set(a)):\n        return list(s)\n",
            "class C:\n    def m(self, a):\n        s = {1}\n"
            "        return list(s)\n",
        ],
    )
    def test_flagged(self, source):
        findings = check_source(source, "x.py", scope=None)
        assert codes(findings) == ["RPR004"]

    @pytest.mark.parametrize(
        "source",
        [
            "for x in sorted(set(ys)):\n    pass\n",
            "out = [x for x in sorted(a.union(b))]\n",
            "for x in list(ys):\n    pass\n",
            "for x in {1: 2}:\n    pass\n",
            "out = len(set(ys))\n",
            "def f(a):\n    s = set(a)\n    return sorted(s)\n",
            "def f(a):\n    s = set(a)\n    return len(s)\n",
            "def f(s):\n    return list(s)\n",
            "def f(a):\n    s = list(a)\n    return list(s)\n",
            "def f(a):\n    s = set(a)\n    s = sorted(s)\n    return list(s)\n",
            "def f(a):\n    for s in a:\n        pass\n"
            "    s = set(a)\n    return list(s)\n",
            "def f(a):\n    global s\n    s = set(a)\n    return list(s)\n",
            "def f(a):\n    s = set(a)\n    def g(s):\n"
            "        return list(s)\n    return g\n",
            "s = set(ys)\nout = list(s)\n",
        ],
    )
    def test_clean(self, source):
        findings = check_source(source, "x.py", scope=None)
        assert findings == []

    def test_engine_plant_is_flagged(self):
        """``sorted(touched)`` → ``list(touched)`` in the reference
        engine's ``_resolve`` changes its traces; the rule sees it."""
        path = SRC_REPRO / "sim" / "engine.py"
        source = path.read_text(encoding="utf-8")
        assert source.count("sorted(touched)") == 1
        planted = source.replace("sorted(touched)", "list(touched)")
        assert check_source(source, "engine.py", scope="sim") == []
        findings = check_source(planted, "engine.py", scope="sim")
        assert codes(findings) == ["RPR004"]
        assert "'touched'" in findings[0].message


class TestFloatEquality:
    """RPR005 flags ``==``/``!=`` with a float operand on either side,
    once per comparison, and no ordering or integer comparison."""

    @pytest.mark.parametrize(
        "source",
        [
            "ok = p == 0.5\n",
            "ok = 0.5 == p\n",
            "ok = x != -1.0\n",
            "ok = x == +2.0\n",
            "ok = raw == float(raw)\n",
            "ok = 0 < p == 0.5\n",
            "ok = p == 0.5 == q\n",
        ],
    )
    def test_flagged(self, source):
        findings = check_source(source, "x.py", scope=None)
        assert codes(findings) == ["RPR005"]

    @pytest.mark.parametrize(
        "source",
        [
            "ok = p < 0.5\n",
            "ok = steps == 1\n",
            "ok = p is None\n",
            "ok = x == '0.5'\n",
            "import math\nok = math.isclose(p, 0.5)\n",
        ],
    )
    def test_clean(self, source):
        findings = check_source(source, "x.py", scope=None)
        assert findings == []


class TestScoping:
    def test_scope_of(self):
        assert scope_of(pathlib.Path("src/repro/sim/engine.py")) == "sim"
        assert scope_of(pathlib.Path("src/repro/cli.py")) == "cli"
        assert scope_of(pathlib.Path("tests/fixtures/x.py")) is None

    def test_scoped_rule_silent_outside_its_packages(self, tmp_path):
        # RPR005 is scoped to sim/core/search: the same float
        # comparison is flagged under repro/sim but not repro/analysis.
        for pkg in ("sim", "analysis"):
            target = tmp_path / "repro" / pkg
            target.mkdir(parents=True)
            (target / "mod.py").write_text(
                "def f(p):\n    return p == 0.5\n"
            )
        flagged = check_file(tmp_path / "repro" / "sim" / "mod.py")
        silent = check_file(
            tmp_path / "repro" / "analysis" / "mod.py"
        )
        assert codes(flagged) == ["RPR005"]
        assert silent == []

    def test_rpr003_flags_timers_where_traces_form(self, tmp_path):
        # A timer read is flagged in the packages that build traces and
        # records; repro.obs owns timing and experiments times through
        # it, so neither is in scope.
        for pkg in ("core", "obs", "experiments"):
            target = tmp_path / "repro" / pkg
            target.mkdir(parents=True)
            (target / "mod.py").write_text(
                "import time\n"
                "def f():\n"
                "    return time.perf_counter()\n"
            )
        flagged = check_file(tmp_path / "repro" / "core" / "mod.py")
        assert codes(flagged) == ["RPR003"]
        for pkg in ("obs", "experiments"):
            assert check_file(tmp_path / "repro" / pkg / "mod.py") == []

    def test_unscoped_rule_applies_everywhere(self, tmp_path):
        target = tmp_path / "repro" / "analysis"
        target.mkdir(parents=True)
        (target / "mod.py").write_text("import numpy\n")
        findings = check_file(target / "mod.py")
        assert codes(findings) == ["RPR002"]


class TestSelfCheck:
    def test_src_repro_is_clean(self):
        # The acceptance contract: the shipped tree carries zero
        # findings.
        report = check_paths([SRC_REPRO])
        assert report.findings == ()
        assert report.files_checked == len(list(SRC_REPRO.rglob("*.py")))

    def test_check_paths_is_deterministic(self):
        first = check_paths([FIXTURES])
        second = check_paths([FIXTURES])
        assert first == second
        assert list(first.findings) == sorted(first.findings)


class TestRegistry:
    def test_rule_codes_cover_the_pack(self):
        assert [rule.code for rule in RULES] == CODES

    def test_catalogue_documents_every_code(self):
        # docs/CHECKS.md is the catalogue: one row per rule plus RPR900.
        doc = (ROOT / "docs" / "CHECKS.md").read_text(encoding="utf-8")
        rows = re.findall(r"^\| `(RPR\d{3})` \|", doc, re.MULTILINE)
        assert rows == [*CODES, "RPR900"]


class TestCli:
    def test_clean_path_exits_zero(self, capsys):
        rc = main(["check", str(FIXTURES / "rpr002_pass.py")])
        assert rc == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one(self, capsys):
        rc = main(["check", str(FIXTURES / "rpr003_fail.py")])
        assert rc == 1
        out = capsys.readouterr().out
        assert "RPR003" in out

    @pytest.mark.parametrize("code", CODES)
    def test_fail_fixture_exits_one_with_its_code(self, code, capsys):
        rc = main(["check", str(FIXTURES / f"{code.lower()}_fail.py")])
        assert rc == 1
        found = set(re.findall(r"RPR\d{3}", capsys.readouterr().out))
        assert found == {code}

    def test_missing_path_is_an_error(self):
        with pytest.raises(SystemExit):
            main(["check", "no/such/dir"])

    @pytest.mark.parametrize(
        "flag", ["--baseline", "--write-baseline"]
    )
    def test_baseline_options_are_gone(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", str(FIXTURES / "rpr002_pass.py"), flag, "x"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_default_target_is_src_repro(self, capsys, monkeypatch):
        monkeypatch.chdir(SRC_REPRO.parent.parent)
        rc = main(["check"])
        assert rc == 0
        assert "clean" in capsys.readouterr().out
