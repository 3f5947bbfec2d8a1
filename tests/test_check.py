"""Tests for ``repro.check`` — the AST invariant checker.

Fixture corpus: ``tests/fixtures/check`` holds one failing and one
passing snippet per rule (plus suppression and parse-error cases).
Fixtures live outside any ``repro`` package, so every rule applies to
them regardless of its scope.
"""

import json
import pathlib

import pytest

from repro.check import (
    ContractRule,
    check_file,
    check_paths,
    check_source,
    register_rule,
    rule_catalogue,
    rule_codes,
    scope_of,
)
from repro.cli import main

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "check"
SRC_REPRO = pathlib.Path(__file__).parent.parent / "src" / "repro"


def codes(findings):
    return sorted(f.code for f in findings)


class TestRulePack:
    @pytest.mark.parametrize(
        "code, count",
        [
            ("RPR001", 3),
            ("RPR002", 4),
            ("RPR003", 3),
            ("RPR004", 2),
            ("RPR005", 3),
            ("RPR006", 1),
            ("RPR007", 2),
            ("RPR008", 3),
        ],
    )
    def test_fail_fixture_flags_only_its_rule(self, code, count):
        findings, suppressed = check_file(
            FIXTURES / f"{code.lower()}_fail.py"
        )
        assert codes(findings) == [code] * count
        assert suppressed == 0

    @pytest.mark.parametrize(
        "code",
        ["RPR001", "RPR002", "RPR003", "RPR004", "RPR005", "RPR006",
         "RPR007", "RPR008"],
    )
    def test_pass_fixture_is_clean(self, code):
        findings, _ = check_file(FIXTURES / f"{code.lower()}_pass.py")
        assert findings == []

    def test_parse_error_reported_as_rpr900(self):
        findings, _ = check_file(FIXTURES / "rpr900_parse_error.py")
        assert codes(findings) == ["RPR900"]

    def test_findings_carry_locations(self):
        findings, _ = check_file(FIXTURES / "rpr006_fail.py")
        (finding,) = findings
        assert finding.line == 12
        assert finding.path.endswith("rpr006_fail.py")
        assert "object.__setattr__" in finding.message

    def test_alias_resolution_flags_renamed_import(self):
        source = (
            "import random as rnd\n"
            "def f():\n"
            "    return rnd.random()\n"
        )
        findings, _ = check_source(source, "x.py", scope=None)
        assert codes(findings) == ["RPR001"]

    def test_from_import_resolves_to_banned_call(self):
        source = (
            "from os import urandom as entropy\n"
            "def f():\n"
            "    return entropy(8)\n"
        )
        findings, _ = check_source(source, "x.py", scope=None)
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
        findings, _ = check_source(source, "x.py", scope=None)
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
        findings, _ = check_source(source, "x.py", scope=None)
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
        flagged, _ = check_file(tmp_path / "repro" / "sim" / "mod.py")
        silent, _ = check_file(
            tmp_path / "repro" / "analysis" / "mod.py"
        )
        assert codes(flagged) == ["RPR005"]
        assert silent == []

    def test_rpr007_only_holds_fault_modules(self, tmp_path):
        # A literal-seeded stream is legal in other sim modules (RPR001
        # ignores seeded Random construction); only faults.py is held
        # to run-derived fault seeds.
        for name in ("faults.py", "engine.py"):
            target = tmp_path / "repro" / "sim"
            target.mkdir(parents=True, exist_ok=True)
            (target / name).write_text(
                "import random\n"
                "def f():\n"
                "    return random.Random(7).random()\n"
            )
        flagged, _ = check_file(tmp_path / "repro" / "sim" / "faults.py")
        silent, _ = check_file(tmp_path / "repro" / "sim" / "engine.py")
        assert codes(flagged) == ["RPR007"]
        assert silent == []

    def test_rpr008_exempts_the_obs_scope(self, tmp_path):
        # Wall-clock timers are legal inside repro.obs (the layer the
        # rule confines them to) and flagged everywhere else.
        for pkg in ("obs", "experiments"):
            target = tmp_path / "repro" / pkg
            target.mkdir(parents=True)
            (target / "mod.py").write_text(
                "import time\n"
                "def f():\n"
                "    return time.perf_counter()\n"
            )
        silent, _ = check_file(tmp_path / "repro" / "obs" / "mod.py")
        flagged, _ = check_file(
            tmp_path / "repro" / "experiments" / "mod.py"
        )
        assert silent == []
        assert codes(flagged) == ["RPR008"]

    def test_unscoped_rule_applies_everywhere(self, tmp_path):
        target = tmp_path / "repro" / "analysis"
        target.mkdir(parents=True)
        (target / "mod.py").write_text("import numpy\n")
        findings, _ = check_file(target / "mod.py")
        assert codes(findings) == ["RPR002"]


class TestSuppressions:
    def test_justified_suppression_silences(self):
        findings, suppressed = check_file(
            FIXTURES / "suppression_ok.py"
        )
        assert findings == []
        assert suppressed == 1

    def test_bare_suppression_is_inert_and_reported(self):
        findings, suppressed = check_file(
            FIXTURES / "suppression_bad.py"
        )
        assert codes(findings) == ["RPR000", "RPR005"]
        assert suppressed == 0

    def test_unknown_code_suppression_is_inert(self):
        source = (
            "def f(p):\n"
            "    return p == 0.5  # repro: noqa(RPR777): not a rule\n"
        )
        findings, suppressed = check_source(source, "x.py", scope=None)
        assert codes(findings) == ["RPR000", "RPR005"]
        assert suppressed == 0

    def test_multi_code_suppression(self):
        source = (
            "import random\n"
            "def f(p):\n"
            "    return random.random() == 0.5  "
            "# repro: noqa(RPR001, RPR005): fixture exercising both\n"
        )
        findings, suppressed = check_source(source, "x.py", scope=None)
        assert findings == []
        assert suppressed == 2

    def test_marker_inside_string_is_not_a_suppression(self):
        source = (
            "def f(p):\n"
            '    return (p == 0.5, "# repro: noqa(RPR005): nope")\n'
        )
        findings, suppressed = check_source(source, "x.py", scope=None)
        assert codes(findings) == ["RPR005"]
        assert suppressed == 0


class TestSelfCheck:
    def test_src_repro_is_clean(self):
        # The acceptance contract: the shipped tree carries zero
        # findings.
        report = check_paths([SRC_REPRO])
        assert report.findings == ()
        assert report.files_checked >= 75

    def test_check_paths_is_deterministic(self):
        first = check_paths([FIXTURES])
        second = check_paths([FIXTURES])
        assert first == second
        assert list(first.findings) == sorted(first.findings)


class TestRegistry:
    def test_rule_codes_cover_the_pack(self):
        assert list(rule_codes()) == [
            "RPR001", "RPR002", "RPR003", "RPR004", "RPR005", "RPR006",
            "RPR007", "RPR008",
        ]

    def test_catalogue_documents_every_code(self):
        catalogue = rule_catalogue()
        for code in (*rule_codes(), "RPR000", "RPR900"):
            assert catalogue[code]["contract"]

    def test_duplicate_code_rejected(self):
        class Dup(ContractRule):
            code = "RPR001"

        with pytest.raises(ValueError):
            register_rule(Dup)


class TestCli:
    def test_clean_path_exits_zero(self, capsys):
        rc = main(["check", str(FIXTURES / "rpr001_pass.py")])
        assert rc == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one(self, capsys):
        rc = main(["check", str(FIXTURES / "rpr003_fail.py")])
        assert rc == 1
        out = capsys.readouterr().out
        assert "RPR003" in out

    def test_json_schema(self, capsys):
        rc = main(
            ["check", str(FIXTURES / "rpr004_fail.py"), "--json"]
        )
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == 1
        assert doc["clean"] is False
        assert doc["files_checked"] == 1
        assert doc["counts"] == {"RPR004": 2}
        assert set(doc) == {
            "version", "files_checked", "clean", "findings", "counts",
            "suppressed",
        }
        for finding in doc["findings"]:
            assert set(finding) == {
                "path", "line", "col", "code", "message",
            }

    def test_list_rules(self, capsys):
        rc = main(["check", "--list-rules"])
        assert rc == 0
        out = capsys.readouterr().out
        for code in rule_codes():
            assert code in out

    def test_missing_path_is_an_error(self):
        with pytest.raises(SystemExit):
            main(["check", "no/such/dir"])

    @pytest.mark.parametrize(
        "flag", ["--baseline", "--write-baseline"]
    )
    def test_baseline_options_are_gone(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", str(FIXTURES / "rpr001_pass.py"), flag, "x"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_default_target_is_src_repro(self, capsys, monkeypatch):
        monkeypatch.chdir(SRC_REPRO.parent.parent)
        rc = main(["check"])
        assert rc == 0
        assert "clean" in capsys.readouterr().out
