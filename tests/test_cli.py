"""Tests for the command-line interface."""

import json
import pathlib
import re
import subprocess
import sys

import pytest

from repro.analysis.claims import THEOREM2, Observation
from repro.cli import build_parser, main
from repro.lowerbounds.theorem2 import DETERMINISTIC_ALGORITHMS

SPECS = pathlib.Path(__file__).parent.parent / "examples" / "specs"


class TestRun:
    def test_basic_run(self, capsys):
        rc = main(
            [
                "run", "--graph", "line", "--n", "8",
                "--algorithm", "round_robin", "--adversary", "none",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "round_robin" in out

    def test_json_output(self, capsys):
        rc = main(
            [
                "run", "--graph", "gnp", "--n", "12",
                "--algorithm", "harmonic", "--adversary", "random",
                "--p", "0.3", "--json",
            ]
        )
        assert rc == 0
        decoded = json.loads(capsys.readouterr().out)
        assert decoded["completed"] is True
        assert decoded["n"] == 12

    def test_run_with_churn(self, capsys):
        rc = main(
            [
                "run", "--graph", "line", "--n", "8",
                "--algorithm", "round_robin", "--adversary", "none",
                "--churn", "window", "--churn-count", "2",
                "--churn-start", "2", "--churn-length", "3", "--json",
            ]
        )
        # The outage may or may not let the run finish under the cap;
        # either exit is legal, but the payload must show the faults.
        assert rc in (0, 1)
        decoded = json.loads(capsys.readouterr().out)
        assert decoded["crash_events"] == 2
        assert decoded["recovery_events"] == 2

    def test_run_rejects_bad_churn_params(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "run", "--graph", "line", "--n", "8",
                    "--churn", "rate", "--crash-rate", "2.0",
                ]
            )

    def test_incomplete_run_exit_code(self, capsys):
        rc = main(
            [
                "run", "--graph", "line", "--n", "12",
                "--algorithm", "round_robin", "--adversary", "none",
                "--max-rounds", "2",
            ]
        )
        assert rc == 1

    def test_unknown_graph_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--graph", "nope"])

    def test_unknown_adversary_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--adversary", "nope", "--n", "8"])

    @pytest.mark.parametrize(
        "graph",
        ["gnp", "line", "hard-line", "ring", "grid", "clique-bridge",
         "layered-pairs", "pivot-layers"],
    )
    def test_every_graph_choice_runs(self, graph, capsys):
        rc = main(
            [
                "run", "--graph", graph, "--n", "13",
                "--algorithm", "round_robin", "--adversary", "none",
            ]
        )
        assert rc == 0

    def test_pivot_adversary_runs_inline(self, capsys):
        """The pivot kind needs its n param threaded by the CLI."""
        rc = main(
            [
                "run", "--graph", "pivot-layers", "--n", "16",
                "--algorithm", "round_robin", "--adversary", "pivot",
            ]
        )
        assert rc == 0

    def test_bad_window_churn_exits_cleanly(self):
        with pytest.raises(SystemExit, match="length >= 1"):
            main(["run", "--churn", "window", "--churn-length", "0"])


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--n", "8"],
        ["sweep", "--graph", "line", "--algorithm", "round_robin",
         "--sizes", "4", "--seeds", "0"],
        ["search", "--n", "6", "--budget", "2"],
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("engine", ["vector", "warp"])
def test_engine_flag_accepts_only_live_engines(argv, engine, capsys):
    """``--engine`` offers exactly the live engines on every subcommand
    that has it; the removed vector engine is an invalid choice."""
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--engine", engine])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


class TestSweep:
    def test_sweep_prints_fit(self, capsys):
        rc = main(
            [
                "sweep", "--graph", "line", "--algorithm", "round_robin",
                "--adversary", "none", "--sizes", "8,16,32",
                "--seeds", "0",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "growth fit" in out
        assert "completion rounds" in out

    def test_sweep_unknown_graph_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--graph", "nope", "--sizes", "8"])

    def test_sweep_spec_file(self, capsys, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(
            json.dumps(
                {
                    "name": "cli-spec",
                    "algorithms": ["round_robin"],
                    "graphs": [{"kind": "line", "sizes": [6, 10]}],
                    "adversaries": ["none"],
                    "seeds": [0, 1],
                }
            )
        )
        rc = main(["sweep", "--spec", str(spec_file), "--workers", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cli-spec" in out
        assert "growth fit" in out

    def test_sweep_spec_resumes_from_results(self, capsys, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(
            json.dumps(
                {
                    "name": "cli-resume",
                    "algorithms": ["round_robin"],
                    "graphs": [{"kind": "line", "n": 6}],
                    "seeds": [0, 1, 2],
                }
            )
        )
        results = tmp_path / "results.jsonl"
        assert main(
            ["sweep", "--spec", str(spec_file), "--results", str(results)]
        ) == 0
        first = capsys.readouterr().out
        assert "3 run, 0 resumed" in first

        assert main(
            ["sweep", "--spec", str(spec_file), "--results", str(results)]
        ) == 0
        second = capsys.readouterr().out
        assert "0 run, 3 resumed" in second

    def test_sweep_keeps_churn_cells_apart(self, capsys):
        rc = main(["sweep", "--spec", str(SPECS / "churn_sweep.json")])
        assert rc == 0
        rows = {
            line.split("|")[1].strip(): line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("| churn/round_robin/")
        }
        clean = "churn/round_robin/line:n8/greedy/CR2-asynchronous"
        window = clean + "/churn-window(count=2,length=3,start=4)"
        assert "| 7.0 ± 0.0 [7.0, 7.0] " in rows[clean]
        assert "| 15.0 ± 0.0 [15.0, 15.0] " in rows[window]

    def test_growth_fit_per_curve(self, capsys):
        rc = main(["sweep", "--spec", str(SPECS / "tiny_sweep.json")])
        assert rc == 0
        curves = [
            line.split("[", 1)[1].split("]", 1)[0]
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("growth fit [")
        ]
        # Two algorithms × two CRs over the line sizes; the single
        # clique-bridge size fits no curve.
        assert len(curves) == 4
        for curve in curves:
            assert curve.split("/")[2] == "line"

    def test_sweep_and_report_print_one_table(self, capsys, tmp_path):
        results = str(tmp_path / "r.jsonl")
        spec = str(SPECS / "tiny_sweep.json")
        assert main(["sweep", "--spec", spec, "--results", results]) == 0
        swept = capsys.readouterr().out
        assert main(["report", "--results", results]) == 0
        reported = capsys.readouterr().out
        # Everything below the title line: campaign and reference
        # tables, then the sweep's growth fits.
        tables = reported.split("\n", 1)[1]
        assert "paper reference bounds" in tables
        assert swept.split("\n", 1)[1].startswith(tables)

    def test_sweep_warns_about_unparsable_result_lines(
        self, capsys, tmp_path
    ):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(
            json.dumps(
                {
                    "name": "cli-skip",
                    "algorithms": ["round_robin"],
                    "graphs": [{"kind": "line", "n": 6}],
                    "seeds": [0],
                }
            )
        )
        results = tmp_path / "results.jsonl"
        results.write_text('{"key": "torn-fragm\nnot json either\n')
        assert main(
            ["sweep", "--spec", str(spec_file), "--results", str(results)]
        ) == 0
        err = capsys.readouterr().err
        assert "2 unparsable line(s)" in err

    def test_sweep_missing_spec_file_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot load spec"):
            main(["sweep", "--spec", str(tmp_path / "absent.json")])

    def test_sweep_shipped_tiny_spec_runs(self, capsys):
        """The spec file CI's smoke job uses stays valid."""
        import pathlib

        spec = (
            pathlib.Path(__file__).resolve().parent.parent
            / "examples" / "specs" / "tiny_sweep.json"
        )
        rc = main(["sweep", "--spec", str(spec), "--workers", "2"])
        assert rc == 0
        assert "tiny" in capsys.readouterr().out

    def test_sweep_pivot_adversary_single_size(self, capsys):
        rc = main(
            [
                "sweep", "--graph", "pivot-layers", "--algorithm",
                "round_robin", "--adversary", "pivot", "--sizes", "16",
                "--seeds", "0",
            ]
        )
        assert rc == 0

    def test_sweep_pivot_adversary_rejects_size_grid(self):
        with pytest.raises(SystemExit, match="single --sizes"):
            main(
                [
                    "sweep", "--graph", "pivot-layers", "--algorithm",
                    "round_robin", "--adversary", "pivot",
                    "--sizes", "16,25", "--seeds", "0",
                ]
            )

    @pytest.mark.parametrize(
        "flag", [["--seed", "1"], ["--flush-every", "1"]]
    )
    def test_sweep_rejects_removed_flags(self, flag, capsys):
        # ``--seed`` was never read (``--seeds`` is the grid axis) and
        # must not abbreviate ``--seeds`` either.
        with pytest.raises(SystemExit):
            main(
                ["sweep", "--graph", "line", "--algorithm", "round_robin",
                 "--adversary", "none", "--sizes", "4"] + flag
            )
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_sweep_spec_with_unfitting_params_exits_cleanly(
        self, tmp_path
    ):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(
            json.dumps(
                {
                    "name": "cli-bad-params",
                    "algorithms": [["decay", {"bogus": 1}]],
                    "graphs": [{"kind": "line", "n": 6}],
                    "churns": ["window"],
                    "seeds": [0],
                }
            )
        )
        with pytest.raises(SystemExit, match="bad parameters"):
            main(["sweep", "--spec", str(spec_file)])

    def test_sweep_capped_runs_exit_nonzero(self, capsys):
        rc = main(
            [
                "sweep", "--graph", "line", "--algorithm", "round_robin",
                "--adversary", "none", "--sizes", "12", "--seeds", "0",
                "--max-rounds", "2",
            ]
        )
        assert rc == 1
        assert "hit the round cap" in capsys.readouterr().err


class TestList:
    def test_lists_every_registry(self, capsys):
        rc = main(["list"])
        assert rc == 0
        out = capsys.readouterr().out
        # One entry from each section, with its description.
        assert "clique-bridge" in out
        assert "Theorem 2 network" in out
        assert "pivot" in out
        assert "GreedyInterferer" in out
        assert "strong_select" in out
        assert "greedy" in out and "lookahead" in out

    def test_lists_runtime_registrations(self, capsys):
        from repro.experiments import registry

        registry.register_adversary(
            "cli-test-adv",
            lambda seed, **kw: None,
            description="registered at runtime",
        )
        try:
            main(["list"])
            out = capsys.readouterr().out
            assert "cli-test-adv" in out
            assert "registered at runtime" in out
        finally:
            del registry.ADVERSARIES._factories["cli-test-adv"]
            del registry.ADVERSARIES._descriptions["cli-test-adv"]


class TestSearch:
    ARGS = [
        "search", "--graph", "clique-bridge", "--n", "10",
        "--algorithm", "round_robin", "--cr", "CR1",
        "--searcher", "random", "--budget", "4", "--batch-size", "2",
        "--seed", "0",
    ]

    def test_basic_search(self, capsys):
        rc = main(self.ARGS)
        assert rc == 0
        out = capsys.readouterr().out
        assert "best objective" in out
        assert "True" in out  # replay verified by default

    def test_underscore_graph_spelling_accepted(self, capsys):
        rc = main(
            ["search", "--graph", "clique_bridge", "--n", "9",
             "--algorithm", "round_robin", "--budget", "2",
             "--no-verify"]
        )
        assert rc == 0
        assert "clique-bridge" in capsys.readouterr().out

    def test_search_resumes_from_results(self, capsys, tmp_path):
        results = str(tmp_path / "search.jsonl")
        assert main(self.ARGS + ["--results", results]) == 0
        assert "4 run, 0 resumed" in capsys.readouterr().out
        assert main(self.ARGS + ["--results", results]) == 0
        assert "0 run, 4 resumed" in capsys.readouterr().out

    def test_search_json_output(self, capsys):
        rc = main(self.ARGS + ["--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["best_objective"] >= 1
        assert doc["replay_verified"] is True
        assert doc["best_genome"]["horizon"] >= 1

    @staticmethod
    def theorem2_reading(best_objective):
        """THEOREM2's bound label and verdict for this cell's search."""
        observation = Observation(
            "round_robin", "clique-bridge", 10, best_objective
        )
        return THEOREM2.bound(observation), THEOREM2.verdict(observation)

    def test_search_compare_theorem2(self, capsys):
        """The text table carries THEOREM2's own bound label and verdict
        for the search's observation; nothing re-derives ``n − 3``."""
        assert main(self.ARGS + ["--compare-theorem2"]) == 0
        out = capsys.readouterr().out
        assert "search vs Theorem 2" in out
        cells = dict(
            [part.strip() for part in line.split("|")[1:3]]
            for line in out.splitlines()
            if line.startswith("| ")
        )
        bound, verdict = self.theorem2_reading(
            int(cells["best objective (rounds)"])
        )
        assert bound == "worst case > 7 (Thm 2)"
        assert cells["theorem 2 bound"] == bound
        assert cells["theorem 2 verdict"] == verdict
        assert cells["search best"] == cells["best objective (rounds)"]

    def test_search_compare_theorem2_in_json(self, capsys):
        """The JSON ``theorem2`` block carries the same claim reading."""
        assert main(self.ARGS + ["--compare-theorem2", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        bound, verdict = self.theorem2_reading(doc["best_objective"])
        assert bound == "worst case > 7 (Thm 2)"
        row = doc["theorem2"]
        assert (row["bound"], row["verdict"]) == (bound, verdict)
        assert row["search_best"] == doc["best_objective"]
        assert "theorem_bound" not in row

    def test_search_compare_theorem2_outside_claim_scope(self, capsys):
        """A randomized algorithm lies outside THEOREM2's ``covers``:
        no scripted baseline, bound or verdict."""
        args = ["harmonic" if a == "round_robin" else a for a in self.ARGS]
        assert main(args + ["--compare-theorem2", "--json"]) == 0
        row = json.loads(capsys.readouterr().out)["theorem2"]
        assert row["scripted_worst"] is None
        assert (row["bound"], row["verdict"]) == (None, None)

    def test_search_compare_theorem2_warns_off_family(self, capsys):
        rc = main(
            ["search", "--graph", "line", "--n", "6",
             "--algorithm", "round_robin", "--budget", "2",
             "--no-verify", "--compare-theorem2"]
        )
        assert rc == 0
        assert "skipped" in capsys.readouterr().err

    def test_unknown_graph_rejected(self):
        with pytest.raises(SystemExit, match="unknown graph"):
            main(["search", "--graph", "nope", "--budget", "2"])

    def test_unknown_searcher_rejected(self):
        with pytest.raises(SystemExit, match="unknown searcher"):
            main(
                ["search", "--graph", "line", "--n", "6",
                 "--searcher", "nope", "--budget", "2"]
            )


class TestLowerBound:
    @pytest.mark.parametrize("algorithm", DETERMINISTIC_ALGORITHMS)
    def test_theorem2(self, capsys, algorithm):
        rc = main(
            ["lowerbound", "--theorem", "2", "--n", "10",
             "--algorithm", algorithm]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert f"Theorem 2 vs {algorithm}" in out
        assert "worst case > 7 (Thm 2)" in out
        # THEOREM2's verdict cell reads exactly "reached".
        assert re.search(
            r"^\| theorem 2 verdict +\| reached +\|$", out, re.MULTILINE
        )

    @pytest.mark.parametrize("algorithm", DETERMINISTIC_ALGORITHMS)
    def test_theorem11(self, capsys, algorithm):
        rc = main(
            ["lowerbound", "--theorem", "11", "--n", "20",
             "--algorithm", algorithm]
        )
        assert rc == 0
        assert f"Theorem 11 vs {algorithm}" in capsys.readouterr().out

    @pytest.mark.parametrize("algorithm", DETERMINISTIC_ALGORITHMS)
    def test_theorem12(self, capsys, algorithm):
        rc = main(
            ["lowerbound", "--theorem", "12", "--n", "17",
             "--algorithm", algorithm]
        )
        assert rc == 0
        assert f"Theorem 12 vs {algorithm}" in capsys.readouterr().out

    def test_randomized_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            main(
                ["lowerbound", "--theorem", "2", "--n", "10",
                 "--algorithm", "harmonic"]
            )


class TestStoreCommands:
    def spec_file(self, tmp_path, seeds=3):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(
            json.dumps(
                {
                    "name": "cli-store",
                    "algorithms": ["round_robin"],
                    "graphs": [{"kind": "line", "n": 6}],
                    "seeds": list(range(seeds)),
                }
            )
        )
        return str(spec_file)

    def test_sweep_sharded_campaign_resumes(self, capsys, tmp_path):
        spec = self.spec_file(tmp_path)
        camp = str(tmp_path / "camp")
        assert main(
            ["sweep", "--spec", spec, "--results", camp,
             "--store", "sharded"]
        ) == 0
        assert "3 run, 0 resumed" in capsys.readouterr().out
        # auto-detection resumes the campaign directory without --store
        assert main(
            ["sweep", "--spec", spec, "--results", camp]
        ) == 0
        assert "0 run, 3 resumed" in capsys.readouterr().out
        assert (tmp_path / "camp" / "manifest.json").exists()

    def test_merge_then_resume_merged_file(self, capsys, tmp_path):
        spec = self.spec_file(tmp_path)
        camp = str(tmp_path / "camp")
        merged = str(tmp_path / "merged.jsonl")
        assert main(
            ["sweep", "--spec", spec, "--results", camp,
             "--store", "sharded"]
        ) == 0
        capsys.readouterr()
        assert main(
            ["merge", "--results", camp, "--out", merged]
        ) == 0
        out = capsys.readouterr().out
        assert "3 record(s)" in out
        assert main(
            ["sweep", "--spec", spec, "--results", merged]
        ) == 0
        assert "0 run, 3 resumed" in capsys.readouterr().out

    def test_report_renders_tables(self, capsys, tmp_path):
        spec = self.spec_file(tmp_path)
        camp = str(tmp_path / "camp")
        assert main(
            ["sweep", "--spec", spec, "--results", camp,
             "--store", "sharded"]
        ) == 0
        capsys.readouterr()
        assert main(["report", "--results", camp]) == 0
        out = capsys.readouterr().out
        assert "3 records" in out
        assert "completion rounds" in out

    def test_report_json(self, capsys, tmp_path):
        spec = self.spec_file(tmp_path)
        results = str(tmp_path / "r.jsonl")
        assert main(
            ["sweep", "--spec", spec, "--results", results]
        ) == 0
        capsys.readouterr()
        assert main(["report", "--results", results, "--json"]) == 0
        decoded = json.loads(capsys.readouterr().out)
        assert decoded["records"] == 3
        assert decoded["cells"]

    def test_report_empty_store_exits_zero(self, capsys, tmp_path):
        # A valid-but-empty campaign is a normal state (a store opened
        # before its first sweep lands a record); the nonzero exit is
        # reserved for damaged stores.
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["report", "--results", str(empty)]) == 0
        captured = capsys.readouterr()
        assert "holds no sweep records" in captured.err
        assert "0 records" in captured.out

    def test_report_empty_store_json_exits_zero(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(
            ["report", "--results", str(empty), "--json"]
        ) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["records"] == 0
        assert doc["cells"] == []
        assert "holds no sweep records" in captured.err

    def test_report_damaged_store_exits_one(self, capsys, tmp_path):
        # Damage (unparsable lines) is what the nonzero exit means.
        damaged = tmp_path / "damaged.jsonl"
        damaged.write_text("{this is not a record\n")
        assert main(["report", "--results", str(damaged)]) == 1
        assert "unparsable" in capsys.readouterr().err

    def test_report_renders_churn_table(self, capsys, tmp_path):
        spec = tmp_path / "churn.json"
        spec.write_text(json.dumps({
            "name": "churny",
            "algorithms": ["round_robin"],
            "graphs": [["line", 6]],
            "adversaries": ["none"],
            "collision_rules": ["CR2"],
            "churns": ["none",
                       ["window", {"count": 1, "start": 2,
                                   "length": 2}]],
            "seeds": [0, 1],
        }))
        results = str(tmp_path / "churn.jsonl")
        assert main(
            ["sweep", "--spec", str(spec), "--results", results]
        ) == 0
        capsys.readouterr()
        assert main(["report", "--results", results]) == 0
        out = capsys.readouterr().out
        assert "under churn" in out
        assert "4 records" in out

    def test_search_sharded_campaign_resumes(self, capsys, tmp_path):
        camp = str(tmp_path / "search-camp")
        args = [
            "search", "--graph", "line", "--n", "6",
            "--algorithm", "round_robin", "--searcher", "random",
            "--budget", "4", "--results", camp,
            "--store", "sharded",
        ]
        assert main(args) == 0
        assert "4" in capsys.readouterr().out
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "evaluations resumed" in out
        assert (tmp_path / "search-camp" / "manifest.json").exists()

    def test_unknown_store_backend_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                ["sweep", "--spec", self.spec_file(tmp_path),
                 "--store", "nope"]
            )


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize(
        "argv",
        [
            ["search", "--flush-every", "1"],
            ["search", "--engine", "auto"],
        ],
    )
    def test_search_rejects_removed_settings(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    def test_search_engine_defaults_to_fast(self):
        assert build_parser().parse_args(["search"]).engine == "fast"


class TestClosedPipe:
    """A reader that closes stdout early (``repro ... | head -1``) ends
    the command quietly: no traceback, and Python's EPIPE status 1."""

    TINY_SPEC = (
        pathlib.Path(__file__).parent.parent
        / "examples" / "specs" / "tiny_sweep.json"
    )

    @pytest.mark.parametrize("command", ["sweep", "list"])
    def test_exits_quietly(self, tmp_path, command):
        argv = {
            "sweep": [
                "sweep", "--spec", str(self.TINY_SPEC),
                "--results", str(tmp_path / "tiny.jsonl"),
            ],
            "list": ["list"],
        }[command]
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        # The reader is gone before the command writes its first line.
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert stderr == ""
