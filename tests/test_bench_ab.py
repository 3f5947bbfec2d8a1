"""The paired-run verdicts of ``scripts/bench_ab.py``, on canned lines."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_ab", ROOT / "scripts" / "bench_ab.py"
)
bench_ab = importlib.util.module_from_spec(_spec)
sys.modules["bench_ab"] = bench_ab  # dataclasses resolve it by name
_spec.loader.exec_module(bench_ab)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def canned_stdout(seeds_per_s, failed=0, seed=0):
    """What ``perfbench/run.py --trace 0`` prints, reduced to what the
    script reads: metric lines, the environment line, the result line."""
    metrics = {
        spec["name"]: {"value": 1.0, "unit": spec["unit"]}
        for spec in BENCHMARK["end_to_end"]
    }
    metrics["seeds_per_s"]["value"] = seeds_per_s
    info = {
        "workload": "cr4-greedy",
        "seed": seed,
        "source_sha256": "ab" * 32,
        "nproc": 2,
        "environment": {"python_version": "3.11.7", "cpu_count": 2},
    }
    result = {
        "correct": failed == 0,
        "attempted": 32,
        "failed": failed,
        "metrics": metrics,
    }
    lines = [
        f"{name:32s} {m['value']:>18.6f} {m['unit']}"
        for name, m in metrics.items()
    ]
    return "\n".join(lines + [json.dumps(info), json.dumps(result)]) + "\n"


def runs(values, **kw):
    return [
        bench_ab.parse_run(canned_stdout(v, seed=i, **kw))
        for i, v in enumerate(values)
    ]


class TestJudge:
    def test_clear_gain_is_better(self):
        v = bench_ab.judge(
            [16.0, 16.5, 15.7, 16.9] * 2 + [16.2, 16.4],
            [40.0, 41.0, 39.5, 41.6] * 2 + [40.2, 40.8],
            "higher", 0.25,
        )
        assert v.verdict == "better"
        assert v.wins == v.pairs == 10
        assert v.median_ratio == pytest.approx(2.47, abs=0.05)

    def test_regression_beyond_bound_is_worse(self):
        v = bench_ab.judge([10.0] * 10, [7.0] * 10, "higher", 0.25)
        assert v.verdict == "worse"
        v = bench_ab.judge([1.0] * 10, [1.3] * 10, "lower", 0.25)
        assert v.verdict == "worse"

    def test_small_moves_within_bound_are_same(self):
        v = bench_ab.judge(
            [10.0, 10.2, 9.9, 10.1] * 2 + [10.0, 10.1],
            [9.6, 9.8, 9.7, 9.9] * 2 + [9.8, 9.7],
            "higher", 0.25,
        )
        assert v.verdict == "same"
        assert v.wins == 0

    def test_wide_parent_spread_is_unresolved(self):
        parent = [5.0, 10.0, 15.0, 20.0, 8.0, 12.0, 18.0, 6.0, 14.0, 9.0]
        v = bench_ab.judge(parent, parent[::-1], "lower", 0.25)
        assert v.spread > 0.25
        assert v.verdict == "unresolved"

    def test_wide_spread_resolved_when_every_change_run_is_better(self):
        parent = [5.0, 10.0, 15.0, 20.0, 8.0, 12.0, 18.0, 6.0, 14.0, 9.0]
        change = [4.9] * 8 + [21.0, 21.0]  # wins 8/10: no gain claimed
        v = bench_ab.judge(parent, [4.0] * 10, "lower", 0.25)
        assert v.verdict == "better"
        v = bench_ab.judge(parent, change, "lower", 0.25)
        assert v.verdict == "unresolved"

    def test_nine_of_ten_wins_required(self):
        parent = [10.0] * 10
        v = bench_ab.judge(parent, [20.0] * 8 + [9.0] * 2, "higher", 0.25)
        assert v.wins == 8
        assert v.verdict == "same"

    def test_ratio_is_of_the_medians_not_the_median_of_pair_ratios(self):
        parent = [10.0, 12.0, 9.0, 10.0, 12.0, 11.0, 9.0, 10.0, 9.0, 12.0]
        change = [7.0, 8.0, 8.0, 11.0, 8.0, 11.0, 6.0, 9.0, 7.0, 7.0]
        pair_ratios = [c / p for c, p in zip(change, parent)]
        # Read off the pairs, the change looks worse than the bound...
        assert sorted(pair_ratios)[4] < 0.75
        v = bench_ab.judge(parent, change, "higher", 0.25)
        # ...but its median is 8 against the parent's 10: within bound.
        assert v.median_ratio == pytest.approx(0.8)
        assert v.spread <= 0.25
        assert v.verdict == "same"

    def test_unpaired_runs_rejected(self):
        with pytest.raises(ValueError):
            bench_ab.judge([1.0, 2.0], [1.0], "higher", 0.25)


class TestCannedLines:
    def test_parse_reads_the_last_two_lines(self):
        run = bench_ab.parse_run(canned_stdout(26.5, seed=4))
        assert run["info"]["seed"] == 4
        assert run["result"]["metrics"]["seeds_per_s"]["value"] == 26.5

    def test_parse_rejects_a_run_without_result(self):
        with pytest.raises(ValueError):
            bench_ab.parse_run("campaign 1: 16 tasks\n")

    def test_compare_judges_every_end_to_end_metric(self):
        rows = dict(
            bench_ab.compare(
                BENCHMARK,
                runs([16.0] * 10), runs([40.0] * 10),
            )
        )
        names = [spec["name"] for spec in BENCHMARK["end_to_end"]]
        assert list(rows) == names + ["failed_share"]
        assert rows["seeds_per_s"].verdict == "better"
        assert rows["campaign_s"].verdict == "same"
        assert rows["failed_share"].verdict == "same"

    def test_more_failures_are_worse(self):
        rows = dict(
            bench_ab.compare(
                BENCHMARK,
                runs([16.0] * 10), runs([16.0] * 10, failed=1),
            )
        )
        assert rows["failed_share"].verdict == "worse"

    def test_ledger_only_appends(self, tmp_path):
        ledger = tmp_path / "BENCH_perfbench.json"
        row = bench_ab.side_row(runs([16.0, 17.0]), "cr4-greedy", 0, 10)
        assert row["values"]["seeds_per_s"] == [16.0, 17.0]
        assert row["seeds"] == [0, 1]
        bench_ab.append_rows(ledger, "a", [row])
        bench_ab.append_rows(ledger, "a", [dict(row, trace=1)])
        bench_ab.append_rows(ledger, "b", [row])
        text = ledger.read_text()
        data = json.loads(text)
        assert [r["trace"] for r in data["a"]] == [0, 1]
        assert data["b"] == [row]
        # One line per row, besides the braces and one pair per key.
        assert len(text.splitlines()) == 2 + 2 * 2 + 3
