#!/usr/bin/env python3
"""Paired parent/change runs of ``perfbench/run.py``, judged and ledgered.

Usage, from the root of a checkout::

    python scripts/bench_ab.py --parent <rev> [--change <rev>] [--pairs 10]

The parent (and a ``--change`` revision, if given) is exported with
``git archive`` into a temporary directory; without ``--change`` the
change side is this working tree.  For every workload in
``BENCHMARK.json`` the script runs ``--pairs`` pairs of ``perfbench/run.py
--seconds S --trace 0``, both sides of pair ``i`` on seed ``--seed + i``,
flipping which side runs first every pair.  Then it runs each side once
with ``--trace 1`` for the per-layer split.

For each workload and end-to-end metric it prints both sides' medians
and quartiles, the ratio of the change's median to the parent's, the
pairs the change won and the parent's spread (interquartile range over
median), and a verdict against the metric's bound in ``BENCHMARK.json``:

* ``worse``: the change's median is worse than the parent's by more
  than the bound allows;
* ``better``: the change won at least nine pairs in ten and its median
  beats the parent's by more than the parent's interquartile range;
* ``unresolved``: the parent's spread exceeds the bound, so "no worse"
  cannot be told apart from noise (unless every change run beats every
  parent run);
* ``same`` otherwise.

A ``failed_share`` row compares the share of failed operations.  The exit
status is 1 when any row is ``worse``.

Each side's rows (every run's metric values, with the environment line
``perfbench`` prints) are appended to ``BENCH_perfbench.json``, an
object keyed by commit, one row per line; the working tree is keyed
``<HEAD>+worktree`` when its sources differ from ``HEAD``.  Medians are
computed from the values when reading.  Existing rows are never
rewritten.
"""

from __future__ import annotations

import argparse
import datetime
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "BENCH_perfbench.json"

#: Share of pairs the change must win before a gain is claimed.
WIN_SHARE = 0.9


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """First quartile, median and third quartile (inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def ratio(change: float, parent: float) -> float:
    """``change / parent``, with 0/0 read as no change."""
    if parent == 0:
        return 1.0 if change == 0 else math.inf
    return change / parent


@dataclass
class Verdict:
    """One metric on one workload, judged over paired runs."""

    parent: Tuple[float, float, float]
    change: Tuple[float, float, float]
    median_ratio: float  # change median / parent median
    wins: int
    pairs: int
    spread: float
    bound: float
    verdict: str


def judge(
    parent: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: float,
) -> Verdict:
    """Judge paired runs of one metric (``parent[i]`` pairs ``change[i]``).

    ``better`` is ``"higher"`` or ``"lower"``; ``bound`` is the relative
    worsening the metric tolerates.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need equally many parent and change runs, > 0")
    sign = 1 if better == "higher" else -1
    p = quartiles(parent)
    c = quartiles(change)
    median_ratio = ratio(c[1], p[1])
    wins = sum(sign * (x - y) > 0 for x, y in zip(change, parent))
    iqr = p[2] - p[0]
    spread = iqr / abs(p[1]) if p[1] else 0.0
    all_better = (
        min(change) > max(parent) if sign > 0 else max(change) < min(parent)
    )
    if sign * (1 - median_ratio) > bound:
        verdict = "worse"
    elif wins >= WIN_SHARE * len(parent) and sign * (c[1] - p[1]) > iqr:
        verdict = "better"
    elif spread > bound and not all_better:
        verdict = "unresolved"
    else:
        verdict = "same"
    return Verdict(
        p, c, median_ratio, wins, len(parent), spread, bound, verdict
    )


def parse_run(stdout: str) -> Dict[str, Any]:
    """The two JSON lines ``perfbench/run.py`` ends with.

    Returns ``{"info": <environment line>, "result": <result line>}``.
    """
    lines = [line for line in stdout.splitlines() if line.strip()]
    if len(lines) < 2:
        raise ValueError("perfbench printed no result line")
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    if "metrics" not in result or "environment" not in info:
        raise ValueError("perfbench's last two lines are not its result")
    return {"info": info, "result": result}


def metric_values(runs: Sequence[Dict[str, Any]], name: str) -> List[float]:
    """One metric's value in each run."""
    return [run["result"]["metrics"][name]["value"] for run in runs]


def failed_share(runs: Sequence[Dict[str, Any]]) -> float:
    """Failed operations over attempted ones, across runs."""
    attempted = sum(run["result"]["attempted"] for run in runs)
    failed = sum(run["result"]["failed"] for run in runs)
    return failed / attempted if attempted else 0.0


def compare(
    benchmark: Dict[str, Any],
    parent_runs: Sequence[Dict[str, Any]],
    change_runs: Sequence[Dict[str, Any]],
) -> List[Tuple[str, Verdict]]:
    """Every end-to-end metric of one workload's runs, judged."""
    rows = []
    for spec in benchmark["end_to_end"]:
        name = spec["name"]
        rows.append(
            (
                name,
                judge(
                    metric_values(parent_runs, name),
                    metric_values(change_runs, name),
                    spec["better"],
                    spec["bound"],
                ),
            )
        )
    p, c = failed_share(parent_runs), failed_share(change_runs)
    rows.append(
        (
            "failed_share",
            Verdict(
                (p, p, p), (c, c, c), ratio(c, p), 0, len(parent_runs),
                0.0, 0.0, "worse" if c > p else "same",
            ),
        )
    )
    return rows


def render(workload: str, rows: Sequence[Tuple[str, Verdict]]) -> str:
    """The comparison table of one workload."""

    def side(q: Tuple[float, float, float]) -> str:
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    out = [
        f"{workload:16s} {'parent med [q1, q3]':>30s} "
        f"{'change med [q1, q3]':>30s}  ratio  wins  IQR/med bound verdict"
    ]
    for name, v in rows:
        out.append(
            f"{name:16s} {side(v.parent):>30s} {side(v.change):>30s} "
            f"{v.median_ratio:6.3f} {v.wins:>2d}/{v.pairs:<2d} "
            f"{v.spread:7.3f} {v.bound:5.2f} {v.verdict}"
        )
    return "\n".join(out)


def side_row(
    runs: Sequence[Dict[str, Any]],
    workload: str,
    trace: int,
    seconds: float,
) -> Dict[str, Any]:
    """One side's ledger row for one workload and trace mode."""
    names = list(runs[0]["result"]["metrics"])
    info = runs[0]["info"]
    return {
        "recorded": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
        "workload": workload,
        "trace": trace,
        "seconds": seconds,
        "seeds": [run["info"]["seed"] for run in runs],
        "source_sha256": info["source_sha256"],
        "nproc": info["nproc"],
        "environment": info["environment"],
        "attempted": sum(run["result"]["attempted"] for run in runs),
        "failed": sum(run["result"]["failed"] for run in runs),
        "values": {name: metric_values(runs, name) for name in names},
    }


def append_rows(ledger: Path, key: str, rows: Sequence[Dict]) -> None:
    """Append rows under ``key``, leaving every existing row as it was."""
    data = json.loads(ledger.read_text()) if ledger.exists() else {}
    data.setdefault(key, []).extend(rows)
    blocks = [
        f" {json.dumps(commit)}: [\n"
        + ",\n".join(f"  {json.dumps(row, sort_keys=True)}" for row in rows)
        + "\n ]"
        for commit, rows in sorted(data.items())
    ]
    tmp = ledger.with_suffix(".json.tmp")
    tmp.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
    os.replace(tmp, ledger)


def git(*args: str) -> str:
    """The output of one git command run in this checkout."""
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True,
        text=True,
    ).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """Write the committed files of ``rev`` into ``dest``."""
    blob = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
        capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, filter="data")


def worktree_key() -> str:
    """``HEAD``, marked when the program or benchmark sources differ."""
    head = git("rev-parse", "HEAD")
    dirty = git("status", "--porcelain", "--", "src", "perfbench")
    return f"{head}+worktree" if dirty else head


def run_side(
    root: Path, workload: str, seed: int, seconds: float, trace: int
) -> Dict[str, Any]:
    """One ``perfbench/run.py`` run in checkout ``root``."""
    proc = subprocess.run(
        [
            sys.executable, str(root / "perfbench" / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=root, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"perfbench failed in {root} ({workload}, seed {seed}):\n"
            f"{proc.stderr[-2000:]}"
        )
    return parse_run(proc.stdout)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision")
    parser.add_argument(
        "--change", help="git revision (default: this working tree)"
    )
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--workload", action="append",
        help="workload to run (repeatable; default: all in BENCHMARK.json)",
    )
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    parent_key = git("rev-parse", args.parent)
    change_key = (
        git("rev-parse", args.change) if args.change else worktree_key()
    )
    with tempfile.TemporaryDirectory() as tmp:
        parent_root = Path(tmp) / "parent"
        export(parent_key, parent_root)
        change_root = ROOT
        if args.change:
            change_root = Path(tmp) / "change"
            export(change_key, change_root)
        roots = {"parent": parent_root, "change": change_root}

        worse = False
        for workload in workloads:
            runs: Dict[str, List[Dict[str, Any]]] = {
                "parent": [], "change": []
            }
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else (
                    "change", "parent"
                )
                for side in order:
                    runs[side].append(
                        run_side(
                            roots[side], workload, args.seed + i,
                            args.seconds, 0,
                        )
                    )
            traced = {
                side: [
                    run_side(root, workload, args.seed, args.seconds, 1)
                ]
                for side, root in roots.items()
            }
            rows = compare(benchmark, runs["parent"], runs["change"])
            print(render(workload, rows), flush=True)
            worse |= any(v.verdict == "worse" for _, v in rows)
            for side, key in (("parent", parent_key), ("change", change_key)):
                append_rows(
                    LEDGER,
                    key,
                    [
                        side_row(runs[side], workload, 0, args.seconds),
                        side_row(traced[side], workload, 1, args.seconds),
                    ],
                )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
