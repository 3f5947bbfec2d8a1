"""Smoke test of the benchmark itself: every workload at its smallest size.

Usage, from the root of a checkout::

    python3 perfbench/smoke.py

For each workload in ``BENCHMARK.json`` it runs ``run.py --smoke`` once
untraced and once traced, and checks that

* the printed metrics are exactly ``BENCHMARK.json``'s ``end_to_end``
  (untraced) or ``per_layer`` (traced) metrics, with their units;
* ``correct`` is true and ``failed`` is 0 (the traced run re-runs its
  campaigns untraced and counts every record or ``engine.*`` counter
  that differs as a failure);
* on ``cr4-greedy`` every CR4 consult falls back and returns silence,
  and on ``gnp-decay`` CR4 is never consulted and graph build is the
  largest self time;
* ``interaction_map.json`` names exactly the declared workloads, and
  only declared metrics.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, trace: int) -> Dict[str, Any]:
    """One smoke run of ``workload``; its parsed result line."""
    out = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            workload,
            "--seed",
            "0",
            "--seconds",
            "1",
            "--trace",
            str(trace),
            "--smoke",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if out.returncode:
        raise RuntimeError(
            f"{workload} --trace {trace} exited {out.returncode}:\n"
            f"{out.stderr}"
        )
    return json.loads(out.stdout.splitlines()[-1])


def check_result(
    label: str, result: Dict[str, Any], declared: List[Dict[str, Any]]
) -> List[str]:
    """Problems with one result line against the declared metrics."""
    problems = []
    units = {m["name"]: m["unit"] for m in declared}
    printed = {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    if printed != units:
        problems.append(f"{label}: metrics {printed} != declared {units}")
    if not result["correct"] or result["failed"]:
        problems.append(
            f"{label}: correct={result['correct']} "
            f"failed={result['failed']} of {result['attempted']}"
        )
    return problems


def check_layers(workload: str, metrics: Dict[str, Any]) -> List[str]:
    """The per-layer facts each single-cell workload must show."""
    value = {name: m["value"] for name, m in metrics.items()}
    problems = []
    if workload == "cr4-greedy":
        if not value["sim.cr4_consults"] or (
            value["sim.cr4_fallbacks"] != value["sim.cr4_consults"]
        ):
            problems.append("cr4-greedy: CR4 consults must all fall back")
        if value["adversaries.cr4_silence_ratio"] != 1.0:
            problems.append("cr4-greedy: every consult must return silence")
    if workload == "gnp-decay":
        if value["sim.cr4_consults"]:
            problems.append("gnp-decay: CR4 must never be consulted")
        self_times = {
            name: v
            for name, v in value.items()
            if name.endswith("_s") and name != "graphs.build_s"
        }
        if value["graphs.build_s"] <= max(self_times.values()):
            problems.append(
                "gnp-decay: graph build must be the largest self time"
            )
    return problems


def main() -> int:
    """Run every smoke check; print each problem."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    problems = []
    layer_map = json.loads((HERE / "interaction_map.json").read_text())
    if sorted(layer_map["workloads"]) != sorted(names):
        problems.append("interaction_map.json workloads != BENCHMARK.json")
    declared = {m["name"] for m in bench["end_to_end"] + bench["per_layer"]}
    for layer, entry in layer_map["layers"].items():
        unknown = (
            set(entry["metrics"] + entry["should_move"]) - declared
        ) | (set(entry["on"] + entry["no_change_on"]) - set(names))
        if unknown:
            problems.append(f"interaction_map.json {layer}: {sorted(unknown)}")
    for workload in names:
        for trace, declared_metrics in (
            (0, bench["end_to_end"]),
            (1, bench["per_layer"]),
        ):
            result = run(workload, trace)
            problems += check_result(
                f"{workload} --trace {trace}", result, declared_metrics
            )
            if trace:
                problems += check_layers(workload, result["metrics"])
        print(f"{workload}: done")
    for problem in problems:
        print(f"FAILED {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
