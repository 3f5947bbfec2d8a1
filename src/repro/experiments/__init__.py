"""Declarative parallel experiment sweeps.

The subsystem turns the paper's ensemble claims — statements over grids
of (graph × algorithm × adversary × seed) configurations — into a
first-class workload::

    from repro.analysis import CampaignReport
    from repro.experiments import ExperimentSpec, run_sweep

    spec = ExperimentSpec(
        name="demo",
        algorithms=[("harmonic", {"T": 4}), "round_robin"],
        graphs=[("clique-bridge", n) for n in (9, 17, 33)],
        adversaries=["greedy"],
        seeds=range(5),
    )
    result = run_sweep(spec, workers=4, results_path="results/demo.jsonl")
    report = CampaignReport.from_records(result.records)
    print(report.render())  # one row per cell: every axis but the seed

Sweeps fan out over worker processes (one future per cell batch on the
runner's :class:`~repro.experiments.runner.WorkerPool`, which survives
one worker loss), persist each finished run as a JSON line, and resume
by key after interruption.  Records are deterministic: the same spec
yields identical results for any worker count.
"""

from repro.experiments.registry import (
    adversary_descriptions,
    adversary_kinds,
    build_adversary,
    build_churn,
    build_graph,
    churn_descriptions,
    churn_kinds,
    graph_descriptions,
    graph_kinds,
    graph_seed_dependent,
    register_adversary,
    register_churn,
    register_graph,
)
from repro.experiments.results import RunResult, SweepResult
from repro.experiments.runner import (
    SweepRunner,
    execute_batch,
    execute_task,
    run_sweep,
)
from repro.experiments.spec import (
    AdversarySpec,
    AlgorithmSpec,
    CellBatch,
    ChurnSpec,
    ExperimentSpec,
    GraphSpec,
    RunTask,
    cell_key_of,
    curve_key_of,
    load_specs,
    plan_batches,
)

__all__ = [
    "AdversarySpec",
    "AlgorithmSpec",
    "CellBatch",
    "ChurnSpec",
    "ExperimentSpec",
    "GraphSpec",
    "RunResult",
    "RunTask",
    "SweepResult",
    "SweepRunner",
    "adversary_descriptions",
    "adversary_kinds",
    "build_adversary",
    "build_churn",
    "build_graph",
    "cell_key_of",
    "churn_descriptions",
    "churn_kinds",
    "curve_key_of",
    "execute_batch",
    "execute_task",
    "graph_descriptions",
    "graph_kinds",
    "graph_seed_dependent",
    "load_specs",
    "plan_batches",
    "register_adversary",
    "register_churn",
    "register_graph",
    "run_sweep",
]
