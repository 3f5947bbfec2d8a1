"""Output checks: is every campaign's store complete and its science right?

Two checks per run, both untimed:

* **Key census** — every task key a campaign's spec expands to is in
  its store exactly once, and nothing else is.
* **Reference re-run** — a fixed sample of tasks, the ones with the
  smallest ``crc32(key)`` across the run, is executed again on the
  reference engine with receptions recorded, independently of the sweep
  runner.  Their ``completed``, ``completion_round``, ``rounds`` and
  ``total_transmissions`` must equal the stored record's, and
  :func:`repro.sim.validation.validate_execution` must find nothing
  wrong in the trace.
"""

from __future__ import annotations

import heapq
import zlib
from collections import Counter
from typing import Dict, List, Sequence, Set, Tuple

from repro.core.runner import make_processes, suggested_round_limit
from repro.experiments.registry import (
    build_adversary,
    build_churn,
    build_graph,
)
from repro.experiments.results import RunResult
from repro.experiments.spec import RunTask
from repro.sim.collision import CollisionRule
from repro.sim.engine import EngineConfig, StartMode, build_engine
from repro.sim.validation import validate_execution
from repro.store import open_store

from workloads import Campaign

SCIENCE = ("completed", "completion_round", "rounds", "total_transmissions")


def _key_hash(key: str) -> int:
    return zlib.crc32(key.encode("utf-8"))


def reference_problems(task: RunTask, record: RunResult) -> List[str]:
    """Re-run ``task`` on the reference engine; list every disagreement."""
    graph = build_graph(
        task.graph_kind, task.n, seed=task.seed, **dict(task.graph_params)
    )
    adversary = build_adversary(
        task.adversary_kind,
        seed=task.derived_seed,
        **dict(task.adversary_params),
    )
    processes = make_processes(
        task.algorithm, graph.n, **dict(task.algorithm_params)
    )
    max_rounds = task.max_rounds
    if max_rounds is None:
        max_rounds = suggested_round_limit(task.algorithm, graph)
    churn = build_churn(
        task.churn_kind,
        n=graph.n,
        rounds=max_rounds,
        seed=task.derived_seed,
        **dict(task.churn_params),
    )
    config = EngineConfig(
        collision_rule=CollisionRule[task.collision_rule],
        start_mode=StartMode(task.start_mode),
        max_rounds=max_rounds,
        seed=task.derived_seed,
        engine="reference",
        churn=churn,
        record_receptions=True,
    )
    trace = build_engine(graph, processes, adversary, config).run()
    expected = {
        "completed": trace.completed,
        "completion_round": trace.completion_round,
        "rounds": trace.num_rounds,
        "total_transmissions": sum(trace.sender_counts()),
    }
    problems = [
        f"{task.key}: {name} is {getattr(record, name)!r}, "
        f"reference engine gives {value!r}"
        for name, value in expected.items()
        if getattr(record, name) != value
    ]
    problems.extend(
        f"{task.key}: {violation}"
        for violation in validate_execution(
            trace,
            graph,
            config.collision_rule,
            config.start_mode,
            churn=churn,
        )
    )
    return problems


def check_campaigns(
    campaigns: Sequence[Campaign], samples: int
) -> Tuple[Set[str], List[str]]:
    """Census every campaign and re-run the run's sample.

    Returns the keys of failed tasks and a message per problem found,
    campaign-level problems included.
    """
    tasks_by_campaign = [c.spec.tasks() for c in campaigns]
    sample = heapq.nsmallest(
        samples,
        (
            (_key_hash(task.key), task.key, task)
            for tasks in tasks_by_campaign
            for task in tasks
        ),
    )
    sampled: Dict[str, RunTask] = {key: task for _, key, task in sample}
    stored: Dict[str, RunResult] = {}
    failed: Set[str] = set()
    messages: List[str] = []
    for campaign, tasks in zip(campaigns, tasks_by_campaign):
        messages.extend(campaign.problems)
        expected = {task.key for task in tasks}
        seen: Counter = Counter()
        with open_store(campaign.directory, RunResult.from_dict) as store:
            for record in store.iter_records():
                seen[record.key] += 1
                if record.key in sampled:
                    stored[record.key] = record
            damage = store.health.issues
        if damage:
            messages.append(
                f"{campaign.directory}: {damage} unreadable record(s)"
            )
        for key in sorted(expected - set(seen)):
            failed.add(key)
            messages.append(f"{key}: missing from the store")
        for key, times in sorted(seen.items()):
            if key not in expected:
                failed.add(key)
                messages.append(f"{key}: in the store but not in the spec")
            elif times > 1:
                failed.add(key)
                messages.append(f"{key}: stored {times} times")
    for key, task in sampled.items():
        if key not in stored:
            continue  # already counted missing
        problems = reference_problems(task, stored[key])
        if problems:
            failed.add(key)
            messages.extend(problems)
    return failed, messages
