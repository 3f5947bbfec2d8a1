"""The benchmark's workloads and the campaign each of their runs repeats.

A workload is one sweep cell family driven through the public API the
way a user drives a campaign: an :class:`ExperimentSpec` goes through a
:class:`SweepRunner` into a sharded campaign directory, the finished
spec is re-run against that directory (a full resume, zero tasks
executed), and :class:`CampaignReport` folds the stored records into the
rendered report.  A run repeats that campaign on fresh seed ranges until
its time budget is spent; campaign ``k`` of a run seeded ``s`` covers
seeds ``s + k*S .. s + (k+1)*S - 1``.
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass, field
from typing import Callable, List

from repro.analysis.report import CampaignReport
from repro.experiments import ExperimentSpec, SweepRunner
from repro.experiments.results import RunResult
from repro.store import open_store

SpecFactory = Callable[[str, int, int], ExperimentSpec]


# Both single-cell workloads fix a round horizon that almost no seed
# finishes inside, so every seed does nearly the same work and a run's
# timings measure the program rather than which seeds it drew.
# Uncapped, harmonic's completion rounds on this cell spread with a
# coefficient of variation near 0.9, and Decay's transmissions per seed
# on gnp n=1000 differ by up to a factor of two.


def _cr4_greedy(name: str, first: int, count: int) -> ExperimentSpec:
    # Horizon n - 3 = 126 rounds, Theorem 2's stall bound.
    return ExperimentSpec(
        name=name,
        algorithms=[("harmonic", {"T": 4})],
        graphs=[("clique-bridge", 129)],
        adversaries=["greedy"],
        collision_rules=["CR4"],
        engines=["fast"],
        seeds=range(first, first + count),
        max_rounds=129 - 3,
    )


def _gnp_decay(name: str, first: int, count: int) -> ExperimentSpec:
    # Horizon 44 rounds, four Decay phases of 11 slots at n=1000; seeds
    # complete in 53 to 97 rounds.
    return ExperimentSpec(
        name=name,
        algorithms=["decay"],
        graphs=[("gnp", 1000)],
        adversaries=[("random", {"p": 0.5})],
        collision_rules=["CR1"],
        engines=["fast"],
        seeds=range(first, first + count),
        max_rounds=44,
    )


def _campaign_many(name: str, first: int, count: int) -> ExperimentSpec:
    # Eight trivial cells; ``count`` seeds each.
    return ExperimentSpec(
        name=name,
        algorithms=["round_robin", "decay"],
        graphs=[("line", 4), ("ring", 4)],
        adversaries=["none"],
        collision_rules=["CR1", "CR2"],
        engines=["fast"],
        seeds=range(first, first + count),
    )


@dataclass(frozen=True)
class Workload:
    """One named workload.

    Attributes:
        name: The workload name in ``BENCHMARK.json``.
        make_spec: ``(spec name, first seed, seeds per cell)`` → spec.
        workers: Sweep pool size (capped at the host's core count).
        seeds: Seeds per cell in one campaign.
        smoke_seeds: Seeds per cell in one campaign of a smoke run.
        repeats: Resume and report repetitions per campaign; the
            fastest is kept, so millisecond-scale timings of the small
            stores still read steadily.
        check_samples: Tasks per run re-run on the reference engine.
        est_campaign_s: Rough seconds per campaign at one worker, used
            only to size the traced run (fixed for a given budget).
    """

    name: str
    make_spec: SpecFactory
    workers: int
    seeds: int
    smoke_seeds: int
    repeats: int
    check_samples: int
    est_campaign_s: float

    def spec(self, first: int, count: int) -> ExperimentSpec:
        """The campaign spec covering ``count`` seeds from ``first``."""
        return self.make_spec(f"bench-{self.name}", first, count)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cr4-greedy", _cr4_greedy, 1, 16, 2, 5, 2, 2.0),
        Workload("gnp-decay", _gnp_decay, 1, 1, 1, 5, 1, 1.0),
        Workload("campaign-many", _campaign_many, 2, 750, 50, 1, 32, 2.5),
    )
}


def cpu_seconds() -> float:
    """User+system CPU of this process plus every reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


@dataclass
class Campaign:
    """What one campaign measured, and what went wrong in it."""

    spec: ExperimentSpec
    directory: str
    executed: int = 0
    sweep_s: float = 0.0
    cpu_s: float = 0.0
    campaign_s: float = 0.0
    resume_s: float = 0.0
    report_s: float = 0.0
    report_records: int = 0
    records: List[RunResult] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)


def run_campaign(
    workload: Workload,
    first: int,
    count: int,
    directory: str,
    workers: int,
    repeats: int,
    keep_records: bool = False,
) -> Campaign:
    """Spec → sweep → full resume → report, timed phase by phase.

    The sweep's records are kept only on request: timed runs drop them,
    so peak memory reflects one campaign, not how many fit the budget.
    """
    clock = time.perf_counter
    start = clock()
    spec = workload.spec(first, count)
    campaign = Campaign(spec=spec, directory=directory)
    cpu_start = cpu_seconds()
    result = SweepRunner(
        spec, workers=workers, results_path=directory, store="sharded"
    ).run()
    campaign.sweep_s = clock() - start
    campaign.cpu_s = cpu_seconds() - cpu_start
    campaign.executed = result.executed
    if keep_records:
        campaign.records = result.records
    if result.executed != spec.size or result.resumed:
        campaign.problems.append(
            f"sweep ran {result.executed} and resumed {result.resumed} "
            f"of {spec.size} tasks"
        )

    resumes = []
    for _ in range(repeats):
        begin = clock()
        again = SweepRunner(
            spec, workers=workers, results_path=directory, store="sharded"
        ).run()
        resumes.append(clock() - begin)
        if again.executed or again.resumed != spec.size:
            campaign.problems.append(
                f"resume ran {again.executed} and resumed "
                f"{again.resumed} of {spec.size} tasks"
            )

    reports = []
    for i in range(repeats):
        begin = clock()
        with open_store(directory, RunResult.from_dict) as store:
            report = CampaignReport.from_store(store)
            report.render()
            rendered = clock()
            report.to_dict()
        reports.append(clock() - begin)
        if i == 0:
            campaign.campaign_s = campaign.sweep_s + (rendered - begin)
            campaign.report_records = report.records
        if report.records != spec.size:
            campaign.problems.append(
                f"report folded {report.records} of {spec.size} records"
            )
    campaign.resume_s = min(resumes)
    campaign.report_s = min(reports)
    return campaign
