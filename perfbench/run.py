"""Campaign benchmark: seeds/s from spec to report, split by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cr4-greedy --seed 0 --seconds 30 --trace 0

Each run drives whole campaigns through the public API (``ExperimentSpec``
→ ``SweepRunner(..., results_path=<campaign dir>)`` → full resume →
``CampaignReport.from_store``) in a closed loop: the sweep pool (at most
one worker per core) takes the next dispatch unit when the previous one
finishes, and the next campaign starts when the previous one is done,
until ``--seconds`` have passed.  Every input derives from ``--seed``, the
first seed of the run's seed range (see ``workloads.py``).

``--trace 0`` prints the end-to-end metrics: each timing from the run's
fastest campaign, set-up time as the median of fresh interpreters spread
over the run, and the peak memory of the first campaign.

``--trace 1`` runs a fixed number of campaigns twice in this one process
with one worker, first plainly and then with spans around every layer's
entry points (``layers.py``), checks that both passes stored identical
records and identical ``engine.*`` counters, and prints the per-layer
metrics of the traced pass.  Either way the run
checks its outputs (``checks.py``); failed tasks count in ``failed``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
carries the commit, the core count and the environment.  The program is
built from ``src/`` next to this directory; without it the run exits
with code 2 and prints no result.  Campaign stores live under
``.perfbench_work/`` in the checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: End-to-end metrics and their units, in print order.
END_TO_END = {
    "seeds_per_s": "1/s",
    "campaign_s": "s",
    "setup_s": "s",
    "cpu_ms_per_seed": "ms",
    "peak_rss_mb": "MB",
    "resume_s": "s",
    "report_s": "s",
}

#: Fewest fresh-interpreter set-ups a run times for ``setup_s``.
MIN_SETUPS = 5


def layer_unit(name: str) -> str:
    """The unit of a per-layer metric, read off its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "store.bytes":
        return "B"
    return "count"


def load_program() -> bool:
    """Put the checkout's ``src`` first on the path and import ``repro``.

    Refuses a ``repro`` found anywhere else, so a checkout without its
    sources cannot measure some other copy of the program.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    import repro

    if SRC not in Path(repro.__file__).resolve().parents:
        print(f"error: repro imported from {repro.__file__}", file=sys.stderr)
        return False
    return True


def commit_id() -> Optional[str]:
    """The checkout's commit, when it is a git repository."""
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(
        ["git", "rev-parse", "HEAD"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=30,
    )
    return out.stdout.strip() or None


def source_digest() -> str:
    """sha256 over the program's source files, paths included."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def peak_rss_mb() -> float:
    """The larger of this process's and any reaped child's max RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def setup_probe(spec_path: Path, workers: int, work: Path) -> float:
    """Set-up seconds of one sweep of the spec file, in a fresh interpreter."""
    results = Path(tempfile.mkdtemp(dir=work)) / "campaign"
    out = subprocess.run(
        [
            sys.executable,
            str(HERE / "setup_probe.py"),
            str(spec_path),
            str(results),
            str(workers),
        ],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(out.stdout.split()[-1])


def _spin() -> float:
    """Seconds a fixed pure-Python loop takes on the current core."""
    start = time.perf_counter()
    total = 0
    for i in range(50_000):
        total += i * i % 7
    return time.perf_counter() - start


def pin_to_quietest_cpu(cpus: List[int]) -> None:
    """Pin this process to the core of ``cpus`` that runs ``_spin`` fastest.

    Other tenants of a shared host slow one core at a time, for tens of
    seconds, and this process's scheduler cannot see it; a single-worker
    campaign placed on the quiet core measures the program rather than
    its neighbour.  Called before every single-worker campaign.
    """
    speeds = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        speeds.append((min(_spin() for _ in range(3)), cpu))
    os.sched_setaffinity(0, {min(speeds)[1]})


def dir_bytes(path: str) -> int:
    """Total size of the files under ``path``."""
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def run_timed(
    workload: Any, seed: int, seconds: float, smoke: bool, work: Path
) -> Tuple[int, Set[str], List[str], Dict[str, float], Dict[str, Any]]:
    """Campaigns until the budget is spent; end-to-end metrics."""
    from checks import check_campaigns
    from workloads import run_campaign

    workers = min(workload.workers, os.cpu_count() or 1)
    count = workload.smoke_seeds if smoke else workload.seeds
    spec_path = work / "setup-spec.json"
    spec_path.write_text(
        json.dumps(workload.spec(seed, count).to_dict()), encoding="utf-8"
    )
    # The first interpreter warms the bytecode and file caches.  Later
    # set-ups are spread between the campaigns, so their median samples
    # the whole run rather than one stretch of it.
    setup_probe(spec_path, workers, work)
    setups: List[float] = []
    campaigns = []
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    while (
        len(setups) < MIN_SETUPS or time.perf_counter() - start < seconds
    ):
        k = len(campaigns)
        if workers == 1:
            pin_to_quietest_cpu(cpus)
        gc.collect()  # each campaign starts from a collected heap
        campaign = run_campaign(
            workload,
            seed + k * count,
            count,
            str(work / f"c{k}"),
            workers,
            workload.repeats,
        )
        campaigns.append(campaign)
        if k == 0:
            # One campaign's peak in a fresh interpreter; later campaigns
            # would only add allocator fragmentation.
            peak = peak_rss_mb()
        setups.append(setup_probe(spec_path, workers, work))
        print(
            f"campaign {k}: {campaign.executed} tasks, "
            f"sweep {campaign.sweep_s:.3f} s, "
            f"{campaign.executed / campaign.sweep_s:.1f} seeds/s, "
            f"set-up {setups[-1]:.3f} s"
        )
    failed, messages = check_campaigns(campaigns, workload.check_samples)
    # The campaigns of a run do nearly the same work (see workloads.py),
    # so each timing is the run's fastest campaign, as timeit keeps the
    # fastest repeat.  Other tenants of a shared host slow stretches of
    # a run by up to half; in a calm stretch the median campaign of a
    # run spread by 14-24% across seeds, the fastest by 6-8%.
    metrics = {
        "seeds_per_s": max(c.executed / c.sweep_s for c in campaigns),
        "campaign_s": min(c.campaign_s for c in campaigns),
        "setup_s": statistics.median(setups),
        "cpu_ms_per_seed": min(
            1000.0 * c.cpu_s / c.executed for c in campaigns
        ),
        "peak_rss_mb": peak,
        "resume_s": min(c.resume_s for c in campaigns),
        "report_s": min(c.report_s for c in campaigns),
    }
    attempted = sum(c.spec.size for c in campaigns)
    facts = {"workers": workers, "campaigns": len(campaigns)}
    return attempted, failed, messages, metrics, facts


def run_traced(
    workload: Any, seed: int, seconds: float, smoke: bool, work: Path
) -> Tuple[int, Set[str], List[str], Dict[str, float], Dict[str, Any]]:
    """A plain and a traced pass over the same campaigns; layer metrics."""
    from checks import check_campaigns
    from layers import Tracer, install, layer_metrics
    from repro.obs import RecordingTelemetry, use
    from workloads import run_campaign

    count = workload.smoke_seeds if smoke else workload.seeds
    # A fixed campaign count for a given budget, so counts and spans of
    # two commits cover the same tasks.
    n_campaigns = (
        1 if smoke else max(1, round(seconds / 2 / workload.est_campaign_s))
    )
    cpus = sorted(os.sched_getaffinity(0))
    passes = []
    for traced in (False, True):
        telemetry = RecordingTelemetry()
        tracer = Tracer()
        campaigns = []
        wall = 0.0
        if traced:
            install(tracer)
        try:
            with use(telemetry):
                for k in range(n_campaigns):
                    pin_to_quietest_cpu(cpus)
                    start = time.perf_counter()
                    campaigns.append(
                        run_campaign(
                            workload,
                            seed + k * count,
                            count,
                            str(work / f"{'traced' if traced else 'plain'}{k}"),
                            workers=1,
                            repeats=1,
                            keep_records=True,
                        )
                    )
                    wall += time.perf_counter() - start
        finally:
            tracer.restore()
        counters = {
            name: value
            for name, value in telemetry.counters.items()
            if name.startswith("engine.")
        }
        passes.append((campaigns, counters, tracer, wall))
    (plain, plain_counters, _, plain_wall) = passes[0]
    (traced_runs, counters, tracer, wall) = passes[1]

    failed, messages = check_campaigns(traced_runs, workload.check_samples)
    for before, after in zip(plain, traced_runs):
        docs = {
            r.key: json.dumps(r.to_dict(), sort_keys=True)
            for r in before.records
        }
        for record in after.records:
            if docs.get(record.key) != json.dumps(
                record.to_dict(), sort_keys=True
            ):
                failed.add(record.key)
                messages.append(f"{record.key}: traced record differs")
    if counters != plain_counters:
        failed.add("engine-counters")
        messages.append(
            f"traced engine counters {counters} differ from "
            f"untraced {plain_counters}"
        )
    metrics = layer_metrics(
        tracer,
        counters,
        tasks=sum(c.executed for c in traced_runs),
        store_bytes=sum(dir_bytes(c.directory) for c in traced_runs),
        records=sum(c.report_records for c in traced_runs),
        overhead_ratio=wall / plain_wall,
    )
    attempted = sum(c.spec.size for c in traced_runs)
    return attempted, failed, messages, metrics, {
        "workers": 1,
        "campaigns": n_campaigns,
    }


def main(argv: Optional[List[str]] = None) -> int:
    """Run one workload once and print its result line."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="smallest campaigns, for the benchmark's own smoke test",
    )
    args = parser.parse_args(argv)
    if not load_program():
        return 2

    from repro.obs import environment_metadata
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(
            f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}"
        )
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        run = run_traced if args.trace else run_timed
        attempted, failed, messages, metrics, facts = run(
            workload, args.seed, args.seconds, args.smoke, work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still holds its directory there

    for message in messages[:50]:
        print(f"FAILED {message}")
    units = END_TO_END if not args.trace else {
        name: layer_unit(name) for name in metrics
    }
    for name, value in metrics.items():
        print(f"{name:32s} {value:>18.6f} {units[name]}")
    print(
        json.dumps(
            {
                "workload": workload.name,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "smoke": args.smoke,
                "commit": commit_id(),
                "source_sha256": source_digest(),
                "nproc": os.cpu_count(),
                **facts,
                "environment": environment_metadata(),
            },
            sort_keys=True,
        )
    )
    print(
        json.dumps(
            {
                "correct": not messages,
                "attempted": attempted,
                "failed": len(failed),
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
