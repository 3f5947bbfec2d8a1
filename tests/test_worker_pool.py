"""Worker loss, early exit, in-process dispatch and kill-and-resume in
the worker pool of sweeps and searches.

Each scenario runs in a fresh interpreter under a timeout, so a parent
that waits forever on a lost unit fails its test instead of stalling the
suite.  The scenario registers test algorithms at runtime (fork workers
inherit them): round robin that SIGKILLs its own worker — once per
scenario, at a worker's third task, or every time — and round robin
that leaves one marker file per run.  The killers never kill the
scenario's own process, so the same scenario can run its ``workers=1``
reference in-process.  The kill-and-resume scenarios kill the sweep's
own process instead, with its pool workers (``die``).
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

PRELUDE = textwrap.dedent(
    '''
    import json, os, random, signal, sys, tempfile, time

    from repro.core.runner import make_processes, register_algorithm
    from repro.experiments import ExperimentSpec, RunResult, SweepRunner
    from repro.experiments.runner import WorkerLostError
    from repro.store import open_store

    MARKERS = sys.argv[1]
    PARENT = os.getpid()


    def kill_once(n, **params):
        if os.getpid() != PARENT:
            try:
                fd = os.open(
                    os.path.join(MARKERS, "killed"),
                    os.O_CREAT | os.O_EXCL | os.O_WRONLY,
                )
            except FileExistsError:
                pass
            else:
                os.close(fd)
                os.kill(os.getpid(), signal.SIGKILL)
        return make_processes("round_robin", n)


    RUNS = 0


    def kill_third(n, **params):
        global RUNS
        if os.getpid() != PARENT:
            RUNS += 1
            if RUNS == 3:
                kill_once(n)
        return make_processes("round_robin", n)


    def kill_always(n, **params):
        if os.getpid() != PARENT:
            os.kill(os.getpid(), signal.SIGKILL)
        return make_processes("round_robin", n)


    def marked(n, **params):
        fd, _ = tempfile.mkstemp(prefix="ran-", dir=MARKERS)
        os.close(fd)
        time.sleep(0.05)
        return make_processes("round_robin", n)


    def ran():
        return sum(name.startswith("ran-") for name in os.listdir(MARKERS))


    def die():
        """SIGKILL this process's pool workers, then this process: the
        whole campaign dies at once, as under the OOM killer.  (An
        orphaned worker would wait for work forever, holding the
        scenario's output pipes open.)"""
        import multiprocessing

        for worker in multiprocessing.active_children():
            os.kill(worker.pid, signal.SIGKILL)
        os.kill(os.getpid(), signal.SIGKILL)


    def on_disk(path):
        store = open_store(path, parse=RunResult.from_dict)
        try:
            return store.claim_keys()
        finally:
            store.close()


    register_algorithm("kill_once", kill_once)
    register_algorithm("kill_third", kill_third)
    register_algorithm("kill_always", kill_always)
    register_algorithm("marked", marked)
    '''
)


def run_scenario(
    body: str,
    tmp_path: Path,
    timeout: float = 60.0,
    args: tuple = (),
    returncode: int = 0,
) -> dict:
    """Run ``body`` after the prelude in a fresh interpreter, with
    ``tmp_path`` and ``args`` as its arguments; its JSON (``{}`` when
    it prints none).  It must exit with ``returncode``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(body),
         str(tmp_path), *args],
        capture_output=True, text=True, timeout=timeout, env=env,
    )
    assert proc.returncode == returncode, proc.stderr
    return json.loads(proc.stdout) if proc.stdout else {}


def test_sweep_survives_one_worker_loss(tmp_path):
    out = run_scenario(
        '''
        spec = ExperimentSpec(
            name="loss", algorithms=["kill_once"], graphs=[("line", 8)],
            adversaries=["random"], seeds=range(16),
        )
        path = os.path.join(MARKERS, "records.jsonl")
        SweepRunner(spec, workers=2, results_path=path).run()
        serial = SweepRunner(spec, workers=1).run()
        disk = on_disk(path)
        print(json.dumps({
            "killed": os.path.exists(os.path.join(MARKERS, "killed")),
            "disk": len(disk),
            "equal": [disk[r.key] for r in serial.records]
            == serial.records,
        }))
        ''',
        tmp_path,
    )
    assert out == {"killed": True, "disk": 16, "equal": True}


def test_events_count_each_task_once_after_worker_loss(tmp_path):
    out = run_scenario(
        '''
        from repro.obs import (
            JsonlTelemetry, RecordingTelemetry, events_path, perf_summary, use,
        )

        spec = ExperimentSpec(
            name="loss", algorithms=["kill_third"], graphs=[("line", 8)],
            adversaries=["random"], seeds=range(16),
        )
        path = os.path.join(MARKERS, "records.jsonl")
        sink = JsonlTelemetry(events_path(path))
        try:
            with use(sink):
                SweepRunner(spec, workers=2, results_path=path).run()
        finally:
            sink.close()
        serial = RecordingTelemetry()
        with use(serial):
            SweepRunner(spec, workers=1).run()
        perf = perf_summary(path)
        print(json.dumps({
            "killed": os.path.exists(os.path.join(MARKERS, "killed")),
            "engine_runs": perf["engine_runs"],
            "counters": {
                k: v for k, v in perf["counters"].items()
                if k.startswith("engine.")
            },
            "serial": serial.counters,
        }))
        ''',
        tmp_path,
    )
    assert out["killed"]
    assert out["engine_runs"] == 16
    assert out["counters"] == out["serial"]


def test_sweep_lost_twice_raises_resume_error(tmp_path):
    out = run_scenario(
        '''
        spec = ExperimentSpec(
            name="lossy", algorithms=["round_robin", "kill_always"],
            graphs=[("line", n) for n in (5, 6, 7, 8)],
            adversaries=["random"], seeds=range(2),
        )
        path = os.path.join(MARKERS, "records.jsonl")
        seen = []
        try:
            SweepRunner(spec, workers=2, results_path=path).run(
                progress=lambda result, done, total: seen.append(result.key)
            )
            error = None
        except WorkerLostError as exc:
            error = str(exc)
        serial = {r.key: r for r in SweepRunner(spec, workers=1).run().records}
        disk = on_disk(path)
        print(json.dumps({
            "error": error,
            "disk_is_seen": sorted(disk) == sorted(seen),
            "killers_on_disk": sum("kill_always" in key for key in disk),
            "equal": all(disk[key] == serial[key] for key in disk),
        }))
        ''',
        tmp_path,
    )
    assert "worker processes died twice" in out["error"]
    assert "kill_always" in out["error"]
    assert "re-running the same command resumes" in out["error"]
    assert out["disk_is_seen"] and out["equal"]
    assert out["killers_on_disk"] == 0


def test_cli_prints_resume_error_without_traceback(tmp_path):
    out = run_scenario(
        '''
        from repro.cli import main

        codes = {}
        for argv in (
            ["sweep", "--graph", "line", "--algorithm", "kill_always",
             "--sizes", "5,6,7", "--seeds", "0,1", "--workers", "2"],
            ["search", "--graph", "line", "--n", "6",
             "--algorithm", "kill_always", "--searcher", "random",
             "--budget", "4", "--workers", "2"],
        ):
            try:
                main(argv)
            except SystemExit as exc:
                codes[argv[0]] = exc.code
        print(json.dumps(codes))
        ''',
        tmp_path,
    )
    assert set(out) == {"sweep", "search"}
    for message in out.values():
        assert isinstance(message, str)
        assert message.startswith("worker processes died twice")


def test_search_survives_one_worker_loss(tmp_path):
    out = run_scenario(
        '''
        from repro.experiments.runner import WorkerPool
        from repro.search import SearchSettings, evaluate_genomes, make_space

        cell = SearchSettings(
            algorithm="kill_once", graph_kind="clique-bridge", n=10
        )
        space = make_space(cell)
        rng = random.Random(2)
        genomes = [space.random(rng) for _ in range(8)]
        with WorkerPool(2) as para:
            parallel = evaluate_genomes(para, cell, genomes)
        with WorkerPool(1) as seri:
            serial = evaluate_genomes(seri, cell, genomes)
        print(json.dumps({
            "killed": os.path.exists(os.path.join(MARKERS, "killed")),
            "equal": parallel == serial,
            "order": [s.genome for s in parallel] == genomes,
        }))
        ''',
        tmp_path,
    )
    assert out == {"killed": True, "equal": True, "order": True}


def test_raising_progress_callback_stops_the_grid(tmp_path):
    out = run_scenario(
        '''
        spec = ExperimentSpec(
            name="early", algorithms=["marked"],
            graphs=[("line", n) for n in range(4, 36)],
            adversaries=["none"], seeds=[0],
        )
        at_raise = []

        def stop(result, done, total):
            at_raise.append(ran())
            raise KeyError("stop")

        try:
            SweepRunner(spec, workers=2).run(progress=stop)
            error = None
        except KeyError as exc:
            error = str(exc)
        time.sleep(0.5)
        print(json.dumps({
            "error": error, "units": spec.size,
            "at_raise": at_raise, "final": ran(),
        }))
        ''',
        tmp_path,
    )
    assert out["error"] == "'stop'"
    assert len(out["at_raise"]) == 1
    assert out["final"] - out["at_raise"][0] < 8
    assert out["final"] < out["units"]


def test_in_process_runs_start_no_executor(tmp_path):
    """One worker, or one unit, runs in the calling process: no pool
    worker starts and ``concurrent.futures`` is never imported."""
    out = run_scenario(
        '''
        import multiprocessing

        from repro.search import SearchSettings, run_search

        before = "concurrent.futures" in sys.modules
        grid = ExperimentSpec(
            name="serial", algorithms=["round_robin"],
            graphs=[("line", 6), ("line", 8)],
            adversaries=["random"], seeds=range(3),
        )
        one_unit = ExperimentSpec(
            name="single", algorithms=["round_robin"],
            graphs=[("line", 6)], adversaries=["random"], seeds=[0],
        )
        cell = SearchSettings(
            algorithm="round_robin", graph_kind="clique-bridge", n=9
        )
        records = [
            len(SweepRunner(grid, workers=1).run().records),
            len(SweepRunner(one_unit, workers=2).run().records),
        ]
        executed = [
            run_search(cell, budget=4, workers=1).executed,
            run_search(cell, budget=1, workers=2).executed,
        ]
        print(json.dumps({
            "before": before,
            "after": "concurrent.futures" in sys.modules,
            "children": len(multiprocessing.active_children()),
            "records": records,
            "executed": executed,
        }))
        ''',
        tmp_path,
    )
    assert out == {
        "before": False, "after": False, "children": 0,
        "records": [6, 1], "executed": [4, 1],
    }


#: The kill-and-resume campaign: 96 tasks in 6 cells, so a 2-worker
#: sweep has several units in flight and a sharded store (which flushes
#: every 64 appends) flushes once before the kill point.
RESUME_PRELUDE = '''
from repro.cli import main as repro_main

STORE, WORKERS = sys.argv[2], int(sys.argv[3])
SPEC = ExperimentSpec(
    name="resume", algorithms=["round_robin", ("harmonic", {"T": 2})],
    graphs=[("line", 6), ("line", 9), ("clique-bridge", 9)],
    adversaries=["random"], seeds=range(16),
)


def campaign(name):
    return os.path.join(
        MARKERS, name if STORE == "sharded" else name + ".jsonl"
    )


def sweep(path, progress=None):
    return SweepRunner(
        SPEC, workers=WORKERS, results_path=path, store=STORE
    ).run(progress=progress)


def merged(path):
    """The bytes ``repro merge`` writes for the campaign at ``path``."""
    import contextlib, io

    out = path + ".merged"
    with contextlib.redirect_stdout(io.StringIO()):
        assert repro_main(["merge", "--results", path, "--out", out]) == 0
    with open(out, "rb") as f:
        return f.read()
'''

#: Each way of killing the sweep's own process with SIGKILL.
KILLS = {
    # From the progress callback, after the 70th record is appended.
    "after-k": '''
        def progress(result, done, total):
            if done == 70:
                die()

        sweep(campaign("killed"), progress)
    ''',
    # Inside the sharded store's first flush (at its 64th append),
    # after one dirty shard reached the OS and before the others did.
    "mid-flush": '''
        from repro.store.sharded import ShardedStore

        def flush(self):
            self._files[min(self._dirty)].flush()
            die()

        ShardedStore.flush = flush
        sweep(campaign("killed"))
    ''',
}


@pytest.mark.parametrize(
    "kill, store, workers",
    [
        (kill, store, workers)
        for kill in KILLS
        for store in ("jsonl", "sharded")
        for workers in (1, 2)
        if kill == "after-k" or store == "sharded"
    ],
)
def test_sweep_killed_then_resumed_merges_like_uninterrupted(
    tmp_path, kill, store, workers
):
    """A SIGKILLed sweep resumes exactly the missing tasks, and the
    resumed campaign merges to the bytes of an uninterrupted one."""
    args = (store, str(workers))
    run_scenario(
        RESUME_PRELUDE + textwrap.dedent(KILLS[kill]),
        tmp_path, args=args, returncode=-signal.SIGKILL,
    )
    out = run_scenario(
        RESUME_PRELUDE + textwrap.dedent(
            '''
            killed = campaign("killed")
            on_disk_after_kill = len(on_disk(killed))
            resumed = sweep(killed)
            whole = sweep(campaign("whole"))
            print(json.dumps({
                "on_disk": on_disk_after_kill,
                "resumed": resumed.resumed,
                "executed": resumed.executed,
                "whole": whole.executed,
                "same_merge": merged(killed) == merged(campaign("whole")),
            }))
            '''
        ),
        tmp_path, args=args,
    )
    assert 0 < out["on_disk"] < 96
    if kill == "after-k" and store == "jsonl":
        assert out["on_disk"] == 70  # the JSONL store flushes per record
    assert out["resumed"] == out["on_disk"]
    assert out["executed"] == 96 - out["on_disk"]
    assert out["whole"] == 96
    assert out["same_merge"]
