"""Worker loss and early exit in the worker pool of sweeps and searches.

Each scenario runs in a fresh interpreter under a timeout, so a parent
that waits forever on a lost unit fails its test instead of stalling the
suite.  The scenario registers test algorithms at runtime (fork workers
inherit them): round robin that SIGKILLs its own worker — once per
scenario, at a worker's third task, or every time — and round robin
that leaves one marker file per run.  The killers never kill the scenario's own process, so the same
scenario can run its ``workers=1`` reference in-process.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

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


def run_scenario(body: str, tmp_path: Path, timeout: float = 60.0) -> dict:
    """Run ``body`` after the prelude in a fresh interpreter; its JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(body),
         str(tmp_path)],
        capture_output=True, text=True, timeout=timeout, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


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
             "--budget", "4", "--batch-size", "4", "--workers", "2"],
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
        from repro.search import PopulationEvaluator, SearchSettings, make_space

        cell = SearchSettings(
            algorithm="kill_once", graph_kind="clique-bridge", n=10
        )
        space = make_space(cell)
        rng = random.Random(2)
        genomes = [space.random(rng) for _ in range(8)]
        with PopulationEvaluator(cell, workers=2) as para:
            parallel = para.evaluate(genomes)
        with PopulationEvaluator(cell, workers=1) as seri:
            serial = seri.evaluate(genomes)
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
