"""The program names the benchmark under ``perfbench/`` reaches.

``perfbench/layers.py`` wraps runner globals, ``SweepRunner`` methods
and ``ShardedStore`` methods where they are defined;
``perfbench/setup_probe.py`` opens a store through
``SweepRunner.open_store``; ``perfbench/checks.py`` and
``perfbench/workloads.py`` import from ``repro``.  A rename in the
program would otherwise only show up when the benchmark runs.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from repro.experiments import ExperimentSpec, SweepRunner
from repro.experiments import runner as runner_module
from repro.store.sharded import ShardedStore

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
_spec = importlib.util.spec_from_file_location(
    "perfbench_layers", PERFBENCH / "layers.py"
)
layers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layers)


def tiny_spec():
    return ExperimentSpec(
        name="contract",
        algorithms=["round_robin"],
        graphs=[("line", 4), ("ring", 4)],
        adversaries=["none"],
        seeds=[0, 1],
    )


def test_install_wraps_every_layer_and_restore_undoes_it(tmp_path):
    originals = dict(vars(runner_module))
    tracer = layers.Tracer()
    layers.install(tracer)
    try:
        for _ in range(2):  # a campaign, then its full resume
            SweepRunner(
                tiny_spec(), results_path=str(tmp_path / "camp"),
                store="sharded",
            ).run()
    finally:
        tracer.restore()
    for name in (
        "graphs.build", "sim.compile", "sim.engine_setup",
        "core.make_processes", "experiments.plan", "experiments.unit",
        "experiments.run", "sim.engine", "core.decide", "store.append",
        "store.flush", "store.close", "store.scan",
    ):
        assert tracer.calls(name) > 0, name
    for attr in (
        "build_graph", "compile_topology", "build_engine",
        "make_processes", "plan_batches", "execute_batch",
    ):
        assert vars(runner_module)[attr] is originals[attr], attr
    for attr in ("run", "tasks", "fingerprint"):
        assert not hasattr(vars(SweepRunner)[attr], "__wrapped__"), attr
    for attr in ("append", "flush", "close", "claim_keys", "iter_records"):
        assert not hasattr(vars(ShardedStore)[attr], "__wrapped__"), attr


def test_setup_probe_opens_a_sharded_store(tmp_path):
    runner = SweepRunner(
        tiny_spec(), results_path=str(tmp_path / "camp"), store="sharded"
    )
    tasks = runner.tasks()
    store = runner.open_store(tasks)
    assert isinstance(store, ShardedStore)
    assert store.claim_keys() == {}
    store.close()


@pytest.mark.parametrize(
    "script", ["checks.py", "workloads.py", "setup_probe.py"]
)
def test_every_repro_import_resolves(script):
    tree = ast.parse((PERFBENCH / script).read_text())
    imports = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").startswith("repro")
    ]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), (node.module, alias.name)
