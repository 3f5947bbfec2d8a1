"""Time one sweep's set-up in a fresh interpreter and print the seconds.

Usage: ``python3 setup_probe.py SPEC_JSON RESULTS_DIR WORKERS`` with the
program's ``src`` directory on ``PYTHONPATH``.

Set-up is everything a sweep pays before its first task runs: importing
``repro``, expanding the spec (``tasks()``), fingerprinting it while
opening the empty campaign store, the resume scan of that store, and
planning the dispatch batches.  Interpreter start-up is not counted: the
clock starts on this file's first statement.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from repro.experiments import ExperimentSpec, SweepRunner  # noqa: E402
from repro.experiments.spec import plan_batches  # noqa: E402


def main() -> None:
    spec_path, results, workers = sys.argv[1], sys.argv[2], int(sys.argv[3])
    with open(spec_path, encoding="utf-8") as f:
        spec = ExperimentSpec.from_dict(json.load(f))
    runner = SweepRunner(
        spec, workers=workers, results_path=results, store="sharded"
    )
    tasks = runner.tasks()
    store = runner.open_store(tasks)
    done = store.claim_keys()
    plan_batches([t for t in tasks if t.key not in done])
    store.close()
    print(time.perf_counter() - START)


if __name__ == "__main__":
    main()
