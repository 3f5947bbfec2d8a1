"""Shared helpers for the benchmark/experiment harnesses.

Each bench module regenerates one of the paper's tables or bound-carrying
theorems (the claims of :mod:`repro.analysis.claims`): it runs the
workload, prints a paper-style table with the measured column next to
the paper's bound, judges each bound through its claim's verdict,
asserts the *shape* (who wins, by roughly what factor), and times one
representative run through pytest-benchmark so ``--benchmark-only``
reports something meaningful.

Every emitted table is also appended to ``results/benchmark_tables.txt``
so a bench run leaves a reviewable artifact.

Run with::

    pytest benchmarks/ --benchmark-only -s
"""

import json
import os
import sys

import pytest

_RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "results")
_RESULTS_FILE = os.path.join(_RESULTS_DIR, "benchmark_tables.txt")
_MANIFEST_FILE = os.path.join(_RESULTS_DIR, "benchmark_manifest.json")


def pytest_sessionstart(session):
    os.makedirs(_RESULTS_DIR, exist_ok=True)
    # Truncate per session so the artifact reflects one coherent run.
    with open(_RESULTS_FILE, "w", encoding="utf-8") as f:
        f.write("")
    # Capture the environment the numbers came from: a speedup table
    # without the cpu count / python version behind it is not
    # comparable across runs.
    try:
        from repro.obs import environment_metadata

        with open(_MANIFEST_FILE, "w", encoding="utf-8") as f:
            json.dump(
                {"v": 1, "environment": environment_metadata()},
                f,
                indent=2,
                sort_keys=True,
            )
            f.write("\n")
    except (OSError, ImportError):
        pass  # artifact writing must never fail a bench


def emit(text: str) -> None:
    """Print a results table (stderr, so it survives capture) and append
    it to the results artifact."""
    print("\n" + text, file=sys.stderr)
    try:
        with open(_RESULTS_FILE, "a", encoding="utf-8") as f:
            f.write(text + "\n\n")
    except OSError:
        pass  # artifact writing must never fail a bench


def emit_sweep(result, title: str) -> None:
    """Render a :class:`repro.experiments.SweepResult` through the
    campaign report (one row per runner cell, plus any paper-bound
    rows) and emit it to the artifact."""
    from repro.analysis import CampaignReport

    emit(
        CampaignReport.from_records(result.records).render(
            title=f"{title} ({len(result)} runs, "
            f"{len(result.failures)} capped)"
        )
    )


@pytest.fixture
def table_out():
    """Fixture handing benches the emit helper."""
    return emit


@pytest.fixture
def sweep_table_out():
    """Fixture handing benches the sweep-result emit helper."""
    return emit_sweep
