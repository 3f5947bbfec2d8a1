"""``repro run`` is one sweep task.

The same inline flags must name the same task key and produce the same
record under ``run`` and an inline ``sweep``: the record ``repro run
--json`` prints is byte-identical to the line ``repro sweep`` writes to
its results file.
"""

import json

import pytest

from repro.cli import build_parser, main
from repro.experiments import ExperimentSpec
from repro.experiments.runner import execute_task, run_task

#: (flags shared by run/sweep, --n, --seed) of one cell each.
CELLS = [
    pytest.param(
        ["--graph", "gnp", "--algorithm", "harmonic",
         "--adversary", "random", "--p", "0.3"],
        24, 3, id="harmonic-gnp-random",
    ),
    pytest.param(
        ["--graph", "line", "--algorithm", "round_robin",
         "--adversary", "none"],
        12, 0, id="round_robin-line",
    ),
]


def _json_of(capsys, argv):
    main(argv)
    return json.loads(capsys.readouterr().out)


def _line(record):
    """A record dict as the JSON-lines store writes it."""
    return json.dumps(record, sort_keys=True)


@pytest.mark.parametrize("flags,n,seed", CELLS)
def test_run_record_is_the_sweep_line(flags, n, seed, capsys, tmp_path):
    doc = _json_of(
        capsys, ["run", *flags, "--n", str(n), "--seed", str(seed), "--json"]
    )
    results = tmp_path / "one.jsonl"
    assert main(
        ["sweep", *flags, "--sizes", str(n), "--seeds", str(seed),
         "--results", str(results)]
    ) == 0
    capsys.readouterr()
    (line,) = results.read_text().splitlines()
    assert _line(doc["record"]) == line
    assert doc["key"] == doc["record"]["key"]
    # The trace summary rides along, from the same run.
    assert doc["completion_round"] == doc["record"]["completion_round"]
    assert doc["total_transmissions"] == doc["record"]["total_transmissions"]


def _line_task(**axes):
    """The one task of a round_robin line n=8 spec at seed 1."""
    spec = ExperimentSpec(
        name="round_robin-line",
        algorithms=["round_robin"],
        graphs=[("line", 8)],
        adversaries=["none"],
        seeds=[1],
        **axes,
    )
    (task,) = spec.tasks()
    return task


LINE_CELL = ["--graph", "line", "--n", "8", "--algorithm", "round_robin",
             "--adversary", "none", "--seed", "1"]


def test_run_cr_record_is_the_spec_task_record(capsys):
    doc = _json_of(capsys, ["run", *LINE_CELL, "--cr", "CR2", "--json"])
    task = _line_task(collision_rules=["CR2"])
    assert doc["key"] == task.key
    assert _line(doc["record"]) == _line(execute_task(task).to_dict())


@pytest.mark.parametrize(
    "churn,params",
    [
        ("rate",
         {"crash_rate": 0.02, "recover_rate": 0.2, "rejoin": "uninformed"}),
        ("window",
         {"count": 1, "start": 2, "length": 4, "rejoin": "uninformed"}),
    ],
)
def test_run_churn_defaults_name_the_spec_task(churn, params, capsys):
    doc = _json_of(capsys, ["run", *LINE_CELL, "--churn", churn, "--json"])
    task = _line_task(churns=[(churn, params)])
    assert doc["key"] == task.key
    assert _line(doc["record"]) == _line(execute_task(task).to_dict())


def test_churn_run_record_is_the_spec_task_record(capsys):
    doc = _json_of(
        capsys,
        ["run", *LINE_CELL, "--churn", "window", "--churn-count", "2",
         "--churn-start", "2", "--churn-length", "3", "--json"],
    )
    task = _line_task(
        churns=[
            ("window",
             {"count": 2, "start": 2, "length": 3, "rejoin": "uninformed"}),
        ],
    )
    assert doc["key"] == task.key
    assert _line(doc["record"]) == _line(execute_task(task).to_dict())
    assert doc["crash_events"] == 2


def test_run_task_returns_the_sweep_record_and_its_trace():
    spec = ExperimentSpec(
        name="p",
        algorithms=["harmonic"],
        graphs=[("gnp", 16)],
        adversaries=[("random", {"p": 0.5})],
        seeds=[2],
        max_rounds=40,
    )
    (task,) = spec.tasks()
    record, trace = run_task(task)
    assert record == execute_task(task)
    assert trace.num_rounds == record.rounds
    assert trace.completion_round == record.completion_round
    assert sum(trace.sender_counts()) == record.total_transmissions


def test_run_prints_key_and_record(capsys):
    rc = main(
        ["run", "--graph", "line", "--n", "8", "--algorithm",
         "round_robin", "--adversary", "none"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    key = "round_robin-line/round_robin/line:n8/none/CR4-asynchronous/s0"
    assert f"key: {key}" in out
    record = json.loads(out.split("record: ", 1)[1])
    assert record["key"] == key


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--graph", "line", "--n", "8", "--algorithm", "nope"],
        ["sweep", "--graph", "line", "--sizes", "8,x", "--seeds", "0"],
        ["sweep", "--graph", "line", "--sizes", "8", "--seeds", "0,0"],
    ],
    ids=["unknown-algorithm", "bad-size", "repeated-seed"],
)
def test_bad_inline_flags_are_a_clean_error(argv):
    with pytest.raises(SystemExit):
        main(argv)


#: Every subcommand's options.  The read-only ``merge`` and ``report``
#: detect their store backend and take no ``--store``.
OPTIONS = {
    "run": [
        "--adversary", "--algorithm", "--churn", "--churn-count",
        "--churn-length", "--churn-start", "--cr", "--crash-rate",
        "--engine", "--graph", "--help", "--json", "--max-rounds", "--n",
        "--p", "--recover-rate", "--rejoin", "--seed", "-h",
    ],
    "sweep": [
        "--adversary", "--algorithm", "--engine", "--events", "--graph",
        "--help", "--max-rounds", "--p", "--results", "--seeds",
        "--sizes", "--spec", "--store", "--workers", "-h",
    ],
    "list": ["--help", "--json", "-h"],
    "search": [
        "--algorithm", "--batch-size", "--budget", "--compare-theorem2",
        "--cr", "--engine", "--graph", "--help",
        "--json", "--max-rounds", "--n", "--no-verify", "--results",
        "--search-seed", "--searcher", "--seed", "--start-mode",
        "--store", "--verify", "--workers", "-h",
    ],
    "merge": ["--help", "--out", "--results", "-h"],
    "report": ["--help", "--json", "--results", "-h"],
    "progress": ["--follow", "--help", "--interval", "--json", "-h"],
    "check": ["--help", "-h"],
    "lowerbound": ["--algorithm", "--help", "--n", "--theorem", "-h"],
}


def test_subcommand_options_unchanged():
    parser = build_parser()
    (sub,) = [
        a for a in parser._actions if hasattr(a, "choices")
        and isinstance(a.choices, dict)
    ]
    found = {
        name: sorted(o for a in p._actions for o in a.option_strings)
        for name, p in sub.choices.items()
    }
    assert found == OPTIONS
