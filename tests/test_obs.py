"""Tests for ``repro.obs`` — telemetry, events, progress, profiling.

The load-bearing guarantee is differential: enabling telemetry must
never change a single trace byte, on any engine, churn included.  The
rest covers the event schema round-trip, the JSONL sink (delta flushes,
torn lines), the one-writer stream of a pooled sweep, the progress/perf
folds, and the CLI consumers (``repro progress``, ``repro run``'s perf
tables, ``repro list --json``).
"""

import json
import os
from pathlib import Path

import pytest

from conftest import corpus_graph
from repro.cli import main
from repro.core.runner import broadcast
from repro.experiments import ExperimentSpec, SweepRunner
from repro.experiments.registry import build_adversary, build_churn
from repro.obs import (
    ENVELOPE_FIELDS,
    EVENT_SCHEMA_VERSION,
    NULL_TELEMETRY,
    JsonlTelemetry,
    NullTelemetry,
    RecordingTelemetry,
    current,
    events_path,
    fold_events,
    iter_events,
    make_event,
    perf_summary,
    read_progress,
    render_perf_panel,
    set_telemetry,
    use,
    validate_event,
)
from repro.sim import CollisionRule

ENGINES = ("reference", "fast")


def _identical(ref, other):
    assert ref.n == other.n
    assert ref.completed == other.completed
    assert ref.informed_round == other.informed_round
    assert len(ref.rounds) == len(other.rounds)
    for r, f in zip(ref.rounds, other.rounds):
        assert r == f, f"round {r.round_number} diverged"


def _run(engine, telemetry, churn_kind="none",
         rule=CollisionRule.CR4):
    graph = corpus_graph("clique-bridge", 9, seed=3)
    adversary = build_adversary("greedy", seed=3)
    churn = build_churn(churn_kind, n=9, rounds=60, seed=3)
    with use(telemetry):
        return broadcast(
            graph,
            "harmonic",
            adversary=adversary,
            seed=3,
            engine=engine,
            collision_rule=rule,
            max_rounds=60,
            churn=churn,
        )


class TestTraceNeutrality:
    """Telemetry observes; it never changes trace bytes."""

    @pytest.mark.parametrize("rule", list(CollisionRule))
    @pytest.mark.parametrize("engine", ENGINES)
    def test_traces_identical_on_vs_off(self, engine, rule):
        off = _run(engine, NullTelemetry(), rule=rule)
        on = _run(engine, RecordingTelemetry(), rule=rule)
        _identical(off, on)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_traces_identical_under_churn(self, engine):
        off = _run(engine, NullTelemetry(), churn_kind="rate")
        on = _run(engine, RecordingTelemetry(), churn_kind="rate")
        _identical(off, on)

    def test_engine_counters_recorded(self):
        telemetry = RecordingTelemetry()
        trace = _run("reference", telemetry)
        assert telemetry.counters["engine.rounds"] == len(trace.rounds)
        for name in (
            "engine.senders",
            "engine.delivered",
            "engine.cr4_consults",
        ):
            assert telemetry.counters[name] > 0
        (run_event,) = [
            e for e in telemetry.events if e["kind"] == "engine_run"
        ]
        assert run_event["engine"] == "reference"
        assert run_event["rounds"] == len(trace.rounds)


#: Every ``engine.*`` counter, in the order of the pinned tuples below
#: (the reference engine emits all but the last).
COUNTER_NAMES = (
    "engine.rounds",
    "engine.senders",
    "engine.delivered",
    "engine.collisions",
    "engine.silences",
    "engine.crashed_drops",
    "engine.cr4_consults",
    "engine.cr4_fallbacks",
)

#: Harmonic on gnp n=17 (seed 3, 60 rounds), keyed by (adversary, rule,
#: churn, recording): the reference engine's counters, then the fast
#: engine's.  Both adversaries collide on this cell; only the random
#: one defines a CR4 resolver the fast engine consults.
COUNTER_PINS = {
    ("greedy", "CR1", "none", False):
        ((60, 529, 9, 938, 0, 0, 0), (60, 529, 9, 938, 0, 0, 0, 0)),
    ("greedy", "CR1", "none", True):
        ((60, 529, 9, 938, 73, 0, 0), (60, 529, 9, 938, 73, 0, 0, 0)),
    ("greedy", "CR1", "rate", False):
        ((60, 375, 91, 670, 0, 71, 0), (60, 375, 91, 670, 0, 71, 0, 0)),
    ("greedy", "CR1", "rate", True):
        ((60, 375, 91, 670, 165, 71, 0), (60, 375, 91, 670, 165, 71, 0, 0)),
    ("greedy", "CR2", "none", False):
        ((60, 529, 537, 410, 0, 0, 0), (60, 529, 537, 410, 0, 0, 0, 0)),
    ("greedy", "CR2", "none", True):
        ((60, 529, 537, 410, 73, 0, 0), (60, 529, 537, 410, 73, 0, 0, 0)),
    ("greedy", "CR2", "rate", False):
        ((60, 375, 387, 374, 0, 71, 0), (60, 375, 387, 374, 0, 71, 0, 0)),
    ("greedy", "CR2", "rate", True):
        ((60, 375, 387, 374, 165, 71, 0), (60, 375, 387, 374, 165, 71, 0, 0)),
    ("greedy", "CR3", "none", False):
        ((60, 529, 537, 0, 410, 0, 0), (60, 529, 537, 0, 410, 0, 0, 0)),
    ("greedy", "CR3", "none", True):
        ((60, 529, 537, 0, 483, 0, 0), (60, 529, 537, 0, 483, 0, 0, 0)),
    ("greedy", "CR3", "rate", False):
        ((60, 375, 387, 0, 374, 71, 0), (60, 375, 387, 0, 374, 71, 0, 0)),
    ("greedy", "CR3", "rate", True):
        ((60, 375, 387, 0, 539, 71, 0), (60, 375, 387, 0, 539, 71, 0, 0)),
    ("greedy", "CR4", "none", False):
        ((60, 529, 537, 0, 410, 0, 410), (60, 529, 537, 0, 410, 0, 0, 0)),
    ("greedy", "CR4", "none", True):
        ((60, 529, 537, 0, 483, 0, 410), (60, 529, 537, 0, 483, 0, 0, 0)),
    ("greedy", "CR4", "rate", False):
        ((60, 375, 387, 0, 374, 71, 374), (60, 375, 387, 0, 374, 71, 0, 0)),
    ("greedy", "CR4", "rate", True):
        ((60, 375, 387, 0, 539, 71, 374), (60, 375, 387, 0, 539, 71, 0, 0)),
    ("random", "CR1", "none", False):
        ((60, 816, 14, 996, 0, 0, 0), (60, 816, 14, 996, 0, 0, 0, 0)),
    ("random", "CR1", "none", True):
        ((60, 816, 14, 996, 10, 0, 0), (60, 816, 14, 996, 10, 0, 0, 0)),
    ("random", "CR1", "rate", False):
        ((60, 631, 86, 827, 0, 87, 0), (60, 631, 86, 827, 0, 87, 0, 0)),
    ("random", "CR1", "rate", True):
        ((60, 631, 86, 827, 13, 87, 0), (60, 631, 86, 827, 13, 87, 0, 0)),
    ("random", "CR2", "none", False):
        ((60, 816, 829, 181, 0, 0, 0), (60, 816, 829, 181, 0, 0, 0, 0)),
    ("random", "CR2", "none", True):
        ((60, 816, 829, 181, 10, 0, 0), (60, 816, 829, 181, 10, 0, 0, 0)),
    ("random", "CR2", "rate", False):
        ((60, 631, 651, 262, 0, 87, 0), (60, 631, 651, 262, 0, 87, 0, 0)),
    ("random", "CR2", "rate", True):
        ((60, 631, 651, 262, 13, 87, 0), (60, 631, 651, 262, 13, 87, 0, 0)),
    ("random", "CR3", "none", False):
        ((60, 816, 829, 0, 181, 0, 0), (60, 816, 829, 0, 181, 0, 0, 0)),
    ("random", "CR3", "none", True):
        ((60, 816, 829, 0, 191, 0, 0), (60, 816, 829, 0, 191, 0, 0, 0)),
    ("random", "CR3", "rate", False):
        ((60, 631, 651, 0, 262, 87, 0), (60, 631, 651, 0, 262, 87, 0, 0)),
    ("random", "CR3", "rate", True):
        ((60, 631, 651, 0, 275, 87, 0), (60, 631, 651, 0, 275, 87, 0, 0)),
    ("random", "CR4", "none", False):
        ((60, 816, 829, 0, 181, 0, 181), (60, 816, 829, 0, 181, 0, 181, 181)),
    ("random", "CR4", "none", True):
        ((60, 816, 829, 0, 191, 0, 181), (60, 816, 829, 0, 191, 0, 181, 181)),
    ("random", "CR4", "rate", False):
        ((60, 631, 651, 0, 262, 87, 262), (60, 631, 651, 0, 262, 87, 262, 262)),
    ("random", "CR4", "rate", True):
        ((60, 631, 651, 0, 275, 87, 262), (60, 631, 651, 0, 275, 87, 262, 262)),
}


def _counters(engine, adversary, rule, churn_kind, recording):
    graph = corpus_graph("gnp", 17, seed=3)
    telemetry = RecordingTelemetry()
    with use(telemetry):
        broadcast(
            graph,
            "harmonic",
            adversary=build_adversary(adversary, seed=3),
            seed=3,
            engine=engine,
            collision_rule=CollisionRule[rule],
            max_rounds=60,
            churn=build_churn(churn_kind, n=17, rounds=60, seed=3),
            record_receptions=recording,
        )
    return {
        name: value
        for name, value in telemetry.counters.items()
        if name.startswith("engine.")
    }


class TestEngineCounters:
    """Each engine's full counter dict, pinned value by value: a
    counting site that miscounts moves a pin even where traces do not."""

    @pytest.mark.parametrize(
        "cell",
        sorted(COUNTER_PINS),
        ids=lambda cell: "-".join(map(str, cell)),
    )
    @pytest.mark.parametrize("engine", ENGINES)
    def test_counters_pinned(self, engine, cell):
        expected = COUNTER_PINS[cell][ENGINES.index(engine)]
        assert _counters(engine, *cell) == dict(zip(COUNTER_NAMES, expected))


class TestTelemetryInstall:
    def test_default_is_the_null_sink(self):
        assert current() is NULL_TELEMETRY
        assert not current().enabled

    def test_use_restores_even_on_raise(self):
        sink = RecordingTelemetry()
        with pytest.raises(RuntimeError):
            with use(sink):
                assert current() is sink
                raise RuntimeError("boom")
        assert current() is NULL_TELEMETRY

    def test_set_telemetry_none_restores_null(self):
        previous = set_telemetry(RecordingTelemetry())
        assert previous is NULL_TELEMETRY
        set_telemetry(None)
        assert current() is NULL_TELEMETRY

    def test_null_span_is_shared_and_inert(self):
        null = NullTelemetry()
        span = null.span("x")
        assert null.span("y") is span
        with span:
            pass  # no clock read, no state

    def test_recording_spans_aggregate(self):
        sink = RecordingTelemetry()
        for _ in range(3):
            with sink.span("phase"):
                pass
        stats = sink.spans["phase"]
        assert stats.count == 3
        assert stats.seconds >= 0.0
        assert stats.mean == stats.seconds / 3


class TestEventSchema:
    def test_make_validate_round_trip(self):
        event = make_event(
            "heartbeat", ts=1.5, pid=42, seq=7, fields={"rate": 2.0}
        )
        parsed = validate_event(json.loads(json.dumps(event)))
        assert parsed == event
        assert parsed["v"] == EVENT_SCHEMA_VERSION
        for field in ENVELOPE_FIELDS:
            assert field in parsed

    def test_envelope_wins_over_fields(self):
        event = make_event(
            "progress", ts=1.0, pid=1, seq=0, fields={"kind": "spoof"}
        )
        assert event["kind"] == "progress"

    @pytest.mark.parametrize(
        "bad",
        [
            "not a dict",
            {"v": 1, "kind": "x"},  # missing envelope fields
            {"v": 99, "kind": "x", "ts": 0.0, "pid": 1, "seq": 0},
            {"v": 1, "kind": 7, "ts": 0.0, "pid": 1, "seq": 0},
        ],
    )
    def test_validate_rejects(self, bad):
        with pytest.raises(ValueError):
            validate_event(bad)

    def test_events_path_forms(self, tmp_path):
        campaign = tmp_path / "campaign"
        campaign.mkdir()
        assert events_path(campaign) == campaign / "events.jsonl"
        results = tmp_path / "results.jsonl"
        assert (
            events_path(results)
            == tmp_path / "results.jsonl.events.jsonl"
        )


class TestJsonlSink:
    def test_events_written_and_read_back(self, tmp_path):
        stream = tmp_path / "events.jsonl"
        sink = JsonlTelemetry(stream)
        sink.event("campaign_start", name="t", total=4)
        sink.event("progress", done=2, total=4)
        sink.close()
        events = list(iter_events(stream))
        assert [e["kind"] for e in events] == [
            "campaign_start",
            "progress",
        ]
        assert [e["seq"] for e in events] == [0, 1]

    def test_lines_are_the_make_event_envelope(self, tmp_path):
        stream = tmp_path / "events.jsonl"
        sink = JsonlTelemetry(stream)
        sink.event("campaign_start", name="t", total=4)
        sink.event("progress", done=2, total=4)
        sink.close()
        lines = stream.read_text(encoding="utf-8").splitlines()
        for seq, (line, kind, fields) in enumerate(
            zip(
                lines,
                ("campaign_start", "progress"),
                ({"name": "t", "total": 4}, {"done": 2, "total": 4}),
            )
        ):
            event = json.loads(line)
            expected = make_event(kind, event["ts"], event["pid"], seq, fields)
            assert line == json.dumps(expected, sort_keys=True)

    def test_envelope_wins_over_event_fields(self, tmp_path):
        stream = tmp_path / "events.jsonl"
        sink = JsonlTelemetry(stream)
        sink.event("progress", v=99, seq=42, pid=-1, done=1)
        sink.close()
        (event,) = iter_events(stream)
        assert event["v"] == EVENT_SCHEMA_VERSION
        assert event["seq"] == 0
        assert event["pid"] != -1
        assert event["done"] == 1

    def test_flush_emits_deltas_and_resets(self, tmp_path):
        stream = tmp_path / "events.jsonl"
        sink = JsonlTelemetry(stream)
        sink.count("engine.rounds", 5)
        sink.flush()
        sink.count("engine.rounds", 7)
        with sink.span("phase"):
            pass
        sink.close()
        stats = [e for e in iter_events(stream) if e["kind"] == "stats"]
        assert [e["counters"] for e in stats] == [
            {"engine.rounds": 5},
            {"engine.rounds": 7},
        ]
        # Consumers sum the deltas back to the true total.
        perf = perf_summary(str(tmp_path))
        assert perf["counters"]["engine.rounds"] == 12
        assert perf["spans"]["phase"]["count"] == 1

    def test_empty_flush_writes_nothing(self, tmp_path):
        stream = tmp_path / "events.jsonl"
        sink = JsonlTelemetry(stream)
        sink.flush()
        sink.close()
        assert not stream.exists()

    def test_torn_final_line_is_skipped(self, tmp_path):
        stream = tmp_path / "events.jsonl"
        sink = JsonlTelemetry(stream)
        sink.event("progress", done=1, total=2)
        sink.close()
        with open(stream, "a", encoding="utf-8") as f:
            f.write('{"v": 1, "kind": "progress", "ts"')  # hard kill
        assert [e["done"] for e in iter_events(stream)] == [1]


def _synthetic_events(finished):
    events = [
        make_event(
            "campaign_start",
            ts=100.0,
            pid=1,
            seq=0,
            fields={"name": "synth", "total": 10, "resumed": 2},
        ),
        make_event(
            "heartbeat",
            ts=102.0,
            pid=1,
            seq=1,
            fields={"worker": 7, "tasks_done": 4, "rate": 2.0},
        ),
        make_event(
            "progress",
            ts=104.0,
            pid=1,
            seq=2,
            fields={"done": 8, "total": 10},
        ),
    ]
    if finished:
        events.append(
            make_event(
                "campaign_end",
                ts=105.0,
                pid=1,
                seq=3,
                fields={"done": 10, "total": 10, "elapsed": 5.0},
            )
        )
    return events


class TestProgressFold:
    def test_live_campaign_folds_unfinished(self):
        progress = fold_events(_synthetic_events(finished=False))
        assert progress.name == "synth"
        assert (progress.done, progress.total) == (8, 10)
        assert progress.resumed == 2
        assert not progress.finished
        # 8 done over the 100->104 window.
        assert progress.rate == pytest.approx(2.0)
        assert progress.eta_seconds == pytest.approx(1.0)
        assert progress.workers[7].tasks_done == 4

    def test_finished_campaign_folds_done(self):
        progress = fold_events(_synthetic_events(finished=True))
        assert progress.finished
        assert progress.done == 10
        assert progress.elapsed == pytest.approx(5.0)
        assert progress.eta_seconds == 0.0
        line = progress.render_line(now=105.0)
        assert "synth: 10/10 (100%)" in line
        assert "done in 5.0s" in line
        assert "workers 1/1" in line

    def test_heartbeat_without_worker_field_names_its_writer(self):
        # Streams written before heartbeats carried ``worker`` had each
        # worker write its own heartbeats, so the envelope pid names it.
        events = _synthetic_events(finished=False) + [
            make_event(
                "heartbeat",
                ts=103.0,
                pid=pid,
                seq=0,
                fields={"tasks_done": tasks, "rate": 1.0},
            )
            for pid, tasks in ((11, 3), (12, 5))
        ]
        progress = fold_events(events)
        assert sorted(progress.workers) == [7, 11, 12]
        assert progress.workers[11].tasks_done == 3
        assert progress.workers[12].tasks_done == 5

    def test_empty_stream_folds_to_zero_state(self, tmp_path):
        progress = read_progress(str(tmp_path / "never_ran.jsonl"))
        assert (progress.done, progress.total) == (0, 0)
        assert not progress.finished
        assert progress.eta_seconds == 0.0
        assert "0/?" in progress.render_line()

    def test_perf_panel_renders_spans_and_counters(self):
        perf = {
            "counters": {"engine.rounds": 12},
            "spans": {
                "engine_run": {"count": 3, "seconds": 0.3, "mean": 0.1}
            },
            "engine_runs": 3,
            "events": 9,
        }
        panel = render_perf_panel(perf)
        assert "== Performance (events.jsonl) ==" in panel
        assert "engine_run" in panel
        assert "engine.rounds" in panel
        assert "engine runs: 3   events: 9" in panel


def _sweep_spec(tmp_path, total=3):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(
        json.dumps(
            {
                "name": "obs-sweep",
                "algorithms": ["round_robin"],
                "graphs": [{"kind": "line", "n": 6}],
                "adversaries": ["none"],
                "seeds": list(range(total)),
            }
        )
    )
    return spec_file


class TestCliConsumers:
    def test_sweep_events_then_progress_json(self, capsys, tmp_path):
        spec = _sweep_spec(tmp_path)
        results = tmp_path / "results.jsonl"
        assert main(
            [
                "sweep", "--spec", str(spec),
                "--results", str(results), "--events",
            ]
        ) == 0
        capsys.readouterr()
        assert main(["progress", str(results), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["finished"] is True
        assert doc["done"] == doc["total"] == 3
        assert doc["eta_seconds"] == 0.0
        assert doc["name"] == "obs-sweep"

    def test_progress_json_on_half_finished_campaign(
        self, capsys, tmp_path
    ):
        spec = _sweep_spec(tmp_path)
        results = tmp_path / "results.jsonl"
        assert main(
            [
                "sweep", "--spec", str(spec),
                "--results", str(results), "--events",
            ]
        ) == 0
        capsys.readouterr()
        # Replay a kill mid-campaign: drop the closing events.
        stream = events_path(results)
        lines = [
            line
            for line in stream.read_text().splitlines()
            if json.loads(line)["kind"]
            not in ("campaign_end", "stats")
        ]
        half = lines[: max(2, len(lines) // 2)]
        stream.write_text("\n".join(half) + "\n")
        assert main(["progress", str(results), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["finished"] is False
        assert doc["total"] == 3
        assert doc["done"] < 3

    def test_events_land_inside_a_fresh_campaign_directory(
        self, capsys, tmp_path
    ):
        # Regression: on a sharded campaign's *first* sweep the
        # directory does not exist yet when the sink is built; the
        # stream must still end up inside it, not as a sidecar.
        spec = _sweep_spec(tmp_path)
        campaign = tmp_path / "campaign"
        assert not campaign.exists()
        assert main(
            [
                "sweep", "--spec", str(spec),
                "--results", str(campaign),
                "--store", "sharded", "--events",
            ]
        ) == 0
        capsys.readouterr()
        assert (campaign / "events.jsonl").exists()
        assert main(["progress", str(campaign), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["finished"] is True
        assert doc["done"] == 3

    def test_events_path_honours_trailing_separator(self, tmp_path):
        absent = tmp_path / "campaign"
        assert (
            events_path(str(absent) + "/") == absent / "events.jsonl"
        )

    def test_progress_without_stream_is_an_error(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["progress", str(tmp_path / "never.jsonl")])

    def test_report_includes_perf_panel(self, capsys, tmp_path):
        spec = _sweep_spec(tmp_path)
        results = tmp_path / "results.jsonl"
        assert main(
            [
                "sweep", "--spec", str(spec),
                "--results", str(results), "--events",
            ]
        ) == 0
        capsys.readouterr()
        assert main(["report", "--results", str(results)]) == 0
        out = capsys.readouterr().out
        assert "== Performance (events.jsonl) ==" in out
        assert "engine_run" in out

    def test_list_json(self, capsys):
        assert main(["list", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        for key in (
            "graphs", "adversaries", "churns", "algorithms", "searchers",
        ):
            assert key in doc
        assert "line" in doc["graphs"]


class TestRunPerf:
    """``repro run`` runs its task under a recording sink and prints
    the phase and counter tables of that one run."""

    ARGV = [
        "run", "--graph", "line", "--n", "8",
        "--algorithm", "round_robin", "--adversary", "none",
        "--cr", "CR2", "--engine", "reference", "--seed", "0",
    ]

    def test_tables_print_before_the_record(self, capsys):
        assert main(self.ARGV) == 0
        out = capsys.readouterr().out
        assert "phase" in out and "engine_run" in out
        assert "counter" in out and "engine.rounds" in out
        # The record line stays last.
        assert out.index("engine.rounds") < out.index("key: ")
        assert out.rstrip("\n").splitlines()[-1].startswith("record: ")

    def test_json_perf_document(self, capsys):
        assert main(self.ARGV + ["--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        perf = doc["perf"]
        assert doc["record"]["completed"] is True
        assert perf["counters"]["engine.rounds"] == doc["record"]["rounds"]
        assert doc["record"]["rounds"] >= 1
        assert perf["spans"]["engine_run"]["count"] == 1

    def test_restores_the_ambient_null_sink(self, capsys):
        assert current() is NULL_TELEMETRY
        assert main(self.ARGV) == 0
        assert current() is NULL_TELEMETRY

    def test_profile_is_an_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["profile", "--graph", "line"])


TINY_SWEEP = Path(__file__).resolve().parents[1] / "examples/specs/tiny_sweep.json"


class TestOneWriter:
    """A pooled ``--events`` sweep: one stream, written by the sweep."""

    def _sweep(self, tmp_path, workers):
        results = tmp_path / f"w{workers}" / "results.jsonl"
        assert main(
            [
                "sweep", "--spec", str(TINY_SWEEP), "--workers",
                str(workers), "--results", str(results), "--events",
            ]
        ) == 0
        return results

    def test_pooled_stream_matches_serial(self, capsys, tmp_path):
        serial = self._sweep(tmp_path, 1)
        pooled = self._sweep(tmp_path, 2)
        capsys.readouterr()
        assert sorted(p.name for p in pooled.parent.iterdir()) == [
            "results.jsonl", "results.jsonl.events.jsonl",
        ]
        events = list(iter_events(events_path(pooled)))
        # Every line was written by this process; a worker that wrote
        # a stream of its own would show up under its own pid.
        assert {e["pid"] for e in events} == {os.getpid()}
        heartbeats = [e for e in events if e["kind"] == "heartbeat"]
        assert heartbeats
        assert os.getpid() not in {e["worker"] for e in heartbeats}
        assert sum(
            max(e["tasks_done"] for e in heartbeats if e["worker"] == w)
            for w in {e["worker"] for e in heartbeats}
        ) == 24
        # An in-process sweep names its own pid.
        assert {
            e["worker"]
            for e in iter_events(events_path(serial))
            if e["kind"] == "heartbeat"
        } == {os.getpid()}
        want, got = perf_summary(str(serial)), perf_summary(str(pooled))
        assert got["counters"] == want["counters"]
        assert got["engine_runs"] == want["engine_runs"] == 24

    def test_pool_folds_worker_telemetry_into_recording(self):
        spec = ExperimentSpec(
            name="fold",
            algorithms=("round_robin",),
            graphs=(("line", 6), ("line", 7)),
            adversaries=(("none", {}),),
            seeds=(0, 1, 2),
        )
        sinks = []
        for workers in (1, 2):
            sinks.append(RecordingTelemetry())
            with use(sinks[-1]):
                SweepRunner(spec, workers=workers).run()
        serial, pooled = sinks
        assert pooled.counters == serial.counters
        # Split cells rebuild per unit, so only the run spans agree.
        assert pooled.spans["engine_run"].count == spec.size
        assert serial.spans["engine_run"].count == spec.size
        runs = [e for e in pooled.events if e["kind"] == "engine_run"]
        assert len(runs) == spec.size
