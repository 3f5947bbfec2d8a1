"""Unit tests for execution traces and their paper-specific queries."""

import json

import pytest

from repro.graphs import line
from repro.sim import ScriptedProcess, run_broadcast
from repro.sim.messages import Message
from repro.sim.trace import RoundRecord


def make_trace():
    procs = [ScriptedProcess(uid=i, send_rounds=range(1, 50)) for i in range(5)]
    return run_broadcast(line(5), procs, max_rounds=30)


class TestBasicQueries:
    def test_completion_round(self):
        trace = make_trace()
        assert trace.completed
        assert trace.completion_round == 4

    def test_completion_none_when_incomplete(self):
        from repro.sim import SilentProcess

        trace = run_broadcast(
            line(3), [SilentProcess(uid=i) for i in range(3)], max_rounds=3
        )
        assert trace.completion_round is None

    def test_isolation_rounds(self):
        trace = make_trace()
        # Round 1 is the only round with a single sender (the source).
        assert trace.isolation_rounds() == [1]

    def test_sender_counts_monotone_on_line(self):
        trace = make_trace()
        counts = trace.sender_counts()
        assert counts == sorted(counts)


class TestDensity:
    def test_density_full_interval(self):
        trace = make_trace()
        # Nodes 1..4 are informed in rounds 1..4 → den(1,4) = 4/4.
        assert trace.density(1, 4) == pytest.approx(1.0)

    def test_density_partial_interval(self):
        trace = make_trace()
        assert trace.density(2, 3) == pytest.approx(1.0)
        assert trace.density(5, 8) == pytest.approx(0.0)

    def test_density_counts_only_first_receipt(self):
        trace = make_trace()
        # Node informed at round 0 (the source) is not in [1, 4].
        assert trace.density(1, 4) * 4 == 4

    def test_density_invalid_interval(self):
        trace = make_trace()
        with pytest.raises(ValueError):
            trace.density(3, 2)
        with pytest.raises(ValueError):
            trace.density(0, 2)


class TestRoundRecord:
    def test_isolation_flag(self):
        m = Message("p", 0, 1)
        rec = RoundRecord(1, {0: m}, {}, (), ())
        assert rec.is_isolation
        rec2 = RoundRecord(1, {0: m, 1: m}, {}, (), ())
        assert not rec2.is_isolation
        assert rec2.num_senders == 2


class TestSerialization:
    def test_summary_fields(self):
        trace = make_trace()
        s = trace.summary()
        assert s["n"] == 5
        assert s["completed"] is True
        assert s["completion_round"] == 4
        assert s["total_transmissions"] == sum(trace.sender_counts())

    def test_json_roundtrip(self):
        trace = make_trace()
        summary = trace.summary()
        assert json.loads(json.dumps(summary, sort_keys=True)) == summary
