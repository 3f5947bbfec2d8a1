"""Additional property-based tests: serialization, replay and
broadcastability invariants."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adversaries import RandomDeliveryAdversary
from repro.adversaries.scripted import ReplayAdversary
from repro.core import make_round_robin_processes
from repro.graphs import gnp_dual
from repro.graphs.broadcastability import (
    broadcast_number,
    greedy_broadcast_schedule,
    guaranteed_informed,
)
from repro.sim import BroadcastEngine, EngineConfig, trace_from_json, trace_to_json

SLOW = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def recorded_run(g, seed, p):
    config = EngineConfig(
        seed=seed, max_rounds=4000, record_receptions=True
    )
    engine = BroadcastEngine(
        g,
        make_round_robin_processes(g.n),
        RandomDeliveryAdversary(p, seed=seed),
        config,
    )
    return engine.run()


@given(
    n=st.integers(min_value=2, max_value=16),
    seed=st.integers(min_value=0, max_value=200),
    p=st.floats(min_value=0.0, max_value=1.0),
)
@SLOW
def test_trace_serialization_roundtrip(n, seed, p):
    """JSON round-trips preserve every recorded field."""
    g = gnp_dual(n, seed=seed)
    trace = recorded_run(g, seed, p)
    loaded = trace_from_json(trace_to_json(trace))
    assert loaded.informed_round == trace.informed_round
    assert loaded.completed == trace.completed
    assert len(loaded.rounds) == len(trace.rounds)
    for a, b in zip(loaded.rounds, trace.rounds):
        assert a.senders == dict(b.senders)
        assert a.unreliable_deliveries == dict(b.unreliable_deliveries)
        assert a.receptions == dict(b.receptions)


@given(
    n=st.integers(min_value=3, max_value=14),
    seed=st.integers(min_value=0, max_value=200),
    p=st.floats(min_value=0.0, max_value=1.0),
)
@SLOW
def test_replay_reproduces_any_recorded_execution(n, seed, p):
    """ReplayAdversary + same seed ⇒ identical execution."""
    g = gnp_dual(n, seed=seed)
    original = recorded_run(g, seed, p)
    config = EngineConfig(
        seed=seed, max_rounds=4000, record_receptions=True
    )
    engine = BroadcastEngine(
        g,
        make_round_robin_processes(n),
        ReplayAdversary(original),
        config,
    )
    replayed = engine.run()
    assert replayed.informed_round == original.informed_round
    for a, b in zip(original.rounds, replayed.rounds):
        assert sorted(a.senders) == sorted(b.senders)


@given(
    n=st.integers(min_value=2, max_value=12),
    pr=st.floats(min_value=0.0, max_value=1.0),
    pu=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=200),
)
@SLOW
def test_broadcast_number_invariants(n, pr, pu, seed):
    """ecc(G) ≤ broadcast_number ≤ greedy schedule length ≤ n − 1."""
    g = gnp_dual(n, p_reliable=pr, p_unreliable=pu, seed=seed)
    exact = broadcast_number(g)
    greedy_rounds, schedule = greedy_broadcast_schedule(g)
    assert exact is not None
    assert g.source_eccentricity <= exact <= greedy_rounds
    assert greedy_rounds <= max(1, n - 1)
    # The greedy schedule is genuinely feasible.
    informed = {g.source}
    for senders in schedule:
        assert set(senders) <= informed
        informed |= guaranteed_informed(g, sorted(senders))
    assert informed == set(g.nodes)
