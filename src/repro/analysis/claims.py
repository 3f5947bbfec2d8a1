"""The paper's claims in one table: statement, scope, bound, verdict.

One :class:`Claim` per result the reproduction checks, and the only place
one of them is read against a measurement:
:meth:`~repro.analysis.report.CampaignReport.reference_rows` emits a row per
claim whose scope covers a cell, ``examples/reproduce_paper.py`` loops over
:data:`CLAIMS`, ``repro lowerbound --theorem 2``, ``11`` and ``12`` print
their theorem's reading, and the paper benches assert
:meth:`Claim.reproduced`.
Verdicts call the drivers' own quantities; every bound is taken at the
built network's size.

:data:`CLAIMS` holds the claims the condensed reproduction prints, in
print order; each has a ``condensed`` producer.  A claim outside it has
none and is read only by its paper bench: :data:`LEMMA15`
(``benchmarks/bench_harmonic.py``) and :data:`LEMMA1_ROUND_ROBIN`
(``benchmarks/bench_interference.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

from repro.core import (
    make_harmonic_processes,
    make_round_robin_processes,
    round_robin_bound,
)
from repro.core.harmonic import busy_round_bound, completion_bound, default_T
from repro.core.ssf import kautz_singleton_ssf
from repro.core.strong_select import build_schedule
from repro.experiments import ExperimentSpec, run_sweep
from repro.graphs import PivotLayersLayout, clique_bridge, gnp_dual, pivot_layers
from repro.graphs.broadcastability import broadcast_number
from repro.lowerbounds import (
    theorem2_lower_bound,
    theorem4_experiment,
    theorem11_lower_bound,
    theorem12_construction,
    verify_with_engine,
)
from repro.lowerbounds.theorem2 import (
    DETERMINISTIC_ALGORITHMS,
    THEOREM2_GRAPHS,
    Theorem2Result,
)
from repro.lowerbounds.theorem11 import AlgorithmFactory, Theorem11Result
from repro.sim.trace import ExecutionTrace


@dataclass(frozen=True)
class Observation:
    """The worst completion round (``None``: no run completed) of one
    algorithm on a built network of ``n`` nodes, as Theorems 2, 10 and 18
    read a campaign cell or a driver run."""

    algorithm: str
    graph_kind: str
    n: int
    worst: Optional[float]
    capped: int = 0
    #: Harmonic's plateau length, when known.
    harmonic_T: Optional[int] = None


@dataclass(frozen=True)
class Claim:
    """One result of the paper.

    ``bound`` labels and ``verdict`` judges a piece of evidence; ``holds``
    is the verdict that reproduces the claim.  ``condensed`` measures it at
    the condensed size as ``(evidence, measured)`` (``None`` for a claim
    only a bench reads), and ``covers`` tells whether a campaign cell
    falls under it.
    """

    id: str
    statement: str
    scope: str
    bound: Callable[[Any], str]
    verdict: Callable[[Any], str]
    condensed: Optional[Callable[[], Tuple[Any, str]]] = None
    holds: str = "holds"
    covers: Callable[[Observation], bool] = lambda observation: False

    def reproduced(self, evidence: Any) -> bool:
        """Whether ``evidence`` reproduces the claim."""
        return self.verdict(evidence) == self.holds


def _holds(ok: bool) -> str:
    return "holds" if ok else "fails"


def _cell(name: str, algorithm: str, graph: str, n: int, adversary: str, seed: int):
    return ExperimentSpec(
        name, [algorithm], [(graph, n)], adversaries=[adversary], seeds=[seed]
    )


#: The condensed sweep cells (the golden records corpus pins them); bare
#: ``harmonic`` runs the paper's plateau ``default_T(n)``.
THM10_SPEC = _cell(
    "thm10-strong-select", "strong_select", "clique-bridge", 33, "greedy", 0
)
THM18_SPEC = _cell("thm18-harmonic", "harmonic", "clique-bridge", 24, "greedy", 1)
CLASSICAL_SPEC = _cell(
    "headline-classical", "round_robin", "clique-bridge-classical", 33, "none", 0
)


def observe(spec: ExperimentSpec) -> Observation:
    """Run a one-cell spec and read it through the campaign report."""
    from repro.analysis.report import CampaignReport

    (cell,) = CampaignReport.from_records(run_sweep(spec).records).ordered()
    return cell.observation()


def theorem2_observation(algorithm: str, result: Theorem2Result) -> Observation:
    """The worst case a Theorem 2 driver run forced."""
    return Observation(algorithm, "clique-bridge", result.n, result.worst_rounds)


def _printed(o: Observation) -> str:
    worst = "capped" if o.worst is None else f"{o.worst:.0f}"
    return f"{worst} (n={o.n}" + (f", T={o.harmonic_T})" if o.harmonic_T else ")")


def _measured(o: Observation) -> Tuple[Observation, str]:
    return o, _printed(o)


def _sec3():
    k = broadcast_number(clique_bridge(10).graph)
    return k, f"k = {k} (n=10)"


def _as_theorem2(o: Observation) -> Theorem2Result:
    """An observed worst case as a one-placement Theorem 2 result."""
    return Theorem2Result(o.n, {0: o.worst})


def _thm2():
    result = theorem2_lower_bound(make_round_robin_processes, 17)
    return _measured(theorem2_observation("round_robin", result))


def _thm4():
    result = theorem4_experiment(
        lambda trial: make_harmonic_processes(10, T=2), 10, trials=30
    )
    excess = max(
        result.adversarial_success_probability(k) - result.envelope(k)
        for k in range(1, result.n - 2)
    )
    return result, f"max excess {excess:+.2f} (n={result.n})"


def _thm4_violations(result) -> list:
    # Monte-Carlo slack: three standard errors of a proportion.
    slack = 3 * math.sqrt(0.25 / result.trials)
    return result.violations(range(1, result.n - 2), slack=slack)


def _thm10_bound(o: Observation) -> int:
    if o.algorithm == "strong_select_ks":
        return build_schedule(o.n, ssf_builder=kautz_singleton_ssf).round_bound()
    return build_schedule(o.n).round_bound()


def theorem11_evidence(
    algorithm_factory: AlgorithmFactory, layout: PivotLayersLayout
) -> Tuple[Theorem11Result, ExecutionTrace]:
    """:data:`THEOREM11`'s evidence on ``layout``: the driver's worst case
    and its engine replay."""
    result = theorem11_lower_bound(algorithm_factory, layout=layout)
    return result, verify_with_engine(algorithm_factory, layout, result)


def _thm11():
    result, replay = evidence = theorem11_evidence(
        make_round_robin_processes, pivot_layers(5, 5)
    )
    agree = "=" if replay.completion_round == result.total_rounds else "≠"
    return evidence, f"{result.total_rounds} (n={result.n}, replay {agree})"


def _thm11_verdict(evidence) -> str:
    result, replay = evidence
    total = result.total_rounds
    return _holds(
        result.completed and replay.completion_round == total and total > 2 * result.n
    )


def _thm12():
    result = theorem12_construction(make_round_robin_processes, 33)
    return result, f"{result.total_rounds} (n={result.n})"


def _thm12_verdict(result) -> str:
    early = result.min_early_stage_rounds
    return _holds(
        result.total_rounds >= result.paper_total_guarantee
        and early is not None
        and early >= result.paper_stage_guarantee
    )


def _thm18_verdict(o: Observation) -> str:
    if o.harmonic_T < default_T(o.n):
        # Theorem 18 assumes the paper's plateau length; a shorter one is
        # outside its hypothesis, so there is no side.
        return "outside Thm 18 scope"
    # A w.h.p. bound tolerates stragglers; report the side.
    if o.worst is not None and o.worst <= completion_bound(o.n, o.harmonic_T):
        return "within"
    return "exceeded"


def _lemma15_bound(evidence) -> int:
    """Lemma 15's ceiling for ``(n, T, busy rounds)`` evidence."""
    n, T, _ = evidence
    return busy_round_bound(n, T)


def _carry_over_bound(evidence) -> int:
    """Round robin's dual-graph bound for an ``(InterferenceNetwork,
    EquivalenceReport)`` piece of evidence."""
    network, _ = evidence
    return round_robin_bound(network.n, network.graph.source_eccentricity)


def _carry_over_verdict(evidence) -> str:
    completion = evidence[1].interference_trace.completion_round
    return _holds(
        completion is not None and completion <= _carry_over_bound(evidence)
    )


def _lemma1():
    from repro.interference import InterferenceNetwork, run_equivalence_check

    network = InterferenceNetwork(gnp_dual(14, seed=4))
    report = run_equivalence_check(
        network, make_round_robin_processes, max_rounds=2000, seed=2
    )
    if report.equivalent:
        return report, "identical (n=14)"
    return report, f"diverged {report.first_divergence}"


def _sec1():
    classical = observe(CLASSICAL_SPEC)
    dual = theorem2_lower_bound(make_round_robin_processes, classical.n).worst_rounds
    factor = dual / (classical.worst or 1)
    return (dual, classical.worst), f"{dual} vs {_printed(classical)}: {factor:.0f}x"


SECTION3 = Claim(
    "sec3",
    "the clique-bridge network is 2-broadcastable",
    "the clique-bridge network",
    bound=lambda k: "k = 2",
    verdict=lambda k: _holds(k == 2),
    condensed=_sec3,
)
THEOREM2 = Claim(
    "thm2",
    "deterministic broadcast needs more than n − 3 rounds in the worst case",
    f"algorithms {DETERMINISTIC_ALGORITHMS} on graph kinds {THEOREM2_GRAPHS}",
    bound=lambda o: f"worst case > {_as_theorem2(o).theorem_bound} (Thm 2)",
    # Theorem 2 bounds the adversarial worst case; a sweep's sampled
    # adversaries may or may not realise it, so the verdict reports which
    # side the measurement landed on rather than pass/fail.
    verdict=lambda o: "reached"
    if o.capped or _as_theorem2(o).bound_holds
    else "not reached",
    condensed=_thm2,
    holds="reached",
    covers=lambda o: o.graph_kind in THEOREM2_GRAPHS
    and o.algorithm in DETERMINISTIC_ALGORITHMS,
)
THEOREM4 = Claim(
    "thm4",
    "randomized success within k rounds is at most k/(n − 2)",
    "any algorithm on the clique-bridge network; identity placement only; CR1",
    bound=lambda result: "≤ k/(n−2)",
    verdict=lambda result: _holds(not _thm4_violations(result)),
    condensed=_thm4,
)
THEOREM10 = Claim(
    "thm10",
    "Strong Select completes within X = n/ρ rounds",
    "strong_select on any dual graph, CR4, asynchronous start (a bench also "
    "reads strong_select_ks against the X of its Kautz–Singleton SSFs)",
    bound=lambda o: f"completes ≤ {_thm10_bound(o)} (Thm 10)",
    verdict=lambda o: "holds"
    if not o.capped and o.worst <= _thm10_bound(o)
    else "VIOLATED",
    condensed=lambda: _measured(observe(THM10_SPEC)),
    covers=lambda o: o.algorithm == "strong_select",
)
THEOREM11 = Claim(
    "thm11",
    "directed broadcast needs Ω(n^{3/2}) rounds: superlinear, exact replay",
    "feedback-free deterministic algorithms on the pivot-layer network",
    bound=lambda evidence: f"> 2n = {2 * evidence[0].n}",
    verdict=_thm11_verdict,
    condensed=_thm11,
)
THEOREM12 = Claim(
    "thm12",
    "undirected broadcast needs ≥ (n−1)/4·(log₂(n−1)−2) rounds",
    "deterministic algorithms against the candidate-set construction",
    bound=lambda result: f"≥ {result.paper_total_guarantee:.0f}",
    verdict=_thm12_verdict,
    condensed=_thm12,
)
THEOREM18 = Claim(
    "thm18",
    "Harmonic Broadcast completes within 2nT·H(n) rounds w.h.p.",
    "harmonic with T ≥ default_T(n) = ⌈12 ln(n/ε)⌉, any dual graph",
    bound=lambda o: f"completes ≤ {completion_bound(o.n, o.harmonic_T)} whp (Thm 18)",
    verdict=_thm18_verdict,
    condensed=lambda: _measured(observe(THM18_SPEC)),
    holds="within",
    covers=lambda o: o.algorithm == "harmonic" and o.harmonic_T is not None,
)
LEMMA1 = Claim(
    "lemma1",
    "explicit-interference executions are dual-graph executions",
    "any algorithm and collision rule",
    bound=lambda report: "identical observations",
    verdict=lambda report: _holds(report.equivalent),
    condensed=_lemma1,
)
SECTION1 = Claim(
    "sec1",
    "dual graphs separate from the classical model on diameter-2 networks",
    "round robin on the clique-bridge: classical projection vs Theorem 2",
    bound=lambda evidence: "dual > 4 × classical",
    verdict=lambda evidence: _holds(evidence[0] > 4 * (evidence[1] or math.inf)),
    condensed=_sec1,
)

LEMMA15 = Claim(
    "lemma15",
    "no wake-up pattern induces more than n·T·H(n) busy rounds",
    "Harmonic's sending probabilities over any wake-up pattern of n nodes",
    bound=lambda evidence: f"busy rounds ≤ {_lemma15_bound(evidence)} (Lemma 15)",
    verdict=lambda evidence: _holds(evidence[2] <= _lemma15_bound(evidence)),
)
LEMMA1_ROUND_ROBIN = Claim(
    "lemma1-rr",
    "round robin keeps its dual-graph n·ecc round bound under explicit "
    "interference",
    "round_robin on explicit-interference networks",
    bound=lambda evidence: f"completes ≤ {_carry_over_bound(evidence)} (Lemma 1)",
    verdict=_carry_over_verdict,
)

#: The claims the condensed reproduction prints, in print order.
CLAIMS: Tuple[Claim, ...] = (
    SECTION3,
    THEOREM2,
    THEOREM4,
    THEOREM10,
    THEOREM11,
    THEOREM12,
    THEOREM18,
    LEMMA1,
    SECTION1,
)
