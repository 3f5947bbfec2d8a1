"""The one registry contract, checked on all five named-kind registries.

Algorithms, graphs, adversaries, churns and searchers are each one
:class:`repro.core.runner.Registry`.  Every registry must report an
unknown kind by name, reject a second registration under a taken name
(keeping the original factory), turn parameters that do not fit a
factory into a ``ValueError``, and describe every kind it knows.  Each
case goes through the public spelling (``make_processes``,
``build_graph``, ``register_searcher``, ...) so the module-level names
are held to the contract too.
"""

import json
import re
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict

import pytest

from repro.core.runner import (
    ALGORITHMS,
    Registry,
    algorithm_names,
    make_processes,
    register_algorithm,
)
from repro.experiments.registry import (
    ADVERSARIES,
    CHURNS,
    GRAPHS,
    adversary_kinds,
    build_adversary,
    build_churn,
    build_graph,
    churn_kinds,
    graph_kinds,
    register_adversary,
    register_churn,
    register_graph,
)
from repro.search import SearchSettings, make_space
from repro.search.searchers import (
    SEARCHERS,
    build_searcher,
    register_searcher,
    searcher_kinds,
)

_SEARCH_CELL = SearchSettings(
    algorithm="round_robin", graph_kind="clique-bridge", n=10
)


def _build_searcher(kind: str, **params: Any) -> Any:
    return build_searcher(
        kind, make_space(_SEARCH_CELL), _SEARCH_CELL, **params
    )


@dataclass(frozen=True)
class Case:
    """One registry and its public spellings."""

    registry: Registry
    noun: str  # the noun every error text names
    section: str  # its key in ``repro list --json``
    kinds: Callable[[], list]
    register: Callable[..., None]
    build: Callable[..., Any]  # ``build(kind, **params)``
    builtin: str
    fits: Dict[str, Any] = field(default_factory=dict)
    misfit: Dict[str, Any] = field(default_factory=dict)


CASES = [
    Case(
        ALGORITHMS, "algorithm", "algorithms", algorithm_names,
        register_algorithm,
        lambda kind, **p: make_processes(kind, 6, **p),
        "decay", misfit={"bogus": 1},
    ),
    Case(
        GRAPHS, "graph kind", "graphs", graph_kinds, register_graph,
        lambda kind, **p: build_graph(kind, 8, **p),
        "gnp", misfit={"bogus": 1},
    ),
    Case(
        ADVERSARIES, "adversary kind", "adversaries", adversary_kinds,
        register_adversary, build_adversary,
        "pivot", fits={"n": 16}, misfit={"p": 0.5},
    ),
    Case(
        CHURNS, "churn kind", "churns", churn_kinds, register_churn,
        lambda kind, **p: build_churn(kind, 8, 20, **p),
        "window", fits={"count": 1, "start": 2, "length": 3},
        misfit={"bogus": 1},
    ),
    Case(
        SEARCHERS, "searcher kind", "searchers", searcher_kinds,
        register_searcher, _build_searcher,
        "random", misfit={"bogus": 1},
    ),
]
IDS = [case.section for case in CASES]


@pytest.fixture(scope="module")
def listed():
    """``repro list --json`` from a fresh process: built-ins only."""
    out = subprocess.run(
        [sys.executable, "-m", "repro", "list", "--json"],
        check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out)


@pytest.mark.parametrize("case", CASES, ids=IDS)
class TestRegistryContract:
    def test_public_names_are_the_registry(self, case):
        assert case.kinds() == case.registry.names()
        assert case.builtin in case.kinds()

    def test_unknown_kind_names_the_known_ones(self, case):
        text = (
            f"unknown {case.noun} 'no-such-kind'; "
            f"known: {case.registry.names()}"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            case.build("no-such-kind")

    def test_duplicate_registration_rejected_keeps_original(self, case):
        text = f"{case.noun} '{case.builtin}' already registered"
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            case.register(case.builtin, lambda *a, **kw: None)
        assert case.build(case.builtin, **case.fits) is not None

    def test_misfit_parameters_raise_value_error(self, case):
        text = f"bad parameters for {case.noun} '{case.builtin}': "
        with pytest.raises(ValueError, match=f"^{re.escape(text)}"):
            case.build(case.builtin, **case.misfit)

    def test_descriptions_cover_every_name(self, case, listed):
        assert list(case.registry.descriptions()) == case.registry.names()
        # A fresh process holds only the built-in kinds, and every one
        # of them carries a one-liner.
        section = listed[case.section]
        assert case.builtin in section
        assert all(section.values()), section
