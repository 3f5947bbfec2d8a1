"""Tests for the adversary-search harness, evaluation and searchers."""

import json
import random

import pytest

from repro.adversaries.scripted import ReplayAdversary
from repro.analysis.claims import THEOREM2
from repro.core.runner import make_processes, suggested_round_limit
from repro.experiments.runner import round_cap
from repro.experiments.spec import _coerce_engine, _coerce_mode, _coerce_rule
from repro.obs import RecordingTelemetry, use
from repro.search import (
    CandidateRecord,
    EvaluationContext,
    GenomeSpace,
    GreedyLookaheadSearch,
    PopulationEvaluator,
    RandomRestartSearch,
    SearchBudget,
    SearchSettings,
    StrategyGenome,
    genome_fingerprint_validator,
    make_space,
    register_searcher,
    run_search,
    searcher_kinds,
    theorem2_comparison,
)
from repro.search.persist import candidate_key
from repro.search.searchers import SEARCHERS
from repro.sim.engine import EngineConfig, StartMode, build_engine
from repro.sim.collision import CollisionRule
from repro.store import StoreMismatchError, open_store

CELL = SearchSettings(
    algorithm="round_robin", graph_kind="clique-bridge", n=10
)


def load_candidates(path):
    """A search results file's trusted records and its load health."""
    with open_store(
        path,
        CandidateRecord.from_dict,
        validator=genome_fingerprint_validator,
    ) as store:
        return store.claim_keys(), store.health


class TestSearchSettings:
    def test_key_and_seed_stable(self):
        assert CELL.key == (
            "search/round_robin/clique-bridge:n10/CR1-synchronous/s0"
        )
        assert CELL.derived_seed == SearchSettings(
            algorithm="round_robin", graph_kind="clique-bridge", n=10
        ).derived_seed

    def test_cap_in_key(self):
        capped = SearchSettings(
            algorithm="round_robin",
            graph_kind="clique-bridge",
            n=10,
            max_rounds=40,
        )
        assert capped.key.endswith("/cap40")

    def test_validation(self):
        with pytest.raises(ValueError, match="collision rule"):
            SearchSettings(
                algorithm="round_robin", graph_kind="line", n=4,
                collision_rule="CR9",
            )
        with pytest.raises(ValueError, match="engine"):
            SearchSettings(
                algorithm="round_robin", graph_kind="line", n=4,
                engine="warp",
            )
        with pytest.raises(ValueError, match="engine"):
            SearchSettings(
                algorithm="round_robin", graph_kind="line", n=4,
                engine="auto",
            )

    def test_engine_defaults_to_fast(self):
        settings = SearchSettings(
            algorithm="round_robin", graph_kind="line", n=4
        )
        assert settings.engine == "fast"

    @pytest.mark.parametrize(
        "field,value,coerce",
        [
            ("collision_rule", "CR9", _coerce_rule),
            ("start_mode", "sideways", _coerce_mode),
            ("engine", "warp", _coerce_engine),
        ],
    )
    def test_rejects_with_the_spec_error_text(self, field, value, coerce):
        with pytest.raises(ValueError) as from_spec:
            coerce(value)
        with pytest.raises(ValueError) as from_settings:
            SearchSettings(
                algorithm="round_robin", graph_kind="line", n=4,
                **{field: value},
            )
        assert str(from_settings.value) == str(from_spec.value)

    @pytest.mark.parametrize(
        "field,value,canonical",
        [
            ("collision_rule", CollisionRule.CR2, "CR2"),
            ("collision_rule", "cr3", "CR3"),
            ("start_mode", StartMode.ASYNCHRONOUS, "asynchronous"),
            ("start_mode", "Synchronous", "synchronous"),
            ("engine", "REFERENCE", "reference"),
        ],
    )
    def test_accepts_what_a_spec_accepts(self, field, value, canonical):
        settings = SearchSettings(
            algorithm="round_robin", graph_kind="line", n=4,
            **{field: value},
        )
        spelled = SearchSettings(
            algorithm="round_robin", graph_kind="line", n=4,
            **{field: canonical},
        )
        assert getattr(settings, field) == canonical
        assert settings.key == spelled.key

    @pytest.mark.parametrize(
        "algorithm",
        ["decay", "harmonic", "round_robin", "strong_select", "uniform"],
    )
    def test_round_cap_is_the_suggested_limit(self, algorithm):
        settings = SearchSettings(
            algorithm=algorithm, graph_kind="clique-bridge", n=10
        )
        ctx = EvaluationContext(settings)
        assert ctx.round_cap == round_cap(settings, ctx.graph)
        assert ctx.round_cap == suggested_round_limit(algorithm, ctx.graph)
        assert make_space(settings).horizon == ctx.round_cap

    def test_explicit_cap_wins(self):
        settings = SearchSettings(
            algorithm="round_robin", graph_kind="clique-bridge", n=10,
            max_rounds=23,
        )
        ctx = EvaluationContext(settings)
        assert ctx.round_cap == 23
        assert make_space(settings).horizon == 23


class TestEvaluation:
    def test_objective_is_completion_round(self):
        ctx = EvaluationContext(CELL)
        score = ctx.evaluate(StrategyGenome(horizon=ctx.round_cap))
        assert score.completed
        assert score.objective == score.completion_round

    def test_capped_run_scores_above_any_completion(self):
        capped = SearchSettings(
            algorithm="round_robin",
            graph_kind="clique-bridge",
            n=10,
            max_rounds=1,
        )
        ctx = EvaluationContext(capped)
        score = ctx.evaluate(StrategyGenome(horizon=1))
        assert not score.completed
        assert score.objective == 2  # cap + 1

    def test_fast_and_reference_engines_agree(self):
        space = make_space(CELL)
        genome = space.random(random.Random(5))
        auto = EvaluationContext(CELL).evaluate(genome)
        ref = EvaluationContext(
            SearchSettings(
                algorithm="round_robin",
                graph_kind="clique-bridge",
                n=10,
                engine="reference",
            )
        ).evaluate(genome)
        assert auto.engine == "fast"
        assert ref.engine == "reference"
        assert auto.objective == ref.objective
        assert auto.completion_round == ref.completion_round

    def test_cr4_genes_stay_on_fast_engine(self):
        """CR4 genomes with resolution genes score on the fast engine
        (its consult path serves the real resolver) and agree with an
        explicit reference-engine evaluation."""
        cr4_cell = SearchSettings(
            algorithm="round_robin",
            graph_kind="clique-bridge",
            n=10,
            collision_rule="CR4",
        )
        ctx = EvaluationContext(cr4_cell)
        plain = ctx.evaluate(StrategyGenome(horizon=4))
        genome = StrategyGenome(horizon=4, cr4=((1, 0, 1),))
        genes = ctx.evaluate(genome)
        assert plain.engine == "fast"
        assert genes.engine == "fast"
        ref = EvaluationContext(
            SearchSettings(
                algorithm="round_robin",
                graph_kind="clique-bridge",
                n=10,
                collision_rule="CR4",
                engine="reference",
            )
        ).evaluate(genome)
        assert genes.objective == ref.objective
        assert genes.completion_round == ref.completion_round

    def test_parallel_matches_serial(self):
        space = make_space(CELL)
        rng = random.Random(2)
        genomes = [space.random(rng) for _ in range(8)]
        with PopulationEvaluator(CELL, workers=2) as para:
            parallel = para.evaluate(genomes)
        with PopulationEvaluator(CELL, workers=1) as seri:
            serial = seri.evaluate(genomes)
        assert parallel == serial


class TestRunSearch:
    def budget(self, n=8):
        return SearchBudget(evaluations=n, batch_size=4)

    def test_deterministic_for_fixed_seed(self):
        a = run_search(CELL, searcher="random", budget=self.budget(), seed=1)
        b = run_search(CELL, searcher="random", budget=self.budget(), seed=1)
        assert a.best == b.best
        assert a.best_ordinal == b.best_ordinal

    def test_seed_changes_exploration(self):
        a = run_search(CELL, searcher="random", budget=self.budget(), seed=1)
        b = run_search(CELL, searcher="random", budget=self.budget(), seed=2)
        assert a.best.genome != b.best.genome

    def test_resume_by_key(self, tmp_path):
        path = str(tmp_path / "search.jsonl")
        first = run_search(
            CELL, searcher="random", budget=self.budget(4), seed=3,
            results_path=path,
        )
        assert (first.executed, first.resumed) == (4, 0)
        full = run_search(
            CELL, searcher="random", budget=self.budget(8), seed=3,
            results_path=path,
        )
        assert (full.executed, full.resumed) == (4, 4)
        fresh = run_search(
            CELL, searcher="random", budget=self.budget(8), seed=3
        )
        assert full.best == fresh.best
        # A finished search re-runs as a pure resume.
        again = run_search(
            CELL, searcher="random", budget=self.budget(8), seed=3,
            results_path=path,
        )
        assert (again.executed, again.resumed) == (0, 8)
        assert again.best == fresh.best

    def test_resume_distrusts_fingerprint_mismatch(self, tmp_path):
        path = str(tmp_path / "search.jsonl")
        run_search(
            CELL, searcher="random", budget=self.budget(4), seed=5,
            results_path=path,
        )
        records, _ = load_candidates(path)
        key = candidate_key(CELL, "random", 5, 0)
        forged = CandidateRecord(
            key=key,
            ordinal=0,
            searcher="random",
            fingerprint="deadbeef",  # does not match any genome
            genome=records[key].genome,
            objective=10_000,
            completed=False,
            completion_round=None,
            rounds=0,
            engine="reference",
        )
        with open(path, "a", encoding="utf-8") as f:
            f.write(json.dumps(forged.to_dict(), sort_keys=True) + "\n")
        resumed = run_search(
            CELL, searcher="random", budget=self.budget(4), seed=5,
            results_path=path,
        )
        # The store-level validator rejects the internally inconsistent
        # forgery at load time, so the earlier honest record for the
        # same key is resumed instead — no re-evaluation needed, and
        # the forged objective never reaches the searcher.
        assert resumed.executed == 0
        assert resumed.resumed == 4
        assert resumed.health.rejected_records == 1
        assert resumed.best.objective < 10_000

    def test_resume_distrusts_wrong_genome_for_key(self, tmp_path):
        path = str(tmp_path / "search.jsonl")
        run_search(
            CELL, searcher="random", budget=self.budget(4), seed=5,
            results_path=path,
        )
        records, _ = load_candidates(path)
        key0 = candidate_key(CELL, "random", 5, 0)
        key1 = candidate_key(CELL, "random", 5, 1)
        # Internally consistent (fingerprint matches its own genome) so
        # the store validator accepts it — but the genome belongs to a
        # *different* candidate, so the harness's regenerated-genome
        # check must re-evaluate rather than trust the stored score.
        wrong = CandidateRecord(
            key=key0,
            ordinal=0,
            searcher="random",
            fingerprint=records[key1].genome.fingerprint,
            genome=records[key1].genome,
            objective=10_000,
            completed=False,
            completion_round=None,
            rounds=0,
            engine="reference",
        )
        with open(path, "a", encoding="utf-8") as f:
            f.write(json.dumps(wrong.to_dict(), sort_keys=True) + "\n")
        resumed = run_search(
            CELL, searcher="random", budget=self.budget(4), seed=5,
            results_path=path,
        )
        assert resumed.executed == 1
        assert resumed.health.rejected_records == 0
        assert resumed.best.objective < 10_000

    def test_torn_lines_counted_and_healed(self, tmp_path):
        path = tmp_path / "search.jsonl"
        path.write_text('{"key": "torn-fragm\n')
        result = run_search(
            CELL, searcher="random", budget=self.budget(4), seed=0,
            results_path=str(path),
        )
        assert result.health.skipped_lines == 1
        assert load_candidates(str(path))[1].skipped_lines == 1

    def test_cell_built_and_compiled_once(self):
        telemetry = RecordingTelemetry()
        with use(telemetry):
            run_search(
                CELL, searcher="random", budget=self.budget(), verify=True
            )
        assert telemetry.spans["graph_build"].count == 1
        assert telemetry.spans["topology_compile"].count == 1

    def test_greedy_construction_emits_no_engine_telemetry(self):
        """Only scored runs reach the sink: one ``engine_run`` per
        executed evaluation (cell engine) plus the replay
        certification's two reference runs, and the ``engine.*``
        counters are theirs alone — constructing a greedy candidate
        folds nothing."""
        cell = SearchSettings(
            algorithm="harmonic",
            graph_kind="clique-bridge",
            n=9,
            collision_rule="CR4",
        )
        telemetry = RecordingTelemetry()
        with use(telemetry):
            result = run_search(
                cell,
                searcher="greedy",
                budget=SearchBudget(evaluations=4, batch_size=2),
                seed=0,
                verify=True,
            )
        runs = [e for e in telemetry.events if e["kind"] == "engine_run"]
        assert result.executed == 4
        assert [e["engine"] for e in runs] == ["fast"] * 4 + ["reference"] * 2
        assert telemetry.counters["engine.rounds"] == sum(
            e["rounds"] for e in runs
        )

    def test_unknown_searcher_rejected(self):
        with pytest.raises(ValueError, match="unknown searcher"):
            run_search(CELL, searcher="nope", budget=self.budget())

    def test_register_searcher_duplicate_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_searcher("random", object)

    def test_ask_only_searcher_plugs_in(self):
        """A registered searcher needs only ``ask``: the harness keeps
        the best candidate itself (first of equal objectives)."""
        pool = [
            make_space(CELL).random(random.Random(f"pool{i}"))
            for i in range(5)
        ]
        objectives = [
            EvaluationContext(CELL).evaluate(g).objective for g in pool
        ]
        first_best = objectives.index(max(objectives))
        pool.append(pool[first_best])  # a tie in the second batch

        class PoolSearch(RandomRestartSearch):
            def ask(self, rng, count):
                taken, pool[:count] = pool[:count], []
                return taken

        register_searcher("test-pool", PoolSearch)
        try:
            result = run_search(
                CELL, searcher="test-pool", budget=self.budget(6)
            )
        finally:
            del SEARCHERS._factories["test-pool"]
            del SEARCHERS._descriptions["test-pool"]
        assert result.best.objective == max(objectives)
        assert result.best_ordinal == first_best

    def test_short_batch_rejected(self):
        class ShortSearch(RandomRestartSearch):
            def ask(self, rng, count):
                return super().ask(rng, count - 1)

        register_searcher("test-short", ShortSearch)
        try:
            with pytest.raises(
                RuntimeError, match=r"returned 3 candidates for ask\(4\)"
            ):
                run_search(CELL, searcher="test-short", budget=self.budget())
        finally:
            del SEARCHERS._factories["test-short"]
            del SEARCHERS._descriptions["test-short"]

    def test_progress_after_every_batch(self):
        seen = []
        result = run_search(
            CELL, searcher="random", budget=self.budget(10), seed=2,
            progress=lambda best, done, total: seen.append(
                (done, total, best.objective)
            ),
        )
        assert [(done, total) for done, total, _ in seen] == [
            (4, 10), (8, 10), (10, 10)
        ]
        objectives = [objective for _, _, objective in seen]
        assert objectives == sorted(objectives)
        assert objectives[-1] == result.best.objective

    def test_searcher_kinds(self):
        assert {"random", "greedy"} <= set(searcher_kinds())


class TestSearchers:
    """The two built-in searchers' ``ask`` streams."""

    def test_random_asks_independent_space_samples(self):
        space = make_space(CELL)
        asked = RandomRestartSearch(space, CELL).ask(random.Random(3), 4)
        rng = random.Random(3)
        assert asked == [space.random(rng) for _ in range(4)]

    def test_random_draws_pinned(self):
        """``GenomeSpace.random``'s coins, pinned on a gnp n = 20 CR4
        cell: changing any draw (target subsets, delivery rate, CR4
        genes, proc shuffle) moves these fingerprints and the best
        candidate of a random search."""
        cell = SearchSettings(
            algorithm="round_robin",
            graph_kind="gnp",
            n=20,
            collision_rule="CR4",
        )
        space = make_space(cell)
        rng = random.Random(3)
        assert [space.random(rng).fingerprint for _ in range(4)] == [
            "e67c740b", "79ffb48e", "de33b645", "028568e6",
        ]
        result = run_search(
            cell,
            searcher="random",
            budget=SearchBudget(evaluations=8, batch_size=4),
            seed=0,
        )
        best = result.best
        assert (best.genome.fingerprint, best.objective) == ("1a9aa58c", 37)
        assert result.best_ordinal == 2

    def test_greedy_proc_plans(self):
        """Identity, then reversal, then rng-drawn permutations."""
        space = make_space(CELL)
        procs = [
            g.proc
            for g in GreedyLookaheadSearch(space, CELL).ask(
                random.Random(0), 3
            )
        ]
        n = CELL.n
        assert procs[:2] == [tuple(range(n)), tuple(reversed(range(n)))]
        assert sorted(procs[2]) == list(range(n))

    def test_greedy_without_proc_search_keeps_identity(self):
        full = make_space(CELL)
        space = GenomeSpace(
            full.topology, horizon=full.horizon, search_proc=False
        )
        genomes = GreedyLookaheadSearch(space, CELL).ask(
            random.Random(0), 3
        )
        assert {g.proc for g in genomes} == {tuple(range(CELL.n))}


class TestShardedSearchCampaign:
    """A search persisted to a sharded campaign directory."""

    def search(self, root, seed=3):
        return run_search(
            CELL, searcher="random",
            budget=SearchBudget(evaluations=8, batch_size=4), seed=seed,
            results_path=str(root), store="sharded",
        )

    def test_rerun_resumes_every_candidate(self, tmp_path):
        root = tmp_path / "camp"
        first = self.search(root)
        assert (first.executed, first.resumed) == (8, 0)
        assert (root / "manifest.json").exists()
        again = self.search(root)
        assert (again.executed, again.resumed) == (0, 8)
        assert again.best == first.best

    def test_other_search_seed_is_refused(self, tmp_path):
        root = tmp_path / "camp"
        self.search(root)
        with pytest.raises(StoreMismatchError):
            self.search(root, seed=4)

    def test_torn_shard_line_is_counted(self, tmp_path):
        root = tmp_path / "camp"
        self.search(root)
        shard = sorted(root.glob("shard-*.jsonl"))[0]
        with open(shard, "a", encoding="utf-8") as f:
            f.write('{"key": "torn-fragm')
        again = self.search(root)
        assert again.health.skipped_lines == 1
        assert (again.executed, again.resumed) == (0, 8)


class TestReplayCertification:
    """The acceptance contract: reported objective == replayed reality."""

    def test_best_genome_replays_bit_exactly(self):
        result = run_search(
            CELL, searcher="random", budget=SearchBudget(evaluations=6),
            seed=4, verify=True,
        )
        assert result.replay_verified is True
        # Independently: running the best genome on the reference
        # engine, then replaying its recorded trace through a strict
        # ReplayAdversary, reproduces the reported round count.
        ctx = EvaluationContext(CELL)
        trace, _ = ctx.run_genome(
            result.best.genome, engine="reference",
            record_receptions=True,
        )
        assert trace.completion_round == result.best.completion_round
        processes = make_processes("round_robin", ctx.graph.n)
        replay = build_engine(
            ctx.graph,
            processes,
            ReplayAdversary(trace, strict=True),
            EngineConfig(
                collision_rule=CollisionRule.CR1,
                start_mode=StartMode.SYNCHRONOUS,
                max_rounds=ctx.round_cap,
                seed=CELL.derived_seed,
            ),
        ).run()
        assert replay.completion_round == trace.completion_round
        assert replay.informed_round == trace.informed_round

    def test_cr4_gene_genome_verifies(self):
        cr4_cell = SearchSettings(
            algorithm="harmonic",
            graph_kind="clique-bridge",
            n=10,
            collision_rule="CR4",
            start_mode="asynchronous",
        )
        result = run_search(
            cr4_cell, searcher="random",
            budget=SearchBudget(evaluations=4), seed=2, verify=True,
        )
        assert result.replay_verified is True


class TestGreedyVsTheorem2:
    """Search should rediscover (a constant factor of) Theorem 2.

    The exact numbers for larger sizes live in docs/SEARCH.md; here the
    assertion is deliberately loose — the greedy searcher must at least
    match the scripted adversary family's measured stall, which it does
    comfortably (the run is deterministic for the fixed seed).
    """

    def test_greedy_matches_scripted_construction(self):
        cell = SearchSettings(
            algorithm="round_robin", graph_kind="clique-bridge", n=12
        )
        result = run_search(
            cell,
            searcher="greedy",
            budget=SearchBudget(evaluations=3, batch_size=3),
            seed=0,
            verify=True,
        )
        assert result.replay_verified is True
        comparison = theorem2_comparison(result)
        assert comparison.scripted_worst is not None
        # THEOREM2 reads the found strategy as reaching its bound, and
        # the executable scripted worst case is cleared too.
        assert comparison.verdict == THEOREM2.holds
        assert comparison.search_best >= comparison.scripted_worst
        assert comparison.ratio >= 1.0

    def test_scripted_driver_runs_the_registered_algorithm(
        self, monkeypatch
    ):
        from repro.search import compare

        called = []

        def spy(name, n, **params):
            called.append(name)
            return make_processes(name, n, **params)

        monkeypatch.setattr(compare, "make_processes", spy)
        cell = SearchSettings(
            algorithm="strong_select_ks", graph_kind="clique-bridge", n=9
        )
        result = run_search(
            cell, searcher="random", budget=SearchBudget(evaluations=2),
            seed=0,
        )
        comparison = theorem2_comparison(result)
        assert comparison.scripted_worst is not None
        assert set(called) == {"strong_select_ks"}

    def test_theorem2_scope_is_defined_once(self):
        from repro.analysis import claims
        from repro.lowerbounds import theorem2
        from repro.search import compare

        for module in (claims, compare):
            assert module.THEOREM2_GRAPHS is theorem2.THEOREM2_GRAPHS
        assert (
            claims.DETERMINISTIC_ALGORITHMS
            is theorem2.DETERMINISTIC_ALGORITHMS
        )
        # The comparison takes the algorithm scope from THEOREM2.covers.
        assert not hasattr(compare, "DETERMINISTIC_ALGORITHMS")

    def test_greedy_interference_genome_pinned(self):
        """The greedy searcher's collision candidate is the
        GreedyInterferer's own move; a pinned randomized cell whose
        best genome commits that move must keep its exact genes."""
        cell = SearchSettings(
            algorithm="harmonic",
            graph_kind="clique-bridge",
            n=9,
            algorithm_params={"T": 2},
            seed=1,
        )
        result = run_search(
            cell,
            searcher="greedy",
            budget=SearchBudget(evaluations=2, batch_size=2),
            seed=0,
        )
        best = result.best
        assert (best.objective, result.best_ordinal) == (15, 1)
        assert best.genome.deliveries == (
            (2, ((0, (8,)),)),
            (3, ((2, (8,)),)),
        )
        assert best.genome.proc == tuple(reversed(range(9)))
        assert best.genome.fingerprint == "45b506aa"

    def test_greedy_deterministic(self):
        cell = SearchSettings(
            algorithm="round_robin", graph_kind="clique-bridge", n=10
        )
        budget = SearchBudget(evaluations=2, batch_size=2)
        a = run_search(cell, searcher="greedy", budget=budget, seed=1)
        b = run_search(cell, searcher="greedy", budget=budget, seed=1)
        assert a.best == b.best

    def test_greedy_lookahead_matches_engine_for_randomized(self):
        """The sandbox simulation mirrors the engine's RNG streams, so
        greedy genomes score exactly what construction predicted even
        for randomized algorithms (here: lookahead-built deliveries
        remain legal and replay-certify)."""
        cell = SearchSettings(
            algorithm="harmonic",
            graph_kind="clique-bridge",
            n=9,
            collision_rule="CR4",
            start_mode="asynchronous",
        )
        result = run_search(
            cell,
            searcher="greedy",
            budget=SearchBudget(evaluations=2, batch_size=2),
            seed=0,
            verify=True,
        )
        assert result.replay_verified is True


class TestMakeSpace:
    def test_cr4_cell_gets_cr4_genes(self):
        assert make_space(
            SearchSettings(
                algorithm="round_robin",
                graph_kind="clique-bridge",
                n=8,
                collision_rule="CR4",
            )
        ).cr4_genes
        assert not make_space(CELL).cr4_genes

    def test_horizon_defaults_to_round_cap(self):
        settings = SearchSettings(
            algorithm="round_robin",
            graph_kind="clique-bridge",
            n=8,
            max_rounds=17,
        )
        assert make_space(settings).horizon == 17


class TestBudget:
    def test_validation(self):
        with pytest.raises(ValueError, match="evaluation"):
            SearchBudget(evaluations=0)
        with pytest.raises(ValueError, match="batch_size"):
            SearchBudget(evaluations=4, batch_size=0)
