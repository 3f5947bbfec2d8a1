"""Tests for the repro.store result-storage subsystem.

Covers the backend differential contract (same sweep through every
backend yields identical records and summaries), resume-by-key under
interruption, torn-line healing, merge idempotence, StoreHealth
accounting, the validator hook, RunningSummary equivalence, and the
streaming ``repro report`` path.
"""

import dataclasses
import json
import math
import os
import random

import pytest

from repro.analysis.claims import CLAIMS, Observation
from repro.analysis.report import CampaignReport
from repro.analysis.stats import RunningSummary, summarize
from repro.core.harmonic import completion_bound, default_T
from repro.core.strong_select import build_schedule
from repro.experiments import ExperimentSpec, run_sweep
from repro.experiments.results import RunResult
from repro.search import SearchBudget, SearchSettings, run_search
from repro.store import (
    JsonlStore,
    RawRecord,
    STORE_BACKENDS,
    ShardedStore,
    StoreHealth,
    StoreMismatchError,
    detect_backend,
    merge_store,
    open_store,
    read_manifest,
    shard_index,
)


def tiny_spec(**overrides) -> ExperimentSpec:
    base = dict(
        name="tiny",
        algorithms=["round_robin"],
        graphs=[("line", 6), ("line", 10)],
        adversaries=["none"],
        seeds=range(2),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def assert_summary_close(a, b):
    assert a.count == b.count
    for name in (
        "mean",
        "median",
        "stdev",
        "minimum",
        "maximum",
        "ci95_half_width",
    ):
        assert math.isclose(
            getattr(a, name),
            getattr(b, name),
            rel_tol=1e-9,
            abs_tol=1e-9,
        ), name


def make_record(i: int, completion: int = None, sends: int = 0) -> RunResult:
    if completion is None:
        completion = 5 + (i % 7)
    return RunResult(
        key=f"syn/round_robin/line:n8/none/CR1-synchronous/s{i}",
        sweep="syn",
        algorithm="round_robin",
        graph_kind="line",
        n=8,
        graph_n=8,
        adversary_kind="none",
        collision_rule="CR1",
        start_mode="synchronous",
        seed=i,
        completed=True,
        completion_round=completion,
        rounds=completion,
        total_transmissions=sends or completion,
        engine="reference",
    )


BACKENDS = ["jsonl", "sharded"]


def open_backend(backend, tmp_path, name="store", **kwargs):
    path = str(tmp_path / (name if backend != "jsonl" else name + ".jsonl"))
    return open_store(path, RunResult.from_dict, backend=backend, **kwargs)


class TestStoreHealth:
    def test_clean_health_warns_nothing(self):
        assert StoreHealth().warning("r.jsonl") is None
        assert StoreHealth().issues == 0

    def test_warning_text_unified(self):
        health = StoreHealth(skipped_lines=2, rejected_records=1)
        text = health.warning("r.jsonl", noun="candidate")
        assert "2 unparsable line(s)" in text
        assert "1 validator-rejected record(s)" in text
        assert "candidates were re-run" in text


class TestBackendRoundTrip:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_round_trip_preserves_records(self, backend, tmp_path):
        records = [make_record(i) for i in range(20)]
        with open_backend(backend, tmp_path) as store:
            for record in records:
                store.append(record)
        reopened = open_backend(backend, tmp_path)
        claimed = reopened.claim_keys()
        assert claimed == {r.key: r for r in records}
        streamed = sorted(reopened.iter_records(), key=lambda r: r.key)
        assert streamed == sorted(records, key=lambda r: r.key)
        assert reopened.health.issues == 0
        reopened.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_later_duplicate_key_wins(self, backend, tmp_path):
        with open_backend(backend, tmp_path) as store:
            store.append(make_record(0, completion=5))
            store.append(make_record(0, completion=9))
        reopened = open_backend(backend, tmp_path)
        claimed = reopened.claim_keys()
        assert len(claimed) == 1
        assert next(iter(claimed.values())).completion_round == 9
        reopened.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_validator_rejects_and_counts(self, backend, tmp_path):
        with open_backend(backend, tmp_path) as store:
            for i in range(4):
                store.append(make_record(i))
        reopened = open_backend(
            backend,
            tmp_path,
            validator=lambda r: r.seed != 2,
        )
        claimed = reopened.claim_keys()
        assert len(claimed) == 3
        assert reopened.health.rejected_records == 1
        assert "1 validator-rejected record(s)" in (
            reopened.health.warning("store")
        )
        reopened.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_manifest_describes_store(self, backend, tmp_path):
        with open_backend(backend, tmp_path) as store:
            for i in range(6):
                store.append(make_record(i))
            store.flush()
            manifest = store.manifest()
        assert manifest["backend"] == backend
        count = manifest.get("records", manifest.get("appended"))
        assert count == 6


class TestSweepDifferential:
    """The same sweep produces identical contents on every backend."""

    def test_all_backends_agree(self, tmp_path):
        spec = tiny_spec(seeds=range(3))
        claims = {}
        summaries = {}
        for backend in BACKENDS:
            path = str(
                tmp_path / ("camp-" + backend)
                if backend != "jsonl"
                else tmp_path / "camp.jsonl"
            )
            result = run_sweep(spec, results_path=path, store=backend)
            assert result.executed == spec.size
            assert result.health.issues == 0
            store = open_store(
                path, RunResult.from_dict, backend=backend
            )
            claims[backend] = store.claim_keys()
            summaries[backend] = {
                key: record.to_dict()
                for key, record in claims[backend].items()
            }
            store.close()
        assert summaries["jsonl"] == summaries["sharded"]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_interrupt_resumes_only_missing(self, backend, tmp_path):
        spec = tiny_spec(seeds=range(3))
        path = str(
            tmp_path / "camp.jsonl"
            if backend == "jsonl"
            else tmp_path / "camp"
        )
        # Simulate a mid-campaign interrupt: persist half the tasks.
        tasks = spec.tasks()
        half = tasks[: len(tasks) // 2]
        with open_store(
            path, RunResult.from_dict, backend=backend
        ) as store:
            partial = run_sweep(spec)
            by_key = {r.key: r for r in partial.records}
            for task in half:
                store.append(by_key[task.key])
        resumed = run_sweep(spec, results_path=path, store=backend)
        assert resumed.resumed == len(half)
        assert resumed.executed == spec.size - len(half)
        assert {r.key for r in resumed.records} == {
            t.key for t in tasks
        }
        # A second run resumes everything.
        again = run_sweep(spec, results_path=path, store=backend)
        assert again.executed == 0
        assert again.resumed == spec.size

    def test_worker_count_does_not_change_sharded_layout(self, tmp_path):
        spec = tiny_spec(seeds=range(2))
        layouts = []
        for workers, name in ((1, "w1"), (2, "w2")):
            root = tmp_path / name
            run_sweep(
                spec,
                workers=workers,
                results_path=str(root),
                store="sharded",
            )
            manifest = read_manifest(str(root))
            shard_keys = {}
            for shard in manifest["shard_files"]:
                with open(root / shard, encoding="utf-8") as f:
                    shard_keys[shard] = sorted(
                        json.loads(line)["key"] for line in f
                    )
            layouts.append(shard_keys)
        assert layouts[0] == layouts[1]

    def test_repeated_sharded_sweep_is_byte_identical(self, tmp_path):
        # The same campaign run twice writes the same bytes: no wall
        # clock or entropy read may reach a manifest, a shard or a
        # results file.  Covers a sweep, a greedy search and a random
        # search, each into fresh JSONL files and sharded directories.
        spec = tiny_spec(seeds=range(2))
        cell = SearchSettings(
            algorithm="round_robin",
            graph_kind="clique-bridge",
            n=9,
            collision_rule="CR4",
        )
        budget = SearchBudget(evaluations=4, batch_size=2)

        def write(campaign, path, backend):
            if campaign == "sweep":
                run_sweep(spec, workers=1, results_path=path, store=backend)
            else:
                run_search(
                    cell, searcher=campaign, budget=budget, seed=0,
                    results_path=path, store=backend,
                )

        for campaign in ("sweep", "greedy", "random"):
            for backend in BACKENDS:
                roots = [
                    tmp_path / campaign / backend / run
                    for run in ("first", "second")
                ]
                for root in roots:
                    root.mkdir(parents=True)
                    target = root / (
                        "results.jsonl" if backend == "jsonl" else "camp"
                    )
                    write(campaign, str(target), backend)
                files = [
                    sorted(
                        str(p.relative_to(root))
                        for p in root.rglob("*")
                        if p.is_file()
                    )
                    for root in roots
                ]
                label = f"{campaign}/{backend}"
                assert files[0] == files[1], label
                if backend == "sharded":
                    assert "camp/manifest.json" in files[0], label
                for name in files[0]:
                    first, second = (root / name for root in roots)
                    assert first.read_bytes() == second.read_bytes(), (
                        f"{label}: {name}"
                    )

    def test_shard_index_is_pure_key_hash(self):
        assert shard_index("a/key", 8) == shard_index("a/key", 8)
        spread = {shard_index(f"k{i}", 8) for i in range(256)}
        assert len(spread) > 1


class TestTornLines:
    def test_jsonl_store_heals_torn_tail(self, tmp_path):
        path = tmp_path / "r.jsonl"
        good = make_record(0)
        path.write_text(
            json.dumps(good.to_dict(), sort_keys=True)
            + "\n"
            + '{"key": "torn-fragm'
        )
        store = JsonlStore(str(path), RunResult.from_dict)
        claimed = store.claim_keys()
        assert list(claimed) == [good.key]
        assert store.health.skipped_lines == 1
        store.append(make_record(1))
        store.close()
        # The torn tail got its newline before the append landed.
        reopened = JsonlStore(str(path), RunResult.from_dict)
        assert len(reopened.claim_keys()) == 2
        assert reopened.health.skipped_lines == 1
        reopened.close()

    def test_sharded_store_counts_torn_shard_lines(self, tmp_path):
        root = tmp_path / "camp"
        with ShardedStore(
            str(root), RunResult.from_dict, shards=2
        ) as store:
            for i in range(4):
                store.append(make_record(i))
        # Tear the final line of one shard.
        manifest = read_manifest(str(root))
        victim = root / next(iter(manifest["shard_files"]))
        victim.write_bytes(victim.read_bytes()[:-20])
        reopened = ShardedStore(str(root), RunResult.from_dict)
        claimed = reopened.claim_keys()
        assert reopened.health.skipped_lines == 1
        assert len(claimed) == 3
        reopened.close()


class TestMerge:
    def test_merge_is_idempotent_and_resumable(self, tmp_path):
        spec = tiny_spec(seeds=range(2))
        root = str(tmp_path / "camp")
        run_sweep(spec, results_path=root, store="sharded")
        out = str(tmp_path / "merged.jsonl")
        source = open_store(root, RawRecord, backend="sharded")
        count = merge_store(source, out)
        first = open(out, "rb").read()
        count_again = merge_store(source, out)
        second = open(out, "rb").read()
        source.close()
        assert count == count_again == spec.size
        assert first == second  # byte-identical re-merge
        # Keys come out sorted, one JSON document per line.
        keys = [
            json.loads(line)["key"]
            for line in first.decode().splitlines()
        ]
        assert keys == sorted(keys)
        # The merged file is a fully resumable single-file ledger.
        resumed = run_sweep(spec, results_path=out)
        assert resumed.executed == 0
        assert resumed.resumed == spec.size

    def test_merge_overlays_existing_output(self, tmp_path):
        out = str(tmp_path / "all.jsonl")
        with JsonlStore(out, RunResult.from_dict) as dest:
            dest.append(make_record(0, completion=5))
        src_root = str(tmp_path / "camp")
        with ShardedStore(src_root, RunResult.from_dict) as src:
            src.append(make_record(0, completion=9))
            src.append(make_record(1))
        source = open_store(src_root, RawRecord, backend="sharded")
        count = merge_store(source, out)
        source.close()
        assert count == 2
        merged = JsonlStore(out, RunResult.from_dict).claim_keys()
        assert merged[make_record(0).key].completion_round == 9


class TestFingerprints:
    def test_sharded_rejects_foreign_fingerprint(self, tmp_path):
        root = str(tmp_path / "camp")
        with ShardedStore(
            str(root),
            RunResult.from_dict,
            fingerprint="aaaa",
        ) as store:
            store.append(make_record(0))
        ShardedStore(
            str(root), RunResult.from_dict, fingerprint="aaaa"
        ).close()
        with pytest.raises(StoreMismatchError):
            ShardedStore(
                str(root), RunResult.from_dict, fingerprint="bbbb"
            )

    def test_detect_backend(self, tmp_path):
        assert detect_backend(str(tmp_path / "r.jsonl")) == "jsonl"
        assert detect_backend(str(tmp_path / "camp") + os.sep) == (
            "sharded"
        )
        root = str(tmp_path / "camp")
        with ShardedStore(root, RunResult.from_dict) as store:
            store.append(make_record(0))
        assert detect_backend(root) == "sharded"

    def test_columnar_campaign_refused(self, tmp_path):
        """The removed columnar backend's directories fail loudly."""
        root = tmp_path / "camp"
        root.mkdir()
        (root / "manifest.json").write_text(
            json.dumps(
                {"backend": "columnar", "format": "repro-store/columnar-v1"}
            )
        )
        with pytest.raises(ValueError, match="columnar-v1"):
            open_store(str(root), RunResult.from_dict)
        assert "columnar" not in STORE_BACKENDS


class TestFlushPolicy:
    def test_sharded_buffers_until_flush_every(self, tmp_path):
        root = tmp_path / "camp"
        store = ShardedStore(
            str(root),
            RunResult.from_dict,
            shards=1,
            flush_every=100,
        )
        for i in range(5):
            store.append(make_record(i))
        shard = root / "shard-0000.jsonl"
        buffered = (
            len(shard.read_text().splitlines())
            if shard.exists()
            else 0
        )
        store.flush()
        assert len(shard.read_text().splitlines()) == 5
        assert buffered < 5  # flush_every really deferred durability
        store.close()

    def test_flush_every_validated(self, tmp_path):
        with pytest.raises(ValueError):
            ShardedStore(
                str(tmp_path / "camp"),
                RunResult.from_dict,
                flush_every=0,
            )


class TestRunningSummary:
    def test_matches_batch_summarize(self):
        rng = random.Random(7)
        values = [rng.randint(1, 40) for _ in range(500)]
        running = RunningSummary().update(values)
        batch = summarize(values)
        assert running.count == batch.count
        assert math.isclose(running.mean, batch.mean)
        assert math.isclose(running.stdev, batch.stdev)
        assert math.isclose(
            running.ci95_half_width, batch.ci95_half_width
        )
        assert running.median() == batch.median
        assert_summary_close(running.summary(), batch)

    def test_empty_summary_raises(self):
        with pytest.raises(ValueError):
            RunningSummary().summary()

    def test_singleton(self):
        running = RunningSummary().update([4.0])
        assert running.stdev == 0.0
        assert running.ci95_half_width == 0.0
        assert running.median() == 4.0


class TestCampaignReport:
    def test_streaming_report_matches_records(self, tmp_path):
        spec = tiny_spec(seeds=range(4))
        root = str(tmp_path / "camp")
        result = run_sweep(spec, results_path=root, store="sharded")
        store = open_store(root, RunResult.from_dict)
        report = CampaignReport.from_store(store)
        store.close()
        assert report.records == spec.size
        by_cell = {}
        for record in result.records:
            by_cell.setdefault(
                (record.graph_kind, record.graph_n), []
            ).append(record.completion_round)
        for key, cell in report.cells.items():
            assert key == cell.key
            want = summarize(by_cell[(cell.graph_kind, cell.n)])
            assert_summary_close(cell.completion.summary(), want)
        rendered = report.render(title="t")
        assert "completion rounds" in rendered
        payload = report.to_dict()
        assert payload["records"] == spec.size

    def test_large_campaign_streams(self, tmp_path):
        # 10_000 synthetic records through a sharded store, then a
        # streaming report — exercising the acceptance-scale path
        # without holding the record list in memory anywhere.
        root = str(tmp_path / "big")
        with ShardedStore(
            str(root), RunResult.from_dict, flush_every=512
        ) as store:
            for i in range(10_000):
                store.append(make_record(i))
        store = ShardedStore(str(root), RunResult.from_dict)
        report = CampaignReport.from_store(store)
        store.close()
        assert report.records == 10_000
        cell = next(iter(report.cells.values()))
        want = summarize([5 + (i % 7) for i in range(10_000)])
        assert_summary_close(cell.completion.summary(), want)

    def test_paper_reference_bounds(self):
        def claim_of(algorithm, graph_kind, n, harmonic_T=None):
            observation = Observation(
                algorithm, graph_kind, n, None, harmonic_T=harmonic_T
            )
            claims = [c for c in CLAIMS if c.covers(observation)]
            if not claims:
                return None
            (claim,) = claims
            return (
                claim.bound(observation),
                lambda worst: claim.verdict(
                    dataclasses.replace(observation, worst=worst)
                ),
            )

        label, check = claim_of("round_robin", "clique-bridge", 9)
        assert label == f"worst case > {9 - 3} (Thm 2)"
        assert check(7.0) == "reached"
        assert check(6.0) == "not reached"
        assert claim_of("round_robin", "line", 8) is None
        label, check = claim_of("strong_select", "line", 8)
        assert "Thm 10" in label
        bound = build_schedule(8).round_bound()
        assert label == f"completes ≤ {bound} (Thm 10)"
        assert check(bound) == "holds"
        assert check(bound + 1) == "VIOLATED"
        # T=3 is below the paper's T = default_T(8) = 53: Theorem 18's
        # hypothesis does not hold, so the cell is out of its scope.
        label, check = claim_of("harmonic", "line", 8, harmonic_T=3)
        assert "Thm 18" in label
        bound = completion_bound(8, 3)
        assert label == f"completes ≤ {bound} whp (Thm 18)"
        assert check(1) == "outside Thm 18 scope"
        assert check(bound + 1) == "outside Thm 18 scope"
        label, check = claim_of(
            "harmonic", "line", 8, harmonic_T=default_T(8)
        )
        bound = completion_bound(8, default_T(8))
        assert label == f"completes ≤ {bound} whp (Thm 18)"
        assert check(bound) == "within"
        assert check(bound + 1) == "exceeded"

    def test_bare_harmonic_is_judged_at_the_built_size(self):
        # grid n=17 builds a 4 x 4 grid: every bound uses graph_n = 16.
        # A bare ``harmonic`` cell runs default_T(16) and gets its row;
        # a cell that sets epsilon but not T gets none.
        spec = tiny_spec(
            algorithms=["harmonic", ("harmonic", {"epsilon": 0.2})],
            graphs=[("grid", 17)],
        )
        report = CampaignReport.from_records(run_sweep(spec).records)
        bare = next(
            c for c in report.cells.values() if "/harmonic/" in c.key
        )
        assert (bare.n, bare.graph_n) == (17, 16)
        assert bare.harmonic_T == default_T(16)
        (row,) = report.reference_rows()
        bound = completion_bound(16, default_T(16))
        assert row[0] == bare.key
        assert row[1] == f"completes ≤ {bound} whp (Thm 18)"
        assert row[3] == "within"

    def test_harmonic_campaign_renders_theorem18_row(self, tmp_path):
        # Task keys spell the plateau length ``harmonic(T=4)``; the
        # report must read it back and render the Theorem 18 row.
        spec = tiny_spec(
            algorithms=[("harmonic", {"T": 4})],
            graphs=[("line", 6)],
            seeds=range(2),
        )
        root = str(tmp_path / "camp")
        run_sweep(spec, results_path=root, store="sharded")
        with open_store(root, RunResult.from_dict) as store:
            report = CampaignReport.from_store(store)
        (cell,) = report.cells.values()
        assert cell.harmonic_T == 4
        (row,) = report.reference_rows()
        assert row[0] == cell.key
        assert row[0].startswith("tiny/harmonic(T=4)/line:n6/none/CR4-")
        assert "Thm 18" in row[1]
        assert "Thm 18" in report.render()

    def test_each_plateau_length_gets_its_own_theorem18_row(self, tmp_path):
        # T=2 and T=4 are separate cells (the cell key carries params),
        # each read against the bound of its own T.
        spec = tiny_spec(
            algorithms=[("harmonic", {"T": 2}), ("harmonic", {"T": 4})],
            graphs=[("line", 6)],
            seeds=range(2),
        )
        root = str(tmp_path / "camp")
        run_sweep(spec, results_path=root, store="sharded")
        with open_store(root, RunResult.from_dict) as store:
            report = CampaignReport.from_store(store)
        assert sorted(c.harmonic_T for c in report.cells.values()) == [2, 4]
        assert all(c.records == 2 for c in report.cells.values())
        bounds = {row[0]: row[1] for row in report.reference_rows()}
        for cell in report.cells.values():
            bound = completion_bound(6, cell.harmonic_T)
            assert bounds[cell.key] == f"completes ≤ {bound} whp (Thm 18)"

    def test_runner_cells_stay_apart(self):
        # Three algorithm entries × two adversaries × two start modes
        # on one graph: 12 runner cells of 4 seeds, never folded.
        spec = ExperimentSpec(
            name="cells",
            algorithms=[
                "round_robin",
                ("harmonic", {"T": 2}),
                ("harmonic", {"T": 8}),
            ],
            graphs=[("clique-bridge", 17)],
            adversaries=["none", "greedy"],
            start_modes=["synchronous", "asynchronous"],
            seeds=range(4),
        )
        result = run_sweep(spec)
        report = CampaignReport.from_records(result.records)
        assert report.records == 48
        assert len(report.cells) == 12
        assert all(c.records == 4 for c in report.cells.values())
        assert set(report.cells) == {t.cell_key for t in spec.tasks()}
        rows = {row[0]: row for row in report.reference_rows()}
        harmonic = [
            c for c in report.cells.values() if c.algorithm == "harmonic"
        ]
        assert len(harmonic) == 8
        for cell in harmonic:
            bound = completion_bound(17, cell.harmonic_T)
            assert rows[cell.key][1] == f"completes ≤ {bound} whp (Thm 18)"
            worst = cell.completion.summary().maximum
            assert rows[cell.key][2].startswith(f"max {worst:.0f},")

    def test_every_deterministic_algorithm_gets_a_theorem2_row(self):
        spec = ExperimentSpec(
            name="thm2",
            algorithms=["strong_select", "strong_select_ks"],
            graphs=[("clique-bridge", 17)],
            adversaries=["greedy"],
            seeds=range(2),
        )
        report = CampaignReport.from_records(run_sweep(spec).records)
        thm2 = [
            row[0].split("/")[1]
            for row in report.reference_rows()
            if "Thm 2)" in row[1]
        ]
        assert thm2 == ["strong_select", "strong_select_ks"]

    def test_to_dict_carries_every_cell_field(self):
        spec = tiny_spec(
            graphs=[("line", 6)],
            churns=["none", ("window", {"count": 1, "start": 2,
                                        "length": 2})],
        )
        doc = CampaignReport.from_records(run_sweep(spec).records).to_dict()
        assert doc["records"] == spec.size
        fields = {
            "cell", "sweep", "algorithm", "graph_kind", "n",
            "collision_rule", "churn_kind", "records", "capped",
            "mean_transmissions", "completion",
        }
        (cell,) = doc["cells"]
        (churned,) = doc["churn_cells"]
        assert set(cell) == set(churned) == fields
        assert cell["churn_kind"] == "none"
        assert churned["churn_kind"] == "window"
        assert churned["cell"] == (
            cell["cell"] + "/churn-window(count=1,length=2,start=2)"
        )
        assert set(cell["completion"]) == {
            "count", "mean", "median", "stdev", "min", "max",
            "ci95_half_width",
        }
