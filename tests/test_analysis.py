"""Tests for statistics, complexity fitting, density accounting, tables."""

import math

import pytest

from repro.analysis import (
    best_fit,
    busy_round_count,
    busy_rounds,
    fit_power_law,
    front_loaded_pattern,
    is_busy,
    probability_mass,
    render_table,
    summarize,
    wakeup_pattern_of,
)
from repro.core.harmonic import busy_round_bound


class TestSummaries:
    def test_summarize_basic(self):
        s = summarize([1, 2, 3, 4, 5])
        assert s.count == 5
        assert s.mean == 3
        assert s.median == 3
        assert s.minimum == 1 and s.maximum == 5

    def test_summarize_singleton(self):
        s = summarize([7.0])
        assert s.stdev == 0.0
        assert s.ci95_half_width == 0.0

    def test_ci_uses_student_t_for_small_samples(self):
        # 5 observations -> df = 4 -> t = 2.776, not the normal 1.96
        # (the z value under-reports small-sample uncertainty by ~40%).
        s = summarize([1, 2, 3, 4, 5])
        import math
        assert s.ci95_half_width == pytest.approx(
            2.776 * s.stdev / math.sqrt(5)
        )
        assert s.ci95_half_width > 1.96 * s.stdev / math.sqrt(5)

    def test_ci_falls_back_to_normal_for_large_samples(self):
        import math
        data = list(range(100))
        s = summarize(data)
        assert s.ci95_half_width == pytest.approx(
            1.96 * s.stdev / math.sqrt(len(data))
        )

    def test_t_critical_values(self):
        from repro.analysis import t_critical_95

        assert t_critical_95(1) == pytest.approx(12.706)
        assert t_critical_95(30) == pytest.approx(2.042)
        assert t_critical_95(31) == 1.96
        # Monotone decreasing towards the normal limit.
        values = [t_critical_95(df) for df in range(1, 40)]
        assert values == sorted(values, reverse=True)
        with pytest.raises(ValueError):
            t_critical_95(0)

    def test_summarize_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_format(self):
        assert "±" in summarize([1, 2, 3]).format()


class TestFitting:
    def test_recovers_pure_power_law(self):
        ns = [16, 32, 64, 128, 256]
        ts = [n**1.5 for n in ns]
        fit = fit_power_law(ns, ts)
        assert fit.exponent == pytest.approx(1.5, abs=0.01)
        assert fit.r_squared > 0.999

    def test_recovers_log_factor(self):
        ns = [16, 32, 64, 128, 256, 512]
        ts = [3 * n * math.log2(n) ** 2 for n in ns]
        fit = best_fit(ns, ts)
        assert fit.exponent == pytest.approx(1.0, abs=0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_power_law([10], [10])
        with pytest.raises(ValueError):
            fit_power_law([1, 2], [0, 1])
        with pytest.raises(ValueError):
            fit_power_law([2, 3], [1])

    def test_format_contains_exponent(self):
        fit = fit_power_law([10, 100], [10, 100])
        assert "n^" in fit.format()


class TestBusyRounds:
    def test_probability_mass_front_loaded(self):
        # All nodes awake at 0, T=2, n=4: P(1) = 4, busy.
        pattern = front_loaded_pattern(4, 2)
        assert probability_mass(pattern, 1, 2) == pytest.approx(4.0)
        assert is_busy(pattern, 1, 2)

    def test_busy_prefix_is_contiguous_for_front_loaded(self):
        pattern = front_loaded_pattern(5, 3)
        rounds = busy_rounds(pattern, 3)
        assert rounds == list(range(1, len(rounds) + 1))

    def test_lemma15_bound_holds_for_front_loaded(self):
        n, T = 8, 3
        count = busy_round_count(front_loaded_pattern(n, T), T)
        assert count <= busy_round_bound(n, T)

    def test_lemma15_bound_holds_for_staggered_patterns(self):
        n, T = 6, 2
        for gap in (1, 3, 7):
            pattern = [i * gap for i in range(n)]
            assert busy_round_count(pattern, T) <= busy_round_bound(n, T)

    def test_rounds_validation(self):
        with pytest.raises(ValueError):
            probability_mass([0], 0, 2)

    def test_wakeup_pattern_extraction(self):
        from repro.graphs import line
        from repro.sim import ScriptedProcess, run_broadcast

        procs = [ScriptedProcess(i, range(1, 50)) for i in range(4)]
        trace = run_broadcast(line(4), procs, max_rounds=20)
        assert wakeup_pattern_of(trace) == [0, 1, 2, 3]


class TestTables:
    def test_render_alignment(self):
        out = render_table(
            ["name", "value"],
            [["alpha", 1], ["b", 22]],
            title="demo",
        )
        lines = out.splitlines()
        assert lines[0] == "demo"
        widths = {len(l) for l in lines[1:]}
        assert len(widths) == 1  # all rows equally wide

    def test_none_renders_dash(self):
        out = render_table(["a"], [[None]])
        assert "—" in out

    def test_row_length_validated(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [[1]])
