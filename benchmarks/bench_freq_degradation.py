"""E1 — RO frequency degradation vs years in the field (paper Fig.,
degradation curves).

Regenerates the mean fractional frequency-loss series for the
conventional RO-PUF and the ARO-PUF over a 10-year mission, the curve
behind the paper's aging discussion.  The benchmarked kernel is the
per-chip aging evaluation (threshold-shift computation + re-timing of
every oscillator), the inner loop of every aging experiment.
"""

import pytest

from _common import emit
from repro.analysis import DEFAULT_YEARS, ExperimentConfig, frequency_degradation
from repro.analysis.render import render_e1
from repro.core import conventional_design, make_batch_study


@pytest.fixture(scope="module")
def result():
    res = frequency_degradation(ExperimentConfig(), years=DEFAULT_YEARS)
    emit("e1_freq_degradation", render_e1(res))
    return res


class TestTable:
    def test_both_designs_degrade_monotonically(self, result):
        for series in result.series.values():
            assert series.y == sorted(series.y)

    def test_conventional_degrades_percent_scale(self, result):
        assert 1.0 < result.series["ro-puf"].y_at(10.0) < 6.0

    def test_aro_degrades_far_less(self, result):
        assert (
            result.series["aro-puf"].y_at(10.0)
            < 0.35 * result.series["ro-puf"].y_at(10.0)
        )


class TestPerf:
    def test_perf_population_aged_retiming(self, benchmark, result):
        """Hot kernel: age the whole 50-chip population 10 years and
        re-time all 12 800 oscillators in one batched pass (memos cleared
        per round so every round does the real work)."""
        study = make_batch_study(conventional_design(), n_chips=50, rng=0)

        def kernel():
            study.drop_cached_corners()
            study.aging._memo.clear()
            return study.frequencies(t_years=10.0)

        freqs = benchmark(kernel)
        assert freqs.shape == (50, 256)
