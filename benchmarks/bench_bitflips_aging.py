"""E2 — response bit flips vs years (paper headline figure).

Regenerates the bits-flipped-over-time series whose 10-year endpoints are
the abstract's headline: **32 % for the conventional RO-PUF vs 7.7 % for
the ARO-PUF**.  The benchmarked kernel is one full golden-response
evaluation of a 256-RO chip (frequencies + pairing + comparison).
"""

import pytest

from _common import emit
from repro.analysis import DEFAULT_YEARS, ExperimentConfig, aging_bitflips
from repro.analysis.render import render_e2
from repro.core import conventional_design, make_batch_study

PAPER_CONV_10Y = 32.0
PAPER_ARO_10Y = 7.7


@pytest.fixture(scope="module")
def result():
    res = aging_bitflips(ExperimentConfig(), years=DEFAULT_YEARS)
    emit("e2_bitflips_aging", render_e2(res))
    return res


class TestTable:
    def test_conventional_matches_paper_band(self, result):
        assert result.at_ten_years()["ro-puf"] == pytest.approx(
            PAPER_CONV_10Y, abs=4.0
        )

    def test_aro_matches_paper_band(self, result):
        assert result.at_ten_years()["aro-puf"] == pytest.approx(
            PAPER_ARO_10Y, abs=2.0
        )

    def test_flip_curves_monotone(self, result):
        for series in result.series.values():
            assert series.y == sorted(series.y)

    def test_improvement_factor_matches_paper_shape(self, result):
        """The paper's ~4.2x flip-rate improvement, within a loose band."""
        final = result.at_ten_years()
        assert 2.5 < final["ro-puf"] / final["aro-puf"] < 7.0


class TestPerf:
    def test_perf_population_aged_responses(self, benchmark, result):
        """Hot kernel: all 50 chips' aged golden responses in one batched
        pass (memos cleared per round so every round does the real work)."""
        study = make_batch_study(conventional_design(), n_chips=50, rng=0)

        def kernel():
            study.drop_cached_corners()
            study.aging._memo.clear()
            return study.responses(t_years=10.0)

        bits = benchmark(kernel)
        assert bits.shape == (50, 128)
