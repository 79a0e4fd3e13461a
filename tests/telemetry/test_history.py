"""Ledger history: sparklines, median+MAD baselines, drift flags."""

import pytest

from repro.telemetry import (
    LedgerEntry,
    RunManifest,
    history_rows,
    render_history,
    sparkline,
)
from repro.telemetry.history import SPARK_BLOCKS, metric_series


@pytest.fixture(scope="module")
def manifest():
    return RunManifest.collect(seed=5, config={"n_chips": 4})


def entries_for(series, manifest, experiment="e2", key="flips"):
    return [
        LedgerEntry.collect(experiment, {key: v}, manifest) for v in series
    ]


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_monotone_ramp_uses_full_range(self):
        s = sparkline([1.0, 2.0, 3.0, 4.0])
        assert s[0] == SPARK_BLOCKS[0]
        assert s[-1] == SPARK_BLOCKS[-1]
        assert len(s) == 4

    def test_flat_series_renders_mid_block(self):
        assert sparkline([5.0, 5.0, 5.0]) == SPARK_BLOCKS[3] * 3

    def test_single_value(self):
        assert sparkline([1.0]) == SPARK_BLOCKS[3]


class TestMetricSeries:
    def test_chronological_per_metric(self, manifest):
        entries = entries_for([1.0, 2.0, 3.0], manifest)
        entries += entries_for([9.0], manifest, experiment="e3", key="uniq")
        series = metric_series(entries)
        assert series == {"e2.flips": [1.0, 2.0, 3.0], "e3.uniq": [9.0]}


class TestHistoryRows:
    def test_window_truncates_old_values(self, manifest):
        entries = entries_for([100.0, 10.0, 10.0, 10.0], manifest)
        (row,) = history_rows(entries, window=2)
        assert row.baseline == pytest.approx(10.0)  # the 100 falls outside

    def test_single_value_has_no_baseline(self, manifest):
        (row,) = history_rows(entries_for([5.0], manifest))
        assert row.baseline is None and row.change is None and not row.drift

    def test_within_threshold_not_drift(self, manifest):
        entries = entries_for([10.0, 10.0, 10.5], manifest)
        (row,) = history_rows(entries, threshold=0.10)
        assert not row.drift

    def test_metric_substring_filter(self, manifest):
        entries = entries_for([1.0], manifest) + entries_for(
            [2.0], manifest, experiment="e3", key="uniq"
        )
        rows = history_rows(entries, metrics=["e3"])
        assert [r.metric for r in rows] == ["e3.uniq"]

    def test_last_truncates_series(self, manifest):
        entries = entries_for([1.0, 2.0, 3.0, 4.0], manifest)
        (row,) = history_rows(entries, last=2)
        assert row.values == (3.0, 4.0)
        assert row.n_runs == 2

    def test_parameter_validation(self, manifest):
        entries = entries_for([1.0], manifest)
        with pytest.raises(ValueError, match="window"):
            history_rows(entries, window=0)
        with pytest.raises(ValueError, match="threshold"):
            history_rows(entries, threshold=0.0)


class TestRenderHistory:
    def test_empty_ledger(self):
        assert render_history([]) == "(empty ledger)"

    def test_no_matching_metrics(self, manifest):
        text = render_history(entries_for([1.0], manifest), metrics=["nope"])
        assert "no matching metrics" in text

    def test_header_counts_runs_and_experiments(self, manifest):
        entries = entries_for([1.0, 2.0], manifest) + entries_for(
            [3.0], manifest, experiment="e3", key="uniq"
        )
        header = render_history(entries).splitlines()[0]
        assert "3 entries" in header
        assert "e2, e3" in header

    def test_quiet_ledger_reports_no_drift(self, manifest):
        text = render_history(entries_for([10.0, 10.0], manifest))
        assert "no drift" in text


class TestRobustHistory:
    """history_rows: median+MAD verdicts are the drift flag."""

    QUIET = [100.0, 100.5, 99.5, 100.2, 99.8, 100.1]

    def test_short_series_stays_in_warmup(self, manifest):
        entries = entries_for([10.0, 20.0, 30.0], manifest)
        (row,) = history_rows(entries, window=5)
        assert row.verdict == "warmup"
        assert not row.drift
        assert row.baseline is None

    def test_outlier_history_does_not_fake_drift(self, manifest):
        """One wild run in history does not fire the flag — the whole
        point of the median+MAD discipline."""
        series = self.QUIET + [300.0, 100.2]
        (robust,) = history_rows(
            entries_for(series, manifest),
            window=len(series) - 1,
        )
        assert robust.verdict == "stable"
        assert not robust.drift

    def test_real_movement_still_flags(self, manifest):
        entries = entries_for(self.QUIET + [80.0], manifest)
        (row,) = history_rows(entries, window=6)
        assert row.verdict == "down"
        assert row.drift
        assert row.baseline == pytest.approx(100.05)  # trailing median

    def test_render_robust_warmup_and_footer(self, manifest):
        text = render_history(entries_for([1.0, 2.0], manifest))
        assert "(warmup)" in text
        assert "<< drift" not in text
        assert "median+MAD noise band" in text

    def test_render_robust_movement_labels_median(self, manifest):
        text = render_history(
            entries_for(self.QUIET + [80.0], manifest), window=6
        )
        assert "vs median" in text
        assert "<< drift" in text
        assert "1 metric(s) moved beyond their median+MAD noise band" in text


class TestSparklineDegenerateRanges:
    """The monitor's RSS row feeds arbitrary series in; every degenerate
    range must render (never divide by zero or index out of band)."""

    def test_negative_flat_series_is_mid_scale(self):
        assert sparkline([-3.0, -3.0]) == SPARK_BLOCKS[3] * 2

    def test_tiny_range_stays_in_band(self):
        s = sparkline([1.0, 1.0 + 1e-15, 1.0])
        assert len(s) == 3
        assert set(s) <= set(SPARK_BLOCKS)

    def test_extreme_range_endpoints(self):
        s = sparkline([1e-9, 1e9])
        assert s[0] == SPARK_BLOCKS[0]
        assert s[-1] == SPARK_BLOCKS[-1]

    def test_monotone_ramp_is_nondecreasing(self):
        s = sparkline([0.0, 1.0, 2.0, 3.0, 4.0])
        ranks = [SPARK_BLOCKS.index(ch) for ch in s]
        assert ranks == sorted(ranks)
