"""Monte-Carlo sampler: geometry, statistics, seeding discipline."""

import numpy as np
import pytest

from repro.transistor import ptm90
from repro.variation import LayoutStyle, VariationModel


@pytest.fixture(scope="module")
def model():
    return VariationModel(tech=ptm90(), n_ros=64, n_stages=5)


class TestGeometryValidation:
    def test_needs_two_ros(self):
        with pytest.raises(ValueError):
            VariationModel(tech=ptm90(), n_ros=1, n_stages=5)

    def test_even_stage_count_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            VariationModel(tech=ptm90(), n_ros=8, n_stages=4)

    def test_tiny_ring_rejected(self):
        with pytest.raises(ValueError):
            VariationModel(tech=ptm90(), n_ros=8, n_stages=1)


class TestSampling:
    def test_chip_shape(self, model):
        chip = model.sample_chip(rng=0)
        assert chip.vth.shape == (64, 5, 2)
        assert chip.positions.shape == (64, 2)
        assert chip.tc_scale.shape == (64, 5, 2)

    def test_seeded_reproducibility(self, model):
        a = model.sample_chip(rng=7)
        b = model.sample_chip(rng=7)
        assert np.array_equal(a.vth, b.vth)

    def test_thresholds_near_nominal(self, model):
        chip = model.sample_chip(rng=0)
        tech = ptm90()
        assert abs(chip.vth.mean() - tech.vth_n) < 0.03
        assert np.all(chip.vth > 0.05)

    def test_device_mismatch_magnitude(self, model):
        """Per-device spread should be dominated by sigma_intra_die."""
        chip = model.sample_chip(rng=0)
        var = ptm90().variation
        # remove per-RO common modes, keep white mismatch
        white = chip.vth - chip.vth.mean(axis=(1, 2), keepdims=True)
        expected = var.sigma_intra_die * np.sqrt(1 - var.correlated_fraction)
        assert white.std() == pytest.approx(expected, rel=0.15)

    def test_tc_scale_centred_on_one(self, model):
        chip = model.sample_chip(rng=0)
        assert chip.tc_scale.mean() == pytest.approx(1.0, abs=0.01)


class TestLayoutStyles:
    def test_symmetric_layout_reduces_cross_chip_correlation(self):
        """The systematic component makes conventional chips look alike;
        the ARO's symmetric layout must remove that common structure."""

        def cross_chip_corr(layout):
            model = VariationModel(
                tech=ptm90(), n_ros=64, n_stages=5, layout=layout
            )
            chips = [model.sample_chip(rng=i) for i in range(40)]
            # per-RO mean threshold, de-meaned per chip: the across-chip
            # mean profile reveals the shared systematic component
            profiles = np.stack(
                [c.vth.mean(axis=(1, 2)) - c.vth.mean() for c in chips]
            )
            mean_profile = profiles.mean(axis=0)
            return float(np.std(mean_profile))

        conv = cross_chip_corr(LayoutStyle.CONVENTIONAL)
        aro = cross_chip_corr(LayoutStyle.SYMMETRIC)
        assert aro < 0.35 * conv


class TestPopulation:
    def test_population_size_and_ids(self, model):
        pop = model.sample_population(5, rng=1)
        assert len(pop) == 5
        assert [c.chip_id for c in pop] == list(range(5))

    def test_chips_are_independent(self, model):
        pop = model.sample_population(3, rng=1)
        assert not np.array_equal(pop[0].vth, pop[1].vth)

    def test_prefix_stability(self, model):
        """Growing the population must not change the earlier chips."""
        small = model.sample_population(2, rng=9)
        large = model.sample_population(4, rng=9)
        assert np.array_equal(small[0].vth, large[0].vth)
        assert np.array_equal(small[1].vth, large[1].vth)

    def test_rejects_nonpositive_count(self, model):
        with pytest.raises(ValueError):
            model.sample_population(0)


class TestRowReplay:
    """sample_rows fills rows with exactly the bytes sample_chip draws."""

    KEYS = [11, 12, 13]

    def _rows(self, model):
        return np.empty((len(self.KEYS), model.n_ros, model.n_stages, 2))

    @pytest.mark.parametrize("layout", list(LayoutStyle))
    def test_rows_equal_sample_chip(self, layout):
        model = VariationModel(tech=ptm90(), n_ros=64, n_stages=5, layout=layout)
        vth, tc = self._rows(model), self._rows(model)
        model.sample_rows(self.KEYS, vth, tc)
        for i, key in enumerate(self.KEYS):
            chip = model.sample_chip(key)
            assert np.array_equal(vth[i], chip.vth)
            assert np.array_equal(tc[i], chip.tc_scale)

    def test_single_column_calls_replay_the_same_draws(self, model):
        vth, tc = self._rows(model), self._rows(model)
        model.sample_rows(self.KEYS, vth=vth)
        model.sample_rows(self.KEYS, tc_scale=tc)
        for i, key in enumerate(self.KEYS):
            chip = model.sample_chip(key)
            assert np.array_equal(vth[i], chip.vth)
            assert np.array_equal(tc[i], chip.tc_scale)

    def test_nonpositive_threshold_rejected(self):
        from dataclasses import replace

        model = VariationModel(tech=replace(ptm90(), vth_n=0.0), n_ros=8, n_stages=3)
        with pytest.raises(ValueError, match="positive"):
            model.sample_chip(1)
        with pytest.raises(ValueError, match="positive"):
            model.sample_rows([1], vth=np.empty((1, 8, 3, 2)))

    def test_stream_count_must_match_rows(self, model):
        with pytest.raises(ValueError, match="streams"):
            model.sample_rows(self.KEYS[:2], vth=self._rows(model))
