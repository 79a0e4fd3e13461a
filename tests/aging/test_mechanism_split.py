"""PopulationAging.delta_components: the exact NBTI/HCI split."""

import numpy as np
import pytest

from repro.core import aro_design, conventional_design, make_batch_study

SEED = 20140324


@pytest.fixture(scope="module", params=["ro-puf", "aro-puf"])
def aging(request):
    design = (
        conventional_design(n_ros=8, n_stages=5)
        if request.param == "ro-puf"
        else aro_design(n_ros=8, n_stages=5)
    )
    return make_batch_study(design, n_chips=4, rng=SEED).aging


class TestDeltaComponents:
    def test_sum_is_bit_identical_to_delta(self, aging):
        """The forensics attribution contract: no reconciliation residual."""
        for t in (0.5, 5.0, 10.0):
            bti, hci = aging.delta_components(t)
            assert np.array_equal(bti + hci, aging.delta(t))

    def test_shapes_match_delta(self, aging):
        bti, hci = aging.delta_components(10.0)
        assert bti.shape == aging.delta(10.0).shape
        assert hci.shape == bti.shape

    def test_components_nonnegative(self, aging):
        bti, hci = aging.delta_components(10.0)
        assert np.all(bti >= 0)
        assert np.all(hci >= 0)

    def test_zero_years_is_zero(self, aging):
        bti, hci = aging.delta_components(0.0)
        assert not bti.any()
        assert not hci.any()

    def test_negative_time_rejected(self, aging):
        with pytest.raises(ValueError):
            aging.delta_components(-1.0)

    def test_does_not_pollute_delta_memo(self, aging):
        before = aging._memo.get(3.25)
        aging.delta_components(3.25)
        assert aging._memo.get(3.25) is before
