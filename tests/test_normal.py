"""The standard-library normal quantile equals ``scipy.special.ndtri``.

scipy is not a run-time dependency; this module is skipped without it.
"""

import math

import numpy as np
import pytest

from frechetforest._normal import ndtri
from frechetforest.simulate import normal_quantile_grid, quantile_levels

special = pytest.importorskip("scipy.special")


def _assert_bits_equal(values):
    values = np.asarray(values, dtype=float)
    got = np.array([ndtri(v) for v in values.tolist()])
    want = special.ndtri(values)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_midpoint_grids_equal_scipy_bit_for_bit():
    _assert_bits_equal(np.concatenate(
        [quantile_levels(m) for m in range(1, 2002)]))


def test_random_levels_and_tails_equal_scipy_bit_for_bit():
    rng = np.random.default_rng(20240)
    tails = 10.0 ** rng.uniform(-300, 0, size=20_000)
    _assert_bits_equal(rng.uniform(size=200_000))
    _assert_bits_equal(tails)
    _assert_bits_equal(1.0 - 10.0 ** rng.uniform(-16, 0, size=20_000))


def test_edge_values():
    _assert_bits_equal([0.0, 1.0, 5e-324, 1.0 - 2.0 ** -53, 0.5])
    assert ndtri(0.0) == -math.inf and ndtri(1.0) == math.inf
    for bad in (math.nan, -0.1, 1.1):
        assert math.isnan(ndtri(bad))
        assert math.isnan(special.ndtri(bad))


@pytest.mark.parametrize("m", [21, 101])
def test_normal_quantile_grid_is_mu_plus_sigma_ndtri(m):
    z = special.ndtri(quantile_levels(m))
    mu = np.array([-1.5, 0.0, 2.0])
    sigma = np.array([0.3, 1.0, 2.5])
    assert np.array_equal(normal_quantile_grid(mu, sigma, m),
                          mu[:, None] + sigma[:, None] * z)
    assert np.array_equal(normal_quantile_grid(2.0, 3.0, m), 2.0 + 3.0 * z)
