"""The ESS estimator against series whose effective sample size is known."""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from ess import autocovariance, chain_ess, effective_sample_size  # noqa: E402


def ar1(phi, n, seed):
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = eps[0] / math.sqrt(1.0 - phi * phi)
    for t in range(1, n):
        x[t] = phi * x[t - 1] + eps[t]
    return x


def test_autocovariance_matches_direct_sum():
    x = np.random.default_rng(0).standard_normal(50)
    y = x - x.mean()
    direct = [np.dot(y[:len(y) - k], y[k:]) / len(y) for k in range(len(y))]
    assert np.allclose(autocovariance(x), direct, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("phi", [0.5, 0.9])
def test_ar1_matches_closed_form(phi):
    n = 200_000
    expected = n * (1.0 - phi) / (1.0 + phi)
    assert effective_sample_size(ar1(phi, n, seed=1)) == pytest.approx(expected, rel=0.05)


def test_iid_series_has_ess_near_n():
    n = 100_000
    x = np.random.default_rng(2).standard_normal(n)
    assert effective_sample_size(x) == pytest.approx(n, rel=0.05)


def test_constant_series_is_nan():
    assert math.isnan(effective_sample_size(np.full(10, 3.0)))


def test_chain_ess_skips_pinned_coordinates():
    n = 20_000
    moving = ar1(0.5, n, seed=3)
    slower = ar1(0.9, n, seed=4)
    chain = np.column_stack([moving, np.full(n, 4.0), slower])
    assert chain_ess(chain) == pytest.approx(effective_sample_size(slower))
    assert chain_ess(np.full((n, 2), 4.0)) == 0.0
