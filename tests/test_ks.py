"""The KS statistic against N(0, 1): exact erfc only near the maximum deviation."""

import math

import numpy as np
import pytest

from oracles import ks_normal_exact
from specvar.ks import _AS_ERROR, _normal_cdf_approx, ks_normal


def test_normal_cdf_approx_within_its_bound():
    x = np.linspace(-12.0, 12.0, 240_001)
    exact = np.array([0.5 * math.erfc(v) for v in (-x / math.sqrt(2.0)).tolist()])
    assert np.max(np.abs(_normal_cdf_approx(x) - exact)) <= _AS_ERROR / 2


@pytest.mark.parametrize("n", [10, 1_000, 100_000])
@pytest.mark.parametrize("shift", [0.0, 3.0])
@pytest.mark.parametrize("decimals", [None, 1])
def test_ks_normal_matches_exact_erfc_everywhere(n, shift, decimals):
    # bit for bit, on shifted samples and on samples rounded into ties
    x = np.random.default_rng(n).standard_normal(n) + shift / math.sqrt(n)
    if decimals is not None:
        x = np.round(x, decimals)
    assert ks_normal(x) == ks_normal_exact(x)
