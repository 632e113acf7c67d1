import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agf import StepFunction, ValidationError, step_from_pieces


def _quad(fun, a, b, n=200_000):
    x = np.linspace(a, b, n, endpoint=False) + (b - a) / (2 * n)
    return float(np.sum(fun(x))) * (b - a) / n


def test_left_continuous_evaluation():
    sf = StepFunction(np.array([1.0, 2.0]), np.array([3.0, 1.0]))
    assert sf(0.5) == 3.0
    assert sf(1.0) == 3.0  # value on (0, 1]
    assert sf(1.0001) == 1.0
    assert sf(2.0) == 1.0
    assert sf(2.0001) == 0.0
    assert sf(0.0) == 0.0
    np.testing.assert_array_equal(sf([0.5, 1.5, 3.0]), [3.0, 1.0, 0.0])


def test_validation():
    with pytest.raises(ValidationError):
        StepFunction(np.array([1.0, 1.0]), np.array([2.0, 1.0]))
    with pytest.raises(ValidationError):
        StepFunction(np.array([0.0]), np.array([1.0]))
    with pytest.raises(ValidationError):
        StepFunction(np.array([1.0]), np.array([-1.0]))


def test_power_integral_against_quadrature():
    sf = StepFunction(np.array([0.5, 1.25, 3.0]), np.array([2.0, 1.5, 0.25]))
    for a, r in [(1.0, 1.0), (0.5, 2.0), (2.0, 1.5), (1.5, 3.0)]:
        exact = sf.power_integral(a, r)
        # substitute t = s^2 so the weight stays bounded near zero
        approx = _quad(
            lambda s: 2.0 * s ** (2.0 * a - 1.0) * np.asarray(sf(s**2)) ** r,
            0.0, np.sqrt(3.0))
        assert exact == pytest.approx(approx, rel=1e-3)


def test_power_integral_divergence():
    sf = StepFunction(np.array([1.0]), np.array([2.0]))
    assert sf.power_integral(-0.5, 1.0) == math.inf
    # vanishing first step: log form converges
    sf2 = StepFunction(np.array([1.0, 2.0]), np.array([0.0, 3.0]))
    assert sf2.power_integral(0.0, 1.0) == pytest.approx(3.0 * math.log(2.0))


def test_window_power_integral():
    sf = StepFunction(np.array([1.0, 2.0]), np.array([3.0, 1.0]))
    assert sf.window_power_integral(0.0, 3.0, 1.0) == pytest.approx(4.0)
    assert sf.window_power_integral(0.5, 1.5, 2.0) == pytest.approx(9.0 * 0.5 + 1.0 * 0.5)
    assert sf.window_power_integral(2.5, 4.0, 1.0) == 0.0


def test_weighted_sup():
    sf = StepFunction(np.array([1.0, 4.0]), np.array([2.0, 1.5]))
    # attained at right endpoints: max(2*1^a, 1.5*4^a)
    assert sf.weighted_sup(0.5) == pytest.approx(3.0)
    assert sf.weighted_sup(0.0) == pytest.approx(2.0)


def test_step_from_pieces_merges_and_trims():
    sf = step_from_pieces([1.0, 2.0, 3.0, 4.0], [2.0, 2.0, 1.0, 0.0])
    np.testing.assert_array_equal(sf.breakpoints, [2.0, 3.0])
    np.testing.assert_array_equal(sf.values, [2.0, 1.0])


@given(st.lists(st.floats(0.01, 10), min_size=1, max_size=8),
       st.floats(0.1, 3), st.floats(1, 3))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_power_integral_positive_and_monotone_in_values(vals, a, r):
    bp = np.cumsum(np.full(len(vals), 0.5))
    sf = StepFunction(bp, np.array(vals))
    bigger = StepFunction(bp, np.array(vals) * 2.0)
    assert sf.power_integral(a, r) >= 0
    assert bigger.power_integral(a, r) >= sf.power_integral(a, r)
