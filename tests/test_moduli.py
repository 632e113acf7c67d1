import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from agf import (
    Member,
    ParameterError,
    besov_seminorm,
    interval_curve_1d,
    interval_modulus_1d,
    lp_norm,
    make_grid_function,
    modulus_axioms_check,
    modulus_curve,
    partial_modulus,
    shift_difference_norm,
    shift_norm_integral,
    steklov_axis_derivative,
    steklov_derivative_norm,
    steklov_distance,
    steklov_distances,
    steklov_mean,
    verify_isotropic_estimate,
    verify_rearrangement_modulus,
)
from agf.experiments import EMBEDDING_POINTS
from agf.moduli import _steklov_weights


def shift_norm_oracle_1d(values, c, h, p, halfspace=False):
    """Exact integral of |f(x+h)-f(x)|^p via explicit interval overlap."""
    n = values.size

    def f(x):
        i = int(np.floor(x / c))
        return values[i] if 0 <= i < n else 0.0

    lo = 0.0 if halfspace else -h - c
    edges = sorted({i * c for i in range(-2, n + 2)}
                   | {i * c - h for i in range(-2, n + 2)})
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        if b <= lo or a < lo < b:
            if b <= lo:
                continue
            a = lo
        mid = (a + b) / 2
        total += abs(f(mid + h) - f(mid)) ** p * (b - a)
    return total


@given(arrays(np.float64, st.integers(1, 10), elements=st.floats(0, 5, allow_nan=False)),
       st.floats(0.01, 6), st.sampled_from([1.0, 2.0]), st.booleans())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_shift_norm_matches_overlap_oracle(vals, h, p, halfspace):
    c = 0.5
    f = make_grid_function(vals, c, halfspace=halfspace)
    got = shift_difference_norm(f, 0, h, p) ** p
    want = shift_norm_oracle_1d(vals, c, h, p, halfspace)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_shift_norm_2d_axis_sections():
    rng = np.random.default_rng(7)
    vals = rng.uniform(0, 3, size=(4, 5))
    f = make_grid_function(vals, (0.5, 0.25))
    for h in [0.1, 0.25, 0.6, 1.3]:
        want = sum(shift_norm_oracle_1d(vals[:, j], 0.5, h, 2.0) for j in range(5)) * 0.25
        got = shift_difference_norm(f, 0, h, 2.0) ** 2
        assert got == pytest.approx(want, rel=1e-9)


def test_modulus_curve_is_running_sup():
    rng = np.random.default_rng(13)
    vals = rng.uniform(0, 2, size=9)
    f = make_grid_function(vals, 0.25)
    curve = modulus_curve(f, 0, 1.0)
    # the sup over h <= d of a piecewise-linear profile is attained at a
    # profile node or at d itself, so include the cell-size lattice in the grid
    hs = np.unique(np.concatenate([np.linspace(1e-4, 3.0, 400),
                                   np.arange(1, 13) * 0.25]))
    norms = np.array([shift_difference_norm(f, 0, h, 1.0) for h in hs])
    for i, d in enumerate(hs):
        want = norms[: i + 1].max()
        assert float(curve(d)) == pytest.approx(want, rel=1e-9)


def test_partial_modulus_monotone_and_subadditive_sampled():
    rng = np.random.default_rng(21)
    f = make_grid_function(rng.uniform(0, 1, size=(6, 6)), (0.5, 0.5))
    for k in range(2):
        ds = [0.1, 0.3, 0.5, 0.9, 1.7]
        oms = [partial_modulus(f, k, d, 1.5) for d in ds]
        assert all(b >= a - 1e-12 for a, b in zip(oms, oms[1:]))


def test_shift_norm_integral_against_riemann():
    rng = np.random.default_rng(2)
    f = make_grid_function(rng.uniform(0, 2, size=7), 0.3)
    delta = 1.1
    hs = np.linspace(0, delta, 20000, endpoint=False) + delta / 40000
    riemann = float(np.mean([shift_difference_norm(f, 0, h, 2.0) for h in hs])) * delta
    assert shift_norm_integral(f, 0, delta, 2.0) == pytest.approx(riemann, rel=1e-5)


def test_interval_modulus_matches_definition():
    vals = np.array([1.0, 0.0, 2.0, 2.0])
    c = 0.25
    f = make_grid_function(vals, c)

    def interval_shift(h, p):
        xs = np.linspace(0, 1 - h, 200000, endpoint=False) + (1 - h) / 400000
        idx = np.clip((xs / c).astype(int), 0, 3)
        idx_h = np.clip(((xs + h) / c).astype(int), 0, 3)
        return float(np.mean(np.abs(vals[idx_h] - vals[idx]) ** p)) * (1 - h)

    for delta in [0.25, 0.4, 0.5]:
        hs = np.linspace(1e-4, delta, 60)
        want = max(interval_shift(h, 1.0) for h in hs)
        assert interval_modulus_1d(f, delta, 1.0) == pytest.approx(want, rel=1e-3)


def test_steklov_weights_sum_to_window():
    for h, c in [(0.7, 0.25), (0.5, 0.5), (1.3, 0.4)]:
        w = _steklov_weights(h, c)
        assert float(np.sum(w)) == pytest.approx(h, rel=1e-12)


def test_steklov_mean_of_constant_is_constant():
    f = make_grid_function(np.full((4, 4), 2.5), (0.5, 0.5))
    fh = steklov_mean(f, 0.75, 0)
    inner = fh.values[2:4, :]  # rows fully inside the original support window
    np.testing.assert_allclose(inner, 2.5, rtol=1e-12)


def test_steklov_contractions_hold():
    rng = np.random.default_rng(17)
    f = make_grid_function(rng.uniform(0, 3, size=(5, 7)), (0.4, 0.3))
    for j in range(2):
        for h in [0.15, 0.4, 0.8, 1.6]:
            omega = partial_modulus(f, j, h, 2.0)
            assert steklov_distance(f, h, j, 2.0) <= omega * (1 + 1e-9)
            assert steklov_derivative_norm(f, h, j, 2.0) <= omega / h * (1 + 1e-9)


def test_steklov_axis_derivative_cell_aligned_only():
    f = make_grid_function([1.0, 3.0, 0.0], 0.5)
    g = steklov_axis_derivative(f, 0.5, 0)
    # |f(x + h) - f(x)| / h with zero extension on both sides
    np.testing.assert_allclose(g.values, [2.0, 4.0, 6.0, 0.0])
    assert lp_norm(g, 1.0) == pytest.approx(shift_difference_norm(f, 0, 0.5, 1.0) / 0.5)
    with pytest.raises(ParameterError):
        steklov_axis_derivative(f, 0.3, 0)


def test_mean_integral_bound_constant_three():
    rng = np.random.default_rng(9)
    for _ in range(20):
        f = make_grid_function(rng.uniform(0, 1, size=8), 0.25)
        for d in [0.1, 0.25, 0.5, 1.0, 2.0]:
            omega = partial_modulus(f, 0, d, 1.0)
            bound = 3.0 / d * shift_norm_integral(f, 0, d, 1.0)
            assert omega <= bound * (1 + 1e-9)


def test_modulus_axioms_on_sampled_tent():
    x = (np.arange(32) + 0.5) / 32
    vals = np.minimum(x, 1 - x)
    f = make_grid_function(vals, 1 / 32)
    report = modulus_axioms_check(modulus_curve(f, 0, 1.0))
    assert report.all_passed, "\n".join(report.lines())


def test_crossing_onto_the_end_node_adds_no_repeated_node():
    # on segment [2, 3] the running max is crossed one ulp before the end node 3
    f = make_grid_function([3.0, 0.0, 4.0, 0.0, 5.0], (1.0,))
    assert modulus_curve(f, 0, 1.5).deltas.tolist() == [0.0, 1.0, 3.0, 5.0]
    for p, beta_js, theta_js in EMBEDDING_POINTS:
        curve = modulus_curve(f, 0, p)
        assert np.all(np.diff(curve.deltas) > 0)
        for beta, theta in zip(beta_js, theta_js):
            assert np.isfinite(besov_seminorm(curve, beta, theta))


@given(st.integers(1, 2).flatmap(
           lambda n: arrays(np.float64, st.lists(st.integers(1, 6), min_size=n, max_size=n)
                            .map(tuple), elements=st.integers(0, 6).map(float))),
       st.sampled_from([0.5, 1.0, 0.3]), st.sampled_from([1.0, 1.5, 2.0]))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_curve_deltas_increase_strictly(vals, c, p):
    f = make_grid_function(vals, (c,) * vals.ndim)
    curves = [modulus_curve(f, k, p) for k in range(f.dims)]
    if f.dims == 1:
        curves.append(interval_curve_1d(f, p))
    for curve in curves:
        assert curve.deltas[0] == 0.0
        assert np.all(np.diff(curve.deltas) > 0)


@pytest.mark.parametrize("p", [0.5, 0.0, -1.0, math.nan])
def test_interval_modulus_rejects_p_below_one(p):
    # as modulus_curve does; the 1-D verifier path reads the interval curve
    f = make_grid_function([1.0, 3.0, 0.0, 2.0], 0.25)
    with pytest.raises(ParameterError):
        interval_curve_1d(f, p)
    with pytest.raises(ParameterError):
        interval_modulus_1d(f, 0.25, p)
    with pytest.raises(ParameterError):
        verify_rearrangement_modulus(Member(f), p, [0.25])


_NAN_SHIFT_CALLS = {
    "partial_modulus": lambda f, h: partial_modulus(f, 0, h, 1.0),
    "steklov_distances": lambda f, h: steklov_distances(f, modulus_curve(f, 0, 1.0), [0.5, h]),
    "steklov_mean": lambda f, h: steklov_mean(f, h, 0),
    "steklov_axis_derivative": lambda f, h: steklov_axis_derivative(f, h, 0),
    "steklov_derivative_norm": lambda f, h: steklov_derivative_norm(f, h, 0, 1.0),
    "verify_isotropic_estimate": lambda f, h: verify_isotropic_estimate(Member(f), 1.0, h),
}


@pytest.mark.parametrize("name", sorted(_NAN_SHIFT_CALLS))
def test_a_nan_shift_raises(name):
    f = make_grid_function([1.0, 3.0, 0.0, 2.0], 0.5)
    with pytest.raises(ParameterError):
        _NAN_SHIFT_CALLS[name](f, math.nan)
