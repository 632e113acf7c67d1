import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from agf import (
    PreconditionError,
    axis_rearrangement,
    decreasing_rearrangement,
    distribution,
    dyadic_decrement,
    is_mdec,
    iterated_rearrangement,
    make_grid_function,
    strict_order,
    strictify,
)


def brute_force_rearrangement_value(f, t):
    """sup over all cell sets E of measure t of the min of f on E."""
    flat = f.values.ravel()
    v = f.cell_volume
    k = round(t / v)
    best = 0.0
    for combo in itertools.combinations(range(flat.size), k):
        best = max(best, min(flat[i] for i in combo))
    return best


def test_matches_sup_inf_definition_small_grids():
    rng = np.random.default_rng(11)
    for shape in [(4,), (9,), (3, 3), (2, 4), (2, 2, 2)]:
        vals = rng.uniform(0, 5, size=shape)
        f = make_grid_function(vals, [0.5] * len(shape))
        sf = decreasing_rearrangement(f)
        v = f.cell_volume
        for k in range(1, vals.size + 1):
            assert float(sf(k * v)) == pytest.approx(
                brute_force_rearrangement_value(f, k * v), abs=1e-12)


@given(arrays(np.float64, st.sampled_from([(6,), (3, 4), (2, 2, 3)]),
              elements=st.floats(0, 10, allow_nan=False)))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_equimeasurable(vals):
    f = make_grid_function(vals, [0.5] * vals.ndim)
    sf = decreasing_rearrangement(f)
    for y in np.unique(vals):
        measure = distribution(f, y) if y >= 0 else None
        # step-function distribution: length where sf > y
        step_measure = float(np.sum(
            (sf.breakpoints - np.concatenate([[0.0], sf.breakpoints[:-1]]))[sf.values > y]))
        assert step_measure == pytest.approx(measure, abs=1e-12)


def test_axis_rearrangement_sorts_sections():
    vals = np.array([[1.0, 3.0], [2.0, 0.0]])
    f = make_grid_function(vals, (1.0, 1.0), origin=(-1.0, 5.0))
    g = axis_rearrangement(f, 0)
    np.testing.assert_array_equal(g.values, [[2.0, 3.0], [1.0, 0.0]])
    assert g.origin[0] == 0.0
    assert g.origin[1] == 5.0
    assert g.halfspace


def test_iterated_rearrangement_is_mdec():
    rng = np.random.default_rng(5)
    f = make_grid_function(rng.uniform(size=(5, 6)), (0.5, 0.25))
    for order in [(0, 1), (1, 0)]:
        g = iterated_rearrangement(f, order)
        assert is_mdec(g)
        assert g.halfspace
        assert g.origin == (0.0, 0.0)
        # equimeasurable with f
        assert np.array_equal(np.sort(g.values.ravel()), np.sort(f.values.ravel()))


def test_strict_order_deterministic_ties():
    f = make_grid_function([[2.0, 2.0], [1.0, 2.0]], (1.0, 1.0))
    order = strict_order(f)
    np.testing.assert_array_equal(order, [0, 1, 3, 2])


def test_strictify_preserves_order_support_and_monotonicity():
    vals = np.array([[3.0, 3.0, 1.0], [3.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    f = make_grid_function(vals, (1.0, 1.0), halfspace=True)
    g = strictify(f)
    assert is_mdec(g)
    assert np.count_nonzero(g.values) == np.count_nonzero(vals)
    flat = g.values.ravel()
    pos = flat[flat > 0]
    assert np.unique(pos).size == pos.size  # strictly ordered positive cells
    # distinct original values keep their relative order
    assert flat[strict_order(f)[0]] == flat.max()


def test_strictify_counts_zero_among_the_levels():
    # no cell is 0 and the gap 1 -> 100 is wide: the jitter must stay below 1/2
    f = make_grid_function([[100.0, 1.0]], (1.0, 1.0))
    g = strictify(f)
    assert np.all(g.values > 0) and is_mdec(g)
    np.testing.assert_array_equal(strict_order(g), strict_order(f))
    assert np.all(np.abs(g.values - f.values) < 0.5)


def test_strictify_requires_monotone():
    f = make_grid_function([1.0, 2.0], 1.0)
    with pytest.raises(PreconditionError):
        strictify(f)


def test_dyadic_decrement_identity():
    f = make_grid_function([4.0, 3.0, 1.0, 0.5], 0.5)
    sf = decreasing_rearrangement(f)
    phi = dyadic_decrement(sf)
    for t in [0.1, 0.25, 0.5, 0.7, 1.0, 1.3, 1.9, 2.5]:
        assert float(phi(t)) == pytest.approx(float(sf(t)) - float(sf(2 * t)), abs=1e-12)
    # telescoping: sum of phi(2^j t) recovers sf(t)
    t = 0.3
    total = sum(float(phi(2.0**j * t)) for j in range(12))
    assert total == pytest.approx(float(sf(t)), abs=1e-12)
