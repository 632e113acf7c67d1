import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from agf import (GridFunction, ParameterError, ValidationError, load_agf, lp_norm,
                 make_grid_function, save_agf)
from agf.grid import load_cells_csv


def test_basic_properties():
    f = make_grid_function([[1.0, 2.0], [3.0, 0.0]], (0.5, 0.25))
    assert f.dims == 2
    assert f.shape == (2, 2)
    assert f.cell_volume == pytest.approx(0.125)
    assert f.support_cells == 3
    assert f.support_measure == pytest.approx(3 * 0.125)
    assert f.extent == (1.0, 0.5)
    assert f.origin == (0.0, 0.0)


def test_validation_rejects_bad_input():
    with pytest.raises(ValidationError):
        make_grid_function([[-1.0, 0.0]], (1.0, 1.0))
    with pytest.raises(ValidationError):
        make_grid_function([np.nan], (1.0,))
    with pytest.raises(ValidationError):
        make_grid_function([1.0], (0.0,))
    with pytest.raises(ValidationError):
        GridFunction(np.ones((2, 2)), (1.0,), (0.0, 0.0))


def test_values_are_read_only():
    f = make_grid_function([1.0, 2.0], 1.0)
    with pytest.raises(ValueError):
        f.values[0] = 5.0


def test_lp_norm_known_values():
    f = make_grid_function([1.0, 1.0, 1.0, 1.0], 0.25)
    assert lp_norm(f, 1) == pytest.approx(1.0)
    assert lp_norm(f, 2) == pytest.approx(1.0)
    g = make_grid_function([2.0, 0.0], 0.5)
    assert lp_norm(g, 2) == pytest.approx((4.0 * 0.5) ** 0.5)


@pytest.mark.parametrize("p", [0.5, math.nan])
def test_lp_norm_rejects_a_bad_p(p):
    with pytest.raises(ParameterError, match="p must be >= 1"):
        lp_norm(make_grid_function([1.0, 2.0], 0.5), p)


@given(arrays(np.float64, st.integers(1, 30),
              elements=st.floats(0, 10, allow_nan=False)))
@settings(max_examples=50, deadline=None, derandomize=True)
def test_lp_norm_permutation_invariant(vals):
    f = make_grid_function(vals, 0.5)
    g = make_grid_function(np.sort(vals), 0.5)
    assert lp_norm(f, 2) == pytest.approx(lp_norm(g, 2), rel=1e-12, abs=1e-12)


def test_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    f = make_grid_function(rng.uniform(size=(3, 4, 2)), (0.5, 0.25, 1.0), origin=(0, 1, 2))
    path = tmp_path / "f.agf"
    save_agf(f, path)
    g = load_agf(path)
    assert g.shape == f.shape
    assert g.cell_sizes == f.cell_sizes
    assert g.origin == f.origin
    np.testing.assert_array_equal(g.values, f.values)
    # identical bytes when saved twice
    path2 = tmp_path / "g.agf"
    save_agf(g, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_load_agf_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.agf"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValidationError):
        load_agf(path)


def test_load_cells_csv(tmp_path):
    path = tmp_path / "cells.csv"
    path.write_text("# comment\n0,0,1.5\n1,2,2.5\n")
    f = load_cells_csv(path, (2, 3), (1.0, 1.0))
    assert f.values[0, 0] == 1.5
    assert f.values[1, 2] == 2.5
    assert f.values[0, 1] == 0.0
