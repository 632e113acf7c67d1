import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from agf import (GridFunction, ParameterError, ValidationError, default_corpus, load_agf,
                 lp_norm, make_grid_function, modulus_curve, save_agf)
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


def test_corpus_round_trip_keeps_halfspace_and_the_modulus_bits(tmp_path):
    corpus = default_corpus(20240901)
    assert any(f.halfspace for _, f in corpus) and not all(f.halfspace for _, f in corpus)
    for fid, f in corpus:
        path = tmp_path / f"{fid}.agf"
        save_agf(f, path)
        g = load_agf(path)
        assert g.halfspace == f.halfspace, fid
        assert g.values.tobytes() == f.values.tobytes(), fid
        for k in range(f.dims):
            want, got = modulus_curve(f, k, 1.0), modulus_curve(g, k, 1.0)
            assert got.deltas.tobytes() == want.deltas.tobytes(), fid
            assert got.omega_p.tobytes() == want.omega_p.tobytes(), fid


def _agf_bytes(tmp_path) -> bytes:
    path = tmp_path / "f.agf"
    save_agf(make_grid_function([[1.0, 2.0, 0.5], [0.0, 3.0, 1.0]], (0.5, 0.25)), path)
    return path.read_bytes()


@pytest.mark.parametrize("case, needle", [
    ("agf1", "re-run `agf corpus`"),
    ("empty", "bad magic"),
    ("magic-only", "short header"),
    ("short-header", "short header"),
    ("negative-dims", "short header"),
    ("unknown-flag", "flags"),
    ("short-values", "too few values"),
    ("trailing-bytes", "trailing bytes"),
])
def test_load_agf_rejects_a_malformed_file(tmp_path, case, needle):
    good = _agf_bytes(tmp_path)
    header = 4 + 8 * (1 + 3 * 2)  # magic, n, shape, cell sizes, origin
    data = {"agf1": b"AGF1" + good[4:header] + good[header + 8:],
            "empty": b"",
            "magic-only": good[:4],
            "short-header": good[:header],
            "negative-dims": good[:4] + (-1).to_bytes(8, "little", signed=True) + good[12:],
            "unknown-flag": good[:header] + (2).to_bytes(8, "little") + good[header + 8:],
            "short-values": good[:-8],
            "trailing-bytes": good + b"\x00"}[case]
    path = tmp_path / "bad.agf"
    path.write_bytes(data)
    with pytest.raises(ValidationError, match=re.escape(needle)):
        load_agf(path)


def test_load_cells_csv(tmp_path):
    path = tmp_path / "cells.csv"
    path.write_text("# comment\n0,0,1.5\n1,2,2.5\n")
    f = load_cells_csv(path, (2, 3), (1.0, 1.0))
    assert f.values[0, 0] == 1.5
    assert f.values[1, 2] == 2.5
    assert f.values[0, 1] == 0.0


@pytest.mark.parametrize("row", ["-1,0,2.0", "0,1.0", "0,1,2,1.0", "2,0,1.0", "0,3,1.0",
                                 "a,0,1.0", "0,0,x"])
def test_load_cells_csv_rejects_a_bad_row(tmp_path, row):
    path = tmp_path / "cells.csv"
    path.write_text(f"# comment\n0,0,1.5\n{row}\n")
    with pytest.raises(ValidationError, match=re.escape(f"{path}:3: ") + ".*" + re.escape(row)):
        load_cells_csv(path, (2, 3), (1.0, 1.0))
