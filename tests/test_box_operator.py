"""The dyadic-box operator: the box average and its weighted integral against
the 2^n-mask and tensor-quadrature oracles and a closed form, and the members
that a quadrature-size guard used to drop."""

import math
import tracemalloc

import numpy as np
import pytest

import agf.verify
from agf import (CorpusSpec, Member, ParameterError, PreconditionError, default_corpus,
                 generate_corpus, make_grid_function, run_experiment)
from agf.geometry import box_average, box_average_on_grid, contract_axes, cumulative_integral
from agf.norms import _leggauss
from agf.verify import box_operator_weighted_integral, box_panels
from box_oracle import box_weights

_CORPUS = dict(default_corpus(20240901))
_LOW_DIM = [fid for fid, f in _CORPUS.items() if f.dims < 3]
_PAIRS = [(r, a) for r in (1.0, 2.0) for a in (-0.5, 0.5, 2.0)]


def _mask_box_average(phi, points):
    """T phi on a tensor grid as 2^n signed corner sums of the cumulative integral."""
    n = phi.dims
    pts = [np.asarray(p, dtype=np.float64) for p in points]
    total = None
    for mask in range(2**n):
        coords = [pts[k] / 2.0 if (mask >> k) & 1 else pts[k] for k in range(n)]
        sign = -1.0 if bin(mask).count("1") % 2 else 1.0
        term = sign * cumulative_integral(phi, coords)
        total = term if total is None else total + term
    box = pts[0] / 2.0
    for k in range(1, n):
        box = np.multiply.outer(box, pts[k] / 2.0)
    return total / box


@pytest.mark.parametrize("shape, cells", [
    ((7,), (0.3,)),
    ((5, 8), (0.5, 0.125)),
    ((4, 3, 6), (0.25, 0.7, 0.1)),
])
def test_box_average_on_grid_against_mask_oracle(shape, cells):
    rng = np.random.default_rng(61 + len(shape))
    phi = make_grid_function(rng.uniform(0, 2, size=shape) * (rng.uniform(size=shape) > 0.3), cells)
    points = []
    for s, c in zip(shape, cells):
        ext = s * c
        points.append(np.concatenate([
            rng.uniform(0, ext, 5) + 1e-3,               # inside the grid
            np.arange(1, s + 1) * c,                     # on cell edges
            np.arange(1, s + 1) * (2.0 * c),             # x/2 on a cell edge
            [1.5 * ext, 2.0 * ext, 2.5 * ext, 7.0 * ext],  # up to and beyond 2x the extent
        ]))
    got = box_average_on_grid(phi, points)
    want = _mask_box_average(phi, points)
    assert got.shape == tuple(p.size for p in points)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)
    # the points are unsorted and repeat; the dense matrix takes them as given
    dense = contract_axes(phi.values, [box_weights(p, s, c) for p, s, c in zip(points, shape, cells)])
    np.testing.assert_allclose(got, dense, rtol=1e-13, atol=0)
    beyond = [p > 2.0 * s * c for p, s, c in zip(points, shape, cells)]
    # the box [x/2, x] misses the grid once some x_k/2 is past its extent
    for k in range(len(shape)):
        idx = [slice(None)] * len(shape)
        idx[k] = beyond[k]
        assert np.all(got[tuple(idx)] == 0.0)


def test_box_average_on_grid_at_infinity_and_on_an_empty_axis():
    phi = make_grid_function([[1.0, 2.0], [0.5, 0.25]], (0.5, 0.5))
    # the box [x/2, x] at x = inf misses the grid
    got = box_average_on_grid(phi, [np.array([np.inf, 1.0]), np.array([0.5, np.inf])])
    assert np.array_equal(got, [[0.0, 0.0], [box_average(phi, [1.0, 0.5]), 0.0]])
    assert box_average_on_grid(phi, [np.array([]), np.array([0.5, 1.0])]).shape == (0, 2)
    assert box_average_on_grid(phi, [np.array([0.5]), np.array([])]).shape == (1, 0)


def test_box_weights_rows_are_averages():
    x = np.array([0.05, 0.3, 0.9, 1.2, 1.9, 2.0, 5.0])
    w = box_weights(x, 4, 0.25)
    assert w.shape == (7, 4)
    assert np.all(w >= 0.0)
    # a constant averages to itself while the box lies inside the grid (x <= 1)
    np.testing.assert_allclose(w[x <= 1.0].sum(axis=1), 1.0, rtol=1e-15)
    # the box [0.95, 1.9] meets only the last cell, on [0.95, 1]
    np.testing.assert_allclose(w[4], [0.0, 0.0, 0.0, 0.05 / 0.95], rtol=1e-15)
    assert np.all(w[-1] == 0.0)
    with pytest.raises(ParameterError):
        box_weights(np.array([0.5, 0.0]), 4, 0.25)


def test_box_average_requires_origin():
    phi = make_grid_function([1.0, 2.0], 0.5, origin=(0.5,))
    with pytest.raises(PreconditionError):
        box_average_on_grid(phi, [np.array([1.0])])


def _tensor_quadrature(phi, r, a):
    """(T phi)^r pi^a integrated on the full Gauss tensor grid of the same panels."""
    nodes, gw = _leggauss(16)
    axis_nodes = []
    axis_weights = []
    for s, c in zip(phi.shape, phi.cell_sizes):
        edges = np.unique(np.concatenate([
            np.arange(s + 1, dtype=np.float64) * c,
            np.arange(1, s + 1, dtype=np.float64) * (2.0 * c),
        ]))
        se = np.sqrt(edges)
        mid = 0.5 * (se[1:] + se[:-1])
        half = 0.5 * (se[1:] - se[:-1])
        sn = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
        wn = (half[:, None] * gw[None, :]).ravel() * 2.0 * sn ** (2.0 * a + 1.0)
        axis_nodes.append(sn**2)
        axis_weights.append(wn)
    with np.errstate(invalid="ignore"):
        field = _mask_box_average(phi, axis_nodes) ** r
    for w in axis_weights:
        field = np.tensordot(w, field, axes=([0], [0]))
    return float(field)


def _cell_moments(s, c, a):
    """Closed form of the integral over x > 0 of W(x, j) x^a, for each cell j.

    On (j c, 2 (j+1) c) the box matrix is W = (2/x) (min(x, (j+1) c) - max(x/2, j c)),
    so between its knots the integrand is 2 (p1 x + p0) x^(a-1).
    """
    out = np.empty(s)
    for j in range(s):
        lo, hi = j * c, (j + 1) * c
        knots = sorted({lo, hi, 2.0 * lo, 2.0 * hi})
        total = 0.0
        for x0, x1 in zip(knots[:-1], knots[1:]):
            xm = 0.5 * (x0 + x1)
            upper_in = xm < hi          # min(x, hi) = x
            lower_in = xm / 2.0 > lo    # max(x/2, lo) = x/2
            p1 = (1.0 if upper_in else 0.0) - (0.5 if lower_in else 0.0)
            p0 = (0.0 if upper_in else hi) - (0.0 if lower_in else lo)
            total += 2.0 * p1 * (x1 ** (a + 1.0) - x0 ** (a + 1.0)) / (a + 1.0)
            if p0 != 0.0:
                total += 2.0 * p0 * (math.log(x1 / x0) if a == 0.0
                                     else (x1**a - x0**a) / a)
        out[j] = total
    return out


@pytest.mark.parametrize("fid", _LOW_DIM)
def test_weighted_integral_against_tensor_quadrature(fid):
    f = _CORPUS[fid]
    m = Member(f)
    for r, a in _PAIRS:
        got = box_operator_weighted_integral(Member(f), r, a)
        assert got == pytest.approx(_tensor_quadrature(f, r, a), rel=1e-12)
        assert box_operator_weighted_integral(m, r, a) == got


def test_panels_for_another_grid_are_rejected():
    f = _CORPUS["random-mdec-20240909-0"]
    shifted = make_grid_function(f.values, f.cell_sizes, origin=(0.5, 0.0))
    with pytest.raises(PreconditionError):
        box_operator_weighted_integral(Member(shifted), 1.0, 0.5)


def test_appendix_builds_the_box_panels_once_per_member(monkeypatch):
    built = []
    build = agf.verify.box_panels

    def counted(phi):
        built.append(id(phi))
        return build(phi)

    monkeypatch.setattr(agf.verify, "box_panels", counted)
    run_experiment("appendix", list(_CORPUS.items()))
    assert sorted(built) == sorted(id(f) for f in _CORPUS.values() if f.support_cells)


@pytest.mark.parametrize("fid", list(_CORPUS))
@pytest.mark.parametrize("a", [-0.5, 0.0, 0.5, 2.0])
def test_r1_against_closed_form(fid, a):
    f = _CORPUS[fid]
    want = f.values
    for s, c in zip(f.shape, f.cell_sizes):
        want = np.tensordot(_cell_moments(s, c, a), want, axes=([0], [0]))
    got = box_operator_weighted_integral(Member(f), 1.0, a)
    assert got == pytest.approx(float(want), rel=1e-12)


@pytest.mark.parametrize("fid", _LOW_DIM)
def test_other_exponents_against_tensor_quadrature(fid):
    # r outside {1, 2} takes the chunked tensor-grid path
    f = _CORPUS[fid]
    for r in (1.5, 3.0):
        for a in (-0.5, 2.0):
            got = box_operator_weighted_integral(Member(f), r, a)
            want = _tensor_quadrature(f, r, a)
            assert math.isfinite(got) and got > 0.0
            if math.isfinite(want):
                assert got == pytest.approx(want, rel=1e-12)
            else:
                # the signed corner sums dip below zero where T phi vanishes
                assert fid == "random-general-20240910-1" and r == 1.5


def test_chunk_size_does_not_change_the_sum(monkeypatch):
    rng = np.random.default_rng(67)
    phi = make_grid_function(rng.uniform(0, 1, size=(3, 2, 4)), (0.5, 0.25, 0.3))
    want = _tensor_quadrature(phi, 1.5, 0.5)
    for chunk in (1, 7, 1 << 16):
        monkeypatch.setattr(agf.verify, "_BOX_CHUNK", chunk)
        got = box_operator_weighted_integral(Member(phi), 1.5, 0.5)
        assert got == pytest.approx(want, rel=1e-12)


def test_appendix_checks_the_3d_corpus_members():
    result = run_experiment("appendix", list(_CORPUS.items()))
    for fid, f in _CORPUS.items():
        if f.dims != 3:
            continue
        reps = [r for r in result.reports if r.function_id == fid]
        ids = [r.inequality_id for r in reps]
        assert ids.count("box-operator-weight") == 6
        assert ids.count("box-operator-pointwise") == 1
        assert all(r.verdict == "pass" for r in reps)


def test_appendix_checks_a_large_2d_member():
    member = generate_corpus(CorpusSpec("random-mdec", (64, 64), (1 / 64, 1 / 64), 3))
    reps = run_experiment("appendix", member).reports
    ids = [r.inequality_id for r in reps]
    assert ids.count("box-operator-weight") == 6
    assert ids.count("box-operator-pointwise") == 1
    assert all(r.verdict == "pass" for r in reps if r.inequality_id.startswith("box-operator-"))


def test_fractional_exponent_memory_stays_below_one_field():
    (_, f), = generate_corpus(CorpusSpec("random-mdec", (64, 64), (1 / 64, 1 / 64), 3))
    points = math.prod(pn.nodes.size for pn in box_panels(f))
    assert points > 2_000_000
    tracemalloc.start()
    try:
        got = box_operator_weighted_integral(Member(f), 1.5, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert math.isfinite(got) and got > 0.0
    assert peak < 8 * points


def test_box_average_rejects_a_nan_coordinate():
    # the rows of a NaN point would read as past the grid, a silent 0
    phi = make_grid_function([1.0, 2.0], 0.5)
    with pytest.raises(ParameterError):
        box_average_on_grid(phi, [np.array([0.5, np.nan])])
