"""The box operator's per-axis parts against the dense box matrix.

``BoxPanels`` keep each row of the box matrix W as its two end cells, their
weights and one interior weight.  Everything the weighted integral reads from
them -- g = W^T w, the Gram matrix W^T diag(w) W and T phi along one axis --
is checked here against ``box_oracle.box_weights``, the dense oracle, within
1e-13 relative, and so is the integral itself.
"""

import importlib.util
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from agf import CorpusSpec, Member, default_corpus, generate_corpus, make_grid_function
from agf.geometry import _axis_panels, _box_along, _box_gram, _box_vector, contract_axes
from agf.verify import box_operator_weighted_integral, box_panels, verify_box_operator
from box_oracle import box_weights

_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workload_members(name, seed):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return [m for s in getattr(mod, name)(CorpusSpec, seed) for m in generate_corpus(s)]


_MEMBERS = dict(default_corpus(20240901))
_MEMBERS.update(_workload_members("scale_specs", 7))
_MEMBERS.update(_workload_members("limits_specs", 7))
_A_VALUES = (-0.5, 0.0, 0.5, 2.0)
# Gauss tensor grids up to this many points are walked densely at r = 1.5 and 3;
# only the 16^3 corpus member (384^3 points) lies past it
_TENSOR_POINTS = 3_000_000
_ROWS = 1 << 18  # float64 values of one block of dense rows


def _dense_blocks(pn, s, c):
    """(slice, rows of box_weights) over the nodes of pn, a bounded block at a time."""
    x = pn.nodes**2
    step = max(1, _ROWS // s)
    for i in range(0, x.size, step):
        yield slice(i, i + step), box_weights(x[i:i + step], s, c)


def _dense_vector(pn, w, s, c):
    return sum(w[sl] @ rows for sl, rows in _dense_blocks(pn, s, c))


def _dense_along(pn, values, axis, s, c):
    parts = [np.tensordot(rows, values, axes=([1], [axis])) for _, rows in _dense_blocks(pn, s, c)]
    return np.moveaxis(np.concatenate(parts), 0, axis)


def _dense_gram(pn, w, s, c):
    return sum((rows * w[sl, None]).T @ rows for sl, rows in _dense_blocks(pn, s, c))


def _dense_integral(phi, r, a):
    """The same Gauss panels with the dense box matrices, walked by the formula of r."""
    panels = box_panels(phi)
    weights = [pn.weights(a) for pn in panels]
    sizes = list(zip(phi.shape, phi.cell_sizes))
    if r == 1:
        out = phi.values
        for pn, w, (s, c) in zip(panels, weights, sizes):
            out = np.tensordot(_dense_vector(pn, w, s, c), out, axes=([0], [0]))
        return float(out)
    if r == 2 and phi.dims > 1:
        grams = [_dense_gram(pn, w, s, c) for pn, w, (s, c) in zip(panels, weights, sizes)]
        return float(np.vdot(phi.values, contract_axes(phi.values, grams)))
    field = phi.values
    for k, (pn, (s, c)) in enumerate(zip(panels, sizes)):
        field = _dense_along(pn, field, k, s, c)
    field = field**r
    for w in weights:
        field = np.tensordot(w, field, axes=([0], [0]))
    return float(field)


@pytest.mark.parametrize("fid", list(_MEMBERS))
def test_parts_against_the_dense_box_matrix(fid):
    f = _MEMBERS[fid]
    for k, (pn, s, c) in enumerate(zip(box_panels(f), f.shape, f.cell_sizes)):
        np.testing.assert_allclose(_box_along(pn, f.values, k),
                                   _dense_along(pn, f.values, k, s, c), rtol=1e-13, atol=0)
        for a in _A_VALUES:
            w = pn.weights(a)
            np.testing.assert_allclose(_box_vector(pn, w, s), _dense_vector(pn, w, s, c),
                                       rtol=1e-13, atol=0)
            if f.dims > 1:
                np.testing.assert_allclose(_box_gram(pn, w, s), _dense_gram(pn, w, s, c),
                                           rtol=1e-13, atol=0)


@pytest.mark.parametrize("fid", list(_MEMBERS))
def test_integral_against_the_dense_box_matrix(fid):
    f = _MEMBERS[fid]
    points = math.prod(pn.nodes.size for pn in box_panels(f))
    rs = (1.0, 1.5, 2.0, 3.0) if points <= _TENSOR_POINTS else (1.0, 2.0)
    m = Member(f)
    for r in rs:
        for a in _A_VALUES:
            got = box_operator_weighted_integral(m, r, a)
            want = _dense_integral(f, r, a)
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)


def _parts_at_edges():
    """Panels of 20 cells of 1/16 at nodes s = k/4, so x = k^2/16 exactly.

    x lies on a cell edge for k <= 4, x/2 on a cell edge for even k (so x on a
    doubled edge), and x past the extent 1.25 or past twice of it for k >= 5.
    """
    sn = np.arange(1, 9) / 4.0
    assert np.all((sn**2 * 16.0) == np.arange(1, 9) ** 2)
    return _axis_panels(sn**2, 20, 1.0 / 16.0, sn, np.full(sn.size, 0.125)), 20, 1.0 / 16.0


def _rows_of(pn, s):
    """The rows of W that the parts describe, one cell at a time."""
    counts = np.diff(np.append(pn.runs, pn.nodes.size))
    lo, hi = np.repeat(pn.lo, counts), np.repeat(pn.hi, counts)
    rows = np.zeros((pn.nodes.size, s + 1))
    for i in range(pn.nodes.size):
        rows[i, lo[i] + 1:hi[i]] = pn.mid_weight[i]
        rows[i, hi[i]] += pn.hi_weight[i]
        rows[i, lo[i]] += pn.lo_weight[i]
    return rows[:, :s]


def test_nodes_on_cell_edges_and_doubled_cell_edges():
    pn, s, c = _parts_at_edges()
    dense = box_weights(pn.nodes**2, s, c)
    rows = _rows_of(pn, s)
    np.testing.assert_allclose(rows, dense, rtol=1e-13, atol=0)
    # the box [1/32, 1/16] lies in cell 0; [1/8, 1/4] is cells 2 and 3, both ends on
    # edges; the box of x = 4, twice the extent, meets no cell
    assert rows[0].tolist() == [1.0] + [0.0] * 19
    assert rows[1].tolist() == [0.0, 0.0, 0.5, 0.5] + [0.0] * 16
    assert not np.any(rows[-1])
    # the end weights are bit for bit those of the dense matrix
    for i in range(pn.nodes.size):
        nz = np.flatnonzero(dense[i])
        if nz.size:
            assert rows[i, nz[0]] == dense[i, nz[0]] and rows[i, nz[-1]] == dense[i, nz[-1]]
    vals = np.random.default_rng(3).uniform(0.0, 2.0, size=(s, 3))
    w = np.linspace(0.5, 1.5, pn.nodes.size)
    np.testing.assert_allclose(_box_vector(pn, w, s), w @ dense, rtol=1e-13, atol=0)
    np.testing.assert_allclose(_box_gram(pn, w, s), (dense * w[:, None]).T @ dense,
                               rtol=1e-13, atol=0)
    np.testing.assert_allclose(_box_along(pn, vals, 0), dense @ vals, rtol=1e-13, atol=0)
    for start, stop in ((0, 3), (2, 7), (5, 100)):
        np.testing.assert_allclose(_box_along(pn, vals, 0, start, stop),
                                   (dense @ vals)[start:stop], rtol=1e-13, atol=0)


_CELLS = st.sampled_from([0.05, 0.125, 0.3, 0.7, 1.0, 2.5])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), shape=st.lists(st.integers(1, 7), min_size=1, max_size=3))
def test_integral_on_small_grids_with_unequal_cells(data, shape):
    shape = tuple(shape)
    cells = tuple(data.draw(_CELLS) for _ in shape)
    vals = data.draw(arrays(np.float64, shape,
                            elements=st.sampled_from([0.0, 0.25, 1.0, 3.0, 7.5])))
    phi = make_grid_function(vals, cells)
    m = Member(phi)
    for r in (1.0, 1.5, 2.0):
        for a in (-0.5, 0.5, 2.0):
            want = _dense_integral(phi, r, a)
            got = box_operator_weighted_integral(m, r, a)
            assert got == pytest.approx(want, rel=1e-13, abs=1e-300)
    for k, (pn, s, c) in enumerate(zip(m.box_panels, shape, cells)):
        np.testing.assert_allclose(_box_along(pn, vals, k), _dense_along(pn, vals, k, s, c),
                                   rtol=1e-13, atol=0)


def _peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_of_a_1024_cell_member():
    (_, f), = generate_corpus(CorpusSpec("random-mdec", (1024,), (1 / 1024,), 5))
    box_operator_weighted_integral(Member(f), 2.0, 0.5)  # first-call caches
    for r in (1.0, 2.0):
        # the panels are built inside the call: 24,576 nodes, where W held 25 M values
        assert _peak(lambda: box_operator_weighted_integral(Member(f), r, 0.5)) <= 2 << 20
    assert _peak(lambda: verify_box_operator(Member(f), (1.0, 2.0), (-0.5, 0.5, 2.0))) <= 2 << 20
