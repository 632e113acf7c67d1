import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from agf import (
    AnisotropicGauge,
    CellSet,
    ParameterError,
    PreconditionError,
    box_average,
    box_average_field,
    build_gauge,
    default_corpus,
    loomis_whitney_check,
    make_grid_function,
    minimal_projection_chain,
    projection_profile,
    run_experiment,
    superlevel_filling,
)
from agf.geometry import ChainStep, cumulative_integral, default_t_grid
from agf.rearrange import iterated_rearrangement, strict_order, strictify


def _mask_cellset(mask, cell_sizes):
    idx = np.argwhere(mask)
    return CellSet(idx, mask.shape, tuple(cell_sizes))


def test_cellset_sorting_and_duplicates():
    E = CellSet(np.array([[1, 1], [0, 0], [0, 1]]), (2, 2), (1.0, 1.0))
    np.testing.assert_array_equal(E.indices, [[0, 0], [0, 1], [1, 1]])
    assert E.count == 3
    assert E.measure == pytest.approx(3.0)
    with pytest.raises(ParameterError):
        CellSet(np.array([[0, 0], [0, 0]]), (2, 2), (1.0, 1.0))


def test_projection_profile_counts():
    E = CellSet(np.array([[0, 0], [1, 0], [2, 0], [0, 1]]), (3, 2), (0.5, 0.25))
    prof = projection_profile(E, 0)  # collapse rows: columns are the j=1 keys
    np.testing.assert_array_equal(prof.columns.ravel(), [0, 1])
    np.testing.assert_array_equal(prof.section_counts, [3, 1])
    assert prof.projection_measure == pytest.approx(2 * 0.25)
    np.testing.assert_allclose(prof.section_measures, [1.5, 0.5])
    with pytest.raises(ParameterError):
        projection_profile(E, 2)


def test_loomis_whitney_random_masks():
    rng = np.random.default_rng(31)
    for _ in range(200):
        ndim = int(rng.integers(2, 4))
        shape = tuple(int(rng.integers(2, 6)) for _ in range(ndim))
        mask = rng.uniform(size=shape) < rng.uniform(0.2, 0.9)
        if not mask.any():
            continue
        report = loomis_whitney_check(_mask_cellset(mask, [1.0] * ndim))
        assert report.passed
        assert report.lhs_cells <= report.rhs_cells


def _min_columns_to_half(counts):
    """Fewest whole columns whose section counts reach half the total."""
    total = sum(counts)
    best = len(counts)
    for k in range(1, len(counts) + 1):
        if any(sum(sub) >= total / 2.0 for sub in itertools.combinations(counts, k)):
            best = k
            break
    return best


def test_greedy_chain_step_is_minimal_over_column_subsets():
    rng = np.random.default_rng(37)
    for _ in range(40):
        mask = rng.uniform(size=(5, 5)) < 0.6
        if not mask.any():
            continue
        E = _mask_cellset(mask, (1.0, 1.0))
        for axis in range(2):
            prof = projection_profile(E, axis)
            _, steps = minimal_projection_chain(E, axes=[axis])
            assert steps[0].selected_columns == _min_columns_to_half(
                list(prof.section_counts))


def test_chain_measure_band_and_nesting():
    rng = np.random.default_rng(41)
    for _ in range(25):
        mask = rng.uniform(size=(4, 5, 3)) < 0.5
        if not mask.any():
            continue
        E = _mask_cellset(mask, (1.0, 1.0, 1.0))
        chain, steps = minimal_projection_chain(E)
        assert len(chain) == 4
        prev = {tuple(r) for r in chain[0].indices.tolist()}
        for cur_set, step in zip(chain[1:], steps):
            cells = {tuple(r) for r in cur_set.indices.tolist()}
            assert cells <= prev  # nested
            if step.achieved_cells:
                # at least half of the parent, overshooting by less than one column
                parent = len(prev)
                assert step.achieved_cells >= parent / 2.0
                assert step.achieved_cells == sum(
                    1 for _ in cells)
            prev = cells


def _set_based_chain(E):
    """Reference chain: tuple-keyed columns and set membership, one axis at a time."""
    chain, steps = [E], []
    cur = E
    for j in range(E.dims):
        if cur.count == 0:
            chain.append(cur)
            steps.append(ChainStep(j, 0, 0))
            continue
        keys = np.delete(cur.indices, j, axis=1)
        cols, counts = np.unique(keys, axis=0, return_counts=True)
        order = np.lexsort(tuple(cols.T[::-1]) + (-counts,))
        cum = np.cumsum(counts[order])
        nsel = min(int(np.searchsorted(cum, cur.count / 2.0, side="left")) + 1, counts.size)
        selected = {tuple(row) for row in cols[order[:nsel]].tolist()}
        mask = np.array([tuple(row) in selected for row in keys.tolist()], dtype=bool)
        nxt = CellSet(cur.indices[mask], cur.shape, cur.cell_sizes)
        chain.append(nxt)
        steps.append(ChainStep(j, nsel, nxt.count))
        cur = nxt
    return chain, steps, [np.unique(np.delete(E.indices, j, axis=1), axis=0, return_counts=True)
                          for j in range(E.dims)]


@pytest.mark.parametrize("shape", [(9,), (6, 7), (4, 5, 3)])
def test_integer_column_codes_match_set_based_chain(shape):
    rng = np.random.default_rng(47)
    for _ in range(30):
        mask = rng.uniform(size=shape) < rng.uniform(0.1, 0.9)
        E = _mask_cellset(mask, (1.0,) * len(shape))
        chain, steps = minimal_projection_chain(E)
        want_chain, want_steps, want_profiles = _set_based_chain(E)
        assert steps == want_steps
        for got, want in zip(chain, want_chain):
            np.testing.assert_array_equal(got.indices, want.indices)
        if E.count:
            for j, (cols, counts) in enumerate(want_profiles):
                prof = projection_profile(E, j)
                np.testing.assert_array_equal(prof.columns, cols)
                np.testing.assert_array_equal(prof.section_counts, counts)


def test_superlevel_filling_nesting_and_errors():
    rng = np.random.default_rng(43)
    f = make_grid_function(rng.uniform(0.1, 1, size=(4, 4)), (0.5, 0.5))
    g = strictify(iterated_rearrangement(f, (0, 1)))
    v = g.cell_volume
    prev = set()
    for k in range(1, 17):
        E = superlevel_filling(g, k * v)
        cells = {tuple(r) for r in E.indices.tolist()}
        assert len(cells) == k
        assert prev <= cells
        prev = cells
    with pytest.raises(ParameterError):
        superlevel_filling(g, 1.3 * v)  # off the measure lattice
    with pytest.raises(ParameterError):
        superlevel_filling(g, 17 * v)  # beyond the support


def test_gauge_products_bounded_by_t():
    rng = np.random.default_rng(47)
    f = make_grid_function(rng.uniform(0, 2, size=(6, 5)), (0.5, 0.4))
    for order in [(0, 1), (1, 0)]:
        gauge = build_gauge(f, order)
        assert not gauge.degenerate
        prod = np.prod(gauge.u, axis=1)
        assert np.all(prod <= gauge.t_values * (1 + 1e-12))
        assert np.all(gauge.mu > 0)
        # shells carry between half and all of their parent counts
        parents = gauge.shell_counts[:, 0]
        for j in range(1, gauge.shell_counts.shape[1]):
            kept = gauge.shell_counts[:, j]
            assert np.all(kept * 2 >= gauge.shell_counts[:, j - 1])
            assert np.all(kept <= gauge.shell_counts[:, j - 1])
        assert np.all(parents * gauge.cell_volume == gauge.t_values / 2)


def test_gauge_degenerate_and_validation():
    single = make_grid_function([[1.0]], (1.0, 1.0))
    assert build_gauge(single, (0, 1)).degenerate
    f = make_grid_function(np.arange(1.0, 5.0).reshape(2, 2), (1.0, 1.0))
    with pytest.raises(ParameterError):
        build_gauge(f, (0, 1), t_values=[3.0])  # odd lattice multiple
    with pytest.raises(ParameterError):
        build_gauge(f, (0, 1), t_values=[6.0])  # beyond the support


def _chain_gauge(f, order, t_values=None):
    """Reference gauge: one minimal_projection_chain per lattice point."""
    order = tuple(int(k) for k in order)
    g = strictify(iterated_rearrangement(f, order))
    n = g.dims
    v = g.cell_volume
    if t_values is None:
        t_values = default_t_grid(g)
    t_values = np.asarray(t_values, dtype=np.float64)
    so = strict_order(g)
    scale = 2.0 ** ((n * n - 1) / n)
    mu = np.empty((t_values.size, n))
    uu = np.empty((t_values.size, n))
    shells = np.empty((t_values.size, n + 1), dtype=np.int64)
    projs = np.empty((t_values.size, n), dtype=np.int64)
    cellsets = []
    for m, t in enumerate(t_values):
        ki = round(t / v)
        flat = so[ki // 2 : ki]
        idx = np.stack(np.unravel_index(flat, g.shape), axis=1)
        chain, steps = minimal_projection_chain(CellSet(idx, g.shape, g.cell_sizes))
        cellsets.append(tuple(chain))
        shells[m] = [cs.count for cs in chain]
        for j, step in enumerate(steps):
            pm = step.selected_columns * v / g.cell_sizes[j]
            mu[m, j] = scale * pm
            projs[m, j] = step.selected_columns
        uu[m] = t / mu[m]
    return AnisotropicGauge(order, t_values, mu, uu, shells, projs, v), tuple(cellsets)


def _assert_gauge_matches_chains(f, order, t_values=None):
    got = build_gauge(f, order, t_values)
    want, chains = _chain_gauge(f, order, t_values)
    assert not got.degenerate
    assert got.t_values.tobytes() == want.t_values.tobytes()
    assert np.array_equal(got.shell_counts, want.shell_counts)
    assert np.array_equal(got.projection_counts, want.projection_counts)
    # exact float equality, not a tolerance: mu and u are the same expressions
    assert got.mu.tobytes() == want.mu.tobytes()
    assert got.u.tobytes() == want.u.tobytes()
    assert len(got.cellsets) == len(chains)
    for got_chain, want_chain in zip(got.cellsets, chains):
        assert len(got_chain) == len(want_chain) == f.dims + 1
        for a, b in zip(got_chain, want_chain):
            assert (a.shape, a.cell_sizes) == (b.shape, b.cell_sizes)
            np.testing.assert_array_equal(a.indices, b.indices)
    return got


def _monotone_grid(rng, shape, levels=3):
    """Integer values nonincreasing along every axis, with ties and a corner of zeros."""
    a = rng.integers(0, levels, size=shape).astype(np.float64)
    for ax in range(len(shape)):
        a = np.flip(np.cumsum(np.flip(a, ax), axis=ax), ax)
    # {index sum >= c} is an up-set, so zeroing it keeps the grid monotone
    total = sum(np.indices(shape))
    a[total >= rng.integers(1, sum(shape))] = 0.0
    return a


@pytest.mark.parametrize("shape", [(9,), (7, 6), (1, 9), (9, 1), (5, 4, 3), (5, 1, 4), (3, 3, 3, 2)])
def test_array_gauge_matches_projection_chains(shape):
    rng = np.random.default_rng(sum(shape) * 101 + len(shape))
    for trial in range(12):
        sizes = tuple(float(c) for c in rng.uniform(0.1, 2.0, size=len(shape)))
        if trial % 3 == 0:
            vals = _monotone_grid(rng, shape)
        elif trial % 3 == 1:
            # unordered input with ties and zeros; the gauge rearranges it first
            vals = rng.integers(0, 4, size=shape).astype(np.float64)
        else:
            vals = rng.uniform(0, 1, size=shape) * (rng.uniform(size=shape) < 0.7)
        f = make_grid_function(vals, sizes)
        if np.count_nonzero(vals) < 2:
            assert build_gauge(f, tuple(range(len(shape)))).degenerate
            continue
        for order in (tuple(range(len(shape))), tuple(reversed(range(len(shape))))):
            _assert_gauge_matches_chains(f, order)


def test_array_gauge_explicit_t_values_up_to_the_support():
    rng = np.random.default_rng(211)
    for shape, sizes in [((6, 5), (0.3, 1.7)), ((4, 3, 5), (0.5, 0.25, 2.0)), ((11,), (0.2,))]:
        for _ in range(6):
            vals = rng.integers(0, 3, size=shape).astype(np.float64)
            supp = int(np.count_nonzero(vals))
            if supp < 2:
                continue
            f = make_grid_function(vals, sizes)
            v = f.cell_volume
            top = supp - supp % 2
            # unsorted, repeated, down to the smallest shell and up to the support
            ks = [top, 2, top, max(2, top // 2 - top // 2 % 2), 2]
            gauge = _assert_gauge_matches_chains(f, tuple(range(len(shape))),
                                                 [k * v for k in ks])
            assert gauge.shell_counts[0, 0] == top // 2


def test_array_gauge_matches_projection_chains_on_the_corpus():
    for fid, f in default_corpus(7):
        if f.dims < 2:
            continue
        for order in (tuple(range(f.dims)), tuple(reversed(range(f.dims)))):
            _assert_gauge_matches_chains(f, order)


_LEVELS = (0.0, 1.0, 2.0, 3.0, 100.0, 1e6)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data(), zeros=st.booleans(),
       shape=st.sampled_from([(1, 2), (2, 2), (3, 2), (2, 5), (4, 4), (2, 2, 2), (3, 1, 2)]))
def test_array_gauge_matches_projection_chains_on_integer_grids(data, zeros, shape):
    # with and without zero cells, and with wide gaps between the levels
    levels = _LEVELS if zeros else _LEVELS[1:]
    vals = data.draw(arrays(np.float64, shape, elements=st.sampled_from(levels)))
    f = make_grid_function(vals, (0.5, 0.25, 2.0)[:len(shape)])
    for order in (tuple(range(len(shape))), tuple(reversed(range(len(shape))))):
        if np.count_nonzero(vals) < 2:
            assert build_gauge(f, order).degenerate
        else:
            _assert_gauge_matches_chains(f, order)


def test_gauge_of_a_grid_without_zero_cells():
    f = make_grid_function([[100.0, 1.0]], (1.0, 1.0))
    for order in ((0, 1), (1, 0)):
        gauge = _assert_gauge_matches_chains(f, order)
        assert gauge.shell_counts.tolist() == [[1, 1, 1]]
    reps = run_experiment("aniso-estimate", [("wide-gap", f)]).reports
    assert reps and all(r.verdict != "fail" for r in reps)


def test_array_gauge_builds_cellsets_only_when_read():
    f = make_grid_function(np.arange(12.0).reshape(3, 4), (0.5, 0.25))
    gauge = build_gauge(f, (0, 1))
    assert "cellsets" not in vars(gauge)
    chains = gauge.cellsets
    assert gauge.cellsets is chains
    assert len(chains) == gauge.t_values.size
    assert build_gauge(make_grid_function([[0.0, 2.0]], (1.0, 1.0)), (0, 1)).cellsets == ()


@pytest.mark.parametrize("k", [3, 1.3, 0, -2, 14, 24])
def test_array_gauge_rejects_t_values(k):
    # 12 nonzero cells of volume 0.125: odd, off-lattice, nonpositive, beyond the support
    vals = np.arange(12.0).reshape(3, 4) + 1.0
    f = make_grid_function(vals, (0.5, 0.25))
    with pytest.raises(ParameterError):
        build_gauge(f, (0, 1), t_values=[4 * 0.125, k * 0.125])
    build_gauge(f, (0, 1), t_values=[12 * 0.125])


def test_cumulative_integral_against_brute_force():
    rng = np.random.default_rng(53)
    vals = rng.uniform(0, 2, size=(3, 4))
    phi = make_grid_function(vals, (0.5, 0.25))

    def brute(y0, y1, m=2000):
        xs = np.linspace(0, y0, m, endpoint=False) + y0 / (2 * m)
        ys = np.linspace(0, y1, m, endpoint=False) + y1 / (2 * m)
        i = np.minimum((xs / 0.5).astype(int), 2)[:, None]
        j = np.minimum((ys / 0.25).astype(int), 3)[None, :]
        inside = (xs[:, None] < 1.5) & (ys[None, :] < 1.0)
        return float(np.sum(vals[i, j] * inside)) * y0 * y1 / m**2

    pts = [np.array([0.3, 0.8, 1.5, 2.0]), np.array([0.2, 0.9, 1.4])]
    got = cumulative_integral(phi, pts)
    for a, y0 in enumerate(pts[0]):
        for b, y1 in enumerate(pts[1]):
            assert got[a, b] == pytest.approx(brute(y0, y1), rel=2e-3)


def test_cumulative_integral_requires_origin():
    phi = make_grid_function([1.0], 1.0, origin=(0.5,))
    with pytest.raises(PreconditionError):
        cumulative_integral(phi, [np.array([1.0])])


def test_box_average_known_values():
    ind = make_grid_function([1.0], 1.0)  # indicator of (0, 1]
    # average of the indicator over [x/2, x]
    assert box_average(ind, 1.0) == pytest.approx(1.0)
    assert box_average(ind, 1.5) == pytest.approx((1.0 - 0.75) / 0.75)
    assert box_average(ind, 4.0) == pytest.approx(0.0)
    const = make_grid_function(np.full((3, 3), 2.0), (1.0, 1.0))
    assert box_average(const, [1.5, 2.5]) == pytest.approx(2.0)
    with pytest.raises(ParameterError):
        box_average(ind, 0.0)


def test_box_average_monotone_function_pointwise_bound():
    # for a coordinatewise nonincreasing function, the box average at x
    # dominates the value at x (the box sits below x in every coordinate)
    vals = np.array([[4.0, 3.0], [2.0, 1.0]])
    phi = make_grid_function(vals, (0.5, 0.5), halfspace=True)
    field = box_average_field(phi)
    assert field.shape == phi.shape
    assert np.all(field.values >= phi.values - 1e-12)


def test_box_average_field_matches_pointwise():
    rng = np.random.default_rng(59)
    phi = make_grid_function(rng.uniform(0, 1, size=(3, 3)), (0.5, 0.5))
    field = box_average_field(phi)
    for i in range(3):
        for j in range(3):
            x = [(i + 1) * 0.5, (j + 1) * 0.5]
            assert field.values[i, j] == pytest.approx(box_average(phi, x), rel=1e-12)
