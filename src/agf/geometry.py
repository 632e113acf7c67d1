"""Level-set geometry: projections, Loomis-Whitney, minimal-projection chains,
the anisotropic gauge construction, and the dyadic-box averaging operator.

All set arithmetic is exact integer cell counting; tie-breaking is
lexicographic everywhere, so the whole pipeline is a pure function of its
input.  Level sets are prefixes of ``strict_order`` (value descending, flat
index ascending) of the function itself; no strictified copy is built.

The gauge puts every dyadic shell through each minimal-projection step at
once: one bincount and one lexsort per axis over all (lattice point, cell)
pairs, O(P log P) for P = total shell size, instead of one chain of re-sorted
cell sets per lattice point.

The box average T phi(x) over [x/2, x] is separable: T phi(x) =
sum_c phi_c prod_k W_k(x_k, c_k), where the 1-D box matrix W_k(x, c) is the
overlap of cell c with [x/2, x] divided by x/2.  A row of W_k is one range of
cells, kept as its two end weights and one interior weight (``BoxPanels``),
so m_k points on an axis of s_k cells cost O(m_k + s_k) index work, never
an m_k x s_k matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, PreconditionError
from .grid import GridFunction
from .rearrange import iterated_rearrangement, strict_order


@dataclass(frozen=True)
class CellSet:
    """Finite set of whole grid cells."""

    indices: np.ndarray            # (m, n) int, sorted lexicographically
    shape: tuple[int, ...]
    cell_sizes: tuple[float, ...]

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64).reshape(-1, len(self.shape))
        order = np.lexsort(idx.T[::-1])
        idx = idx[order]
        object.__setattr__(self, "indices", idx)
        if idx.shape[0] > 1 and np.any(np.all(np.diff(idx, axis=0) == 0, axis=1)):
            raise ParameterError("duplicate cells in CellSet")
        idx.flags.writeable = False

    @property
    def dims(self) -> int:
        return len(self.shape)

    @property
    def count(self) -> int:
        return int(self.indices.shape[0])

    @property
    def cell_volume(self) -> float:
        v = 1.0
        for c in self.cell_sizes:
            v *= c
        return v

    @property
    def measure(self) -> float:
        return self.count * self.cell_volume

    def column_keys(self, j: int) -> np.ndarray:
        """Cell indices with axis j removed: the projection columns."""
        return np.delete(self.indices, j, axis=1)


@dataclass(frozen=True)
class ProjectionProfile:
    """Section measures per projection column along one axis."""

    axis: int
    columns: np.ndarray          # (m, n-1) unique column keys, lex sorted
    section_counts: np.ndarray   # cells of E in each column
    cell_sizes: tuple[float, ...]

    @property
    def projection_count(self) -> int:
        return int(self.columns.shape[0])

    @property
    def projection_measure(self) -> float:
        v = 1.0
        for c in self.cell_sizes:
            v *= c
        return self.projection_count * v / self.cell_sizes[self.axis]

    @property
    def section_measures(self) -> np.ndarray:
        return self.section_counts * self.cell_sizes[self.axis]


def _column_codes(E: CellSet, j: int) -> np.ndarray:
    """Integer code of each cell's projection column along axis j.

    Codes are the column keys ravelled in C order, so sorting codes sorts the
    columns lexicographically.  For n = 1 every cell lies in the one empty
    column, code 0.
    """
    col_shape = E.shape[:j] + E.shape[j + 1:]
    if not col_shape:
        return np.zeros(E.count, dtype=np.int64)
    return np.ravel_multi_index(tuple(E.column_keys(j).T), col_shape)


def projection_profile(E: CellSet, j: int) -> ProjectionProfile:
    """Exact column counting for the orthogonal projection along axis j."""
    if not 0 <= j < E.dims:
        raise ParameterError(f"axis {j} out of range for dims={E.dims}")
    if E.count == 0:
        return ProjectionProfile(j, np.empty((0, E.dims - 1), dtype=np.int64),
                                 np.empty(0, dtype=np.int64), E.cell_sizes)
    codes, counts = np.unique(_column_codes(E, j), return_counts=True)
    col_shape = E.shape[:j] + E.shape[j + 1:]
    if col_shape:
        cols = np.stack(np.unravel_index(codes, col_shape), axis=1)
    else:
        cols = np.empty((codes.size, 0), dtype=np.int64)
    return ProjectionProfile(j, cols, counts, E.cell_sizes)


@dataclass(frozen=True)
class LoomisWhitneyReport:
    lhs_cells: int               # |E|^(n-1) in cell-count units
    rhs_cells: int               # product of projection counts
    passed: bool


def loomis_whitney_check(E: CellSet) -> LoomisWhitneyReport:
    """Exact integer Loomis-Whitney: (cell count)^(n-1) <= product of projections."""
    n = E.dims
    lhs = E.count ** (n - 1)
    rhs = 1
    for j in range(n):
        rhs *= projection_profile(E, j).projection_count
    return LoomisWhitneyReport(lhs, rhs, lhs <= rhs)


# --- superlevel sets and chains -------------------------------------------------

def superlevel_filling(f: GridFunction, t: float) -> CellSet:
    """The first t/v cells of f in its strict value order ``strict_order(f)``."""
    v = f.cell_volume
    k = t / v
    ki = round(k)
    if abs(k - ki) > 1e-9 or ki < 0:
        raise ParameterError(f"t={t} is not on the measure lattice (unit {v})")
    if ki > f.values.size or ki > np.count_nonzero(f.values):
        raise ParameterError(f"t={t} exceeds the support measure")
    order = strict_order(f)[:ki]
    idx = np.stack(np.unravel_index(order, f.shape), axis=1)
    return CellSet(idx, f.shape, f.cell_sizes)


@dataclass(frozen=True)
class ChainStep:
    axis: int
    selected_columns: int
    achieved_cells: int


def minimal_projection_chain(E: CellSet, axes=None) -> tuple[list[CellSet], list[ChainStep]]:
    """Nested sets E = E_0 > E_1 > ... > E_n with whole-column minimal projections.

    Step j keeps whole columns of E_{j-1} along axis j, chosen greedily by
    descending section count (lexicographic tie-break), until the kept measure
    reaches half of |E_{j-1}|.  At whole-column granularity this projection is
    minimal among all column subsets of at least half measure.
    """
    n = E.dims
    if axes is None:
        axes = list(range(n))
    chain = [E]
    steps: list[ChainStep] = []
    cur = E
    for j in axes:
        if cur.count == 0:
            chain.append(cur)
            steps.append(ChainStep(j, 0, 0))
            continue
        codes = _column_codes(cur, j)
        cols, section_counts = np.unique(codes, return_counts=True)
        # sort columns: section count descending, lexicographic key (code) ascending
        order = np.lexsort((cols, -section_counts))
        counts = section_counts[order]
        cum = np.cumsum(counts)
        nsel = int(np.searchsorted(cum, cur.count / 2.0, side="left")) + 1
        nsel = min(nsel, counts.size)
        mask = np.isin(codes, cols[order[:nsel]])
        nxt = CellSet(cur.indices[mask], cur.shape, cur.cell_sizes)
        chain.append(nxt)
        steps.append(ChainStep(j, nsel, nxt.count))
        cur = nxt
    return chain, steps


# --- anisotropic gauge -----------------------------------------------------------

@dataclass(frozen=True)
class AnisotropicGauge:
    """Per-axis gauge functions u_j(t) = t / mu_j(t) on a lattice of measures t.

    mu_j(t) is the scaled projection measure of the minimal-projection subset
    G_{t,j} of the dyadic shell G_t = E_t \\ E_{t/2}.
    """

    order: tuple[int, ...]
    t_values: np.ndarray         # (m,)
    mu: np.ndarray               # (m, n)
    u: np.ndarray                # (m, n)
    shell_counts: np.ndarray     # (m, n+1) cells of G_{t,j}, j = 0..n
    projection_counts: np.ndarray  # (m, n)
    cell_volume: float
    degenerate: bool = False
    # what cellsets rebuilds the chains from: (shape, cell_sizes, strict order,
    # the lattice multiples k of t, and per cell of the shells strict[k/2:k]
    # laid end to end, the number of chain steps it survives)
    levels: tuple | None = field(repr=False, compare=False, default=None)

    def omega_mask(self, j: int, h: float) -> np.ndarray:
        """Lattice points t with u_j(t) >= h (the integration domain)."""
        return self.u[:, j] >= h

    @cached_property
    def cellsets(self) -> tuple:
        """Per lattice point, the chain G_t = G_{t,0} > ... > G_{t,n} as CellSets.

        Built on first read from the chain depth of each shell cell; these are
        the sets ``minimal_projection_chain`` returns for the same shell.
        """
        if self.levels is None:
            return ()
        shape, sizes, strict, ks, depth = self.levels
        out = []
        start = 0
        for k in ks:
            flat, d = strict[k // 2 : k], depth[start : start + k // 2]
            start += k // 2
            out.append(tuple(
                CellSet(np.stack(np.unravel_index(flat[d >= j], shape), axis=1), shape, sizes)
                for j in range(len(shape) + 1)))
        return tuple(out)


_T_GRID_POINTS = 64  # most lattice points of the default gauge grid


def default_t_grid(f: GridFunction) -> np.ndarray:
    """Even lattice multiples up to the support measure, thinned dyadically."""
    v = f.cell_volume
    kmax = int(np.count_nonzero(f.values))
    ks = np.arange(2, kmax + 1, 2, dtype=np.int64)
    if ks.size > _T_GRID_POINTS:
        sel = np.unique(np.round(np.geomspace(1, ks.size, _T_GRID_POINTS)).astype(np.int64)) - 1
        ks = ks[sel]
    return ks * v


def build_gauge(f: GridFunction, order, t_values=None) -> AnisotropicGauge:
    """Construct the anisotropic gauge of the iterated rearrangement g of f.

    For each lattice measure t (divisible by twice the cell volume) the dyadic
    shell G_t is the slab of cells between the t/2- and t-prefixes of the
    strict order of g, which ``strictify`` keeps; the minimal-projection
    chain supplies G_{t,j}, and mu_j(t) = 2^((n^2 - 1)/n) * projection
    measure of G_{t,j}.

    All shells go through each chain step together, as one array of
    (lattice point, cell) pairs: one bincount gives the section count of every
    (lattice point, column), one lexsort ranks the columns of every lattice
    point by (count descending, column code ascending), as
    ``minimal_projection_chain`` does, and a column is kept while the cells
    ranked before it stay below half the point's current count.  Per axis this
    costs O(P log P) for P = total shell size (at most m K/2 for m lattice
    points and K cells; m <= 64 on the default grid), plus one bincount over m
    times the column count.  The result equals one ``minimal_projection_chain``
    per shell; ``cellsets`` rebuilds those chains only when read.
    """
    order = tuple(int(k) for k in order)
    g = iterated_rearrangement(f, order)
    n = g.dims
    v = g.cell_volume
    supp = int(np.count_nonzero(g.values))
    if supp < 2:
        return AnisotropicGauge(order, np.empty(0), np.empty((0, n)), np.empty((0, n)),
                                np.empty((0, n + 1), dtype=np.int64),
                                np.empty((0, n), dtype=np.int64), v, degenerate=True)
    if t_values is None:
        t_values = default_t_grid(g)
    t_values = np.asarray(t_values, dtype=np.float64)
    ks = np.empty(t_values.size, dtype=np.int64)
    for m, t in enumerate(t_values):
        k = t / v
        ki = round(k)
        if abs(k - ki) > 1e-9 or ki % 2 != 0 or ki <= 0:
            raise ParameterError(f"t={t} must be a positive even lattice multiple of {v}")
        if ki > supp:
            raise ParameterError(f"t={t} exceeds the support measure {supp * v}")
        ks[m] = ki
    so = strict_order(g)
    scale = 2.0 ** ((n * n - 1) / n)
    nt = ks.size

    # shell m is so[k/2 : k]: lay all shells out as (row m, flat cell) pairs
    half = ks // 2
    row = np.repeat(np.arange(nt), half)
    flat = so[np.arange(row.size) + np.repeat(half - (np.cumsum(half) - half), half)]
    alive = np.arange(row.size)            # pairs still in the chain
    depth = np.zeros(row.size, dtype=np.int8)

    mu = np.empty((nt, n))
    shells = np.empty((nt, n + 1), dtype=np.int64)
    projs = np.empty((nt, n), dtype=np.int64)
    shells[:, 0] = half
    for j in range(n):
        stride = math.prod(g.shape[j + 1:])
        ncol = g.values.size // g.shape[j]
        # (row, column) code of each live pair; column codes are C-order ravels
        c = flat[alive]
        key = row[alive] * ncol + (c // (g.shape[j] * stride)) * stride + c % stride
        counts = np.bincount(key, minlength=nt * ncol)
        cols = np.flatnonzero(counts)
        crow, ccount = cols // ncol, counts[cols]
        rank = np.lexsort((cols, -ccount, crow))
        cols, crow, ccount = cols[rank], crow[rank], ccount[rank]
        # keep a column while the cells ranked before it in its row are
        # below half the row: searchsorted(cum, tot / 2, side="left") + 1 columns
        tot = shells[:, j]
        before = np.cumsum(ccount) - ccount - (np.cumsum(tot) - tot)[crow]
        pick = 2 * before < tot[crow]
        chosen = np.zeros(counts.size, dtype=bool)
        chosen[cols[pick]] = True
        alive = alive[chosen[key]]
        depth[alive] += 1
        shells[:, j + 1] = np.bincount(row[alive], minlength=nt)
        projs[:, j] = np.bincount(crow[pick], minlength=nt)
        mu[:, j] = scale * (projs[:, j] * v / g.cell_sizes[j])
    uu = t_values[:, None] / mu
    return AnisotropicGauge(order, t_values, mu, uu, shells, projs, v,
                            levels=(g.shape, g.cell_sizes, so, ks, depth))


# --- dyadic box averaging --------------------------------------------------------

class BoxPanels(NamedTuple):
    """The rows of the box matrix W of one axis at rising points x, kept as parts.

    W(x, j) is the overlap of cell [j c, (j+1) c) with [x/2, x] over the box
    side x/2.  Its row at x is ``lo_weight`` at the cell that holds x/2,
    ``hi_weight`` at the cell that holds x, and ``mid_weight`` = 2c/x at every
    cell strictly between.  Along a run of points those two cells stay the
    same, so ``runs`` holds the first point of each run and ``lo`` and ``hi``
    its two cells; both rise from run to run.  The index s, the cell count,
    stands for the cells past the grid, which get no weight.  ``nodes`` (the
    square roots of the points) and ``half_weights`` carry the Gauss rule of
    ``verify.box_panels``; rows at plain points leave them None.
    """

    nodes: np.ndarray | None
    half_weights: np.ndarray | None
    lo_weight: np.ndarray
    hi_weight: np.ndarray
    mid_weight: np.ndarray
    runs: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def weights(self, a: float) -> np.ndarray:
        """Quadrature weights in x for the weight x^a (Jacobian 2 s included)."""
        w = self.nodes ** (2.0 * a + 1.0)
        w *= self.half_weights
        w *= 2.0
        return w


def _axis_panels(x: np.ndarray, s: int, c: float, nodes=None, half_weights=None) -> BoxPanels:
    """The ``BoxPanels`` of an axis of s cells of size c at rising points x > 0.

    The end weights are bit for bit those of the dense matrix in
    ``tests/box_oracle.py``; x is taken as given, not as a square, so a point
    on a cell edge finds that edge exactly.  The interior weight is c/(x/2)
    rounded once, where the oracle takes each cell's width as the difference
    of its rounded edges, so the two differ by a few ulps of the edges.
    """
    edges = np.arange(s + 1, dtype=np.float64) * c
    half = x / 2.0
    lo = np.searchsorted(edges, half, side="right") - 1
    hi = np.searchsorted(edges, x, side="right") - 1
    runs = np.flatnonzero((np.diff(lo, prepend=-1) != 0) | (np.diff(hi, prepend=-1) != 0))
    lo_w = edges[np.minimum(lo + 1, s)]  # the upper edge of cell lo
    np.minimum(lo_w, x, out=lo_w)
    lo_w -= half
    lo_w[lo >= s] = 0.0
    lo_w /= half
    hi_w = edges[hi]
    np.subtract(x, hi_w, out=hi_w)
    hi_w[(hi <= lo) | (hi >= s)] = 0.0
    hi_w /= half
    return BoxPanels(nodes, half_weights, lo_w, hi_w, np.divide(c, half, out=half),
                     runs, lo[runs], hi[runs])


def _range_sums(values: np.ndarray, starts, stops) -> np.ndarray:
    """``values[starts[q]:stops[q]].sum(axis=0)`` for each q, 0 where the slice is empty.

    One ``np.add.reduceat`` adds each slice on its own, so no sum is taken
    as a difference of prefix sums, which would cancel.
    """
    padded = np.concatenate([values, np.zeros((1,) + values.shape[1:])])
    idx = np.minimum(np.column_stack([starts, stops]).ravel(), len(values))
    out = np.add.reduceat(padded, idx, axis=0)[::2]
    out[np.asarray(stops) <= np.asarray(starts)] = 0.0
    return out


def _inside(pn: BoxPanels, s: int):
    """Per cell j, the block [first[j], stop[j]) of the runs with lo < j < hi.

    Both indices rise from run to run, so the runs with hi > j begin at
    ``first[j]`` and those with lo < j end at ``stop[j]``.
    """
    cells = np.arange(s)
    return np.searchsorted(pn.hi, cells, side="right"), np.searchsorted(pn.lo, cells)


def _cell_sums(pn: BoxPanels, s: int, lo_sums, mid_sums, hi_sums, inside) -> np.ndarray:
    """Per cell, the run sums of the runs that hold it at lo, inside or at hi.

    The end sums are scattered to their cells; each cell's interior sum is
    one slice sum over the block of runs ``inside`` gives for it.
    """
    return ((np.bincount(pn.lo, lo_sums, s + 1) + np.bincount(pn.hi, hi_sums, s + 1))[:s]
            + _range_sums(mid_sums, *inside))


def _box_vector(pn: BoxPanels, w: np.ndarray, s: int) -> np.ndarray:
    """g = W^T w for the s cells of the axis, in O(m + s) index work."""
    return _cell_sums(pn, s, *(np.add.reduceat(w * u, pn.runs)
                               for u in (pn.lo_weight, pn.mid_weight, pn.hi_weight)),
                      _inside(pn, s))


def _box_gram(pn: BoxPanels, w: np.ndarray, s: int) -> np.ndarray:
    """G = W^T diag(w) W for the s cells of the axis, from per-run node sums.

    A row of W is lo_weight at lo, mid_weight inside (lo, hi) and hi_weight
    at hi.  The diagonal adds each weight squared, as g adds the weights.
    Above it, i < j: the runs with lo = i or i inside that hold j inside
    are those from first[j] on among the runs below stop[i] or with lo = i,
    so the entries of row i are sums from the far end of one row of run
    sums; the runs with hi = j that hold i inside are those below stop[i],
    a sum from the near end of row j; and i = lo, j = hi is one run sum.
    No sum is a difference.
    """
    def run_sums(u, v):
        return np.add.reduceat(w * u * v, pn.runs)

    lw, mw, hw = pn.lo_weight, pn.mid_weight, pn.hi_weight
    first, stop = inside = _inside(pn, s)
    q = np.arange(pn.runs.size)
    inner = run_sums(mw, mw)
    # each run has its own (lo, hi), so no index below repeats
    tail = np.zeros((s + 1, q.size + 1))
    tail[:s, :-1] = np.where(q < stop[:, None], inner, 0.0)
    tail[pn.lo, q] += run_sums(lw, mw)
    tail = np.cumsum(tail[:, ::-1], axis=1)[:, ::-1]
    head = np.zeros((s + 1, q.size + 1))
    head[pn.hi, q + 1] = run_sums(hw, mw)
    head = np.cumsum(head, axis=1)
    ends = np.zeros((s + 1, s + 1))
    ends[pn.lo, pn.hi] = run_sums(lw, hw)
    upper = np.triu(tail[:s, first] + head[:s, stop].T + ends[:s, :s], 1)
    diag = _cell_sums(pn, s, run_sums(lw, lw), inner, run_sums(hw, hw), inside)
    return upper + upper.T + np.diag(diag)


def _box_along(pn: BoxPanels, values: np.ndarray, axis: int, start: int = 0,
               stop: int | None = None) -> np.ndarray:
    """``W[start:stop] @ values`` along one axis: T at those points, from range sums.

    The axis's cells are replaced by the points.  Each run's two end cells
    and its interior slice sum are read once and repeated over its points.
    """
    v = np.moveaxis(values, axis, 0)
    s = v.shape[0]
    flat = np.concatenate([v.reshape(s, -1), np.zeros((1, v[0].size))])  # row s: past the grid
    m = pn.lo_weight.size
    stop = m if stop is None else min(stop, m)
    counts = np.diff(np.clip(np.append(pn.runs, m), start, stop))
    out = 0.0
    for u, rows in ((pn.lo_weight, flat[pn.lo]), (pn.hi_weight, flat[pn.hi]),
                    (pn.mid_weight, _range_sums(flat[:s], pn.lo + 1, pn.hi))):
        part = np.repeat(rows, counts, axis=0)
        part *= u[start:stop, None]
        out += part
        del part  # one part alive at a time
    return np.moveaxis(out.reshape(out.shape[:1] + v.shape[1:]), 0, axis)


def contract_axes(values: np.ndarray, mats) -> np.ndarray:
    """Apply one matrix per axis: out[i0, i1, ...] = sum_c values[c] prod_k M_k[i_k, c_k]."""
    out = values
    for k, m in enumerate(mats):
        out = np.moveaxis(np.tensordot(m, out, axes=([1], [k])), 0, k)
    return out


def cumulative_integral(phi: GridFunction, points: list[np.ndarray]) -> np.ndarray:
    """Exact integral of phi over [0, y] for all y on the tensor grid of points.

    Axis k contributes the overlaps of its cells [j c, (j+1) c) with [0, y_k].
    """
    if any(o != 0.0 for o in phi.origin):
        raise PreconditionError("box averaging requires the grid anchored at the origin")
    return contract_axes(phi.values, [
        np.clip(np.asarray(p, dtype=np.float64)[:, None] - np.arange(s) * c, 0.0, c)
        for p, s, c in zip(points, phi.shape, phi.cell_sizes)])


def box_average_on_grid(phi: GridFunction, points: list[np.ndarray]) -> np.ndarray:
    """Exact dyadic-box average T phi at all points of a tensor grid.

    T phi is separable: T phi(x) = sum_c phi_c prod_k W_k(x_k, c_k), with W_k
    the box matrix of axis k (``BoxPanels``).  One ``_box_along`` per axis
    applies the rows of W_k at the points of axis k, sorted for
    ``_axis_panels`` and put back in their order, in O(m_k + s_k) index work
    for m_k points and s_k cells; no m_k x s_k matrix is formed.
    """
    xs = [np.asarray(p, dtype=np.float64) for p in points]
    if not all(np.all(x > 0) for x in xs):
        raise ParameterError("box average requires strictly positive coordinates")
    if any(o != 0.0 for o in phi.origin):
        raise PreconditionError("box averaging requires the grid anchored at the origin")
    out = phi.values
    for k, (x, s, c) in enumerate(zip(xs, phi.shape, phi.cell_sizes)):
        order = np.argsort(x, kind="stable")
        out = _box_along(_axis_panels(x[order], s, c), out, k)
        out = np.take(out, np.argsort(order), axis=k)
    return out


def box_average(phi: GridFunction, x) -> float:
    """T phi(x): exact average of phi over the dyadic box [x/2, x]."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    return float(box_average_on_grid(phi, [np.array([xi]) for xi in x]).ravel()[0])


def box_average_field(phi: GridFunction) -> GridFunction:
    """T phi evaluated at every cell's upper corner, as a grid function."""
    points = [
        np.arange(1, s + 1, dtype=np.float64) * c
        for s, c in zip(phi.shape, phi.cell_sizes)
    ]
    vals = box_average_on_grid(phi, points)
    return GridFunction(vals, phi.cell_sizes, phi.origin, halfspace=True)
