"""Level-set geometry: projections, Loomis-Whitney, minimal-projection chains,
the anisotropic gauge construction, and the dyadic-box averaging operator.

All set arithmetic is exact integer cell counting; tie-breaking is
lexicographic everywhere, so the whole pipeline is a pure function of its
input.

The gauge puts every dyadic shell through each minimal-projection step at
once: one bincount and one lexsort per axis over all (lattice point, cell)
pairs, O(P log P) for P = total shell size, instead of one chain of re-sorted
cell sets per lattice point.

The box average T phi(x) over [x/2, x] is separable: T phi(x) =
sum_c phi_c prod_k W_k(x_k, c_k), where the 1-D box matrix W_k(x, c) is the
overlap of cell c with [x/2, x] divided by x/2.  On a tensor grid with m_k
points and s_k cells per axis it costs one (m_k x s_k) matrix per axis and
one tensordot per axis, instead of 2^n signed cumulative integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ParameterError, PreconditionError
from .grid import GridFunction
from .rearrange import iterated_rearrangement, strict_order, strictify


@dataclass(frozen=True)
class CellSet:
    """Finite set of grid cells, optionally with one fractional boundary cell."""

    indices: np.ndarray            # (m, n) int, sorted lexicographically
    shape: tuple[int, ...]
    cell_sizes: tuple[float, ...]
    frac_index: tuple[int, ...] | None = None
    frac_weight: float = 0.0

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64).reshape(-1, len(self.shape))
        order = np.lexsort(idx.T[::-1])
        idx = idx[order]
        object.__setattr__(self, "indices", idx)
        if idx.shape[0] > 1 and np.any(np.all(np.diff(idx, axis=0) == 0, axis=1)):
            raise ParameterError("duplicate cells in CellSet")
        if self.frac_index is not None and not 0.0 < self.frac_weight < 1.0:
            raise ParameterError("fractional weight must lie in (0, 1)")
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
        extra = self.frac_weight if self.frac_index is not None else 0.0
        return (self.count + extra) * self.cell_volume

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
    """Exact column counting for the orthogonal projection along axis j.

    A fractional boundary cell contributes its fraction to the section measure
    but a full unit to the projection (conservative upper bound).
    """
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
    if E.frac_index is not None:
        raise PreconditionError("Loomis-Whitney check requires an integer cell set")
    n = E.dims
    lhs = E.count ** (n - 1)
    rhs = 1
    for j in range(n):
        rhs *= projection_profile(E, j).projection_count
    return LoomisWhitneyReport(lhs, rhs, lhs <= rhs)


# --- superlevel sets and chains -------------------------------------------------

def superlevel_filling(f: GridFunction, t: float) -> CellSet:
    """The first t/v cells of a strictified function in its strict value order."""
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
    target_cells: float
    projection_count: int


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
            steps.append(ChainStep(j, 0, 0, 0.0, 0))
            continue
        codes = _column_codes(cur, j)
        cols, section_counts = np.unique(codes, return_counts=True)
        # sort columns: section count descending, lexicographic key (code) ascending
        order = np.lexsort((cols, -section_counts))
        counts = section_counts[order]
        target = cur.count / 2.0
        cum = np.cumsum(counts)
        nsel = int(np.searchsorted(cum, target, side="left")) + 1
        nsel = min(nsel, counts.size)
        mask = np.isin(codes, cols[order[:nsel]])
        nxt = CellSet(cur.indices[mask], cur.shape, cur.cell_sizes)
        chain.append(nxt)
        steps.append(ChainStep(j, nsel, nxt.count, target, nsel))
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
    """Construct the anisotropic gauge for the strictified iterated rearrangement.

    For each lattice measure t (divisible by twice the cell volume) the dyadic
    shell G_t is the slab of cells between the t/2- and t-prefixes of the
    strict order; the minimal-projection chain supplies G_{t,j}, and
    mu_j(t) = 2^((n^2 - 1)/n) * projection measure of G_{t,j}.

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
    g = strictify(iterated_rearrangement(f, order))
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

def _cumulative_weights(coords: np.ndarray, nk: int, c: float) -> np.ndarray:
    """Overlap of each cell [j c, (j+1) c) with [0, y] for each y in coords."""
    j = np.arange(nk, dtype=np.float64) * c
    return np.clip(coords[:, None] - j[None, :], 0.0, c)


def cumulative_integral(phi: GridFunction, points: list[np.ndarray]) -> np.ndarray:
    """Exact integral of phi over [0, y] for all y on the tensor grid of points."""
    if any(o != 0.0 for o in phi.origin):
        raise PreconditionError("box averaging requires the grid anchored at the origin")
    out = phi.values
    for k in range(phi.dims):
        w = _cumulative_weights(np.asarray(points[k], dtype=np.float64),
                                phi.shape[k], phi.cell_sizes[k])
        out = np.tensordot(w, out, axes=([1], [k]))
        out = np.moveaxis(out, 0, k)
    return out


def box_weights(coords, nk: int, c: float) -> np.ndarray:
    """The 1-D box-average matrix W(x, j) of one axis, shape (len(coords), nk).

    W(x, j) is the overlap of cell [j c, (j+1) c) with [x/2, x], divided by
    the box side x/2, so that (W @ v)(x) is the average over [x/2, x] of the
    step function with cell values v.  Coordinates must be positive.
    """
    x = np.asarray(coords, dtype=np.float64)
    if np.any(x <= 0):
        raise ParameterError("box average requires strictly positive coordinates")
    lo = np.maximum((x / 2.0)[:, None], np.arange(nk, dtype=np.float64) * c)
    w = np.minimum(x[:, None], np.arange(1, nk + 1, dtype=np.float64) * c)
    w -= lo
    np.maximum(w, 0.0, out=w)
    w /= (x / 2.0)[:, None]
    return w


def contract_axes(values: np.ndarray, mats) -> np.ndarray:
    """Apply one matrix per axis: out[i0, i1, ...] = sum_c values[c] prod_k M_k[i_k, c_k]."""
    out = values
    for k, m in enumerate(mats):
        out = np.moveaxis(np.tensordot(m, out, axes=([1], [k])), 0, k)
    return out


def box_average_on_grid(phi: GridFunction, points: list[np.ndarray]) -> np.ndarray:
    """Exact dyadic-box average T phi at all points of a tensor grid.

    T phi is separable: T phi(x) = sum_c phi_c prod_k W_k(x_k, c_k), with W_k
    the 1-D box matrix of axis k (``box_weights``).  The tensor grid costs one
    tensordot per axis, about sum_k (m_0 ... m_k)(s_k ... s_(n-1)) products for
    m_k points and s_k cells on axis k.
    """
    mats = [box_weights(p, s, c) for p, s, c in zip(points, phi.shape, phi.cell_sizes)]
    if any(o != 0.0 for o in phi.origin):
        raise PreconditionError("box averaging requires the grid anchored at the origin")
    return contract_axes(phi.values, mats)


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
