"""Shift-difference norms, partial moduli of continuity, Steklov means.

For a piecewise-constant representative the p-th power of the shift-difference
norm is exactly piecewise linear in the shift h, with breakpoints at integer
multiples of the cell size.  Everything here exploits that: moduli, their
integrals, and their suprema are all closed-form, with no quadrature error.

One shift-power profile per (f, k, p) carries all of it.  Its inner sums over
pairs of cells j apart come from ``_diagonal_power_sums``, a blocked
offset-sum pass: O(N_k * size) array work, temporaries near ``_BLOCK``
elements and no Python step per shift.  The Gagliardo offset sums of
``norms`` use it for the zero leading offset only.  The curve readers take
an array of shifts, and ``steklov_distances`` gives the Steklov distances
of every window of one (f, k, p) in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ParameterError, PreconditionError
from .grid import GridFunction
from .rearrange import is_mdec

_BLOCK = 1 << 15  # float64 elements in one array temporary of the offset sums


def _diagonal_power_sums(moved: np.ndarray, fixed: np.ndarray, p: float) -> np.ndarray:
    """sum over rows r and y of |moved[r, y + j] - fixed[r, y]|^p for j = 1..L-1.

    ``fixed`` is (rows, L); ``moved`` holds the same rows zero-padded to 2L.
    Blocks of offsets j and of rows keep every temporary near ``_BLOCK``
    elements.  Each offset's pairs are laid out contiguously behind one zero
    and summed by ``np.add.reduceat``, which reduces such a run exactly as
    ``np.sum`` reduces the pairs alone.  These are the inner sums of the
    shift-power profile and of the interval curve, and the Gagliardo offset
    sums of the zero leading offset, 1-D included.  A nonzero leading offset
    pairs two different slabs, which ``norms._lead_power_sums`` sums.
    """
    rows, size = fixed.shape
    out = np.empty(size - 1)
    j = 1
    while j < size:
        span = size - j  # pairs of offset j; the later offsets of a block have fewer
        width = span + 2  # a zero, the pairs, one spare zero column
        k = max(1, min(span, _BLOCK // width))
        rows_per_block = max(1, _BLOCK // (k * width))
        acc = np.zeros((k, width))
        # windows[r, i, y] = moved[r, j + i + y]: a view of k + span - 1 columns
        part = moved[:, j:j + k + span - 1]
        windows = as_strided(part, (rows, k, span), part.strides + part.strides[1:],
                             writeable=False)
        for r in range(0, rows, rows_per_block):
            diff = windows[r:r + rows_per_block] - fixed[r:r + rows_per_block, None, :span]
            np.abs(diff, out=diff)
            if p != 1.0:
                np.power(diff, p, out=diff)
            acc[:, 1:-1] += diff.sum(axis=0)
        # the run of offset j + i: its zero, then its span - i pairs
        starts = np.arange(k) * width
        bounds = np.stack([starts, starts + 1 + span - np.arange(k)], axis=1)
        out[j - 1:j - 1 + k] = np.add.reduceat(acc.ravel(), bounds.ravel())[::2]
        j += k
    return out


def _axis_rows(values: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The lines of ``values`` along axis k as rows, and those rows zero-padded to 2 N_k."""
    n = values.shape[k]
    rows = np.moveaxis(values, k, -1).reshape(-1, n)
    padded = np.zeros((rows.shape[0], 2 * n))
    padded[:, :n] = rows
    return rows, padded


def _shift_power_profile(f: GridFunction, k: int, p: float) -> np.ndarray:
    """Ip[j] = I_k(f; j*c_k)_p^p for j = 0..N_k; constant beyond j = N_k.

    Zero extension outside the grid; for halfspace functions mass crossing the
    coordinate hyperplane x_k = 0 is not counted (shifts compared inside the
    domain only).  The inner sums over pairs j cells apart along axis k come
    from ``_diagonal_power_sums`` in one blocked pass; the pairs that leave
    the grid on either side are cumulative sums of the per-slice power sums.
    The work is O(N_k * size) array work with temporaries near ``_BLOCK``.
    """
    if not 0 <= k < f.dims:
        raise ParameterError(f"axis {k} out of range for dims={f.dims}")
    rows, padded = _axis_rows(f.values, k)
    n = rows.shape[1]
    slices = np.sum(np.abs(rows) ** p, axis=0)
    out = np.zeros(n + 1)
    out[1:n] = _diagonal_power_sums(padded, rows, p)
    out[1:] += np.cumsum(slices[::-1])
    if not f.halfspace:
        out[1:] += np.cumsum(slices)
    out *= f.cell_volume
    return out


def shift_difference_norm(f: GridFunction, k: int, h: float, p: float) -> float:
    """Exact I_k(f; h)_p for arbitrary real h via the piecewise-linear identity."""
    return modulus_curve(f, k, p).shift_norm(h)


def _scalar_or_array(out: np.ndarray):
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class ModulusCurve:
    """Exact partial modulus curve: omega^p is piecewise linear between nodes.

    ``deltas`` starts at 0 with omega(0) = 0; the curve is constant beyond the
    last node.  Linear interpolation of omega^p is exact for piecewise-constant
    representatives, including below the cell scale.  Every reader takes a
    scalar or an array of shifts.
    """

    axis: int
    p: float
    deltas: np.ndarray
    omega_p: np.ndarray  # omega(delta)^p at the nodes
    profile: np.ndarray  # shift-power profile I^p at multiples of cell_size
    cell_size: float

    def __post_init__(self):
        for name in ("deltas", "omega_p", "profile"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def power_at(self, delta):
        delta = np.asarray(delta, dtype=np.float64)
        out = np.interp(delta, self.deltas, self.omega_p)
        return _scalar_or_array(out)

    def __call__(self, delta):
        return self.power_at(delta) ** (1.0 / self.p)

    @property
    def sup_value(self) -> float:
        return float(self.omega_p[-1]) ** (1.0 / self.p)

    def shift_norm(self, h):
        """Exact I_k(f; h)_p for arbitrary real h via the piecewise-linear identity."""
        prof, c = self.profile, self.cell_size
        h = np.abs(np.asarray(h, dtype=np.float64))
        jmax = prof.size - 1
        m = np.minimum(h // c, jmax)
        s = h - m * c
        m = m.astype(np.intp)
        power = ((c - s) * prof[m] + s * prof[np.minimum(m + 1, jmax)]) / c
        power = np.where(h >= jmax * c, prof[-1], power)
        return _scalar_or_array(power ** (1.0 / self.p))

    def shift_integral(self, delta):
        """Exact ``integral_0^delta I_k(f; h)_p dh`` (closed form per linear piece).

        The pieces between the nodes j*c are added left to right, and the
        piece up to delta is added last.
        """
        prof, c, p = self.profile, self.cell_size, self.p
        delta = np.asarray(delta, dtype=np.float64)
        jmax = prof.size - 1
        slope = (prof[1:] - prof[:-1]) / c  # of I^p on [j c, (j + 1) c]
        before = np.concatenate([[0.0], np.cumsum(_power_pieces(prof[:-1], slope, c, p))])
        # the nodes j*c below delta start its pieces: (last - 1) c < delta <= last c
        d = np.atleast_1d(delta)
        last = np.searchsorted(np.arange(jmax + 1) * c, d, side="left")
        out = np.zeros(d.shape)
        inside = (last >= 1) & (last <= jmax)
        seg = last[inside] - 1
        out[inside] = before[seg] + _power_pieces(prof[seg], slope[seg], d[inside] - seg * c, p)
        tail = last > jmax
        out[tail] = before[-1] + float(prof[-1]) ** (1.0 / p) * (d[tail] - jmax * c)
        return _scalar_or_array(out.reshape(delta.shape))


def _power_pieces(u0, slope, span, p: float) -> np.ndarray:
    """integral from 0 to span of (u0 + slope h)^(1/p) dh, elementwise.

    With x = slope span / u0 and e = 1 + 1/p the integral is
    span u0^(1/p) ((1 + x)^e - 1) / (e x).  Taken through ``expm1`` and
    ``log1p`` for |x| < 1, it keeps full relative accuracy on nearly flat
    pieces, where the difference of the two end powers cancels.
    """
    u0, slope, span = np.broadcast_arrays(u0, slope, span)
    e = 1.0 + 1.0 / p
    rise = slope * span
    out = np.empty(u0.shape)
    flat = rise == 0.0
    out[flat] = u0[flat] ** (1.0 / p) * span[flat]
    mild = ~flat & (np.abs(rise) < u0)
    x = rise[mild] / u0[mild]
    out[mild] = span[mild] * u0[mild] ** (1.0 / p) * np.expm1(e * np.log1p(x)) / (e * x)
    steep = ~flat & ~mild
    u1 = np.maximum(u0[steep] + rise[steep], 0.0)
    out[steep] = (u1**e - u0[steep] ** e) / (slope[steep] * e)
    return out


def _running_max_curve(prof: np.ndarray, c: float) -> tuple[np.ndarray, np.ndarray]:
    """Running max of a piecewise-linear profile, with crossing nodes inserted.

    Segment j runs from node j*c to (j + 1)*c.  Where it rises above the
    running max m of the earlier nodes from below m, the crossing
    j*c + c (m - lo) / (hi - lo) becomes a node.  Interior nodes level with
    both neighbours are dropped; that also drops the node j*c when the
    crossing rounds onto it, since both sit at m after a node at m.  A
    crossing that rounds onto the end node (j + 1)*c would repeat that
    delta, so a node whose delta equals the next node's is dropped too.
    """
    top = np.maximum.accumulate(prof)
    lo, hi, m = prof[:-1], prof[1:], top[:-1]
    size = lo.size
    # node 0, then per segment its crossing node (if any) and its end node
    d = np.empty(2 * size + 1)
    w = np.empty(2 * size + 1)
    keep = np.ones(2 * size + 1, dtype=bool)
    d[0], w[0] = 0.0, prof[0]
    d[2::2] = np.arange(1, size + 1) * c
    w[2::2] = top[1:]
    w[1::2] = m
    cross = (hi > m) & (lo < m)
    t0 = np.arange(size)[cross] * c
    t_star = t0 + c * (m[cross] - lo[cross]) / (hi[cross] - lo[cross])
    d[1::2][cross] = t_star
    keep[1::2] = cross
    d, w = d[keep], w[keep]
    flat = np.zeros(d.size, dtype=bool)
    flat[1:-1] = (w[1:-1] == w[:-2]) & (w[1:-1] == w[2:])
    d, w = d[~flat], w[~flat]
    last = np.append(d[:-1] != d[1:], True)
    return d[last], w[last]


def modulus_curve(f: GridFunction, k: int, p: float) -> ModulusCurve:
    """Exact curve of the partial modulus omega_k(f; .)_p.

    The curve carries the shift-power profile, so one curve per (f, k, p)
    gives the modulus, the shift norms and their integral (``shift_norm``,
    ``shift_integral``) and the axis seminorms (``besov_seminorm``,
    ``lipschitz_seminorm``) from one computation.
    """
    if not p >= 1:
        raise ParameterError(f"p must be >= 1, got {p}")
    prof = _shift_power_profile(f, k, p)
    c = f.cell_sizes[k]
    d, w = _running_max_curve(prof, c)
    return ModulusCurve(k, p, d, w, prof, c)


def partial_modulus(f: GridFunction, k: int, delta: float, p: float) -> float:
    """omega_k(f; delta)_p = sup over |h| <= delta of I_k(f; h)_p, exact."""
    if not delta >= 0:
        raise ParameterError(f"delta must be >= 0, got {delta}")
    curve = modulus_curve(f, k, p)
    return float(curve(delta)) if delta > 0 else 0.0


def shift_norm_integral(f: GridFunction, k: int, delta: float, p: float) -> float:
    """Exact ``integral_0^delta I_k(f; h)_p dh`` (closed form per linear piece)."""
    return modulus_curve(f, k, p).shift_integral(delta)


def interval_curve_1d(f: GridFunction, p: float) -> ModulusCurve:
    """Modulus curve of a 1-D function on the interval [0, extent], no extension.

    This is the [0, 1]-setting modulus: shifted differences are integrated over
    x with both x and x + h inside the interval, so the profile is the inner
    sums of ``_diagonal_power_sums`` alone, zero from h = extent on.  Exact via
    the same piecewise-linear-in-h identity.
    """
    if f.dims != 1:
        raise PreconditionError("interval modulus is defined for 1-D functions")
    if not p >= 1:
        raise ParameterError(f"p must be >= 1, got {p}")
    rows, padded = _axis_rows(f.values, 0)
    n = rows.shape[1]
    c = f.cell_sizes[0]
    prof = np.zeros(n + 1)
    prof[1:n] = _diagonal_power_sums(padded, rows, p) * c
    d, w = _running_max_curve(prof, c)
    return ModulusCurve(0, p, d, w, prof, c)


def interval_modulus_1d(f: GridFunction, delta: float, p: float) -> float:
    """Partial modulus of a 1-D function on the interval [0, extent], no extension.

    ``interval_curve_1d(f, p)`` read at delta.
    """
    return float(interval_curve_1d(f, p)(delta))


# --- Steklov means ------------------------------------------------------------

def _steklov_weights(h: float, c: float) -> np.ndarray:
    """Cell-average weights of the one-sided moving mean over window [0, h].

    weights[l] multiplies f at offset +l cells; sum of weights equals h.
    """
    m = int(h // c)
    s0 = h - m * c
    w = np.zeros(m + 2, dtype=np.float64)
    w[:m] += c / 2.0
    w[1:m + 1] += c / 2.0
    if s0 > 0:
        w[m] += (c * s0 - s0 * s0 / 2.0) / c
        w[m + 1] += (s0 * s0 / 2.0) / c
    return w


def steklov_mean(f: GridFunction, h: float, j: int) -> GridFunction:
    """Cell averages of the exact one-sided moving mean along axis j, window [0, h].

    The continuous Steklov mean of a piecewise-constant f is piecewise linear
    along x_j; averaging it back over cells is an L^p contraction of f - f_h,
    so the contraction bound by the partial modulus is preserved exactly.
    Support grows by h on the low side of axis j.
    """
    if not h > 0:
        raise ParameterError(f"window h must be > 0, got {h}")
    if not 0 <= j < f.dims:
        raise ParameterError(f"axis {j} out of range for dims={f.dims}")
    c = f.cell_sizes[j]
    w = _steklov_weights(h, c) / h
    a = np.moveaxis(f.values, j, 0)
    n = a.shape[0]
    ext = w.size - 1
    out = np.zeros((n + ext,) + a.shape[1:], dtype=np.float64)
    for l, wl in enumerate(w):
        if wl != 0.0:
            out[ext - l : ext - l + n] += wl * a
    out = np.moveaxis(out, 0, j)
    origin = tuple(o - ext * c if i == j else o for i, o in enumerate(f.origin))
    return GridFunction(out, f.cell_sizes, origin, halfspace=False)


def steklov_axis_derivative(f: GridFunction, h: float, j: int) -> GridFunction:
    """|d f_{h,j} / d x_j| = |f(x + h e_j) - f(x)| / h, exact for cell-aligned h."""
    if not h > 0:
        raise ParameterError(f"window h must be > 0, got {h}")
    c = f.cell_sizes[j]
    m = round(h / c)
    if abs(m * c - h) > 1e-12 * c or m == 0:
        raise ParameterError(
            "the derivative field is piecewise constant only for h an integer "
            f"multiple of the cell size {c}; got h={h}"
        )
    a = np.moveaxis(f.values, j, 0)
    n = a.shape[0]
    padded = np.concatenate([a, np.zeros((m,) + a.shape[1:])], axis=0)
    ext = 0 if f.halfspace else m
    out = np.zeros((n + ext,) + a.shape[1:], dtype=np.float64)
    out[ext:] = np.abs(padded[m:] - a) / h
    if ext:
        out[:ext] = np.abs(a[:m]) / h
    out = np.moveaxis(out, 0, j)
    origin = tuple(o - ext * c if i == j else o for i, o in enumerate(f.origin))
    return GridFunction(out, f.cell_sizes, origin, halfspace=f.halfspace)


def steklov_derivative_norm(f: GridFunction, h: float, j: int, p: float) -> float:
    """L^p norm of the Steklov axis derivative for arbitrary h > 0 (exact)."""
    if not h > 0:
        raise ParameterError(f"window h must be > 0, got {h}")
    return modulus_curve(f, j, p).shift_norm(h) / h


def steklov_distance(f: GridFunction, h: float, j: int, p: float) -> float:
    """Exact ||f - f_{h,j}||_p using the cell-averaged Steklov mean.

    On windows up to one cell f - f_{h,j} cancels, so this oracle loses about
    1e-13 relative there (4.3e-14 at h = c 2^-10, against 4.3e-16 for the
    closed form of ``steklov_distances``).
    """
    fh = steklov_mean(f, h, j)
    # embed f on fh's (extended) grid: fh has extra cells at the low end of axis j
    extra = fh.shape[j] - f.shape[j]
    pad = [(extra if i == j else 0, 0) for i in range(f.dims)]
    emb = np.pad(f.values, pad)
    diff = np.abs(emb - fh.values)
    return (float(np.sum(diff**p, dtype=np.float64)) * f.cell_volume) ** (1.0 / p)


def steklov_distances(f: GridFunction, curve: ModulusCurve, hs) -> np.ndarray:
    """``steklov_distance(f, h, j, p)`` for every window h in ``hs`` at once.

    ``curve`` is ``modulus_curve(f, j, p)``, which carries j and p; ``f`` is
    a full-space (not halfspace) function.  For 0 < h <= c the cell-averaged
    mean is (1 - t) f + t f(. + c e_j) with t = h / (2c), so the distance is
    t I_j(f; c)_p, read from the curve.  The longer windows go through
    ``_window_distances`` together.
    """
    if f.halfspace:
        raise PreconditionError("the Steklov distance compares on the full space; "
                                "pass the zero extension (halfspace=False)")
    hs = np.asarray(hs, dtype=np.float64)
    bad = ~(hs > 0)
    if np.any(bad):
        raise ParameterError(f"window h must be > 0, got {hs[bad][0]}")
    c = curve.cell_size
    out = np.empty(hs.shape)
    short = hs <= c
    out[short] = hs[short] / (2.0 * c) * curve.shift_norm(c)
    out[~short] = _window_distances(f, hs[~short], curve.axis, curve.p)
    return out


def _window_distances(f: GridFunction, hs: np.ndarray, j: int, p: float) -> np.ndarray:
    """||f - f_{h,j}||_p for windows h longer than a cell, by direct weighted sums.

    f_h at a cell is the sum over window offsets l of the nonnegative weights
    ``_steklov_weights(h, c)[l] / h`` times f at offset l, added in the order
    of l, as ``steklov_mean`` adds them; no prefix-sum differences, which
    cancel.  Windows and lines of axis j go in blocks whose accumulator holds
    about ``_BLOCK`` elements (at least one window and one line).
    """
    c = f.cell_sizes[j]
    lines = np.moveaxis(f.values, j, 0).reshape(f.shape[j], -1)
    n, count = lines.shape
    # cells the longest window adds on the low side: its weights have ext + 1 entries
    ext = int(np.max(hs, initial=0.0) // c) + 1
    length = n + ext
    per_block = max(1, _BLOCK // length)
    group = max(1, per_block // min(count, per_block))
    totals = np.zeros(hs.size)
    for g in range(0, hs.size, group):
        windows = hs[g:g + group]
        table = np.zeros((windows.size, int(np.max(windows) // c) + 2))
        for i, h in enumerate(windows):
            w = _steklov_weights(h, c) / h
            table[i, :w.size] = w
        for r in range(0, count, per_block):
            block = lines[:, r:r + per_block]
            acc = np.zeros((table.shape[0], length, block.shape[1]))
            for l in range(table.shape[1]):
                acc[:, ext - l:ext - l + n] += table[:, l, None, None] * block
            acc[:, ext:] -= block
            np.abs(acc, out=acc)
            if p != 1.0:
                np.power(acc, p, out=acc)
            totals[g:g + group] += acc.sum(axis=(1, 2))
    return (totals * f.cell_volume) ** (1.0 / p)


# --- modulus axioms -----------------------------------------------------------

@dataclass(frozen=True)
class AxiomCheck:
    name: str
    worst_ratio: float
    passed: bool


@dataclass(frozen=True)
class AxiomReport:
    checks: tuple[AxiomCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self):
        return [f"{c.name}: worst_ratio={c.worst_ratio:.6g} verdict={'pass' if c.passed else 'fail'}"
                for c in self.checks]


def modulus_axioms_check(curve: ModulusCurve, deltas=None, tol: float = 1e-9) -> AxiomReport:
    """Report on the modulus-of-continuity axioms for a sampled curve.

    Checks monotonicity, subadditivity at sampled pairs, the doubling bound
    omega(2d) <= 2 omega(d), quasi-monotonicity of omega(d)/d with factor 2,
    and agreement of the finest-scale slope with the sup of omega(d)/d.
    """
    if deltas is None:
        top = curve.deltas[-1] if curve.deltas[-1] > 0 else 1.0
        deltas = top * 2.0 ** -np.arange(12, -1, -1, dtype=np.float64)
    deltas = np.asarray(deltas, dtype=np.float64)
    deltas = deltas[deltas > 0]
    om = np.asarray(curve(deltas))

    checks = []

    drops = -np.diff(om) if om.size > 1 else np.zeros(0)
    worst_drop = float(np.max(drops)) if drops.size else 0.0
    checks.append(AxiomCheck("monotone", max(0.0, worst_drop),
                             bool(np.all(drops <= tol * np.maximum(om[1:], 1.0)))))

    worst = 0.0
    ok = True
    for i in range(deltas.size):
        for j in range(i, deltas.size):
            s = float(np.asarray(curve(deltas[i] + deltas[j])))
            bound = om[i] + om[j]
            if bound > 0:
                worst = max(worst, s / bound)
                ok = ok and s <= bound * (1.0 + tol)
    checks.append(AxiomCheck("subadditive", worst, ok))

    om2 = np.asarray(curve(2.0 * deltas))
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(om > 0, om2 / (2.0 * om), 0.0)
    checks.append(AxiomCheck("doubling", float(np.max(r)) if r.size else 0.0,
                             bool(np.all(om2 <= 2.0 * om * (1.0 + tol) + tol))))

    slopes = om / deltas
    worst_qm = 0.0
    ok_qm = True
    for i in range(deltas.size):
        for j in range(i + 1, deltas.size):  # deltas sorted ascending: h < mu
            if slopes[i] > 0:
                ratio = slopes[j] / (2.0 * slopes[i])
                worst_qm = max(worst_qm, ratio)
                ok_qm = ok_qm and ratio <= 1.0 + tol
    checks.append(AxiomCheck("slope-quasi-monotone", worst_qm, ok_qm))

    sup_slope = float(np.max(slopes)) if slopes.size else 0.0
    small_slope = float(slopes[0]) if slopes.size else 0.0
    gap = abs(small_slope - sup_slope) / sup_slope if sup_slope > 0 else 0.0
    checks.append(AxiomCheck("small-scale-slope-vs-sup", gap, gap <= 0.25))

    return AxiomReport(tuple(checks))
