"""Shift-difference norms, partial moduli of continuity, Steklov means.

For a piecewise-constant representative the p-th power of the shift-difference
norm is exactly piecewise linear in the shift h, with breakpoints at integer
multiples of the cell size.  Everything here exploits that: moduli, their
integrals, and their suprema are all closed-form, with no quadrature error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, PreconditionError
from .grid import GridFunction
from .rearrange import is_mdec


def _shift_power_profile(f: GridFunction, k: int, p: float) -> np.ndarray:
    """Ip[j] = I_k(f; j*c_k)_p^p for j = 0..N_k; constant beyond j = N_k.

    Zero extension outside the grid; for halfspace functions mass crossing the
    coordinate hyperplane x_k = 0 is not counted (shifts compared inside the
    domain only).
    """
    if not 0 <= k < f.dims:
        raise ParameterError(f"axis {k} out of range for dims={f.dims}")
    a = np.moveaxis(f.values, k, 0)
    n = a.shape[0]
    v = f.cell_volume
    powsum = lambda x: float(np.sum(np.abs(x) ** p, dtype=np.float64))
    out = np.empty(n + 1, dtype=np.float64)
    out[0] = 0.0
    for j in range(1, n + 1):
        inner = powsum(a[j:] - a[:-j]) if j < n else 0.0
        right = powsum(a[n - j:])
        left = 0.0 if f.halfspace else powsum(a[:j])
        out[j] = (inner + right + left) * v
    return out


def shift_difference_norm(f: GridFunction, k: int, h: float, p: float) -> float:
    """Exact I_k(f; h)_p for arbitrary real h via the piecewise-linear identity."""
    return modulus_curve(f, k, p).shift_norm(h)


def _interp_profile(prof: np.ndarray, c: float, h: float) -> float:
    """Evaluate the piecewise-linear p-th power profile at shift h >= 0."""
    jmax = prof.size - 1
    if h >= jmax * c:
        return float(prof[-1])
    m = int(h // c)
    s = h - m * c
    return float(((c - s) * prof[m] + s * prof[min(m + 1, jmax)]) / c)


@dataclass(frozen=True)
class ModulusCurve:
    """Exact partial modulus curve: omega^p is piecewise linear between nodes.

    ``deltas`` starts at 0 with omega(0) = 0; the curve is constant beyond the
    last node.  Linear interpolation of omega^p is exact for piecewise-constant
    representatives, including below the cell scale.
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
        return out if out.ndim else float(out)

    def __call__(self, delta):
        return self.power_at(delta) ** (1.0 / self.p)

    @property
    def sup_value(self) -> float:
        return float(self.omega_p[-1]) ** (1.0 / self.p)

    def shift_norm(self, h: float) -> float:
        """Exact I_k(f; h)_p for arbitrary real h via the piecewise-linear identity."""
        return _interp_profile(self.profile, self.cell_size, abs(h)) ** (1.0 / self.p)

    def shift_integral(self, delta: float) -> float:
        """Exact ``integral_0^delta I_k(f; h)_p dh`` (closed form per linear piece)."""
        prof, c, p = self.profile, self.cell_size, self.p
        total = 0.0
        h0 = 0.0
        j = 0
        while h0 < delta:
            h1 = min((j + 1) * c, delta)
            if j >= prof.size - 1:
                total += float(prof[-1]) ** (1.0 / p) * (delta - h0)
                break
            lo, hi = float(prof[j]), float(prof[j + 1])
            b = (hi - lo) / c
            a = lo - b * j * c
            if b == 0.0:
                total += a ** (1.0 / p) * (h1 - h0)
            else:
                e = 1.0 + 1.0 / p
                total += ((a + b * h1) ** e - (a + b * h0) ** e) / (b * e)
            h0 = h1
            j += 1
        return total


def _running_max_curve(prof: np.ndarray, c: float) -> tuple[np.ndarray, np.ndarray]:
    """Running max of a piecewise-linear profile, with crossing nodes inserted."""
    deltas = [0.0]
    wp = [float(prof[0])]
    m = float(prof[0])
    for j in range(prof.size - 1):
        lo, hi = float(prof[j]), float(prof[j + 1])
        t0, t1 = j * c, (j + 1) * c
        if hi <= m:
            deltas.append(t1)
            wp.append(m)
        else:
            if lo < m:
                t_star = t0 + c * (m - lo) / (hi - lo)
                if t_star > deltas[-1]:
                    deltas.append(t_star)
                    wp.append(m)
            deltas.append(t1)
            wp.append(hi)
            m = hi
    # drop redundant collinear flat nodes
    d = np.asarray(deltas)
    w = np.asarray(wp)
    keep = np.ones(d.size, dtype=bool)
    for i in range(1, d.size - 1):
        if w[i] == w[i - 1] and w[i] == w[i + 1]:
            keep[i] = False
    return d[keep], w[keep]


def modulus_curve(f: GridFunction, k: int, p: float) -> ModulusCurve:
    """Exact curve of the partial modulus omega_k(f; .)_p.

    The curve carries the shift-power profile, so one curve per (f, k, p)
    gives the modulus, the shift norms and their integral (``shift_norm``,
    ``shift_integral``) and the axis seminorms (``besov_seminorm``,
    ``lipschitz_seminorm``) from one computation.
    """
    if p < 1:
        raise ParameterError(f"p must be >= 1, got {p}")
    prof = _shift_power_profile(f, k, p)
    c = f.cell_sizes[k]
    d, w = _running_max_curve(prof, c)
    return ModulusCurve(k, p, d, w, prof, c)


def partial_modulus(f: GridFunction, k: int, delta: float, p: float) -> float:
    """omega_k(f; delta)_p = sup over |h| <= delta of I_k(f; h)_p, exact."""
    if delta < 0:
        raise ParameterError(f"delta must be >= 0, got {delta}")
    curve = modulus_curve(f, k, p)
    return float(curve(delta)) if delta > 0 else 0.0


def shift_norm_integral(f: GridFunction, k: int, delta: float, p: float) -> float:
    """Exact ``integral_0^delta I_k(f; h)_p dh`` (closed form per linear piece)."""
    return modulus_curve(f, k, p).shift_integral(delta)


def interval_modulus_1d(f: GridFunction, delta: float, p: float) -> float:
    """Partial modulus of a 1-D function on the interval [0, extent], no extension.

    This is the [0, 1]-setting modulus: shifted differences are integrated over
    x with both x and x + h inside the interval.  Exact via the same
    piecewise-linear-in-h identity.
    """
    if f.dims != 1:
        raise PreconditionError("interval modulus is defined for 1-D functions")
    a = f.values
    n = a.size
    c = f.cell_sizes[0]
    jmax = min(n, int(np.floor(delta / c)) + 1)
    prof = np.empty(jmax + 1, dtype=np.float64)
    for j in range(jmax + 1):
        prof[j] = float(np.sum(np.abs(a[j:] - a[: n - j]) ** p)) * c if j < n else 0.0
    d, w = _running_max_curve(prof, c)
    curve = ModulusCurve(0, p, d, w, prof, c)
    return float(curve(min(delta, jmax * c)))


# --- Steklov means ------------------------------------------------------------

def _steklov_weights(h: float, c: float) -> np.ndarray:
    """Cell-average weights of the one-sided moving mean over window [0, h].

    weights[l] multiplies f at offset +l cells; sum of weights equals h.
    """
    m = int(h // c)
    s0 = h - m * c
    w = np.zeros(m + 2, dtype=np.float64)
    for l in range(m):
        w[l] += c / 2.0
        w[l + 1] += c / 2.0
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
    if h <= 0:
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
    if h <= 0:
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
    if h <= 0:
        raise ParameterError(f"window h must be > 0, got {h}")
    return modulus_curve(f, j, p).shift_norm(h) / h


def steklov_distance(f: GridFunction, h: float, j: int, p: float) -> float:
    """Exact ||f - f_{h,j}||_p using the cell-averaged Steklov mean."""
    fh = steklov_mean(f, h, j)
    # embed f on fh's (extended) grid: fh has extra cells at the low end of axis j
    extra = fh.shape[j] - f.shape[j]
    pad = [(extra if i == j else 0, 0) for i in range(f.dims)]
    emb = np.pad(f.values, pad)
    diff = np.abs(emb - fh.values)
    return (float(np.sum(diff**p, dtype=np.float64)) * f.cell_volume) ** (1.0 / p)


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
