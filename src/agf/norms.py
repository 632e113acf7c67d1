"""Lorentz, mixed-Lorentz, Besov, Lipschitz and Gagliardo functionals.

Everything except the Gagliardo double sum is closed-form on step structures
(the interior Besov pieces use fixed-order Gauss-Legendre on smooth integrands,
which is exact to machine precision at the scales used here).  The Gagliardo
seminorm is quadrature, quarantined behind a size guard with a refined
near-diagonal rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ParameterError, PreconditionError, ResourceError
from .grid import GridFunction
from .moduli import ModulusCurve, check_curve, modulus_curve
from .rearrange import is_mdec
from .step import StepFunction

_GAUSS_NODES = 48


@lru_cache(maxsize=None)
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)


def _gauss(fun, a: float, b: float) -> float:
    x, w = _leggauss(_GAUSS_NODES)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return float(half * np.sum(w * fun(mid + half * x)))


# --- Lorentz ------------------------------------------------------------------

def lorentz_norm(sf: StepFunction, p: float, r: float) -> float:
    """Lorentz norm ||f||_{p,r} of a nonincreasing step function, closed form."""
    if p <= 0:
        raise ParameterError(f"p must be > 0, got {p}")
    if r <= 0:
        raise ParameterError(f"r must be > 0, got {r}")
    if not sf.is_nonincreasing:
        raise PreconditionError("lorentz_norm expects a rearrangement (nonincreasing)")
    if sf.values.size == 0:
        return 0.0
    if math.isinf(r):
        return sf.weighted_sup(1.0 / p)
    # integral (t^{1/p} g)^r dt/t = sum v_i^r (p/r)(t_i^{r/p} - t_{i-1}^{r/p})
    left = np.concatenate([[0.0], sf.breakpoints[:-1]])
    acc = float(np.sum(sf.values**r * (sf.breakpoints ** (r / p) - left ** (r / p))))
    return (acc * p / r) ** (1.0 / r)


def mixed_lorentz_norm(g: GridFunction, p: float, r: float, order=None) -> float:
    """Mixed Lorentz norm built on an iterated rearrangement living on the orthant.

    ``g`` must be the iterated rearrangement R_sigma f (nonincreasing in each
    variable, anchored at the origin).  The weight pi(t)^{r/p - 1} factorizes,
    so the per-cell integral is an exact product of 1-D power integrals.
    """
    if p <= 0 or r <= 0:
        raise ParameterError(f"p and r must be > 0, got p={p}, r={r}")
    if not is_mdec(g):
        raise PreconditionError("mixed Lorentz norm requires a coordinate-wise nonincreasing input")
    if any(o != 0.0 for o in g.origin):
        raise PreconditionError("mixed Lorentz norm requires the grid anchored at the origin")
    vals = g.values
    if math.isinf(r):
        # sup pi(t)^{1/p} g(t): per cell attained at the upper corner
        corners = [
            (np.arange(1, s + 1, dtype=np.float64) * c) ** (1.0 / p)
            for s, c in zip(g.shape, g.cell_sizes)
        ]
        weight = corners[0]
        for arr in corners[1:]:
            weight = np.multiply.outer(weight, arr)
        return float(np.max(vals * weight)) if vals.size else 0.0
    e = r / p
    factors = [
        (np.arange(1, s + 1, dtype=np.float64) ** e - np.arange(s, dtype=np.float64) ** e)
        * (c**e) / e
        for s, c in zip(g.shape, g.cell_sizes)
    ]
    weight = factors[0]
    for arr in factors[1:]:
        weight = np.multiply.outer(weight, arr)
    return float(np.sum(vals**r * weight)) ** (1.0 / r)


# --- Besov / Lipschitz --------------------------------------------------------

def _curve_weighted_sup(curve: ModulusCurve, alpha: float):
    """sup_t t^-alpha omega(t) over the exact curve.

    Returns (value, attained_delta, at_finest_scale).  The sub-cell piece has
    omega^p = b t exactly, so the sup below the first node is closed form; it
    diverges when alpha > 1/p (reported as inf at scale 0).
    """
    p = curve.p
    d, w = curve.deltas, curve.omega_p
    if w[-1] == 0.0:
        return 0.0, 0.0, False
    best, best_d = -math.inf, 0.0
    # first segment: omega^p = b t on (0, d1]
    if d.size > 1 and w[1] > 0:
        b = w[1] / d[1]
        e = 1.0 / p - alpha
        if e < 0:
            return math.inf, 0.0, True
        if e == 0:
            val = b ** (1.0 / p)
            if val > best:
                best, best_d = val, d[1]
    # node candidates (per-segment maxima of t^{-alpha p}(a+bt) sit at endpoints)
    pos = d > 0
    cand = w[pos] ** (1.0 / p) * d[pos] ** (-alpha)
    i = int(np.argmax(cand))
    if cand[i] > best:
        best, best_d = float(cand[i]), float(d[pos][i])
    at_scale = best_d <= d[1] if d.size > 1 else True
    return best, best_d, at_scale


@dataclass(frozen=True)
class LipschitzValue:
    value: float
    attained_delta: float
    at_finest_scale: bool


def lipschitz_seminorm(f: GridFunction, k: int, alpha: float, p: float,
                       curve: ModulusCurve | None = None) -> LipschitzValue:
    """sup over delta of omega_k(f; delta)_p / delta^alpha, with attained scale."""
    if not 0 < alpha <= 1:
        raise ParameterError(f"alpha must be in (0, 1], got {alpha}")
    if curve is None:
        curve = modulus_curve(f, k, p)
    else:
        check_curve(curve, k, p)
    val, at, flag = _curve_weighted_sup(curve, alpha)
    return LipschitzValue(val, at, flag)


def besov_seminorm(f: GridFunction, k: int, alpha: float, theta: float, p: float,
                   curve: ModulusCurve | None = None) -> float:
    """Axis Besov seminorm (integral of (t^-alpha omega_k(f;t))^theta dt/t)^(1/theta).

    Closed form on the sub-cell and constant pieces, Gauss-Legendre on the
    interior smooth pieces, closed-form constant tail.  theta = inf gives the
    Lipschitz-type sup.  Returns inf when the sub-cell piece diverges
    (alpha >= 1/p for a genuinely discontinuous representative).
    """
    if not 0 < alpha < 1:
        raise ParameterError(f"alpha must be in (0, 1), got {alpha}")
    if theta < 1.0:
        raise ParameterError(f"theta must be >= 1, got {theta}")
    if curve is None:
        curve = modulus_curve(f, k, p)
    else:
        check_curve(curve, k, p)
    if math.isinf(theta):
        return _curve_weighted_sup(curve, alpha)[0]
    tp = theta / p
    at = alpha * theta
    acc = 0.0
    for d0, d1, a, b in curve.segments():
        if a == 0.0 and d0 == 0.0:
            if b == 0.0:
                continue
            e = tp - at
            if e <= 0:
                return math.inf
            acc += (b**tp) * (d1**e) / e
        elif b == 0.0:
            if a > 0.0:
                acc += (a**tp) * (d0 ** (-at) - d1 ** (-at)) / at
        else:
            acc += _gauss(lambda t: t ** (-at - 1.0) * (a + b * t) ** tp, d0, d1)
    wmax = float(curve.omega_p[-1])
    dlast = float(curve.deltas[-1])
    if wmax > 0.0 and dlast > 0.0:
        acc += (wmax**tp) * (dlast ** (-at)) / at
    return acc ** (1.0 / theta)


# --- Gagliardo ----------------------------------------------------------------

_SIZE_GUARD = 10_000


def gagliardo_seminorm(f: GridFunction, alpha: float, p: float) -> float:
    """Double integral |f(x)-f(y)|^p / |x-y|^(n + alpha p), midpoint double sum.

    Same-cell pairs vanish exactly; pairs closer than twice the largest cell
    size are evaluated on a 4x-per-axis refined subgrid.  Cost is quadratic in
    the cell count, guarded at 10^4 cells.  Returns the integral itself (the
    p-th power scale), not a p-th root.
    """
    if not 0 < alpha < 1:
        raise ParameterError(f"alpha must be in (0, 1), got {alpha}")
    ncells = f.values.size
    if ncells > _SIZE_GUARD:
        raise ResourceError(f"gagliardo_seminorm is quadratic; {ncells} cells exceeds {_SIZE_GUARD}")
    if f.dims == 1:
        return _gagliardo_1d_exact(f, alpha, p)
    n = f.dims
    cs = np.asarray(f.cell_sizes)
    v = f.cell_volume
    expo = n + alpha * p
    idx = np.argwhere(np.ones(f.shape, dtype=bool))
    vals = f.values.ravel()
    centers = (idx + 0.5) * cs
    near_cut = 2.0 * float(np.max(cs))

    refine = 4
    sub_offsets = _subgrid_offsets(n, refine) * cs  # (refine^n, n), offsets within a cell
    sub_w = (v / refine**n) ** 2

    near_kernel_cache: dict[tuple[int, ...], float] = {}

    total = 0.0
    for i in range(ncells):
        dvals = np.abs(vals[i + 1:] - vals[i]) ** p
        live = dvals > 0
        if not np.any(live):
            continue
        offs = idx[i + 1:][live] - idx[i]
        dv = dvals[live]
        dist = np.sqrt(np.sum((offs * cs) ** 2, axis=1))
        far = dist > near_cut
        total += 2.0 * v * v * float(np.sum(dv[far] * dist[far] ** (-expo)))
        for o, dval in zip(offs[~far], dv[~far]):
            key = tuple(int(x) for x in o)
            ker = near_kernel_cache.get(key)
            if ker is None:
                base = np.asarray(key) * cs
                diffs = base + sub_offsets[None, :, :] - sub_offsets[:, None, :]
                dd = np.sqrt(np.sum(diffs**2, axis=2))
                ker = sub_w * float(np.sum(dd ** (-expo)))
                near_kernel_cache[key] = ker
            total += 2.0 * dval * ker
    return total


def _gagliardo_1d_exact(f: GridFunction, alpha: float, p: float) -> float:
    """Closed-form 1-D double integral over the zero-extended real line.

    The kernel integral over a pair of cells at offset m is a second
    difference of t^(2-beta), beta = 1 + alpha p; it diverges on touching
    cells exactly when alpha p >= 1 (step representatives with a jump are then
    outside the space, reported as inf).  The two semi-infinite outside
    regions contribute the boundary terms of the zero extension.
    """
    a = f.values
    nn = a.size
    c = f.cell_sizes[0]
    beta = 1.0 + alpha * p
    jumps = np.abs(np.diff(np.concatenate([[0.0], a, [0.0]])))
    if alpha * p >= 1.0:
        return math.inf if np.any(jumps > 0) else 0.0
    e = 2.0 - beta
    m = np.arange(1, nn + 1, dtype=np.float64)
    # one-sided pair kernel at cell offset m (positive: concave second difference)
    pair_k = (c**e) * ((m + 1.0) ** e - 2.0 * m**e + (m - 1.0) ** e) / ((1.0 - beta) * e)
    total = 0.0
    for off in range(1, nn):
        s = float(np.sum(np.abs(a[off:] - a[:-off]) ** p))
        if s:
            total += s * pair_k[off - 1]
    # cells against the zero half lines on both sides
    j = np.arange(nn, dtype=np.float64)
    side = (c**e) * ((j + 1.0) ** e - j**e) / ((beta - 1.0) * e)
    vp = a**p
    total += float(np.sum(vp * side)) + float(np.sum(vp * side[::-1]))
    return 2.0 * total


@lru_cache(maxsize=None)
def _subgrid_offsets(n: int, refine: int) -> np.ndarray:
    axes = [np.arange(refine) + 0.5 for _ in range(n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1) / refine


# --- derived parameter algebra -------------------------------------------------

@dataclass(frozen=True)
class BesovParams:
    p: float
    beta_js: tuple[float, ...]
    theta_js: tuple[float, ...]
    n: int
    beta: float
    theta: float
    q: float
    admissible: bool


def derive_params(p: float, beta_js, theta_js, n: int) -> BesovParams:
    """Harmonic-mean smoothness and the derived Lorentz target exponents.

    theta uses the 1/inf = 0 convention for theta_j = inf.
    """
    beta_js = tuple(float(b) for b in beta_js)
    theta_js = tuple(float(t) for t in theta_js)
    if len(beta_js) != n or len(theta_js) != n:
        raise ParameterError("need one beta_j and one theta_j per axis")
    if any(not 0 < b < 1 for b in beta_js):
        raise ParameterError(f"beta_j must lie in (0, 1), got {beta_js}")
    if any(t < p for t in theta_js):
        raise ParameterError(f"theta_j must be >= p, got {theta_js} with p={p}")
    beta = n / sum(1.0 / b for b in beta_js)
    inv = sum(0.0 if math.isinf(t) else 1.0 / (b * t) for b, t in zip(beta_js, theta_js))
    theta = math.inf if inv == 0.0 else (n / beta) / inv
    admissible = 1 <= p < n / beta
    q = n * p / (n - beta * p) if admissible else math.nan
    return BesovParams(p, beta_js, theta_js, n, beta, theta, q, admissible)


@dataclass(frozen=True)
class LipschitzParams:
    p: float
    alphas: tuple[float, ...]
    n: int
    alpha: float
    nu: int
    q_star: float
    s: float
    admissible: bool


def derive_lipschitz_params(p: float, alphas, n: int) -> LipschitzParams:
    alphas = tuple(float(a) for a in alphas)
    if any(not 0 < a <= 1 for a in alphas):
        raise ParameterError(f"alpha_k must lie in (0, 1], got {alphas}")
    alpha = n / sum(1.0 / a for a in alphas)
    nu = sum(1 for a in alphas if a == 1.0)
    admissible = alpha < n / p and nu >= 1
    q_star = n * p / (n - alpha * p) if alpha < n / p else math.nan
    s = n * p / (nu * alpha) if nu else math.nan
    return LipschitzParams(p, alphas, n, alpha, nu, q_star, s, admissible)
