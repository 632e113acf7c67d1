"""Lorentz, mixed-Lorentz, Besov, Lipschitz and Gagliardo functionals.

Everything except the Gagliardo double sum is closed-form on step structures
(the interior Besov pieces use fixed-order Gauss-Legendre on smooth integrands,
which is exact to machine precision at the scales used here; all panels of a
curve are evaluated in one array pass).  The Gagliardo seminorm is a sum over
cell offsets: the pair kernel depends only on the offset o, so the double sum
is 2 sum_o K(o) S(o) with S(o) = sum_x |f(x+o) - f(x)|^p.  The S(o) of all
offsets along the last axis are formed in one blocked array pass (by the
helper that also builds the shift-power profiles of ``moduli``), one Python
step per offset of the leading axes.  No alpha enters S(o), so
``gagliardo_sums(f, p)`` builds them once and ``gagliardo_seminorm`` reads
them at any alpha, as ``besov_seminorm`` reads a modulus curve.  In 1-D the
kernel is exact; in higher dimensions it is the midpoint rule with a refined
near-diagonal rule.  The build stays quadratic in the cell count, so it is
guarded at 10^4 cells.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ParameterError, PreconditionError, ResourceError
from .grid import GridFunction
from .moduli import ModulusCurve, _diagonal_power_sums
from .rearrange import is_mdec
from .step import StepFunction

_GAUSS_NODES = 48


@lru_cache(maxsize=None)
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)


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


def mixed_lorentz_norm(g: GridFunction, p: float, r: float) -> float:
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


def lipschitz_seminorm(curve: ModulusCurve, alpha: float) -> LipschitzValue:
    """sup over delta of omega_k(f; delta)_p / delta^alpha, with attained scale.

    ``curve`` is ``modulus_curve(f, k, p)``, which carries k and p.
    """
    if not 0 < alpha <= 1:
        raise ParameterError(f"alpha must be in (0, 1], got {alpha}")
    val, at, flag = _curve_weighted_sup(curve, alpha)
    return LipschitzValue(val, at, flag)


def besov_seminorm(curve: ModulusCurve, alpha: float, theta: float) -> float:
    """Axis Besov seminorm (integral of (t^-alpha omega_k(f;t))^theta dt/t)^(1/theta).

    ``curve`` is ``modulus_curve(f, k, p)``, which carries k and p.  Closed
    form on the sub-cell and constant pieces, Gauss-Legendre on the interior
    smooth pieces, closed-form constant tail.  theta = inf gives the
    Lipschitz-type sup.  Returns inf when the sub-cell piece diverges
    (alpha >= 1/p for a genuinely discontinuous representative).
    """
    if not 0 < alpha < 1:
        raise ParameterError(f"alpha must be in (0, 1), got {alpha}")
    if theta < 1.0:
        raise ParameterError(f"theta must be >= 1, got {theta}")
    if math.isinf(theta):
        return _curve_weighted_sup(curve, alpha)[0]
    tp = theta / curve.p
    at = alpha * theta
    # segment s carries omega^p = a + b t on [d0, d1]
    d, w = curve.deltas, curve.omega_p
    d0, d1 = d[:-1], d[1:]
    b = (w[1:] - w[:-1]) / (d1 - d0)
    a = w[:-1] - b * d0
    piece = np.zeros(b.size)
    sub = (a == 0.0) & (d0 == 0.0)
    if np.any(sub & (b != 0.0)):
        # sub-cell piece b t on (0, d1], on the first segment, the only one at 0
        e = tp - at
        if e <= 0:
            return math.inf
        piece[0] = (float(b[0]) ** tp) * (float(d1[0]) ** e) / e
    flat = ~sub & (b == 0.0) & (a > 0.0)
    piece[flat] = a[flat] ** tp * (d0[flat] ** (-at) - d1[flat] ** (-at)) / at
    smooth = ~sub & (b != 0.0)
    x, wts = _leggauss(_GAUSS_NODES)
    mid = 0.5 * (d0[smooth] + d1[smooth])
    half = 0.5 * (d1[smooth] - d0[smooth])
    t = mid[:, None] + half[:, None] * x
    fun = (a[smooth, None] + b[smooth, None] * t) ** tp
    fun *= t ** (-at - 1.0)
    fun *= wts
    piece[smooth] = half * np.sum(fun, axis=1)
    # added segment by segment, in curve order
    acc = float(np.cumsum(piece)[-1]) if piece.size else 0.0
    wmax = float(curve.omega_p[-1])
    dlast = float(curve.deltas[-1])
    if wmax > 0.0 and dlast > 0.0:
        acc += (wmax**tp) * (dlast ** (-at)) / at
    return acc ** (1.0 / theta)


# --- Gagliardo ----------------------------------------------------------------

_SIZE_GUARD = 10_000


@dataclass(frozen=True)
class GagliardoSums:
    """The alpha-free part of the Gagliardo seminorm of one (f, p).

    ``sums[i]`` is S(o) = sum over x of |f(x+o) - f(x)|^p at the offset
    ``offsets[i]`` (see ``_offset_power_sums``).  In higher dimensions only
    the offsets with S(o) > 0 are kept; in 1-D every offset 1..N-1 is kept,
    in order, because the closed form adds them one after the other.
    """

    f: GridFunction
    p: float
    offsets: np.ndarray
    sums: np.ndarray

    def __post_init__(self):
        for name in ("offsets", "sums"):
            getattr(self, name).flags.writeable = False


def gagliardo_sums(f: GridFunction, p: float) -> GagliardoSums:
    """The offset sums of the Gagliardo seminorm of f at exponent p >= 1.

    This is the O(N^2) part, which no alpha enters: one build serves
    ``gagliardo_seminorm`` at every alpha.  Guarded at 10^4 cells.
    """
    if not p >= 1:
        raise ParameterError(f"p must be >= 1, got {p}")
    ncells = f.values.size
    if ncells > _SIZE_GUARD:
        # the degenerate bbm rows quote this message, so it names the seminorm
        raise ResourceError(f"gagliardo_seminorm is quadratic: {ncells} cells exceeds "
                            f"the guard of {_SIZE_GUARD}")
    offs, sums = _offset_power_sums(f.values, p)
    if f.dims > 1:
        live = sums > 0
        offs, sums = offs[live], sums[live]
    return GagliardoSums(f, p, offs, sums)


def gagliardo_seminorm(sums: GagliardoSums, alpha: float) -> float:
    """Double integral |f(x)-f(y)|^p / |x-y|^(n + alpha p), midpoint double sum.

    ``sums`` is ``gagliardo_sums(f, p)``, which carries f and p.  The sum over
    unordered pairs of distinct cells is 2 sum_o K(o) S(o) over the
    lexicographically positive cell offsets o.  The kernel K(o) is the
    midpoint value v^2 |o c|^-(n + alpha p) for all offsets at once, except
    that offsets closer than twice the largest cell size get a 4x-per-axis
    refined subgrid, computed once per offset.  Same-cell pairs vanish
    exactly.  Beyond the sums the cost is linear in the number of offsets.
    Returns the integral itself (the p-th power scale), not a p-th root.
    """
    if not 0 < alpha < 1:
        raise ParameterError(f"alpha must be in (0, 1), got {alpha}")
    f, p = sums.f, sums.p
    if f.dims == 1:
        return _gagliardo_1d_exact(f, alpha, p, sums.sums)
    n = f.dims
    cs = np.asarray(f.cell_sizes)
    v = f.cell_volume
    expo = n + alpha * p
    offs, s_live = sums.offsets, sums.sums
    dist = np.sqrt(np.sum((offs * cs) ** 2, axis=1))
    far = dist > 2.0 * float(np.max(cs))
    total = 2.0 * v * v * float(np.sum(s_live[far] * dist[far] ** (-expo)))

    refine = 4
    sub_offsets = _subgrid_offsets(n, refine) * cs  # (refine^n, n), offsets within a cell
    sub_w = (v / refine**n) ** 2
    for o, s in zip(offs[~far], s_live[~far]):
        diffs = o * cs + sub_offsets[None, :, :] - sub_offsets[:, None, :]
        dd = np.sqrt(np.sum(diffs**2, axis=2))
        ker = sub_w * float(np.sum(dd ** (-expo)))
        total += 2.0 * float(s) * ker
    return total


def _offset_power_sums(values: np.ndarray, p: float):
    """S(o) = sum over x of |f(x+o) - f(x)|^p for every lexicographically positive o.

    Returns ``(offsets, sums)``: an (m, n) integer array and the m sums.  The
    offsets of the leading axes are visited one by one; along the last axis
    all offsets are formed at once by ``moduli._diagonal_power_sums``, the
    helper that also gives the inner sums of the shift-power profile.  In 1-D,
    S(o) is bit-identical to ``np.sum(np.abs(f[o:] - f[:-o]) ** p)``.
    """
    shape = values.shape
    n, size = values.ndim, shape[-1]
    # rows padded with zeros so the sliding windows of the last axis stay inside
    padded = np.zeros(shape[:-1] + (2 * size,))
    padded[..., :size] = values
    offsets, sums = [], []
    zero = (0,) * (n - 1)
    for lead in itertools.product(*(range(1 - s, s) for s in shape[:-1])):
        if lead < zero:
            continue  # -lead is visited instead
        moved = padded[tuple(slice(max(o, 0), s + min(o, 0)) for o, s in zip(lead, shape))]
        fixed = padded[tuple(slice(max(-o, 0), s - max(o, 0)) for o, s in zip(lead, shape))]
        moved = moved.reshape(-1, 2 * size)
        fixed = fixed.reshape(-1, 2 * size)
        if any(lead):
            # last-axis offset -j pairs fixed[y + j] with moved[y]
            neg = _diagonal_power_sums(fixed, moved[:, :size], 1, p)[::-1]
            pos = _diagonal_power_sums(moved, fixed[:, :size], 0, p)
            s_lead = np.concatenate([neg, pos])
            last = np.arange(1 - size, size)
        else:
            s_lead = _diagonal_power_sums(moved, fixed[:, :size], 1, p)
            last = np.arange(1, size)
        lead_cols = np.broadcast_to(np.asarray(lead, dtype=np.int64), (last.size, n - 1))
        offsets.append(np.concatenate([lead_cols, last[:, None]], axis=1))
        sums.append(s_lead)
    return np.concatenate(offsets), np.concatenate(sums)


def _gagliardo_1d_exact(f: GridFunction, alpha: float, p: float, s: np.ndarray) -> float:
    """Closed-form 1-D double integral over the zero-extended real line.

    ``s`` holds the offset sums S(1), ..., S(N-1) of f at p.

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
    # offsets 1..nn-1, added one after the other
    total = float(np.cumsum(s * pair_k[:-1])[-1]) if s.size else 0.0
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
