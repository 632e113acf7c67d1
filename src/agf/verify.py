"""Numerical verifiers for the rearrangement and embedding inequalities.

Each verifier computes both sides of one inequality -- exactly where the step
structure allows it, with documented quadrature otherwise -- and emits
InequalityReports.  ``INEQUALITIES`` declares every report id once, with its
tier: hard constants that the underlying estimates state explicitly (asserted
as-is), and "there exists c" results whose budgets a calibration run freezes.
The verifiers read every budget from that table: a hard id gets its constant,
a calibrated id gets inf until ``run_experiment(..., budgets=)`` applies the
budget file.  Every verifier takes a ``Member``, which builds each quantity it
derives from its function (curves, f*, decrement sums, gauges) once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, PreconditionError, ResourceError
from .geometry import (AnisotropicGauge, box_average_field, box_weights, build_gauge,
                       contract_axes)
from .grid import GridFunction, make_grid_function
from .moduli import ModulusCurve, interval_modulus_1d, modulus_curve, steklov_distance
from .norms import (
    BesovParams,
    _leggauss,
    besov_seminorm,
    derive_lipschitz_params,
    derive_params,
    gagliardo_seminorm,
    lipschitz_seminorm,
    lorentz_norm,
    mixed_lorentz_norm,
)
from .rearrange import decreasing_rearrangement, dyadic_decrement, is_mdec, iterated_rearrangement
from .step import StepFunction

REL_TOL = 1e-9

# every report id -> the constant its estimate states, as a rule
# (n, params) -> float of the dimension and the report's params; None marks a
# "there exists c" result, whose budget is calibrated
INEQUALITIES = {
    "rearr-estimate": None,
    "aniso-gauge-integral": None,
    "aniso-gauge-sup": None,
    "gauge-product": lambda n, prm: 1.0,
    "embedding-lorentz": None,
    "embedding-mixed": None,
    "embedding-dyadic-step": lambda n, prm: 1.0,
    "lipschitz-endpoint": None,
    "fractional-sobolev": None,
    "fractional-sobolev-lorentz": None,
    "rearrangement-modulus-1d": lambda n, prm: 2.0,
    "rearrangement-modulus-axes": lambda n, prm: 3.0**n,
    "modulus-mean-bound": lambda n, prm: 3.0,
    "steklov-distance": lambda n, prm: 1.0,
    "steklov-derivative": lambda n, prm: 1.0,
    "box-operator-pointwise": lambda n, prm: 1.0,
    "box-operator-weight": lambda n, prm: 2.0 ** (max(1.0, prm["a"]) * n),
    "axis-decrement": lambda n, prm: 4.0 * prm["mu"],
}


@dataclass(frozen=True)
class InequalityReport:
    """One verified inequality instance: both sides, the allowed ratio, verdict."""

    inequality_id: str
    function_id: str
    params: dict
    lhs: float
    rhs: float
    budget: float
    truncation: str = ""
    degenerate: bool = False

    @property
    def ratio(self) -> float:
        if self.lhs == 0.0:
            return 0.0
        if self.rhs == 0.0:
            return math.inf
        return self.lhs / self.rhs

    @property
    def verdict(self) -> str:
        if self.degenerate or (self.lhs == 0.0 and self.rhs == 0.0):
            return "degenerate"
        return "pass" if self.ratio <= self.budget * (1.0 + REL_TOL) else "fail"


@dataclass(frozen=True)
class LimitTrace:
    """A scaled quantity along a dyadic parameter sequence, against its limit target."""

    trace_id: str
    function_id: str
    param_name: str
    param_values: np.ndarray
    values: np.ndarray
    target: float
    truncated: bool = False

    @property
    def gaps(self) -> np.ndarray:
        if self.target == 0.0:
            return np.where(np.asarray(self.values) == 0.0, 0.0, math.inf)
        return np.abs(np.asarray(self.values) / self.target - 1.0)

    def to_rows(self):
        for pv, v, g in zip(self.param_values, self.values, self.gaps):
            yield (self.trace_id, self.function_id, self.param_name,
                   float(pv), float(v), float(self.target), float(g))


def _report(inequality_id, function_id, n, params, lhs, rhs, truncation="",
            degenerate=False) -> InequalityReport:
    """A report on an n-dimensional input, its budget read from ``INEQUALITIES``.

    A hard id gets its stated constant, a calibrated id gets inf.
    """
    rule = INEQUALITIES[inequality_id]
    budget = math.inf if rule is None else rule(n, params)
    return InequalityReport(inequality_id, function_id, params, lhs, rhs, budget,
                            truncation, degenerate)


def _degenerate(inequality_id, function_id, n, params, note="zero input"):
    return _report(inequality_id, function_id, n, dict(params), 0.0, 0.0, note,
                   degenerate=True)


def _check_shifts(values, name: str) -> None:
    """Reject any shift or scale that is not positive."""
    for v in values:
        if not v > 0:
            raise ParameterError(f"{name} must be > 0, got {v}")


class Member:
    """One corpus member with the quantities the verifiers derive from it.

    Each item is built on first use and kept for the life of the record: the
    modulus curves of f per axis at exponent p (``curves(p)``), its decreasing
    rearrangement (``star``), the decrement sums at p (``sums(p)``) and the
    gauge of a rearrangement order (``gauge(order)``).
    """

    def __init__(self, f: GridFunction, function_id: str = ""):
        self.f = f
        self.function_id = function_id
        self._items: dict = {}

    def _item(self, key, build):
        # the builds are pure, so threads racing on a first use store equal
        # values; setdefault keeps the first, and every later read sees it
        got = self._items.get(key)
        return got if got is not None else self._items.setdefault(key, build())

    def curves(self, p: float) -> tuple[ModulusCurve, ...]:
        """``modulus_curve(f, k, p)`` for k = 0..n-1."""
        return self._item(("curves", p),
                          lambda: tuple(modulus_curve(self.f, k, p) for k in range(self.f.dims)))

    @property
    def star(self) -> StepFunction:
        """The decreasing rearrangement f*."""
        return self._item("star", lambda: decreasing_rearrangement(self.f))

    def sums(self, p: float) -> DecrementSums:
        """``decrement_sums(f*, p, n)``."""
        return self._item(("sums", p), lambda: decrement_sums(self.star, p, self.f.dims))

    def gauge(self, order) -> AnisotropicGauge:
        """``build_gauge(f, order)``."""
        order = tuple(int(k) for k in order)
        return self._item(("gauge", order), lambda: build_gauge(self.f, order))


# --- isotropic rearrangement estimate -------------------------------------------

class DecrementSums(NamedTuple):
    """The delta-free part of the isotropic estimate's left side, for one (f*, p, n).

    On the k-th step (left[k], right[k]] of f*, ``inner[k]`` is the integral
    over (0, t) of (f*(u) - f*(t))^p; ``tail`` is the same integral for t
    beyond the support.  With e = p/n, ``steps[k]`` is the step's share
    inner[k] (left[k]^(-e) - right[k]^(-e)) / e of the left side whenever the
    cut delta^n lies at or below left[k] (0 for step 0, whose inner is 0).
    Building them costs O(K^2) element work for K steps, in row blocks of at
    most ``_SUMS_BLOCK`` elements (one row of K + 2 when K is larger).
    """

    left: np.ndarray
    right: np.ndarray
    inner: np.ndarray
    tail: float
    steps: np.ndarray


_SUMS_BLOCK = 1 << 15  # float64 elements in one row block of the inner sums


def decrement_sums(sf: StepFunction, p: float, n: int) -> DecrementSums:
    """The ``DecrementSums`` at exponent p of f* = ``sf`` of an n-dimensional f.

    ``inner[k]`` is bit-identical to
    ``np.sum((values[:k] - values[k]) ** p * widths[:k])``: each row's terms
    lie behind one zero, and ``np.add.reduceat`` reduces such a run exactly
    as ``np.sum`` reduces the terms alone.  ``verify_isotropic_estimate``
    reads the sums from ``Member.sums(p)``.
    """
    bp = sf.breakpoints
    vals = sf.values
    size = vals.size
    left = np.concatenate([[0.0], bp[:-1]])
    widths = bp - left
    # column c of a block row pairs step c - 1 with the row's step; column 0
    # pairs a zero value and a zero width, which leads every row's run
    vals_led = np.concatenate([[0.0], vals])
    widths_led = np.concatenate([[0.0], widths])
    inner = np.empty(size)
    k0 = 0
    while k0 < size:
        # rows k0..k0+r-1; row k's run is its columns 0..k, and the last
        # column is spare, so that the end of the last run is inside the block
        r = min(size - k0, max(1, (math.isqrt((k0 + 1) ** 2 + 4 * _SUMS_BLOCK) - k0 - 1) // 2))
        width = k0 + r + 1
        block = np.subtract(vals_led[:width], vals[k0:k0 + r, None])
        np.maximum(block, 0.0, out=block)  # f* is nonincreasing: clears column 0 and steps >= k
        if p != 1.0:
            block **= p
        block *= widths_led[:width]
        starts = np.arange(r) * width
        runs = np.stack([starts, starts + 1 + np.arange(k0, k0 + r)], axis=1)
        inner[k0:k0 + r] = np.add.reduceat(block.ravel(), runs.ravel())[::2]
        k0 += r
    e = p / n
    # scalar powers: an array power may differ from them in the last bit
    powers = np.array([b ** -e for b in bp.tolist()])
    steps = np.zeros(size)
    live = np.flatnonzero(inner[1:] > 0.0) + 1
    steps[live] = inner[live] * (powers[live - 1] - powers[live]) / e
    return DecrementSums(left, bp, inner, float(np.sum(vals**p * widths)), steps)


def verify_isotropic_estimate(m: Member, p: float, delta: float) -> InequalityReport:
    """Tail integral of the rearrangement decrement against the isotropic modulus.

    LHS = integral over t > delta^n of t^(-p/n - 1) * integral_0^t
    (f*(u) - f*(t))^p du dt, closed form on the rearrangement steps.
    RHS = (omega(f; delta)_p / delta)^p with the isotropic modulus taken as the
    max over axes of the partial moduli (recorded in the params).
    """
    if not math.isfinite(p) or p < 1:
        raise ParameterError(f"p must be finite and >= 1, got {p}")
    if delta <= 0:
        raise ParameterError(f"delta must be > 0, got {delta}")
    n = m.f.dims
    sums = m.sums(p)
    params = {"p": p, "delta": delta, "isotropic_modulus": "max-over-axes"}
    if sums.inner.size == 0:
        return _degenerate("rearr-estimate", m.function_id, n, params)
    left, bp, inner = sums.left, sums.right, sums.inner
    lo_cut = delta**n
    e = p / n
    # the steps ending at or below the cut add nothing; step k straddles it
    # and the steps after it lie wholly above it
    k = int(np.searchsorted(bp, lo_cut, side="right"))
    shares = np.zeros(bp.size - k + 2)  # 0, the shares of steps k.., the tail's
    shares[1:-1] = sums.steps[k:]
    if k < bp.size and inner[k] > 0.0:
        lo, hi = max(left[k], lo_cut), bp[k]
        shares[1] = inner[k] * (lo ** (-e) - hi ** (-e)) / e
    tail_lo = max(bp[-1], lo_cut)
    shares[-1] = sums.tail * tail_lo ** (-e) / e
    # the running sum adds the shares left to right, one at a time
    lhs = np.cumsum(shares)[-1]
    omega = max(curve(delta) for curve in m.curves(p))
    rhs = (omega / delta) ** p
    return _report("rearr-estimate", m.function_id, n, params, lhs, rhs)


# --- anisotropic gauge estimates --------------------------------------------------

def verify_anisotropic_estimate(m: Member, p: float, order, h_values) -> list[InequalityReport]:
    """Gauge-weighted decrement bounds, one report pair per (axis, shift).

    With phi(t) = f*(t) - f*(2t) and the per-axis gauge u_j(t), checks on the
    lattice domain Omega_j(h) = {t : u_j(t) >= h}:

    * integral form:  sum over t in Omega of
      integral_(t_prev, t] phi(s)^p ds / u_j(t)^p  <=  c (omega_j(f; h)_p / h)^p
    * sup form:       max over t in Omega of t^(1/p) phi(t) / u_j(t)
      <=  c omega_j(f; h)_p / h

    The moduli on the right are those of the original f.
    """
    if p < 1:
        raise ParameterError(f"p must be >= 1, got {p}")
    _check_shifts(h_values, "shift h")
    order = tuple(int(k) for k in order)
    gauge = m.gauge(order)
    n = m.f.dims
    function_id = m.function_id
    phi = dyadic_decrement(m.star)
    reports: list[InequalityReport] = []
    curves = m.curves(p)
    tv = gauge.t_values
    t_prev = np.concatenate([[0.0], tv[:-1]]) if tv.size else tv
    # the terms of lattice point i, shared by every (axis, h)
    window = [phi.window_power_integral(t_prev[i], tv[i], p) for i in range(tv.size)]
    peak = [tv[i] ** (1.0 / p) * float(phi(tv[i])) for i in range(tv.size)]
    for j in range(n):
        for h in h_values:
            params = {"p": p, "order": list(order), "axis": j, "h": float(h)}
            if gauge.degenerate or tv.size == 0:
                for iid in ("aniso-gauge-integral", "aniso-gauge-sup"):
                    reports.append(_degenerate(iid, function_id, n, params, "degenerate gauge"))
                continue
            mask = gauge.omega_mask(j, h)
            omega = float(curves[j](h))
            if not np.any(mask):
                for iid in ("aniso-gauge-integral", "aniso-gauge-sup"):
                    reports.append(_degenerate(iid, function_id, n, params, "empty domain"))
                continue
            lhs_int = 0.0
            lhs_sup = 0.0
            for i in np.flatnonzero(mask):
                u = gauge.u[i, j]
                lhs_int += window[i] / u**p
                lhs_sup = max(lhs_sup, peak[i] / u)
            reports.append(_report("aniso-gauge-integral", function_id, n, params,
                                   lhs_int, (omega / h) ** p, "lattice sum"))
            reports.append(_report("aniso-gauge-sup", function_id, n, params,
                                   lhs_sup, omega / h, "lattice sup"))
    return reports


def verify_gauge_product(m: Member, order) -> list[InequalityReport]:
    """Exact check that the gauge factors multiply below the level measure.

    product over j of u_j(t) <= t at every lattice point; hard budget 1.
    """
    order = tuple(int(k) for k in order)
    gauge = m.gauge(order)
    n = m.f.dims
    function_id = m.function_id
    params = {"order": list(order)}
    if gauge.degenerate or gauge.t_values.size == 0:
        return [_degenerate("gauge-product", function_id, n, params, "degenerate gauge")]
    reports = []
    for i, t in enumerate(gauge.t_values):
        prod = float(np.prod(gauge.u[i]))
        reports.append(_report("gauge-product", function_id, n,
                               {**params, "t": float(t)}, prod, float(t)))
    return reports


# --- embedding into Lorentz spaces -------------------------------------------------

def _besov_product(m: Member, params: BesovParams, with_factors: bool):
    """Product over axes of (optionally weighted) axis Besov seminorms."""
    n = params.n
    curves = m.curves(params.p)
    rhs = 1.0
    semis = []
    for j in range(n):
        b = besov_seminorm(curves[j], params.beta_js[j], params.theta_js[j])
        semis.append(b)
        factor = 1.0
        if with_factors and not math.isinf(params.theta_js[j]):
            factor = (1.0 - params.beta_js[j]) ** (1.0 / params.theta_js[j])
        rhs *= (factor * b) ** (params.beta / (n * params.beta_js[j]))
    return rhs, semis


def verify_embedding(m: Member, params: BesovParams, flavor: str = "lorentz",
                     order=None, explore_open_case: bool = False) -> list[InequalityReport]:
    """Lorentz-norm embedding against the weighted product of axis Besov seminorms.

    flavor "lorentz" bounds the Lorentz norm of f*; flavor "mixed" bounds the
    mixed Lorentz norm of the iterated rearrangement (``order`` required).
    Also asserts the exact dyadic-decrement step of the proof:
    the Lorentz norm is at most (1 - 2^(-1/q))^(-1) times the decrement norm J.
    """
    if flavor not in ("lorentz", "mixed"):
        raise ParameterError(f"unknown norm flavor {flavor!r}")
    if not params.admissible:
        raise ParameterError(
            f"inadmissible parameters: need 1 <= p < n/beta, got p={params.p}, "
            f"n/beta={params.n / params.beta}")
    if any(t < params.p for t in params.theta_js) and not explore_open_case:
        raise ParameterError("theta_j < p is an open case; pass explore_open_case to log ratios")
    q, theta, p = params.q, params.theta, params.p
    f, function_id = m.f, m.function_id
    ineq_id = "embedding-lorentz" if flavor == "lorentz" else "embedding-mixed"
    rep_params = {"p": p, "q": q, "theta": theta,
                  "beta_js": list(params.beta_js), "theta_js": list(params.theta_js),
                  "flavor": flavor}
    if order is not None:
        rep_params["order"] = [int(k) for k in order]
    if f.support_cells == 0:
        return [_degenerate(ineq_id, function_id, params.n, rep_params)]
    sf = m.star
    if flavor == "lorentz":
        lhs = lorentz_norm(sf, q, theta)
    else:
        if order is None:
            raise ParameterError("mixed flavor requires a rearrangement order")
        lhs = mixed_lorentz_norm(iterated_rearrangement(f, order), q, theta)
    rhs, semis = _besov_product(m, params, with_factors=True)
    trunc = ""
    if math.isinf(rhs):
        trunc = "unbounded seminorm on the right"
    budget_flag = "open-case, no verdict" if any(t < p for t in params.theta_js) else ""
    rep = _report(ineq_id, function_id, params.n, {**rep_params, "seminorms": semis},
                  lhs, rhs, trunc or budget_flag)
    out = [rep]
    if flavor == "lorentz":
        phi = dyadic_decrement(sf)
        if math.isinf(theta):
            j_norm = phi.weighted_sup(1.0 / q)
        else:
            j_norm = phi.power_integral(theta / q, theta) ** (1.0 / theta)
        c = 1.0 / (1.0 - 2.0 ** (-1.0 / q))
        out.append(_report("embedding-dyadic-step", function_id, params.n,
                           {"q": q, "theta": theta}, lhs, c * j_norm))
    return out


def verify_lipschitz_endpoint(m: Member, p: float) -> InequalityReport:
    """Endpoint Lorentz bound by the geometric mean of axis Lipschitz seminorms.

    With every axis smoothness equal to 1: Lorentz(q*, s) norm of f* against
    the product of sup-slope seminorms, q* = np/(n-p), s = p.
    """
    n = m.f.dims
    lp = derive_lipschitz_params(p, (1.0,) * n, n)
    params = {"p": p, "q_star": lp.q_star, "s": lp.s}
    if not lp.admissible or not math.isfinite(lp.q_star):
        raise ParameterError(f"endpoint requires p < n, got p={p}, n={n}")
    if m.f.support_cells == 0:
        return _degenerate("lipschitz-endpoint", m.function_id, n, params)
    lhs = lorentz_norm(m.star, lp.q_star, lp.s)
    rhs = 1.0
    for curve in m.curves(p):
        rhs *= lipschitz_seminorm(curve, 1.0).value ** (lp.alpha / (n * 1.0))
    return _report("lipschitz-endpoint", m.function_id, n, params, lhs, rhs)


def limiting_sweep(m: Member, p: float, theta_js, m_max: int):
    """Embedding ratio along axis smoothness 1 - 2^(-m), with and without weights.

    Returns (trace_with, trace_control, reports).  Trace values are RHS/LHS:
    with the (1 - beta_j)^(1/theta_j) weights the trace stays bounded, the
    unweighted control trace diverges like a power of 2^m -- the asymptotics
    the weighted inequality is designed to capture.
    """
    n = m.f.dims
    theta_js = tuple(float(t) for t in theta_js)
    ms = []
    vals_with = []
    vals_ctrl = []
    reports = []
    truncated = False
    for i in range(1, m_max + 1):
        beta = 1.0 - 2.0**-i
        try:
            params = derive_params(p, (beta,) * n, theta_js, n)
        except ParameterError:
            truncated = True
            break
        if not params.admissible:
            truncated = True
            break
        reps = verify_embedding(m, params, flavor="lorentz")
        rep = reps[0]
        reports.extend(reps)
        rhs_ctrl, _ = _besov_product(m, params, with_factors=False)
        if rep.lhs == 0.0:
            truncated = True
            break
        ms.append(i)
        vals_with.append(rep.rhs / rep.lhs)
        vals_ctrl.append(rhs_ctrl / rep.lhs)
    vw = np.asarray(vals_with)
    vc = np.asarray(vals_ctrl)
    mm = np.asarray(ms, dtype=np.float64)
    target_w = float(vw[0]) if vw.size else 0.0
    target_c = float(vc[0]) if vc.size else 0.0
    trace_with = LimitTrace("limit-sweep-weighted", m.function_id, "m", mm, vw,
                            target_w, truncated)
    trace_ctrl = LimitTrace("limit-sweep-control", m.function_id, "m", mm, vc,
                            target_c, truncated)
    return trace_with, trace_ctrl, reports


# --- limit relations ---------------------------------------------------------------

def verify_limit_relations(m: Member, k: int, p: float, theta: float,
                           m_max: int) -> LimitTrace:
    """Scaled Besov seminorm along alpha = 1 - 2^(-m) against its sup-slope limit.

    value_m = (1 - alpha_m)^(1/theta) * axis Besov seminorm;
    target  = (1/theta)^(1/theta) * sup over delta of omega_k(f; delta)_p / delta.
    """
    if math.isinf(theta):
        raise ParameterError("the scaled limit requires a finite theta")
    if not 0 <= k < m.f.dims:
        raise ParameterError(f"axis {k} out of range for dims={m.f.dims}")
    curve = m.curves(p)[k]
    target = (1.0 / theta) ** (1.0 / theta) * lipschitz_seminorm(curve, 1.0).value
    ms = np.arange(1, m_max + 1, dtype=np.float64)
    vals = np.empty(ms.size)
    for i, mi in enumerate(ms):
        alpha = 1.0 - 2.0**-mi
        vals[i] = (1.0 - alpha) ** (1.0 / theta) * besov_seminorm(curve, alpha, theta)
    return LimitTrace("besov-limit", m.function_id, "m", ms, vals, target)


def slope_norm_power(f: GridFunction, p: float) -> float:
    """p-th power of the L^p norm of the 1-D difference-quotient derivative.

    Zero extension outside the grid, so boundary jumps count as slope mass over
    one cell.
    """
    if f.dims != 1:
        raise PreconditionError("slope norm is defined for 1-D functions")
    a = np.concatenate([[0.0], f.values, [0.0]])
    c = f.cell_sizes[0]
    return float(np.sum(np.abs(np.diff(a)) ** p)) * c ** (1.0 - p)


def verify_gagliardo_limit(m: Member, p: float, m_max: int) -> LimitTrace:
    """(1 - alpha) times the Gagliardo double integral against its 1-D limit.

    For a 1-D piecewise-constant representative the limit of
    (1 - alpha) * double integral as alpha -> 1 is (2/p) times the p-th power
    of the difference-quotient derivative norm.  On a grid past the size guard
    of the double integral the trace has no points and is marked truncated.
    """
    f, function_id = m.f, m.function_id
    if f.dims != 1:
        raise PreconditionError("the Gagliardo limit target is implemented for n = 1")
    target = (2.0 / p) * slope_norm_power(f, p)
    ms = np.arange(1, m_max + 1, dtype=np.float64)
    vals = np.empty(ms.size)
    for i, mi in enumerate(ms):
        alpha = 1.0 - 2.0**-mi
        try:
            vals[i] = (1.0 - alpha) * gagliardo_seminorm(f, alpha, p)
        except ResourceError:
            # past the size guard of the double sum: the trace stops here
            return LimitTrace("gagliardo-limit", function_id, "m", ms[:i], vals[:i],
                              target, truncated=True)
    return LimitTrace("gagliardo-limit", function_id, "m", ms, vals, target)


def verify_fractional_sobolev(m: Member, p: float, alpha: float) -> list[InequalityReport]:
    """Critical-exponent norm bounds by the weighted Gagliardo integral.

    LHS is the p-th power of the L^(p*) norm (and, in the second report, of
    the stronger Lorentz(p*, p) norm), p* = np/(n - alpha p); RHS is
    (1 - alpha)/(n - alpha p)^(p-1) times the Gagliardo double integral.  On
    a grid past the size guard of that integral both reports are degenerate,
    and their truncation names the cell count and the guard.
    """
    f, function_id = m.f, m.function_id
    n = f.dims
    if not 0.5 <= alpha < 1.0:
        raise ParameterError(f"alpha must lie in [1/2, 1), got {alpha}")
    if p >= n / alpha:
        raise ParameterError(f"need p < n/alpha, got p={p}, n/alpha={n / alpha}")
    p_star = n * p / (n - alpha * p)
    params = {"p": p, "alpha": alpha, "p_star": p_star}
    ids = ("fractional-sobolev", "fractional-sobolev-lorentz")
    if f.support_cells == 0:
        return [_degenerate(iid, function_id, n, params) for iid in ids]
    try:
        gagliardo = gagliardo_seminorm(f, alpha, p)
    except ResourceError as exc:
        return [_degenerate(iid, function_id, n, params, f"not computed: {exc}")
                for iid in ids]
    sf = m.star
    rhs = (1.0 - alpha) / (n - alpha * p) ** (p - 1.0) * gagliardo
    lhs = lorentz_norm(sf, p_star, p_star) ** p
    lhs_lorentz = lorentz_norm(sf, p_star, p) ** p
    return [_report(iid, function_id, n, params, left, rhs, "midpoint double sum")
            for iid, left in zip(ids, (lhs, lhs_lorentz))]


# --- rearrangement vs modulus -------------------------------------------------------

def _unit_interval_values(f: GridFunction) -> np.ndarray:
    """Cell values of a 1-D function zero-padded to the interval [0, 1]."""
    c = f.cell_sizes[0]
    m = round(1.0 / c)
    if abs(m * c - 1.0) > 1e-12 or f.shape[0] > m:
        raise PreconditionError(
            "unit-interval comparison needs the support inside [0, 1] on a grid "
            f"dividing 1; got extent {f.extent[0]} with cell size {c}")
    return np.concatenate([f.values, np.zeros(m - f.shape[0])])


def verify_rearrangement_modulus(m: Member, p: float, deltas) -> list[InequalityReport]:
    """Moduli of rearrangements against moduli of the original function.

    For 1-D functions on [0, 1] and delta <= 1/2: the interval modulus of the
    decreasing rearrangement is at most twice that of f (hard constant 2).
    In any dimension: each partial modulus of an iterated rearrangement is at
    most 3^n times the corresponding partial modulus of f (hard constant 3^n),
    for the identity order and its reverse.
    """
    _check_shifts(deltas, "delta")
    f, function_id = m.f, m.function_id
    n = f.dims
    reports: list[InequalityReport] = []
    zero = f.support_cells == 0
    if n == 1:
        vals = _unit_interval_values(f)
        g = make_grid_function(vals, f.cell_sizes)
        gstar = make_grid_function(np.sort(vals)[::-1], f.cell_sizes)
        for delta in deltas:
            if delta > 0.5:
                raise ParameterError(f"the interval comparison needs delta <= 1/2, got {delta}")
            params = {"p": p, "delta": float(delta)}
            if zero:
                reports.append(_degenerate("rearrangement-modulus-1d", function_id, n, params))
                continue
            lhs = interval_modulus_1d(gstar, delta, p)
            rhs = interval_modulus_1d(g, delta, p)
            reports.append(_report("rearrangement-modulus-1d", function_id, n,
                                   params, lhs, rhs))
        return reports
    # each curve is built once and shared by every delta (and, for f, every order)
    f_curves = None if zero else m.curves(p)
    for order in (tuple(range(n)), tuple(reversed(range(n)))):
        rf = iterated_rearrangement(f, order)
        for k in range(n):
            rf_curve = None if zero else modulus_curve(rf, k, p)
            for delta in deltas:
                params = {"p": p, "delta": float(delta), "axis": k, "order": list(order)}
                if zero:
                    reports.append(_degenerate("rearrangement-modulus-axes", function_id,
                                               n, params))
                    continue
                lhs = rf_curve(delta)
                rhs = f_curves[k](delta)
                reports.append(_report("rearrangement-modulus-axes", function_id, n,
                                       params, lhs, rhs))
    return reports


def verify_modulus_lemmas(m: Member, p: float, deltas) -> list[InequalityReport]:
    """The three exact-constant modulus estimates, per axis and shift.

    * mean bound: omega_k(f; d)_p <= (3/d) integral_0^d I_k(f; h)_p dh
    * averaging distance: the cell-averaged moving mean f_h satisfies
      ||f - f_h||_p <= omega_j(f; h)_p
    * averaging derivative: ||d f_h / d x_j||_p <= omega_j(f; h)_p / h

    These are full-space statements: an orthant-domain input is viewed as its
    zero extension, so its moduli count mass crossing the boundary.
    """
    _check_shifts(deltas, "delta")
    reports: list[InequalityReport] = []
    f, function_id = m.f, m.function_id
    if f.halfspace:
        f = GridFunction(f.values, f.cell_sizes, f.origin, halfspace=False)
        m = Member(f, function_id)
    n = f.dims
    zero = f.support_cells == 0
    for k in range(n):
        # one curve per axis carries the profile every delta reads
        curve = None if zero else m.curves(p)[k]
        for d in deltas:
            params = {"p": p, "axis": k, "delta": float(d)}
            if zero:
                for iid in ("modulus-mean-bound", "steklov-distance", "steklov-derivative"):
                    reports.append(_degenerate(iid, function_id, n, params))
                continue
            omega = curve(d)
            reports.append(_report(
                "modulus-mean-bound", function_id, n, params,
                omega, curve.shift_integral(d) / d))
            reports.append(_report(
                "steklov-distance", function_id, n, params,
                steklov_distance(f, d, k, p), omega))
            reports.append(_report(
                "steklov-derivative", function_id, n, params,
                curve.shift_norm(d) / d, omega / d))
    return reports


# --- dyadic-box operator and axis decrement ----------------------------------------

def _orthant_weight_integral(phi: GridFunction, a: float) -> float:
    """Exact integral of phi(x) pi(x)^a over the orthant (a > -1): the sum over
    cells of the cell value times the closed-form integral of pi(x)^a on the cell."""
    weight = None
    for s, c in zip(phi.shape, phi.cell_sizes):
        edges = np.arange(s + 1, dtype=np.float64) * c
        w = (edges[1:] ** (a + 1.0) - edges[:-1] ** (a + 1.0)) / (a + 1.0)
        weight = w if weight is None else np.multiply.outer(weight, w)
    return float(np.sum(phi.values * weight))


_BOX_NODES = 16
_BOX_CHUNK = 1 << 16  # float64 values of the Gauss tensor grid held at once


class BoxPanels(NamedTuple):
    """The Gauss panels of one axis for the weighted box-operator integral.

    Panels split [0, 2 * extent] at every cell edge and doubled cell edge,
    where the box average has kinks, under the substitution x = s^2.
    ``nodes`` holds the Gauss nodes in s, ``half_weights`` their Gauss
    weights times the panel half-width, and ``box`` the box matrix W of the
    axis at x = nodes^2, one column per cell of size ``cell_size``.
    """

    nodes: np.ndarray
    half_weights: np.ndarray
    box: np.ndarray
    cell_size: float

    def weights(self, a: float) -> np.ndarray:
        """Quadrature weights in x for the weight x^a (Jacobian 2 s included)."""
        return self.half_weights * 2.0 * self.nodes ** (2.0 * a + 1.0)


def box_panels(phi: GridFunction) -> list[BoxPanels]:
    """One ``BoxPanels`` per axis of phi; they depend on its shape and cells only.

    An axis of s cells has about 1.5 s panels, so m = 24 s Gauss nodes and a
    box matrix of 24 s^2 float64 values.
    """
    nodes, gw = _leggauss(_BOX_NODES)
    out = []
    for s, c in zip(phi.shape, phi.cell_sizes):
        edges = np.unique(np.concatenate([
            np.arange(s + 1, dtype=np.float64) * c,
            np.arange(1, s + 1, dtype=np.float64) * (2.0 * c),
        ]))
        se = np.sqrt(edges)
        mid = 0.5 * (se[1:] + se[:-1])
        half = 0.5 * (se[1:] - se[:-1])
        sn = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
        hw = (half[:, None] * gw[None, :]).ravel()
        out.append(BoxPanels(sn, hw, box_weights(sn**2, s, c), c))
    return out


def box_operator_weighted_integral(phi: GridFunction, r: float, a: float,
                                   panels=None) -> float:
    """Quadrature for the integral of (box average of phi)^r * pi(x)^a over the orthant.

    Per-axis substitution x = s^2 removes the a = -1/2 singularity; panels are
    split at every cell edge and doubled cell edge, where the box average has
    kinks, so the integrand is smooth on each panel and fixed-order Gauss
    nodes resolve it to near machine precision.

    The box average is separable, T phi(x) = sum_c phi_c prod_k W_k(x_k, c_k),
    so the m_1 x ... x m_n Gauss tensor grid is never needed for r = 1 or 2:

    * r = 1 is sum_c phi_c prod_k g_k(c_k) with g_k = w_k^T W_k, about
      sum_k m_k s_k products for s_k cells on axis k;
    * r = 2 with n >= 2 contracts phi with one Gram matrix
      G_k = W_k^T diag(w_k) W_k per axis (m_k s_k^2 products each) and takes
      the inner product with phi;
    * any other r, and r = 2 in 1-D, where the m_1 Gauss nodes cost less than
      the m_1 s_1^2 of a Gram matrix, evaluate T phi on the tensor grid in
      chunks over axis 0, ``_BOX_CHUNK`` values at a time, so memory stays
      bounded.

    ``panels`` holds ``box_panels(phi)`` when the caller has them.
    """
    if a <= -1.0:
        raise ParameterError(f"the weight is integrable only for a > -1, got {a}")
    if any(o != 0.0 for o in phi.origin):
        raise PreconditionError("the box operator lives on grids anchored at the origin")
    if panels is None:
        panels = box_panels(phi)
    elif [(pn.box.shape[1], pn.cell_size) for pn in panels] != list(zip(phi.shape, phi.cell_sizes)):
        raise PreconditionError("box panels were built for another grid")
    weights = [pn.weights(a) for pn in panels]
    mats = [pn.box for pn in panels]
    if r == 1:
        out = phi.values
        for w, m in zip(weights, mats):
            out = np.tensordot(w @ m, out, axes=([0], [0]))
        return float(out)
    if r == 2 and phi.dims > 1:
        grams = [(m * w[:, None]).T @ m for w, m in zip(weights, mats)]
        return float(np.vdot(phi.values, contract_axes(phi.values, grams)))
    rest = math.prod(m.shape[0] for m in mats[1:])
    step = max(1, _BOX_CHUNK // rest)
    total = 0.0
    for i in range(0, mats[0].shape[0], step):
        field = contract_axes(phi.values, [mats[0][i:i + step]] + mats[1:]) ** r
        for w in [weights[0][i:i + step]] + weights[1:]:
            field = np.tensordot(w, field, axes=([0], [0]))
        total += float(field)
    return total


def verify_box_operator(m: Member, rs, a_values) -> list[InequalityReport]:
    """Dyadic-box averaging operator bounds with their stated constants.

    * pointwise (coordinate-wise nonincreasing phi only): phi(x) is at most its
      box average at every cell corner -- hard constant 1.
    * weighted: integral of (T phi)^r pi^a is at most 2^(max(1,a) n) times the
      integral of phi^r pi^a -- the operator's own constant.
    """
    phi, function_id = m.f, m.function_id
    n = phi.dims
    reports: list[InequalityReport] = []
    zero = phi.support_cells == 0
    if is_mdec(phi) and not zero:
        tfield = box_average_field(phi)
        ratio = float(np.max(np.where(tfield.values > 0,
                                      phi.values / np.maximum(tfield.values, 1e-300), 0.0)))
        reports.append(_report("box-operator-pointwise", function_id, n, {}, ratio, 1.0))
    panels = None if zero else box_panels(phi)
    for r in rs:
        for a in a_values:
            params = {"r": float(r), "a": float(a)}
            if zero:
                reports.append(_degenerate("box-operator-weight", function_id, n, params))
                continue
            lhs = box_operator_weighted_integral(phi, r, a, panels=panels)
            rhs_base = _orthant_weight_integral(phi.with_values(phi.values**r), a)
            reports.append(_report("box-operator-weight", function_id, n, params,
                                   lhs, rhs_base, "panel quadrature"))
    return reports


def axis_decrement_integral(f: GridFunction, k: int, mu: float, h: float, p: float) -> float:
    """Exact 1/p-power of the column integral of u^(-p) (f(u) - f(mu u))^p over u > h.

    f must be coordinate-wise nonincreasing on the orthant; per column the
    integrand is piecewise constant between the cell edges and their mu-th
    shrinkings, so each piece integrates in closed form (log form at p = 1).
    """
    if mu <= 1.0:
        raise ParameterError(f"mu must be > 1, got {mu}")
    if h <= 0:
        raise ParameterError(f"h must be > 0, got {h}")
    if not is_mdec(f):
        raise PreconditionError("the axis decrement bound needs a coordinate-wise nonincreasing f")
    a = np.moveaxis(f.values, k, 0)
    nk = a.shape[0]
    c = f.cell_sizes[k]
    colvol = f.cell_volume / c
    top = nk * c
    edges = np.unique(np.concatenate([
        np.arange(nk + 1, dtype=np.float64) * c,
        np.arange(nk + 1, dtype=np.float64) * c / mu,
        [h],
    ]))
    edges = edges[(edges >= h) & (edges <= top)]
    if edges.size < 2:
        return 0.0
    cols = a.reshape(nk, -1)
    zero_row = np.zeros(cols.shape[1])
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        midu = 0.5 * (lo + hi)
        iu = int(midu // c)
        imu = int(mu * midu // c)
        fu = cols[iu] if iu < nk else zero_row
        fmu = cols[imu] if imu < nk else zero_row
        diff = fu - fmu
        if p == 1.0:
            w = math.log(hi / lo)
        else:
            w = (lo ** (1.0 - p) - hi ** (1.0 - p)) / (p - 1.0)
        total += w * float(np.sum(diff**p))
    return (total * colvol) ** (1.0 / p)


def verify_axis_decrement(m: Member, p: float, mus, h_values) -> list[InequalityReport]:
    """Column decrement integral against 4 mu times the modulus quotient.

    For coordinate-wise nonincreasing f on the orthant, each axis k, mu > 1:
    the exact column integral is at most 4 mu omega_k(f; h)_p / h.
    """
    _check_shifts(h_values, "shift h")
    f, function_id = m.f, m.function_id
    reports: list[InequalityReport] = []
    n = f.dims
    zero = f.support_cells == 0
    for k in range(n):
        curve = None if zero else m.curves(p)[k]
        for mu in mus:
            for h in h_values:
                params = {"p": p, "axis": k, "mu": float(mu), "h": float(h)}
                if zero:
                    reports.append(_degenerate("axis-decrement", function_id, n, params))
                    continue
                lhs = axis_decrement_integral(f, k, mu, h, p)
                rhs = float(curve(h)) / h
                reports.append(_report("axis-decrement", function_id, n, params, lhs, rhs))
    return reports
