"""Numerical verifiers for the rearrangement and embedding inequalities.

Each verifier computes both sides of one inequality -- exactly where the step
structure allows it, with documented quadrature otherwise -- and emits
InequalityReports.  ``INEQUALITIES`` declares every report id once, with its
tier: hard constants that the underlying estimates state explicitly (asserted
as-is), and "there exists c" results whose budgets a calibration run freezes.
The verifiers read every budget from that table: a hard id gets its constant,
a calibrated id gets inf until ``run_experiment(..., budgets=)`` applies the
budget file.  Every verifier takes a ``Member``, which builds each quantity it
derives from its function (curves, f*, its dyadic decrement, decrement sums,
Gagliardo offset sums, gauges) once; ``verify_embedding`` reads one Besov
product per parameter point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, PreconditionError, ResourceError
from .geometry import (AnisotropicGauge, BoxPanels, _axis_panels, _box_along, _box_gram,
                       _box_vector, box_average_field, build_gauge, contract_axes)
from .grid import GridFunction, _check_p, make_grid_function
from .moduli import _BLOCK, ModulusCurve, interval_curve_1d, modulus_curve, steklov_distances
from .norms import (
    BesovParams,
    GagliardoSums,
    _leggauss,
    besov_seminorm,
    derive_lipschitz_params,
    derive_params,
    gagliardo_seminorm,
    gagliardo_sums,
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


@dataclass(frozen=True, eq=False)
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

    A hard id gets its stated constant, a calibrated id gets inf.  A NaN side
    keeps the verdict ``fail`` and is named in the truncation.
    """
    if lhs != lhs or rhs != rhs:  # only NaN differs from itself
        nan = " and ".join(side for side, v in (("lhs", lhs), ("rhs", rhs)) if math.isnan(v))
        truncation = "; ".join(filter(None, (truncation, f"NaN {nan}")))
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


_ITSELF = object()  # the ``Member.iterated`` item of a record that is its own rearrangement


class Member:
    """One corpus member with the quantities the verifiers derive from it.

    A record serves one job: ``run_experiment`` builds one per corpus member
    inside that member's job and drops it when the member is done, so no
    record is shared between jobs or threads.  Each item is built on first
    use and kept for the life of the record: the modulus curves of f per axis
    at exponent p (``curves(p)``), its decreasing rearrangement (``star``),
    the dyadic decrement f*(t) - f*(2t) of f* (``decrement``), the decrement
    sums at p (``sums(p)``), the Gagliardo offset sums at p
    (``gagliardo_sums(p)``), the gauge of a rearrangement order
    (``gauge(order)``), the record of the iterated rearrangement of an order
    (``iterated(order)``) and the Gauss panels of the box operator
    (``box_panels``).
    """

    def __init__(self, f: GridFunction, function_id: str = ""):
        self.f = f
        self.function_id = function_id
        self._items: dict = {}

    def _item(self, key, build):
        got = self._items.get(key)
        if got is None:
            got = self._items[key] = build()
        return got

    def curves(self, p: float) -> tuple[ModulusCurve, ...]:
        """``modulus_curve(f, k, p)`` for k = 0..n-1."""
        return self._item(("curves", p),
                          lambda: tuple(modulus_curve(self.f, k, p) for k in range(self.f.dims)))

    @property
    def star(self) -> StepFunction:
        """The decreasing rearrangement f*."""
        return self._item("star", lambda: decreasing_rearrangement(self.f))

    @property
    def decrement(self) -> StepFunction:
        """The dyadic decrement ``dyadic_decrement(f*)``, t -> f*(t) - f*(2t)."""
        return self._item("decrement", lambda: dyadic_decrement(self.star))

    def sums(self, p: float) -> DecrementSums:
        """``decrement_sums(f*, p, n)``."""
        return self._item(("sums", p), lambda: decrement_sums(self.star, p, self.f.dims))

    def gagliardo_sums(self, p: float) -> GagliardoSums:
        """``gagliardo_sums(f, p)``; raises ``ResourceError`` past its size guard."""
        return self._item(("gagliardo", p), lambda: gagliardo_sums(self.f, p))

    def gauge(self, order) -> AnisotropicGauge:
        """``build_gauge(f, order)``."""
        order = tuple(int(k) for k in order)
        return self._item(("gauge", order), lambda: build_gauge(self.f, order))

    def iterated(self, order) -> Member:
        """The record of ``iterated_rearrangement(f, order)``.

        That is this record itself when f already is its iterated
        rearrangement: a half-space f anchored at 0 whose values the
        rearrangement keeps, as every coordinate-wise nonincreasing member's
        are.  ``_items`` then holds a marker, not the record, so the record
        holds no reference to itself.
        """
        order = tuple(int(k) for k in order)

        def build():
            f = self.f
            g = iterated_rearrangement(f, order)
            if f.halfspace and not any(f.origin) and np.array_equal(g.values, f.values):
                return _ITSELF
            return Member(g, self.function_id)

        got = self._item(("iterated", order), build)
        return self if got is _ITSELF else got

    @property
    def box_panels(self) -> list[BoxPanels]:
        """``box_panels(f)``."""
        return self._item("box_panels", lambda: box_panels(self.f))


# --- isotropic rearrangement estimate -------------------------------------------

class DecrementSums(NamedTuple):
    """The delta-free part of the isotropic estimate's left side, for one (f*, p, n).

    On the k-th step (left[k], right[k]] of f*, ``inner[k]`` is the integral
    over (0, t) of (f*(u) - f*(t))^p; ``tail`` is the same integral for t
    beyond the support.  With e = p/n, ``steps[k]`` is the step's share
    inner[k] (left[k]^(-e) - right[k]^(-e)) / e of the left side whenever the
    cut delta^n lies at or below left[k] (0 for step 0, whose inner is 0).
    For K steps and an integer p, building them costs O(pK) array work by the
    drop recurrence; any other p costs O(K^2) element work, one step at a time.
    """

    left: np.ndarray
    right: np.ndarray
    inner: np.ndarray
    tail: float
    steps: np.ndarray


def decrement_sums(sf: StepFunction, p: float, n: int) -> DecrementSums:
    """The ``DecrementSums`` at exponent p of f* = ``sf`` of an n-dimensional f.

    ``sf`` must be nonincreasing.  At an integer p, ``inner`` follows the
    drop recurrence (``_drop_recurrence``), within a few ulps of
    ``np.sum((values[:k] - values[k]) ** p * widths[:k])`` and exactly 0
    where that sum is 0.  At any other p, ``inner[k]`` is that sum.
    ``verify_isotropic_estimate`` reads the sums from ``Member.sums(p)``.
    """
    bp = sf.breakpoints
    vals = sf.values
    size = vals.size
    left = np.concatenate([[0.0], bp[:-1]])
    widths = bp - left
    if float(p).is_integer():
        inner = _drop_recurrence(vals, left, int(p))
    else:
        inner = np.array([np.sum((vals[:k] - vals[k]) ** p * widths[:k]) for k in range(size)])
    e = p / n
    # scalar powers: an array power may differ from them in the last bit
    powers = np.array([b ** -e for b in bp.tolist()])
    steps = np.zeros(size)
    live = np.flatnonzero(inner[1:] > 0.0) + 1
    steps[live] = inner[live] * (powers[live - 1] - powers[live]) / e
    return DecrementSums(left, bp, inner, float(np.sum(vals**p * widths)), steps)


def _drop_recurrence(vals: np.ndarray, left: np.ndarray, p: int) -> np.ndarray:
    """J_p[k] = sum over i < k of (vals[i] - vals[k])^p * w_i for an integer p >= 1.

    With d_k = vals[k-1] - vals[k] >= 0 (d_0 = 0), J_0[k] = left[k] is the
    breakpoint itself, and for j >= 1
    J_j[k] = J_j[k-1] + d_k^j left[k] + sum over 0 < m < j of C(j, m) d_k^(j-m) J_m[k-1].
    Each J_j is one ``np.cumsum`` of nonnegative terms: no cancellation, and
    a step tied with every step before it keeps an exact 0.
    """
    d = np.zeros(vals.size)
    d[1:] = vals[:-1] - vals[1:]
    done: list[np.ndarray] = []  # J_1 .. J_(j-1), each shifted one step right
    for j in range(1, p + 1):
        terms = d**j * left
        for m, prev in enumerate(done, start=1):
            terms += math.comb(j, m) * d ** (j - m) * prev
        inner = np.cumsum(terms)
        done.append(np.concatenate([[0.0], inner[:-1]]))
    return inner


def verify_isotropic_estimate(m: Member, p: float, delta: float) -> InequalityReport:
    """Tail integral of the rearrangement decrement against the isotropic modulus.

    LHS = integral over t > delta^n of t^(-p/n - 1) * integral_0^t
    (f*(u) - f*(t))^p du dt, closed form on the rearrangement steps.
    RHS = (omega(f; delta)_p / delta)^p with the isotropic modulus taken as the
    max over axes of the partial moduli (recorded in the params).
    """
    _check_p(p)
    if not delta > 0:
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

def _window_power_integrals(sf: StepFunction, a: np.ndarray, b: np.ndarray, r: float) -> np.ndarray:
    """``sf.window_power_integral(a[i], b[i], r)`` for every i, with its bits.

    One (windows x steps) array of piece lengths, in chunks of windows of
    about ``_BLOCK`` elements; each window's row sum reduces its terms as
    the single call's ``np.sum`` does.
    """
    bp = sf.breakpoints
    out = np.zeros(a.size)
    if bp.size == 0:
        return out
    left = np.concatenate([[0.0], bp[:-1]])
    vr = sf.values**r
    rows = max(1, _BLOCK // bp.size)
    for i in range(0, a.size, rows):
        lo = np.maximum(left, a[i:i + rows, None])
        hi = np.minimum(bp, b[i:i + rows, None])
        lengths = np.maximum(hi - lo, 0.0, out=hi)
        lengths *= vr
        out[i:i + rows] = lengths.sum(axis=1)
    return out


def verify_anisotropic_estimate(m: Member, p: float, order, h_values) -> list[InequalityReport]:
    """Gauge-weighted decrement bounds, one report pair per (axis, shift).

    With phi(t) = f*(t) - f*(2t) and the per-axis gauge u_j(t), checks on the
    lattice domain Omega_j(h) = {t : u_j(t) >= h}:

    * integral form:  sum over t in Omega of
      integral_(t_prev, t] phi(s)^p ds / u_j(t)^p  <=  c (omega_j(f; h)_p / h)^p
    * sup form:       max over t in Omega of t^(1/p) phi(t) / u_j(t)
      <=  c omega_j(f; h)_p / h

    The moduli on the right are those of the original f.  The integral form
    adds the terms of Omega in lattice order, with u_j(t)^p a scalar power.
    """
    _check_p(p)
    _check_shifts(h_values, "shift h")
    order = tuple(int(k) for k in order)
    gauge = m.gauge(order)
    n, function_id = m.f.dims, m.function_id
    cases = [(j, h, {"p": p, "order": list(order), "axis": j, "h": float(h)})
             for j in range(n) for h in h_values]
    ids = ("aniso-gauge-integral", "aniso-gauge-sup")
    tv = gauge.t_values
    if gauge.degenerate or tv.size == 0:
        return [_degenerate(iid, function_id, n, prm, "degenerate gauge")
                for _, _, prm in cases for iid in ids]
    phi, curves = m.decrement, m.curves(p)
    t_prev = np.concatenate([[0.0], tv[:-1]])
    window = _window_power_integrals(phi, t_prev, tv, p)
    peak = np.array([t ** (1.0 / p) for t in tv]) * phi(tv)
    reports: list[InequalityReport] = []
    for j, h, prm in cases:
        mask = gauge.omega_mask(j, h)
        if not np.any(mask):
            reports += [_degenerate(iid, function_id, n, prm, "empty domain") for iid in ids]
            continue
        omega = float(curves[j](h))
        lhs_int = float(np.cumsum(window[mask] / [u**p for u in gauge.u[mask, j]])[-1])
        lhs_sup = max(0.0, float(np.max(peak[mask] / gauge.u[mask, j])))
        reports.append(_report(ids[0], function_id, n, prm, lhs_int, (omega / h) ** p,
                               "lattice sum"))
        reports.append(_report(ids[1], function_id, n, prm, lhs_sup, omega / h, "lattice sup"))
    return reports


def verify_gauge_product(m: Member, order) -> list[InequalityReport]:
    """Exact check that the gauge factors multiply below the level measure.

    product over j of u_j(t) <= t at every lattice point; hard budget 1.
    """
    order = tuple(int(k) for k in order)
    gauge = m.gauge(order)
    n, function_id = m.f.dims, m.function_id
    params = {"order": list(order)}
    if gauge.degenerate or gauge.t_values.size == 0:
        return [_degenerate("gauge-product", function_id, n, params, "degenerate gauge")]
    return [_report("gauge-product", function_id, n, {**params, "t": t}, prod, t)
            for t, prod in zip(gauge.t_values.tolist(), np.prod(gauge.u, axis=1).tolist())]


# --- embedding into Lorentz spaces -------------------------------------------------

def _besov_product(m: Member, params: BesovParams):
    """Product over axes of the weighted axis Besov seminorms, and the seminorms."""
    n = params.n
    curves = m.curves(params.p)
    semis = [besov_seminorm(curves[j], params.beta_js[j], params.theta_js[j]) for j in range(n)]
    rhs = 1.0
    for b, beta_j, theta_j in zip(semis, params.beta_js, params.theta_js):
        factor = 1.0 if math.isinf(theta_j) else (1.0 - beta_j) ** (1.0 / theta_j)
        rhs *= (factor * b) ** (params.beta / (n * beta_j))
    return rhs, semis


def verify_embedding(m: Member, params: BesovParams, order=None) -> list[InequalityReport]:
    """Lorentz-norm embeddings against one weighted product of axis Besov seminorms.

    Reports the Lorentz norm of f* and the exact dyadic-decrement step of the
    proof: that norm is at most (1 - 2^(-1/q))^(-1) times the decrement norm
    J.  With ``order`` given, also the mixed Lorentz norm of the iterated
    rearrangement.  A zero f gives degenerate norm rows and no step row.
    """
    if not params.admissible:
        raise ParameterError(
            f"inadmissible parameters: need 1 <= p < n/beta, got p={params.p}, "
            f"n/beta={params.n / params.beta}")
    if any(t < params.p for t in params.theta_js):
        raise ParameterError(f"theta_j < p is an open case, got {params.theta_js}, p={params.p}")
    q, theta, n, function_id = params.q, params.theta, params.n, m.function_id
    base = {"p": params.p, "q": q, "theta": theta,
            "beta_js": list(params.beta_js), "theta_js": list(params.theta_js)}
    lorentz_params = {**base, "flavor": "lorentz"}
    rows = [("embedding-lorentz", lorentz_params)]
    if order is not None:
        mixed_params = {**base, "flavor": "mixed", "order": [int(k) for k in order]}
        rows.append(("embedding-mixed", mixed_params))
    if m.f.support_cells == 0:
        return [_degenerate(iid, function_id, n, prm) for iid, prm in rows]
    rhs, semis = _besov_product(m, params)
    trunc = "unbounded seminorm on the right" if math.isinf(rhs) else ""
    lhs = lorentz_norm(m.star, q, theta)
    phi = m.decrement
    if math.isinf(theta):
        j_norm = phi.weighted_sup(1.0 / q)
    else:
        j_norm = phi.power_integral(theta / q, theta) ** (1.0 / theta)
    c = 1.0 / (1.0 - 2.0 ** (-1.0 / q))
    out = [_report("embedding-lorentz", function_id, n, {**lorentz_params, "seminorms": semis},
                   lhs, rhs, trunc),
           _report("embedding-dyadic-step", function_id, n, {"q": q, "theta": theta},
                   lhs, c * j_norm)]
    if order is not None:
        out.append(_report("embedding-mixed", function_id, n,
                           {**mixed_params, "seminorms": list(semis)},
                           mixed_lorentz_norm(m.iterated(order).f, q, theta), rhs, trunc))
    return out


def verify_lipschitz_endpoint(m: Member, p: float) -> InequalityReport:
    """Endpoint Lorentz bound by the geometric mean of axis Lipschitz seminorms.

    With every axis smoothness equal to 1: Lorentz(q*, s) norm of f* against
    the product of sup-slope seminorms, q* = np/(n-p), s = p.
    """
    _check_p(p)
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
        rhs *= lipschitz_seminorm(curve, 1.0) ** (lp.alpha / (n * 1.0))
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
        reps = verify_embedding(m, params)
        rep = reps[0]
        reports.extend(reps)
        if rep.lhs == 0.0:
            truncated = True
            break
        # the control is the report's product without the weights
        rhs_ctrl = math.prod(b ** (params.beta / (n * bj))
                             for b, bj in zip(rep.params["seminorms"], params.beta_js))
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
    target = (1.0 / theta) ** (1.0 / theta) * lipschitz_seminorm(curve, 1.0)
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
    _check_p(p)
    f, function_id = m.f, m.function_id
    if f.dims != 1:
        raise PreconditionError("the Gagliardo limit target is implemented for n = 1")
    target = (2.0 / p) * slope_norm_power(f, p)
    ms = np.arange(1, m_max + 1, dtype=np.float64)
    try:
        sums = m.gagliardo_sums(p)
    except ResourceError:
        # past the size guard of the double sum: the trace has no points
        return LimitTrace("gagliardo-limit", function_id, "m", ms[:0], np.empty(0),
                          target, truncated=True)
    vals = np.empty(ms.size)
    for i, mi in enumerate(ms):
        alpha = 1.0 - 2.0**-mi
        vals[i] = (1.0 - alpha) * gagliardo_seminorm(sums, alpha)
    return LimitTrace("gagliardo-limit", function_id, "m", ms, vals, target)


def verify_fractional_sobolev(m: Member, p: float, alpha: float) -> list[InequalityReport]:
    """Critical-exponent norm bounds by the weighted Gagliardo integral.

    LHS is the p-th power of the L^(p*) norm (and, in the second report, of
    the stronger Lorentz(p*, p) norm), p* = np/(n - alpha p); RHS is
    (1 - alpha)/(n - alpha p)^(p-1) times the Gagliardo double integral.  On
    a grid past the size guard of that integral both reports are degenerate,
    and their truncation names the cell count and the guard.
    """
    _check_p(p)
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
        sums = m.gagliardo_sums(p)
    except ResourceError as exc:
        return [_degenerate(iid, function_id, n, params, f"not computed: {exc}")
                for iid in ids]
    sf = m.star
    rhs = (1.0 - alpha) / (n - alpha * p) ** (p - 1.0) * gagliardo_seminorm(sums, alpha)
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
    decreasing rearrangement is at most twice that of f (hard constant 2).  A
    1-D input whose grid is not inside [0, 1] gets degenerate rows whose
    truncation names that precondition.
    In any dimension: each partial modulus of an iterated rearrangement is at
    most 3^n times the corresponding partial modulus of f (hard constant 3^n),
    for the identity order and its reverse.
    """
    _check_p(p)
    _check_shifts(deltas, "delta")
    f, function_id = m.f, m.function_id
    n = f.dims
    reports: list[InequalityReport] = []
    zero = f.support_cells == 0
    if n == 1:
        for delta in deltas:
            if delta > 0.5:
                raise ParameterError(f"the interval comparison needs delta <= 1/2, got {delta}")
        params = [{"p": p, "delta": float(delta)} for delta in deltas]
        try:
            vals = _unit_interval_values(f)
        except PreconditionError as exc:
            return [_degenerate("rearrangement-modulus-1d", function_id, n, prm,
                                f"not computed: {exc}") for prm in params]
        if zero:
            return [_degenerate("rearrangement-modulus-1d", function_id, n, prm) for prm in params]
        # one interval curve each for g and g*, read at every delta; g* is g
        # itself when g is already nonincreasing
        g_curve = interval_curve_1d(make_grid_function(vals, f.cell_sizes), p)
        star_curve = (g_curve if not np.any(np.diff(vals) > 0) else interval_curve_1d(
            make_grid_function(np.sort(vals)[::-1], f.cell_sizes), p))
        return [_report("rearrangement-modulus-1d", function_id, n, prm,
                        star_curve(delta), g_curve(delta))
                for prm, delta in zip(params, deltas)]
    # each curve is built once and shared by every delta (and, for f, every order)
    f_curves = None if zero else m.curves(p)
    for order in (tuple(range(n)), tuple(reversed(range(n)))):
        rf_curves = None if zero else m.iterated(order).curves(p)
        for k in range(n):
            for delta in deltas:
                params = {"p": p, "delta": float(delta), "axis": k, "order": list(order)}
                if zero:
                    reports.append(_degenerate("rearrangement-modulus-axes", function_id,
                                               n, params))
                    continue
                lhs = rf_curves[k](delta)
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
    _check_p(p)
    _check_shifts(deltas, "delta")
    reports: list[InequalityReport] = []
    f, function_id = m.f, m.function_id
    if f.halfspace:
        f = GridFunction(f.values, f.cell_sizes, f.origin, halfspace=False)
        m = Member(f, function_id)
    n = f.dims
    zero = f.support_cells == 0
    ids = ("modulus-mean-bound", "steklov-distance", "steklov-derivative")
    d = np.asarray(deltas, dtype=np.float64)
    for k in range(n):
        params = [{"p": p, "axis": k, "delta": float(x)} for x in deltas]
        if zero:
            reports.extend(_degenerate(iid, function_id, n, prm) for prm in params for iid in ids)
            continue
        # one curve per axis carries the profile every delta reads
        curve = m.curves(p)[k]
        omega = curve(d)
        columns = zip(omega.tolist(), (curve.shift_integral(d) / d).tolist(),
                      steklov_distances(f, curve, d).tolist(),
                      (curve.shift_norm(d) / d).tolist(), (omega / d).tolist())
        for prm, (om, mean, dist, slope, om_slope) in zip(params, columns):
            reports.append(_report("modulus-mean-bound", function_id, n, prm, om, mean))
            reports.append(_report("steklov-distance", function_id, n, prm, dist, om))
            reports.append(_report("steklov-derivative", function_id, n, prm, slope, om_slope))
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


def box_panels(phi: GridFunction) -> list[BoxPanels]:
    """One ``BoxPanels`` per axis of phi; they depend on its shape and cells only.

    Panels split [0, 2 * extent] at every cell edge and doubled cell edge,
    where the box average has kinks, under the substitution x = s^2; the
    rows of the box matrix are built at x = nodes^2, computed once here.
    An axis of s cells has about 1.5 s panels and m = 24 s Gauss nodes.  Its
    panels hold five arrays of m values and three of one value per run,
    never the m x s box matrix.
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
        out.append(_axis_panels(sn**2, s, c, sn, hw))
    return out


def box_operator_weighted_integral(m: Member, r: float, a: float) -> float:
    """Quadrature for the integral of (box average of phi)^r * pi(x)^a over the orthant.

    Per-axis substitution x = s^2 removes the a = -1/2 singularity; panels are
    split at every cell edge and doubled cell edge, where the box average has
    kinks, so the integrand is smooth on each panel and fixed-order Gauss
    nodes resolve it to near machine precision.

    The box average is separable, T phi(x) = sum_c phi_c prod_k W_k(x_k, c_k),
    and a row of W_k is one contiguous range of cells (``BoxPanels``), so no
    m_k x s_k matrix W_k is formed, for m_k Gauss nodes and s_k cells on
    axis k, and for r = 1 or 2 no Gauss tensor grid either:

    * r = 1 is sum_c phi_c prod_k g_k(c_k) with g_k = W_k^T w_k, in
      O(m_k + s_k) index work per axis;
    * r = 2 with n >= 2 contracts phi with one Gram matrix
      G_k = W_k^T diag(w_k) W_k per axis, built from per-run node sums into
      an s_k x s_k array, and takes the inner product with phi;
    * any other r, and r = 2 in 1-D, evaluate T phi on the tensor grid from
      range sums of phi along each axis, in chunks over axis 0,
      ``_BOX_CHUNK`` values at a time, so memory stays bounded.

    Every range sum adds its own slice, never a difference of prefix sums.
    phi is ``m.f``; ``m.box_panels`` holds the Gauss panels of each axis.
    """
    _check_box_exponents(r, a)
    phi = m.f
    if any(o != 0.0 for o in phi.origin):
        raise PreconditionError("the box operator lives on grids anchored at the origin")
    panels = m.box_panels
    weights = [pn.weights(a) for pn in panels]
    if r == 1:
        out = phi.values
        for pn, w, s in zip(panels, weights, phi.shape):
            out = np.tensordot(_box_vector(pn, w, s), out, axes=([0], [0]))
        return float(out)
    if r == 2 and phi.dims > 1:
        grams = [_box_gram(pn, w, s) for pn, w, s in zip(panels, weights, phi.shape)]
        return float(np.vdot(phi.values, contract_axes(phi.values, grams)))
    rest = math.prod(pn.nodes.size for pn in panels[1:])
    step = max(1, _BOX_CHUNK // rest)
    total = 0.0
    for i in range(0, panels[0].nodes.size, step):
        field = _box_along(panels[0], phi.values, 0, i, i + step)
        for k in range(1, phi.dims):
            field = _box_along(panels[k], field, k)
        field **= r
        for w in [weights[0][i:i + step]] + weights[1:]:
            field = np.tensordot(w, field, axes=([0], [0]))
        total += float(field)
    return total


def _check_box_exponents(r: float, a: float) -> None:
    """Reject an r that is not >= 1 or a weight exponent a that is not > -1, NaN included."""
    if not r >= 1.0:
        raise ParameterError(f"r must be >= 1, got {r}")
    if not a > -1.0:
        raise ParameterError(f"the weight is integrable only for a > -1, got {a}")


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
    for r in rs:
        for a in a_values:
            params = {"r": float(r), "a": float(a)}
            _check_box_exponents(r, a)
            if zero:
                reports.append(_degenerate("box-operator-weight", function_id, n, params))
                continue
            lhs = box_operator_weighted_integral(m, r, a)
            rhs_base = _orthant_weight_integral(phi.with_values(phi.values**r), a)
            reports.append(_report("box-operator-weight", function_id, n, params,
                                   lhs, rhs_base, "panel quadrature"))
    return reports


def axis_decrement_integral(f: GridFunction, k: int, mu: float, h, p: float):
    """Exact 1/p-power of the column integral of u^(-p) (f(u) - f(mu u))^p over u > h.

    f must be coordinate-wise nonincreasing on the orthant; per column the
    integrand is piecewise constant between the cell edges and their mu-th
    shrinkings, so each piece integrates in closed form (log form at p = 1).
    h is a scalar or an array; each h cuts the piece it falls in (its cells
    read at the cut piece's own midpoint) and adds its pieces left to right.
    """
    if not mu > 1.0:
        raise ParameterError(f"mu must be > 1, got {mu}")
    _check_p(p)
    hs = np.ravel(h).astype(np.float64)
    _check_shifts(hs, "h")
    if not is_mdec(f):
        raise PreconditionError("the axis decrement bound needs a coordinate-wise nonincreasing f")
    nk, c = f.shape[k], f.cell_sizes[k]
    # row i holds cell i along axis k of every column; row nk is 0, past the grid
    cols = np.pad(np.moveaxis(f.values, k, 0).reshape(nk, -1), ((0, 1), (0, 0)))
    edges = np.unique(np.concatenate([np.arange(nk + 1, dtype=np.float64) * c,
                                      np.arange(nk + 1, dtype=np.float64) * c / mu]))

    def terms(lo, hi):
        mid = 0.5 * (lo + hi)
        diff = (cols[np.minimum(mid // c, nk).astype(np.intp)]
                - cols[np.minimum(mu * mid // c, nk).astype(np.intp)])
        w = [math.log(b / a) if p == 1.0 else (a ** (1.0 - p) - b ** (1.0 - p)) / (p - 1.0)
             for a, b in zip(lo, hi)]
        return np.array(w) * np.sum(diff**p, axis=1)

    whole = terms(edges[1:-1], edges[2:])  # the piece from edges[q] is whole[q - 1]
    first = np.searchsorted(edges, hs, side="right")  # the edge above each h
    cut = terms(hs, edges[np.minimum(first, edges.size - 1)])
    totals = [np.cumsum(np.concatenate([[t], whole[q - 1:]]))[-1] * (f.cell_volume / c)
              if q < edges.size else 0.0 for t, q in zip(cut, first.tolist())]
    out = np.array([float(x ** (1.0 / p)) for x in totals]).reshape(np.shape(h))
    return out if out.ndim else float(out)


def verify_axis_decrement(m: Member, p: float, mus, h_values) -> list[InequalityReport]:
    """Column decrement integral against 4 mu times the modulus quotient.

    For coordinate-wise nonincreasing f on the orthant, each axis k, mu > 1:
    the exact column integral is at most 4 mu omega_k(f; h)_p / h.
    """
    _check_p(p)
    _check_shifts(h_values, "shift h")
    f, function_id = m.f, m.function_id
    reports: list[InequalityReport] = []
    n = f.dims
    zero = f.support_cells == 0
    for k in range(n):
        for mu in mus:
            if not mu > 1.0:  # checked before the zero shortcut too
                raise ParameterError(f"mu must be > 1, got {mu}")
            params = [{"p": p, "axis": k, "mu": float(mu), "h": float(h)} for h in h_values]
            if zero:
                reports += [_degenerate("axis-decrement", function_id, n, prm) for prm in params]
                continue
            lhs = axis_decrement_integral(f, k, mu, h_values, p).tolist()
            curve = m.curves(p)[k]
            reports += [_report("axis-decrement", function_id, n, prm, v, float(curve(h)) / h)
                        for prm, v, h in zip(params, lhs, h_values)]
    return reports
