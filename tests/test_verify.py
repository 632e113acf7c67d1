import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import agf.geometry
import agf.moduli
import agf.norms
import agf.rearrange
import agf.verify
from agf import (
    BesovParams,
    CorpusSpec,
    InequalityReport,
    Member,
    ParameterError,
    StepFunction,
    build_gauge,
    default_corpus,
    derive_params,
    dyadic_decrement,
    decreasing_rearrangement,
    gagliardo_seminorm,
    gagliardo_sums,
    generate_corpus,
    limiting_sweep,
    make_grid_function,
    modulus_curve,
    run_experiment,
    verify_anisotropic_estimate,
    verify_axis_decrement,
    verify_box_operator,
    verify_embedding,
    verify_fractional_sobolev,
    verify_gagliardo_limit,
    verify_gauge_product,
    verify_isotropic_estimate,
    verify_limit_relations,
    verify_lipschitz_endpoint,
    verify_modulus_lemmas,
    verify_rearrangement_modulus,
)
from agf.rearrange import iterated_rearrangement
from agf.experiments import EXPERIMENTS
from agf.verify import (_report, axis_decrement_integral, box_operator_weighted_integral,
                        slope_norm_power)


def test_report_verdict_logic():
    ok = InequalityReport("x", "f", {}, 1.0 + 1e-10, 1.0, 1.0)
    assert ok.verdict == "pass"  # within the relative tolerance band
    bad = InequalityReport("x", "f", {}, 1.0 + 1e-6, 1.0, 1.0)
    assert bad.verdict == "fail"
    zz = InequalityReport("x", "f", {}, 0.0, 0.0, 1.0)
    assert zz.verdict == "degenerate"
    assert zz.ratio == 0.0
    inf_ratio = InequalityReport("x", "f", {}, 1.0, 0.0, 1.0)
    assert inf_ratio.ratio == math.inf
    assert inf_ratio.verdict == "fail"
    flagged = InequalityReport("x", "f", {}, 5.0, 1.0, 1.0, degenerate=True)
    assert flagged.verdict == "degenerate"


def test_zero_function_reports_degenerate():
    z1 = make_grid_function(np.zeros(4), 0.25)
    z2 = make_grid_function(np.zeros((3, 3)), (0.5, 0.5))
    assert verify_isotropic_estimate(Member(z2), 1.0, 0.5).verdict == "degenerate"
    assert all(r.verdict == "degenerate"
               for r in verify_modulus_lemmas(Member(z2), 1.0, [0.5]))
    assert all(r.verdict == "degenerate"
               for r in verify_rearrangement_modulus(Member(z1), 1.0, [0.25]))
    assert all(r.verdict == "degenerate"
               for r in verify_axis_decrement(Member(z2), 1.0, [2.0], [0.5]))


def _scaled(f, lam):
    return make_grid_function(f.values, tuple(c * lam for c in f.cell_sizes))


def test_isotropic_estimate_ratio_is_dilation_invariant():
    rng = np.random.default_rng(61)
    f = make_grid_function(rng.uniform(0, 2, size=(5, 4)), (0.5, 0.4))
    g = _scaled(f, 3.0)
    for p, delta in [(1.0, 0.3), (2.0, 0.7)]:
        a = verify_isotropic_estimate(Member(f), p, delta)
        b = verify_isotropic_estimate(Member(g), p, 3.0 * delta)
        assert b.ratio == pytest.approx(a.ratio, rel=1e-11)


def test_modulus_lemmas_ratios_dilation_invariant_and_pass():
    rng = np.random.default_rng(67)
    f = make_grid_function(rng.uniform(0, 3, size=(4, 5)), (0.4, 0.3))
    g = _scaled(f, 3.0)
    reps_f = verify_modulus_lemmas(Member(f, "f"), 2.0, [0.2, 0.55])
    reps_g = verify_modulus_lemmas(Member(g, "g"), 2.0, [0.6, 1.65])
    assert all(r.verdict == "pass" for r in reps_f)
    for a, b in zip(reps_f, reps_g):
        assert a.inequality_id == b.inequality_id
        assert b.ratio == pytest.approx(a.ratio, rel=1e-11)


def test_lipschitz_endpoint_dilation_invariant():
    rng = np.random.default_rng(71)
    f = make_grid_function(rng.uniform(0, 1, size=(4, 4)), (0.5, 0.5))
    a = verify_lipschitz_endpoint(Member(f), 1.0)
    b = verify_lipschitz_endpoint(Member(_scaled(f, 3.0)), 1.0)
    assert b.ratio == pytest.approx(a.ratio, rel=1e-11)
    with pytest.raises(ParameterError):
        verify_lipschitz_endpoint(Member(f), 2.0)  # needs p < n


def test_embedding_reports_and_dyadic_step():
    rng = np.random.default_rng(73)
    f = make_grid_function(rng.uniform(0, 2, size=(6, 6)), (0.4, 0.4))
    params = derive_params(1.0, (0.5, 0.5), (1.0, 1.0), 2)
    reps = verify_embedding(Member(f), params)
    assert [r.inequality_id for r in reps] == ["embedding-lorentz", "embedding-dyadic-step"]
    step = reps[1]
    assert step.verdict == "pass"  # exact Minkowski-type step, hard constant
    # dilation invariance of the main ratio
    reps3 = verify_embedding(Member(_scaled(f, 3.0)), params)
    assert reps3[0].ratio == pytest.approx(reps[0].ratio, rel=1e-11)
    # the mixed row needs a permutation of the axes as its order
    with pytest.raises(ParameterError):
        verify_embedding(Member(f), params, order=(0, 0))
    mixed = verify_embedding(Member(f), params, order=(0, 1))
    assert mixed[2].inequality_id == "embedding-mixed"


def test_embedding_open_case_guard():
    f = make_grid_function(np.ones((4, 4)), (0.25, 0.25))
    # theta_j below p is outside the proven range, so it cannot come out of
    # derive_params; build the parameter record directly
    p, beta = 1.5, 0.5
    q = 2 * p / (2 - beta * p)
    open_params = BesovParams(p, (0.5, 0.5), (1.0, 1.0), 2, beta, 1.0, q, True)
    with pytest.raises(ParameterError):
        verify_embedding(Member(f), open_params)


def test_gauge_product_exact_bound():
    rng = np.random.default_rng(79)
    for shape, cells in [((5, 4), (0.5, 0.25)), ((3, 3, 3), (0.5, 0.5, 0.5))]:
        f = make_grid_function(rng.uniform(0, 2, size=shape), cells)
        reps = verify_gauge_product(Member(f), tuple(range(len(shape))))
        assert reps and all(r.verdict in ("pass", "degenerate") for r in reps)


def _phi_piece_length(phi, t, t_prev):
    """Length of the part of (t_prev, t] on which phi equals phi(t)."""
    bp = phi.breakpoints
    below = bp[bp < t - 1e-15]
    piece_lo = float(below[-1]) if below.size else 0.0
    return t - max(t_prev, piece_lo)


def test_aniso_sup_form_dominated_by_integral_form():
    rng = np.random.default_rng(83)
    f = make_grid_function(rng.uniform(0, 2, size=(6, 5)), (0.5, 0.4))
    p = 1.0
    gauge = build_gauge(f, (0, 1))
    phi = dyadic_decrement(decreasing_rearrangement(f))
    hs = [0.1, 0.25, 0.5]
    reps = verify_anisotropic_estimate(Member(f), p, (0, 1), hs)
    tv = gauge.t_values
    t_prev = np.concatenate([[0.0], tv[:-1]])
    by_key = {}
    for r in reps:
        by_key.setdefault((r.params["axis"], r.params["h"]), {})[r.inequality_id] = r
    for (axis, h), pair in by_key.items():
        ri = pair["aniso-gauge-integral"]
        rs = pair["aniso-gauge-sup"]
        if ri.degenerate:
            assert rs.degenerate
            continue
        # both right-hand sides come from the same modulus quotient
        assert rs.rhs ** p == pytest.approx(ri.rhs, rel=1e-12)
        mask = gauge.omega_mask(axis, h)
        factor = max(
            tv[i] / _phi_piece_length(phi, tv[i], t_prev[i])
            for i in np.flatnonzero(mask))
        assert rs.lhs ** p <= factor * ri.lhs * (1 + 1e-9)


def test_rearrangement_modulus_hard_constants():
    rng = np.random.default_rng(89)
    f1 = make_grid_function(rng.uniform(0, 1, size=8), 0.125)
    reps = verify_rearrangement_modulus(Member(f1), 1.0, [0.125, 0.25, 0.5])
    assert all(r.budget == 2.0 and r.verdict == "pass" for r in reps)
    with pytest.raises(ParameterError):
        verify_rearrangement_modulus(Member(f1), 1.0, [0.6])
    f2 = make_grid_function(rng.uniform(0, 1, size=(4, 4)), (0.5, 0.5))
    reps2 = verify_rearrangement_modulus(Member(f2), 2.0, [0.3, 0.8])
    assert all(r.budget == 9.0 and r.verdict == "pass" for r in reps2)


def test_an_off_interval_member_gets_degenerate_interval_rows_in_run_all():
    corpus = generate_corpus(CorpusSpec("random-general", (16,), (0.125,), 5))
    assert all(f.extent[0] > 1.0 for _, f in corpus)
    res = run_experiment("all", corpus)
    rows = [r for r in res.reports if r.inequality_id == "rearrangement-modulus-1d"]
    assert rows and all(r.verdict == "degenerate" for r in rows)
    assert all(r.truncation.startswith("not computed: unit-interval comparison")
               for r in rows)
    # every member still gets its other reports, and none of them fails
    assert {r.function_id for r in rows} == {fid for fid, _ in corpus}
    assert {"modulus-mean-bound", "rearr-estimate"} <= {r.inequality_id for r in res.reports}
    assert all(r.verdict != "fail" for r in res.reports)
    with pytest.raises(ParameterError):
        verify_rearrangement_modulus(Member(corpus[0][1]), 1.0, [0.6])


def test_axis_decrement_integral_against_riemann():
    vals = np.array([[4.0, 3.0], [2.0, 1.0]])
    f = make_grid_function(vals, (0.5, 0.5), halfspace=True)
    mu, h = 2.0, 0.2
    for p in [1.0, 2.0]:
        exact = axis_decrement_integral(f, 0, mu, h, p)

        def fval(u, y):
            i, j = int(u // 0.5), int(y // 0.5)
            return vals[i, j] if i < 2 and j < 2 else 0.0

        m = 200_000
        us = np.linspace(h, 1.0, m, endpoint=False) + (1.0 - h) / (2 * m)
        total = 0.0
        for j, y in enumerate([0.25, 0.75]):
            vs = np.array([abs(fval(u, y) - fval(mu * u, y)) for u in us])
            total += float(np.sum(us ** (-p) * vs**p)) * (1.0 - h) / m * 0.5
        assert exact == pytest.approx(total ** (1.0 / p), rel=1e-4)


def test_axis_decrement_bound_and_guards():
    rng = np.random.default_rng(97)
    f = iterated_rearrangement(
        make_grid_function(rng.uniform(0, 2, size=(5, 5)), (0.4, 0.4)), (0, 1))
    reps = verify_axis_decrement(Member(f), 1.0, [2.0, 4.0], [0.4, 0.8])
    assert all(r.verdict == "pass" for r in reps)
    assert {r.budget for r in reps} == {8.0, 16.0}
    with pytest.raises(ParameterError):
        axis_decrement_integral(f, 0, 1.0, 0.4, 1.0)
    with pytest.raises(ParameterError):
        axis_decrement_integral(f, 0, 2.0, 0.0, 1.0)


def _axis_decrement_loop(f, k, mu, h, p):
    """axis_decrement_integral at one h, one piece at a time."""
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


def test_axis_decrement_rejects_a_bad_h_in_an_array():
    f = iterated_rearrangement(make_grid_function([[2.0, 1.0], [1.0, 0.0]], (0.5, 0.5)), (0, 1))
    for bad in (0.0, -0.5, math.nan):
        with pytest.raises(ParameterError):
            axis_decrement_integral(f, 0, 2.0, [0.5, bad], 1.0)


def test_report_names_a_nan_side_in_the_truncation():
    nan = math.nan
    for lhs, rhs, trunc, want in [(1.0, nan, "", "NaN rhs"),
                                  (nan, 1.0, "", "NaN lhs"),
                                  (nan, nan, "", "NaN lhs and rhs"),
                                  (1.0, nan, "lattice sum", "lattice sum; NaN rhs"),
                                  (1.0, 2.0, "lattice sum", "lattice sum")]:
        rep = _report("embedding-lorentz", "f", 2, {}, lhs, rhs, trunc)
        assert rep.truncation == want
        assert rep.verdict == ("pass" if rhs == 2.0 else "fail")



@pytest.mark.parametrize("p", [0.5, math.nan])
@pytest.mark.parametrize("shape, cells", [((4,), 0.25), ((2, 2), (0.25, 0.25))])
def test_zero_members_reject_a_bad_p_like_nonzero_members(shape, cells, p):
    for values in (np.zeros(shape), np.ones(shape)):
        m = Member(make_grid_function(values, cells))
        with pytest.raises(ParameterError, match="p must be >= 1"):
            verify_rearrangement_modulus(m, p, [0.25])
        with pytest.raises(ParameterError, match="p must be >= 1"):
            verify_modulus_lemmas(m, p, [0.25])
    zero = Member(make_grid_function(np.zeros(shape), cells))
    reps = verify_rearrangement_modulus(zero, 1.0, [0.25]) + verify_modulus_lemmas(zero, 1.0, [0.25])
    assert reps and all(r.degenerate for r in reps)


_P_VERIFIERS = {
    "verify_axis_decrement": lambda m, p: verify_axis_decrement(m, p, [2.0], [0.25]),
    "verify_fractional_sobolev": lambda m, p: verify_fractional_sobolev(m, p, 0.5),
    "verify_lipschitz_endpoint": lambda m, p: [verify_lipschitz_endpoint(m, p)],
}


@pytest.mark.parametrize("p", [0.5, math.nan])
@pytest.mark.parametrize("name", sorted(_P_VERIFIERS))
def test_zero_members_reject_a_bad_p_in_every_verifier(name, p):
    f = iterated_rearrangement(make_grid_function([[2.0, 1.0], [1.0, 0.5]], (0.25, 0.25)), (0, 1))
    zero = f.with_values(np.zeros(f.shape))
    for g in (f, zero):
        with pytest.raises(ParameterError, match="p must be >= 1"):
            _P_VERIFIERS[name](Member(g), p)
    reps = _P_VERIFIERS[name](Member(zero), 1.0)
    assert reps and all(r.degenerate for r in reps)


def test_axis_decrement_rejects_a_bad_mu_or_p():
    f = iterated_rearrangement(make_grid_function([[2.0, 1.0], [1.0, 0.0]], (0.5, 0.5)), (0, 1))
    for mu, p in [(math.nan, 1.0), (1.0, 1.0), (2.0, 0.5), (2.0, math.nan)]:
        with pytest.raises(ParameterError):
            axis_decrement_integral(f, 0, mu, [0.5], p)
        for g in (f, f.with_values(np.zeros(f.shape))):
            with pytest.raises(ParameterError):
                verify_axis_decrement(Member(g), p, [2.0, mu], [0.5])


def test_box_operator_rejects_a_bad_r_or_a():
    phi = iterated_rearrangement(make_grid_function([[2.0, 1.0], [1.0, 0.5]], (0.5, 0.5)), (0, 1))
    bad = [(math.nan, 0.5), (0.5, 0.5), (1.0, math.nan), (1.0, -1.0), (2.0, -2.0)]
    for r, a in bad:
        with pytest.raises(ParameterError):
            box_operator_weighted_integral(Member(phi), r, a)
        # a zero member takes the degenerate shortcut, which must not skip the check
        for g in (phi, phi.with_values(np.zeros(phi.shape))):
            with pytest.raises(ParameterError):
                verify_box_operator(Member(g), [1.0, r], [0.5, a])


def test_box_operator_weighted_integral_indicator_oracle():
    ind = make_grid_function([1.0], 1.0)
    # T(chi_(0,1])(x) = 1 for x <= 1, 2/x - 1 for 1 <= x <= 2, 0 beyond
    got = box_operator_weighted_integral(Member(ind), 1.0, 0.0)
    assert got == pytest.approx(2.0 * math.log(2.0), rel=1e-12)
    # a = -1/2 weight on the same profile:
    # integral_0^1 x^(-1/2) + integral_1^2 x^(-1/2) (2/x - 1) = 8 - 4 sqrt(2)
    got_half = box_operator_weighted_integral(Member(ind), 1.0, -0.5)
    assert got_half == pytest.approx(8.0 - 4.0 * math.sqrt(2.0), rel=1e-12)
    with pytest.raises(ParameterError):
        box_operator_weighted_integral(Member(ind), 1.0, -1.0)


def test_box_operator_reports_hold():
    rng = np.random.default_rng(101)
    phi = iterated_rearrangement(
        make_grid_function(rng.uniform(0, 1, size=(4, 4)), (0.5, 0.5)), (0, 1))
    reps = verify_box_operator(Member(phi), [1.0, 2.0], [-0.5, 0.5, 2.0])
    ids = [r.inequality_id for r in reps]
    assert ids.count("box-operator-pointwise") == 1
    assert all(r.verdict == "pass" for r in reps)
    weight_budgets = {(r.params["a"], r.budget) for r in reps
                      if r.inequality_id == "box-operator-weight"}
    assert weight_budgets == {(-0.5, 4.0), (0.5, 4.0), (2.0, 16.0)}


def test_fractional_sobolev_guards_and_reports():
    x = (np.arange(16) + 0.5) / 16
    f = make_grid_function(np.minimum(x, 1 - x), 1 / 16)
    reps = verify_fractional_sobolev(Member(f), 1.0, 0.5)
    assert [r.inequality_id for r in reps] == [
        "fractional-sobolev", "fractional-sobolev-lorentz"]
    assert all(math.isfinite(r.lhs) and math.isfinite(r.rhs) for r in reps)
    with pytest.raises(ParameterError):
        verify_fractional_sobolev(Member(f), 1.0, 0.25)
    with pytest.raises(ParameterError):
        verify_fractional_sobolev(Member(f), 2.0, 0.75)  # p >= n/alpha


def test_gagliardo_limit_converges_on_hat():
    x = (np.arange(64) + 0.5) / 64
    f = make_grid_function(np.minimum(x, 1 - x), 1 / 64)
    trace = verify_gagliardo_limit(Member(f), 1.0, 6)
    assert trace.gaps[-1] < 0.05
    assert trace.gaps[-1] < trace.gaps[0]


def test_besov_limit_converges_on_hat():
    x = (np.arange(64) + 0.5) / 64
    f = make_grid_function(np.minimum(x, 1 - x), 1 / 64)
    for theta in [1.0, 2.0]:
        trace = verify_limit_relations(Member(f), 0, 1.0, theta, 8)
        assert trace.gaps[-1] < 0.05
    with pytest.raises(ParameterError):
        verify_limit_relations(Member(f), 0, 1.0, math.inf, 4)
    for k in (-1, 1):
        with pytest.raises(ParameterError):
            verify_limit_relations(Member(f), k, 1.0, 1.0, 4)


def test_besov_limit_rejects_a_nan_theta():
    f = make_grid_function([0.0, 1.0, 2.0, 1.0], 0.25)
    with pytest.raises(ParameterError):
        verify_limit_relations(Member(f), 0, 1.0, math.nan, 3)


def test_limiting_sweep_weighted_bounded_control_divergent():
    x = (np.arange(16) + 0.5) / 16
    hat = np.minimum(x, 1 - x)
    f = make_grid_function(np.minimum.outer(hat, hat), (1 / 16, 1 / 16))
    tw, tc, reports = limiting_sweep(Member(f), 1.0, (1.0, 1.0), 8)
    assert not tw.truncated
    assert np.max(tw.values) <= 2.0 * tw.values[0]
    assert tc.values[-1] / tc.values[0] >= 5.0
    assert all(r.inequality_id in ("embedding-lorentz", "embedding-dyadic-step")
               for r in reports)


def test_limiting_sweep_truncation_exits():
    m1 = Member(make_grid_function(np.linspace(1.0, 0.1, 16), 1 / 16), "one-d")
    # p = 2 with theta = (1,): derive_params refuses the first point
    with pytest.raises(ParameterError):
        derive_params(2.0, (0.5,), (1.0,), 1)
    tw, tc, reports = limiting_sweep(m1, 2.0, (1.0,), 8)
    assert tw.truncated and tc.truncated and not reports
    assert tw.values.size == tc.values.size == 0 and tw.target == tc.target == 0.0
    # p = 1.5 with theta = (2,): p < n/beta holds at m = 1 and fails at m = 2
    assert derive_params(1.5, (0.5,), (2.0,), 1).admissible
    assert not derive_params(1.5, (0.75,), (2.0,), 1).admissible
    tw, tc, reports = limiting_sweep(m1, 1.5, (2.0,), 8)
    assert tw.truncated and tc.truncated
    assert tw.param_values.tolist() == tc.param_values.tolist() == [1.0]
    assert tw.target == tw.values[0] and tc.target == tc.values[0]
    assert [r.inequality_id for r in reports] == ["embedding-lorentz", "embedding-dyadic-step"]
    # a zero member: lhs 0 at the first point gives one degenerate row and no point
    zero = Member(make_grid_function(np.zeros((4, 4)), (0.25, 0.25)), "zero")
    tw, tc, reports = limiting_sweep(zero, 1.0, (1.0, 1.0), 8)
    assert tw.truncated and tc.truncated and tw.values.size == tc.values.size == 0
    assert [(r.inequality_id, r.degenerate) for r in reports] == [("embedding-lorentz", True)]


def test_degenerate_gauge_rows_on_a_one_cell_member():
    m = Member(make_grid_function([[1.0, 0.0], [0.0, 0.0]], (1.0, 1.0)), "one-cell")
    hs = [0.5, 1.0]
    for order in ((0, 1), (1, 0)):
        gauge = m.gauge(order)
        assert gauge.degenerate or gauge.t_values.size == 0
        rows = verify_gauge_product(m, order)
        assert [(r.inequality_id, r.params, r.degenerate, r.truncation) for r in rows] == [
            ("gauge-product", {"order": list(order)}, True, "degenerate gauge")]
        rows = verify_anisotropic_estimate(m, 1.0, order, hs)
        assert [(r.inequality_id, r.params["axis"], r.params["h"]) for r in rows] == [
            (iid, j, h) for j in range(2) for h in hs
            for iid in ("aniso-gauge-integral", "aniso-gauge-sup")]
        assert all(r.degenerate and r.truncation == "degenerate gauge"
                   and r.lhs == r.rhs == 0.0 for r in rows)


_SHIFT_VERIFIERS = {
    "verify_modulus_lemmas": lambda m, s: verify_modulus_lemmas(m, 1.0, [0.25, s]),
    "verify_anisotropic_estimate":
        lambda m, s: verify_anisotropic_estimate(m, 1.0, (0, 1), [0.25, s]),
    "verify_rearrangement_modulus": lambda m, s: verify_rearrangement_modulus(m, 1.0, [0.25, s]),
    "verify_axis_decrement": lambda m, s: verify_axis_decrement(m, 1.0, [2.0], [0.25, s]),
}


@pytest.mark.parametrize("shift", [0.0, -0.5])
@pytest.mark.parametrize("name", sorted(_SHIFT_VERIFIERS))
def test_verifiers_reject_non_positive_shifts(name, shift):
    rng = np.random.default_rng(103)
    f2 = iterated_rearrangement(
        make_grid_function(rng.uniform(0.5, 1, size=(4, 4)), (0.25, 0.25)), (0, 1))
    fs = [f2]
    if name == "verify_rearrangement_modulus":
        fs.append(make_grid_function(rng.uniform(0.5, 1, size=4), 0.125))
    # a zero member takes the degenerate shortcut, which must not skip the check
    for f in fs + [f.with_values(np.zeros(f.shape)) for f in fs]:
        with pytest.raises(ParameterError):
            _SHIFT_VERIFIERS[name](Member(f), shift)


# --- the shared member record -----------------------------------------------------

_CORPUS = dict(default_corpus(20240901))
# one 1-D, one halfspace 2-D, one hat 2-D, one general 2-D and one 3-D member
_SHARED_CURVE_MEMBERS = ("hat-multilinear-20240903-0", "separable-exp-staircase-20240906-0",
                         "hat-multilinear-20240908-0", "random-general-20240910-1",
                         "random-mdec-20240911-0")


def _trace_fields(tr):
    return (tr.trace_id, tr.function_id, tr.param_name, tr.param_values.tolist(),
            tr.values.tolist(), tr.target, tr.truncated)


def test_run_all_equals_the_single_experiments_concatenated():
    corpus = list(_CORPUS.items())
    whole = run_experiment("all", corpus)
    parts = [run_experiment(name, corpus) for name in EXPERIMENTS]
    assert whole.reports == [r for part in parts for r in part.reports]
    assert ([_trace_fields(t) for t in whole.traces]
            == [_trace_fields(t) for part in parts for t in part.traces])
    assert whole.gauge_rows == [row for part in parts for row in part.gauge_rows]


@pytest.mark.parametrize("fid", _SHARED_CURVE_MEMBERS)
def test_run_all_builds_each_member_curve_once(fid, monkeypatch):
    f = _CORPUS[fid]
    built = []
    build = agf.verify.modulus_curve

    def counted(g, k, p):
        if g is f:
            built.append((k, p))
        return build(g, k, p)

    monkeypatch.setattr(agf.verify, "modulus_curve", counted)
    run_experiment("all", [(fid, f)])
    assert built and len(built) == len(set(built))


def test_modulus_lemmas_build_one_profile_per_axis(monkeypatch):
    calls = []
    profile = agf.moduli._shift_power_profile

    def counted(f, k, p):
        calls.append(k)
        return profile(f, k, p)

    monkeypatch.setattr(agf.moduli, "_shift_power_profile", counted)
    for f in (_CORPUS["random-general-20240910-1"], _CORPUS["random-mdec-20240911-0"]):
        calls.clear()
        verify_modulus_lemmas(Member(f), 2.0, [max(f.extent) * 2.0**-k for k in range(1, 17)])
        assert sorted(calls) == list(range(f.dims))


def test_run_all_call_counts_of_the_gauge_and_axis_decrement(monkeypatch):
    calls = Counter()

    def counted(mod, name):
        fn = getattr(mod, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(mod, name, wrapper)

    for mod in (agf.rearrange, agf.verify, agf.moduli, agf.norms):
        counted(mod, "is_mdec")
    counted(agf.verify, "axis_decrement_integral")
    counted(agf.rearrange, "strictify")
    monkeypatch.setattr(agf.geometry, "strictify", agf.rearrange.strictify, raising=False)
    run_experiment("all", list(_CORPUS.items()))
    # one axis decrement call per (member, p, axis, mu) takes all three shifts;
    # the gauges read the strict order of the iterated rearrangement itself
    assert calls == {"axis_decrement_integral": 96, "is_mdec": 188}


@pytest.mark.parametrize("fid", [fid for fid, f in _CORPUS.items() if f.halfspace])
def test_axis_decrement_integral_takes_every_h_with_the_bits_of_the_loop(fid):
    f = _CORPUS[fid]
    cmin = min(f.cell_sizes)
    # the appendix grid, and shifts on, between and beyond the edges
    hs = [cmin, 2.0 * cmin, 4.0 * cmin, 0.7 * cmin, max(f.extent), 3.0 * max(f.extent)]
    # appendix's mu are powers of 2, which divide the edges exactly; 3 does not
    for k in range(f.dims):
        for mu in (2.0, 3.0, 4.0):
            for p in (1.0, 2.0):
                got = axis_decrement_integral(f, k, mu, np.array(hs), p)
                assert got.shape == (len(hs),)
                want = [_axis_decrement_loop(f, k, mu, h, p) for h in hs]
                assert got.tolist() == want
                assert [axis_decrement_integral(f, k, mu, h, p) for h in hs] == want
                grid = np.array(hs).reshape(2, 3)
                assert axis_decrement_integral(f, k, mu, grid, p).tolist() == [want[:3],
                                                                                want[3:]]


def test_axis_decrement_cut_piece_one_ulp_below_an_edge():
    f = _CORPUS["anisotropic-staircase-20240907-0"]
    assert f.cell_sizes[0] == 0.4 and 3 * 0.4 / 4 == 0.30000000000000004
    for p in (1.0, 2.0):
        assert axis_decrement_integral(f, 0, 4.0, 0.3, p) == _axis_decrement_loop(
            f, 0, 4.0, 0.3, p)


def _aniso_per_pair_oracle(f, p, order, h_values, gauge):
    """verify_anisotropic_estimate with its lattice terms evaluated per (axis, h)."""
    phi = dyadic_decrement(decreasing_rearrangement(f))
    tv = gauge.t_values
    t_prev = np.concatenate([[0.0], tv[:-1]]) if tv.size else tv
    out = []
    for j in range(f.dims):
        curve = modulus_curve(f, j, p)
        for h in h_values:
            mask = gauge.omega_mask(j, h)
            if gauge.degenerate or tv.size == 0 or not np.any(mask):
                out.append(None)
                continue
            lhs_int = 0.0
            lhs_sup = 0.0
            for i in np.flatnonzero(mask):
                u = gauge.u[i, j]
                lhs_int += phi.window_power_integral(t_prev[i], tv[i], p) / u**p
                lhs_sup = max(lhs_sup, tv[i] ** (1.0 / p) * float(phi(tv[i])) / u)
            omega = float(curve(h))
            out.append((lhs_int, (omega / h) ** p, lhs_sup, omega / h))
    return out


@pytest.mark.parametrize("fid", [fid for fid, f in _CORPUS.items() if f.dims == 2])
def test_aniso_lattice_terms_hoisted_keep_the_bits(fid):
    f = _CORPUS[fid]
    hs = [max(f.extent) * 2.0**-k for k in range(1, 7)]
    for order in ((0, 1), (1, 0)):
        reps = verify_anisotropic_estimate(Member(f, fid), 1.0, order, hs)
        want = _aniso_per_pair_oracle(f, 1.0, order, hs, build_gauge(f, order))
        assert len(reps) == 2 * len(want)
        for ri, rs, w in zip(reps[::2], reps[1::2], want):
            if w is None:
                assert ri.degenerate and rs.degenerate
            else:
                assert (ri.lhs, ri.rhs, rs.lhs, rs.rhs) == w


@pytest.mark.parametrize("fid", [fid for fid, f in _CORPUS.items() if f.dims == 2])
def test_aniso_lattice_terms_at_other_p_keep_the_bits(fid):
    # u^p and t^(1/p) stay scalar powers away from p = 1 too
    f = _CORPUS[fid]
    hs = [max(f.extent) * 2.0**-k for k in range(1, 7)]
    for p in (1.5, 2.0, 3.0):
        for order in ((0, 1), (1, 0)):
            reps = verify_anisotropic_estimate(Member(f, fid), p, order, hs)
            want = _aniso_per_pair_oracle(f, p, order, hs, build_gauge(f, order))
            got = [None if ri.degenerate else (ri.lhs, ri.rhs, rs.lhs, rs.rhs)
                   for ri, rs in zip(reps[::2], reps[1::2])]
            assert got == want


def test_aniso_estimate_rejects_a_nan_p():
    f = _CORPUS["hat-multilinear-20240908-0"]
    for p in (math.nan, 0.5):
        with pytest.raises(ParameterError):
            verify_anisotropic_estimate(Member(f), p, (0, 1), [0.5])


def test_aniso_estimate_job_builds_one_curve_per_axis(monkeypatch):
    calls = []
    profile = agf.moduli._shift_power_profile

    def counted(f, k, p):
        calls.append((k, p))
        return profile(f, k, p)

    monkeypatch.setattr(agf.moduli, "_shift_power_profile", counted)
    for fid in ("hat-multilinear-20240908-0", "random-mdec-20240911-0"):
        f = _CORPUS[fid]
        calls.clear()
        run_experiment("aniso-estimate", [(fid, f)])
        # both orders of a 2-D member share the p = 1 curves; 3-D members need none
        assert sorted(calls) == ([(0, 1.0), (1, 1.0)] if f.dims == 2 else [])


def _past_the_gagliardo_guard():
    return (generate_corpus(CorpusSpec("hat-multilinear", (128, 128), (1 / 128, 1 / 128), 3))
            + generate_corpus(CorpusSpec("hat-multilinear", (10240,), (1 / 10240,), 4)))


def test_bbm_reports_past_the_gagliardo_guard():
    small = (generate_corpus(CorpusSpec("hat-multilinear", (16,), (1 / 16,), 5))
             + generate_corpus(CorpusSpec("hat-multilinear", (8, 8), (1 / 8, 1 / 8), 6))
             + generate_corpus(CorpusSpec("indicator-box", (8,), (0.125,), 7)))
    big = _past_the_gagliardo_guard()
    opts = {"m_max": 2}
    mixed = run_experiment("bbm", big[:1] + small + big[1:], opts=opts)
    alone = run_experiment("bbm", small, opts=opts)
    small_ids = {fid for fid, _ in small}
    assert [r for r in mixed.reports if r.function_id in small_ids] == alone.reports
    assert ([_trace_fields(t) for t in mixed.traces if t.function_id in small_ids]
            == [_trace_fields(t) for t in alone.traces])
    for fid, f in big:
        reps = [r for r in mixed.reports if r.function_id == fid]
        assert sorted(r.inequality_id for r in reps) == [
            "fractional-sobolev", "fractional-sobolev", "fractional-sobolev-lorentz",
            "fractional-sobolev-lorentz"]
        for r in reps:
            assert r.verdict == "degenerate"
            assert f"{f.values.size} cells" in r.truncation and "10000" in r.truncation
        # the guard rows, field by field
        n = f.dims
        note = (f"not computed: gagliardo_seminorm is quadratic: {f.values.size} cells "
                "exceeds the guard of 10000")
        assert reps == [
            InequalityReport(iid, fid, {"p": 1.0, "alpha": alpha, "p_star": n / (n - alpha)},
                             0.0, 0.0, math.inf, note, True)
            for alpha in (0.5, 0.75)
            for iid in ("fractional-sobolev", "fractional-sobolev-lorentz")]
    gag = [t for t in mixed.traces if t.function_id == big[1][0] and t.trace_id == "gagliardo-limit"]
    assert len(gag) == 1 and gag[0].truncated and gag[0].values.size == 0
    assert [_trace_fields(t) for t in gag] == [
        ("gagliardo-limit", big[1][0], "m", [], [], 2.0 * slope_norm_power(big[1][1], 1.0), True)]


def _limits_corpus(seed):
    """The fine hat functions of the benchmark's ``limits`` workload."""
    return (generate_corpus(CorpusSpec("hat-multilinear", (1024,), (1 / 1024,), seed + 1))
            + generate_corpus(CorpusSpec("hat-multilinear", (32, 32), (1 / 32, 1 / 32), seed + 2))
            + generate_corpus(CorpusSpec("hat-multilinear", (64, 64), (1 / 64, 1 / 64), seed + 3)))


_LIMITS_7 = dict(_limits_corpus(7))


def _bbm_member(fid, f):
    return "hat-multilinear" in fid or (f.dims == 1 and "indicator" in fid)


# every alpha the bbm verifiers read: the limit trace's 1 - 2^-m, then fractional-sobolev's
_BBM_ALPHAS = [1.0 - 2.0**-m for m in range(1, 7)] + [0.5, 0.75]


@pytest.mark.parametrize("fid", list(_LIMITS_7)
                         + [fid for fid, f in _CORPUS.items() if _bbm_member(fid, f)])
def test_one_gagliardo_sums_serves_every_alpha(fid):
    f = {**_LIMITS_7, **_CORPUS}[fid]
    sums = gagliardo_sums(f, 1.0)
    for alpha in _BBM_ALPHAS:
        assert gagliardo_seminorm(sums, alpha) == gagliardo_seminorm(gagliardo_sums(f, 1.0), alpha)


def test_bbm_builds_the_gagliardo_sums_once_per_member(monkeypatch):
    built = Counter()
    offset_sums = agf.norms._offset_power_sums

    def counted(values, p):
        built[id(values), p] += 1
        return offset_sums(values, p)

    monkeypatch.setattr(agf.norms, "_offset_power_sums", counted)
    inside = list(_LIMITS_7.items()) + [(fid, f) for fid, f in _CORPUS.items()
                                        if _bbm_member(fid, f)]
    run_experiment(("limit-sweep", "bbm"), inside + _past_the_gagliardo_guard(),
                   opts={"m_max": 12})
    # one build per member at p = 1, read by the limit trace and both fractional-sobolev
    # alphas; none past the guard
    assert built == Counter({(id(f.values), 1.0): 1 for _, f in inside})


def _isotropic_lhs_per_delta(f, p, delta):
    """The isotropic estimate's left side with its inner sums rebuilt for one delta."""
    sf = decreasing_rearrangement(f)
    bp = sf.breakpoints
    vals = sf.values
    left = np.concatenate([[0.0], bp[:-1]])
    widths = bp - left
    lo_cut = delta**f.dims
    e = p / f.dims
    lhs = 0.0
    for k in range(vals.size):
        inner = float(np.sum((vals[:k] - vals[k]) ** p * widths[:k]))
        lo, hi = max(left[k], lo_cut), bp[k]
        if inner > 0.0 and hi > lo:
            lhs += inner * (lo ** (-e) - hi ** (-e)) / e
    inner_tail = float(np.sum(vals**p * widths))
    tail_lo = max(bp[-1], lo_cut)
    return lhs + inner_tail * tail_lo ** (-e) / e


def _assert_close_keeping_zeros(got, want, rel):
    """Each got within rel of its want, relative, and exactly 0 wherever want is 0."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if w == 0:
            assert g == 0.0
        else:
            assert abs(g - w) <= rel * abs(w), (g, w)


# the integer-p sums follow the drop recurrence, within a few ulps of the per-step
# sums; any other p keeps the bits of the blocked pass
_RECURRENCE_REL = 1e-13


def _assert_isotropic_lhs_matches_the_per_delta_oracle(m, f, p, deltas):
    got = [verify_isotropic_estimate(m, p, d).lhs for d in deltas]
    want = [_isotropic_lhs_per_delta(f, p, d) for d in deltas]
    if float(p).is_integer():
        _assert_close_keeping_zeros(got, want, _RECURRENCE_REL)
    else:
        assert got == want


@pytest.mark.parametrize("fid", list(_CORPUS))
def test_isotropic_estimate_with_shared_sums_keeps_the_bits(fid):
    f = _CORPUS[fid]
    m = Member(f, fid)
    deltas = [max(f.extent) * 2.0**-k for k in range(1, 6)]
    for p in (1.0, 1.5, 2.0):
        _assert_isotropic_lhs_matches_the_per_delta_oracle(m, f, p, deltas)


# --- the isotropic estimate's sums against their per-step oracles -----------------

# the shapes of the larger seeded grids: 1-D of a few hundred cells, 2-D up to 48^2
# (whose inner sums span many row blocks) and one 3-D member
_LARGE_SPECS = (
    CorpusSpec("random-mdec", (192,), (1 / 192,), 31),
    CorpusSpec("random-general", (128,), (1 / 128,), 32),
    CorpusSpec("random-mdec", (48, 48), (1 / 48, 1 / 48), 33),
    CorpusSpec("random-general", (40, 40), (1 / 40, 1 / 40), 34),
    CorpusSpec("separable-exp-staircase", (40, 32), (0.125, 0.25), 35),
    CorpusSpec("random-mdec", (5, 5, 4), (0.5, 0.5, 0.5), 36),
)
_SUMS_MEMBERS = dict(default_corpus(7))
for _spec in _LARGE_SPECS:
    _SUMS_MEMBERS.update(generate_corpus(_spec))
_SUMS_MEMBERS.update({
    "one-cell": make_grid_function(np.array([2.5]), 0.5),
    "constant": make_grid_function(np.full((3, 4), 1.5), (0.5, 0.25)),
    "zero": make_grid_function(np.zeros((4, 4)), (0.25, 0.25)),
})


def _inner_per_step(sf, p):
    """``inner[k]`` of the decrement sums, one ``np.sum`` per step."""
    bp = sf.breakpoints
    vals = sf.values
    widths = bp - np.concatenate([[0.0], bp[:-1]])
    return [float(np.sum((vals[:k] - vals[k]) ** p * widths[:k])) for k in range(vals.size)]


@pytest.mark.parametrize("fid", list(_SUMS_MEMBERS))
def test_decrement_sums_inner_equals_the_per_step_sums(fid):
    f = _SUMS_MEMBERS[fid]
    sf = decreasing_rearrangement(f)
    for p in (1.0, 1.5, 2.0):
        sums = agf.verify.decrement_sums(sf, p, f.dims)
        if p == 1.5:
            assert sums.inner.tolist() == _inner_per_step(sf, p)
        else:
            _assert_close_keeping_zeros(sums.inner.tolist(), _inner_per_step(sf, p),
                                        _RECURRENCE_REL)
        assert sums.tail == float(np.sum(sf.values**p * (sf.breakpoints - sums.left)))


def test_decrement_sums_inner_with_ties_in_f_star():
    sf = StepFunction(np.array([0.5, 1.0, 1.25, 2.0, 3.0, 3.5]),
                      np.array([4.0, 4.0, 2.5, 2.5, 2.5, 0.5]))
    for p in (1.0, 1.5, 2.0):
        sums = agf.verify.decrement_sums(sf, p, 2)
        assert sums.inner.tolist() == _inner_per_step(sf, p)
        assert sums.inner[1] == 0.0 and sums.steps[1] == 0.0


@pytest.mark.parametrize("block", [7, 300])
def test_decrement_sums_keep_the_bits_in_any_block_size(block, monkeypatch):
    # block 7 leaves one row per block, each wider than the block
    f = _SUMS_MEMBERS["random-general-34-0"]
    sf = decreasing_rearrangement(f)
    monkeypatch.setattr(agf.verify, "_SUMS_BLOCK", block)
    for p in (1.5, 2.5):  # the blocks serve the non-integer p only
        assert agf.verify.decrement_sums(sf, p, f.dims).inner.tolist() == _inner_per_step(sf, p)


def _cut_deltas(f):
    """Deltas whose cut delta^n falls below the first breakpoint and beyond the support."""
    bp = decreasing_rearrangement(f).breakpoints
    n = f.dims
    return [0.5 * bp[0] ** (1.0 / n), 2.0 * bp[-1] ** (1.0 / n)]


@pytest.mark.parametrize("fid", ["random-mdec-31-0", "random-general-32-0", "random-general-34-0",
                                 "random-mdec-36-0", "hat-multilinear-14-0", "one-cell",
                                 "constant"])
def test_isotropic_lhs_equals_the_per_delta_oracle_at_the_cuts(fid):
    f = _SUMS_MEMBERS[fid]
    m = Member(f, fid)
    deltas = _cut_deltas(f) + [max(f.extent) * 2.0**-k for k in range(0, 7)]
    if f.dims == 1:
        # the cut lands exactly on a breakpoint
        bp = decreasing_rearrangement(f).breakpoints
        deltas += [float(bp[0]), float(bp[1 % bp.size]), float(bp[bp.size // 2]), float(bp[-1])]
    for p in (1.0, 1.5, 2.0):
        _assert_isotropic_lhs_matches_the_per_delta_oracle(m, f, p, deltas)


# --- the drop recurrence against exact arithmetic ----------------------------------

def _exact_decrement_sums(sf, p, n):
    """``inner`` and ``steps`` in ``Fraction``s, with the scalar powers b^(-p/n) as given."""
    vals = [Fraction(v) for v in sf.values.tolist()]
    bp = sf.breakpoints.tolist()
    edges = [Fraction(0)] + [Fraction(b) for b in bp]
    widths = [hi - lo for lo, hi in zip(edges, edges[1:])]
    inner = [sum(((vals[i] - vals[k]) ** p * widths[i] for i in range(k)), Fraction(0))
             for k in range(len(vals))]
    e = p / n
    powers = [Fraction(b ** -e) for b in bp]
    steps = [inner[k] * (powers[k - 1] - powers[k]) / Fraction(e) if k else Fraction(0)
             for k in range(len(vals))]
    return inner, steps


def _assert_sums_match_the_exact_sums(sf, n):
    for p in (1, 2, 3):
        sums = agf.verify.decrement_sums(sf, float(p), n)
        inner, steps = _exact_decrement_sums(sf, p, n)
        for got, want in ((sums.inner, inner), (sums.steps, steps)):
            assert got.size == len(want)
            for g, w in zip(got.tolist(), want):
                if w == 0:
                    assert g == 0.0
                else:
                    assert abs(Fraction(g) - w) <= Fraction(1, 10**14) * w, (p, g, float(w))


_TIED_STAR = StepFunction(np.array([0.5, 1.0, 1.25, 2.0, 3.0, 3.5]),
                          np.array([4.0, 4.0, 2.5, 2.5, 2.5, 0.5]))


@pytest.mark.parametrize("fid", [fid for fid, f in _SUMS_MEMBERS.items()
                                 if decreasing_rearrangement(f).values.size <= 600]
                         + ["tied"])
def test_decrement_sums_at_integer_p_against_exact_fractions(fid):
    if fid == "tied":
        sf, n = _TIED_STAR, 2
    else:
        sf, n = decreasing_rearrangement(_SUMS_MEMBERS[fid]), _SUMS_MEMBERS[fid].dims
    _assert_sums_match_the_exact_sums(sf, n)


@given(st.lists(st.tuples(st.integers(0, 12), st.integers(1, 6)), min_size=1, max_size=24),
       st.integers(1, 3))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_decrement_sums_of_dyadic_steps_against_exact_fractions(steps, n):
    # nonincreasing values in eighths (ties and zeros included), widths in quarters
    values = sorted((v / 8 for v, _ in steps), reverse=True)
    breakpoints = np.cumsum([w / 4 for _, w in steps])
    _assert_sums_match_the_exact_sums(StepFunction(breakpoints, np.array(values)), n)


# --- the anisotropic lattice windows in one array ------------------------------------

_LATTICE_MEMBERS = {fid: f for fid, f in _CORPUS.items() if f.dims == 2}
for _spec in _LARGE_SPECS:
    _LATTICE_MEMBERS.update((fid, f) for fid, f in generate_corpus(_spec) if f.dims == 2)


def _lattice_windows(f, order):
    phi = dyadic_decrement(decreasing_rearrangement(f))
    tv = build_gauge(f, order).t_values
    return phi, np.concatenate([[0.0], tv[:-1]]), tv


@pytest.mark.parametrize("fid", list(_LATTICE_MEMBERS))
def test_aniso_lattice_windows_equal_the_per_point_calls(fid):
    f = _LATTICE_MEMBERS[fid]
    for order in ((0, 1), (1, 0)):
        phi, t_prev, tv = _lattice_windows(f, order)
        for p in (1.0, 1.5, 2.0):
            got = agf.verify._window_power_integrals(phi, t_prev, tv, p)
            assert got.tolist() == [phi.window_power_integral(a, b, p)
                                    for a, b in zip(t_prev.tolist(), tv.tolist())]


@pytest.mark.parametrize("block", [1, 100])
def test_aniso_lattice_windows_keep_the_bits_in_any_chunk(block, monkeypatch):
    # block 1 gives one window per chunk
    f = _SUMS_MEMBERS["random-mdec-33-0"]
    phi, t_prev, tv = _lattice_windows(f, (0, 1))
    want = agf.verify._window_power_integrals(phi, t_prev, tv, 1.0).tolist()
    monkeypatch.setattr(agf.verify, "_BLOCK", block)
    assert agf.verify._window_power_integrals(phi, t_prev, tv, 1.0).tolist() == want
