import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import agf.moduli
import agf.norms
from agf import (
    CorpusSpec,
    ParameterError,
    PreconditionError,
    ResourceError,
    besov_seminorm,
    decreasing_rearrangement,
    default_corpus,
    derive_lipschitz_params,
    derive_params,
    gagliardo_seminorm,
    gagliardo_sums,
    generate_corpus,
    iterated_rearrangement,
    lipschitz_seminorm,
    lorentz_norm,
    lp_norm,
    make_grid_function,
    mixed_lorentz_norm,
    modulus_curve,
)
from agf.moduli import _pair_power_sums
from agf.norms import _offset_power_sums
from agf.step import StepFunction


def test_lorentz_pp_equals_lp():
    rng = np.random.default_rng(4)
    f = make_grid_function(rng.uniform(0, 3, size=(5, 4)), (0.5, 0.25))
    sf = decreasing_rearrangement(f)
    for p in [1.0, 1.5, 2.0, 3.0]:
        assert lorentz_norm(sf, p, p) == pytest.approx(lp_norm(f, p), rel=1e-12)


def test_lorentz_against_quadrature():
    sf = StepFunction(np.array([0.5, 2.0]), np.array([3.0, 1.0]))
    p, r = 2.0, 1.0
    s = np.linspace(0, np.sqrt(2.0), 400001)[1:]
    t = s**2
    integrand = 2.0 * s ** (2.0 * r / p - 1.0) * np.asarray(sf(t)) ** r
    approx = float(np.trapezoid(integrand, s)) ** (1.0 / r)
    assert lorentz_norm(sf, p, r) == pytest.approx(approx, rel=1e-4)


def test_lorentz_weak_norm():
    sf = StepFunction(np.array([1.0, 4.0]), np.array([2.0, 1.0]))
    assert lorentz_norm(sf, 2.0, math.inf) == pytest.approx(max(2.0, 1.0 * 2.0))


def test_lorentz_requires_nonincreasing():
    sf = StepFunction(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    with pytest.raises(PreconditionError):
        lorentz_norm(sf, 2.0, 1.0)


def test_mixed_lorentz_1d_reduces_to_lorentz():
    rng = np.random.default_rng(8)
    f = make_grid_function(rng.uniform(0, 2, size=12), 0.25)
    g = iterated_rearrangement(f, (0,))
    sf = decreasing_rearrangement(f)
    for p, r in [(1.0, 1.0), (2.0, 1.0), (1.5, 3.0), (2.0, math.inf)]:
        assert mixed_lorentz_norm(g, p, r) == pytest.approx(lorentz_norm(sf, p, r), rel=1e-12)


def test_mixed_lorentz_against_riemann_2d():
    vals = np.array([[2.0, 1.0], [1.0, 0.5]])
    g = make_grid_function(vals, (0.5, 0.5), halfspace=True)
    p, r = 2.0, 1.0
    m = 800
    # substitute x = u^2 per axis so the (xy)^(r/p - 1) weight stays bounded
    us = (np.arange(m) + 0.5) / m
    U, W = np.meshgrid(us, us, indexing="ij")
    X, Y = U**2, W**2
    G = vals[np.minimum((X / 0.5).astype(int), 1), np.minimum((Y / 0.5).astype(int), 1)]
    weight = (X * Y) ** (r / p - 1.0) * 4.0 * U * W
    riemann = float(np.sum(G**r * weight)) / m**2
    assert mixed_lorentz_norm(g, p, r) == pytest.approx(riemann ** (1.0 / r), rel=1e-3)


def _besov_quadrature_oracle(f, k, alpha, theta, p):
    # substitute t = s^8 so the integrand stays bounded near zero for every
    # convergent parameter combination exercised below
    curve = modulus_curve(f, k, p)
    dlast = float(curve.deltas[-1])
    s = np.linspace(0, dlast ** (1.0 / 8.0), 800001)[1:]
    t = s**8
    om = np.asarray(curve(t))
    integrand = 8.0 * s ** (-8.0 * alpha * theta - 1.0) * om**theta
    acc = float(np.trapezoid(integrand, s))
    acc += curve.sup_value**theta * dlast ** (-alpha * theta) / (alpha * theta)
    return acc ** (1.0 / theta)


def test_besov_against_quadrature():
    rng = np.random.default_rng(14)
    f = make_grid_function(rng.uniform(0, 2, size=(6, 5)), (0.4, 0.3))
    for k, alpha, theta, p in [(0, 0.5, 1.0, 1.0), (1, 0.3, 2.0, 1.0), (0, 0.4, 2.0, 2.0)]:
        got = besov_seminorm(modulus_curve(f, k, p), alpha, theta)
        want = _besov_quadrature_oracle(f, k, alpha, theta, p)
        assert got == pytest.approx(want, rel=2e-3)


def test_besov_divergence_and_guards():
    f = make_grid_function([1.0, 0.0], 0.5)
    # discontinuous representative with alpha >= 1/p: sub-cell piece diverges
    assert besov_seminorm(modulus_curve(f, 0, 2.0), 0.6, 2.0) == math.inf
    with pytest.raises(ParameterError):
        besov_seminorm(modulus_curve(f, 0, 1.0), 0.5, 0.5)  # theta < 1
    with pytest.raises(ParameterError):
        besov_seminorm(modulus_curve(f, 0, 1.0), 1.5, 1.0)


def test_besov_theta_inf_is_lipschitz_sup():
    f = make_grid_function([2.0, 1.0, 0.5], 0.5)
    curve = modulus_curve(f, 0, 1.0)
    got = besov_seminorm(curve, 0.4, math.inf)
    want = lipschitz_seminorm(curve, 0.4).value
    assert got == pytest.approx(want, rel=1e-12)


def test_gagliardo_indicator_oracle():
    f = make_grid_function(np.ones(16), 1 / 16)
    for alpha in [0.25, 0.5, 0.75]:
        assert gagliardo_seminorm(gagliardo_sums(f, 1.0), alpha) == pytest.approx(
            4.0 / (alpha * (1.0 - alpha)), rel=1e-12)


def test_gagliardo_scaling_law():
    rng = np.random.default_rng(19)
    vals1 = rng.uniform(0, 1, size=10)
    alpha, p = 0.5, 1.0
    a = gagliardo_seminorm(gagliardo_sums(make_grid_function(vals1, 0.5), p), alpha)
    b = gagliardo_seminorm(gagliardo_sums(make_grid_function(vals1, 0.25), p), alpha)
    assert b == pytest.approx(2.0 ** (alpha * p - 1.0) * a, rel=1e-12)
    vals2 = rng.uniform(0, 1, size=(5, 5))
    a2 = gagliardo_seminorm(gagliardo_sums(make_grid_function(vals2, (0.5, 0.5)), p), alpha)
    b2 = gagliardo_seminorm(gagliardo_sums(make_grid_function(vals2, (0.25, 0.25)), p), alpha)
    assert b2 == pytest.approx(2.0 ** (alpha * p - 2.0) * a2, rel=1e-12)


def test_gagliardo_infinite_for_jumps_past_critical():
    f = make_grid_function([1.0, 0.0], 0.5)
    assert gagliardo_seminorm(gagliardo_sums(f, 2.0), 0.75) == math.inf


def test_derive_params_isotropic_consistency():
    params = derive_params(1.0, (0.5, 0.5), (1.0, 1.0), 2)
    assert params.beta == pytest.approx(0.5)
    assert params.theta == pytest.approx(1.0)
    assert params.q == pytest.approx(2 * 1 / (2 - 0.5))
    assert params.admissible
    mixed = derive_params(1.0, (0.3, 0.6), (1.0, 2.0), 2)
    assert mixed.beta == pytest.approx(2.0 / (1 / 0.3 + 1 / 0.6))
    inf_theta = derive_params(1.0, (0.5, 0.5), (math.inf, math.inf), 2)
    assert math.isinf(inf_theta.theta)


def test_derive_params_guards():
    with pytest.raises(ParameterError):
        derive_params(1.0, (0.5,), (1.0, 1.0), 2)
    with pytest.raises(ParameterError):
        derive_params(2.0, (0.5, 0.5), (1.0, 1.0), 2)  # theta_j < p


def test_derive_lipschitz_params():
    lp = derive_lipschitz_params(1.0, (1.0, 1.0), 2)
    assert lp.alpha == pytest.approx(1.0)
    assert lp.nu == 2
    assert lp.q_star == pytest.approx(2.0)
    assert lp.s == pytest.approx(1.0)


# --- Gagliardo by cell offset against the per-cell and per-offset loops ---------

def _gagliardo_per_cell_oracle(f, alpha, p):
    """The per-cell double sum that the offset form replaced."""
    n = f.dims
    cs = np.asarray(f.cell_sizes)
    v = f.cell_volume
    expo = n + alpha * p
    idx = np.argwhere(np.ones(f.shape, dtype=bool))
    vals = f.values.ravel()
    near_cut = 2.0 * float(np.max(cs))
    refine = 4
    axes = [np.arange(refine) + 0.5 for _ in range(n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    sub_offsets = np.stack([m.ravel() for m in mesh], axis=1) / refine * cs
    sub_w = (v / refine**n) ** 2
    cache = {}
    total = 0.0
    for i in range(vals.size):
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
            if key not in cache:
                diffs = np.asarray(key) * cs + sub_offsets[None, :, :] - sub_offsets[:, None, :]
                dd = np.sqrt(np.sum(diffs**2, axis=2))
                cache[key] = sub_w * float(np.sum(dd ** (-expo)))
            total += 2.0 * dval * cache[key]
    return total


def _gagliardo_1d_per_offset_oracle(f, alpha, p):
    """The 1-D closed form with its former per-offset loop."""
    a = f.values
    nn = a.size
    c = f.cell_sizes[0]
    beta = 1.0 + alpha * p
    jumps = np.abs(np.diff(np.concatenate([[0.0], a, [0.0]])))
    if alpha * p >= 1.0:
        return math.inf if np.any(jumps > 0) else 0.0
    e = 2.0 - beta
    m = np.arange(1, nn + 1, dtype=np.float64)
    pair_k = (c**e) * ((m + 1.0) ** e - 2.0 * m**e + (m - 1.0) ** e) / ((1.0 - beta) * e)
    total = 0.0
    for off in range(1, nn):
        s = float(np.sum(np.abs(a[off:] - a[:-off]) ** p))
        if s:
            total += s * pair_k[off - 1]
    j = np.arange(nn, dtype=np.float64)
    side = (c**e) * ((j + 1.0) ** e - j**e) / ((beta - 1.0) * e)
    vp = a**p
    total += float(np.sum(vp * side)) + float(np.sum(vp * side[::-1]))
    return 2.0 * total


@pytest.mark.parametrize("shape,cells", [
    ((6, 6), (0.25, 0.25)),
    ((5, 9), (0.1, 0.35)),
    ((1, 11), (0.5, 0.125)),
    ((8, 1), (0.2, 0.3)),
    ((3, 4, 5), (0.5, 0.25, 0.4)),
    ((4, 1, 3), (0.3, 0.3, 0.9)),
])
def test_gagliardo_offset_form_matches_per_cell_loop(shape, cells):
    rng = np.random.default_rng(sum(shape))
    vals = rng.uniform(0.0, 2.0, size=shape)
    vals[rng.uniform(size=shape) < 0.3] = 0.0
    vals[: max(1, shape[0] // 2)] = 0.0  # a zero region
    f = make_grid_function(vals, cells)
    for p in (1.0, 1.5, 2.0):
        sums = gagliardo_sums(f, p)
        for alpha in (0.3, 0.5, 0.75):
            want = _gagliardo_per_cell_oracle(f, alpha, p)
            assert gagliardo_seminorm(sums, alpha) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_gagliardo_zero_and_constant_grids():
    zero = make_grid_function(np.zeros((4, 5)), (0.5, 0.5))
    assert gagliardo_seminorm(gagliardo_sums(zero, 1.0), 0.5) == 0.0
    flat = make_grid_function(np.full((3, 3), 2.0), (1.0, 1.0))
    assert gagliardo_seminorm(gagliardo_sums(flat, 2.0), 0.5) == 0.0


@pytest.mark.parametrize("nn", [1, 2, 7, 64, 300])
def test_gagliardo_1d_matches_per_offset_loop(nn):
    rng = np.random.default_rng(nn)
    vals = rng.uniform(0.0, 2.0, size=nn)
    vals[rng.uniform(size=nn) < 0.25] = 0.0
    f = make_grid_function(vals, 1.0 / nn)
    for p, alpha in [(1.0, 0.3), (1.0, 0.75), (1.5, 0.5), (2.0, 0.3), (2.0, 0.75)]:
        want = _gagliardo_1d_per_offset_oracle(f, alpha, p)
        got = gagliardo_seminorm(gagliardo_sums(f, p), alpha)
        if math.isinf(want):
            assert got == math.inf
        else:
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_offset_power_sums_1d_keep_the_bits_of_np_sum():
    rng = np.random.default_rng(3)
    for nn in (5, 64, 300):
        a = rng.uniform(0.0, 1.0, size=nn)
        for p in (1.0, 1.5):
            offs, sums = _offset_power_sums(a, p)
            assert offs[:, 0].tolist() == list(range(1, nn))
            want = [float(np.sum(np.abs(a[o:] - a[:-o]) ** p)) for o in range(1, nn)]
            # the pair plane sums in bands, not in the order of np.sum: within 3.9e-16 here
            np.testing.assert_allclose(sums, want, rtol=2e-15, atol=0.0)


def test_offset_power_sums_against_brute_force():
    rng = np.random.default_rng(5)
    vals = rng.uniform(size=(3, 4, 2))
    offs, sums = _offset_power_sums(vals, 1.5)
    want = {}
    idx = [tuple(i) for i in np.argwhere(np.ones(vals.shape, dtype=bool))]
    for x in idx:
        for y in idx:
            o = tuple(b - a for a, b in zip(x, y))
            if o > (0, 0, 0):
                want[o] = want.get(o, 0.0) + abs(vals[y] - vals[x]) ** 1.5
    got = {tuple(int(c) for c in o): s for o, s in zip(offs, sums)}
    assert set(got) == set(want)
    for o in want:
        assert got[o] == pytest.approx(want[o], rel=1e-12)


def test_gagliardo_guard_at_ten_thousand_cells():
    rng = np.random.default_rng(11)
    at_guard = make_grid_function(rng.uniform(size=(100, 100)), (0.01, 0.01))
    assert math.isfinite(gagliardo_seminorm(gagliardo_sums(at_guard, 1.0), 0.5))
    past_guard = make_grid_function(rng.uniform(size=(73, 137)), (0.01, 0.01))
    with pytest.raises(ResourceError, match="10001 cells"):
        gagliardo_seminorm(gagliardo_sums(past_guard, 1.0), 0.5)


@pytest.mark.parametrize("p", [math.nan, 0.0, -1.0, 0.5])
def test_exponents_below_one_are_rejected(p):
    flat = make_grid_function(np.full((3, 3), 2.0), (1.0, 1.0))
    with pytest.raises(ParameterError, match="p must be >= 1"):
        modulus_curve(flat, 0, p)
    with pytest.raises(ParameterError, match="p must be >= 1"):
        gagliardo_sums(flat, p)


def test_gagliardo_sums_are_read_only():
    f = make_grid_function(np.random.default_rng(8).uniform(size=(4, 6)), (0.5, 0.25))
    sums = gagliardo_sums(f, 1.5)
    assert not sums.offsets.flags.writeable and not sums.sums.flags.writeable
    assert sums.f is f and sums.p == 1.5


def test_gagliardo_memory_is_bounded():
    f = make_grid_function(np.random.default_rng(2).uniform(size=(2, 5000)), (1e-3, 1e-3))
    tracemalloc.start()
    try:
        gagliardo_seminorm(gagliardo_sums(f, 1.0), 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6



@pytest.mark.parametrize("p, r", [(math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan)])
def test_lorentz_norms_reject_a_nan_exponent(p, r):
    f = make_grid_function([[3, 1], [2, 0.5]], (0.5, 0.5))
    with pytest.raises(ParameterError):
        lorentz_norm(decreasing_rearrangement(f), p, r)
    with pytest.raises(ParameterError):
        mixed_lorentz_norm(iterated_rearrangement(f, (0, 1)), p, r)


def test_lorentz_norms_keep_r_infinite():
    # theta = inf is an embedding point, so r = inf must pass the checks
    f = make_grid_function([[3, 1], [2, 0.5]], (0.5, 0.5))
    assert lorentz_norm(decreasing_rearrangement(f), 2.0, math.inf) == pytest.approx(
        3.0 * 0.25**0.5, rel=1e-15)
    assert math.isfinite(mixed_lorentz_norm(iterated_rearrangement(f, (0, 1)), 2.0, math.inf))


# --- offset sums: one pairwise pass per nonzero leading offset -----------------

def _pair_loop_sums(vals, ps):
    """S(o) at each p of ``ps`` by the loop over ordered pairs of cells with o > 0."""
    cells = list(zip(np.ndindex(vals.shape), vals.ravel().tolist()))
    zero = (0,) * vals.ndim
    want = [{} for _ in ps]
    for x, a in cells:
        for y, b in cells:
            o = tuple(j - i for i, j in zip(x, y))
            if o > zero:
                d = abs(b - a)
                for sums, p in zip(want, ps):
                    sums[o] = sums.get(o, 0.0) + d**p
    return want


def _with_zero_regions(shape, support, seed):
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0.5, 2.0, size=shape)
    if support == "sparse":
        vals[rng.uniform(size=shape) < 0.4] = 0.0
    else:
        # only the centre cell: every offset longer than half the grid pairs zeros only
        vals = np.zeros(shape)
        vals[tuple(s // 2 for s in shape)] = 1.5
    return vals


def _assert_offset_sums_match(vals, want, p, exact=False):
    offs, sums = _offset_power_sums(vals, p)
    got = {tuple(int(c) for c in o): s for o, s in zip(offs, sums.tolist())}
    assert len(got) == offs.shape[0]
    assert set(got) == set(want)
    for o, w in want.items():
        if exact or w == 0.0:
            assert got[o] == w, o
        else:
            assert got[o] == pytest.approx(w, rel=1e-12, abs=0.0), o


@pytest.mark.parametrize("support", ["sparse", "centre"])
@pytest.mark.parametrize("shape", [(1, 9), (9, 1), (5, 7), (7, 5), (3, 4, 5), (2, 300)])
def test_offset_power_sums_against_the_pair_loop(shape, support):
    vals = _with_zero_regions(shape, support, sum(shape))
    ps = (1.0, 1.5, 2.0)
    for p, want in zip(ps, _pair_loop_sums(vals, ps)):
        _assert_offset_sums_match(vals, want, p)


@pytest.mark.parametrize("run, block", [(1, 1), (2, 5), (3, 16), (7, 40)])
def test_offset_power_sums_in_small_tiles_against_the_pair_loop(monkeypatch, run, block):
    # tiles of one row, short last bands and offsets split over several tiles
    monkeypatch.setattr(agf.moduli, "_RUN", run)
    monkeypatch.setattr(agf.moduli, "_BLOCK", block)
    for shape in [(2, 9), (5, 7), (7, 5), (3, 4, 5)]:
        vals = _with_zero_regions(shape, "sparse", 7 * run + block)
        (want,) = _pair_loop_sums(vals, (1.5,))
        _assert_offset_sums_match(vals, want, 1.5)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), p=st.sampled_from([1.0, 1.5, 2.0]),
       shape=st.sampled_from([(2, 1), (1, 3), (2, 3), (3, 2), (4, 4), (2, 6),
                              (2, 2, 2), (3, 1, 2), (2, 3, 4)]))
def test_offset_power_sums_on_integer_grids(data, p, shape):
    vals = data.draw(arrays(np.float64, shape, elements=st.integers(0, 4).map(float)))
    (want,) = _pair_loop_sums(vals, (p,))
    # at p = 1 and 2 every sum of small integers is exact, in any order
    _assert_offset_sums_match(vals, want, p, exact=p in (1.0, 2.0))


@pytest.mark.parametrize("shape", [(5, 7), (6, 2), (3, 4, 5), (2, 3, 40)])
def test_zero_lead_offset_sums_keep_the_bits_of_the_diagonal_sums(shape):
    # the zero leading offset pairs the lines with themselves, as the shift-power profile does
    vals = np.random.default_rng(len(shape)).uniform(size=shape)
    size = shape[-1]
    lines = vals.reshape(-1, size)
    for p in (1.0, 1.5, 2.0):
        offs, sums = _offset_power_sums(vals, p)
        zero_lead = ~np.any(offs[:, :-1], axis=1)
        assert offs[zero_lead, -1].tolist() == list(range(1, size))
        assert sums[zero_lead].tolist() == _pair_power_sums(lines, lines, p).tolist()

# --- Besov panels in one pass against the per-segment loop ---------------------

def _besov_per_segment_oracle(curve, alpha, theta):
    """The per-segment loop that the array pass replaced (finite theta)."""
    p = curve.p
    x, w = np.polynomial.legendre.leggauss(48)
    tp = theta / p
    at = alpha * theta
    d, om = curve.deltas, curve.omega_p
    acc = 0.0
    for i in range(d.size - 1):
        d0, d1 = float(d[i]), float(d[i + 1])
        b = (float(om[i + 1]) - float(om[i])) / (d1 - d0)
        a = float(om[i]) - b * d0
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
            mid, half = 0.5 * (d0 + d1), 0.5 * (d1 - d0)
            t = mid + half * x
            acc += float(half * np.sum(w * (t ** (-at - 1.0) * (a + b * t) ** tp)))
    wmax = float(om[-1])
    dlast = float(d[-1])
    if wmax > 0.0 and dlast > 0.0:
        acc += (wmax**tp) * (dlast ** (-at)) / at
    return acc ** (1.0 / theta)


def test_besov_matches_per_segment_loop():
    rng = np.random.default_rng(21)
    funcs = [
        make_grid_function(rng.uniform(0, 2, size=40) * (rng.uniform(size=40) < 0.4), 0.05),
        make_grid_function(rng.uniform(0, 0.3, size=40) * (rng.uniform(size=40) < 0.4), 0.05),
        make_grid_function([0.0, 1.0, 1.0, 0.0, 3.0, 0.0], 0.25),
        make_grid_function(rng.uniform(0, 1, size=(7, 6)), (0.4, 0.3)),
        make_grid_function(np.minimum(np.arange(1, 33), np.arange(32, 0, -1)) / 16.0, 1 / 32),
    ]
    kinds = set()
    for f in funcs:
        for k in range(f.dims):
            for p in (1.0, 1.5, 2.0):
                curve = modulus_curve(f, k, p)
                d, om = curve.deltas, curve.omega_p
                b = np.diff(om) / np.diff(d)
                kinds.update("flat" if bb == 0 else "smooth" for bb in b[1:])
                for alpha in (0.2, 0.5, 0.9):
                    for theta in (1.0, 1.5, 2.0):
                        want = _besov_per_segment_oracle(curve, alpha, theta)
                        got = besov_seminorm(curve, alpha, theta)
                        if math.isinf(want):
                            assert got == math.inf
                        else:
                            assert got == pytest.approx(want, rel=1e-12, abs=0.0)
                    assert besov_seminorm(curve, alpha, math.inf) == (
                        lipschitz_seminorm(curve, alpha).value)
    assert kinds == {"flat", "smooth"}


def test_besov_divergent_in_both():
    f = make_grid_function([1.0, 0.0, 2.0], 0.5)
    for p, alpha, theta in [(2.0, 0.6, 2.0), (2.0, 0.5, 1.0), (1.5, 0.7, 1.5)]:
        curve = modulus_curve(f, 0, p)
        assert _besov_per_segment_oracle(curve, alpha, theta) == math.inf
        assert besov_seminorm(curve, alpha, theta) == math.inf


# --- Besov panels kept on the curve, 16 nodes against composite panels ---------

def _segments(curve):
    """(d0, d1, a, b) of every segment, omega^p = a + b t on [d0, d1]."""
    d, om = curve.deltas, curve.omega_p
    b = np.diff(om) / np.diff(d)
    return d[:-1], d[1:], om[:-1] - b * d[:-1], b


def _besov_composite_oracle(curve, alpha, theta, panels=4, nodes=48):
    """Finite-theta Besov seminorm with each smooth piece cut into ``panels`` panels."""
    tp, at = theta / curve.p, alpha * theta
    d0, d1, a, b = _segments(curve)
    sub = (a == 0.0) & (d0 == 0.0)
    acc = 0.0
    if np.any(sub & (b != 0.0)):
        e = tp - at
        if e <= 0:
            return math.inf
        acc += float(b[0]) ** tp * float(d1[0]) ** e / e
    flat = ~sub & (b == 0.0) & (a > 0.0)
    acc += float(np.sum(a[flat] ** tp * (d0[flat] ** (-at) - d1[flat] ** (-at)) / at))
    smooth = ~sub & (b != 0.0)
    x, w = np.polynomial.legendre.leggauss(nodes)
    cuts = d0[smooth, None] + (d1 - d0)[smooth, None] * np.linspace(0.0, 1.0, panels + 1)
    mid, half = 0.5 * (cuts[:, 1:] + cuts[:, :-1]), 0.5 * (cuts[:, 1:] - cuts[:, :-1])
    t = mid[..., None] + half[..., None] * x
    lin = a[smooth, None, None] + b[smooth, None, None] * t
    acc += float(np.sum(half[..., None] * w * t ** (-at - 1.0) * lin**tp))
    if curve.omega_p[-1] > 0.0 and curve.deltas[-1] > 0.0:
        acc += float(curve.omega_p[-1]) ** tp * float(curve.deltas[-1]) ** (-at) / at
    return acc ** (1.0 / theta)


def _panel_test_functions():
    """Every member of the committed corpus, and the fine hats of ``limits`` at seed 7."""
    hats = [CorpusSpec("hat-multilinear", (1024,), (1 / 1024,), 8),
            CorpusSpec("hat-multilinear", (32, 32), (1 / 32, 1 / 32), 9),
            CorpusSpec("hat-multilinear", (64, 64), (1 / 64, 1 / 64), 10)]
    funcs = [f for _, f in default_corpus(20240901)]
    for spec in hats:
        funcs.extend(f for _, f in generate_corpus(spec))
    return funcs


def test_besov_16_nodes_match_composite_panels():
    smooth, divergent = 0, 0
    for f in _panel_test_functions():
        for k in range(f.dims):
            for p in (1.0, 1.5, 2.0):
                curve = modulus_curve(f, k, p)
                smooth += int(np.count_nonzero(curve.besov_panels[3][0]))
                for alpha in (0.3, 0.5, 1.0 - 2.0**-12):
                    for theta in (1.0, 1.5, 2.0):
                        want = _besov_composite_oracle(curve, alpha, theta)
                        got = besov_seminorm(curve, alpha, theta)
                        if math.isinf(want):
                            divergent += 1
                            assert got == math.inf
                        else:
                            assert got == pytest.approx(want, rel=1e-14, abs=0.0)
    assert smooth > 0 and divergent > 0


@given(st.integers(1, 2).flatmap(lambda n: arrays(
           np.float64, st.lists(st.integers(1, 9), min_size=n, max_size=n).map(tuple),
           elements=st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.75]))),
       st.floats(0.01, 4.0), st.sampled_from([1.0, 1.5, 2.0, 3.0]), st.booleans())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_smooth_besov_pieces_span_at_most_a_doubling(vals, c, p, halfspace):
    # the 16-node rule rests on d1 <= 2 d0 for every smooth piece
    f = make_grid_function(vals, (c,) * vals.ndim, halfspace=halfspace)
    for k in range(f.dims):
        d0, d1, a, b = _segments(modulus_curve(f, k, p))
        smooth = ~((a == 0.0) & (d0 == 0.0)) & (b != 0.0)
        assert np.all(d0[smooth] > 0.0)
        assert np.all(d1[smooth] <= 2.0 * d0[smooth])


def test_besov_panels_are_built_once_per_curve(monkeypatch):
    built = []
    build = agf.norms.besov_panels
    monkeypatch.setattr(agf.norms, "besov_panels", lambda curve: built.append(1) or build(curve))
    f = make_grid_function(np.minimum(np.arange(1, 33), np.arange(32, 0, -1)) / 16.0, 1 / 32)
    curve = modulus_curve(f, 0, 1.5)
    besov_seminorm(curve, 0.5, math.inf)
    assert built == []  # the sup reads the nodes alone
    for alpha in (0.3, 0.5, 1.0 - 2.0**-12):
        for theta in (1.5, 2.0, math.inf):
            besov_seminorm(curve, alpha, theta)
    assert built == [1]
    panels = curve.besov_panels
    assert panels is curve.besov_panels
    assert not any(arr.flags.writeable for arr in panels[2] + panels[3])


def test_besov_does_not_depend_on_the_call_order():
    rng = np.random.default_rng(23)
    f = make_grid_function(rng.uniform(0, 1, size=(9, 7)), (0.25, 0.5))
    for k, p in ((0, 1.0), (1, 1.5), (1, 2.0)):
        for (a1, t1), (a2, t2) in [((0.3, 1.0), (0.9, 2.0)), ((1.0 - 2.0**-12, 1.5), (0.5, 1.5))]:
            used = modulus_curve(f, k, p)
            besov_seminorm(used, a1, t1)
            assert besov_seminorm(used, a2, t2) == besov_seminorm(modulus_curve(f, k, p), a2, t2)


def test_besov_and_derive_params_reject_a_nan_theta():
    curve = modulus_curve(make_grid_function([2.0, 1.0, 0.5], 0.5), 0, 1.0)
    with pytest.raises(ParameterError):
        besov_seminorm(curve, 0.5, math.nan)
    assert besov_seminorm(curve, 0.5, math.inf) == lipschitz_seminorm(curve, 0.5).value
    with pytest.raises(ParameterError):
        derive_params(1.0, (0.5,), (math.nan,), 1)
    assert math.isinf(derive_params(1.0, (0.5,), (math.inf,), 1).theta)
