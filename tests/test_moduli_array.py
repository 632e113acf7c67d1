"""Array paths of the modulus layer against the per-shift loops they replace.

The loops below are the earlier implementations, kept here as oracles: the
shift-power profile one shift at a time, the running max one node at a time,
the Steklov weights one cell at a time, the interval modulus one delta at a
time and the Steklov distance one window at a time (``steklov_distance``).
"""

import decimal
import importlib.util
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import agf.verify
from agf import (CorpusSpec, GridFunction, default_corpus, generate_corpus,
                 interval_curve_1d, interval_modulus_1d, make_grid_function, modulus_curve,
                 run_experiment, steklov_distance, steklov_distances)
from agf.moduli import (_BLOCK, _diagonal_power_sums, _running_max_curve,
                        _shift_power_profile, _steklov_weights)

_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _scale_specs():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.scale_specs(CorpusSpec, 30)


_MEMBERS = dict(default_corpus(7))
for _spec in _scale_specs():
    _MEMBERS.update(generate_corpus(_spec))
_RNG = np.random.default_rng(20240917)
_MEMBERS.update({
    "random-1d": make_grid_function(_RNG.uniform(0, 2, size=7), 0.3),
    "random-2d": make_grid_function(_RNG.uniform(0, 2, size=(5, 9)), (0.07, 0.5)),
    "random-3d": make_grid_function(_RNG.uniform(0, 2, size=(3, 4, 5)), (0.5, 0.2, 0.9)),
})
# the 1-D members inside [0, 1], where the interval modulus is compared
_ONE_D = [fid for fid, f in _MEMBERS.items() if f.dims == 1 and f.extent[0] <= 1.0]


def _full_space(f):
    return GridFunction(f.values, f.cell_sizes, f.origin, halfspace=False)


# --- the earlier loops ---------------------------------------------------------

def _profile_loop(f, k, p):
    a = np.moveaxis(f.values, k, 0)
    n = a.shape[0]
    powsum = lambda x: float(np.sum(np.abs(x) ** p, dtype=np.float64))
    out = np.empty(n + 1)
    out[0] = 0.0
    for j in range(1, n + 1):
        inner = powsum(a[j:] - a[:-j]) if j < n else 0.0
        right = powsum(a[n - j:])
        left = 0.0 if f.halfspace else powsum(a[:j])
        out[j] = (inner + right + left) * f.cell_volume
    return out


def _running_max_loop(prof, c):
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
    d = np.asarray(deltas)
    w = np.asarray(wp)
    keep = np.ones(d.size, dtype=bool)
    for i in range(1, d.size - 1):
        if w[i] == w[i - 1] and w[i] == w[i + 1]:
            keep[i] = False
    return d[keep], w[keep]


def _steklov_weights_loop(h, c):
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


def _interval_modulus_loop(f, delta, p):
    a = f.values
    n = a.size
    c = f.cell_sizes[0]
    jmax = min(n, int(np.floor(delta / c)) + 1)
    prof = np.empty(jmax + 1, dtype=np.float64)
    for j in range(jmax + 1):
        prof[j] = float(np.sum(np.abs(a[j:] - a[: n - j]) ** p)) * c if j < n else 0.0
    d, w = _running_max_loop(prof, c)
    curve = agf.ModulusCurve(0, p, d, w, prof, c)
    return float(curve(min(delta, jmax * c)))


def _shifts(f, k):
    """The shifts of ``modulus-lemmas`` and a few around the cell size of axis k."""
    c = f.cell_sizes[k]
    return [max(f.extent) * 2.0**-i for i in range(1, 17)] + [c / 3, 0.7 * c, c, 1.5 * c, 3 * c]


# --- profile and curve ----------------------------------------------------------

@pytest.mark.parametrize("fid", _ONE_D)
def test_one_dimensional_inner_sums_equal_the_per_shift_sums(fid):
    a = _MEMBERS[fid].values
    n = a.size
    padded = np.concatenate([a, np.zeros(n)])[None, :]
    for p in (1.0, 1.5, 2.0):
        got = _diagonal_power_sums(padded, a[None, :], p)
        assert got.tolist() == [float(np.sum(np.abs(a[j:] - a[:-j]) ** p)) for j in range(1, n)]


@pytest.mark.parametrize("fid", list(_MEMBERS))
def test_profile_matches_the_per_shift_loop(fid):
    f = _MEMBERS[fid]
    for g in (f, _full_space(f)):
        for k in range(f.dims):
            for p in (1.0, 2.0):
                got, want = _shift_power_profile(g, k, p), _profile_loop(g, k, p)
                np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("fid", list(_MEMBERS))
def test_running_max_equals_the_node_loop(fid):
    f = _MEMBERS[fid]
    for k in range(f.dims):
        for p in (1.0, 2.0):
            prof = _shift_power_profile(f, k, p)
            got, want = _running_max_curve(prof, f.cell_sizes[k]), _running_max_loop(prof, f.cell_sizes[k])
            assert got[0].tolist() == want[0].tolist()
            assert got[1].tolist() == want[1].tolist()


@pytest.mark.parametrize("prof", [[0.0, 2.0, 1.0, 1.0, 3.0, 3.0, 3.0, 2.0, 5.0],
                                  [0.0, 0.0, 0.0], [0.0, 1.0, 1.0, 1.0], [0.0],
                                  [0.0, 3.0, 1.0, 3.0, 1.0, 3.0 + 1e-16],
                                  # the crossing on segment 2 rounds onto its start node
                                  [0.0, 1.0, 1.0 - 2.0**-53, 3.0]])
def test_running_max_equals_the_node_loop_on_crossings_and_flats(prof):
    prof = np.asarray(prof)
    for c in (0.25, 0.3):
        got, want = _running_max_curve(prof, c), _running_max_loop(prof, c)
        assert got[0].tolist() == want[0].tolist()
        assert got[1].tolist() == want[1].tolist()


@pytest.mark.parametrize("h, c", [(0.7, 0.25), (0.5, 0.5), (1.3, 0.4), (0.1, 0.3), (3.0, 0.1),
                                  (1.0, 1 / 3), (0.0625, 0.015625)])
def test_steklov_weights_equal_the_cell_loop(h, c):
    assert _steklov_weights(h, c).tolist() == _steklov_weights_loop(h, c).tolist()


@pytest.mark.parametrize("fid", list(_MEMBERS))
def test_curve_readers_take_arrays(fid):
    f = _MEMBERS[fid]
    for k in range(f.dims):
        curve = modulus_curve(f, k, 2.0)
        hs = np.array(_shifts(f, k) + [0.0, 10.0 * max(f.extent)])
        norms, integrals = curve.shift_norm(hs), curve.shift_integral(hs)
        assert norms.tolist() == [curve.shift_norm(h) for h in hs]
        assert integrals.tolist() == [curve.shift_integral(h) for h in hs]


def _profile_exact(f, k, p):
    """The shift-power profile in exact rational arithmetic, for integer p."""
    lines = np.moveaxis(f.values, k, 0).reshape(f.shape[k], -1)
    n = lines.shape[0]
    rows = [[Fraction(float(x)) for x in line] for line in lines]
    zero = [Fraction(0)] * lines.shape[1]
    prof = [Fraction(0)]
    for j in range(1, n + 1):
        total = Fraction(0)
        for i in range(0 if f.halfspace else -j, n):
            lo = rows[i] if i >= 0 else zero
            hi = rows[i + j] if i + j < n else zero
            total += sum(abs(y - x) ** int(p) for x, y in zip(lo, hi))
        prof.append(total * Fraction(f.cell_volume))
    return prof


def _shift_integral_exact(prof, c, p, delta):
    """integral_0^delta of the interpolated profile to the power 1/p, at 50 digits."""
    c, delta = Fraction(c), Fraction(delta)
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        dec = lambda q: decimal.Decimal(q.numerator) / decimal.Decimal(q.denominator)
        root = lambda q: dec(q) if p == 1.0 else dec(q).sqrt()
        e = decimal.Decimal(1) + decimal.Decimal(1) / decimal.Decimal(int(p))
        total = decimal.Decimal(0)
        j = 0
        while j * c < delta:
            if j == len(prof) - 1:
                return float(total + root(prof[-1]) * dec(delta - j * c))
            span = min(c, delta - j * c)
            slope = (prof[j + 1] - prof[j]) / c
            if slope == 0:
                total += root(prof[j]) * dec(span)
            else:
                total += (dec(prof[j] + slope * span) ** e - dec(prof[j]) ** e) / (dec(slope) * e)
            j += 1
        return float(total)


@pytest.mark.parametrize("fid", ["random-general-10-0", "random-general-16-0", "random-mdec-17-0",
                                 "separable-exp-staircase-35-0", "random-3d"])
def test_shift_integral_against_exact_arithmetic(fid):
    # the staircase's profile is nearly flat at long shifts, where the
    # difference of the two end powers lost 5e-11 relative
    f = _MEMBERS[fid]
    for k in range(f.dims):
        for p in (1.0, 2.0):
            prof = _profile_exact(f, k, p)
            hs = _shifts(f, k) + [2.0 * max(f.extent)]
            got = modulus_curve(f, k, p).shift_integral(np.array(hs))
            want = [_shift_integral_exact(prof, f.cell_sizes[k], p, h) for h in hs]
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


# --- interval modulus ------------------------------------------------------------

@pytest.mark.parametrize("fid", _ONE_D)
def test_interval_curve_equals_the_per_delta_moduli(fid):
    vals = agf.verify._unit_interval_values(_MEMBERS[fid])
    c = _MEMBERS[fid].cell_sizes
    deltas = [2.0**-i for i in range(1, 9)] + [0.3, c[0], 1.0, 1.5]
    for g in (make_grid_function(vals, c), make_grid_function(np.sort(vals)[::-1], c)):
        for p in (1.0, 2.0):
            curve = interval_curve_1d(g, p)
            want = [_interval_modulus_loop(g, d, p) for d in deltas]
            assert [curve(d) for d in deltas] == want
            assert [interval_modulus_1d(g, d, p) for d in deltas] == want


# --- Steklov distances ----------------------------------------------------------

@pytest.mark.parametrize("fid", list(_MEMBERS))
def test_steklov_distances_match_the_per_window_distance(fid):
    f = _full_space(_MEMBERS[fid])
    for k in range(f.dims):
        hs = _shifts(f, k)
        for p in (1.0, 2.0):
            got = steklov_distances(f, modulus_curve(f, k, p), hs)
            want = [steklov_distance(f, h, k, p) for h in hs]
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def _steklov_distance_power_exact(f, h, j, p):
    """||f - f_{h,j}||_p^p in exact rational arithmetic, for integer p."""
    c, h = Fraction(f.cell_sizes[j]), Fraction(h)
    m = int(h // c)
    s0 = h - m * c
    w = [Fraction(0)] * (m + 2)
    for l in range(m):
        w[l] += c / 2
        w[l + 1] += c / 2
    if s0 > 0:
        w[m] += (c * s0 - s0 * s0 / 2) / c
        w[m + 1] += s0 * s0 / 2 / c
    w = [x / h for x in w]
    lines = np.moveaxis(f.values, j, 0).reshape(f.shape[j], -1)
    n = lines.shape[0]
    total = Fraction(0)
    for col in lines.T:
        vals = [Fraction(float(x)) for x in col]
        at = lambda i: vals[i] if 0 <= i < n else Fraction(0)
        for x in range(1 - len(w), n):
            fh = sum(wl * at(x + l) for l, wl in enumerate(w))
            total += abs(at(x) - fh) ** int(p)
    return total * Fraction(f.cell_volume)


def _root(q: Fraction, p: float) -> float:
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        d = decimal.Decimal(q.numerator) / decimal.Decimal(q.denominator)
        return float(d if p == 1.0 else d.sqrt())


@pytest.mark.parametrize("fid", ["random-general-10-0", "random-general-16-0",
                                 "hat-multilinear-14-0", "random-mdec-17-0"])
def test_sub_cell_distances_against_exact_arithmetic(fid):
    f = _full_space(_MEMBERS[fid])
    for k in range(f.dims):
        c = f.cell_sizes[k]
        hs = [c, c / 2, c / 3, 0.7 * c, c * 2.0**-5]
        for p in (1.0, 2.0):
            got = steklov_distances(f, modulus_curve(f, k, p), hs)
            want = [_root(_steklov_distance_power_exact(f, h, k, p), p) for h in hs]
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


def test_steklov_distances_reject_halfspace_and_non_positive_windows():
    f = _MEMBERS["indicator-box-11-0"]
    assert f.halfspace
    with pytest.raises(agf.PreconditionError):
        steklov_distances(f, modulus_curve(f, 0, 1.0), [0.5])
    g = _full_space(f)
    with pytest.raises(agf.ParameterError):
        steklov_distances(g, modulus_curve(g, 0, 1.0), [0.5, 0.0])


@pytest.mark.parametrize("shape", [(4096,), (256, 256)])
def test_steklov_distances_keep_temporaries_bounded(shape):
    rng = np.random.default_rng(5)
    f = make_grid_function(rng.uniform(0, 1, size=shape), tuple(1.0 / s for s in shape))
    for k in range(f.dims):
        curve = modulus_curve(f, k, 2.0)
        hs = [f.extent[k] * 2.0**-i for i in range(1, 17)]
        tracemalloc.start()
        try:
            steklov_distances(f, curve, hs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # at most a copy of the lines of axis k, and an accumulator and a product of
        # about _BLOCK elements each; accumulating all 11 long windows of the
        # (4096,) grid at once would take 0.9 MB, of the (256, 256) grid 5.5 MB
        assert peak <= f.values.nbytes + 3 * 8 * _BLOCK


# --- modulus-lemmas --------------------------------------------------------------

def test_modulus_lemmas_builds_each_iterated_rearrangement_once(monkeypatch):
    corpus = list(default_corpus(7))
    built = []
    build = agf.verify.iterated_rearrangement

    def counted(f, order):
        built.append((id(f), tuple(order)))
        return build(f, order)

    monkeypatch.setattr(agf.verify, "iterated_rearrangement", counted)
    reports = run_experiment("modulus-lemmas", corpus).reports
    assert built and len(built) == len(set(built))
    many = [f for _, f in corpus if f.dims > 1 and f.support_cells]
    assert len(built) == 2 * len(many)
    # the axis reports against curves of rearrangements built directly
    fids = {fid: f for fid, f in corpus}
    rows = [r for r in reports if r.inequality_id == "rearrangement-modulus-axes"
            and not r.degenerate]
    assert rows
    for r in rows:
        f, prm = fids[r.function_id], r.params
        curve = modulus_curve(build(f, prm["order"]), prm["axis"], prm["p"])
        assert r.lhs == curve(prm["delta"])
        assert r.rhs == modulus_curve(f, prm["axis"], prm["p"])(prm["delta"])

