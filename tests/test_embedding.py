"""The embedding layer: one ``verify_embedding`` call per parameter point.

Each report is checked against a direct computation from the public norms,
and call counters check that every Besov product, dyadic decrement and f* is
built once.
"""

import math
from collections import Counter

import numpy as np
import pytest

import agf.verify
from agf import (Member, ParameterError, besov_seminorm, decreasing_rearrangement,
                 default_corpus, derive_params, dyadic_decrement, limiting_sweep,
                 lorentz_norm, make_grid_function, mixed_lorentz_norm, modulus_curve,
                 run_experiment, verify_embedding)
from agf.cli import _BUDGET_EXPERIMENTS
from agf.experiments import EMBEDDING_POINTS, ExperimentResult
from agf.rearrange import iterated_rearrangement

_CORPUS_7 = default_corpus(7)
_MEMBERS_2D = [(fid, f) for fid, f in _CORPUS_7 if f.dims == 2]


def _direct_product(f, params, weighted):
    """The Besov product of the embedding, from one seminorm per axis."""
    n = params.n
    semis = [besov_seminorm(modulus_curve(f, k, params.p), params.beta_js[k],
                            params.theta_js[k]) for k in range(n)]
    rhs = 1.0
    for b, beta_j, theta_j in zip(semis, params.beta_js, params.theta_js):
        factor = 1.0
        if weighted and not math.isinf(theta_j):
            factor = (1.0 - beta_j) ** (1.0 / theta_j)
        rhs *= (factor * b) ** (params.beta / (n * beta_j))
    return rhs, semis


@pytest.mark.parametrize("point", EMBEDDING_POINTS, ids=str)
def test_every_embedding_point_is_admissible(point):
    p, beta_js, theta_js = point
    params = derive_params(p, beta_js, theta_js, 2)
    assert params.admissible


@pytest.mark.parametrize("fid", [fid for fid, _ in _MEMBERS_2D])
def test_embedding_reports_equal_the_direct_norms(fid):
    f = dict(_MEMBERS_2D)[fid]
    m = Member(f, fid)
    sf = decreasing_rearrangement(f)
    phi = dyadic_decrement(sf)
    g = iterated_rearrangement(f, (0, 1))
    for p, beta_js, theta_js in EMBEDDING_POINTS:
        params = derive_params(p, beta_js, theta_js, 2)
        q, theta = params.q, params.theta
        reps = verify_embedding(m, params, order=(0, 1))
        assert [r.inequality_id for r in reps] == [
            "embedding-lorentz", "embedding-dyadic-step", "embedding-mixed"]
        lorentz, step, mixed = reps
        rhs, semis = _direct_product(f, params, weighted=True)
        assert lorentz.lhs == lorentz_norm(sf, q, theta)
        assert mixed.lhs == mixed_lorentz_norm(g, q, theta)
        assert lorentz.rhs == mixed.rhs == rhs
        assert lorentz.params["seminorms"] == mixed.params["seminorms"] == semis
        assert lorentz.params["flavor"] == "lorentz" and "order" not in lorentz.params
        assert mixed.params["flavor"] == "mixed" and mixed.params["order"] == [0, 1]
        if math.isinf(theta):
            j_norm = phi.weighted_sup(1.0 / q)
        else:
            j_norm = phi.power_integral(theta / q, theta) ** (1.0 / theta)
        assert step.lhs == lorentz.lhs
        assert step.rhs == 1.0 / (1.0 - 2.0 ** (-1.0 / q)) * j_norm
        assert step.params == {"q": q, "theta": theta}
        # without an order the call gives the same two leading rows
        assert verify_embedding(m, params) == [lorentz, step]


def test_zero_member_gives_degenerate_lorentz_and_mixed_rows_only():
    m = Member(make_grid_function(np.zeros((3, 3)), (0.5, 0.5)), "zero")
    for p, beta_js, theta_js in EMBEDDING_POINTS:
        params = derive_params(p, beta_js, theta_js, 2)
        reps = verify_embedding(m, params, order=(0, 1))
        assert [r.inequality_id for r in reps] == ["embedding-lorentz", "embedding-mixed"]
        assert all(r.degenerate and r.verdict == "degenerate" for r in reps)
        assert [r.inequality_id for r in verify_embedding(m, params)] == ["embedding-lorentz"]


def test_embedding_experiment_builds_each_product_and_decrement_once(monkeypatch):
    semis, decrements = [], Counter()
    besov, decrement = agf.verify.besov_seminorm, agf.verify.dyadic_decrement

    def counted_besov(curve, alpha, theta):
        semis.append(curve)
        return besov(curve, alpha, theta)

    def counted_decrement(sf):
        decrements[id(sf)] += 1
        return decrement(sf)

    monkeypatch.setattr(agf.verify, "besov_seminorm", counted_besov)
    monkeypatch.setattr(agf.verify, "dyadic_decrement", counted_decrement)
    run_experiment("embedding", _CORPUS_7)
    # two axes, so two seminorms per (member, point); one decrement per member
    assert len(semis) == 2 * len(EMBEDDING_POINTS) * len(_MEMBERS_2D)
    assert sorted(decrements.values()) == [1] * len(_MEMBERS_2D)


def test_limiting_sweep_control_is_the_unweighted_product():
    x = (np.arange(16) + 0.5) / 16
    hat = np.minimum(x, 1 - x)
    f = make_grid_function(np.minimum.outer(hat, hat), (1 / 16, 1 / 16))
    tw, tc, reports = limiting_sweep(Member(f), 1.0, (1.0, 1.0), 6)
    lorentz = [r for r in reports if r.inequality_id == "embedding-lorentz"]
    assert tc.values.size == len(lorentz) == 6
    for i, (value, rep) in enumerate(zip(tc.values, lorentz), start=1):
        params = derive_params(1.0, (1.0 - 2.0**-i,) * 2, (1.0, 1.0), 2)
        control, _ = _direct_product(f, params, weighted=False)
        assert value == control / rep.lhs
        assert tw.values[i - 1] == rep.rhs / rep.lhs


def _trace_fields(tr):
    return (tr.trace_id, tr.function_id, tr.param_values.tolist(), tr.values.tolist(),
            tr.target, tr.truncated)


def test_run_experiment_takes_a_sequence_of_names(monkeypatch):
    corpus = _CORPUS_7
    parts = [run_experiment(name, corpus) for name in _BUDGET_EXPERIMENTS]
    built = Counter()
    star = agf.verify.decreasing_rearrangement

    def counted(f):
        built[id(f)] += 1
        return star(f)

    monkeypatch.setattr(agf.verify, "decreasing_rearrangement", counted)
    whole = run_experiment(_BUDGET_EXPERIMENTS, corpus)
    expected = ExperimentResult()
    for part in parts:
        expected.extend(part)
    assert whole.reports == expected.reports
    assert whole.gauge_rows == expected.gauge_rows
    assert [_trace_fields(t) for t in whole.traces] == [_trace_fields(t) for t in expected.traces]
    # one f* per member, for all five experiments together
    assert sorted(built.values()) == [1] * len(corpus)
    assert set(built) == {id(f) for _, f in corpus}
    with pytest.raises(ParameterError):
        run_experiment(("embedding", "no-such-experiment"), corpus)
