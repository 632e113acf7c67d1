"""Experiment wiring: one job per (experiment, member), options and corpus ids."""

import math
import warnings
import weakref
from functools import partial

import numpy as np
import pytest

import agf.experiments
from agf import (CorpusSpec, Member, ParameterError, default_corpus, generate_corpus,
                 make_grid_function, run_experiment)
from agf.experiments import _JOB_BUILDERS, EXPERIMENTS

_SMALL = (generate_corpus(CorpusSpec("hat-multilinear", (16,), (1 / 16,), 5))
          + generate_corpus(CorpusSpec("hat-multilinear", (6, 6), (1 / 6, 1 / 6), 3)))


def test_experiments_are_the_job_builder_keys():
    assert EXPERIMENTS == tuple(_JOB_BUILDERS)


def test_job_counts_on_the_committed_corpus():
    members = [Member(f, fid) for fid, f in default_corpus(20240901)]
    counts = {name: len(build(members, {"m_max": 8})) for name, build in _JOB_BUILDERS.items()}
    assert counts == {"rearr-estimate": 20, "aniso-estimate": 14, "embedding": 12,
                      "limit-sweep": 2, "bbm": 6, "modulus-lemmas": 20, "appendix": 20}


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_each_job_is_a_partial_over_its_member(name):
    members = [Member(f, fid) for fid, f in default_corpus(20240901)]
    jobs = _JOB_BUILDERS[name](members, {"m_max": 8})
    assert jobs
    for job in jobs:
        assert isinstance(job, partial)
        assert any(job.args[0] is m for m in members)
    # one job per member at most, in corpus order
    positions = [next(i for i, m in enumerate(members) if job.args[0] is m) for job in jobs]
    assert positions == sorted(set(positions))


@pytest.mark.parametrize("opts", [
    {"m-max": 3},           # a flag spelling, not an option key
    {"threads": 2},
    {"m_max": 0},
    {"m_max": -1},
    {"m_max": 2.5},
    {"m_max": 3.0},
    {"m_max": "3"},
    {"m_max": None},
    {"m_max": True},
    {"m_max": 3, "extra": 1},
])
def test_bad_opts_raise(opts):
    with pytest.raises(ParameterError):
        run_experiment("limit-sweep", _SMALL, opts=opts)


@pytest.mark.parametrize("opts, points", [(None, 8), ({}, 8), ({"m_max": 3}, 3),
                                          ({"m_max": np.int64(2)}, 2), ({"m_max": 1}, 1)])
def test_good_opts_set_the_trace_depth(opts, points):
    res = run_experiment(("limit-sweep", "bbm"), _SMALL, opts=opts)
    assert res.traces
    for tr in res.traces:
        if tr.trace_id == "gagliardo-limit":
            assert tr.values.size == min(points, 6)
        else:
            assert tr.values.size == points
        assert not tr.truncated


def test_unknown_names_list_the_known_ones():
    # a sequence holds experiment names only, so 'all' is not known there
    with pytest.raises(ParameterError) as seq:
        run_experiment(("all",), _SMALL)
    assert str(seq.value) == f"unknown experiment 'all'; known: {EXPERIMENTS}"
    with pytest.raises(ParameterError) as one:
        run_experiment("every", _SMALL)
    assert str(one.value) == f"unknown experiment 'every'; known: {EXPERIMENTS + ('all',)}"


def test_repeated_function_ids_raise():
    # two specs that differ only in shape give the same ids
    corpus = (generate_corpus(CorpusSpec("indicator-box", (8,), (0.125,), 5000))
              + generate_corpus(CorpusSpec("indicator-box", (16,), (0.0625,), 5000)))
    assert corpus[0][0] == corpus[1][0] == "indicator-box-5000-0"
    with pytest.raises(ParameterError, match="indicator-box-5000-0"):
        run_experiment("rearr-estimate", corpus)
    # each alone runs
    for member in corpus:
        assert run_experiment("rearr-estimate", [member]).reports


@pytest.mark.parametrize("threads", [math.nan, math.inf, 0, -3, 2.0, 2.5, "2", None, True, False])
def test_bad_threads_raise_before_any_pool(threads, monkeypatch):
    def no_pool(*args, **kwargs):
        pytest.fail(f"a thread pool was made for threads={threads!r}")

    monkeypatch.setattr(agf.experiments, "ThreadPoolExecutor", no_pool)
    with pytest.raises(ParameterError, match="threads must be an integer >= 1"):
        run_experiment("rearr-estimate", _SMALL, threads=threads)


def _fields(res):
    traces = [(t.trace_id, t.function_id, t.param_name, t.param_values.tolist(),
               t.values.tolist(), t.target, t.truncated) for t in res.traces]
    return res.reports, traces, res.gauge_rows


def test_each_member_record_is_dropped_before_the_next_is_built(monkeypatch):
    records = []

    class Tracked(Member):
        def __init__(self, f, function_id=""):
            alive = [r().function_id for r in records if r() is not None]
            assert not alive, f"records still alive: {alive}"
            super().__init__(f, function_id)
            records.append(weakref.ref(self))

    monkeypatch.setattr(agf.experiments, "Member", Tracked)
    corpus = default_corpus(20240901)
    res = run_experiment("all", corpus, threads=1)
    assert len(records) == len(corpus)
    assert all(r() is None for r in records)
    assert res.reports and res.traces and res.gauge_rows


def test_threads_give_the_serial_result():
    corpus = default_corpus(20240901)
    serial = _fields(run_experiment("all", corpus, threads=1))
    assert _fields(run_experiment("all", corpus, threads=3)) == serial
    assert _fields(run_experiment("all", corpus, threads=np.int64(2))) == serial


@pytest.mark.parametrize("threads", [1, 3])
def test_an_empty_corpus_gives_an_empty_result(threads):
    res = run_experiment("all", [], threads=threads)
    assert res.reports == [] and res.traces == [] and res.gauge_rows == []


def test_all_on_zero_members_gives_only_degenerate_rows():
    # hat-multilinear ids, so that every experiment runs on the 2-D member
    corpus = [(f"hat-multilinear-zero-{len(shape)}d", make_grid_function(np.zeros(shape), cs))
              for shape, cs in (((8,), (0.125,)), ((4, 4), (0.25, 0.25)),
                                ((3, 3, 3), (0.5, 0.5, 0.5)))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run_experiment("all", corpus, opts={"m_max": 3})
    assert {r.function_id for r in res.reports} == {fid for fid, _ in corpus}
    assert all(r.degenerate for r in res.reports)
    assert not res.gauge_rows
    for tr in res.traces:
        assert tr.target == 0.0 and not np.any(tr.values)
