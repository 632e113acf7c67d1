"""Experiment wiring: one job per (experiment, member), options and corpus ids."""

from functools import partial

import numpy as np
import pytest

from agf import CorpusSpec, Member, ParameterError, default_corpus, generate_corpus, run_experiment
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
