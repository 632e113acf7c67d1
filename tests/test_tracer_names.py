"""The benchmark's span tracer names agf functions by string; each name must resolve."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _traced_names():
    spans = _spans()
    names = [(layer, fn) for layer, fns in spans.LAYERS.items() for fn in fns]
    names += [("cli", fn) for fn in spans.EMIT_FUNCTIONS]
    names += list(spans.SETUP_FUNCTIONS)
    return names


@pytest.mark.parametrize("module, name", _traced_names())
def test_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"agf.{module}"), name, None))


def test_job_builders_cover_the_traced_experiments():
    experiments = importlib.import_module("agf.experiments")
    assert set(_spans().EXPERIMENTS) <= set(experiments._JOB_BUILDERS)


@pytest.mark.parametrize("name", _spans().LAYERS["moduli"])
def test_counted_moduli_functions_name_their_input(name):
    # the input counter binds each call's arguments by these names
    params = inspect.signature(getattr(importlib.import_module("agf.moduli"), name)).parameters
    assert "f" in params and "p" in params
    assert ("k" in params) != ("j" in params)


@pytest.mark.parametrize("experiment", sorted(_spans().EXPERIMENTS))
def test_job_builders_return_zero_argument_jobs(experiment):
    agf = importlib.import_module("agf")
    experiments = importlib.import_module("agf.experiments")
    # a 2-D hat at the origin has jobs in every experiment
    fid, f = agf.generate_corpus(agf.CorpusSpec("hat-multilinear", (6, 6), (1 / 6, 1 / 6), 3))[0]
    jobs = experiments._JOB_BUILDERS[experiment]([agf.Member(f, fid)], {"m_max": 2})
    assert jobs
    for job in jobs:
        assert isinstance(job(), experiments.ExperimentResult)
