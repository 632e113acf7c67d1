"""The inequality table: every report id declared once, with its tier and constant.

The hard constants are checked against ``perfbench/oracles.py``, which states
them apart from the program.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

from agf import default_corpus, load_budgets, run_experiment
from agf.cli import _BUDGET_EXPERIMENTS, main
from agf.experiments import EXPERIMENTS
from agf.verify import INEQUALITIES

_ROOT = Path(__file__).resolve().parents[1]
_ORACLES = _ROOT / "perfbench" / "oracles.py"
_BUDGET_PATH = _ROOT / "calibration" / "budgets.json"
_SEED = 20240901


def _oracles():
    spec = importlib.util.spec_from_file_location("perfbench_oracles", _ORACLES)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def corpus():
    return default_corpus(_SEED)


@pytest.fixture(scope="module")
def reports_by_experiment(corpus):
    """The reports of each experiment, run without a budget file."""
    return {name: run_experiment(name, corpus).reports for name in EXPERIMENTS}


def test_report_ids_are_exactly_the_declared_ones(reports_by_experiment):
    ids = {r.inequality_id for reps in reports_by_experiment.values() for r in reps}
    assert ids == set(INEQUALITIES)


def test_hard_ids_and_constants_match_the_oracle(corpus, reports_by_experiment):
    oracle = _oracles().HARD_CONSTANTS
    assert {iid for iid, rule in INEQUALITIES.items() if rule is not None} == set(oracle)
    dims = {fid: f.dims for fid, f in corpus}
    checked = set()
    for reps in reports_by_experiment.values():
        for r in reps:
            if r.inequality_id in oracle:
                assert r.budget == oracle[r.inequality_id](dims[r.function_id], r.params), r
                checked.add(r.inequality_id)
    assert checked == set(oracle)


def test_calibrated_reports_carry_inf_without_budgets(reports_by_experiment):
    calibrated = [r for reps in reports_by_experiment.values() for r in reps
                  if INEQUALITIES[r.inequality_id] is None]
    assert calibrated
    assert all(r.budget == math.inf for r in calibrated)


def test_budget_experiments_are_those_with_a_calibrated_id(reports_by_experiment):
    expected = tuple(name for name in EXPERIMENTS
                     if any(INEQUALITIES[r.inequality_id] is None
                            for r in reports_by_experiment[name]))
    assert _BUDGET_EXPERIMENTS == expected


def test_budget_file_applied_to_calibrated_reports_only(corpus):
    budgets = load_budgets(_BUDGET_PATH)
    without = run_experiment("limit-sweep", corpus, opts={"m_max": 3}).reports
    with_file = run_experiment("limit-sweep", corpus, budgets=budgets,
                               opts={"m_max": 3}).reports
    assert len(with_file) == len(without)
    for a, b in zip(without, with_file):
        if INEQUALITIES[a.inequality_id] is None:
            assert b.budget == budgets.budget_for(a.inequality_id)
            assert (b.lhs, b.rhs) == (a.lhs, a.rhs)
        else:
            assert b == a


def test_budget_file_missing_a_calibrated_id_exits_2(tmp_path, capsys):
    payload = json.loads(_BUDGET_PATH.read_text())
    del payload["budgets"]["lipschitz-endpoint"]
    path = tmp_path / "budgets.json"
    path.write_text(json.dumps(payload))
    code = main(["run", "all", "--seed", str(_SEED), "--budget", str(path),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "lipschitz-endpoint" in capsys.readouterr().err
