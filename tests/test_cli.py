import math
import os
import re

import pytest

import agf.cli
from agf import (AgfError, CorpusSpec, Member, ValidationError, calibrate_from_reports,
                 corpus_hash, default_corpus, generate_corpus, load_budgets, run_experiment,
                 verify_gagliardo_limit)
from agf.cli import _BUDGET_EXPERIMENTS, main, parse_config
from agf.experiments import EXPERIMENTS, ExperimentResult

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_COMMITTED_BUDGETS = os.path.join(_ROOT, "calibration", "budgets.json")
_README = os.path.join(_ROOT, "README.md")


@pytest.fixture(scope="module")
def budget_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cal") / "budgets.json"
    assert main(["calibrate", "--budget", str(path)]) == 0
    return str(path)


def test_parse_config_grammar(tmp_path):
    path = tmp_path / "cfg"
    path.write_text(
        "# leading comment\n"
        "seed = 7\n"
        "h = 0.5   # trailing comment\n"
        "h = 1.0\n"
        "\n")
    cfg = parse_config(path)
    assert cfg == {"seed": ["7"], "h": ["0.5", "1.0"]}
    bad = tmp_path / "bad"
    bad.write_text("just words\n")
    with pytest.raises(AgfError):
        parse_config(bad)


def test_malformed_config_exits_2(tmp_path):
    bad = tmp_path / "bad"
    bad.write_text("no equals sign here\n")
    code = main(["--config", str(bad), "run", "modulus-lemmas",
                 "--out", str(tmp_path / "out")])
    assert code == 2


def test_usage_errors_exit_2(tmp_path):
    assert main(["run", "no-such-experiment", "--out", str(tmp_path)]) == 2
    assert main([]) == 2


def test_corpus_written_deterministically(tmp_path, capsys):
    out1, out2 = tmp_path / "c1", tmp_path / "c2"
    assert main(["corpus", "--out", str(out1)]) == 0
    hash1 = capsys.readouterr().out.splitlines()[-1]
    assert main(["corpus", "--out", str(out2)]) == 0
    hash2 = capsys.readouterr().out.splitlines()[-1]
    assert hash1 == hash2 and hash1.startswith("corpus hash:")
    m1 = (out1 / "manifest.csv").read_bytes()
    m2 = (out2 / "manifest.csv").read_bytes()
    assert m1 == m2
    names = sorted(p.name for p in out1.glob("*.agf"))
    assert names  # at least one member on disk
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_hard_tier_without_budget_file(tmp_path):
    out = tmp_path / "out"
    code = main(["run", "modulus-lemmas", "--out", str(out)])
    assert code == 0
    assert (out / "reports.csv").exists()
    assert (out / "summary.txt").exists()
    assert (out / "plot.gp").exists()
    header = (out / "reports.csv").read_text().splitlines()[0]
    assert header == ("inequality_id,function_id,params_json,lhs,rhs,"
                      "ratio,budget,verdict,truncation")


def test_run_budget_tier_requires_budget_file(tmp_path):
    code = main(["run", "rearr-estimate", "--out", str(tmp_path / "out"),
                 "--budget", str(tmp_path / "missing.json")])
    assert code == 2


def test_calibrate_refuses_overwrite_without_force(tmp_path):
    path = tmp_path / "budgets.json"
    assert main(["calibrate", "--budget", str(path)]) == 0
    assert main(["calibrate", "--budget", str(path)]) == 2
    assert main(["calibrate", "--budget", str(path), "--force"]) == 0


def test_run_with_calibrated_budgets_passes(tmp_path, budget_file):
    out = tmp_path / "out"
    code = main(["run", "rearr-estimate", "--out", str(out),
                 "--budget", budget_file])
    assert code == 0
    assert (out / "reports.csv").exists()


def test_budget_corpus_hash_mismatch_exits_2(tmp_path, budget_file):
    code = main(["run", "rearr-estimate", "--out", str(tmp_path / "out"),
                 "--budget", budget_file, "--seed", "12345"])
    assert code == 2


def test_runs_are_byte_identical_across_threads(tmp_path, budget_file):
    outs = []
    for threads in ("1", "3"):
        out = tmp_path / f"t{threads}"
        code = main(["run", "limit-sweep", "--out", str(out),
                     "--budget", budget_file, "--threads", threads,
                     "--m-max", "4"])
        assert code == 0
        outs.append(out)
    for name in ("reports.csv", "traces.csv", "summary.txt"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_threads_env_fallback(tmp_path, budget_file, monkeypatch):
    monkeypatch.setenv("AGF_THREADS", "2")
    out = tmp_path / "out"
    assert main(["run", "modulus-lemmas", "--out", str(out)]) == 0


def test_report_subcommand(tmp_path):
    out = tmp_path / "out"
    assert main(["report", "--out", str(out)]) == 2  # nothing written yet
    assert main(["run", "modulus-lemmas", "--out", str(out)]) == 0
    assert main(["report", "--out", str(out)]) == 0


def test_report_prints_the_run_summary(tmp_path, budget_file, capsys):
    out = tmp_path / "out"
    assert main(["run", "all", "--out", str(out), "--budget", budget_file]) == 0
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 0
    assert capsys.readouterr().out == (out / "summary.txt").read_text()


def test_run_prints_the_summary_it_wrote(tmp_path, budget_file, capsys, monkeypatch):
    calls = []
    summarize = agf.cli.summarize
    monkeypatch.setattr(agf.cli, "summarize", lambda reports: calls.append(1) or summarize(reports))
    out = tmp_path / "out"
    assert main(["run", "all", "--out", str(out), "--budget", budget_file]) == 0
    captured = capsys.readouterr()
    assert captured.out == (out / "summary.txt").read_text()
    assert len(calls) == 1
    assert captured.err == ""  # the committed corpus has no truncated trace


def test_run_notes_each_truncated_trace(tmp_path, budget_file, capsys, monkeypatch):
    [(fid, big)] = generate_corpus(CorpusSpec("hat-multilinear", (10240,), (1 / 10240,), 4))
    # past the size guard of the Gagliardo double integral: no points at all
    trace = verify_gagliardo_limit(Member(big, fid), 1.0, 2)
    assert trace.truncated and trace.values.size == 0

    def with_trace(*args, **kwargs):
        result = run_experiment(*args, **kwargs)
        result.traces.append(trace)
        return result

    monkeypatch.setattr(agf.cli, "run_experiment", with_trace)
    out = tmp_path / "out"
    assert main(["run", "rearr-estimate", "--out", str(out), "--budget", budget_file]) == 0
    captured = capsys.readouterr()
    assert captured.err == f"note: trace gagliardo-limit of {fid} truncated after 0 points\n"
    assert captured.out == (out / "summary.txt").read_text()
    assert (out / "traces.csv").read_text() == (
        "trace_id,function_id,param_name,param_value,value,target,gap\n")


_HEADER = "inequality_id,function_id,params_json,lhs,rhs,ratio,budget,verdict,truncation\n"
_ROW = 'gauge-product,f,"{{}}",1.0,2.0,{ratio},{budget},{verdict},\n'


def _write_reports(out, header=_HEADER, ratio="0.5", budget="1.0", verdict="pass"):
    out.mkdir()
    (out / "reports.csv").write_text(
        header + _ROW.format(ratio=ratio, budget=budget, verdict=verdict))


def test_report_exit_status_follows_the_verdicts(tmp_path, capsys):
    _write_reports(tmp_path / "ok")
    assert main(["report", "--out", str(tmp_path / "ok")]) == 0
    capsys.readouterr()
    _write_reports(tmp_path / "bad", ratio="3.0", verdict="fail")
    assert main(["report", "--out", str(tmp_path / "bad")]) == 1
    assert capsys.readouterr().out.splitlines()[1].split()[:4] == ["gauge-product", "1", "0", "1"]


@pytest.mark.parametrize("field, value, needle", [
    ("header", _HEADER.replace(",verdict", ""), "verdict"),
    ("header", "a,b,c\n", "inequality_id"),
    ("ratio", "n/a", "'n/a'"),
    ("budget", "", "budget"),
    ("verdict", "maybe", "'maybe'"),
])
def test_report_malformed_reports_exit_2(tmp_path, capsys, field, value, needle):
    _write_reports(tmp_path / "out", **{field: value})
    assert main(["report", "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and needle in err


def test_report_short_row_or_binary_file_exits_2(tmp_path, capsys):
    (tmp_path / "short").mkdir()
    (tmp_path / "short" / "reports.csv").write_text(_HEADER + "gauge-product,f\n")
    (tmp_path / "binary").mkdir()
    (tmp_path / "binary" / "reports.csv").write_bytes(b"\xff\xfe\x00bad")
    for name in ("short", "binary"):
        assert main(["report", "--out", str(tmp_path / name)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_config_supplies_defaults(tmp_path, budget_file):
    cfg = tmp_path / "cfg"
    cfg.write_text(f"budget = {budget_file}\nthreads = 2\nm-max = 3\n")
    out = tmp_path / "out"
    code = main(["--config", str(cfg), "run", "limit-sweep", "--out", str(out)])
    assert code == 0
    assert (out / "traces.csv").exists()


@pytest.mark.parametrize("setting", [
    ("env", "AGF_THREADS", "abc"),
    ("cfg", "threads", "two"),
    ("cfg", "seed", "1.5"),
    ("cfg", "m-max", "eight"),
    ("cfg", "margin", "wide"),
    # counts below 1 and margins that are not finite and > 0
    pytest.param(("env", "AGF_THREADS", "0"), id="AGF_THREADS-0"),
    pytest.param(("cfg", "threads", "-3"), id="threads-neg"),
    pytest.param(("flag", "--threads", "0"), id="--threads-0"),
    pytest.param(("flag", "--threads", "-3"), id="--threads-neg"),
    pytest.param(("cfg", "m-max", "0"), id="m-max-0"),
    pytest.param(("flag", "--m-max", "0"), id="--m-max-0"),
    pytest.param(("flag", "--m-max", "-2"), id="--m-max-neg"),
    pytest.param(("cfg", "margin", "nan"), id="margin-nan"),
    pytest.param(("cfg", "margin", "inf"), id="margin-inf"),
    pytest.param(("cfg", "margin", "0"), id="margin-0"),
], ids=lambda s: s[1])
def test_malformed_number_setting_exits_2(tmp_path, monkeypatch, capsys, setting):
    where, key, value = setting
    argv, flags = [], []
    if where == "env":
        monkeypatch.setenv(key, value)
    elif where == "flag":
        flags = [key, value]
    else:
        cfg = tmp_path / "cfg"
        cfg.write_text(f"{key} = {value}\n")
        argv = ["--config", str(cfg)]
    if key == "margin":
        argv += ["calibrate", "--budget", str(tmp_path / "budgets.json")]
    else:
        argv += ["run", "modulus-lemmas", "--out", str(tmp_path / "out")]
    assert main(argv + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(value) in err


def test_reused_out_dir_drops_stale_optional_files(tmp_path, budget_file):
    out = tmp_path / "out"
    assert main(["run", "all", "--out", str(out), "--budget", budget_file]) == 0
    assert (out / "traces.csv").exists() and (out / "gauge.csv").exists()
    (out / "notes.txt").write_text("kept\n")
    assert main(["run", "rearr-estimate", "--out", str(out), "--budget", budget_file]) == 0
    assert not (out / "traces.csv").exists()
    assert not (out / "gauge.csv").exists()
    assert (out / "reports.csv").exists() and (out / "summary.txt").exists()
    assert (out / "notes.txt").read_text() == "kept\n"


def test_fresh_calibration_matches_committed_budgets():
    corpus = default_corpus(20240901)
    result = ExperimentResult()
    for name in _BUDGET_EXPERIMENTS:
        result.extend(run_experiment(name, corpus))
    fresh = calibrate_from_reports(result.reports, corpus_hash(corpus))
    committed = load_budgets(_COMMITTED_BUDGETS)
    assert fresh.corpus_hash == committed.corpus_hash
    assert sorted(fresh.budgets) == sorted(committed.budgets)
    for iid, budget in committed.budgets.items():
        assert fresh.budgets[iid] == pytest.approx(budget, rel=1e-12, abs=0.0), iid


@pytest.mark.parametrize("margin", [math.nan, math.inf, 0.0, -1.0])
def test_calibration_margin_must_be_finite_and_positive(margin):
    with pytest.raises(ValidationError, match="margin"):
        calibrate_from_reports([], "hash", margin)


def _readme_flags():
    """Every --flag of README's "Flags:" paragraph."""
    with open(_README) as fh:
        text = fh.read()
    paragraph = text[text.index("Flags:"):].split("\n\n", 1)[0]
    return set(re.findall(r"--[a-z][a-z-]*", paragraph))


def test_readme_flags_match_the_run_parser(capsys):
    # the flags of `agf run` are its own and the global ones before the subcommand
    for argv in (["--help"], ["run", "--help"]):
        assert main(argv) == 0
    flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"}
    assert _readme_flags() == flags


def test_readme_experiments_line_names_every_experiment():
    with open(_README) as fh:
        text = fh.read()
    paragraph = text[text.index("Experiments:"):].split("\n\n", 1)[0]
    assert re.findall(r"`([a-z-]+)`", paragraph) == list(EXPERIMENTS) + ["all"]
