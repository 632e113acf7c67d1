"""Self-test of the benchmark: oracles, span arithmetic, and a smoke run of each workload.

Run from the root of a checkout::

    python3 perfbench/selftest.py

The self-test is not part of the repository's test suite: it starts the benchmark, which takes a
few minutes, and it tests the benchmark rather than agf.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import types

import numpy as np

import oracles
import run
import spans

failures: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        failures.append(what)


def row(iid, fid, lhs, rhs, budget, verdict="pass", params=None):
    ratio = 0.0 if lhs == 0.0 else (math.inf if rhs == 0.0 else lhs / rhs)
    params = params or {}
    return {"inequality_id": iid, "function_id": fid, "params": params,
            "params_json": json.dumps(params), "lhs": lhs, "rhs": rhs,
            "ratio": ratio, "budget": budget, "verdict": verdict}


def test_report_oracle():
    dims = {"f": 2}
    good = [row("rearrangement-modulus-axes", "f", 9.0, 1.0, 9.0),
            row("box-operator-weight", "f", 1.0, 1.0, 16.0, params={"a": 2.0}),
            row("rearr-estimate", "f", 5.0, 1.0, 7.0)]
    expect(not (oracles.report_problems(good, dims)), "report oracle passes exact constants")
    over = [dict(good[0], lhs=9.0 * (1 + 1e-6))]
    over[0]["ratio"] = over[0]["lhs"]
    expect(bool(oracles.report_problems(over, dims)), "report oracle flags lhs above 3^n rhs")
    wrong_const = [dict(good[1], budget=8.0)]
    expect(bool(oracles.report_problems(wrong_const, dims)),
           "report oracle flags a misstated constant")
    wrong_ratio = [dict(good[2], ratio=5.5)]
    expect(bool(oracles.report_problems(wrong_ratio, dims)),
           "report oracle flags a ratio column that is not lhs/rhs")


def test_box_operator_count():
    member = types.SimpleNamespace(origin=(0.0, 0.0), values=np.array([[2.0, 1.0], [1.0, 0.0]]))
    rows = [row("box-operator-weight", "m", 1.0, 1.0, 4.0) for _ in range(6)]
    rows.append(row("box-operator-pointwise", "m", 1.0, 1.0, 1.0))
    dropped, bad = oracles.box_operator_drops(rows, [("m", member)])
    expect(dropped == 0 and not bad, "box count: all 7 checks present")
    dropped, bad = oracles.box_operator_drops(rows[1:], [("m", member)])
    expect(dropped == 1 and not bad, "box count: one weighted check missing is one drop")
    dropped, bad = oracles.box_operator_drops([], [("m", member)])
    expect(dropped == 7, "box count: a member with no box reports drops 7")
    rising = types.SimpleNamespace(origin=(0.0, 0.0), values=np.array([[1.0, 2.0], [0.0, 0.0]]))
    dropped, bad = oracles.box_operator_drops(rows[:6], [("m", rising)])
    expect(dropped == 0 and not bad, "box count: no pointwise check for an increasing member")
    dropped, bad = oracles.box_operator_drops(rows, [("m", rising)])
    expect(bool(bad), "box count: flags a pointwise check the member cannot have")


def test_budget_oracle():
    rows = [row("embedding-lorentz", "f", 3.0, 2.0, 1.0), row("embedding-lorentz", "g", 1.0, 2.0, 1.0),
            row("embedding-lorentz", "h", 1.0, 0.0, 1.0),
            row("embedding-mixed", "f", 0.0, 0.0, 1.0, verdict="degenerate"),
            row("gauge-product", "f", 5.0, 1.0, 1.0)]
    payload = {"margin": 2.0, "budgets": {"embedding-lorentz": 3.0}}
    expect(not (oracles.budget_problems(rows, payload)), "budget oracle: margin x max ratio")
    nudged = {"margin": 2.0, "budgets": {"embedding-lorentz": float(np.nextafter(3.0, 4.0))}}
    expect(bool(oracles.budget_problems(rows, nudged)), "budget oracle flags a one-ulp budget")
    extra = {"margin": 2.0, "budgets": {"embedding-lorentz": 3.0, "gauge-product": 10.0}}
    expect(bool(oracles.budget_problems(rows, extra)), "budget oracle flags a calibrated hard id")


def test_trace_oracle():
    m = 6
    ms = [float(i) for i in range(1, m + 1)]
    shrinking = [1.0 + 2.0**-i for i in range(1, m + 1)]
    good = {("besov-limit", "f", 1.0): list(zip(ms, shrinking)),
            ("limit-sweep-weighted", "f", 1.0): list(zip(ms, [1.0, 0.6, 0.5, 0.45, 0.4, 0.4])),
            ("limit-sweep-control", "f", 1.0): list(zip(ms, [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]))}
    expect(not (oracles.trace_problems(good, m)), "trace oracle passes converging traces")
    bump = dict(good)
    bump[("besov-limit", "f", 1.0)] = list(zip(ms, shrinking[:-1] + [1.3]))
    expect(bool(oracles.trace_problems(bump, m)), "trace oracle flags a gap that grows back")
    escape = dict(good)
    escape[("limit-sweep-weighted", "f", 1.0)] = list(zip(ms, [1.0, 0.6, 0.5, 0.45, 0.4, 2.1]))
    expect(bool(oracles.trace_problems(escape, m)), "trace oracle flags a weighted sweep past 2 v0")
    flat = dict(good)
    flat[("limit-sweep-control", "f", 1.0)] = list(zip(ms, [1.0, 1.5, 2.0, 2.5, 3.0, 4.0]))
    expect(bool(oracles.trace_problems(flat, m)), "trace oracle flags a control that does not grow")


class Perturbed:
    """agf with one function's result scaled, to show that the member oracles notice."""

    def __init__(self, agf, name, factor):
        self._agf, self._name, self._factor = agf, name, factor

    def __getattr__(self, attr):
        fn = getattr(self._agf, attr)
        if attr != self._name:
            return fn
        if attr == "modulus_curve":
            return lambda *a: (lambda d, c=fn(*a): c(d) * self._factor)
        return lambda *a: fn(*a) * self._factor


def test_member_oracles(agf):
    rng = np.random.default_rng(3)
    f = agf.make_grid_function(rng.uniform(size=(7, 5)) * (rng.uniform(size=(7, 5)) < 0.6),
                               (0.5, 0.25))
    g = agf.iterated_rearrangement(f, (0, 1))
    for fid, h in (("full", f), ("orthant", g)):
        expect(not (oracles.member_problems(agf, fid, h)),
               f"member oracles pass agf on the {fid} grid")
    for name, factor in (("shift_difference_norm", 1 + 1e-8), ("lorentz_norm", 1 + 1e-8),
                         ("modulus_curve", 1 - 1e-8)):
        expect(bool(oracles.member_problems(Perturbed(agf, name, factor), "full", f)),
               f"member oracles flag {name} scaled by {factor}")
    sf = agf.decreasing_rearrangement(f)
    steps = sf.values.copy()
    steps[1] *= 1 + 1e-12
    expect(bool(oracles.rearrangement_problems(f.values, f.cell_volume, sf.breakpoints, steps)),
           "rearrangement oracle flags a perturbed step value")


def test_span_arithmetic():
    ticks = iter(range(1000))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.wrap("rearrange.decreasing_rearrangement", lambda: None)

    def mid():
        leaf()
        leaf()
    mid = tracer.wrap("verify.verify_isotropic_estimate", mid)

    def top():
        mid()
        leaf()
    top = tracer.wrap("experiments.rearr-estimate", top)
    tracer.pass_id = 1
    top()
    names = [s[0].split(".")[-1] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    expect(parents == [-1, 0, 1, 1, 0], f"span parents follow the call nest: {parents}")
    own = tracer.self_times()
    dur = [s[2] - s[1] for s in tracer.spans]
    expect(own[1] == dur[1] - dur[2] - dur[3] and own[0] == dur[0] - dur[1] - dur[4],
           f"self time is duration minus direct children: {names} {own}")
    expect(abs(sum(own) - dur[0]) < 1e-12, "self times of a nest add up to the root duration")
    m = spans.layer_metrics(tracer, [(1,)])
    expect(m["rearrange.decreasing_rearrangement.calls"] == 3
           and m["verify.verify_isotropic_estimate.self_s"] == own[1]
           and m["experiments.rearr-estimate_s"] == dur[0]
           and m["experiments.jobs"] == 1,
           "layer metrics: calls, self time and experiment time from the nest")
    m2 = spans.layer_metrics(tracer, [(1,), (2,)])
    expect(m2["rearrange.self_s"] == m["rearrange.self_s"] / 2, "layer metrics are per round")


def test_input_counter(agf):
    tracer = spans.Tracer()
    orig = agf.moduli.modulus_curve
    tracer.install_input_counter(agf)
    f = agf.make_grid_function(np.arange(6.0).reshape(3, 2), (0.5, 0.25))
    for k, p in ((0, 1.0), (0, 1.0), (1, 1.0), (0, 2.0)):
        agf.moduli.modulus_curve(f, k, p)
    tracer.uninstall()
    expect(len(tracer.moduli_inputs) == 3 and not tracer.spans,
           "input counter: distinct (function, axis, p) inputs, no spans")
    expect(agf.moduli.modulus_curve is orig, "input counter: uninstall restores the function")


def test_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    names = [m["name"] for m in doc["per_layer"]]
    expect(names == spans.metric_names(), "BENCHMARK.json per_layer names match the tracer")
    expect(sorted(w["name"] for w in doc["workloads"]) == sorted(run.WORKLOADS),
           "BENCHMARK.json workloads match the runner")
    return doc


def smoke(doc):
    for workload in sorted(run.WORKLOADS):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(run.ROOT, "perfbench", "run.py"),
                 "--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace)],
                capture_output=True, text=True, cwd=run.ROOT, timeout=300)
            want = doc["per_layer" if trace else "end_to_end"]
            try:
                res = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                res = {}
            ok = (proc.returncode == 0 and res.get("correct") is True
                  and res["attempted"] >= 1 and 0 <= res["failed"] < res["attempted"]
                  and set(res["metrics"]) == {m["name"] for m in want}
                  and all(res["metrics"][m["name"]]["unit"] == m["unit"] for m in want))
            expect(ok, f"smoke {workload} --trace {trace}: correct, every metric with its unit"
                   + ("" if ok else f"\n{proc.stderr[-2000:]}"))
    bare = os.path.join(run.SCRATCH, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.join(run.ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "corpus",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=bare, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without the agf sources the benchmark fails and prints no result")


def main() -> int:
    agf = run.import_agf()
    test_report_oracle()
    test_box_operator_count()
    test_budget_oracle()
    test_trace_oracle()
    test_member_oracles(agf)
    test_span_arithmetic()
    test_input_counter(agf)
    doc = test_benchmark_json()
    smoke(doc)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
