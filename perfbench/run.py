"""Whole-pass benchmark of agf: verification and calibration passes, timed warm.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 36 --trace 0

One run is one serial process, with agf on one thread.  The run does one
cold round, which is checked but not timed, and then repeats warm rounds of
one calibration pass and one verification pass while ``--seconds`` last.
``run_s`` and ``calibrate_s`` are the mean warm pass times: this machine's
speed swings in episodes of seconds, and the median of a handful of passes
jumps between the fast and the slow episode where the mean does not.  Each
warm round starts with five set-ups (import agf afresh, build the corpus,
load and check budgets where the workload uses them), so that the set-ups
are spread over the run like the passes; ``setup_s`` is the median of at
least 31.  Everything runs in this one process: it starts no other.  With
``--trace 1`` traced and untraced rounds alternate, one more untimed round
counts the distinct moduli inputs, and the per-layer metrics are printed
instead.  Every output is
checked by ``oracles``; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time

import oracles
import spans
from workloads import ROOT, SRC, WORKLOADS, LimitsWorkload, import_agf

SCRATCH = os.path.join(ROOT, ".perfbench")

SETUP_PER_ROUND = 5         # set-ups before each warm round
MIN_SETUPS = 31             # set-ups per run, topped up after the rounds
MIN_ROUNDS = 3              # warm rounds (trace: pairs of rounds), whatever the time
SAMPLED_MEMBERS = 4         # members per run given the own-numpy member checks


def setup_seconds(workload, seed, rundir) -> float:
    """Wall time of one set-up, with agf imported afresh in this process.

    The agf modules are taken out of ``sys.modules`` for the set-up and put
    back after it, so the passes and the tracer keep using the first import.
    """
    saved = _pop_agf_modules()
    try:
        t = time.perf_counter()
        WORKLOADS[workload](import_agf(), seed, rundir).setup()
        return time.perf_counter() - t
    finally:
        _pop_agf_modules()
        sys.modules.update(saved)


def _pop_agf_modules() -> dict:
    return {name: sys.modules.pop(name) for name in list(sys.modules)
            if name == "agf" or name.startswith("agf.")}


def _fingerprint(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class Runner:
    """Times rounds of (calibration pass, verification pass) and keeps their outputs."""

    def __init__(self, workload):
        self.wl = workload
        self.tracer = None
        self.next_pass = 1
        self.rounds = 0
        self.prints: dict[str, str] = {}
        self.problems: list[str] = []

    def _pass(self, kind, fn, outputs):
        pid = self.next_pass
        self.next_pass += 1
        if self.tracer is not None:
            self.tracer.pass_id = pid
        t = time.perf_counter()
        fn()
        dt = time.perf_counter() - t
        fp = _fingerprint(outputs())
        if self.prints.setdefault(kind, fp) != fp:
            self.problems.append(f"{kind} pass {pid}: outputs differ from the first pass")
        return pid, dt

    def round(self):
        wl = self.wl
        cal = self._pass("calibrate", wl.calibrate_pass, lambda: [wl.budget_path])
        run = self._pass("run", wl.run_pass, wl.output_files)
        self.rounds += 1
        return cal, run


def phase(seconds, step):
    """Calls ``step`` until the next call would end past ``seconds``, at least
    MIN_ROUNDS times; returns the results of the calls."""
    results, took = [], []
    start = time.perf_counter()
    while len(results) < MIN_ROUNDS or (
            time.perf_counter() - start + statistics.median(took) <= seconds):
        t = time.perf_counter()
        results.append(step())
        took.append(time.perf_counter() - t)
    return results


def check_outputs(agf, wl, runner, seed) -> tuple[int, int, list[str]]:
    """Oracle checks on the pass outputs; returns (attempted, failed, problems)."""
    rows = oracles.read_reports(os.path.join(wl.out, "reports.csv"))
    dims = {fid: f.dims for fid, f in wl.members}
    problems = list(runner.problems)
    problems += oracles.report_problems(rows, dims)
    dropped = 0
    if "all" in wl.experiments or "appendix" in wl.experiments:
        dropped, bad = oracles.box_operator_drops(rows, wl.members)
        problems += bad
    with open(wl.budget_path) as fh:
        payload = json.load(fh)
    problems += oracles.budget_problems(rows, payload)
    traces_path = os.path.join(wl.out, "traces.csv")
    if os.path.exists(traces_path):
        problems += oracles.trace_problems(oracles.read_traces(traces_path), wl.m_max or 8)
    elif isinstance(wl, LimitsWorkload):
        problems.append("limits pass wrote no traces")
    problems += [f"failing verdict: {r['inequality_id']} {r['function_id']}"
                 for r in rows if r["verdict"] == "fail"]
    sample = random.Random(seed).sample(wl.members, min(SAMPLED_MEMBERS, len(wl.members)))
    for fid, f in sample:
        problems += oracles.member_problems(agf, fid, f)
    # one operation per calibrated budget and per expected inequality check
    per_round = len(payload["budgets"]) + len(rows) + dropped
    return per_round * runner.rounds, dropped * runner.rounds, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "agf", "__init__.py")):
        print(f"perfbench: no agf sources under {SRC}", file=sys.stderr)
        return 2
    rundir = os.path.join(SCRATCH, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(rundir, exist_ok=True)
    try:
        return measure(args, rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def measure(args, rundir) -> int:
    agf = import_agf()
    tracer = spans.Tracer() if args.trace else None
    wl = WORKLOADS[args.workload](agf, args.seed, rundir)
    if tracer:
        tracer.install(agf)
        tracer.pass_id = spans.SETUP_PASS
    wl.setup()
    if tracer:
        tracer.uninstall()

    runner = Runner(wl)
    (_, cold_cal), (_, cold_run) = runner.round()
    setups: list[float] = []

    def warm_round():
        for _ in range(SETUP_PER_ROUND):
            setups.append(setup_seconds(args.workload, args.seed, rundir))
        return runner.round()

    def traced_round():
        tracer.install(agf)
        runner.tracer = tracer
        try:
            return runner.round()
        finally:
            runner.tracer = None
            tracer.uninstall()

    order = itertools.count()

    def round_pair():
        # alternate which of the two goes first, so that drift cancels in the pairs
        if next(order) % 2:
            traced = traced_round()
            return runner.round(), traced
        return runner.round(), traced_round()

    if tracer:
        pairs = phase(args.seconds, round_pair)
        plain = [p for p, _ in pairs]
        traced = [t for _, t in pairs]
        tracer.install_input_counter(agf)
        runner.round()
        tracer.uninstall()
    else:
        plain = phase(args.seconds, warm_round)
        while len(setups) < MIN_SETUPS:
            setups.append(setup_seconds(args.workload, args.seed, rundir))
    cal_times = [c[1] for c, _ in plain]
    run_times = [r[1] for _, r in plain]
    print(f"perfbench {args.workload} seed {args.seed}: cold calibrate {cold_cal:.3f} s, "
          f"cold run {cold_run:.3f} s; warm calibrate {[round(x, 3) for x in cal_times]}, "
          f"run {[round(x, 3) for x in run_times]}", file=sys.stderr)

    attempted, failed, problems = check_outputs(agf, wl, runner, args.seed)
    for p in problems[:20]:
        print(f"perfbench: {p}", file=sys.stderr)

    if tracer:
        values = spans.layer_metrics(tracer, [(c[0], r[0]) for c, r in traced])
        values["trace.overhead_s"] = statistics.fmean(
            t[1][1] - p[1][1] for p, t in zip(plain, traced))
        os.makedirs(SCRATCH, exist_ok=True)
        tracer.dump(os.path.join(SCRATCH, f"spans-{args.workload}-{args.seed}.csv"))
        units = {name: spans.metric_unit(name) for name in values}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.fmean(run_times),
            "calibrate_s": statistics.fmean(cal_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"setup_s": "s", "run_s": "s", "calibrate_s": "s", "peak_rss_mb": "MB"}
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
