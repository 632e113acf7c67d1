"""Command-line experiment runner.

Subcommands:

* ``corpus``     write the committed corpus to disk with a manifest
* ``calibrate``  run the budget-tier verifiers and freeze their budgets
* ``run``        run one experiment (or ``all``) and emit CSV reports
* ``report``     summarize previously written reports

Each subcommand registers only the flags it reads.  Config files are flat
``key = value`` text; repeated keys accumulate into lists; ``#`` starts a
comment.  A setting a subcommand reads is its flag, else its config key,
else its default (``_SETTINGS``).
Exit status: 0 on success, 1 if any verdict is fail, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from functools import partial
from typing import NamedTuple

from .calibration import (DEFAULT_MARGIN, _check_budget_path, calibrate_from_reports,
                          load_budgets, save_budgets)
from .corpus import corpus_hash
from .errors import AgfError
from .experiments import (EXPERIMENTS, ExperimentResult, default_corpus,
                          run_experiment)
from .grid import save_agf

_DEFAULT_SEED = 20240901
_DEFAULT_BUDGET = os.path.join("calibration", "budgets.json")


def parse_config(path) -> dict[str, list[str]]:
    """Flat key=value config; repeated keys accumulate; '#' comments."""
    out: dict[str, list[str]] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise AgfError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, _, val = line.partition("=")
            out.setdefault(key.strip(), []).append(val.strip())
    return out


def _number(kind, value, source):
    """``kind(value)``; a malformed value is a config error (exit status 2)."""
    try:
        return kind(value)
    except ValueError:
        raise AgfError(f"{source} must be {'an integer' if kind is int else 'a number'}, "
                       f"got {value!r}") from None


def _positive(kind, value, source):
    """``_number`` of a count or margin, which must also be finite and > 0."""
    x = _number(kind, value, source)
    if not (math.isfinite(x) and x > 0):
        raise AgfError(f"{source} must be {'an integer >= 1' if kind is int else 'finite and > 0'}, "
                       f"got {value!r}")
    return x


# config key -> (parse of its last config value, default); an empty budget
# value means the default file
_SETTINGS = {"seed": (partial(_number, int), _DEFAULT_SEED),
             "threads": (partial(_positive, int), 1),
             "budget": (lambda value, source: value or _DEFAULT_BUDGET, _DEFAULT_BUDGET),
             "m-max": (partial(_positive, int), None),
             "margin": (partial(_positive, float), DEFAULT_MARGIN)}


def _resolve_settings(args, cfg) -> None:
    """Set each setting the subcommand registered and no flag gave from the
    config, else to its default."""
    for key, (parse, default) in _SETTINGS.items():
        attr = key.replace("-", "_")
        if attr in vars(args) and getattr(args, attr) is None:
            vals = cfg.get(key)
            setattr(args, attr, parse(vals[-1], f"config key {key}") if vals else default)


def _fmt(x) -> str:
    return repr(float(x))


_PARAMS_JSON = json.JSONEncoder(sort_keys=True, default=float)


def write_reports_csv(path, reports) -> None:
    # one encoding per params dict; the cache holds each dict, so no id is reused
    quoted: dict[int, tuple[dict, str]] = {}
    rows = []
    for r in reports:
        hit = quoted.get(id(r.params))
        if hit is None:
            hit = quoted[id(r.params)] = (r.params,
                                          _PARAMS_JSON.encode(r.params).replace('"', '""'))
        # doubling the quotes keeps the order of the JSON texts, so rows sort as before
        rows.append((r.inequality_id, r.function_id, hit[1],
                     _fmt(r.lhs), _fmt(r.rhs), _fmt(r.ratio), _fmt(r.budget),
                     r.verdict, r.truncation))
    rows.sort()
    with open(path, "w") as fh:
        fh.write("inequality_id,function_id,params_json,lhs,rhs,ratio,budget,verdict,truncation\n")
        # row by row: a "".join or a writelines of all the rows measured a higher peak RSS
        for iid, fid, params, lhs, rhs, ratio, budget, verdict, trunc in rows:
            fh.write(f'{iid},{fid},"{params}",{lhs},{rhs},{ratio},{budget},{verdict},{trunc}\n')


def write_traces_csv(path, traces) -> None:
    rows = []
    for tr in traces:
        rows.extend(tr.to_rows())
    rows.sort(key=lambda r: (r[0], r[1], r[3]))
    with open(path, "w") as fh:
        fh.write("trace_id,function_id,param_name,param_value,value,target,gap\n")
        for tid, fid, pn, pv, v, tgt, gap in rows:
            fh.write(f"{tid},{fid},{pn},{_fmt(pv)},{_fmt(v)},{_fmt(tgt)},{_fmt(gap)}\n")


def write_gauge_csv(path, rows) -> None:
    rows = sorted(rows)
    with open(path, "w") as fh:
        fh.write("function_id,order,t,axis,mu,u,achieved_measure,projection_measure\n")
        for fid, order, t, j, mu, u, ach, pm in rows:
            fh.write(f"{fid},{order},{_fmt(t)},{j},{_fmt(mu)},{_fmt(u)},"
                     f"{_fmt(ach)},{_fmt(pm)}\n")


class _SummaryRow(NamedTuple):
    """The fields of a report that ``summarize`` reads."""

    inequality_id: str
    ratio: float
    budget: float
    verdict: str


def _read_summary_rows(path) -> list[_SummaryRow]:
    """The ``_SummaryRow`` of every line of a written reports.csv.

    A file that is not UTF-8 CSV, a missing column or field, a non-numeric
    ratio or budget, or an unknown verdict is an ``AgfError``.
    """
    rows = []
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            missing = [c for c in _SummaryRow._fields if c not in (reader.fieldnames or ())]
            if missing:
                raise AgfError(f"{path}: missing column(s) {', '.join(missing)}")
            for row in reader:
                where = f"{path}:{reader.line_num}"
                if any(row[c] is None for c in _SummaryRow._fields):
                    raise AgfError(f"{where}: too few fields")
                if row["verdict"] not in ("pass", "fail", "degenerate"):
                    raise AgfError(f"{where}: unknown verdict {row['verdict']!r}")
                rows.append(_SummaryRow(row["inequality_id"],
                                        _number(float, row["ratio"], f"{where}: ratio"),
                                        _number(float, row["budget"], f"{where}: budget"),
                                        row["verdict"]))
    except (csv.Error, UnicodeDecodeError) as exc:
        raise AgfError(f"{path}: {exc}") from None
    return rows


def summarize(reports) -> str:
    """Per-inequality counts, worst finite ratio and budget of reports or ``_SummaryRow``s."""
    agg: dict[str, dict] = {}
    for r in reports:
        a = agg.get(r.inequality_id)
        if a is None:
            a = agg[r.inequality_id] = {"n": 0, "pass": 0, "fail": 0, "degenerate": 0,
                                        "worst": 0.0, "budget": 0.0}
        a["n"] += 1
        a[r.verdict] += 1
        if math.isfinite(r.ratio):
            a["worst"] = max(a["worst"], r.ratio)
        a["budget"] = max(a["budget"], r.budget if math.isfinite(r.budget) else 0.0)
    lines = [f"{'inequality':32} {'n':>5} {'pass':>5} {'fail':>5} {'degen':>5} "
             f"{'worst_ratio':>12} {'budget':>10}"]
    for iid in sorted(agg):
        a = agg[iid]
        lines.append(f"{iid:32} {a['n']:>5} {a['pass']:>5} {a['fail']:>5} "
                     f"{a['degenerate']:>5} {a['worst']:>12.6g} {a['budget']:>10.6g}")
    return "\n".join(lines) + "\n"


_PLOT_SCRIPT = """# gnuplot script over the emitted CSV data
set datafile separator ','
set key autotitle columnhead
set logscale y
plot 'traces.csv' using 4:5 with linespoints title 'trace values'
"""


def _emit(outdir, result: ExperimentResult) -> str:
    """Write the files of one run into ``outdir``; returns the summary text."""
    os.makedirs(outdir, exist_ok=True)
    write_reports_csv(os.path.join(outdir, "reports.csv"), result.reports)
    # the optional files of an earlier run into the same directory must not
    # outlive it: --out holds the artifacts of exactly one run
    for name, rows, write in (("traces.csv", result.traces, write_traces_csv),
                              ("gauge.csv", result.gauge_rows, write_gauge_csv)):
        path = os.path.join(outdir, name)
        if rows:
            write(path, rows)
        elif os.path.exists(path):
            os.remove(path)
    summary = summarize(result.reports)
    with open(os.path.join(outdir, "summary.txt"), "w") as fh:
        fh.write(summary)
    with open(os.path.join(outdir, "plot.gp"), "w") as fh:
        fh.write(_PLOT_SCRIPT)
    return summary


def _check_out(path) -> None:
    """Raise ``AgfError`` before any work when ``--out`` cannot be a directory:
    it, or its nearest ancestor that exists, is not one."""
    head = os.path.abspath(path)
    while not os.path.lexists(head):
        head = os.path.dirname(head)
    if not os.path.isdir(head):
        raise AgfError(f"--out {path}: {head} is not a directory")


def cmd_corpus(args) -> int:
    _check_out(args.out)
    corpus = default_corpus(args.seed)
    os.makedirs(args.out, exist_ok=True)
    rows = []
    for fid, f in corpus:
        path = os.path.join(args.out, f"{fid}.agf")
        save_agf(f, path)
        rows.append((fid, f.dims, "x".join(str(s) for s in f.shape),
                     f.support_cells, os.path.basename(path)))
    with open(os.path.join(args.out, "manifest.csv"), "w") as fh:
        fh.write("function_id,dims,shape,support_cells,file\n")
        for row in rows:
            fh.write(",".join(str(x) for x in row) + "\n")
    print(f"wrote {len(corpus)} members to {args.out}")
    print(f"corpus hash: {corpus_hash(corpus)}")
    return 0


_BUDGET_EXPERIMENTS = ("rearr-estimate", "aniso-estimate", "embedding",
                       "limit-sweep", "bbm")


def cmd_calibrate(args) -> int:
    _check_budget_path(args.budget, args.force)
    corpus = default_corpus(args.seed)
    result = run_experiment(_BUDGET_EXPERIMENTS, corpus, budgets=None, threads=args.threads,
                            opts={} if args.m_max is None else {"m_max": args.m_max})
    bf = calibrate_from_reports(result.reports, corpus_hash(corpus), args.margin)
    save_budgets(bf, args.budget, force=args.force)
    print(f"calibrated {len(bf.budgets)} budgets -> {args.budget}")
    for k in sorted(bf.budgets):
        print(f"  {k:32} max_ratio={bf.max_ratios[k]:.6g} budget={bf.budgets[k]:.6g}")
    return 0


def cmd_run(args) -> int:
    _check_out(args.out)
    corpus = default_corpus(args.seed)
    budgets = None
    needs_budget = args.experiment == "all" or args.experiment in _BUDGET_EXPERIMENTS
    if args.budget and os.path.exists(args.budget):
        budgets = load_budgets(args.budget)
        budgets.check_corpus(corpus_hash(corpus))
    elif needs_budget:
        print("error: budget file required for calibrated experiments "
              "(run `agf calibrate` first)", file=sys.stderr)
        return 2
    result = run_experiment(args.experiment, corpus, budgets=budgets, threads=args.threads,
                            opts={} if args.m_max is None else {"m_max": args.m_max})
    print(_emit(args.out, result), end="")
    # a truncated trace may have no rows in traces.csv at all
    for tr in result.traces:
        if tr.truncated:
            print(f"note: trace {tr.trace_id} of {tr.function_id} truncated after "
                  f"{tr.values.size} points", file=sys.stderr)
    nfail = sum(1 for r in result.reports if r.verdict == "fail")
    if nfail:
        print(f"{nfail} failing reports", file=sys.stderr)
        return 1
    return 0


def cmd_report(args) -> int:
    path = os.path.join(args.out, "reports.csv")
    if not os.path.exists(path):
        print(f"error: {path} not found", file=sys.stderr)
        return 2
    rows = _read_summary_rows(path)
    print(summarize(rows), end="")
    return 1 if any(r.verdict == "fail" for r in rows) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="agf",
        description="Verification experiments for rearrangement and embedding estimates")
    parser.add_argument("--config", help="flat key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    # a bad count raises AgfError, which argparse lets through to the except below
    flags = {"--out": {"default": "out", "help": "output directory"},
             "--seed": {"type": int, "help": "corpus seed"},
             "--threads": {"type": lambda v: _positive(int, v, "--threads"),
                           "help": "worker threads, at least 1"},
             "--budget": {"help": "budget file path"},
             "--m-max": {"type": lambda v: _positive(int, v, "--m-max"),
                         "help": "dyadic depth for limit experiments, at least 1"},
             "--force": {"action": "store_true", "help": "overwrite an existing budget file"}}

    def command(name, func, help, names, **defaults):
        p = sub.add_parser(name, help=help)
        for flag in names.split():
            p.add_argument(flag, **flags[flag])
        p.set_defaults(func=func, **defaults)
        return p

    command("corpus", cmd_corpus, "write the committed corpus", "--out --seed")
    command("calibrate", cmd_calibrate, "freeze inequality budgets",
            "--seed --threads --budget --m-max --force", margin=None)
    command("run", cmd_run, "run one experiment or 'all'",
            "--out --seed --threads --budget --m-max").add_argument(
        "experiment", choices=EXPERIMENTS + ("all",))
    command("report", cmd_report, "summarize written reports", "--out")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    except AgfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cfg = {}
    if args.config:
        try:
            cfg = parse_config(args.config)
        except (AgfError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        _resolve_settings(args, cfg)
        return args.func(args)
    except AgfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
