"""Experiment definitions: corpus wiring, parameter grids, deterministic runs.

``run_experiment`` runs one experiment, a sequence of them or all, and wraps
each corpus member once in a ``verify.Member``, so every experiment of the
call reads one set of curves, f*, dyadic decrements, decrement sums and
gauges per member, each built on first use.  Each experiment is one runner
of one member, and expands to an ordered list of independent jobs, one
``partial(_run, member, runner, opts)`` per member the experiment runs on.
Jobs may execute on a thread pool, but results are merged in submission
order and rows are sorted before emission, so the output is byte-identical
for any thread count.
"""

from __future__ import annotations

import math
import numbers
from collections import Counter
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial

from . import verify as V
from .calibration import BudgetFile
from .corpus import CorpusSpec, generate_corpus
from .errors import ParameterError
from .grid import GridFunction
from .norms import derive_params
from .verify import InequalityReport, LimitTrace, Member


def default_corpus(seed: int) -> list[tuple[str, GridFunction]]:
    """The committed verification corpus: a fixed mix of families over n = 1..3."""
    specs = [
        CorpusSpec("indicator-box", (8,), (0.125,), seed + 1, count=2),
        CorpusSpec("hat-multilinear", (64,), (1.0 / 64,), seed + 2, count=2),
        CorpusSpec("random-general", (16,), (0.0625,), seed + 3, count=2),
        CorpusSpec("indicator-box", (8, 8), (0.25, 0.5), seed + 4, count=2),
        CorpusSpec("separable-exp-staircase", (12, 12), (0.5, 0.25), seed + 5, count=2),
        CorpusSpec("anisotropic-staircase", (10, 10), (0.4, 0.3), seed + 6, count=2),
        CorpusSpec("hat-multilinear", (16, 16), (1.0 / 16, 1.0 / 16), seed + 7, count=2),
        CorpusSpec("random-mdec", (8, 8), (0.5, 0.5), seed + 8, count=2),
        CorpusSpec("random-general", (8, 8), (0.375, 0.5), seed + 9, count=2),
        CorpusSpec("random-mdec", (6, 6, 6), (0.5, 0.5, 0.5), seed + 10, count=1),
        CorpusSpec("indicator-box", (16, 16, 16), (0.25, 0.25, 0.25), seed + 11, count=1),
    ]
    out = []
    for spec in specs:
        out.extend(generate_corpus(spec))
    return out


# six embedding parameter points spanning theta <= q and theta > q
EMBEDDING_POINTS = (
    # (p, beta_js, theta_js)
    (1.0, (0.5, 0.5), (1.0, 1.0)),
    (1.0, (0.5, 0.5), (2.0, 2.0)),
    (1.0, (0.3, 0.6), (1.0, 2.0)),
    (1.0, (0.7, 0.4), (2.0, 1.0)),
    (1.0, (0.5, 0.5), (math.inf, math.inf)),
    (1.5, (0.6, 0.6), (1.5, 1.5)),
)

P_GRID = (1.0, 2.0)


@dataclass
class ExperimentResult:
    reports: list[InequalityReport] = field(default_factory=list)
    traces: list[LimitTrace] = field(default_factory=list)
    gauge_rows: list[tuple] = field(default_factory=list)

    def extend(self, other: "ExperimentResult") -> None:
        self.reports.extend(other.reports)
        self.traces.extend(other.traces)
        self.gauge_rows.extend(other.gauge_rows)


def _dyadic(top: float, count: int) -> list[float]:
    return [top * 2.0**-k for k in range(1, count + 1)]


# --- per-member runners: each appends one member's rows to ``res`` ----------------

def _rearr_estimate(m, opts, res):
    for p in P_GRID:
        for d in _dyadic(max(m.f.extent), 5):
            res.reports.append(V.verify_isotropic_estimate(m, p, d))


def _aniso_estimate(m, opts, res):
    f = m.f
    for order in (tuple(range(f.dims)), tuple(reversed(range(f.dims)))):
        gauge = m.gauge(order)
        res.reports.extend(V.verify_gauge_product(m, order))
        if f.dims == 2:
            hs = _dyadic(max(f.extent), 6)
            res.reports.extend(V.verify_anisotropic_estimate(m, 1.0, order, hs))
        key = "".join(str(k) for k in order)
        achieved = gauge.shell_counts[:, 1:] * gauge.cell_volume
        projected = gauge.projection_counts * gauge.cell_volume / f.cell_sizes
        for t, *axes in zip(gauge.t_values.tolist(), gauge.mu.tolist(), gauge.u.tolist(),
                            achieved.tolist(), projected.tolist()):
            res.gauge_rows.extend((m.function_id, key, t, j, *row)
                                  for j, row in enumerate(zip(*axes)))


def _embedding(m, opts, res):
    for p, beta_js, theta_js in EMBEDDING_POINTS:
        params = derive_params(p, beta_js, theta_js, m.f.dims)
        res.reports.extend(V.verify_embedding(m, params, order=(0, 1)))


def _limit_sweep(m, opts, res):
    tw, tc, reps = V.limiting_sweep(m, 1.0, (1.0, 1.0), opts["m_max"])
    res.traces.extend([tw, tc])
    res.reports.extend(reps)
    res.reports.append(V.verify_lipschitz_endpoint(m, 1.0))


def _bbm(m, opts, res):
    m_max = opts["m_max"]
    if "hat-multilinear" in m.function_id and m.f.dims == 1:
        for theta in (1.0, 2.0):
            res.traces.append(V.verify_limit_relations(m, 0, 1.0, theta, m_max))
        res.traces.append(V.verify_gagliardo_limit(m, 1.0, min(m_max, 6)))
    for alpha in (0.5, 0.75):
        res.reports.extend(V.verify_fractional_sobolev(m, 1.0, alpha))


def _modulus_lemmas(m, opts, res):
    f = m.f
    for p in P_GRID:
        res.reports.extend(V.verify_modulus_lemmas(m, p, _dyadic(max(f.extent), 16)))
        # the 1-D comparison lives on [0, 1], so its shifts are fractions of 1
        top = 1.0 if f.dims == 1 else max(f.extent)
        res.reports.extend(V.verify_rearrangement_modulus(m, p, _dyadic(top, 8)))


def _appendix(m, opts, res):
    f = m.f
    res.reports.extend(V.verify_box_operator(m, (1.0, 2.0), (-0.5, 0.5, 2.0)))
    if f.halfspace:
        cmin = min(f.cell_sizes)
        for p in P_GRID:
            res.reports.extend(V.verify_axis_decrement(
                m, p, (2.0, 4.0), (cmin, 2.0 * cmin, 4.0 * cmin)))


def _run(m: Member, runner, opts: dict) -> ExperimentResult:
    res = ExperimentResult()
    runner(m, opts, res)
    return res


def _member_jobs(runner, runs_on=lambda f, fid: True):
    """Job builder of a runner: one ``partial(_run, member, ...)`` per member it runs on."""
    def build(members, opts):
        return [partial(_run, m, runner, opts) for m in members if runs_on(m.f, m.function_id)]
    return build


_JOB_BUILDERS = {
    "rearr-estimate": _member_jobs(_rearr_estimate),
    "aniso-estimate": _member_jobs(_aniso_estimate, lambda f, fid: f.dims >= 2),
    "embedding": _member_jobs(_embedding, lambda f, fid: f.dims == 2),
    "limit-sweep": _member_jobs(_limit_sweep,
                                lambda f, fid: f.dims == 2 and "hat-multilinear" in fid),
    "bbm": _member_jobs(_bbm, lambda f, fid: "hat-multilinear" in fid
                        or (f.dims == 1 and "indicator" in fid)),
    "modulus-lemmas": _member_jobs(_modulus_lemmas),
    "appendix": _member_jobs(_appendix, lambda f, fid: not any(o != 0.0 for o in f.origin)),
}
EXPERIMENTS = tuple(_JOB_BUILDERS)


def _options(opts: dict) -> dict:
    """``opts`` with the default m_max filled in; an unknown key or a bad m_max raises."""
    unknown = sorted(set(opts) - {"m_max"})
    if unknown:
        raise ParameterError(f"unknown options {unknown}; known: ['m_max']")
    m_max = opts.get("m_max", 8)
    if isinstance(m_max, bool) or not isinstance(m_max, numbers.Integral) or m_max < 1:
        raise ParameterError(f"m_max must be an integer >= 1, got {m_max!r}")
    return {"m_max": int(m_max)}


def run_experiment(name: str | Sequence[str], corpus, budgets: BudgetFile | None = None,
                   threads: int = 1, opts: dict | None = None) -> ExperimentResult:
    """Run one experiment, a sequence of them in order, or 'all' over a corpus.

    ``corpus`` lists (function_id, f) pairs; each is wrapped in one ``Member``
    that all jobs of the call share.  The verifiers give calibrated
    inequalities an infinite budget; with ``budgets`` given, each such report
    gets its budget from that file once the jobs are merged.  ``opts`` takes
    one key, ``m_max`` (an integer >= 1, default 8), the dyadic depth of the
    limit traces.  An unknown key, a bad ``m_max`` or a function id that the
    corpus repeats raises ``ParameterError``.
    """
    opts = _options(opts or {})
    names = EXPERIMENTS if name == "all" else (name,) if isinstance(name, str) else tuple(name)
    # a sequence holds experiment names only: 'all' is known as a name of its own
    known = EXPERIMENTS + ("all",) if isinstance(name, str) else EXPERIMENTS
    for n in names:
        if n not in _JOB_BUILDERS:
            raise ParameterError(f"unknown experiment {n!r}; known: {known}")
    members = [Member(f, fid) for fid, f in corpus]
    repeated = sorted(fid for fid, n in Counter(m.function_id for m in members).items() if n > 1)
    if repeated:
        raise ParameterError(f"repeated function ids in the corpus: {repeated}")
    jobs = []
    for n in names:
        jobs.extend(_JOB_BUILDERS[n](members, opts))
    result = ExperimentResult()
    if threads <= 1:
        for job in jobs:
            result.extend(job())
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for part in pool.map(lambda j: j(), jobs):
                result.extend(part)
    if budgets is not None:
        result.reports = [rep if V.INEQUALITIES[rep.inequality_id] is not None
                          else replace(rep, budget=budgets.budget_for(rep.inequality_id))
                          for rep in result.reports]
    return result
