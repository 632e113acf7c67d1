"""Experiment definitions: corpus wiring, parameter grids, deterministic runs.

``run_experiment`` runs one experiment, a sequence of them or all, and wraps
each corpus member once in a ``verify.Member``, so every experiment of the
call reads one set of curves, f*, dyadic decrements, decrement sums and
gauges per member, each built on first use.  Each experiment expands to an
ordered list of independent jobs (one per member x verifier x coarse
parameter block).  Jobs may execute on a thread pool, but results are merged
in submission order and rows are sorted before emission, so the output is
byte-identical for any thread count.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import verify as V
from .calibration import BudgetFile
from .corpus import CorpusSpec, generate_corpus
from .errors import ParameterError
from .grid import GridFunction
from .norms import derive_params
from .verify import InequalityReport, LimitTrace, Member

EXPERIMENTS = ("rearr-estimate", "aniso-estimate", "embedding", "limit-sweep",
               "bbm", "modulus-lemmas", "appendix")


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


def _dyadic(top: float, count: int, start: int = 1) -> list[float]:
    return [top * 2.0**-k for k in range(start, start + count)]


def _max_extent(f: GridFunction) -> float:
    return max(f.extent)


# --- per-experiment job builders --------------------------------------------------

def _jobs_rearr_estimate(members, opts):
    jobs = []
    for m in members:
        def job(m=m):
            res = ExperimentResult()
            for p in P_GRID:
                for d in _dyadic(_max_extent(m.f), 5):
                    res.reports.append(V.verify_isotropic_estimate(m, p, d))
            return res
        jobs.append(job)
    return jobs


def _jobs_aniso_estimate(members, opts):
    jobs = []
    for m in members:
        f = m.f
        if f.dims < 2:
            continue
        def job(m=m, f=f):
            res = ExperimentResult()
            for order in (tuple(range(f.dims)), tuple(reversed(range(f.dims)))):
                gauge = m.gauge(order)
                res.reports.extend(V.verify_gauge_product(m, order))
                if f.dims == 2:
                    hs = _dyadic(_max_extent(f), 6)
                    res.reports.extend(V.verify_anisotropic_estimate(m, 1.0, order, hs))
                for i, t in enumerate(gauge.t_values):
                    for j in range(f.dims):
                        res.gauge_rows.append((
                            m.function_id, "".join(str(k) for k in order), float(t), j,
                            float(gauge.mu[i, j]), float(gauge.u[i, j]),
                            float(gauge.shell_counts[i, j + 1] * gauge.cell_volume),
                            float(gauge.projection_counts[i, j] * gauge.cell_volume
                                  / f.cell_sizes[j]),
                        ))
            return res
        jobs.append(job)
    return jobs


def _jobs_embedding(members, opts):
    jobs = []
    for m in members:
        if m.f.dims != 2:
            continue
        for p, beta_js, theta_js in EMBEDDING_POINTS:
            def job(m=m, p=p, beta_js=beta_js, theta_js=theta_js):
                res = ExperimentResult()
                params = derive_params(p, beta_js, theta_js, m.f.dims)
                res.reports.extend(V.verify_embedding(m, params, order=(0, 1)))
                return res
            jobs.append(job)
    return jobs


def _jobs_limit_sweep(members, opts):
    m_max = int(opts.get("m_max", 8))
    jobs = []
    for m in members:
        if m.f.dims != 2 or "hat-multilinear" not in m.function_id:
            continue
        def job(m=m):
            res = ExperimentResult()
            tw, tc, reps = V.limiting_sweep(m, 1.0, (1.0, 1.0), m_max)
            res.traces.extend([tw, tc])
            res.reports.extend(reps)
            res.reports.append(V.verify_lipschitz_endpoint(m, 1.0))
            return res
        jobs.append(job)
    return jobs


def _jobs_bbm(members, opts):
    m_max = int(opts.get("m_max", 8))
    jobs = []
    for m in members:
        fid, f = m.function_id, m.f
        if "hat-multilinear" in fid and f.dims == 1:
            def job_limits(m=m):
                res = ExperimentResult()
                for theta in (1.0, 2.0):
                    res.traces.append(V.verify_limit_relations(m, 0, 1.0, theta, m_max))
                res.traces.append(V.verify_gagliardo_limit(m, 1.0, min(m_max, 6)))
                return res
            jobs.append(job_limits)
        if "hat-multilinear" in fid or (f.dims == 1 and "indicator" in fid):
            def job_sobolev(m=m):
                res = ExperimentResult()
                for alpha in (0.5, 0.75):
                    res.reports.extend(V.verify_fractional_sobolev(m, 1.0, alpha))
                return res
            jobs.append(job_sobolev)
    return jobs


def _jobs_modulus_lemmas(members, opts):
    jobs = []
    for m in members:
        def job(m=m):
            res = ExperimentResult()
            f = m.f
            for p in P_GRID:
                res.reports.extend(V.verify_modulus_lemmas(m, p, _dyadic(_max_extent(f), 16)))
                # the 1-D comparison lives on [0, 1], so its shifts are fractions of 1
                top = 1.0 if f.dims == 1 else _max_extent(f)
                res.reports.extend(V.verify_rearrangement_modulus(m, p, _dyadic(top, 8)))
            return res
        jobs.append(job)
    return jobs


def _jobs_appendix(members, opts):
    jobs = []
    for m in members:
        f = m.f
        if any(o != 0.0 for o in f.origin):
            continue
        def job(m=m, f=f):
            res = ExperimentResult()
            res.reports.extend(V.verify_box_operator(m, (1.0, 2.0), (-0.5, 0.5, 2.0)))
            if f.halfspace:
                cmin = min(f.cell_sizes)
                for p in P_GRID:
                    res.reports.extend(V.verify_axis_decrement(
                        m, p, (2.0, 4.0), (cmin, 2.0 * cmin, 4.0 * cmin)))
            return res
        jobs.append(job)
    return jobs


_JOB_BUILDERS = {
    "rearr-estimate": _jobs_rearr_estimate,
    "aniso-estimate": _jobs_aniso_estimate,
    "embedding": _jobs_embedding,
    "limit-sweep": _jobs_limit_sweep,
    "bbm": _jobs_bbm,
    "modulus-lemmas": _jobs_modulus_lemmas,
    "appendix": _jobs_appendix,
}


def run_experiment(name: str | Sequence[str], corpus, budgets: BudgetFile | None = None,
                   threads: int = 1, opts: dict | None = None) -> ExperimentResult:
    """Run one experiment, a sequence of them in order, or 'all' over a corpus.

    ``corpus`` lists (function_id, f) pairs; each is wrapped in one ``Member``
    that all jobs of the call share.  The verifiers give calibrated
    inequalities an infinite budget; with ``budgets`` given, each such report
    gets its budget from that file once the jobs are merged.
    """
    opts = opts or {}
    names = EXPERIMENTS if name == "all" else (name,) if isinstance(name, str) else tuple(name)
    for n in names:
        if n not in _JOB_BUILDERS:
            raise ParameterError(f"unknown experiment {n!r}; known: {EXPERIMENTS + ('all',)}")
    members = [Member(f, fid) for fid, f in corpus]
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
