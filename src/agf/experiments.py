"""Experiment definitions: corpus wiring, parameter grids, deterministic runs.

Each experiment expands to an ordered list of independent jobs (one per
function x verifier x coarse parameter block).  Jobs may execute on a thread
pool, but results are merged in submission order and rows are sorted before
emission, so the output is byte-identical for any thread count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import verify as V
from .calibration import BudgetFile
from .corpus import CorpusSpec, generate_corpus
from .errors import ParameterError
from .geometry import build_gauge
from .grid import GridFunction
from .moduli import modulus_curve
from .verify import InequalityReport, LimitTrace

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

def _jobs_rearr_estimate(corpus, opts):
    jobs = []
    for fid, f in corpus:
        def job(fid=fid, f=f):
            res = ExperimentResult()
            for p in P_GRID:
                curves = [modulus_curve(f, k, p) for k in range(f.dims)]
                sums = V.decrement_sums(f, p)
                for d in _dyadic(_max_extent(f), 5):
                    res.reports.append(V.verify_isotropic_estimate(
                        f, p, d, fid, curves=curves, sums=sums))
            return res
        jobs.append(job)
    return jobs


def _jobs_aniso_estimate(corpus, opts):
    jobs = []
    for fid, f in corpus:
        if f.dims < 2:
            continue
        def job(fid=fid, f=f):
            res = ExperimentResult()
            # both orders share the p = 1 curves of f
            curves = [modulus_curve(f, k, 1.0) for k in range(f.dims)] if f.dims == 2 else None
            for order in (tuple(range(f.dims)), tuple(reversed(range(f.dims)))):
                gauge = build_gauge(f, order)
                res.reports.extend(V.verify_gauge_product(f, order, gauge, fid))
                if f.dims == 2:
                    hs = _dyadic(_max_extent(f), 6)
                    res.reports.extend(V.verify_anisotropic_estimate(
                        f, 1.0, order, hs, gauge, fid, curves=curves))
                for i, t in enumerate(gauge.t_values):
                    for j in range(f.dims):
                        res.gauge_rows.append((
                            fid, "".join(str(k) for k in order), float(t), j,
                            float(gauge.mu[i, j]), float(gauge.u[i, j]),
                            float(gauge.shell_counts[i, j + 1] * gauge.cell_volume),
                            float(gauge.projection_counts[i, j] * gauge.cell_volume
                                  / f.cell_sizes[j]),
                        ))
            return res
        jobs.append(job)
    return jobs


def _jobs_embedding(corpus, opts):
    from .norms import derive_params
    explore = bool(opts.get("explore_open_case"))
    jobs = []
    for fid, f in corpus:
        if f.dims != 2:
            continue
        for p, beta_js, theta_js in EMBEDDING_POINTS:
            def job(fid=fid, f=f, p=p, beta_js=beta_js, theta_js=theta_js):
                res = ExperimentResult()
                params = derive_params(p, beta_js, theta_js, f.dims)
                curves = [modulus_curve(f, k, p) for k in range(f.dims)]
                res.reports.extend(V.verify_embedding(
                    f, params, "lorentz",
                    function_id=fid, explore_open_case=explore, curves=curves))
                res.reports.extend(V.verify_embedding(
                    f, params, "mixed", order=(0, 1),
                    function_id=fid, explore_open_case=explore, curves=curves))
                return res
            jobs.append(job)
    return jobs


def _jobs_limit_sweep(corpus, opts):
    m_max = int(opts.get("m_max", 8))
    jobs = []
    for fid, f in corpus:
        if f.dims != 2 or "hat-multilinear" not in fid:
            continue
        def job(fid=fid, f=f):
            res = ExperimentResult()
            tw, tc, reps = V.limiting_sweep(f, 1.0, (1.0, 1.0), m_max, fid)
            res.traces.extend([tw, tc])
            res.reports.extend(reps)
            res.reports.append(V.verify_lipschitz_endpoint(f, 1.0, fid))
            return res
        jobs.append(job)
    return jobs


def _jobs_bbm(corpus, opts):
    m_max = int(opts.get("m_max", 8))
    jobs = []
    for fid, f in corpus:
        if "hat-multilinear" in fid and f.dims == 1:
            def job_limits(fid=fid, f=f):
                res = ExperimentResult()
                for theta in (1.0, 2.0):
                    res.traces.append(V.verify_limit_relations(f, 0, 1.0, theta, m_max, fid))
                res.traces.append(V.verify_gagliardo_limit(f, 1.0, min(m_max, 6), fid))
                return res
            jobs.append(job_limits)
        if "hat-multilinear" in fid or (f.dims == 1 and "indicator" in fid):
            def job_sobolev(fid=fid, f=f):
                res = ExperimentResult()
                for alpha in (0.5, 0.75):
                    res.reports.extend(V.verify_fractional_sobolev(f, 1.0, alpha, fid))
                return res
            jobs.append(job_sobolev)
    return jobs


def _jobs_modulus_lemmas(corpus, opts):
    jobs = []
    for fid, f in corpus:
        def job(fid=fid, f=f):
            res = ExperimentResult()
            for p in P_GRID:
                res.reports.extend(V.verify_modulus_lemmas(
                    f, p, _dyadic(_max_extent(f), 16), fid))
                # the 1-D comparison lives on [0, 1], so its shifts are fractions of 1
                top = 1.0 if f.dims == 1 else _max_extent(f)
                res.reports.extend(V.verify_rearrangement_modulus(
                    f, p, _dyadic(top, 8), function_id=fid))
            return res
        jobs.append(job)
    return jobs


def _jobs_appendix(corpus, opts):
    jobs = []
    for fid, f in corpus:
        if any(o != 0.0 for o in f.origin):
            continue
        def job(fid=fid, f=f):
            res = ExperimentResult()
            res.reports.extend(V.verify_box_operator(f, (1.0, 2.0), (-0.5, 0.5, 2.0), fid))
            if f.halfspace:
                cmin = min(f.cell_sizes)
                for p in P_GRID:
                    res.reports.extend(V.verify_axis_decrement(
                        f, p, (2.0, 4.0), (cmin, 2.0 * cmin, 4.0 * cmin), fid))
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


def run_experiment(name: str, corpus, budgets: BudgetFile | None = None,
                   threads: int = 1, opts: dict | None = None) -> ExperimentResult:
    """Run one experiment (or 'all') over a corpus; deterministic merge order.

    The verifiers give calibrated inequalities an infinite budget; with
    ``budgets`` given, each such report gets its budget from that file once
    the jobs are merged.
    """
    opts = opts or {}
    names = EXPERIMENTS if name == "all" else (name,)
    for n in names:
        if n not in _JOB_BUILDERS:
            raise ParameterError(f"unknown experiment {n!r}; known: {EXPERIMENTS + ('all',)}")
    jobs = []
    for n in names:
        jobs.extend(_JOB_BUILDERS[n](corpus, opts))
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
