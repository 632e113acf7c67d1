"""Outside-in span tracer for the agf layers.

The tracer replaces public functions of the agf modules with wrappers that
record one span per call: name, start, end, parent span and pass id.  Spans
stay in memory until the run ends.  Because agf modules import functions by
name (``from .moduli import partial_modulus``), every module binding that
holds the original function object is rebound, not just the defining one.

Single-threaded use only: the parent of a span is the innermost open span,
kept on one stack.  The benchmark always drives agf with one thread.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import time

# layer module -> public functions whose calls are timed
LAYERS = {
    "moduli": ("modulus_curve", "partial_modulus", "shift_difference_norm",
               "shift_norm_integral", "steklov_derivative_norm", "steklov_distance"),
    "geometry": ("build_gauge", "minimal_projection_chain", "projection_profile",
                 "box_average_on_grid", "cumulative_integral"),
    "verify": ("verify_isotropic_estimate", "verify_anisotropic_estimate",
               "verify_gauge_product", "verify_embedding", "verify_lipschitz_endpoint",
               "limiting_sweep", "verify_limit_relations", "verify_gagliardo_limit",
               "verify_fractional_sobolev", "verify_rearrangement_modulus",
               "verify_modulus_lemmas", "verify_box_operator", "verify_axis_decrement",
               "box_operator_weighted_integral"),
    "norms": ("gagliardo_seminorm", "besov_seminorm", "lipschitz_seminorm",
              "lorentz_norm", "mixed_lorentz_norm"),
    "rearrange": ("decreasing_rearrangement", "iterated_rearrangement", "dyadic_decrement"),
}
# functions whose inclusive time is reported as one item each
EMIT_FUNCTIONS = ("write_reports_csv", "write_traces_csv", "write_gauge_csv", "summarize")
SETUP_FUNCTIONS = (("corpus", "generate_corpus"), ("calibration", "load_budgets"))
SETUP_PASS = 0      # pass id of the set-up; the passes of the rounds count from 1
EXPERIMENTS = ("rearr-estimate", "aniso-estimate", "embedding", "limit-sweep",
               "bbm", "modulus-lemmas", "appendix")


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in output order."""
    names = []
    for mod, fns in LAYERS.items():
        for fn in fns:
            names += [f"{mod}.{fn}.calls", f"{mod}.{fn}.self_s"]
        names.append(f"{mod}.self_s")
    names += ["moduli.distinct_inputs", "moduli.reuse"]
    names += [f"experiments.{e}_s" for e in EXPERIMENTS] + ["experiments.jobs"]
    names += ["cli.emit_s", "corpus.generate_corpus_s", "calibration.load_s",
              "trace.overhead_s"]
    return names


def metric_unit(name: str) -> str:
    if name.endswith((".calls", ".jobs", ".distinct_inputs")):
        return "count"
    return "ratio" if name.endswith(".reuse") else "s"


class Tracer:
    """In-memory span recorder.  A span is [name, start, end, parent, pass_id]."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.pass_id = 0
        self.moduli_inputs: set = set()
        self._restore: list[tuple] = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.pass_id]
            spans.append(rec)
            stack.append(sid)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
        return traced

    def _rebind(self, package, orig, new) -> None:
        """Point every binding of ``orig`` in the package's modules at ``new``."""
        prefix = package.__name__
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == prefix or modname.startswith(prefix + ".")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._restore.append((mod, attr, orig))
                    setattr(mod, attr, new)

    def install(self, package) -> None:
        """Wrap the layer functions of an imported agf package."""
        mods = {name: sys.modules[f"{package.__name__}.{name}"]
                for name in ("moduli", "geometry", "verify", "norms", "rearrange",
                             "experiments", "cli", "corpus", "calibration")}
        for layer, fns in LAYERS.items():
            for fn in fns:
                orig = getattr(mods[layer], fn)
                self._rebind(package, orig, self.wrap(f"{layer}.{fn}", orig))
        for fn in EMIT_FUNCTIONS:
            orig = getattr(mods["cli"], fn)
            self._rebind(package, orig, self.wrap(f"cli.{fn}", orig))
        for layer, fn in SETUP_FUNCTIONS:
            orig = getattr(mods[layer], fn)
            self._rebind(package, orig, self.wrap(f"{layer}.{fn}", orig))
        # one span per experiment job: the job builders are the only place
        # where a job is still tied to its experiment name
        builders = getattr(mods["experiments"], "_JOB_BUILDERS", None)
        if builders is None:
            print("perfbench: experiments._JOB_BUILDERS not found; "
                  "per-experiment times read 0", file=sys.stderr)
            return
        for exp, build in list(builders.items()):
            self._restore.append((builders, exp, build))
            builders[exp] = self._job_builder(exp, build)

    def _job_builder(self, exp, build):
        def traced_build(*args, **kwargs):
            return [self.wrap(f"experiments.{exp}", job) for job in build(*args, **kwargs)]
        return traced_build

    def install_input_counter(self, package) -> None:
        """Wrap the moduli functions so that each call records its input.

        Hashing the input costs more than many of the calls it describes, so
        these wrappers record no spans and go on untimed rounds only.
        """
        moduli = sys.modules[f"{package.__name__}.moduli"]
        for fn in LAYERS["moduli"]:
            orig = getattr(moduli, fn)
            self._rebind(package, orig, self._counted(orig))

    def _counted(self, fn):
        """``fn``, recording the (function, axis, p) input of each call."""
        sig = inspect.signature(fn)
        axis = "k" if "k" in sig.parameters else "j"
        inputs = self.moduli_inputs

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            bound = sig.bind(*args, **kwargs).arguments
            f = bound["f"]
            digest = hashlib.blake2b(f.values.tobytes(), digest_size=16)
            digest.update(repr((f.shape, f.cell_sizes, f.halfspace)).encode())
            inputs.add((digest.digest(), int(bound[axis]), float(bound["p"])))
            return fn(*args, **kwargs)
        return counted

    def uninstall(self) -> None:
        for target, key, orig in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = orig
            else:
                setattr(target, key, orig)
        self._restore.clear()

    def self_times(self) -> list[float]:
        """Duration of each span minus the durations of its direct children."""
        own = [rec[2] - rec[1] for rec in self.spans]
        for rec, dur in zip(self.spans, list(own)):
            if rec[3] >= 0:
                own[rec[3]] -= dur
        return own

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("span,name,start,end,parent,pass\n")
            for sid, (name, start, end, parent, pid) in enumerate(self.spans):
                fh.write(f"{sid},{name},{start!r},{end!r},{parent},{pid}\n")


def layer_metrics(tracer: Tracer, round_passes) -> dict[str, float]:
    """Per-layer metrics, per traced round; the two set-up items from the set-up.

    ``round_passes`` lists the pass ids of each traced round.
    """
    nrounds = len(round_passes)
    in_round = {pid for pids in round_passes for pid in pids}
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    incl: dict[str, float] = {}
    setup_incl: dict[str, float] = {}
    for rec, own in zip(tracer.spans, tracer.self_times()):
        name, start, end, _parent, pid = rec
        if pid == SETUP_PASS:
            setup_incl[name] = setup_incl.get(name, 0.0) + (end - start)
        if pid not in in_round:
            continue
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        incl[name] = incl.get(name, 0.0) + (end - start)
    out: dict[str, float] = {}
    for mod, fns in LAYERS.items():
        total = 0.0
        for fn in fns:
            key = f"{mod}.{fn}"
            out[f"{key}.calls"] = calls.get(key, 0) / nrounds
            out[f"{key}.self_s"] = self_s.get(key, 0.0) / nrounds
            total += self_s.get(key, 0.0)
        out[f"{mod}.self_s"] = total / nrounds
    moduli_calls = sum(calls.get(f"moduli.{fn}", 0) for fn in LAYERS["moduli"])
    out["moduli.distinct_inputs"] = len(tracer.moduli_inputs)
    per_round = moduli_calls / nrounds
    out["moduli.reuse"] = len(tracer.moduli_inputs) / per_round if per_round else 0.0
    for exp in EXPERIMENTS:
        out[f"experiments.{exp}_s"] = incl.get(f"experiments.{exp}", 0.0) / nrounds
    out["experiments.jobs"] = sum(calls.get(f"experiments.{e}", 0) for e in EXPERIMENTS) / nrounds
    out["cli.emit_s"] = sum(incl.get(f"cli.{fn}", 0.0) for fn in EMIT_FUNCTIONS) / nrounds
    out["corpus.generate_corpus_s"] = setup_incl.get("corpus.generate_corpus", 0.0)
    out["calibration.load_s"] = setup_incl.get("calibration.load_budgets", 0.0)
    return out
