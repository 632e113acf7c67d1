"""The benchmark's workloads: how each builds its corpus and runs its passes.

A round is one calibration pass then one verification pass.  ``corpus``
drives the command line in-process; ``scale`` and ``limits`` build a seeded
corpus and drive the library and the CLI report writers, because the command
line only knows the committed corpus.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

PINNED_SEED = 20240901      # the seed calibration/budgets.json is pinned to
LIMITS_M_MAX = 12           # dyadic depth of the beta -> 1 sweeps, past the default 8

LIMITS_EXPERIMENTS = ("limit-sweep", "bbm")


def import_agf():
    """Import agf from this checkout's sources, never from an installed copy."""
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    agf = importlib.import_module("agf")
    importlib.import_module("agf.cli")
    if not os.path.abspath(agf.__file__).startswith(SRC + os.sep):
        raise ImportError(f"agf imported from {agf.__file__}, not from {SRC}")
    return agf


def scale_specs(CorpusSpec, seed):
    """Larger grids: 1-D of a few hundred cells, 2-D up to 48^2, one 3-D member."""
    return [
        CorpusSpec("random-mdec", (192,), (1 / 192,), seed + 1),
        CorpusSpec("random-general", (128,), (1 / 128,), seed + 2),
        CorpusSpec("random-mdec", (48, 48), (1 / 48, 1 / 48), seed + 3),
        CorpusSpec("random-general", (40, 40), (1 / 40, 1 / 40), seed + 4),
        CorpusSpec("separable-exp-staircase", (40, 32), (0.125, 0.25), seed + 5),
        CorpusSpec("random-mdec", (5, 5, 4), (0.5, 0.5, 0.5), seed + 6),
    ]


def limits_specs(CorpusSpec, seed):
    """Fine hat functions, the inputs of the beta -> 1 and BBM limits."""
    return [
        CorpusSpec("hat-multilinear", (1024,), (1 / 1024,), seed + 1),
        CorpusSpec("hat-multilinear", (32, 32), (1 / 32, 1 / 32), seed + 2),
        CorpusSpec("hat-multilinear", (64, 64), (1 / 64, 1 / 64), seed + 3),
    ]


class Workload:
    """One workload: its set-up and its two kinds of pass over one corpus."""

    m_max = None
    experiments = ("all",)

    def __init__(self, agf, seed, rundir):
        self.agf = agf
        self.seed = seed
        self.out = os.path.join(rundir, "out")
        self.budget_path = os.path.join(rundir, "budgets.json")
        self.members = []

    def output_files(self):
        return sorted(os.path.join(self.out, n) for n in os.listdir(self.out))


class CorpusWorkload(Workload):
    """The committed corpus, driven through the command line in-process."""

    committed = os.path.join(ROOT, "calibration", "budgets.json")

    def setup(self):
        agf = self.agf
        self.members = agf.default_corpus(PINNED_SEED)
        agf.load_budgets(self.committed).check_corpus(agf.corpus_hash(self.members))

    def _cli(self, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.agf.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"agf {' '.join(argv)} exited {code}")

    def calibrate_pass(self):
        self._cli(["calibrate", "--budget", self.budget_path, "--force",
                   "--seed", str(PINNED_SEED), "--threads", "1"])

    def run_pass(self):
        self._cli(["run", "all", "--out", self.out, "--budget", self.committed,
                   "--seed", str(PINNED_SEED), "--threads", "1"])


class LibraryWorkload(Workload):
    """A seeded corpus driven through the library and the CLI report writers."""

    specs = None
    budgeted = None             # None: the experiments `agf calibrate` runs

    def setup(self):
        agf = self.agf
        self.members = []
        for spec in self.specs(agf.CorpusSpec, self.seed):
            self.members.extend(agf.generate_corpus(spec))

    @property
    def opts(self):
        return {"m_max": self.m_max} if self.m_max else {}

    def calibrate_pass(self):
        agf = self.agf
        result = agf.experiments.ExperimentResult()
        for name in self.budgeted or agf.cli._BUDGET_EXPERIMENTS:
            result.extend(agf.run_experiment(name, self.members, budgets=None,
                                             threads=1, opts=self.opts))
        bf = agf.calibrate_from_reports(result.reports, agf.corpus_hash(self.members))
        agf.save_budgets(bf, self.budget_path, force=True)

    def run_pass(self):
        agf = self.agf
        budgets = agf.load_budgets(self.budget_path)
        budgets.check_corpus(agf.corpus_hash(self.members))
        result = agf.experiments.ExperimentResult()
        for name in self.experiments:
            result.extend(agf.run_experiment(name, self.members, budgets=budgets,
                                             threads=1, opts=self.opts))
        agf.cli._emit(self.out, result)


class ScaleWorkload(LibraryWorkload):
    specs = staticmethod(scale_specs)


class LimitsWorkload(LibraryWorkload):
    specs = staticmethod(limits_specs)
    budgeted = LIMITS_EXPERIMENTS
    experiments = LIMITS_EXPERIMENTS
    m_max = LIMITS_M_MAX


WORKLOADS = {"corpus": CorpusWorkload, "scale": ScaleWorkload, "limits": LimitsWorkload}
