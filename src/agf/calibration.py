"""Frozen empirical budgets for the "there exists a constant" inequalities.

``verify.INEQUALITIES`` declares the tier of every inequality.  Hard constants
stated by the estimates themselves come from that table and never appear
here.  Every calibrated inequality gets a budget equal to a margin (default
2x) times the maximum ratio observed on a pinned corpus; the corpus hash is
stored so a stale budget file is a hard error rather than a silently wrong
baseline.  ``run_experiment(..., budgets=)`` applies the file to the reports.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

from .errors import ValidationError
from .verify import INEQUALITIES, InequalityReport

DEFAULT_MARGIN = 2.0


@dataclass(frozen=True)
class BudgetFile:
    corpus_hash: str
    margin: float
    max_ratios: dict[str, float] = field(default_factory=dict)
    budgets: dict[str, float] = field(default_factory=dict)

    def budget_for(self, inequality_id: str) -> float:
        try:
            return self.budgets[inequality_id]
        except KeyError:
            raise ValidationError(
                f"no calibrated budget for {inequality_id!r}; recalibrate") from None

    def check_corpus(self, corpus_hash: str) -> None:
        if corpus_hash != self.corpus_hash:
            raise ValidationError(
                "corpus hash mismatch: budgets were calibrated for "
                f"{self.corpus_hash[:12]}..., current corpus is {corpus_hash[:12]}...; "
                "rerun calibration")


def calibrate_from_reports(reports: list[InequalityReport], corpus_hash: str,
                           margin: float = DEFAULT_MARGIN) -> BudgetFile:
    """Fold verifier reports into per-inequality budgets (margin x max ratio).

    Inequalities with a hard constant in ``INEQUALITIES`` are skipped;
    degenerate and infinite-ratio reports do not contribute.  A margin that
    is not finite and > 0 raises ``ValidationError``.
    """
    if not (math.isfinite(margin) and margin > 0):
        raise ValidationError(f"calibration margin must be finite and > 0, got {margin!r}")
    max_ratios: dict[str, float] = {}
    for rep in reports:
        if INEQUALITIES.get(rep.inequality_id) is not None or rep.degenerate:
            continue
        r = rep.ratio
        if not math.isfinite(r):
            continue
        prev = max_ratios.get(rep.inequality_id, 0.0)
        if r > prev:
            max_ratios[rep.inequality_id] = r
    budgets = {k: margin * v for k, v in max_ratios.items()}
    if any(v <= 0 for v in budgets.values()):
        bad = [k for k, v in budgets.items() if v <= 0]
        raise ValidationError(f"calibration produced non-positive budgets for {bad}")
    return BudgetFile(corpus_hash, margin, max_ratios, budgets)


def _check_budget_path(path, force: bool) -> None:
    """Raise ``ValidationError`` unless a budget file can be written at path:
    its directory exists, path is not a directory, and force is set if it exists."""
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise ValidationError(f"budget directory {folder} does not exist")
    if os.path.isdir(path):
        raise ValidationError(f"budget path {path} is a directory")
    if os.path.exists(path) and not force:
        raise ValidationError(f"budget file {path} exists; pass force to overwrite")


def save_budgets(bf: BudgetFile, path, force: bool = False) -> None:
    _check_budget_path(path, force)
    payload = {
        "corpus_hash": bf.corpus_hash,
        "margin": bf.margin,
        "max_ratios": {k: bf.max_ratios[k] for k in sorted(bf.max_ratios)},
        "budgets": {k: bf.budgets[k] for k in sorted(bf.budgets)},
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_budgets(path) -> BudgetFile:
    """The budget file at path.

    A directory, a file that is not JSON, a JSON value that is not an object,
    a missing key, or a margin, max ratio or budget that is not a finite
    number is a ``ValidationError`` naming the path.
    """
    if os.path.isdir(path):
        raise ValidationError(f"budget file {path} is a directory")
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ValidationError(f"budget file {path} is not JSON: {exc}") from None

    def number(value, name):
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            raise ValidationError(f"malformed budget file {path}: {name} is not a finite number")
        return float(value)

    def table(name):
        if not isinstance(payload[name], dict):
            raise ValidationError(f"malformed budget file {path}: {name} is not an object")
        return {k: number(v, f"{name}[{k!r}]") for k, v in payload[name].items()}

    if not isinstance(payload, dict):
        raise ValidationError(f"malformed budget file {path}: not a JSON object")
    try:
        return BudgetFile(payload["corpus_hash"], number(payload["margin"], "margin"),
                          table("max_ratios"), table("budgets"))
    except KeyError as exc:
        raise ValidationError(f"malformed budget file {path}: missing {exc}") from None
