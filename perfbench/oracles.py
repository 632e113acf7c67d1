"""Checks of agf outputs, computed apart from the program with plain numpy.

Every check returns a list of problems; an empty list means the output
passed.  Nothing here compares against a saved copy of earlier output: each
expected value is derived from the inputs or from the paper's statements.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

REL_TOL = 1e-9      # the slack the verdicts grant a hard constant
NUM_RTOL = 1e-10    # closed forms against brute-force sums
MARGIN = 2.0        # calibration margin: budget = margin x max observed ratio

# constants of the inequalities whose statements fix them: id -> (n, params) -> constant
HARD_CONSTANTS = {
    "rearrangement-modulus-1d": lambda n, prm: 2.0,
    "rearrangement-modulus-axes": lambda n, prm: 3.0**n,
    "modulus-mean-bound": lambda n, prm: 3.0,
    "steklov-distance": lambda n, prm: 1.0,
    "steklov-derivative": lambda n, prm: 1.0,
    "box-operator-pointwise": lambda n, prm: 1.0,
    "box-operator-weight": lambda n, prm: 2.0 ** (max(1.0, prm["a"]) * n),
    "axis-decrement": lambda n, prm: 4.0 * prm["mu"],
    "gauge-product": lambda n, prm: 1.0,
    "embedding-dyadic-step": lambda n, prm: 1.0,
}
BOX_WEIGHTED_PER_MEMBER = 6   # r in {1, 2} times a in {-1/2, 1/2, 2}


def _ratio(lhs: float, rhs: float) -> float:
    if lhs == 0.0:
        return 0.0
    return math.inf if rhs == 0.0 else lhs / rhs


def read_reports(path) -> list[dict]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        row["params"] = json.loads(row["params_json"])
        for key in ("lhs", "rhs", "ratio", "budget"):
            row[key] = float(row[key])
    return rows


def read_traces(path) -> dict[tuple[str, str, float], list[tuple[float, float]]]:
    """(trace_id, function_id, target) -> [(param_value, value)] in parameter order.

    One function can carry several traces of one id (one per theta); each
    trace has its own target, which tells them apart.
    """
    out: dict = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            key = (row["trace_id"], row["function_id"], float(row["target"]))
            out.setdefault(key, []).append((float(row["param_value"]), float(row["value"])))
    return {k: sorted(v) for k, v in out.items()}


def report_problems(rows, dims: dict[str, int]) -> list[str]:
    """Ratio column consistent with lhs/rhs; hard constants as stated, never failing."""
    bad = []
    for row in rows:
        iid, fid = row["inequality_id"], row["function_id"]
        ratio = _ratio(row["lhs"], row["rhs"])
        if ratio != row["ratio"]:
            bad.append(f"{iid} {fid}: ratio column {row['ratio']!r} != lhs/rhs {ratio!r}")
        if iid not in HARD_CONSTANTS:
            continue
        const = HARD_CONSTANTS[iid](dims[fid], row["params"])
        if row["budget"] != const:
            bad.append(f"{iid} {fid}: budget {row['budget']!r}, stated constant {const!r}")
        if row["verdict"] == "fail" or (row["verdict"] != "degenerate"
                                        and ratio > const * (1.0 + REL_TOL)):
            bad.append(f"{iid} {fid} {row['params_json']}: ratio {ratio!r} > {const!r}")
    return bad


def is_nonincreasing(values: np.ndarray) -> bool:
    return all(not np.any(np.diff(values, axis=k) > 0) for k in range(values.ndim))


def box_operator_drops(rows, members) -> tuple[int, list[str]]:
    """Box-operator checks expected but missing from the reports.

    Expected per member anchored at the origin: 6 weighted checks, plus one
    pointwise check when the member is nonzero and coordinate-wise
    nonincreasing.  Returns (number dropped, problems).
    """
    seen: dict[tuple[str, str], int] = {}
    for row in rows:
        if row["inequality_id"].startswith("box-operator-"):
            key = (row["inequality_id"], row["function_id"])
            seen[key] = seen.get(key, 0) + 1
    dropped, bad = 0, []
    for fid, f in members:
        if any(o != 0.0 for o in f.origin):
            continue
        pointwise = int(bool(np.any(f.values > 0)) and is_nonincreasing(f.values))
        for iid, want in (("box-operator-weight", BOX_WEIGHTED_PER_MEMBER),
                          ("box-operator-pointwise", pointwise)):
            got = seen.pop((iid, fid), 0)
            if got > want:
                bad.append(f"{iid} {fid}: {got} checks, expected {want}")
            dropped += max(want - got, 0)
    bad += [f"{iid} {fid}: unexpected box-operator checks" for iid, fid in seen]
    return dropped, bad


def budget_problems(rows, payload: dict) -> list[str]:
    """Each calibrated budget is the margin times the largest finite ratio."""
    worst: dict[str, float] = {}
    for row in rows:
        iid = row["inequality_id"]
        if iid in HARD_CONSTANTS or row["verdict"] == "degenerate":
            continue
        ratio = _ratio(row["lhs"], row["rhs"])
        if math.isfinite(ratio) and ratio > worst.get(iid, 0.0):
            worst[iid] = ratio
    want = {iid: MARGIN * r for iid, r in worst.items()}
    bad = []
    if payload.get("margin") != MARGIN:
        bad.append(f"budget file margin {payload.get('margin')!r} != {MARGIN!r}")
    if payload.get("budgets") != want:
        bad.append(f"budgets {payload.get('budgets')} != recomputed {want}")
    return bad


def _shrinks(gaps: list[float]) -> bool:
    half = len(gaps) // 2
    early, late = gaps[:half], gaps[half:]
    return bool(early) and max(late) <= min(early) and max(late) < max(early)


def trace_problems(traces, m_max: int) -> list[str]:
    """The beta -> 1 limits: gaps shrink with m; the weighted sweep stays
    within a fixed factor of its first value while the control grows."""
    bad = []
    for (tid, fid, target), pts in sorted(traces.items()):
        values = [v for _, v in pts]
        gaps = [abs(v / target - 1.0) if target else (0.0 if v == 0.0 else math.inf)
                for v in values]
        if tid in ("besov-limit", "gagliardo-limit"):
            if not _shrinks(gaps) or gaps[-1] >= 0.1:
                bad.append(f"{tid} {fid}: gaps do not shrink with m: {gaps}")
        elif tid == "limit-sweep-weighted":
            v0 = values[0]
            if len(values) != m_max or not all(v0 / 4.0 <= v <= 2.0 * v0 for v in values):
                bad.append(f"{tid} {fid}: leaves [v0/4, 2 v0]: {values}")
        elif tid == "limit-sweep-control":
            if len(values) != m_max or values[-1] < 5.0 * values[0]:
                bad.append(f"{tid} {fid}: control does not grow: {values}")
    return bad


# --- sampled members -------------------------------------------------------------

def rearrangement_problems(values: np.ndarray, cell_volume: float,
                           breakpoints: np.ndarray, steps: np.ndarray) -> list[str]:
    """f* as a step function must repeat exactly the sorted positive cell values."""
    widths = np.diff(np.concatenate([[0.0], breakpoints])) / cell_volume
    counts = np.rint(widths)
    if np.any(np.abs(widths - counts) > 1e-9 * np.maximum(counts, 1.0)):
        return ["f* step widths are not whole cells"]
    rebuilt = np.repeat(steps, counts.astype(np.int64))
    want = np.sort(values[values > 0].ravel())[::-1]
    if rebuilt.shape != want.shape or np.any(rebuilt != want):
        return ["f* does not reproduce the sorted cell values"]
    return []


def lp_norm(values: np.ndarray, cell_volume: float, p: float) -> float:
    return float(np.sum(values**p) * cell_volume) ** (1.0 / p)


def shift_norm(values: np.ndarray, cell_volume: float, halfspace: bool,
               k: int, j: int, p: float) -> float:
    """||f(. + j c_k e_k) - f||_p on the zero-extended grid, by padding and shifting.

    On the orthant only base points x >= 0 count.
    """
    a = np.moveaxis(values, k, 0)
    n = a.shape[0]
    z = np.zeros((n + 2 * j,) + a.shape[1:])
    z[j:j + n] = a
    d = z[j:] - z[:-j]          # d[i] = f(x + h) - f(x) for x in padded cell i
    if halfspace:
        d = d[j:]
    return float(np.sum(np.abs(d) ** p) * cell_volume) ** (1.0 / p)


def close(got: float, want: float) -> bool:
    return abs(got - want) <= NUM_RTOL * max(abs(want), 1e-300)


def member_problems(agf, fid, f) -> list[str]:
    """Own-numpy checks of the rearrangement, Lorentz norm and shift norms of f."""
    bad = []
    sf = agf.decreasing_rearrangement(f)
    bad += [f"{fid}: {m}" for m in rearrangement_problems(
        f.values, f.cell_volume, sf.breakpoints, sf.values)]
    for p in (1.0, 2.0):
        got, want = agf.lorentz_norm(sf, p, p), lp_norm(f.values, f.cell_volume, p)
        if not close(got, want):
            bad.append(f"{fid}: lorentz_norm(f*, {p}, {p}) = {got!r}, ||f||_{p} = {want!r}")
        for k in range(f.dims):
            n, c = f.shape[k], f.cell_sizes[k]
            curve = agf.modulus_curve(f, k, p)
            for j in sorted({1, 2, max(n // 2, 1), n, n + 1}):
                want = shift_norm(f.values, f.cell_volume, f.halfspace, k, j, p)
                got = agf.shift_difference_norm(f, k, j * c, p)
                if not close(got, want):
                    bad.append(f"{fid}: shift norm axis {k} shift {j} p {p}: "
                               f"{got!r} != {want!r}")
                if curve(j * c) < want * (1.0 - NUM_RTOL):
                    bad.append(f"{fid}: modulus {curve(j * c)!r} below shift norm {want!r}")
    return bad
