"""Distribution functions, decreasing and iterated rearrangements, strictification.

Axes are 0-based throughout.  Axis rearrangements reinterpret the sorted axis
as the positive half line anchored at 0, so iterated rearrangements land on
the positive orthant (``halfspace=True``) and are nonincreasing in every
variable.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError, PreconditionError
from .grid import GridFunction
from .step import StepFunction, step_from_pieces


def distribution(f: GridFunction, y: float) -> float:
    """Distribution function: measure of {|f| > y}, exact cell counting."""
    if y < 0:
        raise ParameterError(f"y must be >= 0, got {y}")
    return int(np.count_nonzero(f.values > y)) * f.cell_volume


def decreasing_rearrangement(f: GridFunction) -> StepFunction:
    """Nonincreasing rearrangement f* as an exact step function on (0, infinity).

    Cell values are sorted descending; breakpoints sit at cumulative cell
    measures, so f* is equimeasurable with f at every level, exactly.
    """
    vals = np.sort(f.values.ravel())[::-1]
    vals = vals[vals > 0]
    if vals.size == 0:
        return StepFunction(np.empty(0), np.empty(0))
    bp = np.arange(1, vals.size + 1, dtype=np.float64) * f.cell_volume
    return step_from_pieces(bp, vals)


def axis_rearrangement(f: GridFunction, k: int) -> GridFunction:
    """Sort every 1-D section along axis k in descending order.

    The k-th axis of the result is anchored at 0 (domain reinterpreted as the
    positive half line); the output is equimeasurable with |f|.
    """
    if not 0 <= k < f.dims:
        raise ParameterError(f"axis {k} out of range for dims={f.dims}")
    out = -np.sort(-f.values, axis=k)
    origin = tuple(0.0 if j == k else o for j, o in enumerate(f.origin))
    return GridFunction(out, f.cell_sizes, origin, halfspace=True)


def iterated_rearrangement(f: GridFunction, order) -> GridFunction:
    """R_sigma: successive axis rearrangements in the order k_1, ..., k_n.

    The result is nonincreasing in every variable and equimeasurable with |f|.
    """
    order = tuple(int(k) for k in order)
    if sorted(order) != list(range(f.dims)):
        raise ParameterError(f"order {order} is not a permutation of 0..{f.dims - 1}")
    g = f
    for k in order:
        g = axis_rearrangement(g, k)
    origin = (0.0,) * f.dims
    return GridFunction(g.values, f.cell_sizes, origin, halfspace=True)


def is_mdec(f: GridFunction) -> bool:
    """True iff f is nonincreasing in each variable (class of monotone functions)."""
    for k in range(f.dims):
        if np.any(np.diff(f.values, axis=k) > 0):
            return False
    return True


def strict_order(f: GridFunction) -> np.ndarray:
    """Total order on cells: value descending, lexicographic flat index ascending.

    Returns flat cell indices; deterministic for identical input.
    """
    flat = f.values.ravel()
    return np.lexsort((np.arange(flat.size), -flat))


def strictify(f: GridFunction) -> GridFunction:
    """Perturb a monotone function into one with strictly ordered cell values.

    Jitter is deterministic (proportional to the rank in the canonical strict
    order) and smaller than half the smallest gap between the levels, 0 among
    them, so the value order of distinct cells is preserved, positive cells
    stay positive and the result stays nonincreasing in each variable.  Its
    order is ``strict_order(f)``, which level-set constructions read from f.
    """
    if not is_mdec(f):
        raise PreconditionError("strictify requires a function nonincreasing in each variable")
    order = strict_order(f)
    flat = f.values.ravel()
    ncells = flat.size
    gaps = np.diff(np.union1d(flat, 0.0))
    eta = (float(np.min(gaps)) if gaps.size else 1.0) / (2.0 * ncells + 2.0)
    out = flat.copy()
    ranks = np.empty(ncells, dtype=np.float64)
    ranks[order] = np.arange(ncells, dtype=np.float64)
    # zero cells stay at zero: they are outside the support and never enter a
    # level set at lattice measures t <= support measure
    pos = out > 0
    out[pos] -= eta * ranks[pos] / ncells
    return GridFunction(out.reshape(f.shape), f.cell_sizes, f.origin, f.halfspace)


def dyadic_decrement(sf: StepFunction) -> StepFunction:
    """Exact step function t -> sf(t) - sf(2t), breakpoints {t_i} union {t_i / 2}."""
    if not sf.is_nonincreasing:
        raise PreconditionError("dyadic decrement requires a nonincreasing step function")
    if sf.breakpoints.size == 0:
        return sf
    bp = np.unique(np.concatenate([sf.breakpoints, sf.breakpoints / 2.0]))
    vals = sf(bp) - sf(2.0 * bp)
    return step_from_pieces(bp, vals)
