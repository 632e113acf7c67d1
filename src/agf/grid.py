"""Canonical data model for discretized functions.

A GridFunction is a nonnegative piecewise-constant representative on a
uniform n-dimensional grid, extended by zero outside the grid.  All measure
bookkeeping is exact: every set measure is an integer multiple of the cell
volume, and all norms are computed in a fixed deterministic summation order
(C order of the value array), so results are bit-reproducible.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, ValidationError

_MAGIC = b"AGF1"


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Nonnegative sampled function on a uniform grid.

    ``values[i1, ..., in]`` is the constant value on the cell
    ``origin + [i*c, (i+1)*c)`` per axis.  ``halfspace`` marks functions
    living on the positive orthant (outputs of axis rearrangements); for
    those, shift-difference norms never count mass crossing a coordinate
    hyperplane.
    """

    values: np.ndarray
    cell_sizes: tuple[float, ...]
    origin: tuple[float, ...]
    halfspace: bool = False

    def __post_init__(self):
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "cell_sizes", tuple(float(c) for c in self.cell_sizes))
        object.__setattr__(self, "origin", tuple(float(o) for o in self.origin))
        if vals.ndim != len(self.cell_sizes) or vals.ndim != len(self.origin):
            raise ValidationError(
                f"dimension mismatch: values.ndim={vals.ndim}, "
                f"{len(self.cell_sizes)} cell sizes, {len(self.origin)} origin coords"
            )
        if not np.all(np.isfinite(vals)):
            raise ValidationError("values must be finite")
        if np.any(vals < 0):
            raise ValidationError("values must be nonnegative")
        if any(c <= 0 for c in self.cell_sizes):
            raise ValidationError("cell sizes must be positive")
        self.values.flags.writeable = False

    @property
    def dims(self) -> int:
        return self.values.ndim

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def cell_volume(self) -> float:
        v = 1.0
        for c in self.cell_sizes:
            v *= c
        return v

    @property
    def support_cells(self) -> int:
        return int(np.count_nonzero(self.values))

    @property
    def support_measure(self) -> float:
        return self.support_cells * self.cell_volume

    @property
    def extent(self) -> tuple[float, ...]:
        return tuple(s * c for s, c in zip(self.shape, self.cell_sizes))

    def with_values(self, values: np.ndarray, halfspace: bool | None = None) -> "GridFunction":
        hs = self.halfspace if halfspace is None else halfspace
        return GridFunction(values, self.cell_sizes, self.origin, hs)


def make_grid_function(values, cell_sizes, origin=None, halfspace: bool = False) -> GridFunction:
    """Validate and build a GridFunction; origin defaults to 0."""
    values = np.asarray(values, dtype=np.float64)
    cell_sizes = tuple(float(c) for c in np.atleast_1d(cell_sizes))
    if origin is None:
        origin = (0.0,) * values.ndim
    return GridFunction(values, cell_sizes, tuple(float(o) for o in np.atleast_1d(origin)), halfspace)


def lp_norm(f: GridFunction, p: float) -> float:
    """L^p norm of the piecewise-constant representative, (sum |v|^p * cellvol)^(1/p).

    Summation runs over the flat C-ordered value array, so the result is
    deterministic and permutation-invariant up to float accumulation.
    """
    if not p >= 1:
        raise ParameterError(f"p must be >= 1, got {p}")
    acc = float(np.sum(f.values.ravel() ** p, dtype=np.float64))
    return (acc * f.cell_volume) ** (1.0 / p)


# --- serialization -----------------------------------------------------------

def save_agf(f: GridFunction, path) -> None:
    """Flat binary container: magic, n, shape, cell_sizes, origin, row-major values."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<q", f.dims))
        fh.write(struct.pack(f"<{f.dims}q", *f.shape))
        fh.write(struct.pack(f"<{f.dims}d", *f.cell_sizes))
        fh.write(struct.pack(f"<{f.dims}d", *f.origin))
        fh.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes())


def load_agf(path) -> GridFunction:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValidationError(f"bad magic {magic!r}, expected {_MAGIC!r}")
        (n,) = struct.unpack("<q", fh.read(8))
        shape = struct.unpack(f"<{n}q", fh.read(8 * n))
        cell_sizes = struct.unpack(f"<{n}d", fh.read(8 * n))
        origin = struct.unpack(f"<{n}d", fh.read(8 * n))
        count = int(np.prod(shape))
        values = np.frombuffer(fh.read(8 * count), dtype="<f8").reshape(shape)
    return GridFunction(values.astype(np.float64), cell_sizes, origin)


def load_cells_csv(path, shape, cell_sizes, origin=None) -> GridFunction:
    """Plain-text import for small hand-written cases: rows are (i1, ..., in, value)."""
    values = np.zeros(shape, dtype=np.float64)
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].lstrip().startswith("#"):
                continue
            *idx, val = row
            values[tuple(int(i) for i in idx)] = float(val)
    return make_grid_function(values, cell_sizes, origin)
