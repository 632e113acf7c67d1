"""Seeded corpus families for the verification experiments.

Every family is a pure function of (shape, cell_sizes, seed, index), built on
``numpy.random.default_rng``, so a corpus is reproducible byte-for-byte from
its spec.  Families and their known analytic properties:

* ``indicator-box``        indicator of an axis-aligned box; every norm closed
                           form; rearrangement is again an indicator.
* ``separable-exp-staircase``  strictly decreasing separable product of
                           geometric sequences; coordinate-wise nonincreasing
                           with no ties, so level sets are unambiguous --
                           the natural input for the gauge construction.
* ``anisotropic-staircase``  coordinate-wise nonincreasing with plateaus and
                           different decay per axis; exercises tie-breaking.
* ``hat-multilinear``      product of tent functions sampled at cell centers;
                           continuous representative with finite sup-slope
                           moduli -- the input for the limit experiments.
* ``random-mdec``          iterated rearrangement of uniform noise; generic
                           coordinate-wise nonincreasing member.
* ``random-general``       sparse uniform noise; no structure at all.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .grid import GridFunction, make_grid_function
from .rearrange import iterated_rearrangement


@dataclass(frozen=True)
class CorpusSpec:
    family: str
    shape: tuple[int, ...]
    cell_sizes: tuple[float, ...]
    seed: int
    count: int = 1

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(int(s) for s in self.shape))
        object.__setattr__(self, "cell_sizes", tuple(float(c) for c in self.cell_sizes))
        if self.family not in FAMILIES:
            raise ParameterError(
                f"unknown family {self.family!r}; known: {sorted(FAMILIES)}")
        if len(self.shape) != len(self.cell_sizes):
            raise ParameterError("shape and cell_sizes must have the same length")
        if self.count < 1:
            raise ParameterError(f"count must be >= 1, got {self.count}")


def _indicator_box(rng, shape, cell_sizes):
    sides = [int(rng.integers(max(1, s // 2), s + 1)) for s in shape]
    vals = np.zeros(shape)
    vals[tuple(slice(0, m) for m in sides)] = 1.0
    return vals


def _separable_exp_staircase(rng, shape, cell_sizes):
    rates = rng.uniform(0.25, 1.1, size=len(shape))
    axes = [np.exp(-r * np.arange(s)) for r, s in zip(rates, shape)]
    vals = axes[0]
    for arr in axes[1:]:
        vals = np.multiply.outer(vals, arr)
    return vals


def _anisotropic_staircase(rng, shape, cell_sizes):
    axes = []
    for k, s in enumerate(shape):
        gammas = rng.uniform(0.4, 1.6)
        seq = (1.0 + np.arange(s)) ** -gammas
        # introduce plateaus: repeat each level for a random run length
        runs = rng.integers(1, 3, size=s)
        stretched = np.repeat(seq, runs)[:s]
        axes.append(stretched)
    vals = axes[0]
    for arr in axes[1:]:
        vals = np.multiply.outer(vals, arr)
    # quantize lightly so exact ties appear across cells
    return np.round(vals, 3)


def _hat_multilinear(rng, shape, cell_sizes):
    axes = []
    for s, c in zip(shape, cell_sizes):
        extent = s * c
        peak = float(rng.uniform(0.3, 0.7)) * extent
        x = (np.arange(s) + 0.5) * c
        up = x / peak
        down = (extent - x) / (extent - peak)
        axes.append(np.maximum(np.minimum(up, down), 0.0))
    vals = axes[0]
    for arr in axes[1:]:
        vals = np.multiply.outer(vals, arr)
    return vals


def _random_mdec(rng, shape, cell_sizes):
    raw = make_grid_function(rng.uniform(0.0, 1.0, size=shape), cell_sizes)
    return iterated_rearrangement(raw, tuple(range(len(shape)))).values


def _random_general(rng, shape, cell_sizes):
    vals = rng.uniform(0.0, 1.0, size=shape)
    mask = rng.uniform(size=shape) < 0.7
    return vals * mask


FAMILIES = {
    "indicator-box": _indicator_box,
    "separable-exp-staircase": _separable_exp_staircase,
    "anisotropic-staircase": _anisotropic_staircase,
    "hat-multilinear": _hat_multilinear,
    "random-mdec": _random_mdec,
    "random-general": _random_general,
}

# families whose members are coordinate-wise nonincreasing on the orthant
MDEC_FAMILIES = {"indicator-box", "separable-exp-staircase",
                 "anisotropic-staircase", "random-mdec"}


def generate_corpus(spec: CorpusSpec) -> list[tuple[str, GridFunction]]:
    """Deterministic (function_id, GridFunction) list for the spec."""
    build = FAMILIES[spec.family]
    out = []
    rng = np.random.default_rng(spec.seed)
    halfspace = spec.family in MDEC_FAMILIES
    for i in range(spec.count):
        vals = build(rng, spec.shape, spec.cell_sizes)
        fid = f"{spec.family}-{spec.seed}-{i}"
        out.append((fid, make_grid_function(vals, spec.cell_sizes, halfspace=halfspace)))
    return out


def corpus_hash(members) -> str:
    """Stable hash of an (id, function) corpus, for calibration pinning."""
    h = hashlib.sha256()
    for fid, f in members:
        h.update(fid.encode())
        h.update(np.asarray(f.shape, dtype=np.int64).tobytes())
        h.update(np.asarray(f.cell_sizes, dtype=np.float64).tobytes())
        h.update(np.ascontiguousarray(f.values, dtype="<f8").tobytes())
    return h.hexdigest()
