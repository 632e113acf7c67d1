"""Left-continuous step functions on the positive half line.

This is the exact representation of nonincreasing rearrangements f*, of the
dyadic decrement f*(t) - f*(2t), and of anything else piecewise constant on
(0, infinity) with compact support.  The value ``values[i]`` is taken on
``(breakpoints[i-1], breakpoints[i]]`` (with breakpoints[-1] = 0) and the
function is 0 beyond the last breakpoint.  All power-weight integrals have
closed forms, so no quadrature is ever needed on these objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True, eq=False)
class StepFunction:
    breakpoints: np.ndarray  # strictly increasing, > 0
    values: np.ndarray       # nonnegative, value on (t_{i-1}, t_i]

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=np.float64)
        vals = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)
        if bp.shape != vals.shape or bp.ndim != 1:
            raise ValidationError("breakpoints and values must be 1-D arrays of equal length")
        if bp.size:
            if bp[0] <= 0 or np.any(np.diff(bp) <= 0):
                raise ValidationError("breakpoints must be strictly increasing and positive")
        if np.any(vals < 0) or not np.all(np.isfinite(vals)):
            raise ValidationError("step values must be finite and nonnegative")
        bp.flags.writeable = False
        vals.flags.writeable = False

    @property
    def is_nonincreasing(self) -> bool:
        return bool(np.all(np.diff(self.values) <= 0)) if self.values.size else True

    def __call__(self, t):
        """Left-continuous evaluation; vectorized over t."""
        t = np.asarray(t, dtype=np.float64)
        # value on (t_{i-1}, t_i] -> index of first breakpoint >= t
        idx = np.searchsorted(self.breakpoints, t, side="left")
        out = np.where(
            (t > 0) & (idx < self.breakpoints.size),
            np.concatenate([self.values, [0.0]])[np.minimum(idx, self.values.size)],
            0.0,
        )
        return out if out.ndim else float(out)

    def power_integral(self, a: float, r: float) -> float:
        """Exact ``integral t^(a-1) g(t)^r dt`` over (0, infinity).

        Returns ``inf`` when the integral diverges at 0 (a <= 0 with nonzero
        first step).
        """
        if self.values.size == 0:
            return 0.0
        left = np.concatenate([[0.0], self.breakpoints[:-1]])
        vr = self.values**r
        if a > 0:
            pieces = vr * (self.breakpoints**a - left**a) / a
            return float(np.sum(pieces))
        if self.values[0] > 0:
            return math.inf
        # first step vanishes: integrate remaining pieces, log form at a == 0
        out = 0.0
        for lo, hi, v in zip(left[1:], self.breakpoints[1:], vr[1:]):
            if v == 0.0:
                continue
            if a == 0:
                out += v * (math.log(hi) - math.log(lo))
            else:
                out += v * (hi**a - lo**a) / a
        return out

    def window_power_integral(self, a: float, b: float, r: float) -> float:
        """Exact ``integral_a^b g(t)^r dt`` for 0 <= a <= b."""
        if self.values.size == 0 or b <= a:
            return 0.0
        left = np.concatenate([[0.0], self.breakpoints[:-1]])
        lo = np.maximum(left, a)
        hi = np.minimum(self.breakpoints, b)
        lengths = np.maximum(hi - lo, 0.0)
        return float(np.sum(self.values**r * lengths))

    def weighted_sup(self, a: float) -> float:
        """Exact ``sup_t t^a g(t)`` for a >= 0 (attained at right breakpoints)."""
        if self.values.size == 0:
            return 0.0
        return float(np.max(self.values * self.breakpoints**a))


def step_from_pieces(breakpoints, values) -> StepFunction:
    """Build a StepFunction, merging equal adjacent values and trimming zero tail."""
    bp = np.asarray(breakpoints, dtype=np.float64)
    vals = np.asarray(values, dtype=np.float64)
    if bp.size == 0:
        return StepFunction(bp, vals)
    keep = np.ones(bp.size, dtype=bool)
    keep[:-1] = vals[:-1] != vals[1:]
    bp, vals = bp[keep], vals[keep]
    while vals.size and vals[-1] == 0.0:
        bp, vals = bp[:-1], vals[:-1]
    return StepFunction(bp, vals)
