"""Chan-Chen-style multi-pass streaming baseline (Section 1.1, reference [13]).

Chan and Chen gave an ``O(r^{d-1})``-pass, ``O~(n^{1/r})``-space streaming
algorithm for low-dimensional linear programming based on deterministic
prune-and-search.  Two artefacts are provided here:

* :func:`chan_chen_pass_count` / :func:`clarkson_pass_count` — closed-form
  pass-complexity models of the two algorithms, used by the E6 benchmark to
  compare the exponential-in-``d`` behaviour of the baseline against the
  ``O(d * r)`` behaviour of the paper's algorithm (this is the comparison
  the paper itself makes; neither quantity depends on the data);

* :func:`chan_chen_2d_streaming` — a working two-dimensional multi-pass
  prune-and-search streaming LP solver in the Chan-Chen spirit: each pass
  evaluates the upper envelope of the constraint lines on a grid of
  ``O(n^{1/r})`` abscissae inside the current search interval and narrows
  the interval around the minimiser; after the interval is small enough the
  final pass collects the (few) constraints still active near the optimum
  and solves them exactly.  This gives an executable 2-d baseline whose
  pass/space trade-off can be measured alongside the randomised algorithm.

The 2-d solver expects the LP in "upper envelope" form::

    minimise  y   subject to   y >= a_j * x + b_j     for all j,

which is the form the two-curve-intersection reduction of Section 5.2
produces; general 2-d LPs can be brought to this form by standard duality
when they are bounded in the ``y`` direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.accounting import StreamingMemory
from ..core.exceptions import InvalidInstanceError
from ..core.result import ResourceUsage, SolveResult
from ..fabric.topology import StreamTopology

__all__ = [
    "chan_chen_pass_count",
    "clarkson_pass_count",
    "EnvelopeLP",
    "chan_chen_2d_streaming",
]


def chan_chen_pass_count(dimension: int, r: int) -> int:
    """Pass-complexity model ``O(r^{d-1})`` of the Chan-Chen algorithm."""
    if dimension < 1 or r < 1:
        raise ValueError("dimension and r must be >= 1")
    return int(r ** max(0, dimension - 1))


def clarkson_pass_count(dimension: int, r: int) -> int:
    """Pass-complexity model ``O(d * r)`` of the paper's algorithm.

    The constant 2 reflects the sampling + verification pass split of the
    streaming driver; the ``+ 1`` covers the final (terminating) iteration.
    """
    if dimension < 1 or r < 1:
        raise ValueError("dimension and r must be >= 1")
    return 2 * (dimension + 1) * r + 1


@dataclass(frozen=True)
class EnvelopeLP:
    """A 2-d LP in upper-envelope form: minimise the max of ``a_j x + b_j``.

    Attributes
    ----------
    slopes, intercepts:
        Coefficients of the constraint lines.
    x_low, x_high:
        Search interval known to contain the minimiser of the envelope.
    """

    slopes: np.ndarray
    intercepts: np.ndarray
    x_low: float
    x_high: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "slopes", np.asarray(self.slopes, dtype=float))
        object.__setattr__(self, "intercepts", np.asarray(self.intercepts, dtype=float))
        if self.slopes.shape != self.intercepts.shape:
            raise InvalidInstanceError("slopes and intercepts must have the same shape")
        if self.x_low >= self.x_high:
            raise InvalidInstanceError("x_low must be smaller than x_high")

    @property
    def num_constraints(self) -> int:
        return int(self.slopes.size)

    def envelope_at(self, x: float) -> float:
        """Value of the upper envelope at ``x`` (full-memory reference)."""
        return float(np.max(self.slopes * x + self.intercepts))


def chan_chen_2d_streaming(
    lp: EnvelopeLP,
    r: int = 2,
    grid_multiplier: float = 1.0,
) -> SolveResult:
    """Two-dimensional prune-and-search multi-pass streaming LP baseline.

    Parameters
    ----------
    lp:
        The envelope-form LP.
    r:
        Number of interval-narrowing passes; the grid (and hence the space)
        per pass is ``~ n^{1/r}`` points.
    grid_multiplier:
        Multiplier on the grid size (for space/pass trade-off exploration).

    Returns
    -------
    SolveResult
        ``witness`` is the minimising ``(x, y)`` pair; ``value`` is the
        envelope minimum ``y``.  ``resources`` carries passes and peak space.
    """
    n = lp.num_constraints
    if n == 0:
        raise InvalidInstanceError("the LP has no constraints")
    if r < 1:
        raise ValueError("r must be >= 1")

    stream = StreamTopology(n)
    order = stream.order().tolist()
    memory = StreamingMemory()
    grid_size = max(3, int(np.ceil(grid_multiplier * n ** (1.0 / r))) + 1)
    low, high = float(lp.x_low), float(lp.x_high)

    for _ in range(r):
        grid = np.linspace(low, high, grid_size)
        envelope = np.full(grid_size, -np.inf)
        # One pass: evaluate every line on the grid, keep the running max.
        stream.record_pass()
        for index in order:
            values = lp.slopes[index] * grid + lp.intercepts[index]
            np.maximum(envelope, values, out=envelope)
        memory.set_usage(items=2 * grid_size, bits=2 * grid_size * 64)
        best = int(np.argmin(envelope))
        # The minimiser of the convex envelope lies in the two grid cells
        # around the best grid point.
        low_index = max(0, best - 1)
        high_index = min(grid_size - 1, best + 1)
        low, high = float(grid[low_index]), float(grid[high_index])

    # Final pass: collect every constraint that could attain the envelope
    # somewhere in the final interval, then solve those exactly.  A line that
    # is maximal at some interior point is, at the left endpoint, within
    # ``2 * max_slope * span`` of the smaller endpoint envelope value, so the
    # filter below keeps a superset of the relevant lines (the extra ones
    # only cost space, which is measured honestly).
    end_values_low: list[float] = []
    end_values_high: list[float] = []
    max_abs_slope = 0.0
    stream.record_pass()
    for index in order:
        end_values_low.append(lp.slopes[index] * low + lp.intercepts[index])
        end_values_high.append(lp.slopes[index] * high + lp.intercepts[index])
        max_abs_slope = max(max_abs_slope, abs(float(lp.slopes[index])))
    env_low = max(end_values_low)
    env_high = max(end_values_high)
    span = abs(high - low)
    slack = 2.0 * max_abs_slope * span + 1e-9 * max(1.0, abs(env_low), abs(env_high)) + 1e-9
    threshold = min(env_low, env_high) - slack
    active = [
        index
        for index in range(n)
        if max(end_values_low[index], end_values_high[index]) >= threshold
    ]
    memory.set_usage(items=len(active) + 2, bits=(len(active) + 2) * 64)

    # Exact minimisation of the envelope of the active lines on [low, high]:
    # the candidate minimisers are the interval endpoints and the pairwise
    # intersections of active lines inside the interval.
    candidates = [low, high]
    active_slopes = lp.slopes[active]
    active_intercepts = lp.intercepts[active]
    for i in range(len(active)):
        for j in range(i + 1, len(active)):
            denom = active_slopes[i] - active_slopes[j]
            if abs(denom) < 1e-15:
                continue
            x_cross = (active_intercepts[j] - active_intercepts[i]) / denom
            if low - 1e-12 <= x_cross <= high + 1e-12:
                candidates.append(float(x_cross))
    best_x = None
    best_y = np.inf
    for x in candidates:
        y = float(np.max(active_slopes * x + active_intercepts))
        if y < best_y:
            best_x, best_y = float(x), y

    return SolveResult(
        value=best_y,
        witness=np.array([best_x, best_y]),
        basis_indices=tuple(active[:3]),
        iterations=r + 1,
        successful_iterations=r + 1,
        resources=ResourceUsage(
            passes=stream.passes,
            space_peak_items=memory.peak_items,
            space_peak_bits=memory.peak_bits,
        ),
        metadata={
            "algorithm": "chan_chen_2d",
            "r": r,
            "grid_size": grid_size,
            "active_constraints": len(active),
        },
    )
