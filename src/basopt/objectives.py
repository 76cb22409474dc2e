"""Benchmark objectives with domain metadata and known optima.

The raw functions accept a single point of shape (k,) or a batch of shape
(n, k) and reduce over the last axis; ``Objective`` wraps them with a bound
dimension, a default initialization box, and the known optimum where one is
established. All functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

Array = np.ndarray

# 2-D Michalewicz optimum to full double precision (the steep-valley
# benchmark's minimum; commonly quoted rounded as -1.8013 at
# (2.20319, 1.57049)).
MICHALEWICZ_2D_ARGMIN = (2.202905513296628, 1.570796322320509)
MICHALEWICZ_2D_MIN = -1.8013034100985499


def michalewicz(x, m: int = 10) -> float | Array:
    """Michalewicz function: -sum_i sin(x_i) * sin(i * x_i^2 / pi)^(2m).

    The index i is 1-based. Larger steepness ``m`` narrows the valleys;
    m=10 is the standard setting. On [0, pi]^k the value lies in [-k, 0],
    with 2-D minimum ~= -1.8013 at ~(2.2029, 1.5708).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] < 1:
        raise ValueError("michalewicz needs at least one coordinate")
    if m < 1:
        raise ValueError(f"steepness m must be >= 1, got {m}")
    i = np.arange(1, x.shape[-1] + 1, dtype=float)
    # -sum(sin(x) * sin(i * x * x / pi) ** (2m)) operation for operation, in
    # place in two buffers: the bits are those of the plain expression.
    t = i * x
    t *= x
    t /= np.pi
    np.sin(t, out=t)
    t **= 2 * m
    s = np.sin(x)
    s *= t
    return -np.add.reduce(s, axis=-1)


def goldstein_price(x) -> float | Array:
    """Goldstein-Price function (2-D only); global minimum 3 at (0, -1)."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != 2:
        raise ValueError(f"goldstein_price is defined for dimension 2 only, got shape {x.shape}")
    x1, x2 = x[..., 0], x[..., 1]
    # Squares spelled as products: scalar and batch evaluation then share the
    # exact same IEEE operation sequence, so results agree bitwise.
    s = x1 + x2 + 1.0
    a = 1.0 + s * s * (
        19.0 - 14.0 * x1 + 3.0 * x1 * x1 - 14.0 * x2 + 6.0 * x1 * x2 + 3.0 * x2 * x2)
    t = 2.0 * x1 - 3.0 * x2
    b = 30.0 + t * t * (
        18.0 - 32.0 * x1 + 12.0 * x1 * x1 + 48.0 * x2 - 36.0 * x1 * x2 + 27.0 * x2 * x2)
    return a * b


def sphere(x) -> float | Array:
    """Sum of squares; smoke-test bowl with minimum 0 at the origin."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] < 1:
        raise ValueError("sphere needs at least one coordinate")
    return np.add.reduce(x * x, axis=-1)


@dataclass(frozen=True)
class Objective:
    """A benchmark function bound to a concrete dimension.

    ``fn`` is batch-capable (maps (..., k) to (...)). Calling the objective
    evaluates a single point and returns a builtin float; ``batch`` maps an
    (n, k) array of points to an (n,) array of values.
    """

    name: str
    dimension: int
    fn: Callable[[Array], float | Array]
    init_box: tuple
    known_optimum: Optional[tuple] = None  # ((coords...), value)

    def __call__(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise ValueError(
                f"{self.name} expects a point of shape ({self.dimension},), got {x.shape}")
        return float(self.fn(x))

    def batch(self, points) -> Array:
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.dimension:
            raise ValueError(
                f"{self.name} expects points of shape (n, {self.dimension}), got {points.shape}")
        return np.asarray(self.fn(points), dtype=float)


# name -> (function, fixed dimension or None for any k >= 1, (lo, hi) of every
# axis of the default box, known optimum at dimension k or None)
_REGISTRY = {
    "michalewicz": (michalewicz, None, (0.0, np.pi),
                    lambda k: (MICHALEWICZ_2D_ARGMIN, MICHALEWICZ_2D_MIN) if k == 2 else None),
    "goldstein_price": (goldstein_price, 2, (-2.0, 2.0), lambda k: ((0.0, -1.0), 3.0)),
    "sphere": (sphere, None, (-1.0, 1.0), lambda k: ((0.0,) * k, 0.0)),
}


def objective_names() -> tuple:
    return tuple(sorted(_REGISTRY))


def lookup_objective(name: str, dimension: int) -> Objective:
    """Resolve a registered objective at the requested dimension."""
    if name not in _REGISTRY:
        raise ValueError(
            f"unknown objective {name!r}; valid names: {', '.join(objective_names())}")
    fn, fixed_dim, axis, optimum = _REGISTRY[name]
    if dimension < 1:
        raise ValueError(f"dimension must be >= 1, got {dimension}")
    if fixed_dim is not None and dimension != fixed_dim:
        raise ValueError(
            f"{name} is defined for dimension {fixed_dim} only, got {dimension}")
    return Objective(name=name, dimension=dimension, fn=fn, init_box=(axis,) * dimension,
                     known_optimum=optimum(dimension))
