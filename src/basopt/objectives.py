"""Benchmark objectives with domain metadata and known optima.

The raw functions accept a single point of shape (k,) or a batch of shape
(n, k) and reduce over the last axis; ``Objective`` wraps them with a bound
dimension, a default initialization box, and the known optimum where one is
established. All functions are pure and row-wise. ``Objective.batch`` splits
a large batch of an objective that gains from it into contiguous row ranges
evaluated on the usable CPUs.

A batch of k = 2 to 7 coordinates and at least ``_COLUMN_ROWS * k`` rows goes
through ``michalewicz`` and ``sphere`` in column layout: every step works on
the k rows of ``x.T``, a view, so each numpy call loops over the n points and
none over a k-wide axis, and the row sums become a left-to-right fold of the
columns from 0.0. That is the order in which ``np.add.reduce`` adds a row of
fewer than 8 terms, so the values are the row layout's, bit for bit. From 8
terms on numpy sums pairwise, so wider batches keep the row layout, as do
single points and smaller batches.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

Array = np.ndarray

# 2-D Michalewicz optimum to full double precision (the steep-valley
# benchmark's minimum; commonly quoted rounded as -1.8013 at
# (2.20319, 1.57049)).
MICHALEWICZ_2D_ARGMIN = (2.202905513296628, 1.570796322320509)
MICHALEWICZ_2D_MIN = -1.8013034100985499

# Elements (rows * k) per range of a split Michalewicz batch. Starting and
# joining a thread costs about 0.15 ms, and up to 0.7 ms when the host is
# busy. On a 2-CPU VM (numpy 2.4), two ranges of 2^15 elements take
# 0.58-0.72x the serial 3.4 ms for 2-D Michalewicz; two ranges of 2^14 would
# take 0.80-1.15x. Cheaper objectives split from larger batches (``_REGISTRY``).
_MIN_PART = 1 << 15

# Rows per coordinate from which a batch of k = 2 to 7 coordinates is
# evaluated in column layout. Its numpy calls cost more to start: on a 2-CPU
# VM (numpy 2.4) a 1-row 2-D Michalewicz call takes 19 us in columns against
# 15 us in rows, and a 100-iteration single-trial `run` (1- and 2-row
# batches) 7-14% more. The layouts break even at about 180 rows for k = 2,
# 240 for k = 3 and 500-1000 for k = 7. At 32768 rows columns take 0.79x the
# time for 2-D Michalewicz, 0.86x for 3-D and 0.13x for 2-D sphere. With
# k = 1 there is no k-wide loop to save, and columns only cost.
_COLUMN_ROWS = 100


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
    columns = _in_columns(x)
    if columns:
        x, i = x.T, i[:, None]
    # -sum(sin(x) * sin(i * x * x / pi) ** (2m)) in two buffers, with the power
    # by left-to-right binary exponentiation: after the leading 1 of 2m, each
    # bit squares p and a 1 bit then multiplies it by t (m = 10: t^2, t^4,
    # t^5, t^10, t^20). Every step is a correctly rounded multiplication, so
    # the bits, unlike those of numpy's power loop, do not depend on the CPU.
    t = np.multiply(i, x, order="C")
    t *= x
    t /= np.pi
    np.sin(t, out=t)
    p = t * t
    for j, bit in enumerate(bin(2 * m)[3:]):
        if j:
            p *= p
        if bit == "1":
            p *= t
    np.sin(x, out=t)
    t *= p
    if columns:
        total = _column_sums(t)
        return np.negative(total, out=total)
    return -np.add.reduce(t, axis=-1)


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
    if _in_columns(x):
        return _column_sums(np.multiply(x.T, x.T, order="C"))
    return np.add.reduce(x * x, axis=-1)


def _in_columns(x: Array) -> bool:
    """Whether ``x`` is a batch to evaluate in column layout (module docstring)."""
    return x.ndim == 2 and 1 < x.shape[1] < 8 and len(x) >= _COLUMN_ROWS * x.shape[1]


def _column_sums(terms: Array) -> Array:
    """The sums of the columns of a (k, n) array with k < 8, each added from
    0.0 down the rows: ``np.add.reduce(terms.T, axis=-1)``, bit for bit."""
    total = terms[0] + 0.0
    for row in terms[1:]:
        total += row
    return total


@dataclass(frozen=True)
class Objective:
    """A benchmark function bound to a concrete dimension.

    ``fn`` is batch-capable (maps (..., k) to (...)) and row-wise: row i's
    value depends only on row i, whatever the other rows. It must be safe to
    call from several threads at once. Calling the objective evaluates a
    single point and returns a builtin float; ``batch`` maps an (n, k) array
    of points to an (n,) array of values. A batch of at least ``split_from``
    elements (``n * k``) is cut into contiguous row ranges, at
    most one per usable CPU and per ``split_from / 2`` elements, and ``fn``
    runs on each range in a thread of its own; by the contract above the
    values are those of one ``fn`` call, bit for bit.
    """

    name: str
    dimension: int
    fn: Callable[[Array], float | Array]
    init_box: tuple
    known_optimum: Optional[tuple] = None  # ((coords...), value)
    split_from: int = 2 * _MIN_PART

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
        parts = 1
        if points.size >= self.split_from:
            parts = min(2 * points.size // self.split_from, len(points), _usable_cpus())
        if parts < 2:
            return np.asarray(self.fn(points), dtype=float)
        return _split_batch(self.fn, points, parts)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _split_batch(fn, points: Array, parts: int) -> Array:
    """``fn`` on ``parts`` contiguous row ranges of ``points``, the first on
    this thread and each other one on a thread of its own, concatenated in
    order. Every thread has finished before this returns or raises the first
    failing range's exception."""
    edges = [len(points) * j // parts for j in range(parts + 1)]
    values, errors = [None] * parts, [None] * parts
    # A new thread starts from numpy's default error state, not the caller's.
    state = dict(np.geterr(), call=np.geterrcall())

    def evaluate(j):
        try:
            with np.errstate(**state):
                values[j] = np.asarray(fn(points[edges[j]:edges[j + 1]]), dtype=float)
        except BaseException as err:  # re-raised on the calling thread below
            errors[j] = err

    threads = [threading.Thread(target=evaluate, args=(j,)) for j in range(1, parts)]
    for thread in threads:
        thread.start()
    evaluate(0)
    for thread in threads:
        thread.join()
    for err in errors:
        if err is not None:
            raise err
    return np.concatenate(values)


# name -> (function, fixed dimension or None for any k >= 1, (lo, hi) of every
# axis of the default box, known optimum at dimension k or None, elements from
# which a batch splits across CPUs). The cheaper an element, the larger a
# batch must be before two threads beat one. On a 2-CPU VM (numpy 2.4), split
# in two, Goldstein-Price takes 1.06-1.08x its serial time at 2^16 elements
# and 0.73-0.91x at 2^17. Sphere, a thirtieth of Michalewicz's cost per
# element in column layout, takes 2.0-2.3x at 2^17 elements (2-D), about 1.0x
# at 2^19 (2-D) and 0.84x at 3 * 2^18 (3-D); in row layout (k >= 8) 1.13x at
# 10 * 2^14 and 0.67-0.74x from 10 * 2^15 (10-D).
_REGISTRY = {
    "michalewicz": (michalewicz, None, (0.0, np.pi),
                    lambda k: (MICHALEWICZ_2D_ARGMIN, MICHALEWICZ_2D_MIN) if k == 2 else None,
                    2 * _MIN_PART),
    "goldstein_price": (goldstein_price, 2, (-2.0, 2.0), lambda k: ((0.0, -1.0), 3.0),
                        1 << 17),
    "sphere": (sphere, None, (-1.0, 1.0), lambda k: ((0.0,) * k, 0.0), 1 << 19),
}


def objective_names() -> tuple:
    return tuple(sorted(_REGISTRY))


def lookup_objective(name: str, dimension: int) -> Objective:
    """Resolve a registered objective at the requested dimension."""
    if name not in _REGISTRY:
        raise ValueError(
            f"unknown objective {name!r}; valid names: {', '.join(objective_names())}")
    fn, fixed_dim, axis, optimum, split_from = _REGISTRY[name]
    if dimension < 1:
        raise ValueError(f"dimension must be >= 1, got {dimension}")
    if fixed_dim is not None and dimension != fixed_dim:
        raise ValueError(
            f"{name} is defined for dimension {fixed_dim} only, got {dimension}")
    return Objective(name=name, dimension=dimension, fn=fn, init_box=(axis,) * dimension,
                     known_optimum=optimum(dimension), split_from=split_from)
