"""Benchmark objectives with domain metadata and known optima.

The raw functions accept a single point of shape (k,) or a batch of shape
(n, k) and reduce over the last axis; ``Objective`` wraps them with a bound
dimension, a default initialization box, and the known optimum where one is
established. All functions are pure and row-wise. ``Objective.batch``
evaluates a batch on the calling thread, in one ``fn`` call unless the batch
is a lattice chunk (below).

A batch of k = 2 to 7 coordinates and at least ``_COLUMN_ROWS * k`` rows goes
through ``michalewicz`` and ``sphere`` in column layout: every step works on
the k rows of ``x.T``, a view, so each numpy call loops over the n points and
none over a k-wide axis, and the sums are ``np.add.reduce`` along the
layout's own axis, axis 0 of the C-ordered (k, n) terms. That adds the k
terms of a point from 0.0 in index order, the order in which it adds a row
of fewer than 8 terms along axis -1, so the values are the row layout's, bit
for bit. From 8 terms on numpy sums a row pairwise, so wider batches keep
the row layout, as do single points and smaller batches.

The same order lets ``Objective.batch`` evaluate a lattice chunk of
``grid_search`` without computing a term per coordinate of every node, for
the registry's ``michalewicz`` and ``sphere`` with fewer than 8 axes. Both
add one term per axis that depends only on that coordinate, so each
leading axis's terms are computed once per node of that axis in the chunk,
and the last axis's once per search, by the helpers that the functions' own
layouts use. A node's leading terms are added from 0.0 in index order and
its last-axis term after them; addition is commutative, so these are
``np.add.reduce``'s bits. Goldstein-Price, other functions and 8 or more
axes take the chunk as an ordinary batch.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import Array, _as_int

# 2-D Michalewicz optimum to full double precision (the steep-valley
# benchmark's minimum; commonly quoted rounded as -1.8013 at
# (2.20319, 1.57049)).
MICHALEWICZ_2D_ARGMIN = (2.202905513296628, 1.570796322320509)
MICHALEWICZ_2D_MIN = -1.8013034100985499

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
    m = _as_int(m, "m", 1)
    i, axis = np.arange(1, x.shape[-1] + 1, dtype=float), -1
    if _in_columns(x):
        x, i, axis = x.T, i[:, None], 0
    total = np.add.reduce(_michalewicz_terms(x, i, m), axis=axis)
    # Negated in place unless a single point's sum is a numpy scalar: a new
    # array would raise the peak memory of a large batch.
    return np.negative(total, out=total) if total.ndim else -total


def _michalewicz_terms(x: Array, i, m: int = 10) -> Array:
    """The terms sin(x) * sin(i * x^2 / pi)^(2m) of ``x`` as a new C-ordered
    array, ``i`` the 1-based axis indices broadcast against ``x``."""
    # Two buffers, with the power by left-to-right binary exponentiation:
    # after the leading 1 of 2m, each bit squares p and a 1 bit then
    # multiplies it by t (m = 10: t^2, t^4, t^5, t^10, t^20). Every step is a
    # correctly rounded multiplication, so the bits, unlike those of numpy's
    # power loop, do not depend on the CPU.
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
    return t


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
        return np.add.reduce(_sphere_terms(x.T), axis=0)
    return np.add.reduce(_sphere_terms(x), axis=-1)


def _sphere_terms(x: Array, i=None) -> Array:
    """The squares of ``x`` as a new C-ordered array; ``i``, the axis indices
    that ``_michalewicz_terms`` takes, plays no part."""
    return np.multiply(x, x, order="C")


def _in_columns(x: Array) -> bool:
    """Whether ``x`` is a batch to evaluate in column layout (module docstring)."""
    return x.ndim == 2 and 1 < x.shape[1] < 8 and len(x) >= _COLUMN_ROWS * x.shape[1]


class _LatticeChunk(np.ndarray):
    """A read-only ``(n, k)`` float64 array of lattice nodes, as
    ``grid_search`` hands it to ``Objective.batch``: ``rows`` runs of
    n / rows nodes in C order, each run one node of the first k - 1 axes
    paired with the same n / rows nodes of the last axis. ``store`` is a
    dict that keeps the last axis's terms by terms function. One
    ``grid_search`` call shares it between its chunks when they are runs of
    whole rows, which all hold the same last-axis nodes, and gives each
    chunk its own when they are pieces of one row. An array made from a
    chunk, a view or a copy, has ``rows = None`` and is an ordinary batch."""

    rows = None
    store = None


def _lattice_sum(points: Array, rows: int, terms, store: dict) -> Array:
    """The sums of per-axis ``terms`` at the nodes of a lattice chunk of
    ``rows`` runs. The leading axes' terms are computed once per node the
    chunk holds, the last axis's only when ``store`` lacks them. A node's sum
    repeats the sum of its run's leading terms, added from 0.0 in index
    order, and then adds its last-axis term."""
    k = points.shape[1]
    i = np.arange(1, k + 1, dtype=float)
    block = points.reshape(rows, -1, k)
    last = store.get(terms)
    if last is None:
        last = store[terms] = terms(block[0, :, -1], i[-1])
    lead = np.add.reduce(terms(block[:, 0, :-1], i[:-1]), axis=-1)
    # Repeated, then added along each run in place: a contiguous add, where
    # lead[:, None] + last loops over a stride-0 operand once per run.
    total = np.repeat(lead, block.shape[1])
    runs = total.reshape(rows, -1)
    runs += last
    return total


# Registry functions that add one term per axis: (function, its terms, whether
# the sum is negated).
_PER_AXIS = ((michalewicz, _michalewicz_terms, True), (sphere, _sphere_terms, False))


@dataclass(frozen=True, eq=False)
class Objective:
    """A benchmark function bound to a concrete dimension.

    ``fn`` is batch-capable (maps (..., k) to (...)) and row-wise: row i's
    value depends only on row i, whatever the other rows. Calling the
    objective evaluates a single point and returns a builtin float;
    ``batch`` maps an (n, k) array of points to an (n,) array of values; on
    a lattice chunk of ``grid_search`` it sums the per-axis terms of
    ``michalewicz`` and ``sphere`` in place of calling ``fn``. ``fn`` must
    not write into its points: the engine and ``grid_search`` pass
    read-only views, and a write raises ``ValueError``.
    ``init_box`` is the default box, from ``lookup_objective`` a read-only
    ``(k, 2)`` float64 array. Objectives compare and hash by identity.
    """

    name: str
    dimension: int
    fn: Callable[[Array], float | Array]
    init_box: Array
    known_optimum: Optional[tuple] = None  # ((coords...), value)

    def __call__(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise ValueError(
                f"{self.name} expects a point of shape ({self.dimension},), got {x.shape}")
        return float(self.fn(x))

    def batch(self, points) -> Array:
        """The ``(n,)`` float64 values of an ``(n, k)`` array of points, from
        one ``fn`` call on the calling thread. A lattice chunk of
        ``grid_search`` for ``michalewicz`` or ``sphere`` with fewer than 8
        axes is summed from each axis's terms instead, the last axis's kept
        in the chunk's ``store``, with the same bits (module docstring), and
        ``fn`` is not called."""
        chunk = points if isinstance(points, _LatticeChunk) and points.rows else None
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.dimension:
            raise ValueError(
                f"{self.name} expects points of shape (n, {self.dimension}), got {points.shape}")
        if chunk is not None and self.dimension < 8:
            for fn, terms, negate in _PER_AXIS:
                if self.fn is fn:
                    total = _lattice_sum(points, chunk.rows, terms, chunk.store)
                    return np.negative(total, out=total) if negate else total
        return np.asarray(self.fn(points), dtype=float)


# name -> (function, fixed dimension or None for any k >= 1, (lo, hi) of every
# axis of the default box, known optimum at dimension k or None).
_REGISTRY = {
    "michalewicz": (michalewicz, None, (0.0, np.pi),
                    lambda k: (MICHALEWICZ_2D_ARGMIN, MICHALEWICZ_2D_MIN) if k == 2 else None),
    "goldstein_price": (goldstein_price, 2, (-2.0, 2.0), lambda k: ((0.0, -1.0), 3.0)),
    "sphere": (sphere, None, (-1.0, 1.0), lambda k: ((0.0,) * k, 0.0)),
}


def objective_names() -> tuple:
    return tuple(sorted(_REGISTRY))


def lookup_objective(name: str, dimension: int) -> Objective:
    """Resolve a registered objective at the requested dimension. A
    ``ValueError`` begins with the parameter at fault: objective or dimension."""
    if name not in _REGISTRY:
        raise ValueError(
            f"objective {name!r} is unknown; valid names: {', '.join(objective_names())}")
    fn, fixed_dim, axis, optimum = _REGISTRY[name]
    dimension = _as_int(dimension, "dimension", 1, sys.maxsize)
    if fixed_dim is not None and dimension != fixed_dim:
        raise ValueError(f"dimension must be {fixed_dim} for {name}, got {dimension}")
    return Objective(name=name, dimension=dimension, fn=fn,
                     init_box=np.broadcast_to(axis, (dimension, 2)),
                     known_optimum=optimum(dimension))
