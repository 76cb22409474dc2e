"""Benchmark objectives with domain metadata and known optima.

The raw functions accept a single point of shape (k,) or a batch of shape
(n, k) and reduce over the last axis; ``Objective`` wraps them with a bound
dimension, a default initialization box, and the known optimum where one is
established. All functions are pure and row-wise. ``Objective.batch``
evaluates a batch on the calling thread, in one ``fn`` call unless the batch
is a lattice chunk (below).

One rule, ``_summed_per_axis``, sends a batch of k = 2 to 7 coordinates,
of any number of rows, through ``michalewicz`` and ``sphere`` in column
layout: every step works on the k rows of ``x.T``, a view, so each numpy
call loops over the n points and none over a k-wide axis, and the sums are
``np.add.reduce`` along the layout's own axis, axis 0 of the C-ordered
(k, n) terms. That adds the k terms of a point from 0.0 in index order, the
order in which it adds a row of fewer than 8 terms along axis -1, so the
values are the row layout's, bit for bit. From 8 terms on numpy sums a row
pairwise, so wider batches keep the row layout, as do single points and
k = 1, which has no k-wide loop to save.

The same rule lets ``Objective.batch`` evaluate a lattice chunk of
``grid_search``, a run of whole rows, without computing a term per
coordinate of every node. Both functions add one term per axis that depends
only on that coordinate, so each axis's terms are computed once per search,
over all of that axis's nodes, by the helpers that the functions' own
layouts use, from strided columns as in column layout; a chunk gathers its
runs' leading terms by node index. A node's leading terms are added from
0.0 in index order and its last-axis term after them; addition is
commutative, so these are ``np.add.reduce``'s bits. Goldstein-Price, other
functions and other widths take the chunk as an ordinary batch.
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


def _summed_per_axis(k: int) -> bool:
    """Whether ``michalewicz`` and ``sphere`` add the terms of k coordinates
    per axis, in column layout and on lattice chunks (module docstring)."""
    return 1 < k < 8


def _in_columns(x: Array) -> bool:
    """Whether ``x`` is a batch to evaluate in column layout (module docstring)."""
    return x.ndim == 2 and _summed_per_axis(x.shape[1])


class _LatticeChunk(np.ndarray):
    """A read-only ``(n, k)`` float64 array of lattice nodes, as
    ``grid_search`` hands it to ``Objective.batch``. On a chunk of whole
    rows, ``index`` holds one array of node indices per leading axis, one
    entry per run: run j pairs node ``index[a][j]`` of each leading axis
    a < k - 1 with every node of the last axis, in C order. ``axes`` holds
    all k axes' nodes, each a strided column of one ``(resolution, k)``
    array, as a batch's columns are, and ``store`` is a dict of the
    ``grid_search`` call that keeps every axis's terms by terms function.
    ``Objective.batch`` sums such a chunk per axis under the one rule,
    k = 2 to 7 (``_summed_per_axis``). A piece of a row, and an array made
    from a chunk, a view or a copy, has ``index = None`` and is an
    ordinary batch."""

    index = axes = store = None


def _lattice_sum(chunk: _LatticeChunk, terms) -> Array:
    """The sums of per-axis ``terms`` at the nodes of lattice ``chunk``, of
    k = 2 to 7 axes. The first chunk of a store computes every axis's
    terms, one call per axis. A run's leading terms are gathered by node
    index and added from 0.0 in index order; each node of the run repeats
    that sum and then adds its last-axis term."""
    per_axis = chunk.store.get(terms)
    if per_axis is None:
        per_axis = chunk.store[terms] = [terms(x, float(i)) for i, x in enumerate(chunk.axes, 1)]
    lead = np.empty((len(chunk.index[0]), len(chunk.index)))
    for j, index in enumerate(chunk.index):
        lead[:, j] = per_axis[j][index]
    last = per_axis[-1]
    # Repeated, then added along each run in place: a contiguous add, where a
    # broadcast add of the runs' sums loops over a stride-0 operand per run.
    total = np.add.reduce(lead, axis=-1).repeat(len(last))
    runs = total.reshape(-1, len(last))
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
        one ``fn`` call on the calling thread. A lattice chunk of whole rows
        of ``grid_search`` for ``michalewicz`` or ``sphere`` with 2 to 7
        axes is summed from each axis's terms instead, kept in the chunk's
        ``store`` for the rest of the search, with the same bits (module
        docstring), and ``fn`` is not called."""
        chunk = points if isinstance(points, _LatticeChunk) and points.index is not None else None
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.dimension:
            raise ValueError(
                f"{self.name} expects points of shape (n, {self.dimension}), got {points.shape}")
        if chunk is not None and _summed_per_axis(self.dimension):
            for fn, terms, negate in _PER_AXIS:
                if self.fn is fn:
                    total = _lattice_sum(chunk, terms)
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
