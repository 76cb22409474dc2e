"""Brute-force references for validating the search and its objectives.

``grid_search`` exhaustively evaluates an axis-aligned lattice and is the
ground truth the test suite checks objectives and thresholds against.
``random_search_baseline`` spends a fixed evaluation budget on uniform
samples; it exists so "the beetle beats blind sampling at equal budget" is
a checkable statement rather than a slogan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Array, _as_box, _as_int
from .objectives import Objective, _LatticeChunk

_CHUNK = 1 << 15
_MAX_NODES = 10 ** 8  # largest lattice a GridSpec accepts: a guard for resolution ** k


@dataclass(frozen=True, eq=False)
class GridSpec:
    """Axis-aligned lattice: per-axis (lo, hi) bounds, a read-only float64 copy,
    and an integer number of points per axis. Compared by identity."""

    box: Array
    resolution: int

    def __post_init__(self):
        object.__setattr__(self, "box", _as_box(self.box, None, "box"))
        object.__setattr__(self, "resolution", _as_int(self.resolution, "resolution", 2))
        if self.n_nodes > _MAX_NODES:
            raise ValueError(f"grid of {self.n_nodes} nodes exceeds the cap of {_MAX_NODES}")
        with np.errstate(over="ignore"):
            span = (self.resolution - 1) * np.diff(self.box, axis=1)
        if not np.all(np.isfinite(span)):
            raise ValueError("box (resolution - 1) * (hi - lo) overflows on some axis")

    @property
    def dimension(self) -> int:
        return len(self.box)

    @property
    def n_nodes(self) -> int:
        return self.resolution ** self.dimension


def _axis(lo: float, hi: float, resolution: int) -> Array:
    # (i * span) / steps keeps rational nodes exact: e.g. [-2, 2] at
    # resolution 401 contains 0.0 and -1.0 bit-exactly.
    nodes = lo + (np.arange(resolution) * (hi - lo)) / (resolution - 1)
    nodes[-1] = hi
    return nodes


def _minimum(objective: Objective, chunks, nowhere: str) -> tuple[Array, float]:
    """The first smallest finite value of ``objective`` over the points of
    ``chunks``, an iterable of ``(n, k)`` arrays, and a copy of its point;
    ``ValueError(nowhere)`` when no value is finite. One chunk is in flight:
    each chunk and its values are freed before the next chunk is asked for,
    so the next chunk and its values can reuse their memory."""
    best_point, best_value = None, np.inf
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for points in chunks:
            values = objective.batch(points)
            i = values.argmin()
            if not math.isfinite(values[i]):
                # A non-finite value is an overflow in the objective, never a
                # minimum, and a NaN would hide the rest from argmin.
                values = np.where(np.isfinite(values), values, np.inf)
                i = values.argmin()
            if values[i] < best_value:
                best_point, best_value = np.array(points[i]), float(values[i])
            del points, values
    if best_point is None:
        raise ValueError(nowhere)
    return best_point, best_value


def grid_search(objective: Objective, grid: GridSpec) -> tuple[Array, float]:
    """Minimize over every lattice node; ties go to the lexicographically
    smallest coordinates. Every node goes once through ``objective.batch``,
    in C-order chunks that are read-only ``_LatticeChunk`` views of one
    buffer. On chunks of whole rows of 2 to 7 axes, ``michalewicz`` and
    ``sphere`` compute each axis's terms once per call and gather them by
    node index, with the bits of a plain batch; a 1-D grid and the pieces
    of a row longer than ``_CHUNK`` are plain batches. Nothing is kept
    between calls. The point returned is a plain ``np.ndarray``."""
    if grid.dimension != objective.dimension:
        raise ValueError(
            f"grid has {grid.dimension} axes but {objective.name} expects {objective.dimension}")

    r, k = grid.resolution, grid.dimension
    axes = [_axis(lo, hi, r) for lo, hi in grid.box]
    n_rows = grid.n_nodes // r
    # A chunk is a run of whole rows along the last axis, or one piece of a
    # row longer than _CHUNK, written into one buffer reused by every chunk.
    rows, width = (_CHUNK // r, r) if r <= _CHUNK else (1, _CHUNK)
    buf = np.empty((min(rows, n_rows) * width, k))
    # Runs of whole rows share the last axis's column, written once, and the
    # per-axis sums' terms, kept in a store of this call.
    whole, store = width == r, {}
    if whole:
        buf.reshape(-1, r, k)[..., -1] = axes[-1]
    # Every axis's nodes as strided columns of one (r, k) array, the layout
    # of a batch's columns, for the per-axis terms.
    all_axes = tuple(np.stack(axes, axis=-1).T)

    def chunks():
        # Nodes in C order = lexicographic coordinate order, so the first
        # occurrence of the minimum is the lexicographic tie-winner.
        for row in range(0, n_rows, rows):
            n_run = min(rows, n_rows - row)
            lead = np.unravel_index(np.arange(row, row + n_run), (r,) * (k - 1)) if k > 1 else ()
            for col in range(0, r, width):
                n_col = min(width, r - col)
                points = buf[:n_run * n_col]
                block = points.reshape(n_run, n_col, k)
                if not whole:
                    block[..., -1] = axes[-1][col:col + n_col]
                for j, index in enumerate(lead):
                    block[..., j] = axes[j][index, None]
                chunk = points.view(_LatticeChunk)
                chunk.flags.writeable = False
                if whole:
                    chunk.index, chunk.axes, chunk.store = lead, all_axes, store
                yield chunk

    return _minimum(objective, chunks(), "objective is not finite at any grid node")


def random_search_baseline(objective: Objective, box, n_evals: int,
                           rng: np.random.Generator) -> tuple[Array, float]:
    """Best of ``n_evals`` uniform samples in ``box``; ties go to the
    earliest sample."""
    box = _as_box(box, objective.dimension, "box")
    n_evals = _as_int(n_evals, "n_evals", 1)
    draws = (rng.uniform(box[:, 0], box[:, 1], size=(min(_CHUNK, n_evals - start), len(box)))
             for start in range(0, n_evals, _CHUNK))
    return _minimum(objective, draws, "objective is not finite at any sample")
