"""Brute-force references for validating the search and its objectives.

``grid_search`` exhaustively evaluates an axis-aligned lattice and is the
ground truth the test suite checks objectives and thresholds against.
``random_search_baseline`` spends a fixed evaluation budget on uniform
samples; it exists so "the beetle beats blind sampling at equal budget" is
a checkable statement rather than a slogan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Array, _as_box
from .objectives import Objective

_CHUNK = 1 << 16


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned lattice: per-axis (lo, hi) bounds and points per axis."""

    box: tuple
    resolution: int
    max_nodes: int = 10 ** 8  # runtime guard for resolution ** k

    def __post_init__(self):
        object.__setattr__(self, "box", _as_box(self.box, None, "box"))
        if self.resolution < 2:
            raise ValueError(f"resolution must be >= 2, got {self.resolution}")
        if self.max_nodes < 1:
            raise ValueError(f"max_nodes must be >= 1, got {self.max_nodes}")
        if self.n_nodes > self.max_nodes:
            raise ValueError(
                f"grid of {self.n_nodes} nodes exceeds the cap of {self.max_nodes}")
        width = np.diff(np.asarray(self.box), axis=1)
        with np.errstate(over="ignore"):
            overflows = not np.all(np.isfinite((self.resolution - 1) * width))
        if overflows:
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
    ``ValueError(nowhere)`` when no value is finite."""
    best_point, best_value = None, np.inf
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for points in chunks:
            values = objective.batch(points)
            i = int(np.argmin(values))
            if not np.isfinite(values[i]):
                # A non-finite value is an overflow in the objective, never a
                # minimum, and a NaN would hide the rest from argmin.
                values = np.where(np.isfinite(values), values, np.inf)
                i = int(np.argmin(values))
            if values[i] < best_value:
                best_point, best_value = points[i].copy(), float(values[i])
    if best_point is None:
        raise ValueError(nowhere)
    return best_point, best_value


def grid_search(objective: Objective, grid: GridSpec) -> tuple[Array, float]:
    """Minimize over every lattice node; ties go to the lexicographically
    smallest coordinates."""
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
                block[..., -1] = axes[-1][col:col + n_col]
                for j, index in enumerate(lead):
                    block[..., j] = axes[j][index, None]
                yield points

    return _minimum(objective, chunks(), "objective is not finite at any grid node")


def random_search_baseline(objective: Objective, box, n_evals: int,
                           rng: np.random.Generator) -> tuple[Array, float]:
    """Best of ``n_evals`` uniform samples in ``box``; ties go to the
    earliest sample."""
    box = np.asarray(_as_box(box, objective.dimension, "box"), dtype=float)
    if n_evals < 1:
        raise ValueError(f"n_evals must be >= 1, got {n_evals}")
    draws = (rng.uniform(box[:, 0], box[:, 1], size=(min(_CHUNK, n_evals - start), len(box)))
             for start in range(0, n_evals, _CHUNK))
    return _minimum(objective, draws, "objective is not finite at any sample")
