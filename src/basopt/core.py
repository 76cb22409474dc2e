"""Single-beetle antennae search, a derivative-free global minimizer.

One agent holds a position ``x`` in R^k. Each iteration it draws a random
unit direction ``b``, smells the objective at the two antenna tips
``x + d*b`` and ``x - d*b``, and steps (length ``delta``) toward the tip
with the lower value. The antenna length ``d`` and the step size ``delta``
shrink over time according to configurable decay schedules, so the search
explores widely at first and settles later.

Everything is driven by an explicit ``numpy.random.Generator``; a run is a
pure function of its config (including the seed), which the test suite
exploits for bit-exact reproducibility checks.

``bas_iterate`` is the single-step reference. ``run_trials`` is the engine
that executes searches: it moves a block of independent beetles in lockstep
as one ``(n, k)`` array and reproduces the reference bit for bit (each
trial keeps its own generator and the same arithmetic). One
``Objective.batch`` call takes the start points with the first antenna
tips, then one call per iteration takes the new positions with the next
tips, or, where a beetle may stop early, one the tips and one the positions.
The block's state is held compacted to its running beetles, so a step works
on dense arrays; the arrays shrink, and a stopped beetle's result is set
aside, only on an iteration where some beetle stops or fails.
A block takes as many consecutive trials as fit a 1 MiB budget for their
direction chunks, antenna tips and, for the recorded trials (a leading
count), their full history, allocated one chunk of rows at first and
doubled only while the search runs on. Neither the block partition nor the
chunk length enters any trial's arithmetic. ``run`` is its single-trial case.

A block's per-trial set-up is done for the block at once: the generators'
``SeedSequence`` hashes on uint32 arrays (``_seed_states``, also behind a
campaign's ``derive_trial_seeds``), or ``default_rng`` itself for a block
that holds a seed of 2^64 or more, then each generator fills its row of
start points and, per chunk, its slice of directions with
``random(out=...)``, and array expressions over the block scale them.
``default_rng``, ``derive_trial_seed``, ``init_position`` and
``sample_direction`` are the references these reproduce bit for bit.

A seed, of a search or of a campaign, is a non-negative integer: an ``int``
or an ``np.integer``. ``BasConfig``, ``run_trials`` and ``derive_trial_seeds``
refuse anything else with a ``ValueError`` that begins with ``seed``, and
results carry each seed as a Python ``int``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

Array = np.ndarray
ObjectiveFn = Callable[[Array], float]

# Termination reasons reported in RunResult.
TERM_MAX_ITERS = "max_iters"
TERM_TARGET = "target_reached"
TERM_STALLED = "stalled"

_MIN_DIRECTION_NORM = 1e-12

# Bytes of direction, antenna-tip and history arrays per lockstep block in
# ``run_trials``; bounds the engine's working set.
_BLOCK_BYTES = 1 << 20
# Iterations of directions drawn per generator call in ``run_trials``.
_DIRECTION_CHUNK = 100
# Bytes of squared components that ``sample_directions`` holds at once.
_SQUARES_BYTES = 1 << 16


class ObjectiveError(RuntimeError):
    """Raised when an objective evaluation produces a non-finite value."""

    def __init__(self, value: float, x: Array, iteration: Optional[int] = None,
                 trial: Optional[int] = None, seed: Optional[int] = None):
        self.value = value
        self.x = np.asarray(x, dtype=float)
        self.iteration = iteration
        self.trial = trial  # position in the seeds given to run_trials
        self.seed = seed    # that trial's seed
        which = "" if trial is None else f"trial {trial} (seed {seed}): "
        where = "" if iteration is None else f" at iteration {iteration}"
        super().__init__(f"{which}objective returned non-finite value {value!r}{where} "
                         f"for x={self.x.tolist()}")


@dataclass(frozen=True)
class ScheduleSpec:
    """Decay rule ``v <- rate*v + offset`` applied once per iteration to a
    search parameter.

    With ``rate < 1`` the value tends to the fixed point ``offset / (1 - rate)``,
    so ``offset = 0`` is a plain geometric decay to 0; ``rate = 1`` with
    ``offset = 0`` holds the value constant.
    """

    rate: float = 0.95
    offset: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.rate <= 1.0:
            raise ValueError(f"rate must be in (0, 1], got {self.rate}")
        if not 0.0 <= self.offset < np.inf:
            raise ValueError(f"offset must be finite and >= 0, got {self.offset}")

    def fixed_point(self) -> Optional[float]:
        """Limit of repeated application, when one exists."""
        return self.offset / (1.0 - self.rate) if self.rate < 1.0 else None


# Benchmark defaults: d decays toward 0.01/(1-0.95) = 0.2, delta decays to 0.
DEFAULT_D_SCHEDULE = ScheduleSpec(rate=0.95, offset=0.01)
DEFAULT_DELTA_SCHEDULE = ScheduleSpec(rate=0.95)


def advance_schedule(value: float, spec: ScheduleSpec) -> float:
    """Apply one step of the decay rule to ``value``.

    As ``rate > 0``, ``rate*value`` is -0.0 only for ``value = -0.0``; any
    other product is unchanged by adding a zero offset, so ``offset = 0`` is
    ``rate*value`` bit for bit.
    """
    if value < 0.0:
        raise ValueError(f"schedule value must be >= 0, got {value}")
    return spec.rate * value + spec.offset


def _as_int(value, name: str, low: int, high: Optional[int] = None) -> int:
    """``value`` as an ``int``; ValueError unless an ``int`` or ``np.integer`` in [low, high]."""
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise ValueError(f"{name} must be <= {high}, got {value}")
    return int(value)


def _as_point(value, dimension: int, name: str) -> Array:
    """A validated point as a read-only ``(dimension,)`` float64 copy."""
    arr = np.array(value, dtype=float)
    if arr.shape != (dimension,):
        raise ValueError(f"{name} must have shape ({dimension},), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {arr.tolist()}")
    arr.flags.writeable = False
    return arr


def _as_box(value, dimension: Optional[int], name: str) -> Array:
    """Validated (lo, hi) rows as a read-only, C-contiguous (k, 2) float64 copy."""
    arr = np.array(value, dtype=float, order="C")
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"{name} must be a sequence of (lo, hi) pairs, got shape {arr.shape}")
    if dimension is not None and arr.shape[0] != dimension:
        raise ValueError(f"{name} has {arr.shape[0]} axes, expected {dimension}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} bounds must be finite")
    if np.any(arr[:, 0] > arr[:, 1]):
        raise ValueError(f"{name} requires lo <= hi on every axis")
    with np.errstate(over="ignore"):
        width = arr[:, 1] - arr[:, 0]
    if not np.all(np.isfinite(width)):
        raise ValueError(f"{name} width hi - lo overflows on some axis")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class BasConfig:
    """Full parameterization of one search run.

    Exactly one of ``x0`` (explicit start) and ``init_box`` (uniform start,
    per-axis bounds) must be given. ``clamp_box`` optionally confines the
    iterate after each move; by default movement is unconstrained.
    ``target_value`` and ``stall_iters`` are optional early-stop criteria;
    when unset, ``max_iters`` alone ends the run.
    Boxes, any ``(lo, hi)`` pairs, and ``x0`` are held as read-only float64
    copies, the counts as ``int``. Configs compare and hash by identity.
    """

    dimension: int
    d0: float = 2.0
    delta0: float = 0.5
    d_schedule: ScheduleSpec = DEFAULT_D_SCHEDULE
    delta_schedule: ScheduleSpec = DEFAULT_DELTA_SCHEDULE
    max_iters: int = 100
    seed: int = 0
    x0: Optional[Array] = None
    init_box: Optional[Array] = None
    clamp_box: Optional[Array] = None
    target_value: Optional[float] = None
    stall_iters: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "dimension", _as_int(self.dimension, "dimension", 1))
        for name in ("d0", "delta0"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        object.__setattr__(self, "max_iters", _as_int(self.max_iters, "max_iters", 1, sys.maxsize))
        object.__setattr__(self, "seed", _as_seed(self.seed))
        if (self.x0 is None) == (self.init_box is None):
            raise ValueError("exactly one of x0 and init_box must be set")
        for name, check in (("x0", _as_point), ("init_box", _as_box), ("clamp_box", _as_box)):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, check(getattr(self, name), self.dimension, name))
        if self.stall_iters is not None:
            object.__setattr__(self, "stall_iters", _as_int(self.stall_iters, "stall_iters", 1))
        if self.target_value is not None and not np.isfinite(self.target_value):
            raise ValueError(f"target_value must be finite, got {self.target_value}")


@dataclass
class SearchState:
    """Mutable state of a run in flight.

    ``f_x`` caches the objective value at the current position so the run
    loop can record it without re-evaluating. ``f_bst`` is stored at the
    moment of evaluation, hence re-evaluating the objective at ``x_bst``
    reproduces it bit-exactly.
    """

    t: int
    x: Array
    d: float
    delta: float
    f_x: float
    x_bst: Array
    f_bst: float
    evals: int


@dataclass(frozen=True, eq=False, slots=True)
class RunResult:
    """Outcome of one search.

    ``trajectory`` is a read-only float64 array with one row per iteration
    and the columns ``f_x, f_bst, d, delta, x_0 ... x_{k-1}``: the objective
    at the new position, the best value so far, the antenna length and step
    size the iteration used, then the new position. A trial whose history
    was not recorded has an empty ``(0, 4 + k)`` trajectory. ``seed`` is the
    seed the search ran with. Slotted, as a campaign summary keeps one per trial.
    """

    trajectory: Array
    x_bst: tuple
    f_bst: float
    evals: int
    termination: str
    seed: int

    def __eq__(self, other):
        if not isinstance(other, RunResult):
            return NotImplemented
        return (np.array_equal(self.trajectory, other.trajectory)
                and (self.x_bst, self.f_bst, self.evals, self.termination, self.seed)
                == (other.x_bst, other.f_bst, other.evals, other.termination, other.seed))


def sample_direction(k: int, rng: np.random.Generator) -> Array:
    """Draw a random unit direction in R^k.

    Components are i.i.d. uniform on [-1, 1]; draws whose norm falls below
    1e-12 are rejected and resampled before normalizing.
    """
    k = _as_int(k, "k", 1)
    while True:
        v = rng.uniform(-1.0, 1.0, size=k)
        norm = float(np.sqrt(np.add.reduce(v * v)))
        if norm >= _MIN_DIRECTION_NORM:
            return v / norm


def sample_directions(rngs: Sequence[np.random.Generator], out: Array) -> None:
    """Fill ``out[i]``, a (count, k) slice, with ``count`` consecutive
    ``sample_direction(k, rngs[i])`` draws, for every generator at once.

    Each generator fills its C-contiguous slice with ``random(out=...)``, which
    takes the same doubles from its stream as ``uniform(-1, 1)`` of that shape;
    ``u *= 2; u -= 1`` is then the ``-1 + 2*u`` that ``uniform`` computes, bit
    for bit, as ``2*u`` is exact. Every row's norm is the same ``np.add``
    reduction of squares that ``sample_direction`` applies to a single vector,
    so the rows match the one-at-a-time draws bit for bit. Below 8 terms that
    reduction adds them in index order, so the norms are column adds there;
    from 8 terms on, the squares are taken a few slices at a time, in at most
    ``_SQUARES_BYTES`` (or one slice), which bounds the temporary and not the
    bits. Neither calls BLAS, whose kernel depends on the CPU. A row short
    enough to be rejected is dropped: the slice keeps its accepted rows in
    order and draws the missing ones with ``sample_direction``, which leaves
    the stream where one-at-a-time draws would have left it.
    """
    for rng, u in zip(rngs, out):
        rng.random(out=u)
    out *= 2.0
    out -= 1.0
    if out.shape[2] < 8:  # summed in index order, as add.reduce sums fewer than 8 terms
        norms = out[..., 0] * out[..., 0]
        for j in range(1, out.shape[2]):
            norms += out[..., j] * out[..., j]
    else:
        norms = np.empty(out.shape[:2])
        group = max(1, _SQUARES_BYTES // (8 * out.shape[1] * out.shape[2]))  # slices at once
        squares = np.empty((min(group, len(out)), *out.shape[1:]))
        for i in range(0, len(out), group):
            part = out[i:i + group]
            np.multiply(part, part, out=squares[:len(part)])
            np.add.reduce(squares[:len(part)], axis=-1, out=norms[i:i + group])
    np.sqrt(norms, out=norms)
    short = norms < _MIN_DIRECTION_NORM
    norms[short] = 1.0
    out /= norms[..., None]
    for i in np.flatnonzero(short.any(axis=-1)):
        accepted = out[i][~short[i]]
        out[i, :len(accepted)] = accepted
        for row in range(len(accepted), out.shape[1]):
            out[i, row] = sample_direction(out.shape[2], rngs[i])


def antenna_probe(x: Array, d: float, b: Array) -> tuple[Array, Array]:
    """Antenna tips ``(x + d*b, x - d*b)`` around the current position."""
    x = np.asarray(x, dtype=float)
    b = np.asarray(b, dtype=float)
    if x.shape != b.shape:
        raise ValueError(f"position shape {x.shape} does not match direction shape {b.shape}")
    if d < 0.0:
        raise ValueError(f"antenna length must be >= 0, got {d}")
    offset = d * b
    return x + offset, x - offset


def detect_step(x: Array, delta: float, b: Array, f_r: float, f_l: float) -> Array:
    """Move from ``x`` toward the antenna with the lower objective value.

    Returns ``x - delta * b * sign(f_r - f_l)``; with sign(0) = 0 the
    equal-antennae case leaves ``x`` unchanged.
    """
    x = np.asarray(x, dtype=float)
    b = np.asarray(b, dtype=float)
    if x.shape != b.shape:
        raise ValueError(f"position shape {x.shape} does not match direction shape {b.shape}")
    if delta < 0.0:
        raise ValueError(f"step size must be >= 0, got {delta}")
    if not np.isfinite(f_r):
        raise ObjectiveError(f_r, x)
    if not np.isfinite(f_l):
        raise ObjectiveError(f_l, x)
    return x - delta * b * np.sign(f_r - f_l)


def init_position(config: BasConfig, rng: np.random.Generator) -> Array:
    """Starting position: the explicit ``x0``, or a uniform draw from ``init_box``."""
    if config.x0 is not None:
        return config.x0.copy()
    box = config.init_box
    # What rng.uniform(lo, hi) computes, from the same stream, bit for bit,
    # without its argument broadcasting and range checks.
    return box[:, 0] + (box[:, 1] - box[:, 0]) * rng.random(len(box))


def _evaluate(objective: ObjectiveFn, x: Array) -> float:
    """``objective`` at a read-only view of ``x``, as the engine hands its points."""
    view = x.view()
    view.flags.writeable = False
    value = float(objective(view))
    if not np.isfinite(value):
        raise ObjectiveError(value, x)
    return value


def bas_iterate(state: SearchState, objective: ObjectiveFn,
                rng: np.random.Generator, config: BasConfig) -> SearchState:
    """Advance the search by one iteration (in place; also returns the state).

    Order: sample a direction, probe both antennae, step toward the better
    one, evaluate the new position, update the incumbent if it improved,
    then decay ``d`` and ``delta`` and bump ``t``. Costs exactly 3 objective
    evaluations. The objective is handed read-only views, as in the engine,
    and if it returns a non-finite value the state is left untouched.
    """
    b = sample_direction(config.dimension, rng)
    x_r, x_l = antenna_probe(state.x, state.d, b)
    f_r = _evaluate(objective, x_r)
    f_l = _evaluate(objective, x_l)
    x_new = detect_step(state.x, state.delta, b, f_r, f_l)
    if config.clamp_box is not None:
        x_new = np.clip(x_new, config.clamp_box[:, 0], config.clamp_box[:, 1])
    f_new = _evaluate(objective, x_new)

    state.x = x_new
    state.f_x = f_new
    state.evals += 3
    if f_new < state.f_bst:
        state.x_bst = x_new.copy()
        state.f_bst = f_new
    state.d = advance_schedule(state.d, config.d_schedule)
    state.delta = advance_schedule(state.delta, config.delta_schedule)
    state.t += 1
    return state


def _values(objective: ObjectiveFn, points: Array) -> Array:
    """Objective values of the rows of ``points``: one ``batch`` call when the
    objective has one, otherwise one call per row in order. The objective
    gets a read-only view, so it cannot move the points it is handed."""
    points = points.view()
    points.flags.writeable = False
    batch = getattr(objective, "batch", None)
    if batch is not None:
        return np.asarray(batch(points), dtype=float)
    return np.array([float(objective(p)) for p in points], dtype=float)


def _finite(values: Array, points: Array, rows: Array, t: int, failures: dict) -> Array:
    """Mask of the finite ``values``; each row with a non-finite one records its
    first failure ``(value, point, iteration)`` in ``failures``."""
    ok = np.isfinite(values)
    if not ok.all():
        for i in np.flatnonzero(~ok):
            failures.setdefault(int(rows[i]), (float(values[i]), points[i].copy(), t))
    return ok


def run_trials(config: BasConfig, objective: ObjectiveFn, seeds: Sequence[int],
               record: int = 0) -> Iterator[RunResult]:
    """Run one search per seed under ``config`` and yield the results in order.

    Each trial is exactly ``run`` with ``config.seed`` replaced by its seed
    (the config's own seed is not used). The first ``record`` trials carry
    their trajectory; the others get an empty one. Trials move in lockstep
    blocks of consecutive seeds (``_blocks``), and each block's results are
    yielded when the block finishes. If an objective value is not finite,
    the results before the lowest failing trial are yielded and then its
    ``ObjectiveError`` is raised, with ``trial`` set to its position and
    ``seed`` to its seed. The objective sees the points that ``run`` would
    evaluate for each trial, except that a trial whose start or new
    position fails may have had its next two antenna tips evaluated too.
    """
    seeds = [_as_seed(seed) for seed in seeds]
    record = _as_int(record, "record", 0)
    for block in _blocks(config, len(seeds), record):
        yield from _run_block(config, objective, seeds[block.start:block.stop],
                              len(range(block.start, min(block.stop, record))), block.start)


def _blocks(config: BasConfig, n: int, record: int) -> Iterator[range]:
    """Split ``n`` trials into consecutive ranges whose engine arrays fit
    ``_BLOCK_BYTES``; a trial too large for the budget runs alone.

    A trial costs its chunk of directions and its two antenna tips, plus its
    history if it is one of the first ``record`` (``max_iters`` trajectory
    rows of ``4 + k`` floats): ``_run_block`` grows the history only as the
    search runs, so this bounds the most it can take. The position that
    shares the tips' buffer is left out, like the other per-row vectors.
    """
    k = config.dimension
    directions = 8 * k * (min(config.max_iters, _DIRECTION_CHUNK) + 2)
    history = 8 * config.max_iters * (4 + k)
    first, size = 0, 0
    for i in range(n):
        cost = directions + (history if i < record else 0)
        if i > first and size + cost > _BLOCK_BYTES:
            yield range(first, i)
            first, size = i, 0
        size += cost
    if n:
        yield range(first, n)


def _start_points(config: BasConfig, rngs: Sequence[np.random.Generator]) -> Array:
    """``init_position(config, rng)`` for every generator, as one (n, k) array:
    each generator fills its row with ``random(out=...)``, and one
    ``lo + (hi - lo) * u`` over the block is ``init_position``'s arithmetic."""
    if config.x0 is not None:
        return np.tile(config.x0, (len(rngs), 1))
    u = np.empty((len(rngs), config.dimension))
    for rng, row in zip(rngs, u):
        rng.random(out=row)
    box = config.init_box
    return box[:, 0] + (box[:, 1] - box[:, 0]) * u


def _run_block(config: BasConfig, objective: ObjectiveFn, seeds: Sequence[int],
               n_keep: int, first: int) -> Iterator[RunResult]:
    """``run_trials`` for one block, on the running trials only.

    The live state is compacted: position ``i`` of ``x``, ``x_bst``,
    ``f_bst``, ``stall`` and ``place`` belongs to block row ``rows[i]``.
    Every step acts on these dense arrays, in the order and with the
    scalars ``d`` and ``delta`` that ``bas_iterate`` uses, so each row
    follows its reference trajectory exactly. Only on an iteration where
    some row stops or fails is the state compacted, and a stopped row's
    incumbent, iteration count and termination written to the block's
    outputs. Block rows ``0 .. n_keep - 1`` store history; compaction keeps
    ``rows`` sorted, so the live ones are ``rows[:kept]``.

    A new position depends only on the antenna readings, so the tips of the
    next iteration are known before the objective at the position is: the
    start points go into one batch with the first iteration's tips, and,
    when no row can stop before ``max_iters`` (no target and no stall
    rule), so does every new position but the last. A row that fails at
    its start or new position has had its next tips evaluated too; those
    values are dropped with it. Floating-point warnings are silenced while
    the block runs, because every non-finite objective value already
    becomes an ``ObjectiveError``.
    """
    n, k = len(seeds), config.dimension
    rngs = _generators(seeds)
    target, patience = config.target_value, config.stall_iters
    ahead = target is None and patience is None  # every live row runs to max_iters

    chunk = min(config.max_iters, _DIRECTION_CHUNK)
    # A chunk's directions are stored for the rows live when it is drawn, in
    # order: those of live row i are directions[i] until a row is dropped,
    # and directions[place[i]] after (place is None until then).
    directions = np.empty((n, chunk, k))
    # The live positions, then their tips x + d*b, then x - d*b.
    points = np.empty((3 * n, k))
    # hist holds the first chunk's rows and doubles when the search outruns it.
    hist = np.empty((n_keep, chunk, 4 + k))
    # The block's outputs, by block row, written as rows stop.
    best_x, best_f = np.empty((n, k)), np.empty(n)
    ran = np.zeros(n, dtype=int)
    termination = [TERM_MAX_ITERS] * n
    failures = {}

    rows = np.arange(n)
    x = points[:n]
    x[...] = _start_points(config, rngs)
    x_bst, f_bst = x.copy(), np.empty(n)  # f_bst is set by the start batch
    stall = np.zeros(n, dtype=int)
    place = None
    kept = n_keep  # live recorded rows

    def retain(ok, *extra):
        """Compact the live state, and the arrays ``extra``, to ``ok``."""
        nonlocal rows, x, x_bst, f_bst, stall, place, kept
        if place is None:
            place = np.arange(rows.size)
        rows, x, x_bst, f_bst, stall, place = (
            a[ok] for a in (rows, x, x_bst, f_bst, stall, place))
        kept = int(np.searchsorted(rows, n_keep))
        return [a[ok] for a in extra]

    def probe(t, d):
        """Write the tips of 0-based iteration ``t`` around ``x`` after the
        positions in ``points`` and return their directions, drawing the
        next chunk for the live rows when ``t`` starts one."""
        nonlocal place
        m, j = rows.size, t % chunk
        if j == 0:
            count = min(chunk, config.max_iters - t)
            sample_directions([rngs[row] for row in rows.tolist()], directions[:m, :count])
            place = None
        b = directions[:m, j].copy() if place is None else directions[place, j]
        offset = d * b
        np.add(x, offset, out=points[m:2 * m])
        np.subtract(x, offset, out=points[2 * m:3 * m])
        return b

    def evaluate(lo, hi, t, *extra):
        """One batch of parts ``lo .. hi - 1`` of ``points``: the positions
        (0), the right tips (1) and the left tips (2). A row with a non-finite
        value fails at iteration ``t`` at its position and ``t + 1`` at a tip,
        checked in that order, and is dropped. Returns the values of each
        part, then ``extra``, for the rows that stay live."""
        m = rows.size
        f = _values(objective, points[lo * m:hi * m])
        out = [f[i * m:(i + 1) * m] for i in range(hi - lo)] + list(extra)
        if np.isfinite(f).all():
            return out
        ok = np.ones(m, dtype=bool)
        for i in range(lo, hi):
            ok &= _finite(out[i - lo], points[i * m:(i + 1) * m], rows, t + (i > 0), failures)
        return retain(ok, *out)

    d, delta = config.d0, config.delta0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        f_bst, f_r, f_l, b = evaluate(0, 3, 0, probe(0, d))
        for t in range(config.max_iters):
            if rows.size and f_r is None:  # this iteration's tips are not read yet
                f_r, f_l, b = evaluate(1, 3, t, probe(t, d))
            m = rows.size
            if m == 0:
                break
            step = delta * b
            step *= np.sign(f_r - f_l)[:, None]
            x = np.subtract(x, step, out=points[:m])
            if config.clamp_box is not None:
                np.clip(x, *config.clamp_box.T, out=x)
            d_next = advance_schedule(d, config.d_schedule)
            if ahead and t + 1 < config.max_iters:
                f_new, f_r, f_l, b = evaluate(0, 3, t + 1, probe(t + 1, d_next))
            else:
                (f_new,), f_r = evaluate(0, 1, t + 1), None

            improved = f_new < f_bst
            np.copyto(f_bst, f_new, where=improved)
            np.copyto(x_bst, x, where=improved[:, None])
            if n_keep:
                if t == hist.shape[1]:
                    grown = np.empty((n_keep, min(2 * t, config.max_iters), 4 + k))
                    grown[:, :t] = hist
                    hist = grown
                hist[rows[:kept], t, 0] = f_new[:kept]
                hist[rows[:kept], t, 1] = f_bst[:kept]
                hist[:, t, 2:4] = d, delta
                hist[rows[:kept], t, 4:] = x[:kept]
            d, delta = d_next, advance_schedule(delta, config.delta_schedule)

            if ahead:
                continue
            reached = np.zeros(rows.size, dtype=bool) if target is None else f_bst <= target
            stop = reached
            if patience is not None:
                stall = np.where(improved, 0, stall + 1)
                stop = reached | (stall >= patience)
            if stop.any():
                done = rows[stop]
                best_x[done], best_f[done], ran[done] = x_bst[stop], f_bst[stop], t + 1
                for row, hit in zip(done.tolist(), reached[stop].tolist()):
                    termination[row] = TERM_TARGET if hit else TERM_STALLED
                retain(~stop)
    best_x[rows], best_f[rows], ran[rows] = x_bst, f_bst, config.max_iters

    lowest = min(failures, default=n)
    unrecorded = np.empty((0, 4 + k))
    unrecorded.flags.writeable = False
    best_x, best_f, ran = best_x.tolist(), best_f.tolist(), ran.tolist()
    for row in range(lowest):
        trajectory = unrecorded
        if row < n_keep:
            # a copy, so that no result keeps the block's history alive
            trajectory = hist[row, :ran[row]].copy()
            trajectory.flags.writeable = False
        yield RunResult(trajectory=trajectory,
                        x_bst=tuple(best_x[row]),
                        f_bst=best_f[row],
                        evals=1 + 3 * ran[row],
                        termination=termination[row],
                        seed=seeds[row])
    if failures:
        value, point, t = failures[lowest]
        raise ObjectiveError(value, point, t, trial=first + lowest, seed=seeds[lowest])


def run(config: BasConfig, objective: ObjectiveFn) -> RunResult:
    """Execute a full search and return its trajectory and incumbent.

    The incumbent starts at the initial position (1 evaluation), then each
    iteration appends one trajectory row with the antenna length and step
    size it used. The loop ends at ``max_iters``, or earlier when ``f_bst``
    falls to ``target_value``, or after ``stall_iters`` consecutive
    iterations with no improvement of the incumbent. This is ``run_trials``
    for the single seed ``config.seed``.
    """
    return next(run_trials(config, objective, (config.seed,), record=1))


def derive_trial_seed(master_seed: int, trial: int) -> int:
    """Independent per-trial seed from (master seed, trial index):
    ``SeedSequence((master_seed, trial)).generate_state(1, np.uint64)``.

    Stable regardless of how many trials run or in what order, so campaigns
    can be parallelized or re-ordered without changing any single result.
    This is the reference for ``derive_trial_seeds``, which a campaign uses.
    """
    return int(np.random.SeedSequence((master_seed, trial)).generate_state(1, np.uint64)[0])


def derive_trial_seeds(master_seed: int, trials: int) -> list:
    """``[derive_trial_seed(master_seed, i) for i in range(trials)]``, as
    Python ints, hashed for all trials at once (``_seed_states``). The master
    seed must be a non-negative integer, and ``trials`` one of at most
    ``sys.maxsize``."""
    trials = np.arange(_as_int(trials, "trials", 0, sys.maxsize), dtype=np.uint64)
    return _seed_states((_as_seed(master_seed),), trials, 1)[:, 0].tolist()


def _as_seed(seed) -> int:
    """``seed`` as a Python int, or a ``ValueError`` unless it is a
    non-negative integer (an ``int`` or an ``np.integer``)."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


def _generators(seeds: Sequence[int]) -> list:
    """``np.random.default_rng(seed)`` for every seed, a non-negative Python
    int. Seeds below 2^64, as every campaign's are, take their PCG64 state
    words from one ``_seed_states`` pass; a block that holds a wider seed is
    built by ``default_rng`` itself."""
    from numpy.random import PCG64, Generator, default_rng
    from numpy.random.bit_generator import ISeedSequence

    if max(seeds, default=0) >> 64:
        return [default_rng(seed) for seed in seeds]

    class StateWords(ISeedSequence):
        """Hands ``PCG64`` the four uint64 words it asks of a ``SeedSequence``."""

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    words = _seed_states((), np.array(seeds, dtype=np.uint64), 4)
    return [Generator(PCG64(StateWords(row))) for row in words]


# numpy.random.SeedSequence's pool size and published hash constants.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _seed_states(head: tuple, values: Array, n_words: int) -> Array:
    """``SeedSequence((*head, v)).generate_state(n_words, np.uint64)`` for
    every ``v`` of the uint64 array ``values``, as one (len(values), n_words)
    C-ordered uint64 array; ``head`` holds non-negative ints of any width.

    ``SeedSequence``'s entropy is the little-endian 32-bit words of each int
    in turn (one word for 0), so values below 2^32 are hashed as one word and
    the others as two, each group on uint32 arrays with one element per value
    and the head's words broadcast: the hash constants advance the same way
    whatever the data, so they stay Python ints, and array arithmetic wraps
    modulo 2^32 as ``SeedSequence``'s does.
    """
    head = np.frombuffer(b"".join(map(_entropy_bytes, head)), "<u4")
    lo, hi = np.ascontiguousarray(values, dtype="<u8").view("<u4").reshape(-1, 2).T

    def hashed(*words):
        return _states([np.broadcast_to(w, len(words[0])) for w in head] + list(words), n_words)

    two = hi != 0  # values of two words
    if not two.any():
        return hashed(lo)
    out = np.empty((len(values), n_words), dtype=np.uint64)
    out[~two] = hashed(lo[~two])
    out[two] = hashed(lo[two], hi[two])
    return out


def _states(entropy: list, n_words: int) -> Array:
    """``generate_state(n_words, np.uint64)`` of every column of the entropy
    words (a list of equal-length uint32 arrays), one C-ordered row each."""
    state = _generate_state(_mix_entropy(entropy), 2 * n_words)
    words = state[1::2].astype(np.uint64)
    words <<= 32
    words |= state[0::2]
    return np.ascontiguousarray(words.T)


def _entropy_bytes(value: int) -> bytes:
    return value.to_bytes(4 * max(1, -(-value.bit_length() // 32)), "little")


def _mix_entropy(entropy: list) -> list:
    """``SeedSequence.mix_entropy``: the 4-word pool of every column of the
    entropy words (a list of equal-length uint32 arrays)."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value *= hash_const
        value ^= value >> 16
        return value

    zeros = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zeros) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    return pool


def _mix(x: Array, y: Array) -> Array:
    result = x * _MIX_MULT_L
    result -= y * _MIX_MULT_R
    result ^= result >> 16
    return result


def _generate_state(pool: list, n_words: int) -> Array:
    """``SeedSequence.generate_state(n_words, np.uint32)`` of every column of
    the pool, as an (n_words, columns) uint32 array."""
    out = np.empty((n_words, len(pool[0])), dtype=np.uint32)
    hash_const = _INIT_B
    for i, word in enumerate(out):
        np.bitwise_xor(pool[i % _POOL_SIZE], hash_const, out=word)
        hash_const = hash_const * _MULT_B & _MASK32
        word *= hash_const
        word ^= word >> 16
    return out
