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
as one ``(n, k)`` array, one ``Objective.batch`` call for all antenna tips
and one for all new positions per iteration, and reproduces the reference
bit for bit (each trial keeps its own generator and the same arithmetic).
A block takes as many consecutive trials as fit a 1 MiB budget for their
direction chunks and, for recorded trials, their full history; the history
is allocated one chunk of rows at first and doubles only while the search
runs on. Neither the block partition nor the chunk length enters any
trial's arithmetic. ``run`` is its single-trial case.

A block's per-trial set-up is done for the block at once: the generators'
``SeedSequence`` hashes on uint32 arrays (``_seed_states``, also behind a
campaign's ``derive_trial_seeds``), then each generator fills its row of
start points and, per chunk, its slice of directions with
``random(out=...)``, and array expressions over the block scale them.
``default_rng``, ``derive_trial_seed``, ``init_position`` and
``sample_direction`` are the references these reproduce bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Container, Iterator, Optional, Sequence

import numpy as np

Array = np.ndarray
ObjectiveFn = Callable[[Array], float]

# Termination reasons reported in RunResult.
TERM_MAX_ITERS = "max_iters"
TERM_TARGET = "target_reached"
TERM_STALLED = "stalled"

_MIN_DIRECTION_NORM = 1e-12

# Bytes of direction and history arrays per lockstep block in ``run_trials``;
# bounds the engine's working set.
_BLOCK_BYTES = 1 << 20
# Iterations of directions drawn per generator call in ``run_trials``.
_DIRECTION_CHUNK = 100


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
        if not self.offset >= 0.0:
            raise ValueError(f"offset must be >= 0, got {self.offset}")

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


def _as_point(value, dimension: int, name: str) -> tuple:
    arr = np.asarray(value, dtype=float)
    if arr.shape != (dimension,):
        raise ValueError(f"{name} must have shape ({dimension},), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {arr.tolist()}")
    return tuple(float(v) for v in arr)


def _as_box(value, dimension: Optional[int], name: str) -> tuple:
    """Normalize per-axis (lo, hi) bounds to a tuple of pairs."""
    arr = np.asarray(value, dtype=float)
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
    return tuple((float(lo), float(hi)) for lo, hi in arr)


@dataclass(frozen=True)
class BasConfig:
    """Full parameterization of one search run.

    Exactly one of ``x0`` (explicit start) and ``init_box`` (uniform start,
    per-axis bounds) must be given. ``clamp_box`` optionally confines the
    iterate after each move; by default movement is unconstrained.
    ``target_value`` and ``stall_iters`` are optional early-stop criteria;
    when unset, ``max_iters`` alone ends the run.
    """

    dimension: int
    d0: float = 2.0
    delta0: float = 0.5
    d_schedule: ScheduleSpec = DEFAULT_D_SCHEDULE
    delta_schedule: ScheduleSpec = DEFAULT_DELTA_SCHEDULE
    max_iters: int = 100
    seed: int = 0
    x0: Optional[Sequence[float]] = None
    init_box: Optional[Sequence[Sequence[float]]] = None
    clamp_box: Optional[Sequence[Sequence[float]]] = None
    target_value: Optional[float] = None
    stall_iters: Optional[int] = None

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        if not self.d0 > 0.0:
            raise ValueError(f"d0 must be > 0, got {self.d0}")
        if not self.delta0 > 0.0:
            raise ValueError(f"delta0 must be > 0, got {self.delta0}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if (self.x0 is None) == (self.init_box is None):
            raise ValueError("exactly one of x0 and init_box must be set")
        if self.x0 is not None:
            object.__setattr__(self, "x0", _as_point(self.x0, self.dimension, "x0"))
        if self.init_box is not None:
            object.__setattr__(self, "init_box", _as_box(self.init_box, self.dimension, "init_box"))
        if self.clamp_box is not None:
            object.__setattr__(self, "clamp_box", _as_box(self.clamp_box, self.dimension, "clamp_box"))
        if self.stall_iters is not None and self.stall_iters < 1:
            raise ValueError(f"stall_iters must be >= 1, got {self.stall_iters}")
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
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
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
    so the rows match the one-at-a-time draws bit for bit. Neither calls BLAS,
    whose kernel depends on the CPU. A row short enough to be rejected is
    dropped: the slice keeps its accepted rows in order and draws the missing
    ones with ``sample_direction``, which leaves the stream where one-at-a-time
    draws would have left it.
    """
    for rng, u in zip(rngs, out):
        rng.random(out=u)
    out *= 2.0
    out -= 1.0
    norms = np.sqrt(np.add.reduce(out * out, axis=-1))
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
        return np.asarray(config.x0, dtype=float)
    box = np.asarray(config.init_box, dtype=float)
    # What rng.uniform(lo, hi) computes, from the same stream, bit for bit,
    # without its argument broadcasting and range checks.
    return box[:, 0] + (box[:, 1] - box[:, 0]) * rng.random(len(box))


def _evaluate(objective: ObjectiveFn, x: Array) -> float:
    value = float(objective(x))
    if not np.isfinite(value):
        raise ObjectiveError(value, x)
    return value


def bas_iterate(state: SearchState, objective: ObjectiveFn,
                rng: np.random.Generator, config: BasConfig) -> SearchState:
    """Advance the search by one iteration (in place; also returns the state).

    Order: sample a direction, probe both antennae, step toward the better
    one, evaluate the new position, update the incumbent if it improved,
    then decay ``d`` and ``delta`` and bump ``t``. Costs exactly 3 objective
    evaluations. If the objective returns a non-finite value the state is
    left untouched.
    """
    b = sample_direction(config.dimension, rng)
    x_r, x_l = antenna_probe(state.x, state.d, b)
    f_r = _evaluate(objective, x_r)
    f_l = _evaluate(objective, x_l)
    x_new = detect_step(state.x, state.delta, b, f_r, f_l)
    if config.clamp_box is not None:
        box = np.asarray(config.clamp_box, dtype=float)
        x_new = np.clip(x_new, box[:, 0], box[:, 1])
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
    objective has one, otherwise one call per row in order."""
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
               record: Container[int] = ()) -> Iterator[RunResult]:
    """Run one search per seed under ``config`` and yield the results in order.

    Each trial is exactly ``run`` with ``config.seed`` replaced by its seed
    (the config's own seed is not used). Trials whose position in ``seeds``
    is in ``record`` carry their trajectory; the others get an empty one.
    Trials move in lockstep blocks of consecutive seeds, as many as fit
    ``_BLOCK_BYTES`` of direction and history arrays (always at least one),
    and each block's results are yielded when the block finishes. If an
    objective value is not finite, the results before the lowest failing
    trial are yielded and then its ``ObjectiveError`` is raised, with
    ``trial`` set to its position and ``seed`` to its seed.
    """
    kept = [i in record for i in range(len(seeds))]
    for block in _blocks(config, kept):
        keep = np.array(kept[block.start:block.stop], dtype=bool)
        yield from _run_block(config, objective, seeds[block.start:block.stop],
                              keep, block.start)


def _blocks(config: BasConfig, kept: Sequence[bool]) -> Iterator[range]:
    """Split the trials into consecutive ranges whose engine arrays fit
    ``_BLOCK_BYTES``; a trial too large for the budget runs alone.

    A trial costs its chunk of directions, plus its history if ``kept``
    (``max_iters`` trajectory rows of ``4 + k`` floats): ``_run_block`` grows
    the history only as the search runs, so this bounds the most it can take.
    """
    k = config.dimension
    directions = 8 * k * min(config.max_iters, _DIRECTION_CHUNK)
    history = 8 * config.max_iters * (4 + k)
    first, size = 0, 0
    for i, keep in enumerate(kept):
        cost = directions + (history if keep else 0)
        if i > first and size + cost > _BLOCK_BYTES:
            yield range(first, i)
            first, size = i, 0
        size += cost
    if kept:
        yield range(first, len(kept))


def _start_points(config: BasConfig, rngs: Sequence[np.random.Generator]) -> Array:
    """``init_position(config, rng)`` for every generator, as one (n, k) array:
    each generator fills its row with ``random(out=...)``, and one
    ``lo + (hi - lo) * u`` over the block is ``init_position``'s arithmetic."""
    if config.x0 is not None:
        return np.tile(config.x0, (len(rngs), 1))
    u = np.empty((len(rngs), config.dimension))
    for rng, row in zip(rngs, u):
        rng.random(out=row)
    box = np.asarray(config.init_box, dtype=float)
    return box[:, 0] + (box[:, 1] - box[:, 0]) * u


def _run_block(config: BasConfig, objective: ObjectiveFn, seeds: Sequence[int],
               keep: Array, first: int) -> Iterator[RunResult]:
    """``run_trials`` for one block: every row of ``x`` is one trial's beetle.

    Rows leave ``active`` when they stop or fail; every array operation acts
    on the active rows only, in the order and with the scalars ``d`` and
    ``delta`` that ``bas_iterate`` uses, so each row follows its reference
    trajectory exactly. Only rows flagged in ``keep`` store history.
    Floating-point warnings are silenced while the block runs, because every
    non-finite objective value already becomes an ``ObjectiveError``.
    """
    n, k = len(seeds), config.dimension
    rngs = _generators(seeds)
    x = _start_points(config, rngs)
    failures = {}
    active = np.arange(n)
    x_bst = x.copy()
    iterations = np.zeros(n, dtype=int)
    stall = np.zeros(n, dtype=int)
    termination = [TERM_MAX_ITERS] * n
    clamp = None if config.clamp_box is None else np.asarray(config.clamp_box, dtype=float)

    chunk = min(config.max_iters, _DIRECTION_CHUNK)
    # A chunk's directions are stored for the rows active at its start, in
    # order: those of row r are directions[place[r]].
    directions = np.empty((n, chunk, k))
    place = np.zeros(n, dtype=int)
    # Trajectories of the kept rows: slot[row] indexes hist, -1 if not kept.
    # hist holds the first chunk's rows and doubles when the search outruns it.
    slot = np.where(keep, np.cumsum(keep) - 1, -1)
    n_keep = int(keep.sum())
    hist = np.empty((n_keep, chunk, 4 + k))

    d, delta = config.d0, config.delta0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        f_bst = _values(objective, x)
        active = active[_finite(f_bst, x, active, 0, failures)]
        for t in range(config.max_iters):
            if active.size == 0:
                break
            j = t % chunk
            if j == 0:
                count = min(chunk, config.max_iters - t)
                sample_directions([rngs[row] for row in active],
                                  directions[:active.size, :count])
                place[active] = np.arange(active.size)
                if t == hist.shape[1]:
                    grown = np.empty((n_keep, min(2 * t, config.max_iters), 4 + k))
                    grown[:, :t] = hist
                    hist = grown
            b = directions[place[active], j]
            xa = x[active]
            offset = d * b
            x_r, x_l = xa + offset, xa - offset
            f_tips = _values(objective, np.concatenate((x_r, x_l)))
            f_r, f_l = f_tips[:active.size], f_tips[active.size:]
            ok = (_finite(f_r, x_r, active, t + 1, failures)
                  & _finite(f_l, x_l, active, t + 1, failures))
            if not ok.all():
                active, b, xa, f_r, f_l = active[ok], b[ok], xa[ok], f_r[ok], f_l[ok]
                if active.size == 0:
                    break
            x_new = xa - delta * b * np.sign(f_r - f_l)[:, None]
            if clamp is not None:
                x_new = np.clip(x_new, clamp[:, 0], clamp[:, 1])
            f_new = _values(objective, x_new)
            ok = _finite(f_new, x_new, active, t + 1, failures)
            if not ok.all():
                active, x_new, f_new = active[ok], x_new[ok], f_new[ok]

            x[active] = x_new
            improved = f_new < f_bst[active]
            f_bst[active[improved]] = f_new[improved]
            x_bst[active[improved]] = x_new[improved]
            iterations[active] = t + 1
            if n_keep:
                s = slot[active]
                kept = s >= 0
                rows = s[kept]
                hist[rows, t, 0] = f_new[kept]
                hist[rows, t, 1] = f_bst[active[kept]]
                hist[:, t, 2:4] = d, delta
                hist[rows, t, 4:] = x_new[kept]
            d = advance_schedule(d, config.d_schedule)
            delta = advance_schedule(delta, config.delta_schedule)

            stop = np.zeros(active.size, dtype=bool)
            if config.target_value is not None:
                stop = f_bst[active] <= config.target_value
                for row in active[stop]:
                    termination[row] = TERM_TARGET
            if config.stall_iters is not None:
                stall[active] = np.where(improved, 0, stall[active] + 1)
                stalled = (stall[active] >= config.stall_iters) & ~stop
                for row in active[stalled]:
                    termination[row] = TERM_STALLED
                stop |= stalled
            active = active[~stop]

    lowest = min(failures, default=n)
    unrecorded = np.empty((0, 4 + k))
    unrecorded.flags.writeable = False
    for row in range(lowest):
        ran = int(iterations[row])
        trajectory = unrecorded
        if keep[row]:
            # a copy, so that no result keeps the block's history alive
            trajectory = hist[slot[row], :ran].copy()
            trajectory.flags.writeable = False
        yield RunResult(trajectory=trajectory,
                        x_bst=tuple(x_bst[row].tolist()),
                        f_bst=float(f_bst[row]),
                        evals=1 + 3 * ran,
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
    return next(run_trials(config, objective, (config.seed,), record=(0,)))


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
    Python ints, hashed for all trials at once (``_seed_states``). A master
    seed that is not a non-negative int goes to ``derive_trial_seed``, which
    raises what ``SeedSequence`` raises for it."""
    if not _is_plain_seed(master_seed):
        return [derive_trial_seed(master_seed, i) for i in range(trials)]
    return _seed_states((int(master_seed),), range(trials), 1)[:, 0].tolist()


def _generators(seeds: Sequence[int]) -> list:
    """``np.random.default_rng(seed)`` for every seed. The PCG64 state words
    of all the seeds come from one ``_seed_states`` pass; a seed that is not
    a non-negative int sends the block to ``default_rng`` itself, which
    accepts or rejects it as it always did."""
    from numpy.random import PCG64, Generator, default_rng
    from numpy.random.bit_generator import ISeedSequence

    if not all(map(_is_plain_seed, seeds)):
        return [default_rng(seed) for seed in seeds]

    class StateWords(ISeedSequence):
        """Hands ``PCG64`` the four uint64 words it asks of a ``SeedSequence``."""

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    words = _seed_states((), [int(seed) for seed in seeds], 4)
    return [Generator(PCG64(StateWords(row))) for row in words]


def _is_plain_seed(seed) -> bool:
    return isinstance(seed, (int, np.integer)) and seed >= 0


# numpy.random.SeedSequence's pool size and published hash constants.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _seed_states(head: tuple, values: Sequence[int], n_words: int) -> Array:
    """``SeedSequence((*head, v)).generate_state(n_words, np.uint64)`` for
    every non-negative int ``v`` in ``values``, as one (len(values), n_words)
    C-ordered uint64 array; ``head`` holds non-negative ints too.

    ``SeedSequence``'s entropy is the little-endian 32-bit words of each int
    in turn (one word for 0). Values with as many words are hashed together,
    every step on a uint32 array with one element per value: the hash
    constants advance the same way whatever the data, so they stay Python
    ints, and array arithmetic wraps modulo 2^32 as ``SeedSequence``'s does.
    """
    head_bytes = b"".join(map(_entropy_bytes, head))
    groups = {}  # entropy length -> (rows, entropy bytes of each row)
    for row, v in enumerate(values):
        data = _entropy_bytes(v)
        rows, entropy = groups.setdefault(len(data), ([], []))
        rows.append(row)
        entropy.append(head_bytes + data)
    out = np.empty((len(values), n_words), dtype=np.uint64)
    for rows, entropy in groups.values():
        words = np.frombuffer(b"".join(entropy), dtype="<u4").reshape(len(rows), -1)
        state = _generate_state(_mix_entropy(list(words.T)), 2 * n_words)
        out[rows] = (state[0::2].astype(np.uint64) | state[1::2].astype(np.uint64) << 32).T
    return out


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
