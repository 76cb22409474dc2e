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
``run`` is its single-trial case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Container, Iterator, Optional, Sequence

import numpy as np

Array = np.ndarray
ObjectiveFn = Callable[[Array], float]

# Schedule kinds.
GEOMETRIC_OFFSET = "geometric_offset"  # v <- rate * v + offset
GEOMETRIC = "geometric"                # v <- rate * v
CONSTANT = "constant"                  # v unchanged
_SCHEDULE_KINDS = (GEOMETRIC_OFFSET, GEOMETRIC, CONSTANT)

# Termination reasons reported in RunResult.
TERM_MAX_ITERS = "max_iters"
TERM_TARGET = "target_reached"
TERM_STALLED = "stalled"

_MIN_DIRECTION_NORM = 1e-12

# Trials moved in lockstep by ``run_trials``; bounds the engine's working set.
_TRIAL_BLOCK = 64
# Iterations of directions drawn per generator call in ``run_trials``.
_DIRECTION_CHUNK = 25


class ObjectiveError(RuntimeError):
    """Raised when an objective evaluation produces a non-finite value."""

    def __init__(self, value: float, x: Array, iteration: Optional[int] = None,
                 trial: Optional[int] = None):
        self.value = value
        self.x = np.asarray(x, dtype=float)
        self.iteration = iteration
        self.trial = trial  # position in the seeds given to run_trials
        super().__init__(self._describe())

    def _describe(self) -> str:
        where = "" if self.iteration is None else f" at iteration {self.iteration}"
        return (f"objective returned non-finite value {self.value!r}{where} "
                f"for x={self.x.tolist()}")


@dataclass(frozen=True)
class ScheduleSpec:
    """Decay rule applied once per iteration to a search parameter.

    kind            update                    long-run behaviour
    geometric_offset  v <- rate*v + offset    fixed point offset / (1 - rate)
    geometric         v <- rate*v             decays to 0 (rate < 1)
    constant          v <- v                  unchanged
    """

    kind: str
    rate: float = 0.95
    offset: float = 0.0

    def __post_init__(self):
        if self.kind not in _SCHEDULE_KINDS:
            raise ValueError(
                f"unknown schedule kind {self.kind!r}; expected one of {_SCHEDULE_KINDS}")
        if not 0.0 < self.rate <= 1.0:
            raise ValueError(f"schedule rate must be in (0, 1], got {self.rate}")
        if self.offset < 0.0:
            raise ValueError(f"schedule offset must be >= 0, got {self.offset}")
        if self.kind != GEOMETRIC_OFFSET and self.offset != 0.0:
            raise ValueError(f"offset is only meaningful for {GEOMETRIC_OFFSET!r}")

    def fixed_point(self) -> Optional[float]:
        """Limit of repeated application, when one exists."""
        if self.kind == GEOMETRIC_OFFSET and self.rate < 1.0:
            return self.offset / (1.0 - self.rate)
        if self.kind == GEOMETRIC and self.rate < 1.0:
            return 0.0
        return None


# Benchmark defaults: d decays toward 0.01/(1-0.95) = 0.2, delta decays to 0.
DEFAULT_D_SCHEDULE = ScheduleSpec(GEOMETRIC_OFFSET, rate=0.95, offset=0.01)
DEFAULT_DELTA_SCHEDULE = ScheduleSpec(GEOMETRIC, rate=0.95)


def advance_schedule(value: float, spec: ScheduleSpec) -> float:
    """Apply one step of the decay rule to ``value``."""
    if value < 0.0:
        raise ValueError(f"schedule value must be >= 0, got {value}")
    if spec.kind == GEOMETRIC_OFFSET:
        return spec.rate * value + spec.offset
    if spec.kind == GEOMETRIC:
        return spec.rate * value
    return value


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


@dataclass(frozen=True)
class IterationRecord:
    """One trajectory row; the layout the CLI serializes."""

    t: int
    f_x: float
    f_bst: float
    d: float
    delta: float
    x: tuple


@dataclass(frozen=True)
class RunResult:
    records: tuple
    x_bst: tuple
    f_bst: float
    evals: int
    termination: str


def sample_direction(k: int, rng: np.random.Generator) -> Array:
    """Draw a random unit direction in R^k.

    Components are i.i.d. uniform on [-1, 1]; draws whose norm falls below
    1e-12 are rejected and resampled before normalizing.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    while True:
        v = rng.uniform(-1.0, 1.0, size=k)
        norm = float(np.linalg.norm(v))
        if norm >= _MIN_DIRECTION_NORM:
            return v / norm


def sample_directions(k: int, rng: np.random.Generator, count: int) -> Array:
    """``count`` consecutive ``sample_direction(k, rng)`` draws as a (count, k) array.

    One ``uniform`` call of shape (count, k) consumes the same stream as
    ``count`` calls of size k, and each row's norm is the same dot-product
    reduction that ``np.linalg.norm`` applies to a single vector, so the rows
    match the one-at-a-time draws bit for bit. A row short enough to be
    rejected shifts the stream, so then the generator is rewound and the
    chunk is drawn one direction at a time.
    """
    state = rng.bit_generator.state
    v = rng.uniform(-1.0, 1.0, size=(count, k))
    norms = np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])
    if norms.min() >= _MIN_DIRECTION_NORM:
        return v / norms[:, None]
    rng.bit_generator.state = state
    return np.array([sample_direction(k, rng) for _ in range(count)])


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
    return rng.uniform(box[:, 0], box[:, 1])


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
    is in ``record`` carry their per-iteration records; the others get an
    empty ``records`` tuple. Trials move in lockstep blocks, and each block's
    results are yielded when the block finishes. If an objective value is not
    finite, the results before the lowest failing trial are yielded and then
    its ``ObjectiveError`` is raised, with ``trial`` set to its position.
    """
    for first in range(0, len(seeds), _TRIAL_BLOCK):
        block = seeds[first:first + _TRIAL_BLOCK]
        keep = np.array([first + i in record for i in range(len(block))], dtype=bool)
        yield from _run_block(config, objective, block, keep, first)


def _run_block(config: BasConfig, objective: ObjectiveFn, seeds: Sequence[int],
               keep: Array, first: int) -> Iterator[RunResult]:
    """``run_trials`` for one block: every row of ``x`` is one trial's beetle.

    Rows leave ``active`` when they stop or fail; every array operation acts
    on the active rows only, in the order and with the scalars ``d`` and
    ``delta`` that ``bas_iterate`` uses, so each row follows its reference
    trajectory exactly. Only rows flagged in ``keep`` store history.
    """
    n, k = len(seeds), config.dimension
    rngs = [np.random.default_rng(seed) for seed in seeds]
    x = np.array([init_position(config, rng) for rng in rngs])
    failures = {}
    active = np.arange(n)
    f_bst = _values(objective, x)
    active = active[_finite(f_bst, x, active, 0, failures)]
    x_bst = x.copy()
    iterations = np.zeros(n, dtype=int)
    stall = np.zeros(n, dtype=int)
    termination = [TERM_MAX_ITERS] * n
    clamp = None if config.clamp_box is None else np.asarray(config.clamp_box, dtype=float)

    # History of the kept rows: slot[row] indexes hist_x/hist_f, -1 if not kept.
    slot = np.where(keep, np.cumsum(keep) - 1, -1)
    n_keep = int(keep.sum())
    hist_x = np.empty((n_keep, config.max_iters, k))
    hist_f = np.empty((n_keep, config.max_iters, 2))  # f_x, f_bst
    used = []  # (d, delta) of each iteration

    directions = np.empty((n, _DIRECTION_CHUNK, k))
    d, delta = config.d0, config.delta0
    for t in range(config.max_iters):
        if active.size == 0:
            break
        j = t % _DIRECTION_CHUNK
        if j == 0:
            count = min(_DIRECTION_CHUNK, config.max_iters - t)
            for row in active:
                directions[row, :count] = sample_directions(k, rngs[row], count)
        b = directions[active, j]
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
        used.append((d, delta))
        if n_keep:
            s = slot[active]
            kept = s >= 0
            hist_x[s[kept], t] = x_new[kept]
            hist_f[s[kept], t, 0] = f_new[kept]
            hist_f[s[kept], t, 1] = f_bst[active[kept]]
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
    for row in range(lowest):
        ran = int(iterations[row])
        records = ()
        if keep[row]:
            s = slot[row]
            records = tuple(
                IterationRecord(t=t + 1, f_x=f_x, f_bst=f_b, d=d_t, delta=delta_t, x=tuple(xs))
                for t, ((f_x, f_b), xs, (d_t, delta_t)) in enumerate(
                    zip(hist_f[s, :ran].tolist(), hist_x[s, :ran].tolist(), used)))
        yield RunResult(records=records,
                        x_bst=tuple(x_bst[row].tolist()),
                        f_bst=float(f_bst[row]),
                        evals=1 + 3 * ran,
                        termination=termination[row])
    if failures:
        value, point, t = failures[lowest]
        raise ObjectiveError(value, point, t, trial=first + lowest)


def run(config: BasConfig, objective: ObjectiveFn) -> RunResult:
    """Execute a full search and return its trajectory and incumbent.

    The incumbent starts at the initial position (1 evaluation), then each
    iteration appends one record with the antenna length and step size it
    used. The loop ends at ``max_iters``, or earlier when ``f_bst`` falls to
    ``target_value``, or after ``stall_iters`` consecutive iterations with
    no improvement of the incumbent. This is ``run_trials`` for the single
    seed ``config.seed``.
    """
    return next(run_trials(config, objective, (config.seed,), record=(0,)))


def derive_trial_seed(master_seed: int, trial: int) -> int:
    """Independent per-trial seed from (master seed, trial index).

    Stable regardless of how many trials run or in what order, so campaigns
    can be parallelized or re-ordered without changing any single result.
    """
    return int(np.random.SeedSequence((master_seed, trial)).generate_state(1, np.uint64)[0])
