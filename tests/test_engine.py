"""The lockstep engine against the single-step reference, bit for bit."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import basopt.core as core
from basopt import (
    BasConfig,
    ObjectiveError,
    RunResult,
    TERM_MAX_ITERS,
    TERM_STALLED,
    TERM_TARGET,
    lookup_objective,
    run,
)
from basopt.core import (SearchState, bas_iterate, init_position, run_trials,
                         sample_direction, sample_directions)
from basopt.objectives import michalewicz


def reference_run(config: BasConfig, objective, seed: int) -> RunResult:
    """One trial as a plain loop over ``bas_iterate``: the engine's spec. Its
    trajectory rows are built from the state as it runs."""
    rng = np.random.default_rng(seed)
    x = init_position(config, rng)
    f0 = float(objective(x))
    if not np.isfinite(f0):
        raise ObjectiveError(f0, x, 0)
    state = SearchState(t=0, x=x, d=config.d0, delta=config.delta0,
                        f_x=f0, x_bst=x.copy(), f_bst=f0, evals=1)
    rows = []
    termination = TERM_MAX_ITERS
    stall = 0
    for _ in range(config.max_iters):
        f_bst_before = state.f_bst
        d_used, delta_used = state.d, state.delta
        try:
            bas_iterate(state, objective, rng, config)
        except ObjectiveError as err:
            raise ObjectiveError(err.value, err.x, state.t + 1) from None
        rows.append((state.f_x, state.f_bst, d_used, delta_used)
                    + tuple(float(v) for v in state.x))
        if config.target_value is not None and state.f_bst <= config.target_value:
            termination = TERM_TARGET
            break
        if config.stall_iters is not None:
            stall = 0 if state.f_bst < f_bst_before else stall + 1
            if stall >= config.stall_iters:
                termination = TERM_STALLED
                break
    trajectory = np.array(rows, dtype=float).reshape(len(rows), 4 + config.dimension)
    return RunResult(trajectory=trajectory,
                     x_bst=tuple(float(v) for v in state.x_bst),
                     f_bst=state.f_bst, evals=state.evals, termination=termination,
                     seed=seed)


def assert_same_result(got: RunResult, want: RunResult) -> None:
    """Bit-for-bit equality: the trajectory by shape and bytes (numpy's repr
    rounds), the other fields by repr (which tells -0.0 from 0.0)."""
    assert got.trajectory.dtype == np.float64
    assert got.trajectory.shape == want.trajectory.shape
    assert got.trajectory.tobytes() == want.trajectory.tobytes()
    assert (repr((got.x_bst, got.f_bst, got.evals, got.termination, got.seed))
            == repr((want.x_bst, want.f_bst, want.evals, want.termination, want.seed)))


def _objective(name: str, dim: int):
    if name == "michalewicz_fn":  # plain callable: no batch, one call per point
        return michalewicz
    return lookup_objective(name, dim)


@settings(max_examples=60, deadline=None)
@given(
    dim=st.sampled_from([1, 2, 3, 9, 10, 33]),
    name=st.sampled_from(["michalewicz", "sphere", "michalewicz_fn"]),
    clamp=st.booleans(),
    target=st.none() | st.floats(-3.0, 0.5),
    stall=st.none() | st.integers(1, 8),
    iters=st.integers(1, 40),
    seeds=st.lists(st.integers(0, 2 ** 63), min_size=1, max_size=7),
    block=st.sampled_from(["one", "three", "all"]),
    chunk=st.sampled_from([1, 7, 100]),
    kept=st.sets(st.integers(0, 6)),
)
def test_engine_matches_reference_bit_for_bit(dim, name, clamp, target, stall, iters,
                                              seeds, block, chunk, kept):
    objective = _objective(name, dim)
    box = ((0.0, np.pi),) * dim if name != "sphere" else ((-1.0, 1.0),) * dim
    config = BasConfig(dimension=dim, init_box=box, clamp_box=box if clamp else None,
                       max_iters=iters, target_value=target, stall_iters=stall,
                       delta0=1.5)
    with pytest.MonkeyPatch.context() as mp:
        # every trial alone; three unrecorded trials (fewer recorded ones) per
        # block; all trials in one block (each costs under 23 KB here)
        unrecorded = 8 * dim * min(iters, chunk)
        budget = {"one": 1, "three": 3 * unrecorded, "all": core._BLOCK_BYTES}[block]
        mp.setattr(core, "_BLOCK_BYTES", budget)
        mp.setattr(core, "_DIRECTION_CHUNK", chunk)
        got = list(run_trials(config, objective, seeds, record=kept))
    assert len(got) == len(seeds)
    for i, (result, seed) in enumerate(zip(got, seeds)):
        want = reference_run(config, objective, seed)
        if i not in kept:
            assert result.trajectory.shape == (0, 4 + dim)
            want = dataclasses.replace(want, trajectory=np.empty((0, 4 + dim)))
        assert_same_result(result, want)


def test_trajectories_are_read_only_copies():
    """Each result owns its rows, so the block's history is freed with the block."""
    obj = lookup_objective("michalewicz", 3)
    cfg = BasConfig(dimension=3, init_box=obj.init_box, max_iters=12)
    results = list(run_trials(cfg, obj, [4, 5, 6], record={0, 2}))
    assert [r.trajectory.shape for r in results] == [(12, 7), (0, 7), (12, 7)]
    for r in results:
        assert r.trajectory.base is None or r.trajectory.size == 0
        assert not r.trajectory.flags.writeable


def _trial_bytes(config: BasConfig, kept: bool) -> int:
    """The engine's arrays for one trial: a chunk of directions, plus history."""
    k, iters = config.dimension, config.max_iters
    return 8 * k * min(iters, core._DIRECTION_CHUNK) + (8 * iters * (4 + k) if kept else 0)


@settings(max_examples=200, deadline=None)
@given(
    dim=st.integers(1, 40),
    iters=st.integers(1, 300),
    kept=st.lists(st.booleans(), max_size=60),
    budget=st.integers(1, 1 << 17),
)
def test_blocks_partition_trials_within_budget(dim, iters, kept, budget):
    config = BasConfig(dimension=dim, x0=(0.0,) * dim, max_iters=iters)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_BLOCK_BYTES", budget)
        blocks = list(core._blocks(config, kept))
    assert [i for block in blocks for i in block] == list(range(len(kept)))
    cost = [_trial_bytes(config, keep) for keep in kept]
    for block, after in zip(blocks, blocks[1:] + [None]):
        size = sum(cost[i] for i in block)
        assert len(block) >= 1
        assert size <= budget or len(block) == 1
        if after is not None:  # a block ends only where the next trial would not fit
            assert size + cost[after.start] > budget


def test_block_sizes_of_the_campaign_workloads():
    mich2d = BasConfig(dimension=2, x0=(0.0, 0.0), max_iters=100)
    assert list(core._blocks(mich2d, [False] * 200)) == [range(200)]
    mich10d = BasConfig(dimension=10, x0=(0.0,) * 10, max_iters=100)
    assert [len(b) for b in core._blocks(mich10d, [True] * 500)] == [54] * 9 + [14]


@pytest.mark.parametrize("iters", [101, 1000, 10 ** 6])
def test_blocks_budget_the_full_history_of_recorded_trials(iters):
    """A history grows to ``max_iters`` rows when the search never stops
    early, so a block of recorded trials fits the budget at that length:
    ``run --dim 2 --iters 1000000 --trials 200 --traj all`` runs its trials
    one at a time, not 163 to a block (7.8 GB of history)."""
    config = BasConfig(dimension=2, x0=(0.0, 0.0), max_iters=iters)
    blocks = list(core._blocks(config, [True] * 200))
    assert [i for block in blocks for i in block] == list(range(200))
    for block in blocks:
        assert len(block) * iters * (4 + 2) * 8 <= core._BLOCK_BYTES or len(block) == 1
    if iters == 10 ** 6:
        assert len(blocks) == 200


def test_history_grows_with_the_search_not_with_max_iters():
    """A recorded trial's history starts at one chunk of rows and doubles only
    while the search runs on, so a 10^8-iteration budget that stalls early
    costs kilobytes, not 10^8 preallocated rows (4.47 GiB)."""
    obj = lookup_objective("sphere", 2)
    cfg = BasConfig(dimension=2, init_box=obj.init_box, max_iters=10 ** 8, stall_iters=5)
    tracemalloc.start()
    try:
        (result,) = run_trials(cfg, obj, [3], record={0})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.termination == TERM_STALLED
    assert 0 < len(result.trajectory) < core._DIRECTION_CHUNK
    assert peak < 2 << 20


def test_run_is_the_single_trial_engine():
    obj = lookup_objective("michalewicz", 2)
    cfg = BasConfig(dimension=2, init_box=obj.init_box, seed=99, stall_iters=10)
    assert_same_result(run(cfg, obj), reference_run(cfg, obj, 99))


def test_results_carry_their_seed():
    obj = lookup_objective("sphere", 2)
    cfg = BasConfig(dimension=2, init_box=obj.init_box, seed=17, max_iters=5)
    assert run(cfg, obj).seed == 17
    seeds = [3, 2 ** 64 - 1, 0]
    assert [r.seed for r in run_trials(cfg, obj, seeds)] == seeds
    assert run(cfg, obj) != dataclasses.replace(run(cfg, obj), seed=18)


def test_scalar_objective_sees_r_l_new_order():
    seen = []

    def spy(x):
        seen.append(tuple(x))
        return float(np.sum(x * x))

    cfg = BasConfig(dimension=2, x0=(1.0, 1.0), max_iters=3, seed=5)
    result = run(cfg, spy)
    rng = np.random.default_rng(5)
    x, d, delta = np.array([1.0, 1.0]), cfg.d0, cfg.delta0
    want = [(1.0, 1.0)]
    for x_new in result.trajectory[:, 4:].tolist():
        b = sample_direction(2, rng)
        want += [tuple(x + d * b), tuple(x - d * b), tuple(x_new)]
        x = np.array(x_new)
        d, delta = 0.95 * d + 0.01, 0.95 * delta
    assert seen == want


def test_lowest_failing_trial_is_reported():
    """Trials fail at different iterations; the lowest trial index wins, even
    when a higher one fails first in lockstep, as in one-by-one order."""
    class Poisoned:
        """Inverted bowl, infinite outside the cube [-0.9, 0.9]^2: beetles
        climb outward and fail at iterations that depend on their start."""
        def __call__(self, x):
            return float(self.batch(np.asarray(x)[None])[0])

        def batch(self, points):
            values = -np.sum(points * points, axis=-1)
            return np.where(np.abs(points).max(axis=-1) > 0.9, np.inf, values)

    objective = Poisoned()
    cfg = BasConfig(dimension=2, init_box=((-0.8, 0.8),) * 2, d0=0.02, delta0=0.05,
                    max_iters=30)
    seeds = [6, 0, 1, 2, 3, 4, 5, 7, 8]
    outcomes = []
    for seed in seeds:
        try:
            outcomes.append(reference_run(cfg, objective, seed))
        except ObjectiveError as err:
            outcomes.append(err)
    failed = [i for i, o in enumerate(outcomes) if isinstance(o, ObjectiveError)]
    lowest = failed[0]
    # the scenario is only a test if a later trial fails at an earlier iteration
    assert lowest > 0
    assert any(outcomes[i].iteration < outcomes[lowest].iteration for i in failed[1:])

    got = []
    with pytest.raises(ObjectiveError) as exc:
        for result in run_trials(cfg, objective, seeds):
            got.append(result)
    assert (exc.value.trial, exc.value.seed) == (lowest, seeds[lowest])
    assert str(exc.value) == f"trial {lowest} (seed {seeds[lowest]}): {outcomes[lowest]}"
    assert [r.f_bst for r in got] == [o.f_bst for o in outcomes[:lowest]]


# ---------------------------------------------------------------------------
# batched directions

@pytest.mark.parametrize("k", [1, 2, 3, 8, 9, 10, 16, 33, 100])
def test_batched_directions_equal_sample_direction_bitwise(k):
    """Three generators fill the first 499 of 500 rows of their slices (a
    strided view, as for the last chunk of a search); each slice holds its
    generator's one-at-a-time draws, and each stream goes on from there."""
    directions = np.empty((3, 500, k))
    rngs = [np.random.default_rng(k + i) for i in range(3)]
    sample_directions(rngs, directions[:, :499])
    for i, rng in enumerate(rngs):
        ref = np.random.default_rng(k + i)
        one_by_one = np.array([sample_direction(k, ref) for _ in range(499)])
        assert directions[i, :499].tobytes() == one_by_one.tobytes()
        assert rng.random() == ref.random()


class _ScriptedGenerator:
    """Hands out a fixed sequence of unit-interval draws; its state is the
    read position."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.state = 0

    def random(self, out):
        out[...] = self.values[self.state:self.state + out.size].reshape(out.shape)
        self.state += out.size

    def uniform(self, low, high, size):
        u = np.empty(size)
        self.random(out=u)
        return low + (high - low) * u


def test_batched_directions_redraw_short_rows():
    rows = np.array([[0.5, -0.5], [0.0, 0.0], [0.75, 0.25], [0.25, 0.5], [0.125, 0.75]])
    gen = _ScriptedGenerator(np.ravel((rows + 1.0) / 2.0))
    other = _ScriptedGenerator(np.ravel((rows[[2, 3, 4]] + 1.0) / 2.0))
    got = np.empty((2, 3, 2))
    sample_directions([gen, other], got)
    # the short row is rejected, so the chunk takes the next row instead
    want = np.array([row / np.linalg.norm(row) for row in rows[[0, 2, 3]]])
    assert got[0].tobytes() == want.tobytes()
    assert gen.state == 8  # four rows consumed, as by three sample_direction calls
    assert got[1].tobytes() == np.array([row / np.linalg.norm(row)
                                         for row in rows[[2, 3, 4]]]).tobytes()
    assert other.state == 6
