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
    ScheduleSpec,
    TERM_MAX_ITERS,
    TERM_STALLED,
    TERM_TARGET,
    lookup_objective,
    run,
)
from basopt.core import (SearchState, bas_iterate, init_position, run_trials,
                         sample_direction, sample_directions)
from basopt.objectives import Objective, michalewicz


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
    record=st.integers(0, 8),
)
def test_engine_matches_reference_bit_for_bit(dim, name, clamp, target, stall, iters,
                                              seeds, block, chunk, record):
    objective = _objective(name, dim)
    box = ((0.0, np.pi),) * dim if name != "sphere" else ((-1.0, 1.0),) * dim
    config = BasConfig(dimension=dim, init_box=box, clamp_box=box if clamp else None,
                       max_iters=iters, target_value=target, stall_iters=stall,
                       delta0=1.5)
    with pytest.MonkeyPatch.context() as mp:
        # every trial alone; three unrecorded trials (fewer recorded ones) per
        # block; all trials in one block (each costs under 23 KB here)
        unrecorded = 8 * dim * (min(iters, chunk) + 2)
        budget = {"one": 1, "three": 3 * unrecorded, "all": core._BLOCK_BYTES}[block]
        mp.setattr(core, "_BLOCK_BYTES", budget)
        mp.setattr(core, "_DIRECTION_CHUNK", chunk)
        got = list(run_trials(config, objective, seeds, record=record))
    assert len(got) == len(seeds)
    for i, (result, seed) in enumerate(zip(got, seeds)):
        want = reference_run(config, objective, seed)
        if i >= record:
            assert result.trajectory.shape == (0, 4 + dim)
            want = dataclasses.replace(want, trajectory=np.empty((0, 4 + dim)))
        assert_same_result(result, want)


def test_trajectories_are_read_only_copies():
    """Each result owns its rows, so the block's history is freed with the block."""
    obj = lookup_objective("michalewicz", 3)
    cfg = BasConfig(dimension=3, init_box=obj.init_box, max_iters=12)
    results = list(run_trials(cfg, obj, [4, 5, 6], record=2))
    assert [r.trajectory.shape for r in results] == [(12, 7), (12, 7), (0, 7)]
    for r in results:
        assert r.trajectory.base is None or r.trajectory.size == 0
        assert not r.trajectory.flags.writeable


def _trial_bytes(config: BasConfig, kept: bool) -> int:
    """The engine's arrays for one trial: a chunk of directions and two
    antenna tips, plus history."""
    k, iters = config.dimension, config.max_iters
    return 8 * k * (min(iters, core._DIRECTION_CHUNK) + 2) + (8 * iters * (4 + k) if kept else 0)


@settings(max_examples=200, deadline=None)
@given(
    dim=st.integers(1, 40),
    iters=st.integers(1, 300),
    n=st.integers(0, 60),
    record=st.integers(0, 70),
    budget=st.integers(1, 1 << 17),
)
def test_blocks_partition_trials_within_budget(dim, iters, n, record, budget):
    config = BasConfig(dimension=dim, x0=(0.0,) * dim, max_iters=iters)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_BLOCK_BYTES", budget)
        blocks = list(core._blocks(config, n, record))
    assert [i for block in blocks for i in block] == list(range(n))
    cost = [_trial_bytes(config, i < record) for i in range(n)]
    for block, after in zip(blocks, blocks[1:] + [None]):
        size = sum(cost[i] for i in block)
        assert len(block) >= 1
        assert size <= budget or len(block) == 1
        if after is not None:  # a block ends only where the next trial would not fit
            assert size + cost[after.start] > budget


def test_block_sizes_of_the_campaign_workloads():
    mich2d = BasConfig(dimension=2, x0=(0.0, 0.0), max_iters=100)
    assert list(core._blocks(mich2d, 200, 0)) == [range(200)]
    mich10d = BasConfig(dimension=10, x0=(0.0,) * 10, max_iters=100)
    assert [len(b) for b in core._blocks(mich10d, 500, 500)] == [54] * 9 + [14]


@pytest.mark.parametrize("iters", [101, 1000, 10 ** 6])
def test_blocks_budget_the_full_history_of_recorded_trials(iters):
    """A history grows to ``max_iters`` rows when the search never stops
    early, so a block of recorded trials fits the budget at that length:
    ``run --dim 2 --iters 1000000 --trials 200 --traj all`` runs its trials
    one at a time, not 163 to a block (7.8 GB of history)."""
    config = BasConfig(dimension=2, x0=(0.0, 0.0), max_iters=iters)
    blocks = list(core._blocks(config, 200, 200))
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
        (result,) = run_trials(cfg, obj, [3], record=1)
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
    # numpy integer seeds run as the Python ints they equal
    want = list(run_trials(cfg, obj, seeds, record=3))
    got = list(run_trials(cfg, obj, np.array(seeds, dtype=np.uint64), record=3))
    assert [type(r.seed) for r in got] == [int] * 3
    assert got == want
    assert [r.trajectory.tobytes() for r in got] == [r.trajectory.tobytes() for r in want]


def test_seeds_of_2_to_the_64_and_more_run_as_default_rng_seeds_them():
    """A seed of 2^64 or more has three entropy words, so its block builds
    every generator with ``default_rng``; ``run`` and a block that mixes it
    with narrow seeds still equal the reference bit for bit."""
    obj = lookup_objective("michalewicz", 2)
    cfg = BasConfig(dimension=2, init_box=obj.init_box, seed=2 ** 64 + 1, stall_iters=10)
    assert_same_result(run(cfg, obj), reference_run(cfg, obj, 2 ** 64 + 1))
    seeds = [3, 2 ** 64 + 1, 0]
    got = list(run_trials(cfg, obj, seeds, record=3))
    assert len(got) == len(seeds)
    for result, seed in zip(got, seeds):
        assert_same_result(result, reference_run(cfg, obj, seed))


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


@pytest.mark.parametrize("batched", [True, False, None])
def test_an_objective_cannot_write_into_its_points(batched):
    """Each batch, and each row handed to a callable without ``batch``, is a
    read-only view: an objective that writes into its points raises, where
    it would otherwise move the live beetles and their tips. The reference
    ``bas_iterate`` (``batched=None``) hands its points the same way, and its
    state stays where it was."""
    def scribble(x):
        x[..., 0] = 0.0
        return np.add.reduce(x * x, axis=-1)

    box = ((0.0, 1.0),) * 2
    objective = Objective(name="scribble", dimension=2, fn=scribble, init_box=box)
    config = BasConfig(dimension=2, init_box=box, max_iters=5)
    if batched is None:
        state = SearchState(t=0, x=np.array([1.0, 1.0]), d=config.d0, delta=config.delta0,
                            f_x=2.0, x_bst=np.array([1.0, 1.0]), f_bst=2.0, evals=1)
        with pytest.raises(ValueError, match="read-only"):
            bas_iterate(state, scribble, np.random.default_rng(1), config)
        assert (state.t, state.x.tolist(), state.f_x) == (0, [1.0, 1.0], 2.0)
        return
    with pytest.raises(ValueError, match="read-only"):
        list(run_trials(config, objective if batched else scribble, [1, 2, 3]))


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


class _Cube:
    """Inverted bowl ``-sum(x*x)`` inside ``[-1, 1]^k`` and ``outside`` beyond
    it, as a batch objective that counts the points it is given."""
    def __init__(self, outside):
        self.outside = outside
        self.points = 0

    def __call__(self, x):
        return float(self.batch(np.asarray(x)[None])[0])

    def batch(self, points):
        self.points += len(points)
        values = -np.sum(points * points, axis=-1)
        return np.where(np.abs(points).max(axis=-1) > 1.0, self.outside, values)


@pytest.mark.parametrize("kind", ["batch", "callable"])
@pytest.mark.parametrize("outside", [np.inf, np.nan])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_a_failing_new_position_matches_the_reference(k, outside, kind):
    """Beetles climb out of the cube with a step much longer than their
    antennae, so some fail at a new position with both tips inside. The
    engine drops the failed rows after the position batch: the error and
    every earlier trial are the reference's, one trial per block or all in
    one. So are the points evaluated, but for the tips that the engine reads
    in the same batch as a failing point."""
    cube = _Cube(outside)
    objective = cube if kind == "batch" else cube.__call__
    constant = ScheduleSpec(1.0)
    cfg = BasConfig(dimension=k, init_box=((-0.6, 0.6),) * k, d0=0.01, delta0=0.12,
                    d_schedule=constant, delta_schedule=constant, max_iters=40)
    seeds = list(range(12))
    outcomes, points = [], []
    for seed in seeds:
        cube.points = 0
        try:
            outcomes.append(reference_run(cfg, objective, seed))
        except ObjectiveError as err:
            outcomes.append(err)
            # the reference stops after 3i - 1 points at a right tip, 3i at a
            # left one and 3i + 1 at a new position; the engine probes both
            # tips before it checks them, and a new position with the next tips
            if cube.points < 3 * err.iteration:
                cube.points += 1
            elif cube.points > 3 * err.iteration and err.iteration < cfg.max_iters:
                cube.points += 2
        points.append(cube.points)
    failed = [o for o in outcomes if isinstance(o, ObjectiveError)]
    # a tip lies within d = 0.01 of a position inside the cube; a new position
    # 0.12 away may not
    assert any(np.abs(err.x).max() > 1.01 for err in failed)
    lowest = outcomes.index(failed[0])
    want = failed[0]
    # every trial alone, up to the failing one; all trials in one block
    for budget, last in ((1, lowest), (core._BLOCK_BYTES, len(seeds) - 1)):
        got = []
        cube.points = 0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_BLOCK_BYTES", budget)
            with pytest.raises(ObjectiveError) as exc:
                for result in run_trials(cfg, objective, seeds, record=len(seeds)):
                    got.append(result)
        err = exc.value
        assert (err.trial, err.seed, err.iteration) == (lowest, seeds[lowest], want.iteration)
        assert repr(err.value) == repr(want.value)
        assert err.x.tobytes() == want.x.tobytes()
        assert len(got) == lowest
        for result, reference in zip(got, outcomes):
            assert_same_result(result, reference)
        assert cube.points == sum(points[:last + 1])


# ---------------------------------------------------------------------------
# compaction: rows that stop or fail leave the block's live arrays

class _Counted:
    """A batch objective that counts its calls and the points it is given."""
    def __init__(self, batch):
        self._batch = batch
        self.points = 0
        self.calls = 0

    def __call__(self, x):
        return float(self.batch(np.asarray(x)[None])[0])

    def batch(self, points):
        self.points += len(points)
        self.calls += 1
        return self._batch(points)


def _ledge(points):
    """1-D: 0 left of 0, -x on [0, 1] and inf right of 1. A beetle on the
    slope climbs right until it fails; one on the flat with both tips on it
    stays where it is."""
    x = points[:, 0]
    return np.where(x > 1.0, np.inf, np.where(x < 0.0, 0.0, -x))


def _single_runs(config, objective, seeds, record):
    """Each seed as a block of its own, recorded if it is one of the first
    ``record``: its result or error, and the points it evaluated."""
    outcomes, points = [], []
    for i, seed in enumerate(seeds):
        objective.points = 0
        try:
            (result,) = run_trials(config, objective, [seed], record=int(i < record))
            outcomes.append(result)
        except ObjectiveError as err:
            outcomes.append(err)
        points.append(objective.points)
    return outcomes, points


def _assert_block_matches_single_runs(config, objective, seeds, record=0):
    """Run ``seeds`` as one block: every result before the lowest failing
    trial, that trial's error, and the points evaluated over the whole block
    are those of the single-trial runs. Returns the single-trial outcomes
    and points."""
    assert len(list(core._blocks(config, len(seeds), record))) == 1
    outcomes, points = _single_runs(config, objective, seeds, record)
    objective.points = 0
    got, error = [], None
    try:
        for result in run_trials(config, objective, seeds, record=record):
            got.append(result)
    except ObjectiveError as err:
        error = err
    failed = [i for i, o in enumerate(outcomes) if isinstance(o, ObjectiveError)]
    lowest = failed[0] if failed else len(seeds)
    assert len(got) == lowest
    for result, want in zip(got, outcomes):
        assert_same_result(result, want)
    if failed:
        want = outcomes[lowest]
        assert (error.trial, error.seed, error.iteration) == (lowest, seeds[lowest],
                                                              want.iteration)
        assert repr(error.value) == repr(want.value)
        assert error.x.tobytes() == want.x.tobytes()
    else:
        assert error is None
    assert objective.points == sum(points)
    return outcomes, points


@pytest.mark.parametrize("rule", ["stall", "target"])
def test_every_row_stops_on_the_same_iteration(rule):
    """On a flat objective no beetle moves or improves, so all stall on
    iteration 4; with a target above every value, all reach it on
    iteration 1. The block ends there, with all its rows compacted away."""
    if rule == "stall":
        objective = _Counted(lambda points: np.zeros(len(points)))
        config = BasConfig(dimension=3, init_box=((-1.0, 1.0),) * 3, stall_iters=4,
                           max_iters=30)
        stopped, iterations = TERM_STALLED, 4
    else:
        objective = _Counted(lambda points: np.sum(points * points, axis=-1))
        config = BasConfig(dimension=3, init_box=((-1.0, 1.0),) * 3, target_value=10.0,
                           max_iters=30)
        stopped, iterations = TERM_TARGET, 1
    outcomes, _ = _assert_block_matches_single_runs(config, objective, list(range(9)),
                                                    record=5)
    assert {(o.termination, o.evals) for o in outcomes} == {(stopped, 1 + 3 * iterations)}


_CONSTANT = ScheduleSpec(1.0)


def test_a_row_fails_at_its_tips_on_the_iteration_a_neighbour_stalls():
    """With d >= delta, a beetle on the ledge's slope fails at a tip, never
    at its new position. Seed 21 fails at its tips on iteration 3, the
    iteration on which seeds 2, 3 and 8 stall on the flat; seed 6 runs on
    past both until its own failure."""
    objective = _Counted(_ledge)
    config = BasConfig(dimension=1, init_box=((-1.0, 1.0),), d0=0.3, delta0=0.1,
                       d_schedule=_CONSTANT, delta_schedule=_CONSTANT, stall_iters=3,
                       max_iters=20)
    seeds = [2, 21, 3, 8, 6]
    outcomes, points = _assert_block_matches_single_runs(config, objective, seeds,
                                                         record=3)
    assert {(outcomes[i].termination, outcomes[i].evals) for i in (0, 2, 3)} == {
        (TERM_STALLED, 1 + 3 * 3)}
    failure = outcomes[1]
    assert failure.iteration == 3
    assert points[1] == 3 * failure.iteration  # both tips probed, no new position
    assert isinstance(outcomes[4], ObjectiveError) and outcomes[4].iteration > 3


def test_a_row_fails_at_its_new_position_in_a_block_that_runs_on():
    """With delta >> d, a beetle on the ledge's slope can step off it with
    both tips on it. Seed 0 fails so on iteration 3, in the middle of a block
    whose beetles on the flat run on to max_iters."""
    objective = _Counted(_ledge)
    config = BasConfig(dimension=1, init_box=((-1.0, 1.0),), d0=0.05, delta0=0.3,
                       d_schedule=_CONSTANT, delta_schedule=_CONSTANT, max_iters=12)
    seeds = [2, 3, 0, 8, 11]
    outcomes, points = _assert_block_matches_single_runs(config, objective, seeds,
                                                         record=4)
    failure = outcomes[2]
    assert failure.iteration == 3
    # both tips, then the new position with the next tips
    assert points[2] == 3 * failure.iteration + 3
    assert failure.x[0] > 1.0 + config.d0
    for i in (0, 1, 3, 4):
        assert (outcomes[i].termination, outcomes[i].evals) == (TERM_MAX_ITERS, 1 + 3 * 12)


# ---------------------------------------------------------------------------
# look-ahead: a batch of positions carries the next iteration's tips

@pytest.mark.parametrize("iters", [1, 2, 99, 100, 101, 250])
@pytest.mark.parametrize("clamp", [False, True])
def test_without_a_stop_rule_a_block_makes_one_batch_per_iteration(iters, clamp):
    """The start points go with the first tips, and each new position but
    the last with the next tips: ``iters + 1`` calls, and no point more than
    the reference evaluates, across direction chunks and history doublings."""
    objective = _Counted(lookup_objective("michalewicz", 2).batch)
    box = ((0.0, np.pi),) * 2
    config = BasConfig(dimension=2, init_box=box, clamp_box=box if clamp else None,
                       max_iters=iters)
    seeds = list(range(40, 57))
    results = list(run_trials(config, objective, seeds, record=5))
    assert objective.calls == iters + 1
    assert objective.points == len(seeds) * (1 + 3 * iters) == sum(r.evals for r in results)
    for result, seed in zip(results[:5], seeds):
        assert_same_result(result, reference_run(config, objective, seed))


@pytest.mark.parametrize("rule", ["stall", "target"])
def test_with_a_stop_rule_a_block_reads_each_iterations_tips_apart(rule):
    """A row that may stop needs no tips beyond its last iteration, so only
    the start batch reads tips ahead: a block that runs T iterations makes
    a call for the start and its tips, one for the first positions, then
    two an iteration, 2·T in all, and evaluates the reference's points."""
    objective = _Counted(lookup_objective("michalewicz", 2).batch)
    rules = {"stall": {"stall_iters": 6}, "target": {"target_value": -1.75}}[rule]
    config = BasConfig(dimension=2, init_box=((0.0, np.pi),) * 2, max_iters=150, **rules)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_DIRECTION_CHUNK", 7)
        results = list(run_trials(config, objective, list(range(60)), record=60))
    ran = [(r.evals - 1) // 3 for r in results]
    assert len(set(ran)) > 5
    assert objective.calls == 2 * max(ran)
    assert objective.points == sum(r.evals for r in results)


def test_a_row_fails_at_a_look_ahead_tip_in_a_block_that_runs_on():
    """With d >= delta and no stop rule, a beetle on the ledge's slope fails
    at a tip of iteration 6 that was read with its new position of iteration
    5: seed 7 at its left tip, seed 0 at its right. The beetles on the flat
    run on to max_iters; the error and every earlier result are the
    reference's."""
    objective = _Counted(_ledge)
    config = BasConfig(dimension=1, init_box=((-1.0, 1.0),), d0=0.3, delta0=0.1,
                       d_schedule=_CONSTANT, delta_schedule=_CONSTANT, max_iters=20)
    seeds = [2, 3, 7, 8, 0, 11]
    outcomes, points = _assert_block_matches_single_runs(config, objective, seeds,
                                                         record=len(seeds))
    assert [o.iteration for o in outcomes if isinstance(o, ObjectiveError)] == [6, 6]
    assert points[2] == points[4] == 3 * 6  # both tips read with the position before
    for i, outcome in enumerate(outcomes):
        try:
            want = reference_run(config, objective, seeds[i])
        except ObjectiveError as err:
            want = err
        if isinstance(want, ObjectiveError):
            assert (outcome.iteration, repr(outcome.value)) == (want.iteration, repr(want.value))
            assert outcome.x.tobytes() == want.x.tobytes()
        else:
            assert_same_result(outcome, want)
            assert (want.termination, want.evals) == (TERM_MAX_ITERS, 1 + 3 * 20)


class _Walls:
    """1-D inverted bowl, +inf right of 1 and -inf left of -1."""
    def __call__(self, x):
        return float(self.batch(np.asarray(x)[None])[0])

    def batch(self, points):
        x = points[:, 0]
        return np.where(x > 1.0, np.inf, np.where(x < -1.0, -np.inf, -x * x))


@pytest.mark.parametrize("batch", ["start", "look-ahead"])
def test_when_both_tips_fail_the_right_one_is_reported(batch):
    """Both antennae of every beetle reach past the walls on iteration 1
    (read with the start points) or 2 (read with the first new positions):
    the error is the reference's, x + d*b, whichever wall that is."""
    d0, d_schedule = {"start": (5.0, _CONSTANT),
                      "look-ahead": (0.01, ScheduleSpec(1.0, 5.0))}[batch]
    config = BasConfig(dimension=1, init_box=((-0.5, 0.5),), d0=d0, delta0=0.01,
                       d_schedule=d_schedule, max_iters=10)
    seeds = [0, 2, 1]
    with pytest.raises(ObjectiveError) as exc:
        list(run_trials(config, _Walls(), seeds))
    with pytest.raises(ObjectiveError) as ref:
        reference_run(config, _Walls(), seeds[0])
    want = ref.value
    assert exc.value.iteration == want.iteration == {"start": 1, "look-ahead": 2}[batch]
    assert (exc.value.trial, repr(exc.value.value)) == (0, repr(want.value))
    assert exc.value.x.tobytes() == want.x.tobytes()


def test_the_recorded_prefix_and_the_rest_each_stop_first():
    """The first 16 of 30 trials are recorded. Rows stop by target and by
    stall on many iterations, across chunks of 7 directions, and the rest
    run to max_iters. A recorded row stops first, while every unrecorded
    row and the first unrecorded trial run on; then unrecorded rows stop
    while recorded ones run on, and a recorded row outlives them all. So
    the boundary between the live recorded and unrecorded rows moves in
    compactions on either side of it."""
    objective = _Counted(lookup_objective("michalewicz", 2).batch)
    config = BasConfig(dimension=2, init_box=((0.0, np.pi),) * 2, d0=0.5, delta0=0.3,
                       target_value=-1.7, stall_iters=15, max_iters=40)
    seeds = list(range(100, 130))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_DIRECTION_CHUNK", 7)
        outcomes, _ = _assert_block_matches_single_runs(config, objective, seeds, record=16)
    ends = {(o.termination, o.evals) for o in outcomes}
    assert {term for term, _ in ends} == {TERM_TARGET, TERM_STALLED, TERM_MAX_ITERS}
    assert len({evals for term, evals in ends if term != TERM_MAX_ITERS}) >= 6
    recorded, rest = [o.evals for o in outcomes[:16]], [o.evals for o in outcomes[16:]]
    assert min(recorded) < min(rest) < max(rest) < max(recorded)
    assert outcomes[16].evals > min(recorded)


def test_a_block_whose_last_live_row_stops_before_max_iters():
    """All rows stall long before max_iters: the block ends with its last
    stop and evaluates nothing after it."""
    objective = _Counted(lookup_objective("michalewicz", 2).batch)
    config = BasConfig(dimension=2, init_box=((0.0, np.pi),) * 2, stall_iters=2,
                       max_iters=500)
    outcomes, points = _assert_block_matches_single_runs(config, objective,
                                                         list(range(12)), record=12)
    assert {o.termination for o in outcomes} == {TERM_STALLED}
    assert max(o.evals for o in outcomes) < 1 + 3 * config.max_iters // 10
    assert len({o.evals for o in outcomes}) > 1
    assert points == [o.evals for o in outcomes]


# ---------------------------------------------------------------------------
# batched directions

@pytest.mark.parametrize("k", [1, 2, 3, 7, 8, 9, 10, 16, 33, 100])
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
