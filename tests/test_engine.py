"""The lockstep engine against the single-step reference, bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import basopt.core as core
from basopt import (
    BasConfig,
    IterationRecord,
    ObjectiveError,
    RunResult,
    SearchState,
    TERM_MAX_ITERS,
    TERM_STALLED,
    TERM_TARGET,
    bas_iterate,
    init_position,
    lookup_objective,
    run,
    sample_direction,
)
from basopt.core import run_trials, sample_directions
from basopt.objectives import michalewicz


def reference_run(config: BasConfig, objective, seed: int) -> RunResult:
    """One trial as a plain loop over ``bas_iterate``: the engine's spec."""
    rng = np.random.default_rng(seed)
    x = init_position(config, rng)
    f0 = float(objective(x))
    if not np.isfinite(f0):
        raise ObjectiveError(f0, x, 0)
    state = SearchState(t=0, x=x, d=config.d0, delta=config.delta0,
                        f_x=f0, x_bst=x.copy(), f_bst=f0, evals=1)
    records = []
    termination = TERM_MAX_ITERS
    stall = 0
    for _ in range(config.max_iters):
        f_bst_before = state.f_bst
        d_used, delta_used = state.d, state.delta
        try:
            bas_iterate(state, objective, rng, config)
        except ObjectiveError as err:
            raise ObjectiveError(err.value, err.x, state.t + 1) from None
        records.append(IterationRecord(
            t=state.t, f_x=state.f_x, f_bst=state.f_bst,
            d=d_used, delta=delta_used, x=tuple(float(v) for v in state.x)))
        if config.target_value is not None and state.f_bst <= config.target_value:
            termination = TERM_TARGET
            break
        if config.stall_iters is not None:
            stall = 0 if state.f_bst < f_bst_before else stall + 1
            if stall >= config.stall_iters:
                termination = TERM_STALLED
                break
    return RunResult(records=tuple(records),
                     x_bst=tuple(float(v) for v in state.x_bst),
                     f_bst=state.f_bst, evals=state.evals, termination=termination)


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
    block=st.sampled_from([1, 3, 64]),
    kept=st.sets(st.integers(0, 6)),
)
def test_engine_matches_reference_bit_for_bit(dim, name, clamp, target, stall, iters,
                                              seeds, block, kept):
    objective = _objective(name, dim)
    box = ((0.0, np.pi),) * dim if name != "sphere" else ((-1.0, 1.0),) * dim
    config = BasConfig(dimension=dim, init_box=box, clamp_box=box if clamp else None,
                       max_iters=iters, target_value=target, stall_iters=stall,
                       delta0=1.5)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_TRIAL_BLOCK", block)
        got = list(run_trials(config, objective, seeds, record=kept))
    assert len(got) == len(seeds)
    for i, (result, seed) in enumerate(zip(got, seeds)):
        want = reference_run(config, objective, seed)
        if i not in kept:
            want = RunResult(records=(), x_bst=want.x_bst, f_bst=want.f_bst,
                             evals=want.evals, termination=want.termination)
        # repr tells -0.0 from 0.0, so equal reprs mean equal bits
        assert repr(result) == repr(want)


def test_run_is_the_single_trial_engine():
    obj = lookup_objective("michalewicz", 2)
    cfg = BasConfig(dimension=2, init_box=obj.init_box, seed=99, stall_iters=10)
    assert repr(run(cfg, obj)) == repr(reference_run(cfg, obj, 99))


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
    for rec in result.records:
        b = sample_direction(2, rng)
        want += [tuple(x + d * b), tuple(x - d * b), rec.x]
        x = np.array(rec.x)
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
    assert exc.value.trial == lowest
    assert str(exc.value) == str(outcomes[lowest])
    assert [r.f_bst for r in got] == [o.f_bst for o in outcomes[:lowest]]


# ---------------------------------------------------------------------------
# batched directions

@pytest.mark.parametrize("k", [1, 2, 3, 8, 9, 10, 16, 33, 100])
def test_batched_directions_equal_sample_direction_bitwise(k):
    batch = sample_directions(k, np.random.default_rng(k), 500)
    rng = np.random.default_rng(k)
    one_by_one = np.array([sample_direction(k, rng) for _ in range(500)])
    assert batch.tobytes() == one_by_one.tobytes()


class _ScriptedGenerator:
    """Hands out a fixed sequence of uniform draws; its state is the read position."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.state = 0
        self.bit_generator = self

    def uniform(self, low, high, size):
        n = int(np.prod(size))
        out = self.values[self.state:self.state + n]
        self.state += n
        return out.reshape(size)


def test_batched_directions_redraw_short_rows():
    rows = [[0.3, -0.4], [1e-13, -1e-13], [0.5, 0.5], [0.1, 0.2], [0.7, 0.1]]
    gen = _ScriptedGenerator(np.ravel(rows))
    got = sample_directions(2, gen, 3)
    # the short row is rejected, so the chunk takes the next row instead
    want = np.array([row / np.linalg.norm(row) for row in np.array(rows)[[0, 2, 3]]])
    assert got.tobytes() == want.tobytes()
    assert gen.state == 8  # four rows consumed, as by three sample_direction calls
