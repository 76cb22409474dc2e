"""Unit tests for the search state machine."""

import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import basopt.core as core
from basopt import BasConfig, ObjectiveError, ScheduleSpec, derive_trial_seed, run
from basopt.core import (
    SearchState,
    _generators,
    advance_schedule,
    antenna_probe,
    bas_iterate,
    derive_trial_seeds,
    detect_step,
    init_position,
    run_trials,
    sample_direction,
)
from basopt.objectives import michalewicz, sphere


# ---------------------------------------------------------------------------
# sample_direction

def test_direction_unit_norm_many_draws():
    rng = np.random.default_rng(123)
    for k in (1, 2, 5, 30):
        for _ in range(2500):
            b = sample_direction(k, rng)
            assert b.shape == (k,)
            assert abs(np.linalg.norm(b) - 1.0) <= 1e-9


def test_direction_1d_is_sign():
    rng = np.random.default_rng(7)
    for _ in range(50):
        b = sample_direction(1, rng)
        assert b[0] in (1.0, -1.0)


def test_direction_deterministic_given_seed():
    for k in (1, 3, 8):
        b1 = sample_direction(k, np.random.default_rng(99))
        b2 = sample_direction(k, np.random.default_rng(99))
        assert np.array_equal(b1, b2)


def test_direction_rejects_bad_k():
    with pytest.raises(ValueError):
        sample_direction(0, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# antenna_probe

def test_probe_zero_length():
    x_r, x_l = antenna_probe(np.zeros(2), 0.0, np.array([0.6, 0.8]))
    assert np.array_equal(x_r, np.zeros(2))
    assert np.array_equal(x_l, np.zeros(2))


def test_probe_axis_aligned():
    x_r, x_l = antenna_probe(np.zeros(2), 1.0, np.array([1.0, 0.0]))
    assert np.array_equal(x_r, [1.0, 0.0])
    assert np.array_equal(x_l, [-1.0, 0.0])


def test_probe_offset_case():
    x_r, x_l = antenna_probe(np.array([2.0, 3.0]), 0.5, np.array([0.0, 1.0]))
    assert np.array_equal(x_r, [2.0, 3.5])
    assert np.array_equal(x_l, [2.0, 2.5])


def test_probe_dimension_mismatch():
    with pytest.raises(ValueError):
        antenna_probe(np.zeros(2), 1.0, np.zeros(3))


@settings(max_examples=200, deadline=None)
@given(
    k=st.integers(1, 6),
    d=st.floats(0.0, 1e3),
    data=st.data(),
)
def test_probe_symmetry(k, d, data):
    coords = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    x = np.array(data.draw(st.lists(coords, min_size=k, max_size=k)))
    raw = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=k, max_size=k)))
    norm = np.linalg.norm(raw)
    if norm < 1e-6:
        raw[0] = 1.0
        norm = np.linalg.norm(raw)
    b = raw / norm
    x_r, x_l = antenna_probe(x, d, b)
    scale = np.abs(x).max() + d + 1.0
    assert np.allclose((x_r + x_l) / 2.0, x, rtol=0.0, atol=1e-9 * scale)
    assert np.allclose(x_r - x_l, 2.0 * d * b, rtol=0.0, atol=1e-9 * scale)


# ---------------------------------------------------------------------------
# detect_step

def test_step_equal_antennae_is_identity():
    x = np.array([1.5, -2.5, 0.25])
    b = np.array([1.0, 0.0, 0.0])
    out = detect_step(x, 0.7, b, 4.2, 4.2)
    assert np.array_equal(out, x)


def test_step_moves_toward_lower_antenna():
    b = np.array([1.0, 0.0])
    # right antenna worse: move left
    assert np.array_equal(detect_step(np.zeros(2), 0.5, b, 2.0, 1.0), [-0.5, 0.0])
    # left antenna worse: move right
    assert np.array_equal(detect_step(np.zeros(2), 0.5, b, 1.0, 2.0), [0.5, 0.0])


def test_step_rejects_non_finite_values():
    b = np.array([1.0])
    with pytest.raises(ObjectiveError):
        detect_step(np.zeros(1), 0.5, b, float("nan"), 1.0)
    with pytest.raises(ObjectiveError):
        detect_step(np.zeros(1), 0.5, b, 1.0, float("inf"))


@settings(max_examples=300, deadline=None)
@given(
    c=st.floats(-1e3, 1e3).filter(lambda v: abs(v) > 1e-9),
    x=st.floats(-1e3, 1e3),
    d=st.floats(1e-6, 10.0),
    delta=st.floats(0.0, 10.0),
    right=st.booleans(),
)
def test_step_never_ascends_on_linear_function(c, x, d, delta, right):
    # On f(t) = c*t the probe/step pair must pick the descent side.
    b = np.array([1.0 if right else -1.0])
    x_r, x_l = antenna_probe(np.array([x]), d, b)
    new = detect_step(np.array([x]), delta, b, c * x_r[0], c * x_l[0])
    assert c * new[0] <= c * x + 1e-9 * max(1.0, abs(c * x))


# ---------------------------------------------------------------------------
# schedules

def test_schedule_examples():
    assert advance_schedule(2.0, ScheduleSpec(0.95, 0.01)) == 1.91
    assert advance_schedule(0.5, ScheduleSpec(0.95)) == 0.475
    assert advance_schedule(0.7, ScheduleSpec(1.0)) == 0.7


def test_schedule_offset_fixed_point():
    spec = ScheduleSpec(0.95, 0.01)
    assert spec.fixed_point() == pytest.approx(0.2)
    for start in (2.0, 0.0, 17.0):
        v = start
        for _ in range(400):
            v = advance_schedule(v, spec)
        assert abs(v - 0.2) <= 1e-6
    assert ScheduleSpec(0.95).fixed_point() == 0.0
    assert ScheduleSpec(1.0).fixed_point() is None
    assert ScheduleSpec(1.0, 0.5).fixed_point() is None


def test_schedule_geometric_strictly_decreasing_and_positive():
    spec = ScheduleSpec(0.95)
    v = 0.5
    for _ in range(500):
        nxt = advance_schedule(v, spec)
        assert 0.0 < nxt < v
        v = nxt


@settings(max_examples=500, deadline=None)
@given(
    v=st.floats(min_value=0.0, allow_nan=False)
    | st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1e-310, 1.7976931348623157e308]),
    r=st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
    | st.sampled_from([5e-324, 0.5, 0.95, 1.0]),
)
def test_schedule_without_offset_is_the_bare_product(v, r):
    # rate*v + 0.0 is rate*v bit for bit, and rate 1 is the identity,
    # at zero, subnormals and huge values alike (v = inf included)
    assert advance_schedule(v, ScheduleSpec(r)).hex() == (r * v).hex()
    assert advance_schedule(v, ScheduleSpec(1.0)).hex() == v.hex()


def test_schedule_validation():
    with pytest.raises(ValueError, match="^rate must be in"):
        ScheduleSpec(rate=0.0)
    with pytest.raises(ValueError, match="^rate must be in"):
        ScheduleSpec(rate=1.2)
    with pytest.raises(ValueError, match="^rate must be in"):
        ScheduleSpec(rate=-0.5, offset=0.1)
    with pytest.raises(ValueError, match="^rate must be in"):
        ScheduleSpec(rate=float("nan"))
    with pytest.raises(ValueError, match="^offset must be finite and >= 0"):
        ScheduleSpec(rate=0.9, offset=-0.1)
    with pytest.raises(ValueError, match="^offset must be finite and >= 0"):
        ScheduleSpec(rate=1.0, offset=float("nan"))
    with pytest.raises(ValueError, match="^offset must be finite and >= 0, got inf$"):
        ScheduleSpec(rate=0.9, offset=float("inf"))
    with pytest.raises(ValueError):
        advance_schedule(-1.0, ScheduleSpec(0.95))
    # the edges of the ranges are valid
    assert ScheduleSpec(rate=1.0, offset=0.0) == ScheduleSpec(1.0)
    assert ScheduleSpec(rate=5e-324, offset=1e308).offset == 1e308


# ---------------------------------------------------------------------------
# init_position / BasConfig

def test_init_explicit_passthrough():
    cfg = BasConfig(dimension=2, x0=(1.0, 2.0))
    x = init_position(cfg, np.random.default_rng(0))
    assert np.array_equal(x, [1.0, 2.0])


def test_init_degenerate_box():
    cfg = BasConfig(dimension=2, init_box=((0.0, 0.0), (0.0, 0.0)))
    x = init_position(cfg, np.random.default_rng(0))
    assert np.array_equal(x, [0.0, 0.0])


def test_init_box_reproducible_and_contained():
    cfg = BasConfig(dimension=2, init_box=((0.0, np.pi), (0.0, np.pi)), seed=5)
    x1 = init_position(cfg, np.random.default_rng(5))
    x2 = init_position(cfg, np.random.default_rng(5))
    assert np.array_equal(x1, x2)
    assert np.all(x1 >= 0.0) and np.all(x1 <= np.pi)


_BOUNDS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 8e307, -8e307]))


@st.composite
def _init_boxes(draw):
    """Per-axis (lo, hi) with a finite width: degenerate, negative, subnormal
    and near-overflow bounds included."""
    box = []
    for _ in range(draw(st.integers(1, 8))):
        a = draw(_BOUNDS)
        b = draw(st.one_of(st.just(a), _BOUNDS))
        lo, hi = min(a, b), max(a, b)
        if not np.isfinite(hi - lo):
            hi = lo
        box.append((lo, hi))
    return tuple(box)


@settings(max_examples=400, deadline=None)
@given(box=_init_boxes(), seed=st.integers(0, 2 ** 64 - 1))
def test_init_draw_matches_rng_uniform_bitwise(box, seed):
    """The start is lo + (hi - lo) * u from the stream rng.uniform reads:
    the same bytes, and the generator left in the same state."""
    cfg = BasConfig(dimension=len(box), init_box=box)
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    x = init_position(cfg, rng)
    expected = ref.uniform(*np.asarray(box).T)
    assert x.tobytes() == expected.tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state


def test_config_validation():
    with pytest.raises(ValueError):
        BasConfig(dimension=0, x0=())
    with pytest.raises(ValueError):
        BasConfig(dimension=1, x0=(0.0,), d0=0.0)
    with pytest.raises(ValueError):
        BasConfig(dimension=1, x0=(0.0,), delta0=-1.0)
    with pytest.raises(ValueError):
        BasConfig(dimension=1, x0=(0.0,), max_iters=0)
    with pytest.raises(ValueError, match=f"^max_iters must be <= {sys.maxsize}, got {10 ** 20}$"):
        BasConfig(dimension=1, x0=(0.0,), max_iters=10 ** 20, stall_iters=1)
    assert BasConfig(dimension=1, x0=(0.0,), max_iters=sys.maxsize).max_iters == sys.maxsize
    with pytest.raises(ValueError):
        BasConfig(dimension=2)  # neither x0 nor init_box
    with pytest.raises(ValueError):
        BasConfig(dimension=2, x0=(0.0, 0.0), init_box=((0, 1), (0, 1)))  # both
    with pytest.raises(ValueError):
        BasConfig(dimension=2, x0=(0.0,))  # wrong length
    with pytest.raises(ValueError):
        BasConfig(dimension=2, init_box=((1.0, 0.0), (0.0, 1.0)))  # lo > hi
    with pytest.raises(ValueError):
        BasConfig(dimension=1, init_box=((0, 1), (0, 1)))  # box/dimension mismatch
    with pytest.raises(ValueError, match="clamp_box width"):
        BasConfig(dimension=2, x0=(0.0, 0.0), clamp_box=((0, 1), (-1e308, 1e308)))
    with pytest.raises(ValueError):
        BasConfig(dimension=1, x0=(0.0,), stall_iters=0)
    for name in ("d0", "delta0"):
        with pytest.raises(ValueError, match=f"^{name} must be finite and > 0, got inf$"):
            BasConfig(dimension=1, x0=(0.0,), **{name: float("inf")})
    for target in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="^target_value must be finite"):
            BasConfig(dimension=1, x0=(0.0,), target_value=target)


# ---------------------------------------------------------------------------
# bas_iterate

def _fresh_state(x, objective, d=1.0, delta=0.5):
    x = np.asarray(x, dtype=float)
    f0 = float(objective(x))
    return SearchState(t=0, x=x, d=d, delta=delta, f_x=f0,
                       x_bst=x.copy(), f_bst=f0, evals=1)


def test_iterate_constant_objective_never_moves():
    objective = lambda x: 4.0
    cfg = BasConfig(dimension=3, x0=(0.5, 0.5, 0.5))
    state = _fresh_state([0.5, 0.5, 0.5], objective)
    rng = np.random.default_rng(11)
    for _ in range(20):
        bas_iterate(state, objective, rng, cfg)
        assert np.array_equal(state.x, [0.5, 0.5, 0.5])
    assert state.f_bst == 4.0


def test_iterate_evals_and_best_monotone():
    objective = sphere
    cfg = BasConfig(dimension=2, x0=(1.0, 1.0))
    state = _fresh_state([1.0, 1.0], objective)
    rng = np.random.default_rng(3)
    for i in range(50):
        before = state.f_bst
        bas_iterate(state, objective, rng, cfg)
        assert state.evals == 1 + 3 * (i + 1)
        assert state.f_bst <= before
        assert state.t == i + 1


def test_iterate_advances_schedules():
    objective = sphere
    cfg = BasConfig(dimension=2, x0=(1.0, 1.0))
    state = _fresh_state([1.0, 1.0], objective, d=2.0, delta=0.5)
    bas_iterate(state, objective, np.random.default_rng(0), cfg)
    assert state.d == 1.91
    assert state.delta == 0.475


def test_iterate_clamps_to_box():
    objective = sphere
    box = ((0.4, 0.6), (0.4, 0.6))
    cfg = BasConfig(dimension=2, x0=(0.5, 0.5), clamp_box=box, delta0=5.0)
    state = _fresh_state([0.5, 0.5], objective, d=1.0, delta=5.0)
    rng = np.random.default_rng(2)
    for _ in range(10):
        bas_iterate(state, objective, rng, cfg)
        assert np.all(state.x >= 0.4) and np.all(state.x <= 0.6)


def test_iterate_failure_leaves_state_untouched():
    calls = {"n": 0}

    def flaky(x):
        calls["n"] += 1
        return float("nan") if calls["n"] > 2 else float(sphere(x))

    cfg = BasConfig(dimension=2, x0=(1.0, 1.0))
    state = _fresh_state([1.0, 1.0], sphere)
    snapshot = (state.t, state.x.copy(), state.d, state.delta,
                state.f_x, state.x_bst.copy(), state.f_bst, state.evals)
    with pytest.raises(ObjectiveError):
        bas_iterate(state, flaky, np.random.default_rng(0), cfg)
    assert state.t == snapshot[0]
    assert np.array_equal(state.x, snapshot[1])
    assert state.d == snapshot[2] and state.delta == snapshot[3]
    assert state.f_x == snapshot[4]
    assert np.array_equal(state.x_bst, snapshot[5])
    assert state.f_bst == snapshot[6] and state.evals == snapshot[7]


# ---------------------------------------------------------------------------
# run

def test_run_single_iteration_accounting():
    cfg = BasConfig(dimension=2, x0=(1.0, 1.0), max_iters=1)
    res = run(cfg, sphere)
    assert len(res.trajectory) == 1
    assert res.evals == 4
    assert res.termination == "max_iters"


def test_run_sphere_improves_from_start():
    cfg = BasConfig(dimension=2, x0=(1.0, 1.0), d0=1.0, delta0=0.5,
                    max_iters=100, seed=0)
    res = run(cfg, sphere)
    assert res.f_bst < 2.0  # strictly below f((1,1))


def test_run_deterministic_bit_identical():
    cfg = BasConfig(dimension=2, init_box=((0.0, np.pi),) * 2, seed=314)
    from basopt.objectives import michalewicz
    assert run(cfg, michalewicz) == run(cfg, michalewicz)


def test_run_best_monotone_and_consistent():
    from basopt import lookup_objective
    obj = lookup_objective("michalewicz", 2)
    cfg = BasConfig(dimension=2, init_box=obj.init_box, seed=8)
    res = run(cfg, obj)
    f_bsts = res.trajectory[:, 1].tolist()
    assert all(b <= a for a, b in zip(f_bsts, f_bsts[1:]))
    assert f_bsts[-1] == res.f_bst
    assert res.trajectory[:, 0].min() >= res.f_bst
    # stored best is reproduced exactly by re-evaluation
    assert obj(np.array(res.x_bst)) == res.f_bst


def test_run_evaluation_accounting():
    for iters in (1, 7, 100):
        cfg = BasConfig(dimension=2, x0=(0.3, 0.3), max_iters=iters, seed=1)
        res = run(cfg, sphere)
        assert res.evals == 1 + 3 * len(res.trajectory)


def test_run_target_early_stop():
    cfg = BasConfig(dimension=2, x0=(1.0, 1.0), target_value=0.5, seed=0)
    res = run(cfg, sphere)
    assert res.termination == "target_reached"
    assert res.f_bst <= 0.5
    assert len(res.trajectory) < 100


def test_run_stall_early_stop():
    cfg = BasConfig(dimension=2, x0=(1.0, 1.0), stall_iters=5, seed=0)
    res = run(cfg, lambda x: 1.0)
    assert res.termination == "stalled"
    assert len(res.trajectory) == 5


def test_run_positive_scaling_leaves_trajectory_unchanged():
    from basopt.objectives import michalewicz
    scaled = lambda x: 3.7 * michalewicz(x)
    cfg = BasConfig(dimension=2, init_box=((0.0, np.pi),) * 2, seed=21)
    res_plain = run(cfg, michalewicz)
    res_scaled = run(cfg, scaled)
    assert res_plain.trajectory[:, 4:].tolist() == res_scaled.trajectory[:, 4:].tolist()
    assert res_scaled.x_bst == res_plain.x_bst


def test_run_error_carries_iteration_index():
    calls = {"n": 0}

    def dies_late(x):
        calls["n"] += 1
        return float("inf") if calls["n"] > 7 else float(sphere(x))

    cfg = BasConfig(dimension=2, x0=(1.0, 1.0), seed=0)
    with pytest.raises(ObjectiveError) as exc:
        run(cfg, dies_late)
    # call 8 is the first probe of iteration 3 (1 init + 3 per iteration)
    assert exc.value.iteration == 3


def test_trial_seed_derivation_stable():
    seeds = [derive_trial_seed(42, i) for i in range(5)]
    assert seeds == [derive_trial_seed(42, i) for i in range(5)]
    assert len(set(seeds)) == 5
    assert derive_trial_seed(42, 0) != derive_trial_seed(43, 0)


# Masters at the edges of 1, 2 and 3 entropy words, and far beyond.
_MASTERS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 64 + 5, 2 ** 200]


@settings(max_examples=60, deadline=None)
@given(master=st.sampled_from(_MASTERS) | st.integers(0, 2 ** 96), trials=st.integers(1, 300))
def test_block_trial_seeds_equal_derive_trial_seed(master, trials):
    seeds = derive_trial_seeds(master, trials)
    assert seeds == [derive_trial_seed(master, i) for i in range(trials)]
    assert all(type(seed) is int for seed in seeds)


# Seeds of 1, 2 and 3 entropy words; each group's rows are hashed together.
_SEEDS = st.one_of(st.integers(0, 2 ** 32 - 1), st.integers(2 ** 32, 2 ** 64 - 1),
                   st.integers(2 ** 64, 2 ** 96 - 1), st.sampled_from(_MASTERS))


@settings(max_examples=60, deadline=None)
@given(seeds=st.lists(_SEEDS, min_size=1, max_size=40))
def test_block_generators_equal_default_rng(seeds):
    for seed, rng in zip(seeds, _generators(seeds)):
        assert rng.random(64).tobytes() == np.random.default_rng(seed).random(64).tobytes()


@pytest.mark.parametrize("values, passes", [
    ([2 ** 32, 2 ** 40 + 3, 2 ** 64 - 1], 1),
    ([0, 1, 2 ** 32 - 1], 1),
    ([2 ** 32 - 1, 2 ** 32, 5, 2 ** 63], 2),
], ids=["all-two-word", "all-one-word", "mixed"])
def test_seed_states_hash_only_the_groups_that_hold_values(monkeypatch, values, passes):
    """Values of one and of two entropy words are hashed in a pass per group,
    and an empty group is not hashed; every row is ``SeedSequence``'s state."""
    calls = []
    states = core._states
    monkeypatch.setattr(core, "_states", lambda *args: calls.append(1) or states(*args))
    got = core._seed_states((), np.array(values, dtype=np.uint64), 4)
    assert len(calls) == passes
    for v, row in zip(values, got):
        assert row.tobytes() == np.random.SeedSequence(v).generate_state(4, np.uint64).tobytes()


def test_a_million_trial_seeds_peak_below_96_mib():
    """The seeds of a million trials are hashed as uint64 words, in one pass
    of arrays: the ``tracemalloc`` peak, the returned list of ints included,
    stays below 96 MiB (per-value grouping of their entropy bytes peaked at
    173.5 MiB), and a sample of them is ``derive_trial_seed``'s."""
    tracemalloc.start()
    try:
        seeds = derive_trial_seeds(0, 10 ** 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 96 << 20
    assert len(seeds) == 10 ** 6
    sample = range(0, 10 ** 6, 99_991)
    assert [seeds[i] for i in sample] == [derive_trial_seed(0, i) for i in sample]


_NOT_A_SEED = "seed must be a non-negative integer"


@pytest.mark.parametrize("seed", [-1, 1.5, np.bool_(True), "7"])
def test_block_generators_reject_seeds_as_default_rng_does(seed):
    """What ``default_rng`` refuses, ``run_trials`` refuses too, with one
    ``ValueError`` that names the seed."""
    with pytest.raises((TypeError, ValueError)):
        np.random.default_rng(seed)
    config = BasConfig(dimension=1, x0=(0.0,), max_iters=2)
    with pytest.raises(ValueError, match=f"^{_NOT_A_SEED}, got "):
        list(run_trials(config, sphere, [3, seed]))


@pytest.mark.parametrize("make", [
    lambda: BasConfig(dimension=1, x0=(0.0,), seed=1.5),
    lambda: BasConfig(dimension=1, x0=(0.0,), seed="3"),
    lambda: derive_trial_seeds(-1, 2),
], ids=["config-float", "config-str", "master-negative"])
def test_seed_that_is_not_a_non_negative_integer_is_refused(make):
    with pytest.raises(ValueError, match=f"^{_NOT_A_SEED}, got "):
        make()


_POINT = np.array([1.0, 2.0])


@pytest.mark.parametrize("name, call", [
    ("trials", lambda: derive_trial_seeds(0, -1)),
    ("trials", lambda: derive_trial_seeds(0, 2.0)),
    ("trials", lambda: derive_trial_seeds(0, 2 ** 63)),
    ("record", lambda: list(run_trials(BasConfig(dimension=2, x0=_POINT), sphere, [0],
                                       record=-1))),
    ("record", lambda: list(run_trials(BasConfig(dimension=2, x0=_POINT), sphere, [0],
                                       record=1.5))),
    ("m", lambda: michalewicz(_POINT, 0)),
    ("m", lambda: michalewicz(_POINT, 1.5)),
], ids=["trials-negative", "trials-float", "trials-beyond-an-index", "record-negative",
        "record-float", "m-zero", "m-float"])
def test_a_count_that_is_not_an_integer_in_range_is_refused(name, call):
    """The engine's public counts follow one rule: an ``int`` or ``np.integer``
    within its bounds, or a ``ValueError`` that begins with its name."""
    with pytest.raises(ValueError, match=f"^{name} must be "):
        call()
