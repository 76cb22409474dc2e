"""Acceptance gate: the six release criteria, one test each.

Every test prints a single line with the measured numbers next to the
threshold it must clear (run pytest with -s or check captured output).
Thresholds are asserted exactly as stated; none are loosened here.
"""

import numpy as np

from basopt import (
    BasConfig,
    DEFAULT_D_SCHEDULE,
    derive_trial_seed,
    lookup_objective,
    run,
)
from basopt.core import advance_schedule, sample_direction
from basopt.cli import parse_config, run_campaign
from basopt.objectives import goldstein_price, michalewicz
from basopt.oracle import GridSpec, grid_search, random_search_baseline

TRIALS = 200
MASTER_SEED = 0


def _campaign(tmp_path, objective):
    cfg = parse_config(["--objective", objective, "--trials", str(TRIALS),
                        "--seed", str(MASTER_SEED), "--traj", "none",
                        "--out-dir", str(tmp_path)])
    return run_campaign(cfg)


def test_criterion_1_michalewicz_campaign(tmp_path):
    """200-trial Michalewicz campaign: best <= -1.795, median trial <= -1.70."""
    summary = _campaign(tmp_path, "michalewicz")
    f = np.array([t.f_bst for t in summary.trials])
    frac = float((f <= -1.70).mean())
    print(f"criterion 1 michalewicz campaign: best={summary.best:.6f} "
          f"(<= -1.795), frac<=-1.70={frac:.3f} (>= 0.5)")
    assert summary.best <= -1.795
    assert frac >= 0.5


def test_criterion_2_goldstein_price_campaign(tmp_path):
    """200-trial Goldstein-Price campaign: best <= 3.05, median trial <= 10."""
    summary = _campaign(tmp_path, "goldstein_price")
    f = np.array([t.f_bst for t in summary.trials])
    frac = float((f <= 10.0).mean())
    print(f"criterion 2 goldstein-price campaign: best={summary.best:.6f} "
          f"(<= 3.05), frac<=10={frac:.3f} (>= 0.5)")
    assert summary.best <= 3.05
    assert frac >= 0.5


def test_criterion_3_grid_oracle_recovers_optima():
    """Exhaustive grids recover both reference optima."""
    gp = lookup_objective("goldstein_price", 2)
    gp_point, gp_value = grid_search(gp, GridSpec(box=gp.init_box, resolution=401))
    mich = lookup_objective("michalewicz", 2)
    _, mich_value = grid_search(mich, GridSpec(box=mich.init_box, resolution=1000))
    mich_err = abs(mich_value - mich.known_optimum[1])
    print(f"criterion 3 grid oracle: gp={gp_value!r} at {tuple(gp_point.tolist())} "
          f"(exact 3 at (0,-1)), mich_err={mich_err:.2e} (<= 1e-3)")
    assert gp_value == 3.0
    assert np.array_equal(gp_point, [0.0, -1.0])
    assert mich_err <= 1e-3


def test_criterion_4_beats_random_search_at_equal_budget():
    """Median over 200 matched seeds: search <= uniform sampling, 301 evals each."""
    medians = {}
    for name in ("michalewicz", "goldstein_price"):
        obj = lookup_objective(name, 2)
        bas, rand = [], []
        for trial in range(TRIALS):
            seed = derive_trial_seed(MASTER_SEED, trial)
            result = run(BasConfig(dimension=2, init_box=obj.init_box, seed=seed), obj)
            assert result.evals == 301
            _, f_rand = random_search_baseline(obj, obj.init_box, 301,
                                               np.random.default_rng(seed))
            bas.append(result.f_bst)
            rand.append(f_rand)
        medians[name] = (float(np.median(bas)), float(np.median(rand)))
    line = ", ".join(f"{k}: {b:.6f} <= {r:.6f}" for k, (b, r) in medians.items())
    print(f"criterion 4 equal-budget baseline: {line}")
    for b, r in medians.values():
        assert b <= r


def test_criterion_5_structural_properties():
    """Direction norms, determinism, accounting, and invariance properties."""
    rng = np.random.default_rng(9)
    for k in (1, 2, 5, 30):
        norms = [np.linalg.norm(sample_direction(k, rng)) for _ in range(10000)]
        assert max(abs(n - 1.0) for n in norms) <= 1e-9

    obj = lookup_objective("michalewicz", 2)
    cfg = BasConfig(dimension=2, init_box=obj.init_box, seed=17)
    res = run(cfg, obj)
    assert run(cfg, obj) == res  # bit-identical replay

    f_bsts = res.trajectory[:, 1].tolist()
    assert all(b <= a for a, b in zip(f_bsts, f_bsts[1:]))  # monotone best
    assert obj(np.array(res.x_bst)) == res.f_bst            # exact re-evaluation
    assert res.evals == 1 + 3 * len(res.trajectory)         # eval accounting

    flat = run(BasConfig(dimension=2, x0=(1.0, 1.0), max_iters=50, seed=4),
               lambda x: 0.0)
    assert all(x == [1.0, 1.0] for x in flat.trajectory[:, 4:].tolist())  # tie: no move

    d = 2.0
    for _ in range(400):
        d = advance_schedule(d, DEFAULT_D_SCHEDULE)
    assert abs(d - 0.2) <= 1e-6                             # schedule fixed point

    scaled = run(cfg, lambda x: 3.7 * michalewicz(x))
    assert scaled.trajectory[:, 4:].tolist() == res.trajectory[:, 4:].tolist()

    print("criterion 5 structural properties: norms/determinism/monotone/"
          "accounting/no-move/fixed-point/scale-invariance all hold")


def test_criterion_6_known_objective_values():
    """Benchmark values match their published/derived references."""
    mich_err = abs(michalewicz(np.array([2.2029, 1.5708])) - (-1.8013))
    gp_rel = abs(goldstein_price(np.array([0.0, -1.0])) - 3.0) / 3.0
    print(f"criterion 6 known values: mich_err={mich_err:.2e} (<= 1e-3), "
          f"gp_rel={gp_rel:.2e} (<= 1e-9), gp(0,0)=600, gp(1,1)=1876")
    assert mich_err <= 1e-3
    assert gp_rel <= 1e-9
    assert goldstein_price(np.array([0.0, 0.0])) == 600.0
    assert goldstein_price(np.array([1.0, 1.0])) == 1876.0
