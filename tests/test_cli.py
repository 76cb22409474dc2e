"""Tests for config parsing, the campaign harness, and artifact output."""

import csv
import json

import numpy as np
import pytest

from basopt import BasConfig, derive_trial_seed, lookup_objective, run
from basopt.cli import (
    CampaignError,
    ConfigError,
    ExperimentConfig,
    format_box_spec,
    main,
    parse_box_spec,
    parse_config,
    read_config_file,
    run_campaign,
)


def _cfg(tmp_path, **overrides):
    tokens = ["--objective", overrides.pop("objective", "michalewicz"),
              "--out-dir", str(tmp_path)]
    for key, value in overrides.items():
        tokens += [f"--{key.replace('_', '-')}", str(value)]
    return parse_config(tokens)


# ---------------------------------------------------------------------------
# box spec parsing

def test_parse_box_spec_single_pair():
    assert parse_box_spec("0:3.5") == ((0.0, 3.5),)


def test_parse_box_spec_multiple_pairs():
    assert parse_box_spec("-2:2,-1:1") == ((-2.0, 2.0), (-1.0, 1.0))


def test_parse_box_spec_errors():
    with pytest.raises(ConfigError):
        parse_box_spec("0-1")
    with pytest.raises(ConfigError):
        parse_box_spec("0:1:2")
    with pytest.raises(ConfigError):
        parse_box_spec("2:1")
    with pytest.raises(ConfigError):
        parse_box_spec("a:b")


def test_format_box_spec_round_trips():
    box = ((0.0, np.pi), (-2.0, 2.0))
    assert parse_box_spec(format_box_spec(box)) == box


# ---------------------------------------------------------------------------
# parse_config

def test_parse_defaults():
    cfg = parse_config(["--objective", "michalewicz"])
    assert cfg == ExperimentConfig(
        objective="michalewicz", dim=2, iters=100, d0=2.0, delta0=0.5,
        eta_d=0.95, offset_d=0.01, eta_delta=0.95, trials=1, seed=0,
        init_box=None, clamp=False, target=None, stall=None,
        out_dir=".", traj="first")


def test_parse_objective_required():
    with pytest.raises(ConfigError) as exc:
        parse_config([])
    assert str(exc.value).startswith("objective:")


def test_parse_flag_overrides():
    cfg = parse_config(["--objective", "sphere", "--dim", "4", "--iters", "30",
                        "--trials", "6", "--seed", "9", "--clamp",
                        "--init-box=-1:1", "--target", "0.001",
                        "--stall", "25", "--traj", "none"])
    assert cfg.dim == 4 and cfg.iters == 30 and cfg.trials == 6
    assert cfg.seed == 9 and cfg.clamp is True
    assert cfg.init_box == ((-1.0, 1.0),)
    assert cfg.target == 0.001 and cfg.stall == 25 and cfg.traj == "none"


def test_config_file_overrides_defaults(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# campaign setup\n"
        "objective = goldstein_price\n"
        "iters = 60\n"
        "seed = 4\n"
        "init-box = -2:2\n"
        "clamp = true\n")
    cfg = parse_config([], config_file=path)
    assert cfg.objective == "goldstein_price"
    assert cfg.iters == 60 and cfg.seed == 4
    assert cfg.init_box == ((-2.0, 2.0),)
    assert cfg.clamp is True
    assert cfg.d0 == 2.0  # untouched default


def test_flags_beat_config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("objective = michalewicz\niters = 60\nseed = 4\nclamp = true\n")
    cfg = parse_config(["--iters", "75", "--no-clamp"], config_file=path)
    assert cfg.iters == 75       # flag wins
    assert cfg.clamp is False    # flag wins
    assert cfg.seed == 4         # file wins over default


def test_config_flag_points_at_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("objective = sphere\ndim = 3\n")
    cfg = parse_config(["--config", str(path)])
    assert cfg.objective == "sphere" and cfg.dim == 3


def test_config_file_rejects_unknown_key(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("objective = sphere\nbogus = 1\n")
    with pytest.raises(ConfigError) as exc:
        parse_config([], config_file=path)
    assert "bogus" in str(exc.value)


def test_config_file_rejects_malformed_line(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("objective sphere\n")
    with pytest.raises(ConfigError):
        read_config_file(path)


@pytest.mark.parametrize(
    "tokens,field",
    [
        (["--objective", "michalewicz", "--d0", "-1"], "d0:"),
        (["--objective", "michalewicz", "--delta0", "0"], "delta0:"),
        (["--objective", "michalewicz", "--iters", "0"], "iters:"),
        (["--objective", "michalewicz", "--eta-d", "1.5"], "eta-d:"),
        (["--objective", "michalewicz", "--offset-d", "-0.1"], "offset-d:"),
        (["--objective", "michalewicz", "--trials", "0"], "trials:"),
        (["--objective", "michalewicz", "--seed", "-3"], "seed:"),
        (["--objective", "michalewicz", "--stall", "0"], "stall:"),
        (["--objective", "michalewicz", "--dim", "0"], "dim:"),
        (["--objective", "goldstein_price", "--dim", "3"], "objective/dim:"),
        (["--objective", "michalewicz", "--dim", "3", "--init-box", "0:1,0:1"],
         "init-box:"),
    ],
)
def test_validation_errors_name_the_field(tokens, field):
    cfg_error = pytest.raises(ConfigError)
    with cfg_error as exc:
        parse_config(tokens)
    assert str(exc.value).startswith(field)


def test_unknown_flag_exits():
    with pytest.raises(SystemExit):
        parse_config(["--objective", "michalewicz", "--walk", "fast"])


def test_bad_choice_exits():
    with pytest.raises(SystemExit):
        parse_config(["--objective", "rastrigin"])


# ---------------------------------------------------------------------------
# run_campaign

def test_single_trial_matches_direct_run(tmp_path):
    cfg = _cfg(tmp_path, objective="michalewicz", seed=12)
    summary = run_campaign(cfg)
    obj = lookup_objective("michalewicz", 2)
    direct = run(BasConfig(dimension=2, init_box=obj.init_box,
                           seed=derive_trial_seed(12, 0)), obj)
    trial = summary.trials[0]
    assert trial.f_bst == direct.f_bst
    assert trial.x_bst == direct.x_bst
    assert trial.evals == direct.evals == 301
    assert trial.termination == direct.termination == "max_iters"


def test_each_trial_reproducible_in_isolation(tmp_path):
    cfg = _cfg(tmp_path, objective="michalewicz", trials=4, seed=3, traj="none")
    summary = run_campaign(cfg)
    obj = lookup_objective("michalewicz", 2)
    for trial in summary.trials:
        direct = run(BasConfig(dimension=2, init_box=obj.init_box,
                               seed=derive_trial_seed(3, trial.trial)), obj)
        assert trial.f_bst == direct.f_bst
        assert trial.x_bst == direct.x_bst


def test_summary_aggregates_recompute(tmp_path):
    cfg = _cfg(tmp_path, objective="michalewicz", trials=8, traj="none")
    summary = run_campaign(cfg)
    f = np.array([t.f_bst for t in summary.trials])
    assert summary.best == f.min()
    assert summary.median == np.median(f)
    assert summary.mean == f.mean()
    assert summary.std == f.std()
    assert summary.total_evals == 8 * 301


def test_single_trial_aggregates_collapse(tmp_path):
    summary = run_campaign(_cfg(tmp_path, objective="sphere"))
    only = summary.trials[0].f_bst
    assert summary.best == summary.median == summary.mean == only
    assert summary.std == 0.0


def test_campaign_reruns_are_byte_identical(tmp_path):
    dir1, dir2 = tmp_path / "a", tmp_path / "b"
    run_campaign(_cfg(dir1, objective="michalewicz", trials=3, seed=7, traj="all"))
    run_campaign(_cfg(dir2, objective="michalewicz", trials=3, seed=7, traj="all"))
    for name in ("summary.json", "traj_000.csv", "traj_001.csv", "traj_002.csv"):
        assert (dir1 / name).read_bytes() == (dir2 / name).read_bytes()


@pytest.mark.parametrize("mode,expected", [("all", 3), ("first", 1), ("none", 0)])
def test_trajectory_modes(tmp_path, mode, expected):
    run_campaign(_cfg(tmp_path, objective="sphere", trials=3, traj=mode))
    assert len(list(tmp_path.glob("traj_*.csv"))) == expected


def test_trajectory_contents(tmp_path):
    run_campaign(_cfg(tmp_path, objective="michalewicz", seed=2))
    rows = list(csv.DictReader((tmp_path / "traj_000.csv").open()))
    assert len(rows) == 100
    header = (tmp_path / "traj_000.csv").read_text().splitlines()[0]
    assert header == "t,f_x,f_bst,d,delta,x_0,x_1"
    assert [int(r["t"]) for r in rows] == list(range(1, 101))

    obj = lookup_objective("michalewicz", 2)
    f_bst = [float(r["f_bst"]) for r in rows]
    assert all(b <= a for a, b in zip(f_bst, f_bst[1:]))
    for r in rows:
        x = np.array([float(r["x_0"]), float(r["x_1"])])
        # repr round-trips doubles, so re-evaluation is exact
        assert obj(x) == float(r["f_x"])
        assert float(r["f_bst"]) <= float(r["f_x"])
    assert float(rows[0]["d"]) == 2.0 and float(rows[0]["delta"]) == 0.5
    assert float(rows[1]["d"]) == 1.91 and float(rows[1]["delta"]) == 0.475


def test_summary_file_round_trips_the_campaign(tmp_path):
    dir1, dir2 = tmp_path / "a", tmp_path / "b"
    run_campaign(_cfg(dir1, objective="goldstein_price", trials=3, seed=11))
    doc = json.loads((dir1 / "summary.json").read_text())

    # Re-expressing the echoed config as a file reproduces the campaign.
    lines = []
    for key, value in doc["config"].items():
        if value is None:
            continue
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{key} = {value}")
    cfg_path = tmp_path / "echo.cfg"
    cfg_path.write_text("\n".join(lines) + "\n")

    cfg2 = parse_config(["--out-dir", str(dir2)], config_file=cfg_path)
    run_campaign(cfg2)
    assert (dir1 / "summary.json").read_bytes() == (dir2 / "summary.json").read_bytes()


def test_summary_json_structure(tmp_path):
    run_campaign(_cfg(tmp_path, objective="sphere", trials=2, seed=5))
    doc = json.loads((tmp_path / "summary.json").read_text())
    assert set(doc) == {"aggregate", "config", "trials"}
    assert doc["config"]["objective"] == "sphere"
    assert "out_dir" not in doc["config"]
    assert len(doc["trials"]) == 2
    for i, trial in enumerate(doc["trials"]):
        assert trial["trial"] == i
        assert trial["seed"] == derive_trial_seed(5, i)
        assert trial["evals"] == 301
    assert doc["aggregate"]["total_evals"] == 602


def test_campaign_stall_termination(tmp_path):
    cfg = _cfg(tmp_path, objective="sphere", stall=3, seed=1, init_box="0:0")
    summary = run_campaign(cfg)
    assert summary.trials[0].termination == "stalled"
    # at the origin the sphere cannot improve, so exactly stall iterations run
    assert summary.trials[0].evals == 1 + 3 * 3


def test_campaign_target_termination(tmp_path):
    cfg = _cfg(tmp_path, objective="michalewicz", target=-1.0, seed=0)
    summary = run_campaign(cfg)
    assert summary.trials[0].termination == "target_reached"
    assert summary.trials[0].f_bst <= -1.0


# ---------------------------------------------------------------------------
# main entry point

def test_main_run_smoke(tmp_path, capsys):
    code = main(["run", "--objective", "michalewicz", "--trials", "2",
                 "--seed", "1", "--out-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "campaign: objective=michalewicz" in out
    assert "f_bst:" in out
    assert (tmp_path / "summary.json").exists()


def test_main_rejects_bad_value(capsys):
    code = main(["run", "--objective", "michalewicz", "--d0", "-1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error: d0:" in err


def test_main_failed_campaign_exits_2(tmp_path, capsys):
    with np.errstate(over="ignore"):
        code = main(["run", "--objective", "goldstein_price", "--trials", "3",
                     "--init-box=-1e100:1e100", "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: trial 0: objective returned non-finite value inf "
                          "at iteration 0 for x=[")
    assert "Traceback" not in err


def test_failed_campaign_names_the_lowest_failing_trial(tmp_path):
    # x^2 overflows for x above ~1.34e154, so about half the starts fail;
    # with master seed 3 the first to fail is trial 3.
    cfg = _cfg(tmp_path, objective="sphere", dim=1, init_box="0:2.6e154",
               trials=4, seed=3)
    with np.errstate(over="ignore"), pytest.raises(CampaignError) as exc:
        run_campaign(cfg)
    assert str(exc.value).startswith(
        "trial 3: objective returned non-finite value inf at iteration 0 for x=[")


def test_main_oracle_grid(capsys):
    code = main(["oracle", "grid", "--objective", "goldstein_price",
                 "--resolution", "401"])
    out = capsys.readouterr().out
    assert code == 0
    assert "best_f=3.0" in out
    assert "best_x=0.0,-1.0" in out


def test_main_oracle_random(capsys):
    code = main(["oracle", "random", "--objective", "sphere", "--dim", "3",
                 "--evals", "1000", "--seed", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "random: objective=sphere dim=3 evals=1000 seed=2" in out
    assert "best_f=" in out


def test_main_oracle_grid_cap(capsys):
    code = main(["oracle", "grid", "--objective", "goldstein_price",
                 "--resolution", "100000", "--max-nodes", "1000000"])
    err = capsys.readouterr().err
    assert code == 2
    assert "cap" in err


def test_main_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])
