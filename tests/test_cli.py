"""Tests for config parsing, the campaign harness, and artifact output."""

import csv
import errno
import json
import os
import resource
import signal
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import basopt
from basopt import cli, objectives
from basopt import BasConfig, ObjectiveError, RunResult, derive_trial_seed, lookup_objective, run
from basopt.cli import (
    CampaignSummary,
    ConfigError,
    ExperimentConfig,
    config_echo,
    emit_summary,
    emit_trajectory,
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


def _run_module(argv, cwd, **kwargs):
    """``python -m basopt.cli`` with this checkout's package, numpy's default
    warning filters and one BLAS thread; ``kwargs`` go to ``subprocess.run``."""
    env = dict(os.environ, PYTHONPATH=str(Path(basopt.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1")
    env.pop("PYTHONWARNINGS", None)
    return subprocess.run([sys.executable, "-m", "basopt.cli"] + argv, cwd=cwd,
                          capture_output=True, text=True, env=env, timeout=60, **kwargs)


# ---------------------------------------------------------------------------
# box spec parsing

def test_parse_box_spec_single_pair():
    assert parse_box_spec("0:3.5") == ((0.0, 3.5),)


def test_parse_box_spec_multiple_pairs():
    assert parse_box_spec("-2:2,-1:1") == ((-2.0, 2.0), (-1.0, 1.0))


def test_parse_box_spec_errors():
    with pytest.raises(ValueError):
        parse_box_spec("0-1")
    with pytest.raises(ValueError):
        parse_box_spec("0:1:2")
    with pytest.raises(ValueError):
        parse_box_spec("a:b")
    # only the syntax: the search config checks the box (see the init-box
    # case of test_validation_errors_name_the_field)
    assert parse_box_spec("2:1") == ((2.0, 1.0),)


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
    cfg = parse_config(["--config", str(path)])
    assert cfg.objective == "goldstein_price"
    assert cfg.iters == 60 and cfg.seed == 4
    assert cfg.init_box == ((-2.0, 2.0),)
    assert cfg.clamp is True
    assert cfg.d0 == 2.0  # untouched default


def test_flags_beat_config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("objective = michalewicz\niters = 60\nseed = 4\nclamp = true\n")
    cfg = parse_config(["--config", str(path), "--iters", "75", "--no-clamp"])
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
        parse_config(["--config", str(path)])
    assert "bogus" in str(exc.value)


def test_config_file_rejects_malformed_line(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("objective sphere\n")
    with pytest.raises(ConfigError):
        read_config_file(path)


@pytest.mark.parametrize("text,line", [
    ("objective = sphere\nbogus = 1\n", "2: unknown key 'bogus'"),
    ("objective sphere\n", "1: expected 'key = value', got 'objective sphere'"),
], ids=["unknown-key", "malformed"])
def test_config_file_fault_is_one_config_error_line(tmp_path, text, line):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    proc = _run_module(["run", "--config", str(path), "--out-dir", str(tmp_path / "out")],
                       tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [f"error: config: {path}:{line}"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]


def test_config_file_with_a_byte_order_mark_parses_as_without(tmp_path):
    text = "objective = sphere\ndim = 3\nseed = 7\n"
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert read_config_file(marked) == read_config_file(plain)
    assert parse_config(["--config", str(marked)]) == parse_config(["--config", str(plain)])


@pytest.mark.parametrize("name,reason", [
    ("missing.cfg", "No such file or directory"),
    (".", "Is a directory"),
], ids=["missing", "directory"])
def test_unreadable_config_file_is_one_error_line(tmp_path, name, reason):
    path = tmp_path / name
    proc = _run_module(["run", "--objective", "sphere", "--config", str(path),
                        "--out-dir", str(tmp_path / "out")], tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [f"error: config: {path}: {reason}"]
    assert not (tmp_path / "out").exists()


def test_config_file_that_does_not_decode_is_a_config_error(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_bytes(b"objective = sph\xffre\n")
    with pytest.raises(ConfigError, match=r"^config: .*exp\.cfg: 'utf-8' codec can't decode"):
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
        (["--objective", "goldstein_price", "--dim", "3"], "dim:"),
        (["--objective", "michalewicz", "--dim", "3", "--init-box", "0:1,0:1"],
         "init-box:"),
        (["--objective", "michalewicz", "--eta-delta", "0"], "eta-delta:"),
        (["--objective", "michalewicz", "--target", "nan"], "target:"),
        (["--objective", "michalewicz", "--config", "traj = sometimes\n"], "traj:"),
        (["--objective", "sphere", "--init-box=2:1"],
         "init-box: requires lo <= hi on every axis"),
        (["--objective", "sphere", "--dim", "99999999999999999999"], "dim:"),
        (["--objective", "sphere", "--d0", "inf"], "d0: must be finite and > 0, got inf"),
        (["--objective", "sphere", "--delta0", "inf"], "delta0: must be finite and > 0, got inf"),
        (["--objective", "sphere", "--offset-d", "inf"],
         "offset-d: must be finite and >= 0, got inf"),
    ],
)
def test_validation_errors_name_the_field(tmp_path, capsys, tokens, field):
    if "--config" in tokens:  # the token after it is the file's text
        i = tokens.index("--config") + 1
        path = tmp_path / "exp.cfg"
        path.write_text(tokens[i])
        tokens = tokens[:i] + [str(path)] + tokens[i + 1:]
    cfg_error = pytest.raises(ConfigError)
    with cfg_error as exc:
        parse_config(tokens)
    assert str(exc.value).startswith(field)
    # the CLI prints the same message as one line and exits 2
    assert main(["run", *tokens]) == 2
    assert capsys.readouterr().err == f"error: {exc.value}\n"


_SETTINGS = [f.name for f in fields(ExperimentConfig) if f.init]
# A value other than the default for every setting, as config-file text.
_OTHER_VALUE = {
    "objective": "sphere", "dim": "3", "iters": "7", "d0": "1.5", "delta0": "0.25",
    "eta_d": "0.9", "offset_d": "0.02", "eta_delta": "0.8", "trials": "2", "seed": "5",
    "init_box": "-2:2", "clamp": "true", "target": "-1.0", "stall": "4",
    "out_dir": "elsewhere", "traj": "none",
}


@pytest.mark.parametrize("name", _SETTINGS)
def test_flag_file_key_and_echo_agree(tmp_path, name):
    text = _OTHER_VALUE[name]
    flag = "--" + name.replace("_", "-") + ("" if name == "clamp" else f"={text}")
    by_flag = parse_config(["--objective", "sphere", flag])
    path = tmp_path / "exp.cfg"
    path.write_text(f"objective = sphere\n{name} = {text}\n")
    by_file = parse_config(["--config", str(path)])
    value = getattr(by_file, name)
    assert value == getattr(by_flag, name)
    assert value != getattr(ExperimentConfig(objective="michalewicz"), name)
    echo = config_echo(by_file)
    if name == "out_dir":
        assert name not in echo
    elif name == "init_box":
        assert echo[name] == "-2.0:2.0,-2.0:2.0"  # resolved to every axis
    else:
        assert echo[name] == value


def _huge_dim(line) -> bool:
    # parsing builds the default init box, one pair per axis, so a huge dim
    # would allocate gigabytes
    key, _, text = line
    try:
        return key == "dim" and int(text) > 64
    except ValueError:
        return False


_ERROR_PREFIXES = {name.replace("_", "-") for name in _SETTINGS}
_PLAUSIBLE = st.sampled_from([
    "", "sphere", "michalewicz", "goldstein_price", "0", "1", "2", "3", "-1", "100",
    "0.5", "0.95", "1.0", "1.5", "-0.1", "1e308", "nan", "inf", "-inf", "true", "off",
    "all", "first", "none", "-1:1", "0:1,0:1", "2:1", "a:b", "nan:1", "-inf:0",
    "1e200:1e201", "-1e308:1e308"])
_ONE_LINE = st.text().map(lambda text: " ".join(text.splitlines()))


@settings(max_examples=400, deadline=None)
@given(objective=st.sampled_from([None, "sphere", "michalewicz", "goldstein_price"]),
       lines=st.lists(st.tuples(st.sampled_from(_SETTINGS), st.booleans(),
                                _PLAUSIBLE | _ONE_LINE).filter(lambda line: not _huge_dim(line)),
                      max_size=6))
def test_config_file_fuzz_gives_a_config_or_names_a_setting(objective, lines):
    text = "" if objective is None else f"objective = {objective}\n"
    for key, dashed, value in lines:
        text += f"{key.replace('_', '-') if dashed else key} = {value}\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "exp.cfg"
        path.write_text(text, encoding="utf-8")
        try:
            cfg = parse_config(["--config", str(path)])
        except ConfigError as err:
            assert str(err).split(":", 1)[0] in _ERROR_PREFIXES, str(err)
        else:
            assert isinstance(cfg.search, BasConfig)


def test_unknown_flag_exits():
    with pytest.raises(SystemExit):
        parse_config(["--objective", "michalewicz", "--walk", "fast"])


def test_bad_choice_exits():
    with pytest.raises(ConfigError, match="^objective: 'rastrigin' is unknown"):
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
    for i, trial in enumerate(summary.trials):
        direct = run(BasConfig(dimension=2, init_box=obj.init_box,
                               seed=derive_trial_seed(3, i)), obj)
        assert trial.f_bst == direct.f_bst
        assert trial.x_bst == direct.x_bst


def test_summary_trials_are_run_results_without_rows(tmp_path):
    """The summary holds each trial's RunResult with its seed, and an empty
    trajectory that is no view of the rows, so no trajectory stays alive."""
    summary = run_campaign(_cfg(tmp_path, objective="michalewicz", dim=3, trials=3,
                                seed=4, traj="all"))
    assert [t.seed for t in summary.trials] == [derive_trial_seed(4, i) for i in range(3)]
    for trial in summary.trials:
        assert isinstance(trial, RunResult)
        assert trial.trajectory.shape == (0, 7)
        assert trial.trajectory.base is None
        assert not trial.trajectory.flags.writeable
    assert len((tmp_path / "traj_002.csv").read_text().splitlines()) == 1 + 100


@pytest.mark.parametrize("flags", [
    ["--dim", "2", "--iters", "100", "--trials", "200", "--traj", "none"],
    ["--dim", "10", "--iters", "100", "--trials", "500", "--clamp", "--stall", "20",
     "--traj", "all"],
], ids=["mich2d_search", "mich10d_ragged"])
def test_campaign_batches_are_never_split(tmp_path, flags):
    """The benchmark's campaigns evaluate every batch on the calling thread."""
    with mock.patch.object(threading.Thread, "start",
                           side_effect=AssertionError("a thread was started")):
        run_campaign(parse_config(["--objective", "michalewicz", "--out-dir", str(tmp_path)]
                                  + flags))

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


def _no_constant(name):
    raise AssertionError(f"summary.json holds the non-standard JSON constant {name}")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_aggregates_whose_sums_overflow_stay_finite(tmp_path, capsys):
    """Values near 1e308 overflow the sums inside numpy's mean and std; the
    aggregates are still finite, in range, and standard JSON."""
    code = main(["run", "--objective", "sphere", "--trials", "5", "--traj", "none",
                 "--init-box=0:1e154", "--out-dir", str(tmp_path)])
    assert code == 0, capsys.readouterr().err
    doc = json.loads((tmp_path / "summary.json").read_text(), parse_constant=_no_constant)
    agg = doc["aggregate"]
    high = max(t["f_bst"] for t in doc["trials"])
    assert agg["best"] <= agg["median"] <= high
    assert agg["best"] <= agg["mean"] <= high
    assert np.isfinite(agg["std"])


def test_campaign_reruns_are_byte_identical(tmp_path):
    dir1, dir2 = tmp_path / "a", tmp_path / "b"
    run_campaign(_cfg(dir1, objective="michalewicz", trials=3, seed=7, traj="all"))
    run_campaign(_cfg(dir2, objective="michalewicz", trials=3, seed=7, traj="all"))
    for name in ("summary.json", "traj_000.csv", "traj_001.csv", "traj_002.csv"):
        assert (dir1 / name).read_bytes() == (dir2 / name).read_bytes()


def test_campaign_peak_memory_stays_below_the_whole_square_of_directions(tmp_path):
    """A warm 200-trial 2-D campaign, as in the benchmark, peaks below 977 KiB
    under tracemalloc: the peak when ``sample_directions`` squared a whole
    (200, 100, 2) chunk of directions at once. It squares a few trials at a
    time now (about 840 KB on numpy 2.4)."""
    cfg = _cfg(tmp_path, objective="michalewicz", trials=200, traj="none")
    run_campaign(cfg)
    tracemalloc.start()
    try:
        run_campaign(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 977 << 10


@pytest.mark.parametrize("mode,expected", [("all", 3), ("first", 1), ("none", 0)])
def test_trajectory_modes(tmp_path, mode, expected):
    run_campaign(_cfg(tmp_path, objective="sphere", trials=3, traj=mode))
    assert len(list(tmp_path.glob("traj_*.csv"))) == expected


def test_trajectory_contents(tmp_path):
    run_campaign(_cfg(tmp_path, objective="michalewicz", seed=2))
    with (tmp_path / "traj_000.csv").open() as f:
        rows = list(csv.DictReader(f))
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


def legacy_emit_trajectory(result: RunResult, path) -> None:
    """The writer that formats every field of every row with repr; the
    byte-for-byte spec of ``emit_trajectory``."""
    lines = ["t,f_x,f_bst,d,delta," + ",".join(f"x_{j}" for j in range(len(result.x_bst)))]
    for t, row in enumerate(result.trajectory.tolist(), 1):
        lines.append(",".join([str(t)] + [repr(v) for v in row]))
    Path(path).write_text("\n".join(lines) + "\n")


# signed zeros, subnormals, and magnitudes whose repr has an exponent
_SPECIAL = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-05, -1e-05,
                            1e+16, -1e+16, 1.5e+300, 0.1, 2.0, 1.91])
_FLOATS = _SPECIAL | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _trajectories(draw):
    """A trajectory array whose f_bst repeats, equals f_x, or is a signed zero."""
    k = draw(st.integers(1, 12))
    n = draw(st.integers(0, 12))
    x = draw(arrays(np.float64, (n, k), elements=_FLOATS))
    rows = []
    f_bst = draw(_FLOATS)
    for _ in range(n):
        f_x = draw(_FLOATS)
        case = draw(st.sampled_from(["repeat", "f_x", "fresh", "-0.0/0.0", "0.0/-0.0"]))
        if case == "f_x":
            f_bst = f_x
        elif case == "fresh":
            f_bst = draw(_FLOATS)
        elif case != "repeat":
            f_x, f_bst = (-0.0, 0.0) if case == "-0.0/0.0" else (0.0, -0.0)
        # from a small pool, so pairs recur
        d_delta = draw(st.lists(_SPECIAL, min_size=2, max_size=2))
        rows.append([f_x, f_bst] + d_delta)
    return np.hstack((np.array(rows, dtype=float).reshape(n, 4), x))


@settings(max_examples=200, deadline=None)
@given(trajectories=st.lists(_trajectories(), min_size=1, max_size=3))
def test_emit_trajectory_matches_the_per_field_writer(trajectories):
    """The same bytes in one chunk, and in chunks of one row (a row is wider
    than 4 values) or of a few rows with a shorter last one."""
    with tempfile.TemporaryDirectory() as tmp:
        new, old = Path(tmp) / "new.csv", Path(tmp) / "old.csv"
        for trajectory in trajectories:
            k = trajectory.shape[1] - 4
            result = RunResult(trajectory=trajectory, x_bst=(0.0,) * k, f_bst=0.0,
                               evals=1 + 3 * len(trajectory), termination="max_iters",
                               seed=0)
            legacy_emit_trajectory(result, old)
            for values in (cli._CSV_VALUES, 4, 40):
                with mock.patch.object(cli, "_CSV_VALUES", values):
                    emit_trajectory(result, new)
                assert new.read_bytes() == old.read_bytes()


def test_emit_trajectory_peak_does_not_grow_with_the_rows(tmp_path):
    """Rows are formatted a chunk at a time: writing 4 times the rows of a
    1000-wide trajectory, several chunks either way, takes no more memory
    under tracemalloc, where building the whole text took 4 times as much."""
    rng = np.random.default_rng(0)
    peaks = []
    for rows in (100, 400):
        trajectory = rng.standard_normal((rows, 4 + 1000))
        result = RunResult(trajectory=trajectory, x_bst=(0.0,) * 1000, f_bst=0.0,
                           evals=1 + 3 * rows, termination="max_iters", seed=0)
        tracemalloc.start()
        try:
            emit_trajectory(result, tmp_path / "traj.csv")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + (64 << 10), peaks


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

    cfg2 = parse_config(["--config", str(cfg_path), "--out-dir", str(dir2)])
    run_campaign(cfg2)
    assert (dir1 / "summary.json").read_bytes() == (dir2 / "summary.json").read_bytes()


_JSON_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                     1e308, -1e308, 1.7976931348623157e308]))


def _summary_doc(summary: CampaignSummary) -> dict:
    """The summary as a document for ``json.dumps``: the writer's reference."""
    return {
        "config": summary.config,
        "trials": [{"trial": i, "seed": t.seed, "f_bst": t.f_bst, "x_bst": t.x_bst,
                    "evals": t.evals, "termination": t.termination}
                   for i, t in enumerate(summary.trials)],
        "aggregate": {name: getattr(summary, name)
                      for name in ("best", "median", "mean", "std", "total_evals")},
    }


@settings(max_examples=150, deadline=None)
@given(k=st.integers(1, 12), n=st.integers(1, 6), data=st.data())
def test_summary_writer_matches_json_dumps(k, n, data):
    """``emit_summary`` writes the bytes of ``json.dumps(doc, indent=2,
    sort_keys=True, allow_nan=False)`` and raises its ``ValueError`` for a
    trial value that is not finite."""
    values = [data.draw(st.lists(_JSON_FLOATS, min_size=k + 1, max_size=k + 1))
              for _ in range(n)]
    bad = data.draw(st.none() | st.tuples(st.integers(0, n - 1), st.integers(0, k),
                                          st.sampled_from([np.inf, -np.inf, np.nan])))
    if bad is not None:  # position 0 is f_bst, the others x_bst
        values[bad[0]][bad[1]] = bad[2]
    trials = tuple(
        RunResult(trajectory=np.empty((0, 4 + k)), x_bst=tuple(v[1:]), f_bst=v[0],
                  evals=data.draw(st.integers(1, 10 ** 12)),
                  termination=data.draw(st.sampled_from(
                      [basopt.TERM_MAX_ITERS, basopt.TERM_TARGET, basopt.TERM_STALLED])),
                  seed=data.draw(st.integers(0, 2 ** 64 - 1)))
        for v in values)
    best, median, mean, std = data.draw(st.lists(_JSON_FLOATS, min_size=4, max_size=4))
    summary = CampaignSummary(
        config=config_echo(ExperimentConfig(objective="sphere", dim=k)), trials=trials,
        best=best, median=median, mean=mean, std=std,
        total_evals=data.draw(st.integers(0, 10 ** 15)), duration_s=1.0)
    with tempfile.TemporaryDirectory() as out_dir:
        path = Path(out_dir) / "summary.json"
        try:
            want = json.dumps(_summary_doc(summary), indent=2, sort_keys=True,
                              allow_nan=False) + "\n"
        except ValueError as err:
            assert bad is not None
            with pytest.raises(ValueError) as exc:
                emit_summary(summary, path)
            assert str(exc.value) == str(err)
            return
        assert bad is None
        emit_summary(summary, path)
        assert path.read_bytes() == want.encode()


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
    code = main(["run", "--objective", "goldstein_price", "--trials", "3",
                 "--init-box=-1e100:1e100", "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: trial 0 (seed 15793235383387715774): objective "
                          "returned non-finite value inf at iteration 0 for x=[")
    assert "Traceback" not in err


def test_failed_campaign_prints_only_the_error_line(tmp_path):
    """Overflow inside the objective is reported once, as the error, with no
    numpy RuntimeWarning lines before it."""
    proc = _run_module(["run", "--objective", "goldstein_price",
                        "--init-box=-1e100:1e100", "--out-dir", str(tmp_path)], tmp_path)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: trial 0 (seed 15793235383387715774): ")


@pytest.mark.parametrize("argv,field", [
    (["run", "--objective", "sphere", "--init-box=-1e308:1e308"], "init-box:"),
    (["oracle", "random", "--objective", "sphere", "--evals", "10",
      "--box=-1e308:1e308"], "box"),
    (["oracle", "grid", "--objective", "sphere", "--resolution", "10",
      "--box=-1e308:1e308"], "box"),
])
def test_box_whose_width_overflows_is_one_error_line(tmp_path, argv, field):
    """hi - lo = 2e308 is not a double; the box is refused before any numpy
    call, with no traceback or RuntimeWarning lines."""
    proc = _run_module(argv, tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        f"error: {field.removesuffix(':')}: width hi - lo overflows on some axis"]


@pytest.mark.parametrize("argv,error", [
    (["grid", "--resolution", "10", "--box=-8e307:8e307"],
     "box: (resolution - 1) * (hi - lo) overflows on some axis"),
    (["grid", "--resolution", "10", "--box=1e200:1e201"],
     "objective is not finite at any grid node"),
    (["random", "--evals", "10", "--box=1e200:1e201"],
     "objective is not finite at any sample"),
    (["grid", "--resolution", "400", "--box=1e200:1e201"],
     "objective is not finite at any grid node"),
    (["random", "--evals", "200000", "--box=1e200:1e201"],
     "objective is not finite at any sample"),
], ids=["grid-nodes-overflow", "grid-no-finite-value", "random-no-finite-value",
        "grid-no-finite-value-split", "random-no-finite-value-split"])
def test_oracle_box_without_a_finite_value_is_one_error_line(tmp_path, argv, error):
    """Nodes that overflow, or a sphere that overflows at every point, are
    refused with one line, no traceback and no RuntimeWarning lines, also
    over several batches of up to 65,536 points."""
    proc = _run_module(["oracle", argv[0], "--objective", "sphere"] + argv[1:], tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [f"error: {error}"]


@pytest.mark.parametrize("argv,error", [
    (["random", "--evals", "0"], "evals: must be >= 1, got 0"),
    (["random", "--evals", "10", "--seed", "-1"], "seed: must be a non-negative integer, got -1"),
    (["random", "--evals", "10", "--dim", "0"], "dim: must be >= 1, got 0"),
    (["random", "--evals", "10", "--box=0:1,0:1,0:1"], "box: needs 1 or 2 lo:hi pairs, got 3"),
    (["grid", "--resolution", "10", "--dim", "0"], "dim: must be >= 1, got 0"),
    (["grid", "--resolution", "10", "--box=2:1"], "box: requires lo <= hi on every axis"),
    (["grid", "--resolution", "1"], "resolution: must be >= 2, got 1"),
    (["grid", "--resolution", "10", "--box=0:1,0:1,0:1"],
     "box: needs 1 or 2 lo:hi pairs, got 3"),
    (["grid", "--resolution", "10", "--box=-inf:inf"], "box: bounds must be finite"),
    (["random", "--evals", "10", "--box=0:1,1:0"], "box: requires lo <= hi on every axis"),
    (["grid", "--resolution", "10", "--box=0:1:2"],
     "box: expected lo:hi[,lo:hi...], got '0:1:2'"),
    (["grid", "--resolution", "2", "--dim", "99999999999999999999"],
     f"dim: must be <= {sys.maxsize}, got 99999999999999999999"),
    (["random", "--evals", "10", "--dim", "99999999999999999999"],
     f"dim: must be <= {sys.maxsize}, got 99999999999999999999"),
    (["grid", "--resolution", "3", "--dim", "x"],
     "dim: invalid literal for int() with base 10: 'x'"),
    (["grid", "--resolution", "3.5"],
     "resolution: invalid literal for int() with base 10: '3.5'"),
    (["random", "--evals", "ten"], "evals: invalid literal for int() with base 10: 'ten'"),
    (["random", "--evals", "10", "--seed", "1e3"],
     "seed: invalid literal for int() with base 10: '1e3'"),
])
def test_oracle_errors_name_their_flag(tmp_path, argv, error):
    proc = _run_module(["oracle", argv[0], "--objective", "sphere"] + argv[1:], tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [f"error: {error}"]


@pytest.mark.parametrize("argv,error", [
    (["--objective", "sphere", "--d0", "1e308"],
     "d0: too large, got 1e+308: the objective is inf at d0 + delta0 beyond the far "
     "corner of the init box"),
    (["--objective", "michalewicz", "--delta0", "1e308"],
     "delta0: too large, got 1e+308: the objective is nan at d0 + delta0 beyond the far "
     "corner of the init box"),
    (["--objective", "sphere", "--dim", "3", "--d0", "1e154", "--delta0", "2e154"],
     "delta0: too large, got 2e+154: the objective is inf at d0 + delta0 beyond the far "
     "corner of the init box"),
    (["--objective", "sphere", "--eta-d", "1", "--offset-d", "1e308", "--iters", "3"],
     "offset-d: too large, got 1e+308: the objective is inf at d0 + (iters - 1) * offset-d "
     "+ delta0 beyond the far corner of the init box"),
    (["--objective", "michalewicz", "--offset-d", "1e300"],
     "offset-d: too large, got 1e+300: the objective is nan at eta-d^(iters - 1) * d0 "
     "+ offset-d * (1 - eta-d^(iters - 1)) / (1 - eta-d) + delta0 beyond the far corner "
     "of the init box"),
    # offset-d / (1 - eta-d) overflows to inf here, and inf times a zero
    # power would be nan: the last d is about 99 * offset-d
    (["--objective", "michalewicz", "--eta-d", "0.9999999999999999", "--offset-d", "1e300"],
     "offset-d: too large, got 1e+300: the objective is nan at eta-d^(iters - 1) * d0 "
     "+ offset-d * (1 - eta-d^(iters - 1)) / (1 - eta-d) + delta0 beyond the far corner "
     "of the init box"),
    (["--objective", "sphere", "--eta-d", "1", "--offset-d", "1e307", "--iters", "3",
      "--d0", "1e308"],
     "d0: too large, got 1e+308: the objective is inf at d0 + (iters - 1) * offset-d "
     "+ delta0 beyond the far corner of the init box"),
], ids=["d0", "delta0", "delta0-larger", "offset-d-rate-1", "offset-d-fixed-point",
        "offset-d-fixed-point-overflows", "d0-larger-than-growth"])
def test_huge_d0_or_delta0_is_one_error_line(tmp_path, argv, error):
    """A step would carry a beetle from the box to where the objective is
    not finite, with the largest antenna length the schedule reaches:
    refused before the campaign, naming the largest of d0, the schedule's
    growth (offset-d) and delta0, with no RuntimeWarning lines and nothing
    written."""
    proc = _run_module(["run", *argv, "--out-dir", str(tmp_path / "out")], tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [f"error: {error}"]
    assert proc.stdout == ""
    assert not (tmp_path / "out").exists()


def test_large_d0_within_reach_still_runs(tmp_path):
    """sphere at 1e150 + 2.5 on both axes is about 2e300: finite, so d0 = 1e150
    passes, and so does an antenna that grows to 2 + 2e150 at rate 1. An
    offset that would reach 2e301 never applies in a single iteration, which
    uses d0 = 2. A box whose own corner overflows is left to the search."""
    assert run_campaign(_cfg(tmp_path, objective="sphere", d0=1e150)).best >= 0.0
    grows = _cfg(tmp_path, objective="sphere", eta_d=1, offset_d=1e150, iters=3)
    assert run_campaign(grows).best >= 0.0
    once = _cfg(tmp_path, objective="michalewicz", offset_d=1e300, iters=1)
    assert run_campaign(once).trials[0].evals == 4
    cfg = _cfg(tmp_path, objective="sphere", dim=1, init_box="0:2.6e154", d0=1e308)
    with pytest.raises(ObjectiveError):
        run_campaign(cfg)


def test_out_of_memory_is_one_error_line(tmp_path):
    """The history of a recorded 10^5-D trial doubles while it runs, by
    0.8 MB a row; under a 2 GiB address-space limit one doubling fails within
    a few thousand of its 10^9 iterations, and that is one error line."""
    limit = 2 << 30
    proc = _run_module(
        ["run", "--objective", "sphere", "--dim", "100000", "--iters", "1000000000",
         "--traj", "first", "--out-dir", str(tmp_path / "out")], tmp_path,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: out of memory: "), proc.stderr
    assert not (tmp_path / "out").exists()


def test_importing_the_cli_leaves_numpy_random_unloaded(tmp_path):
    """``numpy.random`` costs about 12 ms to import; only a search loads it."""
    env = dict(os.environ, PYTHONPATH=str(Path(basopt.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, basopt.cli; print('numpy.random' in sys.modules)"],
        cwd=tmp_path, capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def test_invalid_config_creates_no_out_dir(tmp_path, capsys):
    out_dir = tmp_path / "X"
    code = main(["run", "--objective", "sphere", "--init-box=-1e308:1e308",
                 "--out-dir", str(out_dir)])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: init-box: width hi - lo overflows on some axis\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("values,oracles,error", [
    ({"objective": "foo"}, ("grid", "random"),
     "objective: 'foo' is unknown; valid names: goldstein_price, michalewicz, sphere"),
    ({"objective": "goldstein_price", "dim": "3"}, ("grid", "random"),
     "dim: must be 2 for goldstein_price, got 3"),
    ({"objective": "sphere", "traj": "foo"}, (),
     "traj: must be one of ('all', 'first', 'none'), got 'foo'"),
    ({"objective": "sphere", "seed": "-1"}, ("random",),
     "seed: must be a non-negative integer, got -1"),
    ({"objective": "sphere", "iters": "99999999999999999999", "stall": "1"}, (),
     f"iters: must be <= {sys.maxsize}, got 99999999999999999999"),
    ({"objective": "sphere", "trials": "99999999999999999999"}, (),
     f"trials: must be <= {sys.maxsize}, got 99999999999999999999"),
], ids=["objective", "dim", "traj", "seed", "iters", "trials"])
def test_a_bad_value_is_the_same_line_from_a_flag_a_file_or_an_oracle(
        tmp_path, capsys, values, oracles, error):
    """One check per input: no usage block, exit 2 and nothing written."""
    out_dir = tmp_path / "out"
    path = tmp_path / "exp.cfg"
    path.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
    flags = [f"--{key}={value}" for key, value in values.items()]
    sizes = {"grid": ["--resolution", "3"], "random": ["--evals", "3"]}
    for argv in ([*flags, "--out-dir", str(out_dir)],
                 ["--config", str(path), "--out-dir", str(out_dir)]):
        assert main(["run", *argv]) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")
    for oracle in oracles:
        assert main(["oracle", oracle, *flags, *sizes[oracle]]) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("command", [["run"], ["oracle", "grid"], ["oracle", "random"]])
def test_help_lists_the_valid_values(capsys, command):
    with pytest.raises(SystemExit):
        main([*command, "--help"])
    text = " ".join(capsys.readouterr().out.split())  # unwrapped
    assert ", ".join(objectives.objective_names()) in text
    assert ("all, first, none" in text) == (command == ["run"])


def test_failed_campaign_names_the_lowest_failing_trial(tmp_path):
    # x^2 overflows for x above ~1.34e154, so about half the starts fail;
    # with master seed 3 the first to fail is trial 3.
    cfg = _cfg(tmp_path, objective="sphere", dim=1, init_box="0:2.6e154",
               trials=4, seed=3)
    with pytest.raises(ObjectiveError) as exc:
        run_campaign(cfg)
    assert str(exc.value).startswith(
        "trial 3 (seed 12505594170494392219): objective returned non-finite value inf "
        "at iteration 0 for x=[")
    assert (exc.value.trial, exc.value.seed, exc.value.iteration) == (
        3, derive_trial_seed(3, 3), 0)


def test_failed_campaign_leaves_out_dir_as_it_was(tmp_path):
    """The failing campaign above, rerun with every trajectory into the
    directory of a good campaign, changes no file there and adds none."""
    run_campaign(_cfg(tmp_path, objective="sphere", dim=1, trials=4, seed=3, traj="all"))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    with pytest.raises(ObjectiveError, match="^trial 3 "):
        run_campaign(_cfg(tmp_path, objective="sphere", dim=1, init_box="0:2.6e154",
                          trials=4, seed=3, traj="all"))
    assert sorted(os.listdir(tmp_path)) == sorted(before)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_failed_campaign_creates_no_out_dir(tmp_path, capsys):
    out_dir = tmp_path / "fresh" / "sub"
    code = main(["run", "--objective", "sphere", "--dim", "1", "--init-box=0:2.6e154",
                 "--trials", "4", "--seed", "3", "--traj", "all", "--out-dir", str(out_dir)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: trial 3 (seed 12505594170494392219): ")
    assert not (tmp_path / "fresh").exists()


@pytest.mark.parametrize("signame", ["SIGTERM", "SIGHUP"])
def test_a_signal_ends_a_campaign_without_leaving_its_staging(tmp_path, signame):
    """Killed while it runs, a campaign removes its staging directory and
    the out-dir it created, and exits with 128 + the signal's number."""
    out_dir = tmp_path / "killed"
    env = dict(os.environ, PYTHONPATH=str(Path(basopt.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1")
    env.pop("PYTHONWARNINGS", None)
    # minutes of search, in blocks of one trial and with no history
    proc = subprocess.Popen(
        [sys.executable, "-m", "basopt.cli", "run", "--objective", "sphere", "--dim", "1000",
         "--iters", "100000", "--trials", "50", "--traj", "none", "--out-dir", str(out_dir)],
        cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        deadline = time.monotonic() + 10
        while not list(out_dir.glob(".basopt-*")):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.02)
        proc.send_signal(getattr(signal, signame))
        stdout, stderr = proc.communicate(timeout=30)
    finally:
        proc.kill()
        proc.communicate()
    assert proc.returncode == 128 + getattr(signal, signame)
    assert stderr.splitlines() == [f"error: interrupted by {signame}"]
    assert stdout == ""
    assert not out_dir.exists()


def test_a_campaign_restores_the_signal_handlers(tmp_path, capsys):
    before = [signal.getsignal(s) for s in (signal.SIGTERM, signal.SIGHUP)]
    assert main(["run", "--objective", "sphere", "--traj", "none",
                 "--out-dir", str(tmp_path)]) == 0
    assert [signal.getsignal(s) for s in (signal.SIGTERM, signal.SIGHUP)] == before
    assert capsys.readouterr().err == ""


def test_rerun_removes_the_older_campaigns_trajectories(tmp_path):
    """A campaign that succeeds into a used directory leaves its own
    trajectories only; files that are not trajectories stay as they were."""
    (tmp_path / "notes.txt").write_text("keep")
    (tmp_path / "traj_old.csv").write_text("keep")
    run_campaign(_cfg(tmp_path, objective="sphere", trials=5, traj="all"))
    assert sorted(p.name for p in tmp_path.glob("traj_*.csv")) == [
        "traj_000.csv", "traj_001.csv", "traj_002.csv", "traj_003.csv", "traj_004.csv",
        "traj_old.csv"]
    run_campaign(_cfg(tmp_path, objective="sphere", trials=2, traj="all"))
    assert sorted(p.name for p in tmp_path.glob("traj_*.csv")) == [
        "traj_000.csv", "traj_001.csv", "traj_old.csv"]
    run_campaign(_cfg(tmp_path, objective="sphere", trials=2, traj="first"))
    assert sorted(p.name for p in tmp_path.glob("traj_*.csv")) == [
        "traj_000.csv", "traj_old.csv"]
    assert [(tmp_path / name).read_text() for name in ("notes.txt", "traj_old.csv")] == [
        "keep", "keep"]
    assert len(json.loads((tmp_path / "summary.json").read_text())["trials"]) == 2


@pytest.mark.parametrize("out_dir,errno_", [
    ("F", errno.EEXIST),
    (os.path.join("F", "sub"), errno.ENOTDIR),
], ids=["file", "below-a-file"])
def test_unusable_out_dir_is_one_error_line(tmp_path, out_dir, errno_):
    (tmp_path / "F").write_text("")
    proc = _run_module(["run", "--objective", "sphere", "--out-dir", out_dir], tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [f"error: out-dir: {out_dir}: {os.strerror(errno_)}"]
    assert (tmp_path / "F").read_text() == ""


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
                 "--resolution", "100000"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: grid of 10000000000 nodes exceeds the cap of 100000000\n"


def test_max_nodes_is_not_an_option(capsys):
    """The grid cap is the constant ``oracle._MAX_NODES``, not a flag."""
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "grid", "--objective", "goldstein_price", "--resolution", "10",
              "--max-nodes", "1000000"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-nodes" in capsys.readouterr().err


def test_main_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])
