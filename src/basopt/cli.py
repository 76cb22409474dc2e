"""Command-line harness for seeded multi-trial search campaigns.

Configuration precedence is flags > config file > built-in defaults; the
defaults are the benchmark configuration used throughout the test suite
(d0=2, delta0=0.5, geometric decay 0.95 with antenna offset 0.01, 100
iterations). A campaign runs ``trials`` independent searches whose seeds
derive from (master seed, trial index), writes per-trial trajectory CSVs
plus a JSON summary, and is byte-reproducible: the same config produces
identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .core import (BasConfig, ObjectiveError, RunResult, ScheduleSpec,
                   GEOMETRIC, GEOMETRIC_OFFSET, derive_trial_seed, run_trials)
from .core import run  # noqa: F401  (kept importable here; perfbench/tracer.py wraps it)
from .objectives import lookup_objective, objective_names
from .oracle import GridSpec, grid_search, random_search_baseline

_TRAJ_MODES = ("all", "first", "none")

_DEFAULTS = {
    "objective": None,  # required
    "dim": 2,
    "iters": 100,
    "d0": 2.0,
    "delta0": 0.5,
    "eta_d": 0.95,
    "offset_d": 0.01,
    "eta_delta": 0.95,
    "trials": 1,
    "seed": 0,
    "init_box": None,  # None -> objective's default box
    "clamp": False,
    "target": None,
    "stall": None,
    "out_dir": ".",
    "traj": "first",
}


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


class CampaignError(RuntimeError):
    """A trial of the campaign failed; the message names the trial."""


@dataclass(frozen=True)
class ExperimentConfig:
    objective: str
    dim: int
    iters: int
    d0: float
    delta0: float
    eta_d: float
    offset_d: float
    eta_delta: float
    trials: int
    seed: int
    init_box: Optional[tuple]
    clamp: bool
    target: Optional[float]
    stall: Optional[int]
    out_dir: str
    traj: str


@dataclass(frozen=True)
class TrialResult:
    trial: int
    seed: int
    f_bst: float
    x_bst: tuple
    evals: int
    termination: str


@dataclass(frozen=True)
class CampaignSummary:
    config: dict          # resolved flat config echo (file-key names)
    trials: tuple
    best: float
    median: float
    mean: float
    std: float
    total_evals: int
    duration_s: float


def _parse_bool(text: str, field: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"{field}: expected a boolean, got {text!r}")


def parse_box_spec(spec: str, field: str = "init-box") -> tuple:
    """Parse ``lo:hi[,lo:hi...]`` into a tuple of (lo, hi) pairs."""
    pairs = []
    for part in spec.split(","):
        pieces = part.split(":")
        if len(pieces) != 2:
            raise ConfigError(f"{field}: expected lo:hi[,lo:hi...], got {spec!r}")
        try:
            lo, hi = float(pieces[0]), float(pieces[1])
        except ValueError:
            raise ConfigError(f"{field}: malformed number in {part!r}") from None
        if lo > hi:
            raise ConfigError(f"{field}: lo must be <= hi, got {part!r}")
        pairs.append((lo, hi))
    return tuple(pairs)


def format_box_spec(box) -> str:
    return ",".join(f"{float(lo)!r}:{float(hi)!r}" for lo, hi in box)


def _coerce_file_value(key: str, text: str):
    if key in ("objective", "out_dir", "traj"):
        return text
    if key in ("dim", "iters", "trials", "seed", "stall"):
        try:
            return int(text)
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {text!r}") from None
    if key in ("d0", "delta0", "eta_d", "offset_d", "eta_delta", "target"):
        try:
            return float(text)
        except ValueError:
            raise ConfigError(f"{key}: expected a number, got {text!r}") from None
    if key == "clamp":
        return _parse_bool(text, "clamp")
    if key == "init_box":
        return parse_box_spec(text, "init-box")
    raise ConfigError(f"unknown config key {key!r}")


def read_config_file(path) -> dict:
    """Flat ``key = value`` text; keys mirror the flag names."""
    values = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key = key.strip().replace("-", "_")
        values[key] = _coerce_file_value(key, value.strip())
    return values


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", help="config file (flags override it)")
    parser.add_argument("--objective", choices=objective_names())
    parser.add_argument("--dim", type=int, help="search-space dimension (default 2)")
    parser.add_argument("--iters", type=int, help="iterations per trial (default 100)")
    parser.add_argument("--d0", type=float, help="initial antenna length (default 2)")
    parser.add_argument("--delta0", type=float, help="initial step size (default 0.5)")
    parser.add_argument("--eta-d", type=float, help="antenna decay rate (default 0.95)")
    parser.add_argument("--offset-d", type=float, help="antenna decay offset (default 0.01)")
    parser.add_argument("--eta-delta", type=float, help="step decay rate (default 0.95)")
    parser.add_argument("--trials", type=int, help="independent runs (default 1)")
    parser.add_argument("--seed", type=int, help="campaign master seed (default 0)")
    parser.add_argument("--init-box", metavar="LO:HI[,LO:HI...]",
                        help="start box override; default is the objective's box")
    parser.add_argument("--clamp", action=argparse.BooleanOptionalAction, default=None,
                        help="clamp moves to the init box (off by default)")
    parser.add_argument("--target", type=float, help="stop once best value reaches this")
    parser.add_argument("--stall", type=int,
                        help="stop after this many iterations without improvement")
    parser.add_argument("--out-dir", help="output directory (default .)")
    parser.add_argument("--traj", choices=_TRAJ_MODES,
                        help="which trials get a trajectory CSV (default first)")


def _validate(cfg: ExperimentConfig) -> ExperimentConfig:
    if cfg.objective is None:
        raise ConfigError("objective: required (one of "
                          f"{', '.join(objective_names())})")
    if cfg.dim < 1:
        raise ConfigError(f"dim: must be >= 1, got {cfg.dim}")
    try:
        objective = lookup_objective(cfg.objective, cfg.dim)
    except ValueError as err:
        raise ConfigError(f"objective/dim: {err}") from None
    if not cfg.d0 > 0:
        raise ConfigError(f"d0: must be > 0, got {cfg.d0}")
    if not cfg.delta0 > 0:
        raise ConfigError(f"delta0: must be > 0, got {cfg.delta0}")
    if cfg.iters < 1:
        raise ConfigError(f"iters: must be >= 1, got {cfg.iters}")
    if not 0.0 < cfg.eta_d <= 1.0:
        raise ConfigError(f"eta-d: must be in (0, 1], got {cfg.eta_d}")
    if cfg.offset_d < 0.0:
        raise ConfigError(f"offset-d: must be >= 0, got {cfg.offset_d}")
    if not 0.0 < cfg.eta_delta <= 1.0:
        raise ConfigError(f"eta-delta: must be in (0, 1], got {cfg.eta_delta}")
    if cfg.trials < 1:
        raise ConfigError(f"trials: must be >= 1, got {cfg.trials}")
    if cfg.seed < 0:
        raise ConfigError(f"seed: must be >= 0, got {cfg.seed}")
    if cfg.init_box is not None and len(cfg.init_box) not in (1, cfg.dim):
        raise ConfigError(
            f"init-box: needs 1 or {cfg.dim} lo:hi pairs, got {len(cfg.init_box)}")
    if cfg.target is not None and not np.isfinite(cfg.target):
        raise ConfigError(f"target: must be finite, got {cfg.target}")
    if cfg.stall is not None and cfg.stall < 1:
        raise ConfigError(f"stall: must be >= 1, got {cfg.stall}")
    if cfg.traj not in _TRAJ_MODES:
        raise ConfigError(f"traj: must be one of {_TRAJ_MODES}, got {cfg.traj!r}")
    del objective
    return cfg


def _merge_run_args(run_args: dict, config_file=None) -> ExperimentConfig:
    values = dict(_DEFAULTS)
    path = run_args.pop("config", None) or config_file
    if path is not None:
        file_values = read_config_file(path)
        unknown = set(file_values) - set(values)
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
        values.update(file_values)
    for key, flag_value in run_args.items():
        if flag_value is not None:
            values[key] = flag_value
    if isinstance(values["init_box"], str):
        values["init_box"] = parse_box_spec(values["init_box"])
    return _validate(ExperimentConfig(**values))


def parse_config(argv: Sequence[str], config_file=None) -> ExperimentConfig:
    """Resolve an ExperimentConfig from run-command tokens plus an optional
    config file; flags override file values override defaults."""
    parser = argparse.ArgumentParser(prog="basopt run", add_help=False)
    _add_run_flags(parser)
    args = vars(parser.parse_args(list(argv)))
    return _merge_run_args(args, config_file=config_file)


def _resolved_init_box(cfg: ExperimentConfig, objective) -> tuple:
    if cfg.init_box is None:
        return objective.init_box
    if len(cfg.init_box) == 1 and cfg.dim > 1:
        return cfg.init_box * cfg.dim
    return cfg.init_box


def config_echo(cfg: ExperimentConfig, init_box) -> dict:
    """Flat, file-key echo of the fully resolved campaign configuration.

    Written into the summary so the campaign can be reproduced bit-exactly
    from its output alone (the init box is echoed resolved, not inherited).
    Where the artifacts land (out_dir) is not part of the echo: two
    campaigns that differ only in destination produce identical summaries.
    """
    return {
        "objective": cfg.objective,
        "dim": cfg.dim,
        "iters": cfg.iters,
        "d0": cfg.d0,
        "delta0": cfg.delta0,
        "eta_d": cfg.eta_d,
        "offset_d": cfg.offset_d,
        "eta_delta": cfg.eta_delta,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "init_box": format_box_spec(init_box),
        "clamp": cfg.clamp,
        "target": cfg.target,
        "stall": cfg.stall,
        "traj": cfg.traj,
    }


def _bas_config(cfg: ExperimentConfig, init_box) -> BasConfig:
    """Search config shared by every trial; each trial runs with its own seed."""
    return BasConfig(
        dimension=cfg.dim,
        d0=cfg.d0,
        delta0=cfg.delta0,
        d_schedule=ScheduleSpec(GEOMETRIC_OFFSET, rate=cfg.eta_d, offset=cfg.offset_d),
        delta_schedule=ScheduleSpec(GEOMETRIC, rate=cfg.eta_delta),
        max_iters=cfg.iters,
        seed=cfg.seed,
        init_box=init_box,
        clamp_box=init_box if cfg.clamp else None,
        target_value=cfg.target,
        stall_iters=cfg.stall,
    )


def emit_trajectory(result: RunResult, path) -> None:
    """Write one CSV row per iteration: t, objective at x, best so far, the
    antenna length and step size used, then the coordinates of x. Floats
    are rendered with repr, which round-trips to the identical double."""
    lines = ["t,f_x,f_bst,d,delta," + ",".join(f"x_{j}" for j in range(len(result.x_bst)))]
    for r in result.records:
        lines.append(",".join(
            [str(r.t), repr(r.f_x), repr(r.f_bst), repr(r.d), repr(r.delta)]
            + [repr(c) for c in r.x]))
    Path(path).write_text("\n".join(lines) + "\n")


def emit_summary(summary: CampaignSummary, path) -> None:
    """JSON document with config echo, per-trial results, and aggregates.

    Keys are sorted and the wall-clock duration is deliberately left out,
    so identical configs produce byte-identical files.
    """
    doc = {
        "config": summary.config,
        "trials": [
            {"trial": t.trial, "seed": t.seed, "f_bst": t.f_bst,
             "x_bst": list(t.x_bst), "evals": t.evals, "termination": t.termination}
            for t in summary.trials
        ],
        "aggregate": {
            "best": summary.best,
            "median": summary.median,
            "mean": summary.mean,
            "std": summary.std,
            "total_evals": summary.total_evals,
        },
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_campaign(cfg: ExperimentConfig) -> CampaignSummary:
    """Run ``trials`` independent seeded searches and write the artifacts."""
    objective = lookup_objective(cfg.objective, cfg.dim)
    init_box = _resolved_init_box(cfg, objective)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    started = time.perf_counter()
    seeds = [derive_trial_seed(cfg.seed, i) for i in range(cfg.trials)]
    written = range({"all": cfg.trials, "first": 1, "none": 0}[cfg.traj])
    trials = []
    try:
        for i, result in enumerate(run_trials(_bas_config(cfg, init_box), objective,
                                              seeds, record=written)):
            trials.append(TrialResult(trial=i, seed=seeds[i], f_bst=result.f_bst,
                                      x_bst=result.x_bst, evals=result.evals,
                                      termination=result.termination))
            if i in written:
                emit_trajectory(result, out_dir / f"traj_{i:03d}.csv")
    except ObjectiveError as err:
        raise CampaignError(f"trial {err.trial}: {err}") from err
    duration = time.perf_counter() - started

    f_values = np.array([t.f_bst for t in trials])
    summary = CampaignSummary(
        config=config_echo(cfg, init_box),
        trials=tuple(trials),
        best=float(f_values.min()),
        median=float(np.median(f_values)),
        mean=float(f_values.mean()),
        std=float(f_values.std()),
        total_evals=int(sum(t.evals for t in trials)),
        duration_s=duration,
    )
    emit_summary(summary, out_dir / "summary.json")
    return summary


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="basopt",
        description="Beetle antennae search experiment harness")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a seeded multi-trial campaign")
    _add_run_flags(run_p)

    oracle_p = sub.add_parser("oracle", help="brute-force reference searches")
    osub = oracle_p.add_subparsers(dest="oracle_command", required=True)

    grid_p = osub.add_parser("grid", help="exhaustive lattice minimization")
    grid_p.add_argument("--objective", choices=objective_names(), required=True)
    grid_p.add_argument("--dim", type=int, default=2)
    grid_p.add_argument("--resolution", type=int, required=True)
    grid_p.add_argument("--box", metavar="LO:HI[,LO:HI...]",
                        help="default is the objective's box")
    grid_p.add_argument("--max-nodes", type=int, default=10 ** 8)

    rand_p = osub.add_parser("random", help="uniform random sampling baseline")
    rand_p.add_argument("--objective", choices=objective_names(), required=True)
    rand_p.add_argument("--dim", type=int, default=2)
    rand_p.add_argument("--evals", type=int, required=True)
    rand_p.add_argument("--seed", type=int, default=0)
    rand_p.add_argument("--box", metavar="LO:HI[,LO:HI...]",
                        help="default is the objective's box")
    return parser


def _oracle_box(args, objective) -> tuple:
    if args.box is None:
        return objective.init_box
    box = parse_box_spec(args.box, "box")
    if len(box) == 1 and objective.dimension > 1:
        box = box * objective.dimension
    return box


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            run_args = {k: v for k, v in vars(args).items() if k != "command"}
            cfg = _merge_run_args(run_args)
            summary = run_campaign(cfg)
            out_dir = Path(cfg.out_dir)
            print(f"campaign: objective={cfg.objective} dim={cfg.dim} "
                  f"trials={cfg.trials} iters={cfg.iters} seed={cfg.seed}")
            print(f"  f_bst: best={summary.best!r} median={summary.median!r} "
                  f"mean={summary.mean!r} std={summary.std!r}")
            print(f"  evals={summary.total_evals} duration={summary.duration_s:.3f}s "
                  f"summary={out_dir / 'summary.json'}")
            return 0
        if args.command == "oracle":
            objective = lookup_objective(args.objective, args.dim)
            box = _oracle_box(args, objective)
            if args.oracle_command == "grid":
                grid = GridSpec(box=box, resolution=args.resolution,
                                max_nodes=args.max_nodes)
                started = time.perf_counter()
                x, f = grid_search(objective, grid)
                duration = time.perf_counter() - started
                coords = ",".join(repr(v) for v in x.tolist())
                print(f"grid: objective={objective.name} dim={objective.dimension} "
                      f"resolution={args.resolution} nodes={grid.n_nodes}")
                print(f"  best_f={f!r} best_x={coords} duration={duration:.3f}s")
            else:
                rng = np.random.default_rng(args.seed)
                x, f = random_search_baseline(objective, box, args.evals, rng)
                coords = ",".join(repr(v) for v in x.tolist())
                print(f"random: objective={objective.name} dim={objective.dimension} "
                      f"evals={args.evals} seed={args.seed}")
                print(f"  best_f={f!r} best_x={coords}")
            return 0
        raise AssertionError(f"unhandled command {args.command!r}")
    except (ConfigError, ValueError, CampaignError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
