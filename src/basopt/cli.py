"""Command-line harness for seeded multi-trial search campaigns.

Configuration precedence is flags > config file > built-in defaults; the
defaults, the field defaults of ``ExperimentConfig``, are the benchmark
configuration used throughout the test suite. A campaign runs ``trials``
independent searches whose seeds derive from (master seed, trial index),
writes per-trial trajectory CSVs plus a JSON summary, and is
byte-reproducible: the same config produces identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import tempfile
import time
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .core import (BasConfig, ObjectiveError, RunResult, ScheduleSpec,
                   derive_trial_seeds, run_trials)
# Kept importable here; perfbench/tracer.py wraps them.
from .core import derive_trial_seed, run  # noqa: F401
from .objectives import lookup_objective, objective_names
from .oracle import GridSpec, grid_search, random_search_baseline

_TRAJ_MODES = ("all", "first", "none")


class ConfigError(ValueError):
    """Invalid experiment configuration; the message begins with the setting."""


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def parse_box_spec(spec: str) -> tuple:
    """Parse ``lo:hi[,lo:hi...]`` into (lo, hi) pairs; the search checks the box."""
    pairs = []
    for part in spec.split(","):
        pieces = part.split(":")
        if len(pieces) != 2:
            raise ValueError(f"expected lo:hi[,lo:hi...], got {spec!r}")
        try:
            pairs.append((float(pieces[0]), float(pieces[1])))
        except ValueError:
            raise ValueError(f"malformed number in {part!r}") from None
    return tuple(pairs)


def format_box_spec(box) -> str:
    return ",".join(f"{float(lo)!r}:{float(hi)!r}" for lo, hi in box)


def _setting(default, parse, help: str, **flag):
    """A campaign setting: its default, the parser of its text (from a flag
    or a config file; it raises ``ValueError``), and its flag's help and extra
    argparse arguments."""
    return field(default=default, metadata={"parse": parse, "help": help, "flag": flag})


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated campaign configuration; its init fields are the settings.

    A setting ``name`` is the flag ``--name`` and the config-file key
    ``name``, with ``-`` for ``_`` in either, and errors name it the flag's
    way. ``search`` is the search config every trial shares (each trial runs
    with its own seed); building it checks the numeric settings, so an
    invalid configuration raises ``ConfigError`` on construction.
    """

    objective: Optional[str] = _setting(None, str, "objective to minimize (required)",
                                        choices=objective_names())
    dim: int = _setting(2, int, "search-space dimension")
    iters: int = _setting(100, int, "iterations per trial")
    d0: float = _setting(2.0, float, "initial antenna length")
    delta0: float = _setting(0.5, float, "initial step size")
    eta_d: float = _setting(0.95, float, "antenna decay rate")
    offset_d: float = _setting(0.01, float, "antenna decay offset")
    eta_delta: float = _setting(0.95, float, "step decay rate")
    trials: int = _setting(1, int, "independent runs")
    seed: int = _setting(0, int, "campaign master seed")
    init_box: Optional[tuple] = _setting(None, parse_box_spec,
                                         "start box override; default is the objective's box",
                                         metavar="LO:HI[,LO:HI...]")
    clamp: bool = _setting(False, _parse_bool, "clamp moves to the init box",
                           action=argparse.BooleanOptionalAction)
    target: Optional[float] = _setting(None, float, "stop once best value reaches this")
    stall: Optional[int] = _setting(None, int,
                                    "stop after this many iterations without improvement")
    out_dir: str = _setting(".", str, "output directory")
    traj: str = _setting("first", str, "which trials get a trajectory CSV",
                         choices=_TRAJ_MODES)
    search: BasConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "search", _validate(self))


_SETTINGS = {f.name: f for f in fields(ExperimentConfig) if f.init}


def _parse_setting(name: str, text: str):
    with _naming(name.replace("_", "-")):
        return _SETTINGS[name].metadata["parse"](text)


@dataclass(frozen=True)
class CampaignSummary:
    config: dict          # resolved flat config echo (file-key names)
    trials: tuple         # a RunResult per trial, in order, with no trajectory rows
    best: float
    median: float
    mean: float
    std: float
    total_evals: int
    duration_s: float


def read_config_file(path) -> dict:
    """Flat ``key = value`` text; keys are the setting names."""
    values = {}
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"config: {path}: {getattr(err, 'strerror', None) or err}") from None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key = key.strip().replace("-", "_")
        if key not in _SETTINGS:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = _parse_setting(key, value.strip())
    return values


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", help="config file (flags override it)")
    for name, setting in _SETTINGS.items():
        text = setting.metadata["help"]
        if setting.default is not None:
            text += f" (default {setting.default})"
        parser.add_argument("--" + name.replace("_", "-"), help=text,
                            **setting.metadata["flag"])


@contextmanager
def _naming(fallback: Optional[str] = None, **settings):
    """Re-raise a ``ValueError`` as a ``ConfigError`` naming the setting.

    A core message begins with the name of the parameter at fault; when
    ``settings`` maps that name to a setting, the setting replaces it,
    otherwise ``fallback`` goes in front of the whole message.
    """
    try:
        yield
    except ValueError as err:
        param, _, rest = str(err).partition(" ")
        if param in settings:
            raise ConfigError(f"{settings[param].replace('_', '-')}: {rest}") from None
        if fallback is None:
            raise
        raise ConfigError(f"{fallback}: {err}") from None


def _objective_and_box(name: str, dim: int, box: Optional[tuple], setting: str):
    """The objective ``name`` in ``dim`` dimensions and the box to search it
    in: ``box``, one pair per axis or a single pair for every axis, or by
    default the objective's own box. Errors name ``setting`` for the box."""
    with _naming("objective/dim", dimension="dim"):
        objective = lookup_objective(name, dim)
    if box is None:
        return objective, objective.init_box
    if len(box) not in (1, dim):
        raise ConfigError(f"{setting}: needs 1 or {dim} lo:hi pairs, got {len(box)}")
    return objective, box * dim if len(box) == 1 else box


def _validate(cfg: ExperimentConfig) -> BasConfig:
    """The search config of ``cfg``, built after the checks that only the
    campaign can make; ``BasConfig`` and ``ScheduleSpec`` check the rest."""
    if cfg.objective is None:
        raise ConfigError("objective: required (one of "
                          f"{', '.join(objective_names())})")
    _, init_box = _objective_and_box(cfg.objective, cfg.dim, cfg.init_box, "init-box")
    if cfg.trials < 1:
        raise ConfigError(f"trials: must be >= 1, got {cfg.trials}")
    if cfg.traj not in _TRAJ_MODES:
        raise ConfigError(f"traj: must be one of {_TRAJ_MODES}, got {cfg.traj!r}")
    with _naming(rate="eta_d", offset="offset_d"):
        d_schedule = ScheduleSpec(cfg.eta_d, cfg.offset_d)
    with _naming(rate="eta_delta"):
        delta_schedule = ScheduleSpec(cfg.eta_delta)
    with _naming(dimension="dim", d0="d0", delta0="delta0", max_iters="iters", seed="seed",
                 init_box="init_box", target_value="target", stall_iters="stall"):
        return BasConfig(
            dimension=cfg.dim,
            d0=cfg.d0,
            delta0=cfg.delta0,
            d_schedule=d_schedule,
            delta_schedule=delta_schedule,
            max_iters=cfg.iters,
            seed=cfg.seed,
            init_box=init_box,
            clamp_box=init_box if cfg.clamp else None,
            target_value=cfg.target,
            stall_iters=cfg.stall,
        )


def _merge_run_args(args: argparse.Namespace) -> ExperimentConfig:
    """Flags over the ``--config`` file over defaults. Flag values are text,
    except the bool that ``--clamp``/``--no-clamp`` give."""
    values = read_config_file(args.config) if args.config else {}
    for name in _SETTINGS:
        value = getattr(args, name)
        if value is not None:
            values[name] = _parse_setting(name, value) if isinstance(value, str) else value
    return ExperimentConfig(**values)


def parse_config(argv: Sequence[str]) -> ExperimentConfig:
    """Resolve an ExperimentConfig from ``basopt run`` tokens; flags override
    the ``--config`` file, which overrides the defaults."""
    return _merge_run_args(_build_parser().parse_args(["run", *argv]))


def config_echo(cfg: ExperimentConfig) -> dict:
    """Flat, file-key echo of the fully resolved campaign configuration.

    Written into the summary so the campaign can be reproduced bit-exactly
    from its output alone (the init box is echoed resolved, not inherited).
    Where the artifacts land (out_dir) is not part of the echo: two
    campaigns that differ only in destination produce identical summaries.
    """
    echo = {name: getattr(cfg, name) for name in _SETTINGS if name != "out_dir"}
    echo["init_box"] = format_box_spec(cfg.search.init_box)
    return echo


def emit_trajectory(result: RunResult, path, schedule_text: Optional[dict] = None) -> None:
    """Write one CSV row per iteration: t, objective at x, best so far, the
    antenna length and step size used, then the coordinates of x. Floats
    are rendered with repr, which round-trips to the identical double.

    The rows are ``result.trajectory`` with ``t`` in front. A repr is reused
    where the value is the same double: ``f_bst`` from the previous row or
    from this row's ``f_x``, and the ``d,delta`` text from ``schedule_text``,
    a dict that a campaign passes to every call because its trials share one
    schedule. Equal doubles have equal reprs except 0.0 and -0.0, so a zero
    is never reused.
    """
    if schedule_text is None:
        schedule_text = {}
    lines = ["t,f_x,f_bst,d,delta," + ",".join(f"x_{j}" for j in range(len(result.x_bst)))]
    f_prev, f_prev_text = None, ""
    for t, row in enumerate(result.trajectory.tolist(), 1):
        f_x, f_bst, d, delta = row[0], row[1], row[2], row[3]
        f_x_text = repr(f_x)
        if f_bst == f_prev and f_bst:
            f_bst_text = f_prev_text
        elif f_bst == f_x and f_bst:
            f_bst_text = f_x_text
        else:
            f_bst_text = repr(f_bst)
        f_prev, f_prev_text = f_bst, f_bst_text
        d_delta_text = schedule_text.get((d, delta))
        if d_delta_text is None:
            d_delta_text = f"{d!r},{delta!r}"
            if d and delta:
                schedule_text[d, delta] = d_delta_text
        lines.append(f"{t},{f_x_text},{f_bst_text},{d_delta_text},"
                     + ",".join(map(repr, row[4:])))
    Path(path).write_text("\n".join(lines) + "\n")


def emit_summary(summary: CampaignSummary, path) -> None:
    """JSON document with config echo, per-trial results, and aggregates.

    Keys are sorted and the wall-clock duration is deliberately left out,
    so identical configs produce byte-identical files. The bytes are those of
    ``json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"``:
    ``config`` and ``aggregate`` go through ``json.dumps``, and the trials,
    the bulk of the file, through ``_trials_json``.
    """
    head = json.dumps({
        "aggregate": {name: getattr(summary, name)
                      for name in ("best", "median", "mean", "std", "total_evals")},
        "config": summary.config,
    }, indent=2, sort_keys=True, allow_nan=False)
    # "trials" sorts last, so it goes in front of the document's closing brace.
    Path(path).write_text(f'{head[:-2]},\n  "trials": {_trials_json(summary.trials)}\n}}\n')


def _trials_json(trials: Sequence[RunResult]) -> str:
    """The trials array as ``json.dumps`` writes it two levels deep with
    ``indent=2, sort_keys=True, allow_nan=False``: floats by ``float.__repr__``,
    ints by ``int.__repr__``, and the same ``ValueError`` for a value that is
    not finite."""
    items = []
    for i, t in enumerate(trials):
        for value in (t.f_bst, *t.x_bst):
            if not math.isfinite(value):
                raise ValueError("Out of range float values are not JSON compliant: "
                                 + repr(value))
        x_bst = ",\n        ".join(map(float.__repr__, t.x_bst))
        items.append(f'{{\n      "evals": {int.__repr__(t.evals)},\n'
                     f'      "f_bst": {float.__repr__(t.f_bst)},\n'
                     f'      "seed": {int.__repr__(t.seed)},\n'
                     f'      "termination": {json.dumps(t.termination)},\n'
                     f'      "trial": {int.__repr__(i)},\n'
                     f'      "x_bst": [\n        {x_bst}\n      ]\n    }}')
    return "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"


@contextmanager
def _staged(out_dir: str):
    """A fresh directory inside ``out_dir`` for a campaign's artifacts. They
    move into ``out_dir`` only when the block ends without an error, so a
    failed campaign leaves ``out_dir`` as it found it, or absent with any
    parent it created. A move removes each ``traj_<digits>.csv`` it did not
    bring. An ``OSError`` becomes a ``ConfigError`` naming out-dir."""
    target = Path(out_dir)
    missing = [path for path in (target, *target.parents) if not path.exists()]
    try:
        target.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(prefix=".basopt-", dir=target) as staging:
            yield Path(staging)
            staged = set(os.listdir(staging))
            for name in staged:
                os.replace(Path(staging) / name, target / name)
            for name in os.listdir(target):
                if re.fullmatch(r"traj_[0-9]+\.csv", name) and name not in staged:
                    os.remove(target / name)
    except OSError as err:
        raise ConfigError(f"out-dir: {out_dir}: {err.strerror or err}") from None
    finally:
        for path in missing:  # leaf first; rmdir only succeeds while empty
            with suppress(OSError):
                path.rmdir()


def _spread(f_values: np.ndarray) -> list:
    """Median, mean and std of ``f_values``. Each is numpy's where that is
    finite, so it stays bit for bit; where a sum overflows, it is computed on
    ``f / max|f|`` and scaled back."""
    def stats(v):
        return np.array([np.median(v), v.mean(), v.std()])
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.abs(f_values).max()
        plain = stats(f_values)
        return np.where(np.isfinite(plain), plain, scale * stats(f_values / scale)).tolist()


def run_campaign(cfg: ExperimentConfig) -> CampaignSummary:
    """Run ``trials`` independent seeded searches and write the artifacts."""
    objective = lookup_objective(cfg.objective, cfg.dim)
    with _staged(cfg.out_dir) as out_dir:
        started = time.perf_counter()
        seeds = derive_trial_seeds(cfg.seed, cfg.trials)
        written = range({"all": cfg.trials, "first": 1, "none": 0}[cfg.traj])
        schedule_text = {}  # shared by the trajectories: every trial has one schedule
        rowless = np.empty((0, 4 + cfg.dim))  # a written trial's trajectory in the
        rowless.flags.writeable = False       # summary, so that it keeps no rows alive
        trials = []
        for i, result in enumerate(run_trials(cfg.search, objective, seeds, record=written)):
            if i in written:
                emit_trajectory(result, out_dir / f"traj_{i:03d}.csv", schedule_text)
                result = replace(result, trajectory=rowless)
            trials.append(result)
        duration = time.perf_counter() - started

        f_values = np.array([t.f_bst for t in trials])
        median, mean, std = _spread(f_values)
        summary = CampaignSummary(
            config=config_echo(cfg),
            trials=tuple(trials),
            best=float(f_values.min()),
            median=median,
            mean=mean,
            std=std,
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
    search_space = argparse.ArgumentParser(add_help=False)
    search_space.add_argument("--objective", choices=objective_names(), required=True)
    search_space.add_argument("--dim", type=int, default=2)
    search_space.add_argument("--box", metavar="LO:HI[,LO:HI...]",
                              help="default is the objective's box")

    grid_p = osub.add_parser("grid", parents=[search_space],
                             help="exhaustive lattice minimization")
    grid_p.add_argument("--resolution", type=int, required=True)

    rand_p = osub.add_parser("random", parents=[search_space],
                             help="uniform random sampling baseline")
    rand_p.add_argument("--evals", type=int, required=True)
    rand_p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            cfg = _merge_run_args(args)
            summary = run_campaign(cfg)
            print(f"campaign: objective={cfg.objective} dim={cfg.dim} "
                  f"trials={cfg.trials} iters={cfg.iters} seed={cfg.seed}")
            print(f"  f_bst: best={summary.best!r} median={summary.median!r} "
                  f"mean={summary.mean!r} std={summary.std!r}")
            print(f"  evals={summary.total_evals} duration={summary.duration_s:.3f}s "
                  f"summary={Path(cfg.out_dir) / 'summary.json'}")
            return 0
        if args.command == "oracle":
            with _naming("box"):
                box = None if args.box is None else parse_box_spec(args.box)
            objective, box = _objective_and_box(args.objective, args.dim, box, "box")
            space = f"objective={objective.name} dim={objective.dimension}"
            duration = ""
            with _naming(box="box", resolution="resolution", n_evals="evals"):
                if args.oracle_command == "grid":
                    grid = GridSpec(box=box, resolution=args.resolution)
                    started = time.perf_counter()
                    x, f = grid_search(objective, grid)
                    duration = f" duration={time.perf_counter() - started:.3f}s"
                    print(f"grid: {space} resolution={args.resolution} nodes={grid.n_nodes}")
                else:
                    with _naming("seed"):
                        rng = np.random.default_rng(args.seed)
                    x, f = random_search_baseline(objective, box, args.evals, rng)
                    print(f"random: {space} evals={args.evals} seed={args.seed}")
            coords = ",".join(repr(v) for v in x.tolist())
            print(f"  best_f={f!r} best_x={coords}{duration}")
            return 0
        raise AssertionError(f"unhandled command {args.command!r}")
    except (ValueError, ObjectiveError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except MemoryError as err:
        print("error: out of memory" + (f": {err}" if str(err) else ""), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
