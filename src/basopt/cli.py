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
import shutil
import signal
import sys
import threading
import time
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import _trajectory, core
from .core import (TERMINATIONS, BasConfig, ObjectiveError, ScheduleSpec, TrialColumns, _as_int,
                   _as_seed, _blocks, _run_blocks, _trial_seeds)
# Kept importable here; perfbench/tracer.py wraps them.
from .core import derive_trial_seed, run  # noqa: F401
from .objectives import lookup_objective, objective_names
from .oracle import GridSpec, grid_search, random_search_baseline

_TRAJ_MODES = ("all", "first", "none")
# Trial i's trajectory CSV is _TRAJ_NAME.format(i), in run_campaign and in
# its helper process. _staged takes every name that _TRAJ_STALE matches,
# any count of digits, for an earlier campaign's CSV.
_TRAJ_NAME = "traj_{:03d}.csv"
_TRAJ_STALE = r"traj_[0-9]+\.csv"
_SUMMARY_TRIALS = 1 << 12  # trials that emit_summary formats per write


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
    return ",".join(map("{!r}:{!r}".format, *np.asarray(box, dtype=float).T.tolist()))


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

    objective: Optional[str] = _setting(None, str, "objective to minimize (required): "
                                        + ", ".join(objective_names()))
    dim: int = _setting(2, int, "search-space dimension")
    iters: int = _setting(BasConfig.max_iters, int, "iterations per trial")
    d0: float = _setting(BasConfig.d0, float, "initial antenna length")
    delta0: float = _setting(BasConfig.delta0, float, "initial step size")
    eta_d: float = _setting(BasConfig.d_schedule.rate, float, "antenna decay rate")
    offset_d: float = _setting(BasConfig.d_schedule.offset, float, "antenna decay offset")
    eta_delta: float = _setting(BasConfig.delta_schedule.rate, float, "step decay rate")
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
    traj: str = _setting("first", str,
                         "which trials get a trajectory CSV: " + ", ".join(_TRAJ_MODES))
    search: BasConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "search", _validate(self))


_SETTINGS = {f.name: f for f in fields(ExperimentConfig) if f.init}


def _parse_setting(name: str, text: str):
    with _naming(name.replace("_", "-")):
        return _SETTINGS[name].metadata["parse"](text)


@dataclass(frozen=True)
class CampaignSummary:
    """A campaign's outcome. ``trials`` holds one read-only array per
    per-trial field, with no trajectory rows, and reads as a sequence of
    ``RunResult`` in trial order, each built when it is read."""

    config: dict          # resolved flat config echo (file-key names)
    trials: TrialColumns
    best: float
    median: float
    mean: float
    std: float
    total_evals: int
    duration_s: float


def read_config_file(path) -> dict:
    """Flat ``key = value`` UTF-8 text, with or without a byte-order mark;
    keys are the setting names."""
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"config: {path}: {getattr(err, 'strerror', None) or err}") from None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"config: {path}:{lineno}: expected 'key = value', got {raw!r}")
        key = key.strip().replace("-", "_")
        if key not in _SETTINGS:
            raise ConfigError(f"config: {path}:{lineno}: unknown key {key!r}")
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
    with _naming(objective="objective", dimension="dim"):
        objective = lookup_objective(name, dim)
    if box is not None and len(box) not in (1, dim):
        raise ConfigError(f"{setting}: needs 1 or {dim} lo:hi pairs, got {len(box)}")
    return objective, objective.init_box if box is None else np.broadcast_to(box, (dim, 2))


# The BasConfig parameters that are campaign settings as they stand.
_SEARCH_SETTINGS = {"dimension": "dim", "d0": "d0", "delta0": "delta0", "max_iters": "iters",
                    "seed": "seed", "target_value": "target", "stall_iters": "stall"}


def _validate(cfg: ExperimentConfig) -> BasConfig:
    """The search config of ``cfg``, built after the checks that only the
    campaign can make; ``BasConfig`` and ``ScheduleSpec`` check the rest."""
    if cfg.objective is None:
        raise ConfigError("objective: required (one of "
                          f"{', '.join(objective_names())})")
    objective, init_box = _objective_and_box(cfg.objective, cfg.dim, cfg.init_box, "init-box")
    with _naming(trials="trials"):
        _as_int(cfg.trials, "trials", 1, sys.maxsize)
    if cfg.traj not in _TRAJ_MODES:
        raise ConfigError(f"traj: must be one of {_TRAJ_MODES}, got {cfg.traj!r}")
    with _naming(rate="eta_d", offset="offset_d"):
        d_schedule = ScheduleSpec(cfg.eta_d, cfg.offset_d)
    with _naming(rate="eta_delta"):
        delta_schedule = ScheduleSpec(cfg.eta_delta)
    with _naming(init_box="init_box", **_SEARCH_SETTINGS):
        search = BasConfig(
            d_schedule=d_schedule,
            delta_schedule=delta_schedule,
            init_box=init_box,
            clamp_box=init_box if cfg.clamp else None,
            **{param: getattr(cfg, name) for param, name in _SEARCH_SETTINGS.items()},
        )
    _check_reach(objective, search)
    return search


def _check_reach(objective, search: BasConfig) -> None:
    """Refuse a ``d0``, ``offset-d`` or ``delta0`` that carries a step from a
    finite value to a non-finite one. One batch evaluates the objective at
    the init box's far corner, ``max(|lo|, |hi|)`` on every axis, and at
    ``d + delta0`` beyond it, ``d`` the largest antenna length the schedule
    reaches: ``max(d0, d_last)``, where the last iteration's antenna length
    is ``d_last = rate^(iters - 1) * d0 + offset * (1 - rate^(iters - 1)) / (1 - rate)``,
    or ``d0 + (iters - 1) * offset`` at rate 1. Its offset term is a finite
    sum of powers times ``offset``, so it overflows to inf, never to nan.
    A corner that is not finite itself is left to the search. The error
    names the largest of ``d0``, that offset term and ``delta0``."""
    spec, d0, delta0 = search.d_schedule, search.d0, search.delta0
    steps = search.max_iters - 1
    kept = spec.rate ** steps
    growth = spec.offset * ((1.0 - kept) / (1.0 - spec.rate) if spec.rate < 1.0 else steps)
    d = max(d0, kept * d0 + growth)
    corner = np.abs(search.init_box).max(axis=1)
    with np.errstate(all="ignore"):
        at_corner, beyond = objective.batch(np.stack((corner, corner + d + delta0)))
    if np.isfinite(at_corner) and not np.isfinite(beyond):
        terms = {"d0": d0, "offset-d": growth, "delta0": delta0}
        name = max(terms, key=terms.get)  # the first of equal terms
        value = spec.offset if name == "offset-d" else terms[name]
        reach = ("d0" if d == d0 else "d0 + (iters - 1) * offset-d" if spec.rate == 1.0
                 else "eta-d^(iters - 1) * d0 + offset-d * (1 - eta-d^(iters - 1)) / (1 - eta-d)")
        raise ConfigError(f"{name}: too large, got {value!r}: the objective is {float(beyond)!r} "
                          f"at {reach} + delta0 beyond the far corner of the init box")


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


def emit_trajectory(trajectory: np.ndarray, path) -> None:
    """Write one CSV row per iteration: t, objective at x, best so far, the
    antenna length and step size used, then the coordinates of x. Floats
    are rendered with repr, which round-trips to the identical double.

    The rows are those of ``trajectory``, a ``RunResult.trajectory`` or a
    trial's history rows, with ``t`` in front. ``_trajectory.write_csv``
    formats and writes them in chunks of ``_trajectory.chunk_rows`` rows,
    so the writer's memory does not grow with the row count; the campaign's
    helper process writes its CSVs with the same function.
    """
    step = _trajectory.chunk_rows(trajectory.shape[1])
    _trajectory.write_csv(path, trajectory.shape[1],
                          (trajectory[start:start + step].tolist()
                           for start in range(0, len(trajectory), step)))


def emit_summary(summary: CampaignSummary, path) -> None:
    """JSON document with config echo, per-trial results, and aggregates.

    Keys are sorted and the wall-clock duration is deliberately left out,
    so identical configs produce byte-identical files. The bytes are those of
    ``json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"``,
    and so is the ``ValueError`` for a value that is not finite, raised
    before the file is opened. ``config`` and ``aggregate`` go through
    ``json.dumps``; the trials, the bulk of the file, are formatted from the
    summary's columns by ``_trials_json``, ``_SUMMARY_TRIALS`` at a time.
    """
    head = json.dumps({
        "aggregate": {name: getattr(summary, name)
                      for name in ("best", "median", "mean", "std", "total_evals")},
        "config": summary.config,
    }, indent=2, sort_keys=True, allow_nan=False)
    trials = summary.trials
    finite = np.isfinite(trials.f_bst) & np.isfinite(trials.x_bst).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))  # the first trial with a value that is not finite
        value = next(v for v in (trials.f_bst[i], *trials.x_bst[i]) if not math.isfinite(v))
        raise ValueError(f"Out of range float values are not JSON compliant: {float(value)!r}")
    # "trials" sorts last, so it goes in front of the document's closing brace.
    with open(path, "w") as f:
        f.write(f'{head[:-2]},\n  "trials": [')
        for start in range(0, len(trials), _SUMMARY_TRIALS):
            f.write(",\n    " if start else "\n    ")
            f.write(_trials_json(trials, range(start, min(start + _SUMMARY_TRIALS, len(trials)))))
        f.write("\n  ]\n}\n" if len(trials) else "]\n}\n")


# One trial of the trials array, as json.dumps indents it two levels deep,
# once its x_bst fields are filled in.
_TRIAL_JSON = ('{{\n      "evals": %d,\n      "f_bst": %r,\n      "seed": %d,\n'
               '      "termination": %s,\n      "trial": %d,\n'
               '      "x_bst": [\n        {}\n      ]\n    }}')
_TERMINATION_JSON = [json.dumps(name) for name in TERMINATIONS]


def _trials_json(trials: TrialColumns, rows: range) -> str:
    """The ``rows`` of the trials array, joined as ``json.dumps`` writes them
    two levels deep with ``indent=2, sort_keys=True``, from finite values:
    floats by ``float.__repr__`` and ints by ``int.__repr__``, which are
    ``%r`` and ``%d``. Each trial is one ``%`` of ``_TRIAL_JSON`` with its
    ``x_bst`` fields, on values read from the columns a column at a time."""
    part = slice(rows.start, rows.stop)
    template = _TRIAL_JSON.format(",\n        ".join(["%r"] * trials.x_bst.shape[1]))
    values = zip((3 * trials.iterations[part] + 1).tolist(),
                 trials.f_bst[part].tolist(),
                 np.asarray(trials.seeds[part]).tolist(),
                 map(_TERMINATION_JSON.__getitem__, trials.termination[part].tolist()),
                 rows,
                 *trials.x_bst[part].T.tolist())
    return ",\n    ".join(map(template.__mod__, values))


@contextmanager
def _interruptible():
    """While the block runs on the main thread (elsewhere no handler can be
    set), SIGTERM, SIGHUP or SIGINT prints one error line and raises
    ``SystemExit`` with 128 + the signal's number, which removes the staging
    directory on its way out. A signal ignored at the start stays ignored,
    as SIGINT in a background job or SIGHUP under ``nohup``. The previous
    handlers are restored afterwards."""
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    # The exception of a signal that arrives while an extension module loads
    # can be lost; the search imports this one, so it loads first.
    import numpy.random  # noqa: F401

    def interrupt(signum, frame):
        print(f"error: interrupted by {signal.Signals(signum).name}", file=sys.stderr)
        raise SystemExit(128 + signum)

    signums = [signum for signum in (signal.SIGTERM, signal.SIGHUP, signal.SIGINT)
               if signal.getsignal(signum) is not signal.SIG_IGN]
    previous = {signum: signal.signal(signum, interrupt) for signum in signums}
    try:
        yield
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)


@contextmanager
def _staged(out_dir: str):
    """A fresh directory inside ``out_dir`` for a campaign's artifacts. They
    move into ``out_dir`` only when the block ends without an error, so a
    failed campaign leaves ``out_dir`` as it found it, or absent with any
    parent it created. A move removes each ``traj_<digits>.csv`` it did not
    bring. An ``OSError`` becomes a ``ConfigError`` naming out-dir. The
    staging directory is named before it is made, so that an exception
    raised anywhere, such as by a signal, still finds it to remove with its
    contents; after the moves it is empty, and ``os.rmdir`` removes it.
    ``run_campaign``'s helper, which may only create and write trajectory
    files in the staging directory, has been reaped before anything here
    moves or removes them; a SIGKILLed campaign's helper ends by itself."""
    target = Path(out_dir)
    missing = [path for path in (target, *target.parents) if not path.exists()]
    staging = target / f".basopt-{os.urandom(8).hex()}"
    try:
        target.mkdir(parents=True, exist_ok=True)
        try:
            staging.mkdir(mode=0o700)
            yield staging
            staged = set(os.listdir(staging))
            for name in staged:
                os.replace(staging / name, target / name)
            os.rmdir(staging)
            for name in os.listdir(target):
                if re.fullmatch(_TRAJ_STALE, name) and name not in staged:
                    os.remove(target / name)
        finally:
            if staging.exists():
                shutil.rmtree(staging)
    except OSError as err:
        raise ConfigError(f"out-dir: {out_dir}: {err.strerror or err}") from None
    finally:
        for path in missing:  # leaf first; rmdir only succeeds while empty
            with suppress(OSError):
                path.rmdir()


class _Helper:
    """A campaign's helper process, once ``start`` has started it: ``python
    -I -S`` running ``_trajectory.py`` on the staging directory, which
    creates some later trials' CSV names ahead, empty, and writes the CSVs
    of the trials that ``send`` streams to its standard input. As a context
    manager it kills and reaps the helper when the block ends, however it
    ends, unless ``finish`` has reaped it already."""

    def __init__(self, staging: Path):
        self.staging = staging
        self.pid = None
        self.pipe = None
        self.sent = frozenset()  # the first trial of each block that the helper writes

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
            with suppress(OSError):  # the reader is gone: the flush fails, the fd closes
                self.pipe.close()

    def start(self, blocks: list) -> None:
        """Start the helper for ``blocks``, the recorded trials of the blocks
        after the first, in order: it creates the names of ``blocks[1]``,
        ``blocks[3]``, ..., then writes the CSVs of ``blocks[0]``,
        ``blocks[2]``, ..., which ``send`` gives it. It starts only for two
        blocks or more, with a Python interpreter, at least two usable CPUs
        and a pipe that holds ``_BLOCK_BYTES``, a block's history at most,
        so that the campaign waits on the helper only when it is more than a
        block behind; if it cannot be started, there is none.

        SIGTERM, SIGHUP and SIGINT are blocked on this thread until the
        helper's pid is recorded, so that one delivered here meanwhile runs
        after that, and ``__exit__`` reaps the helper. The helper acts only
        on what it reads, and it is sent its first message only once its
        pid is recorded; a helper whose pid is lost all the same, to a
        signal another thread took, reads the end of its input when the
        pipe closes here and ends with nothing done.
        """
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        if len(blocks) < 2 or not sys.executable or cpus < 2 or not hasattr(os, "posix_spawn"):
            return
        try:
            import fcntl
            setpipe = fcntl.F_SETPIPE_SZ
        except (ImportError, AttributeError):  # not Linux
            return
        read, write = os.pipe()
        pipe = open(write, "wb")
        try:
            with suppress(OSError):
                fcntl.fcntl(write, setpipe, core._BLOCK_BYTES)
                masked = signal.pthread_sigmask(signal.SIG_BLOCK, {
                    signal.SIGTERM, signal.SIGHUP, signal.SIGINT})
                try:
                    self.pid = os.posix_spawn(
                        sys.executable, [sys.executable, "-I", "-S", _trajectory.__file__,
                                         str(self.staging), _TRAJ_NAME], os.environ,
                        file_actions=[(os.POSIX_SPAWN_DUP2, read, 0),
                                      (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
                                      (os.POSIX_SPAWN_DUP2, 1, 2)],
                        setsigmask=())
                    self.pipe = pipe
                finally:
                    signal.pthread_sigmask(signal.SIG_SETMASK, masked)
        finally:
            os.close(read)
            if self.pipe is None:
                pipe.close()
        if self.pipe is not None:
            self.sent = {block.start for block in blocks[::2]}
            self._write([_trajectory.names(blocks[1::2])])

    def send(self, start: int, history: np.ndarray, iterations: list) -> bool:
        """Whether the helper writes the CSVs of the block whose first trial
        is ``start``; if it does, stream it each recorded trial's frame: the
        header ``(trial, rows, width)``, then its ``iterations[i]`` rows of
        ``history``."""
        if start not in self.sent:
            return False
        self._write(data for i, ran in enumerate(iterations)
                    for data in (_trajectory.FRAME.pack(start + i, ran, history.shape[2]),
                                 history[i, :ran]))
        return True

    def _write(self, data) -> None:
        """Write each bytes-like object of ``data`` to the pipe, then flush
        it. If the helper has ended, this raises ``finish``'s error, or the
        ``BrokenPipeError`` if it exited with status 0."""
        try:
            for item in data:
                self.pipe.write(item)
            self.pipe.flush()
        except BrokenPipeError:
            self.finish()
            raise

    def finish(self) -> None:
        """Close the pipe, so that the helper reads its end, and wait for it;
        an ``OSError`` says how it ended unless it exited with status 0."""
        if self.pid is None:
            return
        with suppress(BrokenPipeError):
            self.pipe.close()
        code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        self.pid = None
        if code:
            raise OSError("the trajectory helper " + (f"exited with status {code}" if code > 0
                                                      else f"was killed by signal {-code}"))


def _spread(f_values: np.ndarray) -> list:
    """Median, mean and std of ``f_values``. Each is numpy's where that is
    finite, so it stays bit for bit; where a sum overflows, it is computed on
    ``f / max|f|`` and scaled back."""
    def stats(v):
        return np.array([np.median(v), v.mean(), v.std()])
    with np.errstate(over="ignore", invalid="ignore"):
        plain = stats(f_values)
        if np.isfinite(plain).all():
            return plain.tolist()
        scale = np.abs(f_values).max()
        return np.where(np.isfinite(plain), plain, scale * stats(f_values / scale)).tolist()


def run_campaign(cfg: ExperimentConfig) -> CampaignSummary:
    """Run ``trials`` independent seeded searches and write the artifacts.

    The campaign's state is per block: each block's trial seeds are derived
    when it starts, its recorded trials' CSVs are written from its history
    rows, and its columns are copied into the campaign's, which the summary
    keeps (``8 * (k + 3) + 1`` bytes a trial). No ``RunResult`` is built.
    One block's arrays are resident at a time: a block's columns and
    history are dropped before the next block runs.

    When the first block is back and two or more later blocks hold
    recorded trials, a helper process (``_Helper``) writes the CSVs of
    every second later block on a second CPU, while this process searches
    and writes the others: it streams the helper those blocks' history
    rows, and the helper creates the names of this process's later CSVs
    ahead, empty, before it writes its own. Both format them with
    ``_trajectory.write_csv``, so the files' names, bytes and modes do not
    depend on the helper. It starts on at least two usable CPUs only. It
    has exited with status 0 before the artifacts move, or the campaign
    fails with an out-dir error; it is killed and reaped when the campaign
    fails or is interrupted, and a SIGKILLed campaign's helper reads the
    end of its input and ends by itself.
    """
    objective = lookup_objective(cfg.objective, cfg.dim)
    with _staged(cfg.out_dir) as out_dir, _Helper(out_dir) as helper:
        started = time.perf_counter()
        n = cfg.trials
        columns = {"seeds": np.empty(n, dtype=np.uint64), "x_bst": np.empty((n, cfg.dim)),
                   "f_bst": np.empty(n), "iterations": np.empty(n, dtype=int),
                   "termination": np.empty(n, dtype=np.uint8)}
        written = {"all": n, "first": 1, "none": 0}[cfg.traj]
        for start, block in _run_blocks(cfg.search, objective, n, written,
                                        partial(_trial_seeds, cfg.search.seed)):
            if not start and written > len(block):
                helper.start([range(later.start, min(later.stop, written)) for later in
                              _blocks(cfg.search, n, written) if 0 < later.start < written])
            for name, column in columns.items():
                column[start:start + len(block)] = getattr(block, name)
            recorded = block.iterations[:len(block.history)].tolist()
            if not helper.send(start, block.history, recorded):
                for i, ran in enumerate(recorded):
                    emit_trajectory(block.history[i, :ran], out_dir / _TRAJ_NAME.format(start + i))
            del block
        helper.finish()
        duration = time.perf_counter() - started

        trials = TrialColumns(**columns)
        median, mean, std = _spread(trials.f_bst)
        summary = CampaignSummary(
            config=config_echo(cfg),
            trials=trials,
            best=float(trials.f_bst.min()),
            median=median,
            mean=mean,
            std=std,
            total_evals=n + 3 * int(trials.iterations.sum()),
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
    search_space.add_argument("--objective", required=True,
                              help=_SETTINGS["objective"].metadata["help"])
    search_space.add_argument("--dim", default=2)
    search_space.add_argument("--box", metavar="LO:HI[,LO:HI...]",
                              help="default is the objective's box")

    grid_p = osub.add_parser("grid", parents=[search_space],
                             help="exhaustive lattice minimization")
    grid_p.add_argument("--resolution", required=True)

    rand_p = osub.add_parser("random", parents=[search_space],
                             help="uniform random sampling baseline")
    rand_p.add_argument("--evals", required=True)
    rand_p.add_argument("--seed", default=0)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            cfg = _merge_run_args(args)
            with _interruptible():
                summary = run_campaign(cfg)
            print(f"campaign: objective={cfg.objective} dim={cfg.dim} "
                  f"trials={cfg.trials} iters={cfg.iters} seed={cfg.seed}")
            print(f"  f_bst: best={summary.best!r} median={summary.median!r} "
                  f"mean={summary.mean!r} std={summary.std!r}")
            print(f"  evals={summary.total_evals} duration={summary.duration_s:.3f}s "
                  f"summary={Path(cfg.out_dir) / 'summary.json'}")
            return 0
        for name in ("dim", "resolution", "evals", "seed"):  # parsed as run's are
            if name in args:
                with _naming(name):
                    setattr(args, name, int(getattr(args, name)))
        with _naming("box"):
            box = None if args.box is None else parse_box_spec(args.box)
        objective, box = _objective_and_box(args.objective, args.dim, box, "box")
        space = f"objective={objective.name} dim={objective.dimension}"
        duration = ""
        with _naming(box="box", resolution="resolution", n_evals="evals", seed="seed"):
            if args.oracle_command == "grid":
                grid = GridSpec(box=box, resolution=args.resolution)
                started = time.perf_counter()
                x, f = grid_search(objective, grid)
                duration = f" duration={time.perf_counter() - started:.3f}s"
                print(f"grid: {space} resolution={args.resolution} nodes={grid.n_nodes}")
            else:
                rng = np.random.default_rng(_as_seed(args.seed))
                x, f = random_search_baseline(objective, box, args.evals, rng)
                print(f"random: {space} evals={args.evals} seed={args.seed}")
        coords = ",".join(repr(v) for v in x.tolist())
        print(f"  best_f={f!r} best_x={coords}{duration}")
        return 0
    except (ValueError, ObjectiveError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except MemoryError as err:
        print("error: out of memory" + (f": {err}" if str(err) else ""), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
