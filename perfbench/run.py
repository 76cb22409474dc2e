#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for basopt.

    python3 perfbench/run.py --workload mich2d_search --seed 0 --seconds 30 --trace 0

Run from a checkout of the repository; the package is imported from its
``src/`` directory, never from an installed copy. Load model: one process,
one client, closed loop (each operation starts after the previous one has
finished and been checked), no worker threads or processes.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same
workload untraced and then traced, and reports the per-layer metrics from
spans taken around the calls into basopt's public functions (see
``tracer.py``). The last line of standard output is one JSON object; the
lines above it are the human-readable report. The exit code is 1 when any
correctness check failed and 2 when the checkout cannot be benchmarked.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy is imported, here and in children.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_RUNS = 11          # fresh interpreters per run for setup_s
MIN_OPS = 3              # timed operations per loop, whatever --seconds says
CHILD_TIMEOUT_S = 60

# A fresh interpreter runs this; {setup} is the workload's config step.
SETUP_CHILD = """\
import time
t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
import basopt.cli
t1 = time.clock_gettime(time.CLOCK_MONOTONIC)
{setup}
t2 = time.clock_gettime(time.CLOCK_MONOTONIC)
print(repr(t0), repr(t1), repr(t2))
"""


class BenchError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


def sha256_files(paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.name.encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# workloads


class Campaign:
    """``run_campaign`` on a config built from flags plus the master seed.

    The first operation of a run gets the full checks; every later one (a
    rerun of the same seed into a fresh directory) must reproduce its
    artifacts byte for byte.
    """

    def __init__(self, name: str, flags: list):
        self.name = name
        self.flags = flags
        self.grid_bytes = 0

    def argv(self, seed: int) -> list:
        return self.flags + ["--seed", str(seed), "--out-dir", str(OUT / "unused")]

    def setup_code(self, seed: int) -> str:
        return (f"cfg = basopt.cli.parse_config({self.argv(seed)!r})\n"
                "basopt.cli.lookup_objective(cfg.objective, cfg.dim)")

    def load(self, cli, seed: int) -> None:
        self.cli = cli
        self.cfg = cli.parse_config(self.argv(seed))
        self.objective = cli.lookup_objective(self.cfg.objective, self.cfg.dim)
        self.first_digest = None
        self.f_values = None

    def prepare(self, out_dir: Path):
        cfg = dataclasses.replace(self.cfg, out_dir=str(out_dir))
        cli = self.cli
        return lambda: cli.run_campaign(cfg)

    def check(self, summary, out_dir: Path) -> dict:
        trajs = sorted(out_dir.glob("traj_*.csv"))
        summary_path = out_dir / "summary.json"
        files = [summary_path] + trajs
        digest = sha256_files(files)
        failures = []
        if self.first_digest is None:
            self.first_digest = digest
            failures = self._full_check(summary, summary_path, out_dir)
            self.f_values = [t.f_bst for t in summary.trials]
        elif digest != self.first_digest:
            failures.append("artifacts differ from the first run of this seed")
        return {"evals": summary.total_evals, "failures": failures,
                "traj_bytes": sum(p.stat().st_size for p in trajs),
                "summary_bytes": summary_path.stat().st_size}

    def _full_check(self, summary, summary_path: Path, out_dir: Path) -> list:
        failures = []
        doc = json.loads(summary_path.read_text())
        trials = doc["trials"]
        if len(trials) != self.cfg.trials:
            failures.append(f"summary has {len(trials)} trials, expected {self.cfg.trials}")
        for t in trials:
            traj = out_dir / f"traj_{t['trial']:03d}.csv"
            if traj.exists():
                records = len(traj.read_text().splitlines()) - 1
            elif t["termination"] == "max_iters":
                records = self.cfg.iters
            else:
                failures.append(f"trial {t['trial']}: stopped early without a trajectory")
                continue
            if t["evals"] != 1 + 3 * records:
                failures.append(f"trial {t['trial']}: evals {t['evals']} != 1 + 3*{records}")
            f = self.objective(np.array(t["x_bst"], dtype=float))
            if float(f).hex() != float(t["f_bst"]).hex():
                failures.append(f"trial {t['trial']}: objective(x_bst)={f!r} "
                                f"!= f_bst={t['f_bst']!r}")
        total = sum(t["evals"] for t in trials)
        if not total == doc["aggregate"]["total_evals"] == summary.total_evals:
            failures.append("total_evals disagrees with the per-trial evals")
        return failures

    def finish(self) -> list:
        return []

    def reference(self) -> float:
        """Seconds for fixed work shaped like this campaign's inner loop and
        written without basopt: 300 antenna-search steps at the campaign's
        dimension with three Michalewicz evaluations each, clamped and
        written out as CSV rows when the campaign does those."""
        started = time.perf_counter()
        k, clamp, write = self.cfg.dim, self.cfg.clamp, self.cfg.traj != "none"
        rng = np.random.default_rng(12345)
        i = np.arange(1, k + 1, dtype=float)

        def f(y):
            return float(-np.sum(np.sin(y) * np.sin(i * y * y / np.pi) ** 20))

        x = np.full(k, 1.0)
        rows = []
        for _ in range(300):
            v = rng.uniform(-1.0, 1.0, size=k)
            b = v / float(np.linalg.norm(v))
            x = x - 0.01 * b * np.sign(f(x + 0.5 * b) - f(x - 0.5 * b))
            if clamp:
                x = np.clip(x, 0.0, np.pi)
            fx = f(x)
            if write:
                rows.append(",".join([repr(fx)] + [repr(float(c)) for c in x]))
        if write:
            path = OUT / "reference.csv"
            path.write_text("\n".join(rows) + "\n")
            path.unlink()
        return time.perf_counter() - started


class Grid:
    """``grid_search`` on a box whose edges the seed shifts inward by up to
    0.05, so every seed enumerates the same number of nodes."""

    def __init__(self, name: str, objective: str, dim: int, resolution: int):
        self.name = name
        self.objective_name = objective
        self.dim = dim
        self.resolution = resolution
        self.grid_bytes = resolution ** dim * dim * 8

    def box(self, seed: int) -> tuple:
        rng = np.random.default_rng(seed)
        lo = rng.uniform(0.0, 0.05, self.dim)
        hi = np.pi - rng.uniform(0.0, 0.05, self.dim)
        return tuple((float(a), float(b)) for a, b in zip(lo, hi))

    def setup_code(self, seed: int) -> str:
        return (f"basopt.cli.lookup_objective({self.objective_name!r}, {self.dim})\n"
                f"basopt.oracle.GridSpec(box={self.box(seed)!r}, resolution={self.resolution})")

    def load(self, cli, seed: int) -> None:
        import basopt.oracle as oracle
        self.cli = cli
        self.oracle = oracle
        self.objective = cli.lookup_objective(self.objective_name, self.dim)
        self.grid = oracle.GridSpec(box=self.box(seed), resolution=self.resolution)
        self.first_digest = None
        self.f_values = None

    def prepare(self, out_dir: Path):
        # Looked up per operation, so a traced run times the traced objective.
        objective = self.cli.lookup_objective(self.objective_name, self.dim)
        oracle, grid = self.oracle, self.grid
        return lambda: oracle.grid_search(objective, grid)

    def reference(self) -> float:
        """Seconds for fixed work shaped like this search, written without
        basopt: two Michalewicz passes over a 65536-point chunk, the
        oracle's chunk size, so the memory high-water mark stays the op's."""
        started = time.perf_counter()
        a = np.random.default_rng(12345).uniform(0.0, np.pi, size=(1 << 16, self.dim))
        i = np.arange(1, self.dim + 1, dtype=float)
        for _ in range(2):
            np.sum(np.sin(a) * np.sin(i * a * a / np.pi) ** 20, axis=-1)
        return time.perf_counter() - started

    def _unchunked_argmin(self):
        """Argmin of one ``Objective.batch`` over the whole lattice, nodes in
        C order, first minimum wins: the oracle's lexicographic tie rule."""
        axes = []
        for lo, hi in self.grid.box:
            nodes = lo + (np.arange(self.resolution) * (hi - lo)) / (self.resolution - 1)
            nodes[-1] = hi
            axes.append(nodes)
        mesh = np.meshgrid(*axes, indexing="ij")
        points = np.stack([m.ravel() for m in mesh], axis=-1)
        values = self.objective.batch(points)
        i = int(np.argmin(values))
        return points[i].copy(), float(values[i])

    def check(self, result, out_dir: Path) -> dict:
        x, f = result
        digest = hashlib.sha256(np.asarray(x, dtype=float).tobytes()
                                + float(f).hex().encode()).hexdigest()
        failures = []
        if self.first_digest is None:
            self.first_digest = digest
            self.f_values = [float(f)]
        elif digest != self.first_digest:
            failures.append(f"grid result {np.asarray(x).tolist()!r}, {f!r} "
                            "differs from the first run")
        return {"evals": self.grid.n_nodes, "failures": failures,
                "traj_bytes": 0, "summary_bytes": 0}

    def finish(self) -> list:
        """Compare the first result with the unchunked argmin. Runs after the
        timed loop because the full lattice needs far more memory than the
        chunked search, and peak_rss_mb must not see it."""
        x, f = self._unchunked_argmin()
        digest = hashlib.sha256(x.tobytes() + f.hex().encode()).hexdigest()
        if digest != self.first_digest:
            return [f"grid result differs from the unchunked argmin {x.tolist()!r}, {f!r}"]
        return []


WORKLOADS = {
    "mich2d_search": Campaign("mich2d_search", [
        "--objective", "michalewicz", "--dim", "2", "--iters", "100",
        "--trials", "200", "--traj", "none"]),
    "mich10d_ragged": Campaign("mich10d_ragged", [
        "--objective", "michalewicz", "--dim", "10", "--iters", "100",
        "--trials", "500", "--clamp", "--stall", "20", "--traj", "all"]),
    "grid_mich2d": Grid("grid_mich2d", "michalewicz", 2, 1000),
}


# ---------------------------------------------------------------------------
# measurement


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_setup_child(code: str, importtime: bool) -> dict:
    """One fresh interpreter: import, config and objective lookup."""
    argv = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", code]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"setup child failed:\n{proc.stderr[-2000:]}")
    t0, t1, t2 = (float(v) for v in proc.stdout.split())
    out = {"setup_s": t2 - spawned, "import_s": t1 - t0, "parse_config_s": t2 - t1}
    if importtime:
        # "import time: self [us] | cumulative | imported package"
        out["import_numpy_s"] = 0.0
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "numpy":
                out["import_numpy_s"] = int(fields[1]) / 1e6
    return out


def setup_timer(workload, seed: int, importtime: bool):
    """A callable timing one fresh interpreter, after one untimed warm-up
    that fills the bytecode and file caches."""
    code = SETUP_CHILD.format(setup=workload.setup_code(seed))
    run_setup_child(code, importtime)
    return lambda: run_setup_child(code, importtime)


def run_op(workload, tracer=None) -> dict:
    """Prepare, time and check one operation in a fresh output directory."""
    out_dir = Path(tempfile.mkdtemp(prefix="op_", dir=OUT))
    try:
        fn = workload.prepare(out_dir)
        if tracer is not None:
            tracer.reset()
        started = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - started
        rec = workload.check(result, out_dir)
        rec["wall_s"] = wall
        if tracer is not None:
            rec["layers"] = layer_metrics(tracer, rec, workload)
            if tracer.first_op is None:
                tracer.first_op = list(tracer.spans)
        return rec
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def timed_loop(workload, seconds: float, tracer=None, time_setup=None, reference=False):
    """Operations for ``seconds`` (at least MIN_OPS).

    With ``time_setup``, SETUP_RUNS setup samples are taken between
    operations, spread evenly over the loop, so that they see the same
    stretch of a shared machine's varying speed as the operations. With
    ``reference``, the workload's reference work runs before the first
    operation and after each one, and each record gets ``ref_s``, the mean
    of the two samples that bracket it.
    """
    started = time.perf_counter()
    records, setups = [], []
    ref_before = workload.reference() if reference else None
    while len(records) < MIN_OPS or time.perf_counter() < started + seconds:
        rec = run_op(workload, tracer)
        records.append(rec)
        if reference:
            ref_after = workload.reference()
            rec["ref_s"] = (ref_before + ref_after) / 2
            ref_before = ref_after
        if rec["failures"]:
            break
        if time_setup is not None:
            due = int((time.perf_counter() - started) / seconds * SETUP_RUNS) + 1
            while len(setups) < min(due, SETUP_RUNS):
                setups.append(time_setup())
    while time_setup is not None and len(setups) < SETUP_RUNS:
        setups.append(time_setup())
    return records, setups


def tail(values):
    """(p, value) for the highest listed percentile with at least ten
    samples above it, or None when there are too few samples."""
    n = len(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (100.0 - p) / 100.0 >= 10:
            return p, float(np.percentile(values, p))
    return None


def describe(name: str, values, unit: str) -> str:
    line = f"  {name:<16} median={statistics.median(values):.6g} {unit}"
    t = tail(values)
    line += f"  p{t[0]:g}={t[1]:.6g} {unit}" if t else "  (too few samples for a tail)"
    return line + f"  n={len(values)}"


def layer_metrics(tracer, rec: dict, workload) -> dict:
    """Per-layer figures of one traced operation."""
    inclusive, self_s, calls = tracing.aggregate(tracer.spans)
    wall = rec["wall_s"]
    iterations = calls["core.bas_iterate"]
    n_call = calls["objectives.call"]
    useful = sum(tracing.useful_iterations(r) for r in tracer.results)
    ran = sum(len(r.records) for r in tracer.results)
    m = {
        "cli.run_campaign_self_s": self_s["cli.run_campaign"],
        "cli.emit_trajectory_s": inclusive["cli.emit_trajectory"],
        "cli.emit_trajectory_calls": calls["cli.emit_trajectory"],
        "cli.emit_trajectory_bytes": rec["traj_bytes"],
        "cli.emit_summary_s": inclusive["cli.emit_summary"],
        "cli.emit_summary_bytes": rec["summary_bytes"],
        "core.run_calls": calls["core.run"],
        "core.iterations": iterations,
        "core.us_per_iter": inclusive["core.run"] / iterations * 1e6 if iterations else 0.0,
        "core.run_self_s": self_s["core.run"],
        "core.bas_iterate_self_s": self_s["core.bas_iterate"],
    }
    for step in ("sample_direction", "antenna_probe", "detect_step", "advance_schedule"):
        m[f"core.{step}_s"] = inclusive[f"core.{step}"]
        m[f"core.{step}_calls"] = calls[f"core.{step}"]
    m.update({
        "core.useful_iter_ratio": useful / ran if ran else 0.0,
        "objectives.call_s": inclusive["objectives.call"],
        "objectives.call_count": n_call,
        "objectives.us_per_call": inclusive["objectives.call"] / n_call * 1e6 if n_call else 0.0,
        "objectives.batch_s": inclusive["objectives.batch"],
        "objectives.batch_calls": calls["objectives.batch"],
        "objectives.batch_points": tracer.batch_points,
        "objectives.evals": n_call + tracer.batch_points,
        "oracle.grid_search_s": inclusive["oracle.grid_search"],
        "oracle.grid_self_s": self_s["oracle.grid_search"],
        "oracle.points_bytes_computed": calls["oracle.grid_search"] * workload.grid_bytes,
    })
    for module in ("cli", "core", "objectives", "oracle"):
        own = sum(v for k, v in self_s.items() if k.startswith(module + "."))
        m[f"{module}.share"] = own / wall
    return m


# Per-layer metrics that must repeat exactly from one traced op to the next.
DETERMINISTIC = ("_calls", "_count", "_bytes", "_points", ".iterations", ".evals",
                 "_computed", "_ratio")


def layer_unit(name: str) -> str:
    if ".us_per_" in name:
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_bytes", "_computed")):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".share"):
        return "fraction"
    return "count"


def report_end_to_end(workload, setup, timed, peak_rss_mb) -> dict:
    walls = [r["wall_s"] for r in timed]
    rates = [r["evals"] / r["wall_s"] for r in timed]
    norms = [r["wall_s"] / r["ref_s"] for r in timed]
    rates_ref = [r["evals"] / r["wall_s"] * r["ref_s"] for r in timed]
    print(f"end-to-end (untimed warm-up, then n={len(timed)} ops; setup n={len(setup)})")
    print(describe("setup_s", [s["setup_s"] for s in setup], "s"))
    print(describe("wall_s", walls, "s"))
    print(describe("evals_per_s", rates, "1/s"))
    print(describe("reference_s", [r["ref_s"] for r in timed], "s"))
    print(describe("wall_norm", norms, "ref"))
    print(describe("evals_per_ref", rates_ref, "1/ref"))
    print(f"  {'peak_rss_mb':<16} {peak_rss_mb:.6g} MB  n=1 (process high-water mark)")
    print(describe("f_bst_median", workload.f_values, "objective")
          + " (over trials; deterministic)")
    return {
        "setup_s": {"value": statistics.median(s["setup_s"] for s in setup), "unit": "s"},
        "wall_norm": {"value": statistics.median(norms), "unit": "ref"},
        "evals_per_ref": {"value": statistics.median(rates_ref), "unit": "1/ref"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "f_bst_median": {"value": statistics.median(workload.f_values), "unit": "objective"},
    }


def report_layers(workload, seed, setup, untraced, traced, first_spans) -> dict:
    """Per-layer metrics: medians over traced ops for times, exact values for
    counts. Adds a failure to each traced op whose counts differ from the
    first one's or whose traced evaluations differ from the reported count."""
    layers = [r["layers"] for r in traced]
    counts = {k: v for k, v in layers[0].items() if k.endswith(DETERMINISTIC)}
    for layer, rec in zip(layers, traced):
        changed = sorted(k for k, v in counts.items() if layer[k] != v)
        if changed:
            rec["failures"].append(f"counts changed between traced ops: {changed}")
        if layer["objectives.evals"] != rec["evals"]:
            rec["failures"].append(f"objectives.evals {layer['objectives.evals']} != "
                                   f"reported evals {rec['evals']}")
    metrics = {k: statistics.median(layer[k] for layer in layers) for k in layers[0]}
    metrics.update(counts)
    for name in ("import_s", "import_numpy_s", "parse_config_s"):
        metrics[f"cli.{name}"] = statistics.median(s[name] for s in setup)
    metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                   - statistics.median(r["wall_s"] for r in untraced))
    spans_path = OUT / f"spans_{workload.name}_seed{seed}.csv.gz"
    tracing.write_spans(spans_path, first_spans)
    print(f"per-layer (traced: median of {len(traced)} ops; untraced reference: "
          f"{len(untraced)} ops; setup: {len(setup)} interpreters; "
          f"spans: {spans_path.relative_to(ROOT)})")
    result = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(metrics.items())}
    for k, v in result.items():
        print(f"  {k:<32} {v['value']:.6g} {v['unit']}")
    return result


# ---------------------------------------------------------------------------
# main


def load_basopt():
    if not (SRC / "basopt" / "__init__.py").is_file():
        raise BenchError(f"no basopt package under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import basopt
    import basopt.cli as cli
    if SRC not in Path(basopt.__file__).resolve().parents:
        raise BenchError(f"imported basopt from {basopt.__file__}, not from {SRC}")
    return cli


def tracer_self_test() -> list:
    """Instrument, trace one call, restore; every original must be back."""
    pristine = {(id(o), a): getattr(o, a) for o, a in tracing.patch_points()}
    import basopt.core as core
    with tracing.instrument(tracing.Tracer()) as tracer:
        swapped = [a for o, a in tracing.patch_points() if getattr(o, a) is pristine[(id(o), a)]]
        core.sample_direction(2, np.random.default_rng(0))
        recorded = len(tracer.spans)
    failures = [f"tracer did not replace {a}" for a in swapped]
    if recorded != 1:
        failures.append(f"tracer recorded {recorded} spans for one call")
    failures += [f"tracer left {a} patched" for o, a in tracing.patch_points()
                 if getattr(o, a) is not pristine[(id(o), a)]]
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="workload master seed (default 0, the routine seed; pass "
                             "a held-out seed to confirm a gain on unseen inputs)")
    parser.add_argument("--seconds", type=int, default=30,
                        help="length of the timed loop (default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not 1 <= args.seconds <= 120:
        parser.error("--seconds must be in 1..120")

    try:
        cli = load_basopt()
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]

    print(f"env: python={platform.python_version()} numpy={np.__version__} "
          f"nproc={len(os.sched_getaffinity(0))} cpu_count={os.cpu_count()} "
          "OMP/OPENBLAS/MKL_NUM_THREADS=1")
    print(f"load: closed loop, 1 client, 1 process; workload={workload.name} "
          f"seed={args.seed} seconds={args.seconds} trace={args.trace}")

    self_tests = [tracer_self_test()]
    try:
        time_setup = setup_timer(workload, args.seed, importtime=bool(args.trace))
        workload.load(cli, args.seed)
        warm = run_op(workload)
        if args.trace:
            untraced, setup = timed_loop(workload, args.seconds / 2, time_setup=time_setup)
            with tracing.instrument(tracing.Tracer()) as tracer:
                traced, _ = timed_loop(workload, args.seconds / 2, tracer)
            self_tests.append(tracer_self_test())
        else:
            timed, setup = timed_loop(workload, args.seconds, time_setup=time_setup,
                                      reference=True)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        warm["failures"] += workload.finish()
    except (BenchError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.trace:
        records = [warm] + untraced + traced
        result = report_layers(workload, args.seed, setup, untraced, traced,
                               tracer.first_op)
    else:
        records = [warm] + timed
        result = report_end_to_end(workload, setup, timed, peak_rss_mb)

    print(f"artifact_sha256 {workload.name} seed={args.seed} {workload.first_digest}")
    messages = [m for r in records for m in r["failures"]] + [m for t in self_tests for m in t]
    for msg in messages[:20]:
        print(f"check failed: {msg}")
    failed = sum(bool(r["failures"]) for r in records) + sum(bool(t) for t in self_tests)
    attempted = len(records) + len(self_tests)
    print(f"  {'fail_rate':<16} {failed / attempted:.6g} fraction  "
          f"({failed} failed of {attempted} checked: {len(records)} ops, "
          f"{len(self_tests)} tracer self-tests)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
