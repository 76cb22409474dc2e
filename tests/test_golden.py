"""Golden artifact hashes: frozen campaigns must keep producing the same bytes.

Each config is a ``basopt run`` flag list; the expected values are the
sha256 of ``summary.json`` and of every ``traj_*.csv`` the campaign writes.
They were recorded once the direction norms no longer called BLAS and the
Michalewicz power became a chain of multiplications, so any drift in
directions, arithmetic order, termination or serialization fails here.
Configs with many trials pin the trajectories through one digest over all
CSVs (name and bytes, in name order). The many-trial configs and the
250-iteration one run again with a lockstep block budget small enough to
split them into several blocks, and
all configs run again in child processes under the OpenBLAS kernels and
numpy SIMD loops of other x86-64 CPUs.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import basopt
import basopt.core as core
from basopt.cli import parse_config, run_campaign

GOLDEN = {
    "michalewicz_2d_traj_all": (
        ["--objective", "michalewicz", "--trials", "3", "--seed", "1", "--traj", "all"],
        {
            "summary.json": "89cf27d396aa649b631b5066e62fcaf52551beea5bd52d37e787370d3409b055",
            "traj_000.csv": "79463d64a02f6c7df77b3262de69608b9f4dc2b0d1f395123a405a9060c720fa",
            "traj_001.csv": "6295cb795f680468e7075c07726ef658bcb8df49f103baf7d6b56a9be5a13cf7",
            "traj_002.csv": "a80b6b283ac4d6f41528be3f879fd044177bb39d6d5739572fb8e6fd42e70f92",
        },
    ),
    "goldstein_price_target": (
        ["--objective", "goldstein_price", "--trials", "4", "--seed", "4",
         "--target", "3.05", "--traj", "all"],
        {
            "summary.json": "96ea0a06d16a7d114b2f6d4b68eae173633c46530e172d058b8c6fb90ebfba51",
            "traj_000.csv": "287309061b1a8af9db2151d9409d18f9f0638d73f229f04eaa1ec483a9caeb1d",
            "traj_001.csv": "78893bef9992b12d39bebca2740860f04c379242df0b00ef06bbef01f1b7f600",
            "traj_002.csv": "20b6d8a2c3715e52e7906e1e7111060c8ab08e196eaff440f4d160a0621c4479",
            "traj_003.csv": "8e8e49c7a2a6fb9bb96b6b7d964d5120e6a1b9ac1485f87b5dcc7ffeb5640933",
        },
    ),
    "sphere_10d_clamp_stall": (
        ["--objective", "sphere", "--dim", "10", "--trials", "4", "--seed", "2",
         "--clamp", "--stall", "5", "--traj", "all"],
        {
            "summary.json": "b864308f17b877b3436e6565d0812e2e26728a425c0adc428bfcf13eb51947a2",
            "traj_000.csv": "86169f36d6a0ef06e3c9ef812d8860bcfa88f50535bb23913cdc6f461241207c",
            "traj_001.csv": "b78606c437ec08bc1e0f348d055a04f2b4fb733c5b5f07fda93f00130d6f555c",
            "traj_002.csv": "6a3a00e56ad4fe2e6dee3423e1da8456309b5c0fe1f241efed0634ecfa3e63f8",
            "traj_003.csv": "3952397c15a6237a25653e474326d6e5ab17e3cab767fb3d501cb2b147f500f0",
        },
    ),
    "michalewicz_10d_clamp_stall": (
        ["--objective", "michalewicz", "--dim", "10", "--trials", "3", "--seed", "4",
         "--clamp", "--stall", "20", "--traj", "all"],
        {
            "summary.json": "27d0b42a34a9df221ba936c6065cb79bdd6c3558b134ecad4e61c6d346ad8dc6",
            "traj_000.csv": "eb597ae4e6e2a2c6fe495d25c027d8ecec3beaf7a17160a5823ba5f264d26d6b",
            "traj_001.csv": "d0aa3acff6123ee63f0f07040b12d0e8801e9327a65ca62b50f75539c27d82e1",
            "traj_002.csv": "e6bc0f818c56fb51a52e6b0bdf13b969b5e3a6778c5ee15580786a21944792f8",
        },
    ),
    # Many trials, with ragged stops; test_golden_artifacts_across_blocks
    # also splits these two into several lockstep blocks.
    "michalewicz_10d_many_trials": (
        ["--objective", "michalewicz", "--dim", "10", "--trials", "300", "--seed", "5",
         "--clamp", "--stall", "20", "--traj", "all"],
        {
            "summary.json": "61b2b24675b83fc4095e7f92a872b98128bcbe77a27063e62c9bca3c87d02076",
            "traj_*.csv": "d58d9428a9b28838ba3068774dcaae1bdad022c957af41a8c9b86f5984f5a004",
        },
    ),
    "michalewicz_2d_many_trials": (
        ["--objective", "michalewicz", "--trials", "300", "--seed", "6", "--traj", "first"],
        {
            "summary.json": "b706d3151e6ab8ae2c10e815c19d091bd0cfae05a6a486784714642ceda28959",
            "traj_000.csv": "5baa9be8d7dc65d150298b182b29715dd8da753acdacee743fe0550005c86ae3",
        },
    ),
    # 250 iterations: each trial draws its directions in three chunks and
    # its recorded history doubles twice; also split into several blocks.
    "michalewicz_2d_250_iters": (
        ["--objective", "michalewicz", "--iters", "250", "--trials", "100", "--seed", "7",
         "--traj", "all"],
        {
            "summary.json": "9ef19977bd0d4af1cb0fdb8b63ad704876bc301cb959a102bb6e3aa688b7b81f",
            "traj_*.csv": "2b6367087a4d8054bfc9f1858599b0f0b452caacb86d25a0825aa79e6de35ace",
        },
    ),
}


def artifact_hashes(out_dir, expected_names) -> dict:
    """sha256 of each expected artifact; ``traj_*.csv`` digests all CSVs."""
    hashes = {}
    for name in expected_names:
        digest = hashlib.sha256()
        if name == "traj_*.csv":
            for path in sorted(out_dir.glob("traj_*.csv")):
                digest.update(path.name.encode() + b"\0" + path.read_bytes())
        else:
            digest.update((out_dir / name).read_bytes())
        hashes[name] = digest.hexdigest()
    return hashes


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_artifacts(tmp_path, name):
    flags, expected = GOLDEN[name]
    run_campaign(parse_config(flags + ["--out-dir", str(tmp_path)]))
    written = sorted(p.name for p in tmp_path.iterdir())
    if "traj_*.csv" not in expected:
        assert written == sorted(expected)
    assert artifact_hashes(tmp_path, expected) == expected


@pytest.mark.parametrize("name", ["michalewicz_10d_many_trials", "michalewicz_2d_many_trials",
                                  "michalewicz_2d_250_iters"])
def test_golden_artifacts_across_blocks(tmp_path, monkeypatch, name):
    flags, expected = GOLDEN[name]
    blocks = []
    run_block = core._run_block

    def counted(*args):
        blocks.append(len(args[2]))
        return run_block(*args)

    # 128 KiB holds 81 unrecorded 2-D trials, 7 recorded 10-D ones or 9
    # recorded 2-D ones of 250 iterations
    monkeypatch.setattr(core, "_BLOCK_BYTES", 1 << 17)
    monkeypatch.setattr(core, "_run_block", counted)
    cfg = parse_config(flags + ["--out-dir", str(tmp_path)])
    run_campaign(cfg)
    assert len(blocks) >= 3 and sum(blocks) == cfg.trials
    assert artifact_hashes(tmp_path, expected) == expected


ORACLE_GRID = (["oracle", "grid", "--objective", "michalewicz", "--resolution", "1000"],
               "grid: objective=michalewicz dim=2 resolution=1000 nodes=1000000\n"
               "  best_f=-1.8011640388212249 best_x=2.204460911077523,1.5692239580994063\n")

# Runs the campaigns of argv[1] (a JSON list of run flag lists), then the
# oracle command of argv[2] through the CLI, which alone writes to stdout.
_CHILD = """
import json, sys
from basopt.cli import main, parse_config, run_campaign
for flags in json.loads(sys.argv[1]):
    run_campaign(parse_config(flags))
sys.exit(main(json.loads(sys.argv[2])))
"""


def _simd_targets(floor: str) -> str:
    """The x86 SIMD targets this numpy dispatches to from ``floor`` (AVX-512
    or AVX) up, space-separated; empty where it dispatches none of them."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__
    prefixes = ("AVX512", "X86_V4")
    if floor == "AVX":
        prefixes += ("AVX", "F16C", "FMA3", "X86_V3")
    return " ".join(name for name in __cpu_dispatch__ if name.startswith(prefixes))


# (OPENBLAS_CORETYPE, lowest numpy SIMD target disabled): the kernels and
# loops other x86-64 CPUs get. Each variable is ignored where it does not apply.
CPU_SETTINGS = [(None, None), ("Haswell", None), ("Zen", None), ("Prescott", None),
                ("SkylakeX", None), (None, "AVX512"), ("Haswell", "AVX512"),
                ("Prescott", "AVX")]


@pytest.mark.parametrize("coretype, simd_off", CPU_SETTINGS)
def test_golden_bytes_do_not_depend_on_the_cpu(tmp_path, coretype, simd_off):
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES", "PYTHONWARNINGS")}
    env["PYTHONPATH"] = str(Path(basopt.__file__).parents[1])
    if coretype:
        env["OPENBLAS_CORETYPE"] = coretype
    disabled = _simd_targets(simd_off) if simd_off else ""
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = disabled
    runs = [flags + ["--out-dir", str(tmp_path / name)] for name, (flags, _) in GOLDEN.items()]
    # numpy reports a feature name it cannot disable by an ImportWarning
    child = subprocess.run(
        [sys.executable, "-W", "error::ImportWarning", "-c", _CHILD,
         json.dumps(runs), json.dumps(ORACLE_GRID[0])],
        capture_output=True, text=True, env=env, timeout=120)
    assert child.returncode == 0, child.stderr
    for name, (_, expected) in GOLDEN.items():
        assert artifact_hashes(tmp_path / name, expected) == expected, name
    assert re.sub(r" duration=\S+", "", child.stdout) == ORACLE_GRID[1]
