"""Golden artifact hashes: frozen campaigns must keep producing the same bytes.

Each config is a ``basopt run`` flag list; the expected values are the
sha256 of ``summary.json`` and of every ``traj_*.csv`` the campaign writes.
They were recorded with the scalar per-trial run loop that predates the
lockstep engine, so any drift in directions, arithmetic order, termination
or serialization fails here. Configs with many trials pin the trajectories
through one digest over all CSVs (name and bytes, in name order).
The many-trial configs run again with a lockstep block budget small enough
to split them into several blocks.
"""

import hashlib

import pytest

import basopt.core as core
from basopt.cli import parse_config, run_campaign

GOLDEN = {
    "michalewicz_2d_traj_all": (
        ["--objective", "michalewicz", "--trials", "3", "--seed", "1", "--traj", "all"],
        {
            "summary.json": "84c888ac5aacf086e4149d999f8b6c9946deda7bc595f17c39d32ffe7d5842a7",
            "traj_000.csv": "cdf0f53b7a5eb96e56dedaa22e10451ae76801600e7edd02158648aaff20b1ca",
            "traj_001.csv": "9f44e11e7d39bff81bce5d14a7434bbdb93a39a9aae1d0627880bd9d11baad96",
            "traj_002.csv": "4d8ddd71df92fdf15be84762953865adb11f88e40095959690e95439a3ce4101",
        },
    ),
    "goldstein_price_target": (
        ["--objective", "goldstein_price", "--trials", "4", "--seed", "4",
         "--target", "3.05", "--traj", "all"],
        {
            "summary.json": "51e46afbb7ecc77c86606c6b15b40755df099388b3072f8a18a0de216de52887",
            "traj_000.csv": "292ff7442b7254c4f6b2747b42aa006f29d7935dbd5d26ac41648576e6d36e3f",
            "traj_001.csv": "bf15a021f5524b27c2e076c8b63c91c9f05814aa2048add9d14474ca97576e54",
            "traj_002.csv": "57e3d40e426059dda85395f80888d6bff08391a781c5028e05a4b3e1dcb36577",
            "traj_003.csv": "c9b8523641fd4298ab653330f457104baaf1c7dd99ef20c294051adc9870a7b3",
        },
    ),
    "sphere_10d_clamp_stall": (
        ["--objective", "sphere", "--dim", "10", "--trials", "4", "--seed", "2",
         "--clamp", "--stall", "5", "--traj", "all"],
        {
            "summary.json": "807d9c1f1d8aa4fc77346a5b235220063a7c159d88d358650b4c339732218f85",
            "traj_000.csv": "67bf44900401e57f00bf10c5ebe0e55261fa042e9e3ad168b089c79a10f7dc06",
            "traj_001.csv": "4e6a34d135c68f8500a669f8768efb10ff3f0577f8ef92b6ee670f743f877d79",
            "traj_002.csv": "f6ecfa40014fdc043666448be954f8bd09c801b8fa9980198b600b815dd296ae",
            "traj_003.csv": "0a1fa42a244c12e33946b12581e80611dc8da3d7498d84d2e82925f691f07157",
        },
    ),
    "michalewicz_10d_clamp_stall": (
        ["--objective", "michalewicz", "--dim", "10", "--trials", "3", "--seed", "4",
         "--clamp", "--stall", "20", "--traj", "all"],
        {
            "summary.json": "0e70569fecaac6614000fab6b6905f7e3880cf1ff05de0e92b267a5005bc688f",
            "traj_000.csv": "47d0e9cd950fdc75dbda071dd8808c468d90ec075da5939da901b3906ec8b2db",
            "traj_001.csv": "0a40de8813086b306f6880526632c93ffd8e89b50085da6a805680e3073c0169",
            "traj_002.csv": "e35e7f5f9c6911d55dd5b3ea3b466220a8666df6314d1af49fa6213a05000e66",
        },
    ),
    # Many trials, with ragged stops; test_golden_artifacts_across_blocks
    # also splits these two into several lockstep blocks.
    "michalewicz_10d_many_trials": (
        ["--objective", "michalewicz", "--dim", "10", "--trials", "300", "--seed", "5",
         "--clamp", "--stall", "20", "--traj", "all"],
        {
            "summary.json": "6fbbe57c4ee36bd4e8077d3a887e18578b146295a9dd772536afbd76aba861a6",
            "traj_*.csv": "6f4cf287630c496394d1e347898671fbfb984b5964df34722dcef48def5413b3",
        },
    ),
    "michalewicz_2d_many_trials": (
        ["--objective", "michalewicz", "--trials", "300", "--seed", "6", "--traj", "first"],
        {
            "summary.json": "71d5b4ea94df43cc4fe245f981e381e0ec35d1b954a571162e0ae34ccf81c1ba",
            "traj_000.csv": "b5a806aef34cb7e6eea9b7c2a0328422e165a29ff47266031ee810d1d0a5f2fa",
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


@pytest.mark.parametrize("name", ["michalewicz_10d_many_trials", "michalewicz_2d_many_trials"])
def test_golden_artifacts_across_blocks(tmp_path, monkeypatch, name):
    flags, expected = GOLDEN[name]
    blocks = []
    run_block = core._run_block

    def counted(*args):
        blocks.append(len(args[2]))
        return run_block(*args)

    # 128 KiB holds 81 unrecorded 2-D trials or 7 recorded 10-D ones
    monkeypatch.setattr(core, "_BLOCK_BYTES", 1 << 17)
    monkeypatch.setattr(core, "_run_block", counted)
    run_campaign(parse_config(flags + ["--out-dir", str(tmp_path)]))
    assert len(blocks) >= 3 and sum(blocks) == 300
    assert artifact_hashes(tmp_path, expected) == expected
