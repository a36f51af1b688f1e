"""Golden digests of whole episodes and calibration runs, so a refactor of
the environment or of the objectives can be checked to leave every trace,
summary, vehicle state and chain byte-identical.

The digests are SHA-256 of output bytes and of ``float.hex`` renderings,
so they hold for the numpy and libm builds they were recorded with
(numpy 2.4 on x86-64 glibc); another math library may legitimately
differ in the last bit and then needs the digests re-recorded from an
unchanged tree. Regenerate by printing ``_cli_digests``, ``_dense_digest``
and ``_calib_digests`` with the assertions removed.
"""

import dataclasses
import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import dispatch_disabled_env, enabled_dispatch_targets
from microtraffic import DemandSpec, Route, TrafficEnv, VehicleSpec
from microtraffic.cli import DEFAULT_PARAMS, BuiltinIdmEgoPolicy, main
from microtraffic.idm import ParamSet
from microtraffic.network import _bundled_library, list_scenarios, load_scenario
from microtraffic.population import default_histograms, sample_param_set

BUNDLED = ("highway_plain", "highway_curve", "urban_block", "urban_grid")

#: (trace.csv, summary.json) digests of ``simulate --policy builtin-idm-ego
#: --seed 0`` on each bundled scenario.
GOLDEN_CLI = {
    "highway_plain": (
        "aa53fa6f10a6e88ad6d5d91b6280211510aa7c13f883558412f6c7c2adb00171",
        "6bfbdd6ab1dcc662a53a7a5ba6cd372936a914e3a730504eb4d171523b00f8c2"),
    "highway_curve": (
        "df82c8d4b4cc57e28b6702dd970e98e1401ed46ca69804d5d2c882b4282b8b77",
        "3686d031013051c2b97dd3f3ea497298905d7393c002af99a19d60dab7b0f184"),
    "urban_block": (
        "e21b81a34e01e7ffcfaedc8ff236d69fc247bc55ea149ee79b82ff72fa194480",
        "f8ca96ae8246804a3d6536ad58b8e0a6e85650a70631d84846368cc8be8f3019"),
    "urban_grid": (
        "a892fba748c3552c12caac7c557f4c34f1f5c4695e1eefcf50042a535adf178f",
        "c25d6e6a683bdc57643eb5a70580b7793e56773af020c30a1bc42a8d3ae5709b"),
}

#: Digest of the dense highway case after ``DENSE_STEPS`` steps.
GOLDEN_DENSE = "26f649307d0c677224119dcab4de593a952b23611204382e7db489d16ad21da5"

DENSE_PER_LANE = 40
DENSE_STEPS = 60

#: Digests of ``gen-synthetic --seed 5 --n-vehicles 3 --n-obs 120`` and of
#: ``calibrate --seed 4 --n-iter 300`` on its output, once per objective.
GOLDEN_CALIB = {
    "data": {
        "veh_0000.csv": "c752ce02af32f35a35a46ea959e0d65e254b4f9da6773b34f252569999f25ac4",
        "veh_0001.csv": "e165f4c5481ea171ec2c34f59b41870d5cf44963ebe4c7fe15e512e005029a75",
        "veh_0002.csv": "d9764a478c2bdcb39eea0a0e5ce877ce91e69bb0d63f3b8396ae0962e55e396a",
    },
    "one-step": {
        "veh_0000.chain.csv": "2f660424508f46dfb6b3c0210a3728ea5116bec8445509ecc692851f6831e9ca",
        "veh_0001.chain.csv": "89a7f3bcf98cb2a8485b7ca406adc08a3b445241997e6282318eabb81e45ac32",
        "veh_0002.chain.csv": "8f3c4bb577e166f735726ac6f83162497c96120ed6817d6ea62f34609c157813",
        "posterior.json": "c56c0b8b92ab87a4dc69f23cd2365e682f71b663af0e5b68e6b806901ef77da4",
        "summary.json": "b86861441955433df2238101c7caa0634eac43df9d2be7b6381a03d486fb2048",
        "diagnostics.csv": "14d77fd94ce52b40916f594d908f4abd2b7a32c21400c87cff2b06d5faa4cbc6",
    },
    "rollout": {
        "veh_0000.chain.csv": "6d4d06d3786fa87035f74dc08fcb50b9f0c110ed63ceb9cd0bf653490333690a",
        "veh_0001.chain.csv": "ce53a60c0da4b5c976c773bbd854dd0dc46c19aec36bacbd6c6d9eac162a8364",
        "veh_0002.chain.csv": "9aa80d9af507e077a8119e70c9a137c899ef838ab1a1242f86173016b1a7e932",
        "posterior.json": "7f52c4f76de7f07ebd08de867567ea81828bc9190f9b32300247fb114f00e758",
        "summary.json": "d2a9d8d98ebabc0ac748f5efb30cf0b9708d47bff718db9b00ad227a61fdfaf1",
        "diagnostics.csv": "cc5e1a27042e2f64b6c3cb313ed20612dae1e0bc40beda64b892a1cac68ec42b",
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _bundled_path(name):
    for path in list_scenarios():
        if path.name == f"{name}.scenario.json":
            return path
    raise FileNotFoundError(name)


def _cli_digests(name, tmp_path):
    out = tmp_path / name
    assert main(["simulate", "--scenario", str(_bundled_path(name)),
                 "--policy", "builtin-idm-ego", "--seed", "0",
                 "--out", str(out)]) == 0
    return (_sha256((out / "trace.csv").read_bytes()),
            _sha256((out / "summary.json").read_bytes()))


def _file_digests(directory, names):
    return {name: _sha256((directory / name).read_bytes()) for name in names}


def _calib_digests(tmp_path):
    data = tmp_path / "data"
    assert main(["gen-synthetic", "--seed", "5", "--n-vehicles", "3",
                 "--n-obs", "120", "--out", str(data)]) == 0
    out = {"data": _file_digests(data, sorted(p.name for p in data.glob("*.csv")))}
    for objective in ("one-step", "rollout"):
        run = tmp_path / objective
        assert main(["calibrate", "--data", str(data), "--objective", objective,
                     "--n-iter", "300", "--seed", "4", "--max-lag", "10",
                     "--n-bins", "8", "--out", str(run)]) == 0
        names = sorted(p.name for p in run.glob("*.chain.csv"))
        out[objective] = _file_digests(
            run, names + ["posterior.json", "summary.json", "diagnostics.csv"])
    return out


def dense_scenario(per_lane=DENSE_PER_LANE, seed=0):
    """highway_plain with ``per_lane`` BVs on every lane, all departing at
    t=0 from seeded random positions; the ones that start too close to a
    vehicle already placed wait and spawn once their slot clears."""
    base = load_scenario(_bundled_path("highway_plain"))
    hists = default_histograms("highway")
    rng = np.random.default_rng(seed)
    routes, vehicles = [], []
    for j, lane_id in enumerate(sorted(base.network.lanes)):
        route = Route(f"lane_route_{j}", (lane_id,))
        routes.append(route)
        positions = np.sort(rng.uniform(60.0, 60.0 + 15.0 * per_lane, per_lane))
        for k, s in enumerate(positions):
            vehicles.append(VehicleSpec(
                id=f"bv_{j}_{k:03d}", route=route.id, depart=0.0,
                params=sample_param_set(hists, rng), depart_s=float(s)))
    demand = DemandSpec(tuple(routes), tuple(vehicles))
    return dataclasses.replace(base, demand=demand)


def _dense_digest(steps=DENSE_STEPS):
    scenario = dense_scenario()
    env = TrafficEnv(scenario)
    params = ParamSet(*map(float, DEFAULT_PARAMS.split(",")))
    half_width = scenario.network.lanes[scenario.ego_lane].width / 2.0
    policy = BuiltinIdmEgoPolicy(params, v0=scenario.ego_speed, dt=scenario.dt,
                                 half_lane_width=half_width)
    obs = env.reset()
    for _ in range(steps):
        result = env.step(policy.act(obs))
        obs = result.observation
        if result.terminated:
            break
    states = sorted(
        (vid, lane, float(s).hex(), float(v).hex(), float(gap).hex())
        for vid, (lane, s, v, gap) in env.vehicle_states().items())
    payload = json.dumps({"states": states,
                          "collisions_logged": env.collisions_logged,
                          "step": env.current_info()["step"],
                          "cause": env.current_info()["cause"]})
    return _sha256(payload.encode())


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_episode_outputs_match_golden(name, tmp_path):
    assert _cli_digests(name, tmp_path) == GOLDEN_CLI[name]


def test_dense_highway_state_matches_golden():
    assert _dense_digest() == GOLDEN_DENSE


def test_calibration_outputs_match_golden(tmp_path):
    assert _calib_digests(tmp_path) == GOLDEN_CALIB


def _wide_dispatch_targets():
    """X86_V3, X86_V4 and AVX-512 targets that numpy dispatches to and this
    CPU enables; with all of them off numpy runs its X86_V2 baseline."""
    return [t for t in enabled_dispatch_targets()
            if t in ("X86_V3", "X86_V4") or t.startswith("AVX512")]


_GOLDEN_SCRIPT = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from test_golden import (BUNDLED, _calib_digests, _cli_digests, _dense_digest,
                         _wide_dispatch_targets)
tmp = Path(sys.argv[2])
digests = {"still_enabled": _wide_dispatch_targets(),
           "cli": {name: list(_cli_digests(name, tmp)) for name in BUNDLED},
           "dense": _dense_digest(), "calib": _calib_digests(tmp)}
print(json.dumps(digests))
"""


@pytest.mark.skipif(not _wide_dispatch_targets(),
                    reason="no X86_V3, X86_V4 or AVX-512 numpy dispatch target enabled")
def test_golden_digests_hold_with_wide_simd_dispatch_disabled(tmp_path):
    out = subprocess.run(
        [sys.executable, "-c", _GOLDEN_SCRIPT, str(Path(__file__).parent), str(tmp_path)],
        env=dispatch_disabled_env(_wide_dispatch_targets()),
        capture_output=True, text=True, check=True)
    # The CLI verbs print to stdout too; the digests are the last line.
    other = json.loads(out.stdout.splitlines()[-1])
    assert other["still_enabled"] == []
    assert other["cli"] == {name: list(GOLDEN_CLI[name]) for name in BUNDLED}
    assert other["dense"] == GOLDEN_DENSE
    assert other["calib"] == GOLDEN_CALIB


def test_gen_scenarios_reproduces_the_bundled_files(tmp_path, monkeypatch):
    """Every digest above depends on the bundled scenario data, so the tool
    that writes it must still reproduce it byte for byte."""
    tool_path = Path(__file__).resolve().parent.parent / "tools" / "gen_scenarios.py"
    spec = importlib.util.spec_from_file_location("gen_scenarios", tool_path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(tool, "OUT", tmp_path)
    tool.main()
    bundled = _bundled_library()
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in bundled.glob("*.json"))
    for name in written:
        assert (tmp_path / name).read_bytes() == (bundled / name).read_bytes(), name
