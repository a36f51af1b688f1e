"""Golden digests of whole episodes, so a refactor of the environment can be
checked to leave every trace, summary and vehicle state byte-identical.

The digests are SHA-256 of output bytes and of ``float.hex`` renderings,
so they hold for the numpy and libm builds they were recorded with
(numpy 2.4 on x86-64 glibc); another math library may legitimately
differ in the last bit and then needs the digests re-recorded from an
unchanged tree. Regenerate by printing ``_cli_digests`` and
``_dense_digest`` with the assertions removed.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from microtraffic import DemandSpec, Route, TrafficEnv, VehicleSpec
from microtraffic.cli import DEFAULT_PARAMS, BuiltinIdmEgoPolicy, main
from microtraffic.idm import ParamSet
from microtraffic.network import list_scenarios, load_scenario
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
