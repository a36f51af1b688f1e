"""Environment behaviour: observations, dynamics, termination, logging."""

import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import THETA_STAR, follower_step, straight_scenario
from microtraffic import (Action, DemandSpec, EnvUsageError, InputDomainError,
                          Lane, ParamSet, RoadNetwork, Route, Scenario,
                          TrafficEnv, VehicleSpec)
from microtraffic.env import (_END, _GAP, _KEY, _LANE, _LEN, _RANK, _S, _SEQ, _V,
                              _ego_key)
from microtraffic.network import _bundled_library, global_to_road, is_off_road, load_scenario

PARKED = ParamSet(a_max=1e-9, a_comf=5.0, v_des=1e-9, d_min=10.0, T=2.0,
                  delta=4.0)
CRUISER = ParamSet(a_max=3.0, a_comf=5.0, v_des=20.0, d_min=10.0, T=2.0,
                   delta=4.0)

ZERO = Action(0.0, 0.0)


def bv(vid, route, depart_s, params=CRUISER, depart=0.0, length=5.0):
    return VehicleSpec(vid, route, depart, params, length=length,
                       depart_s=depart_s)


def test_observation_shape_follows_lane_group():
    assert TrafficEnv(straight_scenario(n_lanes=3)).observation_shape == (6, 5)
    assert TrafficEnv(straight_scenario(n_lanes=1)).observation_shape == (2, 5)
    env = TrafficEnv(straight_scenario(n_lanes=3, ego_lane="lane_1"))
    assert env.n_slots == 6


def test_reset_alone_gives_all_zero_rows():
    env = TrafficEnv(straight_scenario(n_lanes=2, ego_speed=15.0))
    obs = env.reset()
    assert obs.shape == (4, 5)
    assert np.all(obs == 0.0)


def test_reset_is_deterministic_and_reusable():
    vehicles = (bv("a", "r0", 110.0), bv("b", "r0", 20.0))
    scenario = straight_scenario(vehicles, ego_speed=10.0, ego_start_s=60.0)
    env = TrafficEnv(scenario)
    first = env.reset()
    env.step(ZERO)
    second = env.reset()
    assert np.array_equal(first, second)
    assert env.collisions_logged == []


def test_leader_and_follower_rows_at_reset():
    vehicles = (bv("ahead", "r0", 110.0), bv("behind", "r0", 20.0))
    scenario = straight_scenario(vehicles, ego_speed=10.0, ego_start_s=60.0)
    obs = TrafficEnv(scenario).reset()
    # Leader spawns free at its desired speed 20; the follower spawns
    # capped at the ego's 10 because the ego is its nearest leader.
    assert obs[0].tolist() == [1.0, 50.0, 0.0, 10.0, 0.0]
    assert obs[1].tolist() == [1.0, -40.0, 0.0, 0.0, 0.0]


def test_nearest_vehicle_ahead_wins_leader_slot():
    vehicles = (bv("far", "r0", 200.0), bv("near", "r0", 100.0))
    scenario = straight_scenario(vehicles, ego_speed=0.0, ego_start_s=60.0)
    obs = TrafficEnv(scenario).reset()
    assert obs[0, 0] == 1.0
    assert obs[0, 1] == 40.0
    assert np.all(obs[1] == 0.0)


def test_observation_rows_are_lane_major_left_first():
    vehicles = (
        bv("a", "r0", 150.0), bv("b", "r0", 50.0),
        bv("c", "r1", 165.0), bv("d", "r1", 35.0),
        bv("e", "r2", 170.0), bv("f", "r2", 30.0),
    )
    scenario = straight_scenario(vehicles, n_lanes=3, ego_lane="lane_1",
                                 ego_start_s=100.0)
    obs = TrafficEnv(scenario).reset()
    geometry = obs[:, :3].tolist()
    assert geometry == [
        [1.0, 50.0, 3.5],
        [1.0, -50.0, 3.5],
        [1.0, 65.0, 0.0],
        [1.0, -65.0, 0.0],
        [1.0, 70.0, -3.5],
        [1.0, -70.0, -3.5],
    ]


def test_usage_errors():
    env = TrafficEnv(straight_scenario())
    with pytest.raises(EnvUsageError, match=r"^step\(\) before reset\(\)$"):
        env.step(ZERO)
    for name in ("render_frame", "vehicle_states", "build_observation", "check_collision",
                 "current_info", "episode_summary"):
        with pytest.raises(EnvUsageError, match=rf"^{name}\(\) before reset\(\)$"):
            getattr(env, name)()
    env.reset()
    with pytest.raises(InputDomainError):
        env.step(Action(math.nan, 0.0))


def test_ego_ballistic_motion_matches_euler():
    env = TrafficEnv(straight_scenario(ego_speed=10.0, ego_start_s=60.0))
    env.reset()
    s, v = 60.0, 10.0
    for _ in range(25):
        result = env.step(Action(2.0, 0.0))
        s = s + v * 0.1
        v = v + 2.0 * 0.1
        assert result.info["ego"]["x"] == s
        assert result.info["ego"]["v"] == v


def test_lateral_drift_terminates_off_road_at_exact_step():
    # d after k steps is 0.0025 k (k - 1); the closed boundary keeps the
    # episode alive through d = 1.625 at step 26 and ends it at 1.755.
    env = TrafficEnv(straight_scenario(max_steps=100))
    env.reset()
    for k in range(1, 27):
        result = env.step(Action(0.0, 0.5))
        assert not result.terminated, k
        assert result.info["cause"] == "running"
    result = env.step(Action(0.0, 0.5))
    assert result.terminated
    assert result.info["cause"] == "off_road"
    assert result.info["step"] == 27
    with pytest.raises(EnvUsageError):
        env.step(ZERO)


def test_ego_that_would_lap_a_lane_cycle_in_one_step_ends_off_road():
    # urban_grid's first successors form a cycle: without a bound on the
    # lane ends crossed, the second step would never return.
    env = TrafficEnv(load_scenario(_bundled_library() / "urban_grid.scenario.json"))
    env.reset()
    assert env.step(Action(1e200, 0.0)).info["cause"] == "running"
    result = env.step(Action(1e200, 0.0))
    assert result.terminated
    assert result.info["cause"] == "off_road"


@pytest.mark.parametrize("speed, lane, s, cause", [
    # 45 m crosses a (10 m) and b (30 m): as many lane ends as lanes
    (450.0, "a", 5.0, "running"),
    # 85 m would cross a third lane end
    (850.0, "a", 45.0, "off_road"),
])
def test_ego_crosses_at_most_as_many_lane_ends_per_step_as_lanes(speed, lane, s, cause):
    loop = RoadNetwork([Lane("a", [(0.0, 0.0), (10.0, 0.0)], 3.5, successors=("b",)),
                        Lane("b", [(10.0, 0.0), (10.0, 10.0), (0.0, 10.0), (0.0, 0.0)], 3.5,
                             successors=("a",))])
    env = TrafficEnv(Scenario("urban", loop, DemandSpec((), ()), 0.1, 10, 0, "a",
                              ego_speed=speed))
    env.reset()
    result = env.step(ZERO)
    assert result.info["cause"] == cause
    assert (env._ego_lane, env._ego_s) == (lane, s)


def test_check_collision_bumper_gap_boundary():
    # Constant 2 m/s approach on a parked car at 100.1: the bumper gap is
    # 35.1 - 0.2 k, so step 175 still has 0.1 m of air and step 176 is the
    # first overlap. Spawning that close is impossible (2 m clearance), so
    # the boundary has to be reached by driving.
    scenario = straight_scenario((bv("parked", "r0", 100.1, PARKED),),
                                 ego_speed=2.0, ego_start_s=60.0,
                                 max_steps=400)
    env = TrafficEnv(scenario)
    env.reset()
    assert not env.check_collision()
    for k in range(1, 176):
        result = env.step(ZERO)
        assert not result.terminated, k
    result = env.step(ZERO)
    assert result.terminated
    assert result.info["cause"] == "collision"
    assert result.info["step"] == 176


def test_adjacent_lane_overlap_is_not_a_collision():
    scenario = straight_scenario((bv("parked", "r1", 100.0, PARKED),),
                                 n_lanes=2, ego_start_s=95.1)
    env = TrafficEnv(scenario)
    env.reset()
    assert not env.check_collision()
    assert not env.step(ZERO).terminated


def test_accelerating_into_parked_leader_collides_at_exact_step():
    scenario = straight_scenario((bv("parked", "r0", 100.0, PARKED),),
                                 ego_start_s=60.0)
    env = TrafficEnv(scenario)
    env.reset()
    for k in range(1, 60):
        result = env.step(Action(2.0, 0.0))
        assert not result.terminated, k
    result = env.step(Action(2.0, 0.0))
    assert result.terminated
    assert result.info["cause"] == "collision"
    assert result.info["step"] == 60


def test_blind_lane_crossing_logs_bv_contact_once():
    # The crosser barrels down its entry lane at desired speed 30 and can
    # only see vehicles on its own lane, so it lands on the next lane
    # overlapping a parked car: logged once, and the episode keeps going.
    a = Lane("a", [(0.0, 0.0), (50.0, 0.0)], 3.5, successors=("b",))
    b = Lane("b", [(50.0, 0.0), (150.0, 0.0)], 3.5)
    c = Lane("c", [(0.0, 100.0), (100.0, 100.0)], 3.5)
    net = RoadNetwork((a, b, c), sources=("a", "b", "c"), sinks=("b", "c"))
    fast = ParamSet(3.0, 5.0, 30.0, 10.0, 2.0, 4.0)
    demand = DemandSpec(
        (Route("rb", ("b",)), Route("rab", ("a", "b"))),
        (bv("parked", "rb", 2.0, PARKED), bv("crosser", "rab", 41.0, fast)),
    )
    scenario = Scenario(kind="highway", network=net, demand=demand, dt=0.1,
                        max_steps=40, seed=0, ego_lane="c")
    env = TrafficEnv(scenario)
    env.reset()
    result = None
    while result is None or not result.terminated:
        result = env.step(ZERO)
    assert result.info["cause"] == "max_steps"
    assert len(env.collisions_logged) == 1
    entry = env.collisions_logged[0]
    assert entry["step"] == 4
    assert {entry["rear"], entry["front"]} == {"parked", "crosser"}
    assert env.episode_summary()["collisions_logged"] == 1


def test_bv_leaves_network_at_route_end():
    scenario = straight_scenario((bv("leaver", "r0", 90.0,
                                     ParamSet(3, 5, 30, 10, 2, 4)),),
                                 length=100.0)
    env = TrafficEnv(scenario)
    env.reset()
    for _ in range(3):
        env.step(ZERO)
        assert set(env.vehicle_states()) == {"leaver"}
    env.step(ZERO)
    assert env.vehicle_states() == {}


def test_ego_membership_shift_releases_follower():
    # A BV trailing the ego on lane_0 loses its leader once the drifting
    # ego counts as being on lane_1, which shows up as an infinite gap.
    scenario = straight_scenario((bv("chaser", "r0", 50.0),), n_lanes=2,
                                 ego_speed=10.0, ego_start_s=100.0)
    env = TrafficEnv(scenario)
    env.reset()
    for _ in range(12):
        result = env.step(Action(0.0, -3.0))
        assert not result.terminated
        assert math.isfinite(env.vehicle_states()["chaser"][3])
    env.step(Action(0.0, -3.0))
    assert env.vehicle_states()["chaser"][3] == math.inf


def test_drifting_ego_is_projected_once_per_lane_and_step():
    # The ego drifts onto the curved neighbour lane and stays there: its
    # membership, the off-road test, the collision test and the
    # observation share one projection per lane.
    env = TrafficEnv(load_scenario(_bundled_library() / "highway_curve.scenario.json"))
    env.reset()
    project = Lane.project
    calls = []

    def counted(lane, x, y):
        calls.append(lane.id)
        return project(lane, x, y)

    neighbour_steps = 0
    with mock.patch.object(Lane, "project", counted):
        for k in range(120):
            calls.clear()
            a_lat = 1.0 if 20 <= k < 30 else -1.0 if 50 <= k < 60 else 0.0
            result = env.step(Action(0.0, a_lat))
            assert not result.terminated
            assert len(calls) == len(set(calls)), (k, calls)
            neighbour_steps += env._mem[0] != env._ego_lane
    assert neighbour_steps > 60


def test_spawn_blocked_by_occupied_slot():
    vehicles = (bv("first", "r0", 100.0, PARKED),
                bv("second", "r0", 103.0, PARKED))
    env = TrafficEnv(straight_scenario(vehicles))
    env.reset()
    assert set(env.vehicle_states()) == {"first"}
    for _ in range(5):
        env.step(ZERO)
    assert set(env.vehicle_states()) == {"first"}


def test_spawn_blocked_near_ego_until_it_clears():
    scenario = straight_scenario((bv("waiter", "r0", 64.0, PARKED),),
                                 ego_speed=10.0, ego_start_s=60.0)
    env = TrafficEnv(scenario)
    env.reset()
    assert env.vehicle_states() == {}
    spawned_at = None
    for k in range(1, 20):
        env.step(ZERO)
        if env.vehicle_states():
            spawned_at = k
            break
    # clearance is (5 + 5)/2 + 2 = 7 m: the ego passes 64 + 7 at s = 71,
    # first reached after 11 steps of 1 m
    assert spawned_at == 11


def test_spawn_behind_a_reversing_ego_starts_at_rest():
    # The spawn takes its leader's speed up to its own desired speed; a
    # reversing ego ahead leads at -0.5 m/s, and a BV never moves backwards.
    scenario = straight_scenario((bv("late", "r0", 0.0, depart=0.1),), ego_start_s=20.0)
    env = TrafficEnv(scenario)
    env.reset()
    env.step(Action(-5.0, 0.0))
    assert env._ego_vlong == -0.5
    assert env.vehicle_states()["late"] == ("lane_0", 0.0, 0.0, math.inf)


def test_reward_hook_and_default():
    scenario = straight_scenario(ego_speed=5.0)
    assert TrafficEnv(scenario).reset() is not None
    env = TrafficEnv(scenario)
    env.reset()
    assert env.step(ZERO).reward == 0.0

    def reward_fn(obs, action, info):
        return float(action.a_long) + info["step"]

    env = TrafficEnv(scenario, reward_fn=reward_fn)
    env.reset()
    assert env.step(Action(0.25, 0.0)).reward == 1.25


def test_render_frame_rows_and_trace(tmp_path):
    trace = tmp_path / "trace.csv"
    vehicles = (bv("b_far", "r0", 200.0), bv("a_near", "r0", 100.0))
    scenario = straight_scenario(vehicles, ego_speed=10.0, ego_start_s=60.0,
                                 max_steps=30)
    env = TrafficEnv(scenario, trace_path=trace)
    env.reset()
    for _ in range(10):
        env.step(ZERO)
        rows = env.render_frame()
        assert [r[1] for r in rows] == ["ego", "a_near", "b_far"]
        assert all(len(r) == 6 for r in rows)
    env.close()

    lines = trace.read_text().splitlines()
    assert lines[0] == "step,id,x,y,heading,v"
    assert len(lines) == 1 + 10 * 3
    assert lines[1].split(",")[1] == "ego"


def test_trace_files_are_byte_identical_across_runs(tmp_path):
    paths = (tmp_path / "one.csv", tmp_path / "two.csv")
    for path in paths:
        scenario = straight_scenario((bv("a", "r0", 120.0),),
                                     ego_speed=12.0, ego_start_s=40.0)
        env = TrafficEnv(scenario, trace_path=path)
        env.reset()
        for _ in range(20):
            env.step(Action(0.3, 0.01))
            env.render_frame()
        env.close()
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_episode_summary_and_info_keys():
    env = TrafficEnv(straight_scenario(ego_speed=10.0, max_steps=3))
    env.reset()
    result = env.step(ZERO)
    assert set(result.info) == {"cause", "step", "ego"}
    assert set(result.info["ego"]) == {"x", "y", "heading", "v"}
    while not result.terminated:
        result = env.step(ZERO)
    summary = env.episode_summary()
    assert summary["cause"] == "max_steps"
    assert summary["steps"] == 3
    assert summary["collisions_logged"] == 0
    assert set(summary["ego_final"]) == {"x", "y", "v"}


# -- lane index against brute-force linear scans ---------------------------
#
# The references below scan every live BV for each query. Ties in s go to
# the lowest id, and the ego sorts ahead of every BV at equal s in leader
# lookups. They read the BVs as plain records decoded from the env's state
# arrays (``live_bvs``), so they share no lookup code with the env.

GAP_EPS = 1e-6
SPAWN_CLEARANCE = 2.0


def decode_key(env, code):
    """Leader key of a state-array code: ("bv", id), ("ego", lane) or None."""
    if math.isnan(code):
        return None
    if code >= 0:
        return ("bv", env._ids[int(code)])
    return ("ego", env._lane_ids[int(-2 - code)])


def encode_key(env, key):
    if key is None:
        return math.nan
    kind, ref = key
    return float(env._rank[ref]) if kind == "bv" else _ego_key(env._code[ref])


def live_bvs(env):
    """The live BVs as plain records, in spawn order, each with its
    parameters as the scenario demand gives them."""
    F = env._F
    params = {spec.id: spec.params for spec in env.scenario.demand.vehicles}
    return [SimpleNamespace(id=env._ids[int(F[_RANK, j])],
                            lane=env._lane_ids[int(F[_LANE, j])],
                            s=float(F[_S, j]), v=float(F[_V, j]),
                            length=float(F[_LEN, j]), gap=float(F[_GAP, j]),
                            leader_key=decode_key(env, F[_KEY, j]),
                            theta=params[env._ids[int(F[_RANK, j])]].to_array())
            for j in np.argsort(F[_SEQ])]


def column_of(env, vid):
    return int(np.flatnonzero(env._F[_RANK] == env._rank[vid])[0])


def ref_leader(env, bvs, me, mem_lane, mem_s):
    """(key, speed, bumper gap) of the nearest same-lane vehicle ahead."""
    cands = [(b.s, b.id, ("bv", b.id), b.v, b.length) for b in bvs
             if b.lane == me.lane and b.id != me.id and b.s > me.s]
    if mem_lane == me.lane and mem_s > me.s:
        cands.append((mem_s, "", ("ego", mem_lane), env._ego_vlong, env.ego_length))
    if not cands:
        return None, me.v, math.inf
    s, _, key, v, length = min(cands, key=lambda c: (c[0], c[1]))
    return key, v, max((s - me.s) - (length + me.length) / 2.0, GAP_EPS)


def ref_spawn_blocked(env, bvs, lane_id, s, length, mem_lane, mem_s):
    if any(b.lane == lane_id
           and abs(b.s - s) < (b.length + length) / 2.0 + SPAWN_CLEARANCE
           for b in bvs):
        return True
    return (mem_lane == lane_id
            and abs(mem_s - s) < (env.ego_length + length) / 2.0 + SPAWN_CLEARANCE)


def ref_spawn_leader(env, bvs, lane_id, s, mem_lane, mem_s):
    ahead = [(b.s, b.id, b.v) for b in bvs if b.lane == lane_id and b.s > s]
    best = min(ahead, default=None)
    if mem_lane == lane_id and mem_s > s and (best is None or mem_s < best[0]):
        return env._ego_vlong
    return None if best is None else best[2]


def ref_contacts(bvs, step):
    by_lane = {}
    for b in bvs:
        by_lane.setdefault(b.lane, []).append(b)
    logged = []
    for group in by_lane.values():
        group.sort(key=lambda b: (b.s, b.id))
        for rear, front in zip(group, group[1:]):
            if (front.s - rear.s) - (front.length + rear.length) / 2.0 <= 0.0:
                logged.append({"step": step, "rear": rear.id, "front": front.id})
    return logged


def ref_collision(env, bvs):
    mem_lane, mem_s, mem_d = env._ego_membership()
    ex, ey, _ = env._ego_pose()
    for b in bvs:
        if b.lane == mem_lane:
            s_ego, lat = mem_s, mem_d
        else:
            s_ego, lat, _ = env.net.lanes[b.lane].project(ex, ey)
        if (abs(s_ego - b.s) - (env.ego_length + b.length) / 2.0 <= 0.0
                and abs(lat) < env.vehicle_width):
            return True
    return False


def ref_observation(env, bvs):
    obs = np.zeros(env.observation_shape)
    mem_lane, mem_s, _ = env._ego_membership()
    ex, ey, eh = env._ego_pose()
    tx, ty = math.cos(eh), math.sin(eh)
    nx, ny = -ty, tx
    evx = env._ego_vlong * tx + env._ego_vlat * nx
    evy = env._ego_vlong * ty + env._ego_vlat * ny
    for j, lane_id in enumerate(env.net.lane_group(mem_lane)[: env.n_slots // 2]):
        lane = env.net.lanes[lane_id]
        s_ref = mem_s if lane_id == mem_lane else lane.project(ex, ey)[0]
        on_lane = [b for b in bvs if b.lane == lane_id]
        leader = min((b for b in on_lane if b.s > s_ref),
                     key=lambda b: (b.s, b.id), default=None)
        follower = min((b for b in on_lane if b.s < s_ref),
                       key=lambda b: (-b.s, b.id), default=None)
        for slot, b in ((2 * j, leader), (2 * j + 1, follower)):
            if b is None:
                continue
            bx, by, bh = lane.pose_at(b.s, 0.0)
            bvx, bvy = b.v * math.cos(bh), b.v * math.sin(bh)
            dx, dy = bx - ex, by - ey
            obs[slot] = (1.0, dx * tx + dy * ty, dx * nx + dy * ny,
                         (bvx - evx) * tx + (bvy - evy) * ty,
                         (bvx - evx) * nx + (bvy - evy) * ny)
    return obs


# s on a coarse grid, so equal-s ties (BV-BV and BV-ego) are common.
GRID_S = st.integers(0, 40).map(lambda k: 2.5 * k)
PLACED_BV = st.tuples(st.integers(0, 2), GRID_S, st.floats(0.0, 30.0),
                      st.sampled_from([4.0, 5.0, 12.0]),
                      st.sampled_from(["none", "same", "other"]),
                      st.floats(1e-9, 50.0))


@st.composite
def placements(draw):
    bvs = draw(st.lists(PLACED_BV, max_size=14))
    ids = draw(st.permutations([f"v{k:02d}" for k in range(len(bvs))]))
    return {
        "bvs": list(zip(ids, bvs)),
        "ego_lane": draw(st.integers(0, 2)),
        "ego_s": draw(GRID_S),
        # |d| > 1.75 puts the ego's membership on a neighbour lane
        "ego_d": draw(st.sampled_from([0.0, 1.75, -1.75, 2.0, -2.0, 3.6, -3.6])
                      | st.floats(-5.5, 5.5)),
        "ego_v": draw(st.floats(0.0, 30.0)),
        "queries": draw(st.lists(st.tuples(st.integers(0, 2), GRID_S,
                                           st.sampled_from([4.0, 5.0, 12.0])),
                                 max_size=6)),
    }


def placed_env(case):
    """A 3-lane env whose BVs and ego sit exactly where ``case`` says."""
    specs = tuple(bv(vid, "r0", 200.0 + 20.0 * k, length=length)
                  for k, (vid, (_, _, _, length, _, _)) in enumerate(case["bvs"]))
    env = TrafficEnv(straight_scenario(specs, n_lanes=3))
    env.reset()
    assert env._F.shape[1] == len(specs)
    ids = [vid for vid, _ in case["bvs"]]
    F = env._F
    for seq, (vid, (lane, s, v, _, prior, gap)) in enumerate(case["bvs"]):
        j = column_of(env, vid)
        lane_id = f"lane_{lane}"
        env._routes[env._rank[vid]] = [(lane_id,), 0]
        F[_LANE, j], F[_END, j] = env._code[lane_id], env.net.lanes[lane_id].length
        F[_S, j], F[_V, j], F[_GAP, j] = s, v, gap
        F[_KEY, j] = encode_key(env, ("bv", ids[0]) if prior == "other" else None)
        # spawn order (the order of vehicle_states) is the drawn order, not id order
        F[_SEQ, j] = seq
    env._ego_lane = f"lane_{case['ego_lane']}"
    env._ego_s, env._ego_d = case["ego_s"], case["ego_d"]
    env._ego_vlong = case["ego_v"]
    env._sort()
    env._locate_ego()
    mem_lane, mem_s, _ = env._ego_membership()
    bvs = live_bvs(env)
    for b, (_, (_, _, _, _, prior, _)) in zip(bvs, case["bvs"]):
        if prior == "same":
            # keep the prior leader so the incremental gap is reused
            key = ref_leader(env, bvs, b, mem_lane, mem_s)[0]
            env._F[_KEY, column_of(env, b.id)] = encode_key(env, key)
    assert list(env.vehicle_states()) == ids
    return env


@settings(max_examples=300, deadline=None)
@given(placements())
# lateral offset exactly at the collision limit (the vehicle width)
@example({"bvs": [("v00", (0, 10.0, 5.0, 5.0, "none", 1.0))], "ego_lane": 0,
          "ego_s": 10.0, "ego_d": 2.0, "ego_v": 5.0, "queries": []})
# a BV level with the ego: the BV behind both follows the ego
@example({"bvs": [("v00", (0, 20.0, 5.0, 12.0, "none", 1.0)),
                  ("v01", (0, 0.0, 5.0, 4.0, "none", 1.0))], "ego_lane": 0,
          "ego_s": 20.0, "ego_d": 0.0, "ego_v": 7.0, "queries": []})
# a BV overlapping the faster ego ahead: its gap is floored, then reopens
@example({"bvs": [("v00", (0, 17.5, 10.0, 5.0, "none", 1.0))], "ego_lane": 0,
          "ego_s": 20.0, "ego_d": 0.0, "ego_v": 20.0, "queries": []})
# a kept gap that closes to exactly 0.0 in one step: 1.0 + (0 - 10) * 0.1
@example({"bvs": [("v00", (0, 0.0, 10.0, 5.0, "same", 1.0)),
                  ("v01", (0, 50.0, 0.0, 5.0, "none", 1.0))], "ego_lane": 2,
          "ego_s": 100.0, "ego_d": 0.0, "ego_v": 0.0, "queries": []})
# two BVs drawn level in one step, the higher id behind: 0.0 + 10 * 0.1 == 0.5 + 5 * 0.1
@example({"bvs": [("v00", (0, 0.5, 5.0, 5.0, "none", 1.0)),
                  ("v01", (0, 0.0, 10.0, 5.0, "none", 1.0))], "ego_lane": 0,
          "ego_s": 100.0, "ego_d": 0.0, "ego_v": 5.0, "queries": []})
# the ego on lane_0 at the collision test's box margin (vehicle width plus
# the 1 m slack, 3.0 m) of lane_1's centerline box, where a BV sits level
# with it: exactly at the margin it is projected, one ulp beyond it skipped
@example({"bvs": [("v00", (1, 10.0, 5.0, 5.0, "none", 1.0))], "ego_lane": 0,
          "ego_s": 10.0, "ego_d": -0.5, "ego_v": 5.0, "queries": []})
@example({"bvs": [("v00", (1, 10.0, 5.0, 5.0, "none", 1.0))], "ego_lane": 0,
          "ego_s": 10.0, "ego_d": -0.49999999999999956, "ego_v": 5.0, "queries": []})
def test_lane_index_matches_linear_scans(case):
    env = placed_env(case)
    mem_lane, mem_s, _ = env._ego_membership()
    bvs = live_bvs(env)

    assert np.array_equal(env.build_observation(), ref_observation(env, bvs))
    assert env.check_collision() == ref_collision(env, bvs)
    for lane, s, length in case["queries"]:
        lane_id = f"lane_{lane}"
        lo, hi = env._run(lane_id)
        rows = list(zip(env._s[lo:hi], env._F[_RANK, lo:hi].tolist(),
                        env._F[_V, lo:hi].tolist(), env._len[lo:hi]))
        ego_s = mem_s if mem_lane == lane_id else None
        assert (env._spawn_blocked(rows, s, length, ego_s)
                == ref_spawn_blocked(env, bvs, lane_id, s, length, mem_lane, mem_s))
        assert (env._spawn_leader(rows, s, ego_s)
                == ref_spawn_leader(env, bvs, lane_id, s, mem_lane, mem_s))

    logged = ref_contacts(bvs, env._step_idx)
    env._log_bv_contacts()
    assert env.collisions_logged == logged

    # Two steps: every BV's leader key and car-following update, then the
    # queries again on the lane index each step leaves behind.
    dt = env.scenario.dt
    for _ in range(2):
        mem_lane, mem_s, _ = env._ego_membership()
        expected = {}
        for b in bvs:
            key, v_lead, gap = ref_leader(env, bvs, b, mem_lane, mem_s)
            if key is not None and key == b.leader_key:
                gap = b.gap
            _, v_next, gap_next = follower_step(*b.theta, b.v, v_lead, gap, dt)
            expected[b.id] = (key, b.s + b.v * dt, v_next,
                              gap_next if gap_next > 0.0 else GAP_EPS)
        touching = {(c["rear"], c["front"]) for c in ref_contacts(bvs, 0)}
        result = env.step(ZERO)
        states = env.vehicle_states()
        assert list(states) == [b.id for b in bvs]
        bvs = live_bvs(env)
        for b in bvs:
            key, s, v, gap = expected[b.id]
            assert b.leader_key == key
            assert states[b.id][1:] == (s, v, gap)
        assert np.array_equal(result.observation, ref_observation(env, bvs))
        assert env.check_collision() == ref_collision(env, bvs)
        logged += [c for c in ref_contacts(bvs, env._step_idx)
                   if (c["rear"], c["front"]) not in touching]
        assert env.collisions_logged == logged
        if result.terminated:
            break


def edge_scenario(network):
    """A BV-free scenario on ``network``, long enough for a step."""
    ego_lane = sorted(network.lanes)[0]
    return Scenario("highway", network, DemandSpec((), ()), 0.1, 10, 0, ego_lane)


EDGE_SCENARIOS = (
    straight_scenario(n_lanes=3, max_steps=10),
    edge_scenario(RoadNetwork([Lane("bend", [(0.0, 0.0), (10.0, 0.0), (10.0, 10.0)], 3.5)])),
    edge_scenario(load_scenario(_bundled_library() / "highway_curve.scenario.json").network),
    edge_scenario(load_scenario(_bundled_library() / "urban_grid.scenario.json").network),
)


@st.composite
def egos_near_lane_edges(draw):
    """An ego on a lane, at its ends, a vertex or anywhere along it (and a
    little beyond), within a few times 1e-6 m of either lane edge."""
    scenario = draw(st.sampled_from(EDGE_SCENARIOS))
    lane_id = draw(st.sampled_from(sorted(scenario.network.lanes)))
    lane = scenario.network.lanes[lane_id]
    s = draw(st.sampled_from([0.0, *lane._inner_s, lane.length])
             | st.floats(-1.0, lane.length + 1.0))
    edge = lane.width / 2.0 + draw(st.sampled_from([-1e-6, 0.0, 1e-6])
                                   | st.floats(-3e-6, 3e-6))
    d = draw(st.sampled_from([edge, -edge, lane._held_d, -lane._held_d]))
    toward = draw(st.sampled_from([None, -math.inf, math.inf]))
    return scenario, lane_id, s, d if toward is None else math.nextafter(d, toward)


@settings(deadline=None, max_examples=300)
@given(egos_near_lane_edges())
def test_off_road_decision_agrees_with_global_to_road(case):
    scenario, lane_id, s, d = case
    env = TrafficEnv(scenario)
    env.reset()
    env._ego_lane, env._ego_s, env._ego_d = lane_id, s, d
    env._ego_vlong = 0.0
    result = env.step(ZERO)
    x, y, _ = env._pose
    assert (result.info["cause"] == "off_road") == (global_to_road(env.net, x, y) is None)


#: The straight 3-lane road, a bent lane and the urban grid, without BVs.
OFF_ROAD_SCENARIOS = (EDGE_SCENARIOS[0], EDGE_SCENARIOS[1], EDGE_SCENARIOS[3])


@st.composite
def egos_on_and_off_lanes(draw):
    """An ego on a lane, along it or beyond either end, at either lane edge,
    on a neighbour lane's centre or anywhere within three lane widths,
    optionally moved one ulp in s or d."""
    scenario = draw(st.sampled_from(OFF_ROAD_SCENARIOS))
    lane_id = draw(st.sampled_from(sorted(scenario.network.lanes)))
    lane = scenario.network.lanes[lane_id]
    w = lane.width
    s = draw(st.sampled_from([0.0, lane.length]) | st.floats(-5.0, lane.length + 5.0))
    d = draw(st.sampled_from([w / 2.0, -w / 2.0, w, -w]) | st.floats(-3.0 * w, 3.0 * w))
    toward = draw(st.sampled_from([None, -math.inf, math.inf]))
    if toward is not None:
        if draw(st.booleans()):
            s = math.nextafter(s, toward)
        else:
            d = math.nextafter(d, toward)
    return scenario, lane_id, s, d


@settings(deadline=None, max_examples=300)
@given(egos_on_and_off_lanes())
# exactly on the shared edge of two lanes, held by the membership lane
@example((EDGE_SCENARIOS[0], "lane_1", 1500.0, 1.75))
# before a lane's start, missed by it and held by the lane leading into it
@example((EDGE_SCENARIOS[3], "e00_01", -3.0, 0.0))
def test_off_road_decision_from_membership_lane_then_network(case):
    scenario, lane_id, s, d = case
    env = TrafficEnv(scenario)
    env.reset()
    env._ego_lane, env._ego_s, env._ego_d = lane_id, s, d
    env._ego_vlong = 0.0
    with mock.patch("microtraffic.env.is_off_road", wraps=is_off_road) as spy:
        result = env.step(ZERO)
    x, y, _ = env._pose
    assert (result.info["cause"] == "off_road") == (global_to_road(env.net, x, y) is None)
    # The network-wide test runs only when the membership lane misses the ego.
    mem = env.net.lanes[env._mem[0]]
    assert not spy.called or mem.project(x, y)[2] > mem.width / 2.0
