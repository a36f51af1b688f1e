"""Whole episodes against a plain reference stepper.

``ReferenceEnv`` keeps the background vehicles (BVs) as a dict of records
in spawn order and re-derives every step by linear scans, through the
``ref_*`` helpers of ``test_env`` and ``conftest.follower_step``: each BV's
leader (the ego included, ties to the ego and then to the lowest id), the
gap kept while the leader is unchanged, lane-end crossings and exits,
spawn blocking and the spawn leader, BV contacts, the ego collision, off
road through ``global_to_road``, and the observation. It shares no index,
sort or cache with ``TrafficEnv``; random episodes must agree with it bit
for bit at every step.
"""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import follower_step
from microtraffic import Action, DemandSpec, TrafficEnv, VehicleSpec
from microtraffic.env import DEFAULT_VEHICLE_WIDTH, OBS_FEATURES
from microtraffic.network import _bundled_library, global_to_road, load_scenario
from microtraffic.population import (DEFAULT_VEHICLE_LENGTH, default_histograms,
                                     sample_param_set)
from test_env import (GAP_EPS, ref_collision, ref_contacts, ref_leader, ref_observation,
                      ref_spawn_blocked, ref_spawn_leader)


class ReferenceEnv:
    """``TrafficEnv``'s episode, one plain scan at a time.

    The ego attributes the ``ref_*`` helpers read (``_ego_vlong``,
    ``_ego_membership()``, ...) carry the same names as on ``TrafficEnv``.
    """

    def __init__(self, scenario):
        self.scenario = scenario
        self.net = scenario.network
        self.ego_length = DEFAULT_VEHICLE_LENGTH
        self.vehicle_width = DEFAULT_VEHICLE_WIDTH
        self.n_slots = 2 * len(self.net.lane_group(scenario.ego_lane))
        self.observation_shape = (self.n_slots, OBS_FEATURES)
        self.ego_lane, self.ego_s, self.ego_d = scenario.ego_lane, scenario.ego_start_s, 0.0
        self._ego_vlong, self._ego_vlat = scenario.ego_speed, 0.0
        self.step_idx, self.time = 0, 0.0
        self.bvs = {}  # id -> record, in spawn order
        self.pending = sorted(scenario.demand.vehicles, key=lambda v: (v.depart, v.id))
        self.touching = set()
        self.collisions_logged = []
        self._spawn_due()

    def _ego_pose(self):
        return self.net.lanes[self.ego_lane].pose_at(self.ego_s, self.ego_d, extrapolate=True)

    def _ego_membership(self):
        """(lane, s, d) after walking neighbour links until d fits a lane."""
        lane_id, d = self.ego_lane, self.ego_d
        for _ in range(len(self.net.lanes)):
            lane = self.net.lanes[lane_id]
            if d > lane.width / 2.0 and lane.left is not None:
                d -= (lane.width + self.net.lanes[lane.left].width) / 2.0
                lane_id = lane.left
            elif d < -lane.width / 2.0 and lane.right is not None:
                d += (lane.width + self.net.lanes[lane.right].width) / 2.0
                lane_id = lane.right
            else:
                break
        if lane_id == self.ego_lane:
            return lane_id, self.ego_s, d
        x, y, _ = self._ego_pose()
        return lane_id, self.net.lanes[lane_id].project(x, y)[0], d

    def vehicle_states(self):
        return {b.id: (b.lane, b.s, b.v, b.gap) for b in self.bvs.values()}

    def observation(self):
        return ref_observation(self, list(self.bvs.values()))

    def _spawn_due(self):
        mem_lane, mem_s, _ = self._ego_membership()
        still_pending = []
        for spec in self.pending:
            route = self.scenario.demand.route_by_id(spec.route)
            lane_id, s = route.lanes[0], spec.depart_s
            bvs = list(self.bvs.values())
            if spec.depart > self.time or ref_spawn_blocked(
                    self, bvs, lane_id, s, spec.length, mem_lane, mem_s):
                still_pending.append(spec)
                continue
            v_lead = ref_spawn_leader(self, bvs, lane_id, s, mem_lane, mem_s)
            p = spec.params
            # at the leader's speed, up to its own desired speed, and never
            # backwards (a reversing ego ahead leads at a negative speed)
            v0 = p.v_des if v_lead is None else min(p.v_des, v_lead)
            self.bvs[spec.id] = SimpleNamespace(
                id=spec.id, lane=lane_id, s=s, v=0.0 if v0 < 0.0 else v0,
                length=spec.length, gap=math.inf, leader_key=None,
                theta=(p.a_max, p.a_comf, p.v_des, p.d_min, p.T, p.delta),
                route=route.lanes, pos=0)
        self.pending = still_pending

    def _move_bvs(self, dt):
        """Every BV steps from the step-start state, then crosses lane ends."""
        bvs = list(self.bvs.values())
        mem_lane, mem_s, _ = self._ego_membership()
        moves = []
        for b in bvs:
            key, v_lead, gap = ref_leader(self, bvs, b, mem_lane, mem_s)
            if key is not None and key == b.leader_key:
                gap = b.gap
            _, v_next, gap_next = follower_step(*b.theta, b.v, v_lead, gap, dt)
            moves.append((key, b.s + b.v * dt, v_next, gap_next if gap_next > 0.0 else GAP_EPS))
        for b, (key, s, v, gap) in zip(bvs, moves):
            b.leader_key, b.s, b.v, b.gap = key, s, v, gap
            length = self.net.lanes[b.lane].length
            while b.s > length:
                if b.pos + 1 == len(b.route):
                    del self.bvs[b.id]
                    break
                b.s -= length
                b.pos += 1
                b.lane = b.route[b.pos]
                length = self.net.lanes[b.lane].length

    def _roll_ego_lane(self):
        lane = self.net.lanes[self.ego_lane]
        for _ in range(len(self.net.lanes)):
            if not (self.ego_s > lane.length and lane.successors):
                return True
            self.ego_s -= lane.length
            self.ego_lane = lane.successors[0]
            lane = self.net.lanes[self.ego_lane]
        return not (self.ego_s > lane.length and lane.successors)

    def step(self, action):
        """(observation, terminated, info) of one step."""
        dt = self.scenario.dt
        self._move_bvs(dt)
        self.ego_s += self._ego_vlong * dt
        self.ego_d += self._ego_vlat * dt
        self._ego_vlong += action.a_long * dt
        self._ego_vlat += action.a_lat * dt
        rolled = self._roll_ego_lane()
        self.step_idx += 1
        self.time += dt
        self._spawn_due()

        bvs = list(self.bvs.values())
        contacts = ref_contacts(bvs, self.step_idx)
        self.collisions_logged += [c for c in contacts
                                   if (c["rear"], c["front"]) not in self.touching]
        self.touching = {(c["rear"], c["front"]) for c in contacts}

        x, y, heading = self._ego_pose()
        if ref_collision(self, bvs):
            cause = "collision"
        elif not rolled or global_to_road(self.net, x, y) is None:
            cause = "off_road"
        elif self.step_idx >= self.scenario.max_steps:
            cause = "max_steps"
        else:
            cause = "running"
        info = {"cause": cause, "step": self.step_idx,
                "ego": {"x": x, "y": y, "heading": heading,
                        "v": math.hypot(self._ego_vlong, self._ego_vlat)}}
        return self.observation(), cause != "running", info


def bits(value):
    """``value`` with every float as its ``float.hex``, so that ``==``
    compares bits: it tells -0.0 from 0.0 and matches NaN with NaN."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return [(k, bits(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [bits(v) for v in value]
    return value


SCENARIOS = {name: load_scenario(_bundled_library() / f"{name}.scenario.json")
             for name in ("highway_curve", "urban_grid")}


def random_demand(scenario, rng, n_vehicles):
    """Vehicles on the scenario's routes, departing on a 0.5 s grid and
    placed on a 2.5 m grid near the start of their first lane (now and
    then near its end), so that equal-s ties, blocked spawns, queues and
    lane ends are common."""
    net, routes = scenario.network, scenario.demand.routes
    hists = default_histograms(scenario.kind)
    vehicles = []
    for k in range(n_vehicles):
        route = routes[int(rng.integers(len(routes)))]
        first = net.lanes[route.lanes[0]].length
        s = 2.5 * float(rng.integers(0, 60))
        if rng.random() < 0.2:
            s = first - 2.5 - s
        vehicles.append(VehicleSpec(
            f"bv{k:02d}", route.id, 0.5 * float(rng.integers(0, 16)),
            sample_param_set(hists, rng), length=float(rng.choice([4.0, 5.0, 12.0])),
            depart_s=max(s, 0.0)))
    return DemandSpec(routes, tuple(vehicles))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(SCENARIOS)), st.integers(0, 2**32 - 1), st.integers(0, 16),
       st.integers(1, 200), st.sampled_from([0.0, 0.05, 0.6]))
def test_episode_matches_reference_stepper(name, seed, n_vehicles, n_steps, lateral):
    rng = np.random.default_rng(seed)
    base = SCENARIOS[name]
    scenario = dataclasses.replace(base, demand=random_demand(base, rng, n_vehicles))
    env = TrafficEnv(scenario)
    ref = ReferenceEnv(scenario)
    assert env.reset().tobytes() == ref.observation().tobytes()
    assert bits(env.vehicle_states()) == bits(ref.vehicle_states())
    for k in range(n_steps):
        action = Action(float(rng.uniform(-4.0, 2.0)), float(rng.uniform(-lateral, lateral)))
        result = env.step(action)
        obs, terminated, info = ref.step(action)
        where = f"step {k + 1}"
        assert bits(env.vehicle_states()) == bits(ref.vehicle_states()), where
        assert result.observation.tobytes() == obs.tobytes(), where
        assert bits(result.info) == bits(info), where
        assert result.terminated == terminated, where
        assert env.collisions_logged == ref.collisions_logged, where
        if terminated:
            break
