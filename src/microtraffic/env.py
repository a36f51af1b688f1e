"""Gym-style driving environment with calibrated background traffic.

The controlled (ego) vehicle moves continuously in the road-aligned frame
of its current lane: the action is a longitudinal and a lateral
acceleration, double-integrated with forward Euler and mapped to global
coordinates. Background vehicles (BVs) follow their routes with one
car-following Euler step per environment step, behind the nearest
same-lane vehicle ahead (the ego included).

All vehicles advance synchronously from a snapshot of the step-start
state. A BV's gap to an unchanged leader is updated incrementally with
the same arithmetic as the model-core rollout, so a lone BV behind a
steady leader reproduces ``rollout_follower`` exactly, float for float.

"Who is near whom" comes from one lane index: each lane's live BVs sorted
by ``(s, id)``, rebuilt once per step after the commit and extended by
spawns. Leader lookups, spawn checks, BV contacts, the observation and
the ego collision test all bisect into it, so a step costs O(N log N)
rather than O(N^2 / lanes). At equal ``s`` the lowest id comes first;
in leader lookups the ego comes ahead of every BV.

Episodes terminate on ego collision, on the ego leaving the paved network
(closed boundary: exactly half a lane width away is still on the road),
or at ``max_steps``. BV-BV contact is logged but does not terminate.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import pairwise
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import _kernels
from .errors import EnvUsageError, InputDomainError
from .network import Scenario, is_off_road

DEFAULT_VEHICLE_WIDTH = 2.0
DEFAULT_EGO_LENGTH = 5.0
OBS_FEATURES = 5
_SPAWN_CLEARANCE = 2.0
_GAP_EPS = 1e-6
# Widens the bisection windows of the spawn and collision checks so float
# rounding in the window bounds can never drop a vehicle that the exact
# test would catch; the exact test still decides.
_WINDOW_SLACK = 1.0
_EMPTY_RUN = ((), ())
_by_position = attrgetter("s", "id")

TRACE_COLUMNS = ("step", "id", "x", "y", "heading", "v")


@dataclass(frozen=True)
class Action:
    """Unclamped accelerations in the ego's road-aligned frame, m/s^2."""

    a_long: float
    a_lat: float


@dataclass(frozen=True)
class StepResult:
    observation: np.ndarray
    reward: float
    terminated: bool
    info: dict


class _Vehicle:
    __slots__ = ("id", "theta", "length", "route_lanes", "route_pos",
                 "lane", "s", "v", "gap", "leader_key")

    def __init__(self, spec, route_lanes, v0):
        self.id = spec.id
        self.theta = spec.params.to_array()
        self.length = spec.length
        self.route_lanes = route_lanes
        self.route_pos = 0
        self.lane = route_lanes[0]
        self.s = spec.depart_s
        self.v = v0
        self.gap = math.inf
        self.leader_key = None


class TrafficEnv:
    """Scenario-driven episode with a V x 5 neighbour observation.

    The observation has two rows (leader, then follower) per lane of the
    ego's lane group, ordered leftmost lane first; V is fixed at reset
    from the spawn lane's group. Each present row holds
    ``(1, x, y, vx, vy)`` relative to the ego in its road-aligned frame;
    absent slots are all zero.

    ``reward_fn(obs, action, info) -> float`` replaces the default zero
    reward. ``trace_path`` enables per-step frame recording via
    :meth:`render_frame`.
    """

    def __init__(self, scenario: Scenario, reward_fn=None, trace_path=None,
                 ego_length: float = DEFAULT_EGO_LENGTH,
                 vehicle_width: float = DEFAULT_VEHICLE_WIDTH):
        self.scenario = scenario
        self.net = scenario.network
        self.ego_length = float(ego_length)
        self.vehicle_width = float(vehicle_width)
        self.reward_fn = reward_fn
        self._trace_path = Path(trace_path) if trace_path is not None else None
        self._trace_fh = None
        self._group_size = len(self.net.lane_group(scenario.ego_lane))
        self._max_length = max((spec.length for spec in scenario.demand.vehicles),
                               default=0.0)
        self._backend = _kernels.ACTIVE
        self._live = False
        self._terminated = False
        self.collisions_logged = []

    @property
    def n_slots(self) -> int:
        """Number of observation rows: two per lane of the ego's group."""
        return 2 * self._group_size

    @property
    def observation_shape(self) -> tuple:
        return (self.n_slots, OBS_FEATURES)

    # -- episode lifecycle ------------------------------------------------

    def reset(self) -> np.ndarray:
        sc = self.scenario
        self._ego_lane = sc.ego_lane
        self._ego_s = sc.ego_start_s
        self._ego_d = 0.0
        self._ego_vlong = sc.ego_speed
        self._ego_vlat = 0.0
        self._step_idx = 0
        self._time = 0.0
        self._cause = "running"
        self._terminated = False
        self._live = True
        self.collisions_logged = []
        self._overlapping = set()
        self._alive: list[_Vehicle] = []
        self._lanes = {}
        self._pending = sorted(sc.demand.vehicles, key=lambda v: (v.depart, v.id))
        self._spawn_due()
        if self._trace_path is not None:
            if self._trace_fh is not None:
                self._trace_fh.close()
            self._trace_fh = self._trace_path.open("w", newline="")
            self._trace_fh.write(",".join(TRACE_COLUMNS) + "\n")
        return self.build_observation()

    def close(self) -> None:
        if self._trace_fh is not None:
            self._trace_fh.close()
            self._trace_fh = None

    def step(self, action: Action) -> StepResult:
        if not self._live:
            raise EnvUsageError("step() before reset()")
        if self._terminated:
            raise EnvUsageError("step() on a terminated episode; call reset()")
        a_long = float(action.a_long)
        a_lat = float(action.a_lat)
        if not (math.isfinite(a_long) and math.isfinite(a_lat)):
            raise InputDomainError(f"action must be finite, got ({a_long!r}, {a_lat!r})")
        dt = self.scenario.dt

        # Snapshot of the step-start state; every update below reads it.
        mem_lane, mem_s, _ = self._ego_membership()

        updates = []
        follower_step = self._backend.follower_step
        for bv, key, v_lead, gap in self._leaders(mem_lane, mem_s):
            t = bv.theta
            a, v_next, gap_next = follower_step(
                t[0], t[1], t[2], t[3], t[4], t[5], bv.v, v_lead, gap, dt)
            updates.append((bv, bv.s + bv.v * dt, v_next, gap_next, key))

        ego_s = self._ego_s + self._ego_vlong * dt
        ego_d = self._ego_d + self._ego_vlat * dt
        ego_vlong = self._ego_vlong + a_long * dt
        ego_vlat = self._ego_vlat + a_lat * dt

        # Commit.
        self._ego_s, self._ego_d = ego_s, ego_d
        self._ego_vlong, self._ego_vlat = ego_vlong, ego_vlat
        self._roll_ego_lane()
        for bv, s_next, v_next, gap_next, key in updates:
            bv.v = v_next
            bv.gap = gap_next if gap_next > 0.0 else _GAP_EPS
            bv.leader_key = key
            bv.s = s_next
        self._alive = [bv for bv in self._alive if self._advance_route(bv)]
        self._index_lanes()

        self._step_idx += 1
        self._time += dt
        self._spawn_due()
        self._log_bv_contacts()

        if self.check_collision():
            self._cause = "collision"
        elif is_off_road(self.net, *self._ego_xy()):
            self._cause = "off_road"
        elif self._step_idx >= self.scenario.max_steps:
            self._cause = "max_steps"
        else:
            self._cause = "running"
        self._terminated = self._cause != "running"

        obs = self.build_observation()
        info = self.current_info()
        reward = 0.0
        if self.reward_fn is not None:
            reward = float(self.reward_fn(obs, action, info))
        return StepResult(obs, reward, self._terminated, info)

    # -- state helpers ----------------------------------------------------

    def _ego_pose(self):
        lane = self.net.lanes[self._ego_lane]
        return lane.pose_at(self._ego_s, self._ego_d, extrapolate=True)

    def _ego_xy(self):
        x, y, _ = self._ego_pose()
        return x, y

    def _ego_membership(self):
        """(lane_id, s, d) of the lane the ego currently counts as being on.

        Walks left/right neighbour links from the tracked lane until the
        lateral offset falls inside a lane's width. While the membership
        lane equals the tracked lane, s is the tracked value exactly; on a
        neighbour it comes from projecting the global position.
        """
        lane_id = self._ego_lane
        d = self._ego_d
        for _ in range(len(self.net.lanes)):
            lane = self.net.lanes[lane_id]
            half = lane.width / 2.0
            if d > half and lane.left is not None:
                d -= (lane.width + self.net.lanes[lane.left].width) / 2.0
                lane_id = lane.left
            elif d < -half and lane.right is not None:
                d += (lane.width + self.net.lanes[lane.right].width) / 2.0
                lane_id = lane.right
            else:
                break
        if lane_id == self._ego_lane:
            return lane_id, self._ego_s, d
        x, y, _ = self._ego_pose()
        s, _, _ = self.net.lanes[lane_id].project(x, y)
        return lane_id, s, d

    def _index_lanes(self):
        """Rebuild the lane index from ``_alive``.

        Maps each lane id to ``(run, ss)``: its live BVs sorted by
        ``(s, id)`` and their ``s`` values alongside for bisection. Lanes
        keep the order of their first vehicle in ``_alive``, which fixes
        the order of ``collisions_logged`` entries within a step.
        """
        runs: dict[str, list] = {}
        for bv in self._alive:
            runs.setdefault(bv.lane, []).append(bv)
        self._lanes = {}
        for lane_id, run in runs.items():
            run.sort(key=_by_position)
            self._lanes[lane_id] = (run, [bv.s for bv in run])

    def _insert(self, bv):
        """Add a freshly spawned BV to ``_alive`` and to its lane's run."""
        self._alive.append(bv)
        run, ss = self._lanes.setdefault(bv.lane, ([], []))
        i = bisect_left(run, _by_position(bv), key=_by_position)
        run.insert(i, bv)
        ss.insert(i, bv.s)

    def _near(self, lane_id, s, reach):
        """BVs on ``lane_id`` whose s lies within ``reach`` of ``s``."""
        run, ss = self._lanes.get(lane_id, _EMPTY_RUN)
        return run[bisect_left(ss, s - reach):bisect_right(ss, s + reach)]

    def _leaders(self, mem_lane, mem_s):
        """Yield ``(bv, leader key, leader speed, gap)`` for every live BV.

        The leader is the nearest same-lane vehicle strictly ahead, the ego
        (at ``mem_s`` on ``mem_lane``) included. Leader lookups do not cross
        lane boundaries, so a vehicle sees an empty road until its
        leader-to-be is on the same lane. The gap is the car-following
        input: the incrementally updated one while the leader is unchanged,
        the bumper gap to a new leader, +inf without one.
        """
        for lane_id, (run, ss) in self._lanes.items():
            ego_here = lane_id == mem_lane
            n = len(run)
            for i, bv in enumerate(run):
                s = bv.s
                j = bisect_right(ss, s, i + 1)
                if ego_here and s < mem_s and (j == n or mem_s <= ss[j]):
                    key, v_lead = ("ego", mem_lane), self._ego_vlong
                    gap = (mem_s - s) - (self.ego_length + bv.length) / 2.0
                elif j < n:
                    lead = run[j]
                    key, v_lead = ("bv", lead.id), lead.v
                    gap = (lead.s - s) - (lead.length + bv.length) / 2.0
                else:
                    yield bv, None, bv.v, math.inf
                    continue
                gap = bv.gap if key == bv.leader_key else max(gap, _GAP_EPS)
                yield bv, key, v_lead, gap

    def _roll_ego_lane(self):
        lane = self.net.lanes[self._ego_lane]
        while self._ego_s > lane.length and lane.successors:
            self._ego_s -= lane.length
            self._ego_lane = lane.successors[0]
            lane = self.net.lanes[self._ego_lane]

    def _advance_route(self, bv) -> bool:
        """Move a BV across lane boundaries; False once it leaves its route."""
        lane = self.net.lanes[bv.lane]
        while bv.s > lane.length:
            if bv.route_pos + 1 >= len(bv.route_lanes):
                return False
            bv.s -= lane.length
            bv.route_pos += 1
            bv.lane = bv.route_lanes[bv.route_pos]
            lane = self.net.lanes[bv.lane]
        return True

    def _spawn_due(self):
        if not self._pending:
            return
        mem_lane, mem_s, _ = self._ego_membership()
        still_pending = []
        for spec in self._pending:
            if spec.depart > self._time:
                still_pending.append(spec)
                continue
            route = self.scenario.demand.route_by_id(spec.route)
            lane_id = route.lanes[0]
            if self._spawn_blocked(lane_id, spec.depart_s, spec.length,
                                   mem_lane, mem_s):
                still_pending.append(spec)
                continue
            v_lead, gap = self._spawn_leader(lane_id, spec.depart_s, mem_lane, mem_s)
            v_des = spec.params.v_des
            v0 = v_des if v_lead is None else min(v_des, v_lead)
            self._insert(_Vehicle(spec, route.lanes, v0))
        self._pending = still_pending

    def _spawn_blocked(self, lane_id, s, length, mem_lane, mem_s) -> bool:
        reach = (self._max_length + length) / 2.0 + _SPAWN_CLEARANCE + _WINDOW_SLACK
        for bv in self._near(lane_id, s, reach):
            if abs(bv.s - s) < (bv.length + length) / 2.0 + _SPAWN_CLEARANCE:
                return True
        if mem_lane == lane_id and abs(mem_s - s) < (self.ego_length + length) / 2.0 + _SPAWN_CLEARANCE:
            return True
        return False

    def _spawn_leader(self, lane_id, s, mem_lane, mem_s):
        """(speed, centre distance) of the nearest vehicle ahead of a spawn
        point, or (None, inf); a BV wins a tie with the ego."""
        best = None
        run, ss = self._lanes.get(lane_id, _EMPTY_RUN)
        j = bisect_right(ss, s)
        if j < len(run):
            best = (ss[j], run[j].v)
        if mem_lane == lane_id and mem_s > s and (best is None or mem_s < best[0]):
            best = (mem_s, self._ego_vlong)
        if best is None:
            return None, math.inf
        return best[1], best[0] - s

    def _log_bv_contacts(self):
        current = set()
        for run, _ in self._lanes.values():
            for rear, front in pairwise(run):
                gap = (front.s - rear.s) - (front.length + rear.length) / 2.0
                if gap <= 0.0:
                    pair = (rear.id, front.id)
                    current.add(pair)
                    if pair not in self._overlapping:
                        self.collisions_logged.append(
                            {"step": self._step_idx, "rear": rear.id, "front": front.id}
                        )
        self._overlapping = current

    # -- observation / termination predicates -----------------------------

    def check_collision(self) -> bool:
        """Ego overlap test: bumper gap <= 0 with lateral centres closer
        than the mean vehicle width."""
        mem_lane, mem_s, mem_d = self._ego_membership()
        ex, ey, _ = self._ego_pose()
        lat_limit = self.vehicle_width  # (w_ego + w_bv) / 2 with equal widths
        reach = (self.ego_length + self._max_length) / 2.0 + _WINDOW_SLACK
        for lane_id in self._lanes:
            if lane_id == mem_lane:
                s_ego, lat = mem_s, mem_d
            else:
                s_ego, lat, _ = self.net.lanes[lane_id].project(ex, ey)
            if not abs(lat) < lat_limit:
                continue
            for bv in self._near(lane_id, s_ego, reach):
                if abs(s_ego - bv.s) - (self.ego_length + bv.length) / 2.0 <= 0.0:
                    return True
        return False

    def build_observation(self) -> np.ndarray:
        obs = np.zeros(self.observation_shape)
        mem_lane, mem_s, _ = self._ego_membership()
        ex, ey, eh = self._ego_pose()
        tx, ty = math.cos(eh), math.sin(eh)
        nx, ny = -ty, tx
        evx = self._ego_vlong * tx + self._ego_vlat * nx
        evy = self._ego_vlong * ty + self._ego_vlat * ny
        group = self.net.lane_group(mem_lane)[: self._group_size]
        for j, lane_id in enumerate(group):
            run, ss = self._lanes.get(lane_id, _EMPTY_RUN)
            if not run:
                continue
            lane = self.net.lanes[lane_id]
            if lane_id == mem_lane:
                s_ref = mem_s
            else:
                s_ref, _, _ = lane.project(ex, ey)
            # Nearest BV strictly ahead and strictly behind s_ref; the
            # lowest id wins a tie in s.
            hi = bisect_right(ss, s_ref)
            leader = run[hi] if hi < len(run) else None
            lo = bisect_left(ss, s_ref)
            follower = run[bisect_left(ss, ss[lo - 1], 0, lo)] if lo else None
            for slot, bv in ((2 * j, leader), (2 * j + 1, follower)):
                if bv is None:
                    continue
                bx, by, bh = lane.pose_at(bv.s, 0.0)
                bvx = bv.v * math.cos(bh)
                bvy = bv.v * math.sin(bh)
                dx, dy = bx - ex, by - ey
                obs[slot] = (1.0,
                             dx * tx + dy * ty,
                             dx * nx + dy * ny,
                             (bvx - evx) * tx + (bvy - evy) * ty,
                             (bvx - evx) * nx + (bvy - evy) * ny)
        return obs

    def current_info(self) -> dict:
        x, y, heading = self._ego_pose()
        return {
            "cause": self._cause,
            "step": self._step_idx,
            "ego": {
                "x": x, "y": y, "heading": heading,
                "v": math.hypot(self._ego_vlong, self._ego_vlat),
            },
        }

    # -- output ------------------------------------------------------------

    def render_frame(self):
        """One row per vehicle (ego first): (step, id, x, y, heading, v).

        Appends the rows to the trace file when tracing is enabled and
        returns them either way.
        """
        if not self._live:
            raise EnvUsageError("render_frame() before reset()")
        x, y, heading = self._ego_pose()
        rows = [(self._step_idx, "ego", x, y, heading,
                 math.hypot(self._ego_vlong, self._ego_vlat))]
        for bv in sorted(self._alive, key=lambda b: b.id):
            bx, by, bh = self.net.lanes[bv.lane].pose_at(bv.s, 0.0)
            rows.append((self._step_idx, bv.id, bx, by, bh, bv.v))
        if self._trace_fh is not None:
            for step, vid, rx, ry, rh, rv in rows:
                self._trace_fh.write(
                    f"{step},{vid},{float(rx)!r},{float(ry)!r},{float(rh)!r},{float(rv)!r}\n"
                )
            self._trace_fh.flush()
        return rows

    def episode_summary(self) -> dict:
        x, y, _ = self._ego_pose()
        return {
            "cause": self._cause,
            "steps": self._step_idx,
            "ego_final": {
                "x": float(x), "y": float(y),
                "v": float(math.hypot(self._ego_vlong, self._ego_vlat)),
            },
            "collisions_logged": len(self.collisions_logged),
        }

    def vehicle_states(self) -> dict:
        """id -> (lane, s, v, gap) of the live background vehicles.

        ``gap`` is the bumper gap to the current leader as used by the
        car-following update (+inf when leaderless).
        """
        return {bv.id: (bv.lane, bv.s, bv.v, bv.gap) for bv in self._alive}
