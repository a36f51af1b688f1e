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

BV state is a structure of arrays: one 2-D float array with a column per
live BV (position, speed, gap, leader, length, lane, parameters, ...),
kept sorted by ``(lane, s, id)``. One ``np.lexsort`` re-sorts it after a
step in which a BV changed lane, left, spawned, or drew level with or
passed the BV ahead. Each lane's BVs are therefore one contiguous slice,
and "who is near whom" is a neighbouring column or a ``searchsorted``
into that slice. Leaders are resolved for all BVs at once (the next
larger ``s`` on the lane, the ego merged in and winning ties) and the
car-following update is one call of ``_kernels._follower_step``,
bit-identical on every row to a step of ``_rollout_loop``. Up to its
crossover of 16 BVs that call loops the scalar law over Python floats,
above it the batch law runs once over all of them: a numpy call costs
about as much as the scalar law on one row, and the batch law makes about
twenty of them, so a handful of BVs (the bundled scenarios hold at most
12) step faster on floats and hundreds faster in one batch. Python loops
run only over the few BVs that cross a lane end or share an ``s`` and
the BV contacts that get logged. At equal ``s`` the lowest id comes
first. Spawn checks read that order too: each lane a spawn is tried on
gives one sorted list of rows per spawning pass, and an accepted spawn is
inserted into it, so later spawns of the pass see it.

Episodes terminate on ego collision, on the ego leaving the paved network
(closed boundary: exactly half a lane width away is still on the road),
or at ``max_steps``, tested in that order. BV-BV contact is logged but
does not terminate. An ego that would cross more lane ends in one step
than the network has lanes is off the road: on a cycle of successor links
the crossing would otherwise never end.

Per-step geometry costs what the BVs and the lanes near the ego cost.
The off-road test needs no projection while the ego is on its tracked
lane's stretch within ``Lane._held_d`` of the centre line; otherwise its
membership lane, then ``is_off_road``, decides. The collision test skips
an occupied lane whose centerline box is farther from the ego, on either
axis, than the lateral limit plus ``_WINDOW_SLACK``. The ego and every
BV a frame or the observation shows are posed by ``Lane.pose_at``, and
the ego's projections onto other lanes (the observation projects onto
each occupied neighbour lane every step) run on Python floats: a pose or
a projection costs its scalar arithmetic, not a dozen numpy calls.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _kernels
from .errors import EnvUsageError, InputDomainError
from .network import Scenario, is_off_road
from .population import DEFAULT_VEHICLE_LENGTH

DEFAULT_VEHICLE_WIDTH = 2.0
OBS_FEATURES = 5
_SPAWN_CLEARANCE = 2.0
_GAP_EPS = 1e-6
# Widens the search windows of the spawn and collision checks so float
# rounding in the window bounds can never drop a vehicle that the exact
# test would catch; the exact test still decides.
_WINDOW_SLACK = 1.0

# Rows of the BV state array, one column per live BV. Lane, id rank,
# leader key and spawn sequence are small integers held exactly as floats,
# so a re-sort is a single gather. Leader keys: the leader's id rank,
# ``_ego_key(lane code)`` behind the ego, NaN without a leader (NaN equals
# no key, so a leaderless BV never keeps its previous gap).
_S, _V, _LEN, _RANK, _GAP, _KEY, _LANE, _END, _SEQ = range(9)
_THETA = slice(9, 15)  # the law's (a_max, b2, v_des, d_min, T, delta)
_N_ROWS = 15
_NO_LEADER = math.nan

TRACE_COLUMNS = ("step", "id", "x", "y", "heading", "v")
# A vehicle's (x, y, heading, v) and their text in the last frame written;
# NaN values equal nothing, so a vehicle new to the trace gets ``repr``.
_UNWRITTEN = (math.nan,) * 4 + ("",) * 4


def _ego_key(lane_code):
    return -2.0 - lane_code


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

    def __init__(self, scenario: Scenario, reward_fn=None, trace_path=None):
        self.scenario = scenario
        self.net = scenario.network
        self.ego_length = DEFAULT_VEHICLE_LENGTH
        self.vehicle_width = DEFAULT_VEHICLE_WIDTH
        self.reward_fn = reward_fn
        self._trace_path = Path(trace_path) if trace_path is not None else None
        self._trace_fh = None
        self._group_size = len(self.net.lane_group(scenario.ego_lane))
        # Observation lanes of each membership lane: its group, cut to V / 2.
        self._obs_lanes = {lane_id: self.net.lane_group(lane_id)[: self._group_size]
                           for lane_id in self.net.lanes}
        self._max_length = max((spec.length for spec in scenario.demand.vehicles),
                               default=0.0)
        self._ids = sorted(spec.id for spec in scenario.demand.vehicles)
        self._rank = {vid: r for r, vid in enumerate(self._ids)}
        self._lane_ids = self.net._sorted_ids
        self._code = {lane_id: c for c, lane_id in enumerate(self._lane_ids)}
        self._lanes = [self.net.lanes[lane_id] for lane_id in self._lane_ids]
        self._codes = np.arange(len(self._lane_ids) + 1, dtype=np.float64)
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
        self._F = np.empty((_N_ROWS, 0))
        self._routes = {}  # id rank -> [route lanes, position on the route]
        self._n_spawned = 0
        self._pending = sorted(sc.demand.vehicles, key=lambda v: (v.depart, v.id))
        self._sort()
        self._locate_ego()
        self._spawn_due()
        if self._trace_path is not None:
            if self._trace_fh is not None:
                self._trace_fh.close()
            self._trace_fh = self._trace_path.open("w", newline="")
            self._trace_text = {}  # vehicle id -> its row of _UNWRITTEN's form
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

        # The BV update reads only the step-start state (the ego's
        # membership and speed included), so it can commit first.
        if self._F.shape[1]:
            self._move_bvs(dt)

        self._ego_s += self._ego_vlong * dt
        self._ego_d += self._ego_vlat * dt
        self._ego_vlong += a_long * dt
        self._ego_vlat += a_lat * dt
        rolled = self._roll_ego_lane()
        self._locate_ego()

        self._step_idx += 1
        self._time += dt
        self._spawn_due()
        self._log_bv_contacts()

        # At 0 <= s <= length and |d| <= _held_d the pose is on the tracked
        # lane: no projection needed. Else a membership lane holding it does.
        lane = self.net.lanes[self._ego_lane]
        mem = self.net.lanes[self._mem[0]]
        if self.check_collision():
            self._cause = "collision"
        elif not rolled or (
                (not 0.0 <= self._ego_s <= lane.length or abs(self._ego_d) > lane._held_d)
                and self._project_ego(mem.id)[2] > mem.width / 2.0
                and is_off_road(self.net, *self._pose[:2])):
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

    # -- ego helpers --------------------------------------------------------

    def _ego_pose(self):
        lane = self.net.lanes[self._ego_lane]
        return lane.pose_at(self._ego_s, self._ego_d, extrapolate=True)

    def _ego_membership(self):
        """(lane_id, s, d) of the lane the ego currently counts as being on.

        Walks left/right neighbour links from the tracked lane until the
        lateral offset falls inside a lane's width. While the membership
        lane equals the tracked lane, s is the tracked value exactly; on a
        neighbour it comes from projecting the cached pose ``_pose``.
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
        return lane_id, self._project_ego(lane_id)[0], d

    def _locate_ego(self):
        """Cache the ego's pose and membership for the current state; the
        predicates, the observation and the next step's BV update read it."""
        self._pose = self._ego_pose()
        self._projections = {}
        self._mem = self._ego_membership()

    def _project_ego(self, lane_id):
        """(s, d, dist) of the ego on ``lane_id``, projected once per state."""
        found = self._projections.get(lane_id)
        if found is None:
            x, y, _ = self._pose
            found = self._projections[lane_id] = self.net.lanes[lane_id].project(x, y)
        return found

    def _roll_ego_lane(self) -> bool:
        """Carry the ego across lane ends onto first successors. False when
        it would cross more lanes in one step than the network has, which
        on a cycle of successor links would never end; unless it collides,
        the step then ends off the road."""
        lane = self.net.lanes[self._ego_lane]
        crossings = len(self.net.lanes)
        while self._ego_s > lane.length and lane.successors:
            if not crossings:
                return False
            crossings -= 1
            self._ego_s -= lane.length
            self._ego_lane = lane.successors[0]
            lane = self.net.lanes[self._ego_lane]
        return True

    # -- BV state -----------------------------------------------------------

    def _sort(self):
        """Sort the BV columns by ``(lane, s, id)`` and refresh what the
        order decides: lane slices, next columns (``_next``) and gaps."""
        F = self._F
        F = self._F = F.take(np.lexsort((F[_RANK], F[_S], F[_LANE])), axis=1)
        # Lane code c occupies columns bounds[c]:bounds[c + 1].
        bounds = self._bounds = F[_LANE].searchsorted(self._codes).tolist()
        self._occupied = [(lane_id, lo, hi) for lane_id, lo, hi
                          in zip(self._lane_ids, bounds, bounds[1:]) if lo < hi]
        # A lane's tail is its own next column.
        tails = [hi - 1 for _, _, hi in self._occupied]
        nxt = self._next = np.arange(1, F.shape[1] + 1)
        nxt[tails] = tails
        self._next_key = F[_RANK].take(nxt)
        self._next_key[tails] = _NO_LEADER
        # -inf at a tail makes its pair gap +inf.
        self._mean_len = (F[_LEN].take(nxt) + F[_LEN]) / 2.0
        self._mean_len[tails] = -math.inf
        self._len = F[_LEN].tolist()
        self._refresh_gaps()

    def _refresh_gaps(self):
        """Recompute, from the current s, each column's distance ``_ds``
        and bumper gap ``_pair_gap`` to the next column (+inf for a lane's
        tail). The gaps are the contact test and, for a column not level
        with the next one, its gap to its BV leader. ``_touching`` lists
        the columns with a gap <= 0: the logged contacts, and the only
        columns that can be level with or behind the next one."""
        s = self._F[_S]
        self._s = s.tolist()  # for bisect within a lane's slice
        self._ds = s.take(self._next) - s
        self._pair_gap = self._ds - self._mean_len
        self._touching = (self._pair_gap <= 0.0).nonzero()[0].tolist()

    def _run(self, lane_id):
        """Column range ``(lo, hi)`` of the BVs on ``lane_id``."""
        c = self._code[lane_id]
        return self._bounds[c], self._bounds[c + 1]

    def _leaders(self, mem_lane, mem_s):
        """Leader key, leader speed and car-following gap of every column.

        The leader is the nearest same-lane vehicle strictly ahead, the ego
        (at ``mem_s`` on ``mem_lane``) included: the first column of the
        next equal-s group on the lane, unless the ego sits at or before
        it. Leader lookups do not cross lane boundaries, so a vehicle sees
        an empty road until its leader-to-be is on the same lane. The gap
        is the incrementally updated one while the leader is unchanged, the
        bumper gap to a new leader, +inf without one.
        """
        F = self._F
        s, v = F[_S], F[_V]
        # Column k's leader is its next column, none for a lane's tail
        # (which gets its own speed and a +inf gap).
        v_lead = v.take(self._next)
        key = self._next_key.copy()
        gap = np.maximum(self._pair_gap, _GAP_EPS)
        # A column level with the next one has that one's leader, the first
        # column of the next equal-s group, at its own gap.
        group_leader = {}
        for k in reversed(self._touching):
            if self._ds[k] != 0.0:
                continue
            j = group_leader[k] = group_leader.get(k + 1, k + 2)
            v_lead[k], key[k] = v_lead[k + 1], key[k + 1]
            if math.isnan(key[k]):
                v_lead[k], gap[k] = v[k], math.inf
            else:
                gap[k] = max((s[j] - s[k]) - (F[_LEN, j] + F[_LEN, k]) / 2.0, _GAP_EPS)

        lo, hi = self._run(mem_lane)
        ss = self._s
        k = bisect_left(ss, mem_s, lo, hi)
        if k > lo:
            # The last group behind the ego follows the ego.
            g = bisect_left(ss, ss[k - 1], lo, k)
            v_lead[g:k] = self._ego_vlong
            key[g:k] = _ego_key(self._code[mem_lane])
            for i in range(g, k):
                gap[i] = max((mem_s - ss[i]) - (self.ego_length + self._len[i]) / 2.0,
                             _GAP_EPS)

        np.copyto(gap, F[_GAP], where=key == F[_KEY])
        return key, v_lead, gap

    def _move_bvs(self, dt):
        """One car-following step for every BV, then lane ends and re-sort."""
        mem_lane, mem_s, _ = self._mem
        key, v_lead, gap = self._leaders(mem_lane, mem_s)
        F = self._F
        v = F[_V]
        _, v_next, gap_next = _kernels._follower_step(F[_THETA], v, v_lead, gap, dt)
        F[_S] += v * dt
        F[_V] = v_next
        F[_GAP] = np.where(gap_next > 0.0, gap_next, _GAP_EPS)
        F[_KEY] = key
        if self._advance_routes():
            self._sort()
            return
        # Lanes are unchanged: while every same-lane neighbour is still
        # strictly ahead, the order and everything derived from it hold,
        # so the lexsort and the gather of every row are skipped.
        self._refresh_gaps()
        if any(self._ds[k] <= 0.0 for k in self._touching):
            self._sort()

    def _advance_routes(self) -> bool:
        """Move BVs across lane ends and drop those that run off their
        route; True if any BV changed lane or left."""
        F = self._F
        crossing = (F[_S] > F[_END]).nonzero()[0]
        if not crossing.size:
            return False
        gone = []
        for i in crossing.tolist():
            rank = int(F[_RANK, i])
            route = self._routes[rank]
            lanes, pos = route
            s, end = float(F[_S, i]), float(F[_END, i])
            while s > end:
                if pos + 1 >= len(lanes):
                    gone.append(i)
                    del self._routes[rank]
                    break
                s -= end
                pos += 1
                end = self.net.lanes[lanes[pos]].length
            else:
                route[1] = pos
                F[_S, i], F[_END, i] = s, end
                F[_LANE, i] = self._code[lanes[pos]]
        if gone:
            self._F = np.delete(F, gone, axis=1)
        return True

    # -- spawning -----------------------------------------------------------

    def _spawn_due(self):
        """Spawn every pending BV whose departure is due and whose slot is
        free. Each lane a spawn is tried on gets one list of ``(s, rank, v,
        length)`` rows per call, built from its slice and sorted as it is;
        an accepted spawn is inserted into it, so the spawns of one call
        see each other. They join the state array together, with one
        re-sort."""
        if not self._pending:
            return
        mem_lane, mem_s, _ = self._mem
        still_pending = []
        columns = []
        lane_rows = {}
        for spec in self._pending:
            if spec.depart > self._time:
                still_pending.append(spec)
                continue
            route = self.scenario.demand.route_by_id(spec.route)
            lane_id = route.lanes[0]
            s = spec.depart_s
            rows = lane_rows.get(lane_id)
            if rows is None:
                lo, hi = self._run(lane_id)
                rows = lane_rows[lane_id] = list(zip(
                    self._s[lo:hi], self._F[_RANK, lo:hi].tolist(),
                    self._F[_V, lo:hi].tolist(), self._len[lo:hi]))
            ego_s = mem_s if mem_lane == lane_id else None
            if self._spawn_blocked(rows, s, spec.length, ego_s):
                still_pending.append(spec)
                continue
            v_lead = self._spawn_leader(rows, s, ego_s)
            v_des = spec.params.v_des
            v0 = v_des if v_lead is None else min(v_des, v_lead)
            if v0 < 0.0:  # behind a reversing ego; the Euler step floors speed too
                v0 = 0.0
            rank = self._rank[spec.id]
            columns.append((s, v0, spec.length, rank, math.inf, _NO_LEADER,
                            self._code[lane_id], self.net.lanes[lane_id].length,
                            self._n_spawned, *spec.params.law))
            self._n_spawned += 1
            self._routes[rank] = [route.lanes, 0]
            insort(rows, (s, rank, v0, spec.length))
        self._pending = still_pending
        if columns:
            self._F = np.concatenate((self._F, np.array(columns).T), axis=1)
            self._sort()

    def _spawn_blocked(self, rows, s, length, ego_s) -> bool:
        """True when a vehicle of ``rows`` or the ego (at ``ego_s``, None
        off this lane) is too close to a spawn of ``length`` at ``s``."""
        reach = (self._max_length + length) / 2.0 + _SPAWN_CLEARANCE + _WINDOW_SLACK
        i = bisect_left(rows, (s - reach,))
        j = bisect_right(rows, (s + reach, math.inf))
        for bs, _, _, blen in rows[i:j]:
            if abs(bs - s) < (blen + length) / 2.0 + _SPAWN_CLEARANCE:
                return True
        return (ego_s is not None
                and abs(ego_s - s) < (self.ego_length + length) / 2.0 + _SPAWN_CLEARANCE)

    def _spawn_leader(self, rows, s, ego_s):
        """Speed of the nearest vehicle ahead of a spawn at ``s``, or None;
        a BV wins a tie with the ego, the lowest id a tie between BVs."""
        j = bisect_right(rows, (s, math.inf))
        if ego_s is not None and ego_s > s and (j == len(rows) or ego_s < rows[j][0]):
            return self._ego_vlong
        return rows[j][2] if j < len(rows) else None

    def _log_bv_contacts(self):
        """Log each newly touching BV pair (rear, front) once per contact.

        Lanes are visited in the order of their earliest-spawned live BV,
        pairs within a lane from the back."""
        current = set()
        if self._touching:
            F = self._F
            first_spawn = {}
            for k in self._touching:
                c = int(F[_LANE, k])
                if c not in first_spawn:
                    lo, hi = self._bounds[c], self._bounds[c + 1]
                    first_spawn[c] = F[_SEQ, lo:hi].min()
            for k in sorted(self._touching, key=lambda k: first_spawn[int(F[_LANE, k])]):
                rear, front = (self._ids[int(r)] for r in F[_RANK, k:k + 2])
                pair = (rear, front)
                current.add(pair)
                if pair not in self._overlapping:
                    self.collisions_logged.append(
                        {"step": self._step_idx, "rear": rear, "front": front})
        self._overlapping = current

    # -- observation / termination predicates -----------------------------

    def check_collision(self) -> bool:
        """Ego overlap test: bumper gap <= 0 with lateral centres closer
        than the mean vehicle width."""
        if not self._live:
            raise EnvUsageError("check_collision() before reset()")
        mem_lane, mem_s, mem_d = self._mem
        x, y, _ = self._pose
        lat_limit = self.vehicle_width  # (w_ego + w_bv) / 2 with equal widths
        # The distance to a lane's centerline is at least the per-axis
        # distance to its box, so beyond this margin |lat| >= lat_limit.
        margin = lat_limit + _WINDOW_SLACK
        reach = (self.ego_length + self._max_length) / 2.0 + _WINDOW_SLACK
        for lane_id, lo, hi in self._occupied:
            if lane_id == mem_lane:
                s_ego, lat = mem_s, mem_d
            else:
                x0, y0, x1, y1 = self.net.lanes[lane_id]._box
                if x0 - x > margin or x - x1 > margin or y0 - y > margin or y - y1 > margin:
                    continue
                s_ego, lat, _ = self._project_ego(lane_id)
            if not abs(lat) < lat_limit:
                continue
            i = bisect_left(self._s, s_ego - reach, lo, hi)
            j = bisect_right(self._s, s_ego + reach, lo, hi)
            for bs, blen in zip(self._s[i:j], self._len[i:j]):
                if abs(s_ego - bs) - (self.ego_length + blen) / 2.0 <= 0.0:
                    return True
        return False

    def build_observation(self) -> np.ndarray:
        if not self._live:
            raise EnvUsageError("build_observation() before reset()")
        obs = np.zeros(self.observation_shape)
        mem_lane, mem_s, _ = self._mem
        ss = self._s
        found = []  # (slot, lane, column) of each present row
        for j, lane_id in enumerate(self._obs_lanes[mem_lane]):
            lo, hi = self._run(lane_id)
            if lo == hi:
                continue
            s_ref = mem_s if lane_id == mem_lane else self._project_ego(lane_id)[0]
            # Nearest BV strictly ahead and strictly behind s_ref; the
            # lowest id wins a tie in s.
            ahead = bisect_right(ss, s_ref, lo, hi)
            behind = bisect_left(ss, s_ref, lo, hi)
            lane = self.net.lanes[lane_id]
            if ahead < hi:
                found.append((2 * j, lane, ahead))
            if behind > lo:
                found.append((2 * j + 1, lane, bisect_left(ss, ss[behind - 1], lo, behind)))
        if not found:
            return obs
        ex, ey, eh = self._pose
        tx, ty = math.cos(eh), math.sin(eh)
        nx, ny = -ty, tx
        evx = self._ego_vlong * tx + self._ego_vlat * nx
        evy = self._ego_vlong * ty + self._ego_vlat * ny
        speeds = self._F[_V]
        for slot, lane, c in found:
            bv_v = float(speeds[c])
            bx, by, bh = lane.pose_at(ss[c], 0.0, extrapolate=True)
            bvx = bv_v * math.cos(bh)
            bvy = bv_v * math.sin(bh)
            dx, dy = bx - ex, by - ey
            obs[slot] = (1.0,
                         dx * tx + dy * ty,
                         dx * nx + dy * ny,
                         (bvx - evx) * tx + (bvy - evy) * ty,
                         (bvx - evx) * nx + (bvy - evy) * ny)
        return obs

    def current_info(self) -> dict:
        if not self._live:
            raise EnvUsageError("current_info() before reset()")
        x, y, heading = self._pose
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
        """One row per vehicle (ego first, then BVs by id): (step, id, x,
        y, heading, v).

        Appends the rows to the trace file, in one write, when tracing is
        enabled and returns them either way. A value that repeats the same
        vehicle's value in the previous frame (a heading along a straight
        segment, a coordinate along an axis-parallel lane) reuses that
        frame's text instead of another ``repr``.
        """
        if not self._live:
            raise EnvUsageError("render_frame() before reset()")
        step = self._step_idx
        x, y, heading = self._pose
        rows = [(step, "ego", x, y, heading, math.hypot(self._ego_vlong, self._ego_vlat))]
        F = self._F  # ranks are unique, so the sort is by rank alone
        for rank, c, s, v in sorted(zip(F[_RANK].tolist(), F[_LANE].tolist(),
                                        F[_S].tolist(), F[_V].tolist())):
            rows.append((step, self._ids[int(rank)],
                         *self._lanes[int(c)].pose_at(s, 0.0, extrapolate=True), v))
        if self._trace_fh is not None:
            # Equal nonzero floats have equal bits, so a value equal to the
            # same vehicle's value in the previous frame reuses its text;
            # +-0.0 (equal, but not the same text) and NaN (never equal)
            # always go through ``repr``.
            last, memo = self._trace_text, {}
            lines = []
            for step, vid, x, y, h, v in rows:
                px, py, ph, pv, tx, ty, th, tv = last.get(vid, _UNWRITTEN)
                memo[vid] = t = (x, y, h, v,
                                 tx if x == px and x else repr(x),
                                 ty if y == py and y else repr(y),
                                 th if h == ph and h else repr(h),
                                 tv if v == pv and v else repr(v))
                lines.append(f"{step},{vid},{t[4]},{t[5]},{t[6]},{t[7]}\n")
            self._trace_text = memo
            self._trace_fh.write("".join(lines))
            self._trace_fh.flush()
        return rows

    def episode_summary(self) -> dict:
        if not self._live:
            raise EnvUsageError("episode_summary() before reset()")
        x, y, _ = self._pose
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
        """id -> (lane, s, v, gap) of the live background vehicles, in
        spawn order.

        ``gap`` is the bumper gap to the current leader as used by the
        car-following update (+inf when leaderless).
        """
        if not self._live:
            raise EnvUsageError("vehicle_states() before reset()")
        return {self._ids[int(r)]: (self._lane_ids[int(c)], s, v, gap)
                for _, r, c, s, v, gap
                in sorted(zip(*self._F[[_SEQ, _RANK, _LANE, _S, _V, _GAP]].tolist()))}
