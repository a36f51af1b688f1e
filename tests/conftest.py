"""Shared fixtures, scenario builders and the acceptance summary hook."""

import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

import microtraffic
from microtraffic import (PARAM_NAMES, Action, ConfigurationError, DemandSpec, FollowingState,
                          InputDomainError, Lane, ParamSet, RoadNetwork, Route, Scenario,
                          idm_acceleration)
from microtraffic.population import DEFAULT_VEHICLE_LENGTH

#: Ground-truth driver parameters used across recovery and rollout tests.
THETA_STAR = ParamSet(a_max=3.0, a_comf=5.0, v_des=35.0, d_min=10.0,
                      T=2.0, delta=4.0)

ACCEPTANCE_LABELS = {
    1: "posterior recovers the generating parameters",
    2: "sampler matches analytic Gaussian moments",
    3: "discrete target frequencies match masses",
    4: "histogram sampling fidelity",
    5: "car-following equilibrium convergence",
    6: "environment matches model-core rollout bit-for-bit",
    7: "seeded CLI runs are byte-identical",
    8: "observation shape and termination thresholds",
    9: "shipped default histograms validate",
}


@pytest.fixture
def theta_star():
    return THETA_STAR


def straight_network(n_lanes=1, length=3000.0, width=3.5):
    """Parallel straight lanes along +x; lane_0 is leftmost (largest y)."""
    ids = [f"lane_{i}" for i in range(n_lanes)]
    lanes = []
    for i, lane_id in enumerate(ids):
        y = -width * i
        lanes.append(Lane(
            lane_id, [[0.0, y], [length, y]], width,
            left=ids[i - 1] if i > 0 else None,
            right=ids[i + 1] if i + 1 < n_lanes else None,
        ))
    return RoadNetwork(lanes, sources=ids, sinks=ids)


def straight_scenario(vehicles=(), n_lanes=1, length=3000.0, width=3.5,
                      dt=0.1, max_steps=500, ego_lane="lane_0",
                      ego_speed=0.0, ego_start_s=0.0, routes=None):
    """Scenario on parallel straight lanes with one single-lane route each."""
    net = straight_network(n_lanes, length, width)
    if routes is None:
        routes = {f"r{i}": (f"lane_{i}",) for i in range(n_lanes)}
    demand = DemandSpec(
        tuple(Route(rid, lanes) for rid, lanes in sorted(routes.items())),
        tuple(vehicles),
    )
    return Scenario(kind="highway", network=net, demand=demand, dt=dt,
                    max_steps=max_steps, seed=0, ego_lane=ego_lane,
                    ego_speed=ego_speed, ego_start_s=ego_start_s)


def write_scenario_files(dirpath, n_lanes=1, length=3000.0, width=3.5,
                         dt=0.1, max_steps=100, ego_lane="lane_0",
                         ego_speed=0.0, ego_start_s=0.0, vehicles=()):
    """Write network/demand/scenario JSON files; returns the scenario path.

    ``vehicles`` holds dicts with at least id/route/depart/params keys in
    the demand-file schema; routes are one per lane, named r0..r{n-1}.
    """
    ids = [f"lane_{i}" for i in range(n_lanes)]
    lanes = []
    for i, lane_id in enumerate(ids):
        y = -width * i
        lanes.append({
            "id": lane_id,
            "centerline": [[0.0, y], [length, y]],
            "width": width,
            "left": ids[i - 1] if i > 0 else None,
            "right": ids[i + 1] if i + 1 < n_lanes else None,
        })
    (dirpath / "net.json").write_text(json.dumps(
        {"lanes": lanes, "sources": ids, "sinks": ids}))
    (dirpath / "demand.json").write_text(json.dumps({
        "routes": [{"id": f"r{i}", "lanes": [ids[i]]} for i in range(n_lanes)],
        "vehicles": list(vehicles),
    }))
    scenario = {
        "kind": "highway",
        "network_file": "net.json",
        "demand_file": "demand.json",
        "dt": dt,
        "max_steps": max_steps,
        "seed": 0,
        "ego_lane": ego_lane,
        "ego_speed": ego_speed,
        "ego_start_s": ego_start_s,
    }
    path = dirpath / "case.scenario.json"
    path.write_text(json.dumps(scenario))
    return path


def equilibrium_gap(p, v):
    """Bisection root of the acceleration law at speed ``v``, zero closing.

    Independent of package code: evaluates the model formula directly.
    """
    def accel(gap):
        d_des = p.d_min + v * p.T
        return p.a_max * (1.0 - (v / p.v_des) ** p.delta - (d_des / gap) ** 2)

    lo, hi = 1e-6, 1e6
    assert accel(lo) < 0.0 < accel(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if accel(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def idm_accel_formula(p, v, delta_v, gap):
    """Scalar evaluation of the acceleration law, independent of the engine."""
    d_des = p.d_min + v * p.T + v * delta_v / (2.0 * math.sqrt(p.a_max * p.a_comf))
    d_des = max(d_des, 0.0)
    interaction = 0.0 if math.isinf(gap) else (d_des / gap) ** 2
    return p.a_max * (1.0 - (v / p.v_des) ** p.delta - interaction)


def follower_step(a_max, a_comf, v_des, d_min, T, delta, v, v_lead, gap, dt):
    """One forward-Euler step of a follower behind a leader, written out
    term by term as the package's scalar law and Euler step compute it:
    the reference its rollout and batched step must match bit for bit.

    Positions advance with the speeds held at the start of the step, so the
    gap update uses the pre-step relative speed. Speed is floored at zero.
    Returns (accel at the pre-step state, next speed, next gap).
    """
    d_des = d_min + v * T + v * (v - v_lead) / (2.0 * math.sqrt(a_max * a_comf))
    if d_des < 0.0:
        d_des = 0.0
    q = d_des / gap
    a = a_max * (1.0 - (v / v_des) ** delta - q * q)
    v_next = v + a * dt
    if v_next < 0.0:
        v_next = 0.0
    return a, v_next, gap + (v_lead - v) * dt


def project_reference(lane, x, y):
    """``Lane.project`` as first written: the reference the package's
    projection must match bit for bit. (s, d, dist) of the closest
    centerline point to (x, y); s is clamped to [0, length]."""
    seg = np.diff(lane.centerline, axis=0)
    seg_len = np.hypot(seg[:, 0], seg[:, 1])
    cum_s = np.concatenate(([0.0], np.cumsum(seg_len)))
    p = np.array([x, y], dtype=np.float64)
    w = p - lane.centerline[:-1]
    t = np.einsum("ij,ij->i", w, seg) / (seg_len ** 2)
    t = np.clip(t, 0.0, 1.0)
    proj = lane.centerline[:-1] + t[:, None] * seg
    diff = p - proj
    dist2 = np.einsum("ij,ij->i", diff, diff)
    i = int(np.argmin(dist2))
    dist = math.sqrt(float(dist2[i]))
    cross = seg[i, 0] * diff[i, 1] - seg[i, 1] * diff[i, 0]
    d = dist if cross >= 0.0 else -dist
    s = float(cum_s[i] + t[i] * seg_len[i])
    return s, d, dist


def pose_at_reference(lane, s, d=0.0):
    """``Lane.pose_at`` as written with numpy scalars: the reference the
    package's pose must match bit for bit. Global (x, y, heading) at arc
    length s, offset d, extrapolated past either end."""
    seg = np.diff(lane.centerline, axis=0)
    seg_len = np.hypot(seg[:, 0], seg[:, 1])
    cum_s = np.concatenate(([0.0], np.cumsum(seg_len)))
    unit = seg / seg_len[:, None]
    i = int(cum_s[1:-1].searchsorted(s, side="right"))
    ux, uy = unit[i]
    local = s - cum_s[i]
    x = lane.centerline[i, 0] + ux * local - uy * d
    y = lane.centerline[i, 1] + uy * local + ux * d
    return float(x), float(y), math.atan2(uy, ux)


def sample_from_histogram_reference(h, rng):
    """``sample_from_histogram`` as first written, summing and accumulating
    the masses on every draw: the reference the package's sampler must
    match bit for bit, in its values and in the generator state it leaves."""
    total = float(h.mass.sum())
    if total <= 0.0:
        raise InputDomainError("histogram has no mass to sample from")
    cum = np.cumsum(h.mass)
    idx = int(np.searchsorted(cum, rng.random() * total, side="right"))
    idx = min(idx, h.n_bins - 1)
    lo = float(h.lo[idx])
    hi = float(h.hi[idx])
    v = lo + rng.random() * (hi - lo)
    if v >= hi:  # guard the right-open bin against rounding
        v = math.nextafter(hi, lo)
    return float(v)


def sample_param_set_reference(histograms, rng):
    """``sample_param_set`` as first written: one reference draw per
    parameter, in canonical order, nudged off a zero edge."""
    values = {}
    for name in PARAM_NAMES:
        h = histograms.get(name)
        if h is None:
            raise ConfigurationError(f"missing histogram for parameter {name!r}")
        v = sample_from_histogram_reference(h, rng)
        if v <= 0.0:
            v = math.nextafter(0.0, 1.0)
        values[name] = v
    return ParamSet(**values)


class IdmEgoPolicyReference:
    """``cli.BuiltinIdmEgoPolicy`` as first written, through ``FollowingState``
    and ``idm_acceleration`` on every step: the reference the policy's
    actions, speeds and errors must match."""

    def __init__(self, params, v0, dt, half_lane_width):
        self.params = params
        self.dt = float(dt)
        self.half_width = float(half_lane_width)
        self._v = float(v0)

    def act(self, obs):
        leader = None
        for row in np.asarray(obs)[0::2].tolist():
            if row[0] != 1.0 or row[1] <= 0.0 or abs(row[2]) >= self.half_width:
                continue
            if leader is None or row[1] < leader[1]:
                leader = row
        if leader is None:
            state = FollowingState(v=max(self._v, 0.0), delta_v=0.0, d_front=math.inf)
        else:
            gap = max(leader[1] - DEFAULT_VEHICLE_LENGTH, 1e-3)
            state = FollowingState(v=max(self._v, 0.0), delta_v=-leader[3], d_front=gap)
        a = idm_acceleration(self.params, state)
        self._v += a * self.dt
        return Action(a, 0.0)


def rollout_reference(theta, lead_v, v0, gap0, dt):
    """A per-step loop of ``follower_step`` calls: sample k is the state
    after k steps plus the acceleration at that state; stops early when
    the gap collapses before the horizon. Returns (samples recorded,
    collapsed flag, rows speed/gap/accel)."""
    n = len(lead_v)
    out = np.empty((3, n))
    v = v0
    gap = gap0
    for k in range(n):
        out[0, k] = v
        out[1, k] = gap
        a, v, gap = follower_step(*theta, v, lead_v[k], gap, dt)
        out[2, k] = a
        if gap <= 0.0 and k + 1 < n:
            return k + 1, True, out[:, :k + 1]
    return n, False, out


def chain_csv_reference(chain, path):
    """The row-by-row chain writer: every row turns its floats into text
    with ``repr`` and is written on its own. ``Chain.to_csv`` must write
    the same bytes."""
    rows = zip(chain.iterations.tolist(), chain.samples,
               chain.log_targets.tolist(), chain.accepted.tolist())
    with open(path, "w", newline="") as fh:
        fh.write("iter," + ",".join(chain.param_names) + ",log_target,accepted\n")
        for it, theta, logp, accepted in rows:
            fh.write(f"{it},{','.join(map(repr, theta.tolist()))},{logp!r},"
                     f"{int(accepted)}\n")


def dispatch_disabled_env(targets):
    """Environment for a child Python with numpy's dispatch ``targets``
    switched off. The child imports ``microtraffic`` from where this process
    did, so it need not be installed."""
    env = dict(os.environ)
    env.pop("NPY_ENABLE_CPU_FEATURES", None)
    env["NPY_DISABLE_CPU_FEATURES"] = " ".join(targets)
    src = str(Path(microtraffic.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def enabled_dispatch_targets():
    """numpy's SIMD dispatch targets that this CPU enables, e.g. X86_V3."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    enabled = umath.__cpu_features__
    return [t for t in getattr(umath, "__cpu_dispatch__", ()) if enabled.get(t)]


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "acceptance(n): marks a test as one of the numbered acceptance checks")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker is not None:
        report.acceptance_n = marker.args[0]


def pytest_terminal_summary(terminalreporter):
    status = {}
    for reports in terminalreporter.stats.values():
        for report in reports:
            n = getattr(report, "acceptance_n", None)
            if n is None:
                continue
            if report.when == "call" and report.passed:
                status.setdefault(n, True)
            elif getattr(report, "failed", False) or getattr(report, "skipped", False):
                status[n] = False
    if not status:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for n in sorted(status):
        verdict = "PASS" if status[n] else "FAIL"
        terminalreporter.write_line(
            f"ACCEPTANCE {n}: {verdict} - {ACCEPTANCE_LABELS.get(n, '')}")
