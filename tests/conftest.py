"""Shared fixtures, scenario builders and the acceptance summary hook."""

import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

import microtraffic
from microtraffic import (DemandSpec, Lane, ParamSet, RoadNetwork, Route,
                          Scenario)

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
