"""Regenerate the bundled scenario data under src/microtraffic/scenarios/.

Everything here is deterministic, so rerunning the script reproduces the
committed files byte for byte. It imports the package from the checkout's
own ``src/``, so it runs from a plain checkout, without an install:

    python tools/gen_scenarios.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from microtraffic import (Histogram, build_demand, default_histograms,  # noqa: E402
                          load_network, save_demand, save_histograms)

OUT = SRC / "microtraffic" / "scenarios"

HIGHWAY_LANE_WIDTH = 3.5
URBAN_LANE_WIDTH = 3.0


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _lane(lane_id, centerline, width, successors=(), left=None, right=None):
    return {
        "id": lane_id,
        "centerline": [[float(x), float(y)] for x, y in centerline],
        "width": width,
        "successors": list(successors),
        "left": left,
        "right": right,
    }


def highway_plain() -> dict:
    """Three parallel straight lanes, 3 km, lane_0 leftmost."""
    lanes = []
    offsets = {"lane_0": HIGHWAY_LANE_WIDTH, "lane_1": 0.0, "lane_2": -HIGHWAY_LANE_WIDTH}
    neighbours = {
        "lane_0": (None, "lane_1"),
        "lane_1": ("lane_0", "lane_2"),
        "lane_2": ("lane_1", None),
    }
    for lane_id, y in offsets.items():
        left, right = neighbours[lane_id]
        lanes.append(_lane(lane_id, [(0.0, y), (3000.0, y)],
                           HIGHWAY_LANE_WIDTH, left=left, right=right))
    ids = list(offsets)
    return {"lanes": lanes, "sources": ids, "sinks": ids}


def highway_curve() -> dict:
    """Three lanes on a gentle left-hand arc (centre radius 1500 m, 2 km)."""
    r_centre = 1500.0
    arc_len = 2000.0
    phi_max = arc_len / r_centre
    radii = {"lane_0": r_centre - HIGHWAY_LANE_WIDTH,
             "lane_1": r_centre,
             "lane_2": r_centre + HIGHWAY_LANE_WIDTH}
    neighbours = {
        "lane_0": (None, "lane_1"),
        "lane_1": ("lane_0", "lane_2"),
        "lane_2": ("lane_1", None),
    }
    lanes = []
    phis = np.linspace(0.0, phi_max, 81)
    for lane_id, r in radii.items():
        pts = [(r * math.sin(p), r_centre - r * math.cos(p)) for p in phis]
        left, right = neighbours[lane_id]
        lanes.append(_lane(lane_id, pts, HIGHWAY_LANE_WIDTH, left=left, right=right))
    ids = list(radii)
    return {"lanes": lanes, "sources": ids, "sinks": ids}


def _grid(n: int, spacing: float) -> dict:
    """n x n node grid with one lane per direction on every edge.

    Each direction's centerline is offset half a width to the right of
    travel, so opposing lanes sit side by side instead of on top of each
    other.
    """
    def node(i, j):
        return (spacing * i, spacing * j)

    def lane_id(a, b):
        return f"e{a[0]}{a[1]}_{b[0]}{b[1]}"

    def centerline(a, b):
        ax, ay = node(*a)
        bx, by = node(*b)
        length = math.hypot(bx - ax, by - ay)
        rx, ry = (by - ay) / length, -(bx - ax) / length
        off = URBAN_LANE_WIDTH / 2.0
        return [(ax + rx * off, ay + ry * off), (bx + rx * off, by + ry * off)]

    pairs = []
    for i in range(n):
        for j in range(n):
            if i + 1 < n:
                pairs.append(((i, j), (i + 1, j)))
            if j + 1 < n:
                pairs.append(((i, j), (i, j + 1)))
    directed = [(a, b) for a, b in pairs] + [(b, a) for a, b in pairs]
    starts_at = {}
    for a, b in directed:
        starts_at.setdefault(a, []).append((a, b))

    def boundary(ij):
        return ij[0] in (0, n - 1) or ij[1] in (0, n - 1)

    lanes = []
    for a, b in directed:
        succ = sorted(lane_id(b2, c) for b2, c in starts_at.get(b, ()) if c != a)
        lanes.append(_lane(lane_id(a, b), centerline(a, b),
                           URBAN_LANE_WIDTH, successors=succ))
    sources = sorted(lane_id(a, b) for a, b in directed if boundary(a))
    sinks = sorted(lane_id(a, b) for a, b in directed if boundary(b))
    lanes.sort(key=lambda l: l["id"])
    return {"lanes": lanes, "sources": sources, "sinks": sinks}


def default_histogram_files() -> None:
    def single(lo, hi):
        return Histogram([lo], [hi], [1.0])

    def around(mean, rel=0.025):
        return single(mean * (1 - rel), mean * (1 + rel))

    highway = {
        "a_max": around(1.2),
        "a_comf": around(2.0),
        "v_des": around(29.7),
        "d_min": around(63.9),
        "T": around(2.0),
        "delta": around(4.0),
    }
    urban = {
        "a_max": around(1.2),
        "a_comf": around(2.0),
        "v_des": Histogram([17.0, 19.0], [19.0, 21.0], [0.5, 0.5]),
        "d_min": single(15.0, 45.0),
        "T": around(2.0),
        "delta": around(4.0),
    }
    save_histograms(highway, OUT / "defaults_highway.json")
    save_histograms(urban, OUT / "defaults_urban.json")


def scenario_entry(name, kind, dt, max_steps, ego_lane, ego_speed, ego_start_s):
    return {
        "kind": kind,
        "network_file": f"{name}.network.json",
        "demand_file": f"{name}.demand.json",
        "dt": dt,
        "max_steps": max_steps,
        "seed": 0,
        "ego_lane": ego_lane,
        "ego_speed": ego_speed,
        "ego_start_s": ego_start_s,
    }


def main() -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    default_histogram_files()

    networks = {
        "highway_plain": highway_plain(),
        "highway_curve": highway_curve(),
        "urban_grid": _grid(3, 150.0),
        "urban_block": _grid(2, 120.0),
    }
    demand_settings = {
        "highway_plain": ("highway", 12, 3.0, 3, 101),
        "highway_curve": ("highway", 12, 3.0, 3, 102),
        "urban_grid": ("urban", 10, 4.0, 4, 103),
        "urban_block": ("urban", 8, 4.0, 4, 104),
    }
    scenarios = {
        "highway_plain": scenario_entry("highway_plain", "highway", 0.1, 500,
                                        "lane_1", 25.0, 50.0),
        "highway_curve": scenario_entry("highway_curve", "highway", 0.1, 500,
                                        "lane_1", 22.0, 50.0),
        "urban_grid": scenario_entry("urban_grid", "urban", 0.1, 400,
                                     "e00_10", 8.0, 20.0),
        "urban_block": scenario_entry("urban_block", "urban", 0.1, 400,
                                      "e00_10", 8.0, 20.0),
    }

    for name, payload in networks.items():
        _write_json(OUT / f"{name}.network.json", payload)
        kind, n_veh, headway, n_routes, seed = demand_settings[name]
        net = load_network(OUT / f"{name}.network.json")
        demand = build_demand(net, default_histograms(kind), n_veh,
                              np.random.default_rng(seed),
                              mean_headway=headway, n_routes=n_routes)
        save_demand(demand, OUT / f"{name}.demand.json")
        _write_json(OUT / f"{name}.scenario.json", scenarios[name])
    print(f"wrote scenario data to {OUT}")


if __name__ == "__main__":
    main()
