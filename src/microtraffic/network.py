"""Lane-level road networks, road-aligned coordinates and scenario loading.

Lanes are directed polyline centerlines with a width, successor links and
optional same-direction left/right neighbours. The road-aligned frame is
(s, d): arc length along the centerline and signed lateral offset, with d
positive to the left of the travel direction. Heading at a polyline vertex
is taken from the outgoing segment.

Each lane keeps per-segment rows of Python floats, built once: start
points, unit and segment vectors, arc lengths and headings
(``math.atan2``, never numpy's possibly SIMD-dispatched ``arctan2``), and
the bounding box of its centerline. ``Lane.pose_at`` and ``Lane.project``
read them and call no numpy: at about a microsecond per numpy call, the
dozen calls of an array projection cost more than the arithmetic of a few
dozen segments. A lane of n >= 9 segments is also cut into runs of
ceil(sqrt(n)) consecutive segments, each with a bounding circle, and a
projection scans the run nearest by its circle first, then only the runs
whose circle could still hold a nearer point: about 2 * sqrt(n) steps in
place of n, with every segment's arithmetic, and so every result, that of
a scan over all of them. Of equally near segments a projection returns the
first, whichever run it lies in.
Every vehicle, the ego and each background vehicle, is posed by
``Lane.pose_at``. A point is on the road when ``global_to_road`` finds a
lane holding it; ``is_off_road`` is that rule and nothing else.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (ConfigurationError, InputDomainError, NetworkError, SchemaError, checked,
                     read_json_object)

SCENARIO_KINDS = ("highway", "urban")
_SCENARIO_SUFFIX = ".scenario.json"
# Lanes of fewer segments are one run: one pass over them is as fast.
_RUNS_FROM = 9
# Coordinates up to this size keep every step of a projection finite.
_FAR = 1e100


@dataclass(frozen=True, eq=False)
class Lane:
    """A directed centerline polyline with a width; equality and hashing
    are by identity, as the centerline array defines no truth value."""

    id: str
    centerline: np.ndarray
    width: float
    successors: tuple = ()
    left: str | None = None
    right: str | None = None

    def __post_init__(self):
        try:
            pts = np.ascontiguousarray(self.centerline, dtype=np.float64)
        except (TypeError, ValueError, OverflowError):
            raise NetworkError(f"lane {self.id!r}: centerline must be numbers") from None
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise NetworkError(f"lane {self.id!r}: centerline must be (k, 2) with k >= 2")
        if not np.all(np.isfinite(pts)):
            raise NetworkError(f"lane {self.id!r}: centerline has non-finite points")
        # Far-apart points overflow here; the check below rejects them.
        with np.errstate(all="ignore"):
            seg = np.diff(pts, axis=0)
            seg_len = np.hypot(seg[:, 0], seg[:, 1])
            seg_len2 = seg_len * seg_len
        # project divides by the squared length, so a segment whose square
        # underflows to 0 counts as zero-length, and one whose square
        # overflows cannot be projected onto.
        if np.any(seg_len2 <= 0.0):
            raise NetworkError(f"lane {self.id!r}: centerline has a zero-length segment")
        if not np.all(np.isfinite(seg_len2)):
            raise NetworkError(
                f"lane {self.id!r}: centerline has a segment too long to project onto")
        width = checked(float, self.width, f"lane {self.id!r}: width", NetworkError,
                        low=0.0, strict=True)
        cum = np.concatenate(([0.0], np.cumsum(seg_len)))
        unit = (seg / seg_len[:, None]).T.tolist()
        object.__setattr__(self, "centerline", pts)
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "successors", tuple(self.successors))
        xs, ys = pts.T.tolist()
        object.__setattr__(self, "_box", (min(xs), min(ys), max(xs), max(ys)))
        # pose_at(s, d) at 0 <= s <= length lies within |d| of the centerline;
        # rounding moves project's distance by a few ulps of the coordinates
        # (~1e-12 m at km scale), far below 1e-6 m + 1e-9 * scale. So a pose
        # with |d| <= _held_d is on this lane.
        object.__setattr__(self, "length", float(cum[-1]))
        scale = max(map(abs, self._box)) + self.length
        object.__setattr__(self, "_held_d", width / 2.0 - (1e-6 + 1e-9 * scale))

        # Plain-float rows, one per segment. pose_at: start x, y, unit x, y,
        # start s, heading; segment i holds s in [cum[i], cum[i + 1]), the
        # first and last extend to -inf and +inf. project: start x, y,
        # segment x, y, squared length, start s, length, last segment first.
        cum_s = cum.tolist()
        starts = (xs[:-1], ys[:-1])
        object.__setattr__(self, "_inner_s", cum_s[1:-1])
        heading = [math.atan2(uy, ux) for ux, uy in zip(*unit)]
        object.__setattr__(self, "_pose_rows", list(zip(*starts, *unit, cum_s, heading)))
        rows = list(zip(*starts, *seg.T.tolist(), seg_len2.tolist(), cum_s, seg_len.tolist()))
        object.__setattr__(self, "_rows", rows[::-1])

        # Runs for project: (centre x, y, radius, rows) of ceil(sqrt(n))
        # consecutive segments. The circle about the middle of the run's
        # vertex box holds the vertices, so their hull and each segment;
        # the point a segment's arithmetic finds lies within a few ulps of
        # scale of it, and the radius itself is rounded. Both are far below
        # the pad 1e-6 + 1e-9 * scale (as for _held_d). A short lane, or
        # one past _FAR, has none: project scans all its rows at once.
        runs = []
        n = len(rows)
        if _RUNS_FROM <= n and scale <= _FAR:
            k = math.isqrt(n - 1) + 1
            for i in range(0, n, k):
                vx, vy = xs[i:i + k + 1], ys[i:i + k + 1]
                cx, cy = (min(vx) + max(vx)) / 2.0, (min(vy) + max(vy)) / 2.0
                r = max(math.hypot(px - cx, py - cy) for px, py in zip(vx, vy))
                runs.append((cx, cy, r + 1e-6 + 1e-9 * scale, rows[i:i + k][::-1]))
        object.__setattr__(self, "_runs", runs)

    def pose_at(self, s: float, d: float = 0.0, extrapolate: bool = False):
        """Global (x, y, heading) at arc length s, offset d to the left.

        With ``extrapolate=True`` values of s outside [0, length] follow
        the first/last segment's straight continuation.
        """
        if not extrapolate and not -1e-9 <= s <= self.length + 1e-9:
            raise InputDomainError(
                f"lane {self.id!r}: s={s!r} outside [0, {self.length}]"
            )
        x0, y0, ux, uy, s0, heading = self._pose_rows[bisect_right(self._inner_s, s)]
        local = s - s0
        return float(x0 + ux * local - uy * d), float(y0 + uy * local + ux * d), heading

    def project(self, x: float, y: float):
        """(s, d, dist) of the closest centerline point to (x, y).

        ``dist`` is the Euclidean distance to the clamped projection and
        ``d`` carries its sign (left of travel positive). s is clamped to
        [0, length], so points beyond the ends project onto the endpoints
        and their longitudinal overshoot shows up in ``dist``. Of equally
        near segments the first wins; a NaN distance counts as nearest.
        """
        x, y = float(x), float(y)
        runs = self._runs
        if runs and abs(x) + abs(y) <= _FAR:
            # Best first: the run whose circle is nearest, then each run
            # whose circle's lower bound |p - c| - r on its distance does
            # not exceed the nearest distance found, plus the pad 1e-9 *
            # (|x| + |y|). That and the radius pad cover the rounding of
            # the bound, of the square root and of the segments' distances
            # (a few ulps of |x| + |y| + scale), so a skipped run holds no
            # segment as near as the best. Below _FAR no distance is inf or
            # NaN. A tie between runs goes to the lower, so to the first
            # segment.
            pad = 1e-9 * (abs(x) + abs(y))
            lows = [math.hypot(x - cx, y - cy) - r for cx, cy, r, _ in runs]
            first = at = lows.index(min(lows))
            hit = _nearest(runs[at][3], x, y)
            bound = math.sqrt(hit[0]) + pad
            for k, low in enumerate(lows):
                if low <= bound and k != first:
                    found = _nearest(runs[k][3], x, y)
                    if found[0] < hit[0] or found[0] == hit[0] and k < at:
                        hit, at = found, k
                        bound = math.sqrt(hit[0]) + pad
        else:
            hit = _nearest(self._rows, x, y)
        d2, t, dx, dy, (_, _, sx, sy, _, s0, length) = hit
        dist = math.sqrt(d2)
        d = dist if sx * dy - sy * dx >= 0.0 else -dist
        return s0 + t * length, d, dist


def _nearest(rows, x, y):
    """(d2, t, dx, dy, row) of the segment nearest to (x, y) among ``rows``,
    given last segment first: the first of equally near ones, or the first
    whose distance is NaN."""
    best = nan = None
    best_d2 = math.inf
    # The IEEE operations of a numpy pass over the segments, in the same
    # order. Backwards, so that <= leaves the first of equal distances (all
    # +inf included) and the last NaN seen is the first, as with argmin.
    for row in rows:
        x0, y0, sx, sy, l2, _, _ = row
        t = ((x - x0) * sx + (y - y0) * sy) / l2
        if t < 0.0:
            t = 0.0
        elif t > 1.0:
            t = 1.0
        dx = x - (x0 + t * sx)
        dy = y - (y0 + t * sy)
        d2 = dx * dx + dy * dy
        if d2 <= best_d2:
            best_d2 = d2
            best = (d2, t, dx, dy, row)
        elif d2 != d2:
            nan = (d2, t, dx, dy, row)
    return nan or best


@dataclass(frozen=True)
class RoadCoord:
    """Road-aligned coordinate: lane, arc length s, lateral offset d."""

    lane_id: str
    s: float
    d: float = 0.0


class RoadNetwork:
    """Validated set of lanes with source/sink annotations."""

    def __init__(self, lanes, sources=(), sinks=()):
        self.lanes: dict[str, Lane] = {}
        for lane in lanes:
            if lane.id in self.lanes:
                raise NetworkError(f"duplicate lane id {lane.id!r}")
            self.lanes[lane.id] = lane
        if not self.lanes:
            raise NetworkError("network has no lanes")
        self.sources = frozenset(sources)
        self.sinks = frozenset(sinks)
        for lane in self.lanes.values():
            for ref in lane.successors:
                if ref not in self.lanes:
                    raise NetworkError(
                        f"lane {lane.id!r}: successor {ref!r} does not exist"
                    )
            for attr in ("left", "right"):
                ref = getattr(lane, attr)
                if ref is not None and ref not in self.lanes:
                    raise NetworkError(
                        f"lane {lane.id!r}: {attr} neighbour {ref!r} does not exist"
                    )
        for name, refs in (("source", self.sources), ("sink", self.sinks)):
            for ref in refs:
                if ref not in self.lanes:
                    raise NetworkError(f"{name} {ref!r} does not exist")
        self._sorted_ids = sorted(self.lanes)

    def __contains__(self, lane_id) -> bool:
        return lane_id in self.lanes

    def shortest_path(self, src: str, dst: str):
        """Fewest-lanes path src -> dst over successor links, or None."""
        for ref in (src, dst):
            if ref not in self.lanes:
                raise NetworkError(f"lane {ref!r} does not exist")
        if src == dst:
            return [src]
        prev = {src: None}
        frontier = [src]
        while frontier:
            nxt = []
            for lane_id in frontier:
                for succ in self.lanes[lane_id].successors:
                    if succ in prev:
                        continue
                    prev[succ] = lane_id
                    if succ == dst:
                        path = [dst]
                        while prev[path[-1]] is not None:
                            path.append(prev[path[-1]])
                        return path[::-1]
                    nxt.append(succ)
            frontier = nxt
        return None

    def lane_group(self, lane_id: str):
        """Same-direction neighbour run containing ``lane_id``, left to right."""
        if lane_id not in self.lanes:
            raise NetworkError(f"lane {lane_id!r} does not exist")
        seen = {lane_id}
        cur = lane_id
        while True:
            left = self.lanes[cur].left
            if left is None or left in seen:
                break
            seen.add(left)
            cur = left
        group = [cur]
        while True:
            right = self.lanes[group[-1]].right
            if right is None or right in group:
                break
            group.append(right)
        return group


def load_network(path) -> RoadNetwork:
    """Load a network JSON file: {lanes: [...], sources: [...], sinks: [...]}."""
    path = Path(path)
    expected = "expected an object with a 'lanes' list"
    payload = read_json_object(path, SchemaError, expected)
    if "lanes" not in payload:
        raise SchemaError(f"{path}: {expected}")
    try:
        lanes = [Lane(
            id=entry["id"],
            centerline=entry["centerline"],
            width=entry["width"],
            successors=tuple(entry.get("successors", ())),
            left=entry.get("left"),
            right=entry.get("right"),
        ) for entry in payload["lanes"]]
        return RoadNetwork(lanes, payload.get("sources", ()), payload.get("sinks", ()))
    except KeyError as exc:
        raise SchemaError(f"{path}: lane entry missing key {exc}") from None
    except TypeError as exc:
        raise SchemaError(f"{path}: malformed network entry ({exc})") from None
    except NetworkError as exc:
        raise NetworkError(f"{path}: {exc}") from None


def road_to_global(net: RoadNetwork, rc: RoadCoord):
    """Map a road-aligned coordinate to global (x, y, heading)."""
    if rc.lane_id not in net.lanes:
        raise NetworkError(f"lane {rc.lane_id!r} does not exist")
    return net.lanes[rc.lane_id].pose_at(rc.s, rc.d)


def global_to_road(net: RoadNetwork, x: float, y: float) -> RoadCoord | None:
    """Road-aligned coordinate on the nearest qualifying lane, else None.

    A lane qualifies when the distance to its centerline is at most
    width/2; among qualifying lanes the smallest distance wins, with ties
    broken by lane id order.
    """
    best = None
    best_dist = math.inf
    for lane_id in net._sorted_ids:
        lane = net.lanes[lane_id]
        s, d, dist = lane.project(x, y)
        if dist <= lane.width / 2.0 and dist < best_dist:
            best = RoadCoord(lane_id, s, d)
            best_dist = dist
    return best


def is_off_road(net: RoadNetwork, x: float, y: float) -> bool:
    """True when (x, y) is not within any lane's width (closed boundary)."""
    return global_to_road(net, x, y) is None


@dataclass(frozen=True)
class Scenario:
    """A runnable episode definition: network, demand, sim settings, ego spawn."""

    kind: str
    network: RoadNetwork
    demand: "DemandSpec"
    dt: float
    max_steps: int
    seed: int
    ego_lane: str
    ego_speed: float = 0.0
    ego_start_s: float = 0.0
    source_path: str | None = None

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise SchemaError(f"scenario kind must be one of {SCENARIO_KINDS}, got {self.kind!r}")
        for name, kind, low, strict in (("dt", float, 0.0, True),
                                        ("max_steps", int, 1, False),
                                        ("seed", int, 0, False),
                                        ("ego_speed", float, 0.0, False),
                                        ("ego_start_s", float, 0.0, False)):
            value = checked(kind, getattr(self, name), f"scenario {name}", SchemaError,
                            low=low, strict=strict)
            object.__setattr__(self, name, value)
        if self.ego_lane not in self.network.lanes:
            raise SchemaError(f"ego lane {self.ego_lane!r} does not exist")
        lane = self.network.lanes[self.ego_lane]
        if self.ego_start_s > lane.length:
            raise SchemaError(
                f"ego_start_s={self.ego_start_s!r} outside [0, {lane.length}] on {self.ego_lane!r}"
            )
        self.demand.validate_against(self.network)


def _bundled_library() -> Path:
    from importlib.resources import files

    return Path(str(files("microtraffic").joinpath("scenarios")))


def _load_scenario_file(path: Path) -> Scenario:
    from .population import DemandSpec, load_demand

    payload = read_json_object(path, SchemaError, "expected a scenario object")
    for key in ("kind", "network_file", "dt", "max_steps", "seed"):
        if key not in payload:
            raise SchemaError(f"{path}: missing key {key!r}")
    base = path.parent
    try:
        network = load_network(base / payload["network_file"])
        demand_file = payload.get("demand_file")
        demand = load_demand(base / demand_file) if demand_file else DemandSpec((), ())
        ego_lane = payload.get("ego_lane")
        if ego_lane is None:
            candidates = sorted(network.sources) or sorted(network.lanes)
            ego_lane = candidates[0]
        try:
            return Scenario(
                kind=payload["kind"],
                network=network,
                demand=demand,
                dt=payload["dt"],
                max_steps=payload["max_steps"],
                seed=payload["seed"],
                ego_lane=ego_lane,
                ego_speed=payload.get("ego_speed", 0.0),
                ego_start_s=payload.get("ego_start_s", 0.0),
                source_path=str(path),
            )
        except SchemaError as exc:
            # The network and demand errors above already name their files.
            raise SchemaError(f"{path}: {exc}") from None
    except TypeError as exc:
        raise SchemaError(f"{path}: malformed scenario ({exc})") from None


def list_scenarios(kind: str | None = None, library=None):
    """Paths of scenario config files in the library, sorted by name."""
    library = Path(library) if library is not None else _bundled_library()
    out = []
    for p in sorted(library.glob(f"*{_SCENARIO_SUFFIX}")):
        if kind is not None:
            try:
                if read_json_object(p, SchemaError, "").get("kind") != kind:
                    continue
            except SchemaError:
                continue
        out.append(p)
    return out


def load_scenario(source, rng: np.random.Generator | None = None,
                  library=None) -> Scenario:
    """Load a scenario from an explicit path or pick one of a kind.

    ``source`` is either a path to a scenario config JSON or a kind name
    ("highway"/"urban"), in which case one matching bundled (or ``library``)
    scenario is chosen uniformly with ``rng``.
    """
    path = Path(source)
    if path.is_file():
        return _load_scenario_file(path)
    if str(source) in SCENARIO_KINDS:
        candidates = list_scenarios(str(source), library=library)
        if not candidates:
            raise ConfigurationError(f"no scenarios of kind {source!r} in library")
        rng = np.random.default_rng() if rng is None else rng
        pick = candidates[int(rng.integers(len(candidates)))]
        return _load_scenario_file(pick)
    raise ConfigurationError(
        f"{source!r} is neither a scenario file nor one of {SCENARIO_KINDS}"
    )
