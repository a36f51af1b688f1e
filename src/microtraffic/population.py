"""Per-vehicle parameter sampling and traffic demand generation.

Vehicle parameter sets are drawn coordinate-wise from marginal histograms
(bin chosen by mass, value uniform within the bin). A draw reads the table
each ``Histogram`` builds once (total mass, cumulative masses and bin edges
as Python floats): one ``bisect_right`` and float arithmetic. Demand couples
those draws with random source-to-sink routes and exponential departure
headways.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (ConfigurationError, GenerationError, InputDomainError, SchemaError, checked,
                     read_json_object)
from .histogram import Histogram, load_histograms
from .idm import PARAM_NAMES, ParamSet
from .network import SCENARIO_KINDS, RoadNetwork, _bundled_library

DEFAULT_VEHICLE_LENGTH = 5.0
DEFAULT_MEAN_HEADWAY = 4.0
_ROUTE_RETRIES = 100
_TINY = math.nextafter(0.0, 1.0)


def _draw(table, u_bin: float, u_in: float) -> float:
    """The value that uniforms ``u_bin`` and ``u_in`` pick from a histogram's table."""
    total, cum, bins = table
    lo, hi = bins[bisect_right(cum, u_bin * total)]
    v = lo + u_in * (hi - lo)
    return v if v < hi else math.nextafter(hi, lo)  # keep the bin right-open


def sample_from_histogram(h: Histogram, rng: np.random.Generator) -> float:
    """Draw one value: bin by probability mass, uniform within the bin."""
    return _draw(h._table, rng.random(), rng.random())


def sample_param_set(histograms, rng: np.random.Generator) -> ParamSet:
    """Draw an independent ParamSet from per-parameter histograms.

    Requires a histogram for every parameter name. Coordinates are drawn
    independently, in the canonical parameter order, from one block of
    two uniforms per coordinate (the values of as many scalar draws).
    """
    try:
        tables = [histograms[name]._table for name in PARAM_NAMES]
    except KeyError as exc:
        raise ConfigurationError(f"missing histogram for parameter {exc.args[0]!r}") from None
    u = rng.random(2 * len(tables)).tolist()
    # A zero-edge bin can give 0.0, and parameters must stay positive. Each
    # value is a float in a histogram's finite edges, at least _TINY: what
    # ParamSet's checks would pass unchanged.
    return ParamSet._trusted([max(_draw(t, a, b), _TINY)
                              for t, a, b in zip(tables, u[::2], u[1::2])])


@dataclass(frozen=True)
class Route:
    id: str
    lanes: tuple

    def __post_init__(self):
        lanes = tuple(self.lanes)
        if not lanes:
            raise InputDomainError(f"route {self.id!r} has no lanes")
        object.__setattr__(self, "lanes", lanes)


@dataclass(frozen=True)
class VehicleSpec:
    """One scheduled vehicle: route, departure time, parameters, geometry.

    ``depart_s`` is the initial arc length (vehicle centre) on the route's
    first lane; vehicles scheduled mid-lane let hand-built fixtures place
    traffic around the ego at reset.
    """

    id: str
    route: str
    depart: float
    params: ParamSet
    length: float = DEFAULT_VEHICLE_LENGTH
    depart_s: float = 0.0

    def __post_init__(self):
        if not isinstance(self.id, str):
            raise TypeError(f"vehicle id must be a string, got {self.id!r}")
        try:
            depart = checked(float, self.depart, "depart", low=0.0)
            length = checked(float, self.length, "length", low=0.0, strict=True)
            depart_s = checked(float, self.depart_s, "depart_s", low=0.0)
        except InputDomainError as exc:
            raise InputDomainError(f"vehicle {self.id!r}: {exc}") from None
        object.__setattr__(self, "depart", depart)
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "depart_s", depart_s)


@dataclass(frozen=True)
class DemandSpec:
    """Routes plus the vehicles scheduled onto them."""

    routes: tuple = ()
    vehicles: tuple = ()

    def __post_init__(self):
        routes = tuple(self.routes)
        vehicles = tuple(self.vehicles)
        by_id = {}
        for r in routes:
            if r.id in by_id:
                raise InputDomainError(f"duplicate route id {r.id!r}")
            by_id[r.id] = r
        seen = set()
        for v in vehicles:
            if v.id in seen:
                raise InputDomainError(f"duplicate vehicle id {v.id!r}")
            seen.add(v.id)
            if v.route not in by_id:
                raise InputDomainError(
                    f"vehicle {v.id!r} references unknown route {v.route!r}"
                )
        object.__setattr__(self, "routes", routes)
        object.__setattr__(self, "vehicles", vehicles)
        object.__setattr__(self, "_routes_by_id", by_id)

    def route_by_id(self, route_id: str) -> Route:
        return self._routes_by_id[route_id]

    def validate_against(self, net: RoadNetwork) -> None:
        """Check that every route is drivable on ``net``."""
        for r in self.routes:
            for lane_id in r.lanes:
                if lane_id not in net.lanes:
                    raise SchemaError(
                        f"route {r.id!r}: lane {lane_id!r} does not exist"
                    )
            for a, b in zip(r.lanes, r.lanes[1:]):
                if b not in net.lanes[a].successors:
                    raise SchemaError(
                        f"route {r.id!r}: {b!r} is not a successor of {a!r}"
                    )
        for v in self.vehicles:
            first = self._routes_by_id[v.route].lanes[0]
            if v.depart_s >= net.lanes[first].length:
                raise SchemaError(
                    f"vehicle {v.id!r}: depart_s={v.depart_s} beyond lane {first!r}"
                )


def generate_random_trips(net: RoadNetwork, n_routes: int,
                          rng: np.random.Generator):
    """Random source-to-sink lane paths (shortest by lane count).

    Each trip draws a source and sink uniformly and keeps the connecting
    path; a disconnected pair is redrawn up to 100 times before giving up.
    """
    n_routes = checked(int, n_routes, "n_routes", low=0)
    if n_routes == 0:
        return []
    sources = sorted(net.sources)
    sinks = sorted(net.sinks)
    if not sources or not sinks:
        raise GenerationError("network needs at least one source and one sink")
    trips = []
    for _ in range(n_routes):
        path = None
        for _ in range(_ROUTE_RETRIES):
            src = sources[int(rng.integers(len(sources)))]
            dst = sinks[int(rng.integers(len(sinks)))]
            path = net.shortest_path(src, dst)
            if path is not None:
                break
        if path is None:
            raise GenerationError(
                f"no connected source/sink pair found in {_ROUTE_RETRIES} draws"
            )
        trips.append(tuple(path))
    return trips


def build_demand(net: RoadNetwork, histograms, n_vehicles: int,
                 rng: np.random.Generator,
                 mean_headway: float = DEFAULT_MEAN_HEADWAY,
                 n_routes: int = 4) -> DemandSpec:
    """Generate routes and a vehicle schedule with per-vehicle parameters.

    Vehicles are assigned round-robin over the generated routes; departure
    times accumulate exponential headways with the given mean; every
    vehicle gets an independent ParamSet draw.
    """
    n_vehicles = checked(int, n_vehicles, "n_vehicles", low=0)
    mean_headway = checked(float, mean_headway, "mean_headway", low=0.0, strict=True)
    if n_vehicles == 0:
        return DemandSpec((), ())
    trips = generate_random_trips(net, max(1, int(n_routes)), rng)
    routes = tuple(Route(f"route_{i}", lanes) for i, lanes in enumerate(trips))
    vehicles = []
    t = 0.0
    for i in range(n_vehicles):
        t += float(rng.exponential(mean_headway))
        vehicles.append(VehicleSpec(
            id=f"veh_{i:04d}",
            route=routes[i % len(routes)].id,
            depart=t,
            params=sample_param_set(histograms, rng),
        ))
    return DemandSpec(routes, tuple(vehicles))


def save_demand(demand: DemandSpec, path) -> None:
    payload = {
        "routes": [{"id": r.id, "lanes": list(r.lanes)} for r in demand.routes],
        "vehicles": [
            {
                "id": v.id,
                "route": v.route,
                "depart": float(v.depart),
                "params": v.params.as_dict(),
                "length": float(v.length),
                **({"depart_s": float(v.depart_s)} if v.depart_s else {}),
            }
            for v in demand.vehicles
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def load_demand(path) -> DemandSpec:
    path = Path(path)
    payload = read_json_object(path, SchemaError, "expected an object with routes and vehicles")
    try:
        routes = tuple(Route(r["id"], tuple(r["lanes"])) for r in payload.get("routes", ()))
        vehicles = tuple(
            VehicleSpec(
                id=v["id"],
                route=v["route"],
                depart=v["depart"],
                params=ParamSet.from_dict(v["params"]),
                length=v.get("length", DEFAULT_VEHICLE_LENGTH),
                depart_s=v.get("depart_s", 0.0),
            )
            for v in payload.get("vehicles", ())
        )
        return DemandSpec(routes, vehicles)
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"{path}: malformed demand entry ({exc})") from None
    except InputDomainError as exc:
        raise SchemaError(f"{path}: {exc}") from None


def default_histograms(kind: str) -> dict[str, Histogram]:
    """Bundled parameter marginals for a scenario kind.

    The highway set concentrates each parameter in a narrow band around
    literature fits for highway car-following; the urban set is a coarse
    illustrative spread (lower speeds, shorter jam spacing).
    """
    if kind not in SCENARIO_KINDS:
        raise ConfigurationError(
            f"unknown scenario kind {kind!r}, expected one of {SCENARIO_KINDS}"
        )
    return load_histograms(_bundled_library() / f"defaults_{kind}.json")
