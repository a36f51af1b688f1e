"""The four benchmark workloads: set-up, one timed pass, and output checks.

Every workload is driven through the package's public API or
``microtraffic.cli.main``, always looked up on the module objects at call
time so that the tracer's wrappers take effect. A pass repeats the same
seeded inputs, so every pass of a run must produce byte-identical outputs.
The benchmark's own checks parse outputs with ``json``/``numpy`` rather
than through the package, so they add no spans to a traced pass.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ess import chain_ess

BUNDLED_SCENARIOS = ("highway_plain", "highway_curve", "urban_block", "urban_grid")
#: Demand settings the bundled scenario files were generated with:
#: mean headway (s) and route count per scenario kind.
BUNDLED_DEMAND = {"highway": (3.0, 3), "urban": (4.0, 4)}
CAUSES = ("collision", "off_road", "max_steps")
PARAM_COLUMNS = 6


@dataclass(frozen=True)
class Size:
    """Work per pass for every workload."""

    pipeline_files: int
    pipeline_iters: int
    rollout_files: int
    rollout_iters: int
    n_obs: int
    sample_params: int
    episode_draws: int  # seeded demand draws per bundled scenario
    episode_steps: int | None  # step budget per draw; None = max_steps
    dense_per_lane: int
    dense_steps: int
    kernel_calls: int


FULL = Size(pipeline_files=8, pipeline_iters=2000, rollout_files=8,
            rollout_iters=125, n_obs=200, sample_params=100,
            episode_draws=4, episode_steps=None, dense_per_lane=160, dense_steps=60,
            kernel_calls=400)
SMOKE = Size(pipeline_files=2, pipeline_iters=60, rollout_files=1,
             rollout_iters=20, n_obs=200, sample_params=10,
             episode_draws=1, episode_steps=15, dense_per_lane=12, dense_steps=4,
             kernel_calls=4)


@dataclass
class PassResult:
    """Timed work and bookkeeping of one pass.

    ``parts`` holds the durations of the pass's timed pieces (CLI verbs, or
    closed-loop steps) in execution order; every pass of a run has the same
    pieces.
    """

    parts: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    mh_iters: int = 0
    ess: float = 0.0
    env_steps: int = 0
    bv_steps: int = 0
    max_alive: int = 0
    bv_contacts: int = 0
    step_s: dict = field(default_factory=dict)  # label -> env.step latencies
    ref_s: float = 0.0  # host-speed reference around the pass, set by the runner

    @property
    def run_s(self) -> float:
        return sum(self.parts)

    def fail(self, label: str, exc: BaseException | str) -> None:
        self.failed += 1
        detail = exc if isinstance(exc, str) else f"{type(exc).__name__}: {exc}"
        self.errors.append(f"{label}: {detail}")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _bundled_scenario_path(mt, name: str) -> Path:
    for path in mt.network.list_scenarios():
        if path.name == f"{name}.scenario.json":
            return path
    raise FileNotFoundError(f"bundled scenario {name!r} not found")


def _run_cli(mt, argv) -> int:
    """One CLI verb in-process, its progress lines discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return mt.cli.main([str(a) for a in argv])


def _ego_policy(mt, scenario):
    """The ``builtin-idm-ego`` policy exactly as ``simulate`` builds it."""
    params = mt.idm.ParamSet(*map(float, mt.cli.DEFAULT_PARAMS.split(",")))
    half_width = scenario.network.lanes[scenario.ego_lane].width / 2.0
    return mt.cli.BuiltinIdmEgoPolicy(params, v0=scenario.ego_speed,
                                      dt=scenario.dt, half_lane_width=half_width)


def _obs_error(obs, shape) -> str | None:
    obs = np.asarray(obs)
    if obs.shape != shape:
        return f"observation shape {obs.shape}, expected {shape}"
    if not np.all(np.isfinite(obs)):
        return "observation has non-finite entries"
    return None


# -- output checks -----------------------------------------------------------


def _csv_rows(path: Path) -> int:
    with open(path) as fh:
        return sum(1 for line in fh if line.strip()) - 1


def check_calibration(out: Path, stems, n_kept: int, mass_tol: float) -> dict:
    """Per-chain error (or None): row count, acceptance rate, posterior masses."""
    errors = {stem: None for stem in stems}
    try:
        summary = json.loads((out / "summary.json").read_text())
        posterior = json.loads((out / "posterior.json").read_text())
        for name, bins in posterior.items():
            total = math.fsum(b["mass"] for b in bins)
            if abs(total - 1.0) > mass_tol:
                raise ValueError(f"posterior {name!r} masses sum to {total!r}")
        if not (out / "diagnostics.csv").is_file():
            raise ValueError("diagnostics.csv missing")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return {stem: f"{type(exc).__name__}: {exc}" for stem in stems}
    for stem in stems:
        try:
            rows = _csv_rows(out / f"{stem}.chain.csv")
            rate = summary[stem]["acceptance_rate"]
        except (OSError, KeyError) as exc:
            errors[stem] = f"{type(exc).__name__}: {exc}"
            continue
        if rows != n_kept:
            errors[stem] = f"chain has {rows} rows, expected {n_kept}"
        elif not 0.0 <= rate <= 1.0:
            errors[stem] = f"acceptance rate {rate!r} outside [0, 1]"
    return errors


def total_ess(out: Path, stems) -> float:
    """Sum over chains of the minimum ESS over moving coordinates."""
    total = 0.0
    for stem in stems:
        data = np.loadtxt(out / f"{stem}.chain.csv", delimiter=",", skiprows=1,
                          ndmin=2)
        total += chain_ess(data[:, 1:1 + PARAM_COLUMNS])
    return total


def _n_kept(n_iter: int) -> int:
    return n_iter - n_iter // 5  # the CLI's default burn-in, thin 1


# -- pipeline ------------------------------------------------------------------


class Pipeline:
    """gen-synthetic -> calibrate -> sample-params -> build-demand -> simulate."""

    op = "CLI verb"

    def __init__(self, mt, seed: int, size: Size, work: Path):
        self.mt, self.seed, self.size, self.work = mt, seed, size, work
        bundled = _bundled_scenario_path(mt, "highway_plain")
        shutil.copy(bundled.with_name("highway_plain.network.json"),
                    work / "network.json")
        settings = json.loads(bundled.read_text())
        settings.update(network_file="network.json",
                        demand_file="demand/demand.json", seed=seed)
        (work / "scenario.json").write_text(json.dumps(settings))
        self.n_vehicles = len(json.loads(
            bundled.with_name("highway_plain.demand.json").read_text())["vehicles"])

    def _verbs(self):
        w, s, size = self.work, self.seed, self.size
        headway, routes = BUNDLED_DEMAND["highway"]
        stems = [f"veh_{i:04d}" for i in range(size.pipeline_files)]
        return (
            ("gen-synthetic", ["gen-synthetic", "--seed", s, "--n-vehicles",
                               size.pipeline_files, "--n-obs", size.n_obs,
                               "--out", w / "data"],
             lambda: self._check_data(stems)),
            ("calibrate", ["calibrate", "--data", w / "data", "--n-iter",
                           size.pipeline_iters, "--seed", s, "--out", w / "calib"],
             lambda: self._check_calib(stems)),
            ("sample-params", ["sample-params", "--histograms",
                               w / "calib" / "posterior.json", "--n",
                               size.sample_params, "--seed", s, "--out", w / "params"],
             self._check_params),
            ("build-demand", ["build-demand", "--network", w / "network.json",
                              "--histograms", w / "calib" / "posterior.json",
                              "--n-vehicles", self.n_vehicles, "--mean-headway",
                              headway, "--n-routes", routes, "--seed", s,
                              "--out", w / "demand"],
             self._check_demand),
            ("simulate", ["simulate", "--scenario", w / "scenario.json",
                          "--policy", "builtin-idm-ego", "--seed", s,
                          "--out", w / "episode"]
             + (["--max-steps", size.episode_steps] if size.episode_steps else []),
             self._check_episode),
        )

    def _check_data(self, stems):
        for stem in stems:
            rows = _csv_rows(self.work / "data" / f"{stem}.csv")
            if rows != self.size.n_obs:
                raise ValueError(f"{stem}.csv has {rows} rows")
        json.loads((self.work / "data" / "true_params.json").read_text())

    def _check_calib(self, stems):
        out = self.work / "calib"
        errors = check_calibration(out, stems, _n_kept(self.size.pipeline_iters),
                                   self.mt.histogram.MASS_TOL)
        bad = [f"{k}: {v}" for k, v in errors.items() if v]
        if bad:
            raise ValueError("; ".join(bad))
        self.result.mh_iters += len(stems) * self.size.pipeline_iters
        self.result.ess += total_ess(out, stems)
        for name in ("summary.json", "posterior.json"):
            self.result.digests[f"calib/{name}"] = sha256_file(out / name)

    def _check_params(self):
        data = np.loadtxt(self.work / "params" / "params.csv", delimiter=",",
                          skiprows=1, ndmin=2)
        if data.shape != (self.size.sample_params, PARAM_COLUMNS):
            raise ValueError(f"params.csv has shape {data.shape}")
        if not np.all(np.isfinite(data) & (data > 0.0)):
            raise ValueError("params.csv has non-positive or non-finite values")

    def _check_demand(self):
        path = self.work / "demand" / "demand.json"
        n = len(json.loads(path.read_text())["vehicles"])
        if n != self.n_vehicles:
            raise ValueError(f"demand.json has {n} vehicles")
        self.result.digests["demand/demand.json"] = sha256_file(path)

    def _check_episode(self):
        out = self.work / "episode"
        cause = json.loads((out / "summary.json").read_text())["cause"]
        if cause not in CAUSES:
            raise ValueError(f"episode ended with cause {cause!r}")
        if _csv_rows(out / "trace.csv") < 1:
            raise ValueError("trace.csv is empty")
        for name in ("summary.json", "trace.csv"):
            self.result.digests[f"episode/{name}"] = sha256_file(out / name)

    def run_pass(self) -> PassResult:
        self.result = r = PassResult()
        for sub in ("data", "calib", "params", "demand", "episode"):
            shutil.rmtree(self.work / sub, ignore_errors=True)
        for label, argv, check in self._verbs():
            r.attempted += 1
            try:
                start = time.perf_counter()
                rc = _run_cli(self.mt, argv)
                r.parts.append(time.perf_counter() - start)
                if rc != 0:
                    raise RuntimeError(f"exit code {rc}")
                check()
            except Exception as exc:  # one failed verb must not end the run
                r.fail(label, exc)
        return r

    def close(self):
        pass


# -- calib_rollout ---------------------------------------------------------------


class CalibRollout:
    """``calibrate --objective rollout`` on seeded synthetic trajectories."""

    op = "chain"

    def __init__(self, mt, seed: int, size: Size, work: Path):
        self.mt, self.seed, self.size, self.work = mt, seed, size, work
        rc = _run_cli(mt, ["gen-synthetic", "--seed", seed, "--n-vehicles",
                           size.rollout_files, "--n-obs", size.n_obs,
                           "--out", work / "data"])
        if rc != 0:
            raise RuntimeError(f"gen-synthetic exited with {rc}")
        self.stems = [f"veh_{i:04d}" for i in range(size.rollout_files)]

    def run_pass(self) -> PassResult:
        r = PassResult()
        out = self.work / "calib"
        shutil.rmtree(out, ignore_errors=True)
        r.attempted = len(self.stems)
        try:
            start = time.perf_counter()
            rc = _run_cli(self.mt, ["calibrate", "--objective", "rollout",
                                    "--data", self.work / "data", "--n-iter",
                                    self.size.rollout_iters, "--seed", self.seed,
                                    "--out", out])
            r.parts.append(time.perf_counter() - start)
        except Exception as exc:  # counts against every chain of the verb
            rc = f"{type(exc).__name__}: {exc}"
        if rc != 0:
            for stem in self.stems:
                r.fail(stem, f"calibrate failed ({rc})")
            return r
        errors = check_calibration(out, self.stems, _n_kept(self.size.rollout_iters),
                                   self.mt.histogram.MASS_TOL)
        for stem, err in errors.items():
            if err:
                r.fail(stem, err)
            else:
                r.digests[f"{stem}.chain.csv"] = sha256_file(out / f"{stem}.chain.csv")
        if r.failed == 0:
            r.mh_iters = len(self.stems) * self.size.rollout_iters
            r.ess = total_ess(out, self.stems)
        return r

    def close(self):
        pass


# -- episodes ----------------------------------------------------------------------


def run_env_steps(mt, env, scenario, n_steps, result, render: bool, label: str):
    """Closed-loop ``builtin-idm-ego`` steps from a fresh reset.

    Runs until the episode terminates or ``n_steps`` steps are done and
    returns (steps, frame rows rendered, final StepResult). Only the
    policy, ``step`` and ``render_frame`` calls are timed; a step's latency
    is its ``env.step`` call alone.
    """
    clock = time.perf_counter
    obs = env.reset()
    policy = _ego_policy(mt, scenario)
    shape = env.observation_shape
    err = _obs_error(obs, shape)
    if err:
        raise ValueError(f"reset: {err}")
    latencies = result.step_s.setdefault(label, [])
    rows = 0
    last = None
    for k in range(n_steps):
        alive = len(env.vehicle_states())
        result.bv_steps += alive
        result.max_alive = max(result.max_alive, alive)
        t0 = clock()
        action = policy.act(obs)
        t1 = clock()
        last = env.step(action)
        t2 = clock()
        if render:
            rows += len(env.render_frame())
        t3 = clock()
        result.parts.append(t3 - t0)
        latencies.append(t2 - t1)
        obs = last.observation
        err = _obs_error(obs, shape)
        if err:
            raise ValueError(f"step {k + 1}: {err}")
        if last.terminated:
            return k + 1, rows, last
    return n_steps, rows, last


class Episodes:
    """The four bundled scenarios with seeded demand, closed loop, traced."""

    op = "episode"

    def __init__(self, mt, seed: int, size: Size, work: Path):
        self.mt, self.size = mt, size
        rng = np.random.default_rng(seed)
        self.cases = []
        for name in BUNDLED_SCENARIOS:
            base = mt.network.load_scenario(_bundled_scenario_path(mt, name))
            headway, routes = BUNDLED_DEMAND[base.kind]
            hists = mt.population.default_histograms(base.kind)
            for draw in range(size.episode_draws):
                demand = mt.population.build_demand(
                    base.network, hists, len(base.demand.vehicles), rng,
                    mean_headway=headway, n_routes=routes)
                sc = dataclasses.replace(base, demand=demand)
                trace = work / f"{name}-{draw}.trace.csv"
                env = mt.env.TrafficEnv(sc, trace_path=trace)
                env.reset()
                self.cases.append((name, f"{name}-{draw}", sc, env, trace))

    def run_pass(self) -> PassResult:
        """Each demand draw runs for its scenario's step budget (``max_steps``
        unless the size sets one); an episode that ends early is reset and
        replayed, so every pass steps the same number of times whatever the
        seed."""
        r = PassResult()
        for name, case, sc, env, trace in self.cases:
            budget = self.size.episode_steps or sc.max_steps
            done = 0
            episode = 0
            while done < budget:
                label = f"{case}#{episode}"
                r.attempted += 1
                try:
                    steps, rows, last = run_env_steps(self.mt, env, sc, budget - done,
                                                      r, True, name)
                    done += steps
                    self._check(env, last, steps, rows, trace)
                    r.digests[label] = sha256_file(trace)
                    r.bv_contacts += len(env.collisions_logged)
                except Exception as exc:  # one failed episode must not end the run
                    r.fail(label, exc)
                    break
                episode += 1
            r.env_steps += done
        return r

    @staticmethod
    def _check(env, last, steps, rows, trace):
        cause = last.info["cause"]
        if last.terminated and cause not in CAUSES:
            raise ValueError(f"episode ended with cause {cause!r}")
        if not last.terminated and cause != "running":
            raise ValueError(f"unterminated episode reports cause {cause!r}")
        if _csv_rows(trace) != rows:
            raise ValueError(f"trace has {_csv_rows(trace)} rows, "
                             f"frames rendered {rows}")
        if last.info["step"] != steps:
            raise ValueError(f"info step {last.info['step']} after {steps} steps")

    def close(self):
        for _, _, _, env, _ in self.cases:
            env.close()


# -- dense_highway ---------------------------------------------------------------


#: BV placement on each 3000 m lane of highway_plain: first centre and spacing.
#: The window before the first BV leaves the ego (at s=50 on lane_1) room to
#: brake behind the queue instead of spawning into it.
DENSE_FIRST_S = 150.0
DENSE_SPACING = 17.5


class DenseHighway:
    """highway_plain with 160 BVs per lane placed at t=0, closed loop."""

    op = "step"

    def __init__(self, mt, seed: int, size: Size, work: Path):
        self.mt, self.size = mt, size
        base = mt.network.load_scenario(_bundled_scenario_path(mt, "highway_plain"))
        hists = mt.population.default_histograms("highway")
        rng = np.random.default_rng(seed)
        routes = []
        vehicles = []
        for j, lane_id in enumerate(sorted(base.network.lanes)):
            route = mt.population.Route(f"lane_route_{j}", (lane_id,))
            routes.append(route)
            for k in range(size.dense_per_lane):
                vehicles.append(mt.population.VehicleSpec(
                    id=f"bv_{j}_{k:03d}", route=route.id, depart=0.0,
                    params=mt.population.sample_param_set(hists, rng),
                    depart_s=DENSE_FIRST_S + k * DENSE_SPACING))
        demand = mt.population.DemandSpec(tuple(routes), tuple(vehicles))
        self.scenario = dataclasses.replace(base, demand=demand)
        self.env = mt.env.TrafficEnv(self.scenario)
        self.env.reset()

    def run_pass(self) -> PassResult:
        r = PassResult()
        n = self.size.dense_steps
        r.attempted = n
        try:
            steps, _, last = run_env_steps(self.mt, self.env, self.scenario, n, r,
                                           False, "dense")
        except Exception as exc:  # the failing step and the rest are lost
            done = len(r.step_s.get("dense", ()))
            r.failed = n - done
            r.errors.append(f"step {done + 1}: {type(exc).__name__}: {exc}")
            return r
        r.env_steps = steps
        if steps < n:
            r.failed = n - steps
            r.errors.append(f"episode ended ({last.info['cause']}) after {steps} steps")
        states = sorted(self.env.vehicle_states().items())
        r.digests["vehicle_states"] = hashlib.sha256(repr(states).encode()).hexdigest()
        r.bv_contacts = len(self.env.collisions_logged)
        return r

    def close(self):
        self.env.close()


WORKLOADS = {
    "pipeline": Pipeline,
    "calib_rollout": CalibRollout,
    "episodes": Episodes,
    "dense_highway": DenseHighway,
}
