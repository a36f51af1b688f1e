"""Command-line front end for the calibration-to-simulation pipeline.

Verbs:

* ``gen-synthetic`` - follower trajectories from a known parameter set
* ``calibrate``     - MCMC chains, posterior histograms and diagnostics
* ``sample-params`` - parameter table drawn from posterior histograms
* ``build-demand``  - per-vehicle demand file for a road network
* ``simulate``      - one environment episode under a chosen policy

All verbs share ``--seed``, ``--out`` (an output directory) and
``--config`` (a JSON file supplying values for flags not given on the
command line; keys are flag names with dashes as underscores). Every run
writes ``manifest.json`` next to its outputs with the resolved options,
so a run can be reproduced from the manifest alone. Manifests carry no
timestamps: repeating a command bit-reproduces its output files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import selectors
import shlex
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .calibration import (DEFAULT_NOISE_SIGMA, DEFAULT_PRIOR_HI,
                          DEFAULT_PRIOR_LO, Chain, ProposalConfig,
                          TargetDensity, autocorrelation,
                          default_proposal_sigma, pooled_histograms,
                          run_chains, synthetic_trajectory)
from .env import Action, TrafficEnv
from .errors import (ConfigurationError, DegenerateSeriesError, InputDomainError,
                     MicrotrafficError, PolicyProtocolError)
from .histogram import load_histograms, save_histograms
from .idm import PARAM_NAMES, FollowingState, ParamSet, Trajectory, idm_acceleration
from .network import SCENARIO_KINDS, load_network, load_scenario
from .population import build_demand, default_histograms, sample_param_set, save_demand

DEFAULT_PARAMS = "3,5,35,10,2,4"
POLICY_NAMES = ("zero-action", "builtin-idm-ego", "external-stdio")
#: Seconds an external policy gets to answer one observation.
POLICY_REPLY_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class RunManifest:
    """Record of one CLI run: enough to repeat it exactly."""

    command: str
    inputs: tuple
    seed: int
    out_dir: str
    version: str
    parameters: dict

    def write(self, out_dir: Path) -> Path:
        payload = {
            "command": self.command,
            "inputs": list(self.inputs),
            "seed": self.seed,
            "out_dir": self.out_dir,
            "version": self.version,
            "parameters": self.parameters,
        }
        path = out_dir / "manifest.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return path

    @staticmethod
    def load(path) -> "RunManifest":
        d = json.loads(Path(path).read_text())
        return RunManifest(d["command"], tuple(d["inputs"]), d["seed"],
                           d["out_dir"], d["version"], d["parameters"])


def _opt(value, default):
    return default if value is None else value


def _num(kind, name: str, value, default=None):
    """``value`` (``default`` when None) converted by ``kind`` (``int`` or
    ``float``). A value that does not convert, such as a string from a
    ``--config`` file, is a configuration error."""
    value = _opt(value, default)
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        what = "an integer" if kind is int else "a number"
        raise ConfigurationError(f"{name} must be {what}, got {value!r}") from None


def _parse_params(text: str) -> ParamSet:
    parts = [p.strip() for p in str(text).split(",")]
    if len(parts) != len(PARAM_NAMES):
        raise ConfigurationError(
            f"--params wants {len(PARAM_NAMES)} comma-separated values "
            f"({','.join(PARAM_NAMES)}), got {text!r}"
        )
    return ParamSet.from_array([_num(float, "--params value", p) for p in parts])


def _parse_pin(text) -> float | None:
    if text is None or str(text).lower() == "none":
        return None
    return _num(float, "pin_delta", text)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_histogram_arg(source):
    """A scenario kind name picks the bundled defaults; anything else is a path."""
    if str(source) in SCENARIO_KINDS:
        return default_histograms(str(source))
    return load_histograms(source)


# -- policies ---------------------------------------------------------------


class ZeroActionPolicy:
    def act(self, obs) -> Action:
        return Action(0.0, 0.0)

    def close(self) -> None:
        pass


class BuiltinIdmEgoPolicy:
    """Drives the ego longitudinally with the car-following model.

    The observation is relative, so the policy integrates its own speed
    from the actions it returns (the same Euler update the environment
    applies, hence no drift). The leader is the nearest ahead-row within
    half a lane width laterally; bumper gap assumes the default 5 m
    vehicle length on both sides.
    """

    def __init__(self, params: ParamSet, v0: float, dt: float,
                 half_lane_width: float, vehicle_length: float = 5.0):
        self.params = params
        self.dt = float(dt)
        self.half_width = float(half_lane_width)
        self.length = float(vehicle_length)
        self._v = float(v0)

    def act(self, obs) -> Action:
        leader = None
        for row in np.asarray(obs)[0::2]:
            if row[0] != 1.0 or row[1] <= 0.0 or abs(row[2]) >= self.half_width:
                continue
            if leader is None or row[1] < leader[1]:
                leader = row
        if leader is None:
            state = FollowingState(v=max(self._v, 0.0), delta_v=0.0, d_front=math.inf)
        else:
            gap = max(float(leader[1]) - self.length, 1e-3)
            state = FollowingState(v=max(self._v, 0.0), delta_v=-float(leader[3]),
                                   d_front=gap)
        a = idm_acceleration(self.params, state)
        self._v += a * self.dt
        return Action(a, 0.0)

    def close(self) -> None:
        pass


class ExternalStdioPolicy:
    """Line protocol to a child process: one flattened observation out
    (comma-separated decimals, LF), one ``a_long,a_lat`` line back within
    ``POLICY_REPLY_TIMEOUT_S`` seconds."""

    def __init__(self, command: str):
        if not command:
            raise ConfigurationError("external-stdio policy needs --policy-cmd")
        self._proc = subprocess.Popen(
            shlex.split(command), stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self._pending = b""
        self._stalled = False

    def act(self, obs) -> Action:
        line = ",".join(repr(float(x)) for x in np.asarray(obs).ravel())
        try:
            self._proc.stdin.write(line.encode() + b"\n")
            self._proc.stdin.flush()
        except (OSError, ValueError) as exc:
            raise PolicyProtocolError(f"pipe to policy process broke: {exc}") from None
        reply = self._read_reply()
        if reply == "":
            raise PolicyProtocolError("policy process closed its output")
        parts = reply.strip().split(",")
        if len(parts) != 2:
            raise PolicyProtocolError(f"expected 'a_long,a_lat', got {reply.strip()!r}")
        try:
            a_long, a_lat = float(parts[0]), float(parts[1])
        except ValueError:
            raise PolicyProtocolError(f"non-numeric action {reply.strip()!r}") from None
        if not (math.isfinite(a_long) and math.isfinite(a_lat)):
            raise PolicyProtocolError(f"non-finite action {reply.strip()!r}")
        return Action(a_long, a_lat)

    def _read_reply(self) -> str:
        """The next reply line, or what is left ("" if nothing) once the
        policy closed its output."""
        deadline = time.monotonic() + POLICY_REPLY_TIMEOUT_S
        fd = self._proc.stdout.fileno()
        with selectors.DefaultSelector() as selector:
            selector.register(fd, selectors.EVENT_READ)
            while b"\n" not in self._pending:
                remaining = deadline - time.monotonic()
                if remaining <= 0.0 or not selector.select(remaining):
                    self._stalled = True
                    raise PolicyProtocolError(
                        f"no reply from policy process within {POLICY_REPLY_TIMEOUT_S:g} s")
                try:
                    chunk = os.read(fd, 65536)
                except OSError as exc:
                    raise PolicyProtocolError(f"pipe to policy process broke: {exc}") from None
                if not chunk:
                    break
                self._pending += chunk
        line, newline, self._pending = self._pending.partition(b"\n")
        try:
            return (line + newline).decode()
        except UnicodeDecodeError:
            raise PolicyProtocolError(f"reply is not UTF-8 text: {line[:40]!r}") from None

    def close(self) -> None:
        """Close the pipes and reap the child; one that stopped answering
        is killed at once, any other gets 5 s to exit after EOF."""
        if self._proc.stdin is not None:
            try:
                self._proc.stdin.close()
            except OSError:
                pass
        if self._stalled:
            self._proc.kill()
        try:
            self._proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


# -- subcommands ------------------------------------------------------------


def cmd_gen_synthetic(args) -> int:
    out = _out_dir(args)
    seed = args.seed
    n_vehicles = _num(int, "n_vehicles", args.n_vehicles, 50)
    if n_vehicles < 0:
        raise InputDomainError(f"n_vehicles must be >= 0, got {n_vehicles}")
    n_obs = _num(int, "n_obs", args.n_obs, 200)
    dt = _num(float, "dt", args.dt, 0.1)
    noise_sigma = _num(float, "noise_sigma", args.noise_sigma, DEFAULT_NOISE_SIGMA)
    params = _parse_params(_opt(args.params, DEFAULT_PARAMS))

    children = np.random.SeedSequence(seed).spawn(n_vehicles)
    files = []
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        traj = synthetic_trajectory(params, rng, n_obs=n_obs, dt=dt,
                                    noise_sigma=noise_sigma)
        path = out / f"veh_{i:04d}.csv"
        traj.to_csv(path)
        files.append(path.name)
    (out / "true_params.json").write_text(json.dumps(
        {"params": params.as_dict(), "noise_sigma": noise_sigma, "dt": dt},
        indent=2, sort_keys=True) + "\n")
    RunManifest("gen-synthetic", (), seed, str(args.out), __version__, {
        "n_vehicles": n_vehicles, "n_obs": n_obs, "dt": dt,
        "noise_sigma": noise_sigma, "params": params.as_dict(),
    }).write(out)
    print(f"wrote {len(files)} trajectories to {out}")
    return 0


def _expand_data_args(paths) -> list:
    files = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            files.extend(sorted(p.glob("*.csv")))
        else:
            files.append(p)
    return files


def cmd_calibrate(args) -> int:
    seed = args.seed
    n_iter = _num(int, "n_iter", args.n_iter, 20000)
    burn_in = None if args.burn_in is None else _num(int, "burn_in", args.burn_in)
    thin = _num(int, "thin", args.thin, 1)
    noise_sigma = _num(float, "noise_sigma", args.noise_sigma, DEFAULT_NOISE_SIGMA)
    objective = _opt(args.objective, "one-step")
    pin_delta = _parse_pin(_opt(args.pin_delta, "none"))
    max_lag = _num(int, "max_lag", args.max_lag, 50)
    if max_lag < 0:
        raise InputDomainError(f"max_lag must be >= 0, got {max_lag}")
    n_bins = _num(int, "n_bins", args.n_bins, 20)
    if n_bins < 1:
        raise InputDomainError(f"n_bins must be >= 1, got {n_bins}")

    files = _expand_data_args(args.data)
    if not files:
        raise ConfigurationError("no trajectory files found under --data")
    master = np.random.default_rng(seed)
    sigma = default_proposal_sigma()
    theta_init = 0.5 * (DEFAULT_PRIOR_LO + DEFAULT_PRIOR_HI)

    targets, cfgs = [], []
    for path in files:
        traj = Trajectory.from_csv(path)
        targets.append(TargetDensity(traj, noise_sigma=noise_sigma, objective=objective))
        cfgs.append(ProposalConfig(sigma_prop=sigma, n_iter=n_iter,
                                   seed=int(master.integers(2 ** 63)),
                                   burn_in=burn_in, thin=thin, pin_delta=pin_delta))
    out = _out_dir(args)
    chains: dict[str, Chain] = {}
    summary: dict[str, dict] = {}
    for path, chain in zip(files, run_chains(targets, cfgs, theta_init)):
        stem = Path(path).stem
        chain.to_csv(out / f"{stem}.chain.csv")
        chains[stem] = chain
        summary[stem] = {
            "acceptance_rate": chain.acceptance_rate,
            "posterior_mean": dict(zip(chain.param_names,
                                       map(float, chain.posterior_mean()))),
        }

    save_histograms(pooled_histograms(chains.values(), n_bins), out / "posterior.json")
    _write_acf_table(out / "diagnostics.csv", chains, max_lag)
    (out / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n")
    RunManifest("calibrate", tuple(str(p) for p in files), seed, str(args.out),
                __version__, {
        "n_iter": n_iter, "burn_in": burn_in, "thin": thin,
        "noise_sigma": noise_sigma, "objective": objective,
        "pin_delta": pin_delta, "max_lag": max_lag, "n_bins": n_bins,
    }).write(out)
    for stem, entry in summary.items():
        print(f"{stem}: acceptance_rate={entry['acceptance_rate']:.3f}")
    return 0


def _write_acf_table(path: Path, chains: dict, max_lag: int) -> None:
    """Lag-column table of per-coordinate chain autocorrelations.

    A pinned (constant) coordinate has no defined autocorrelation beyond
    the trivial lag 0; its column holds nan there.
    """
    with path.open("w", newline="") as fh:
        names = next(iter(chains.values())).param_names
        fh.write("file,lag," + ",".join(names) + "\n")
        for stem, chain in chains.items():
            lag_max = min(max_lag, len(chain) - 1)
            cols = []
            for k in range(chain.dim):
                try:
                    cols.append(autocorrelation(chain.samples[:, k], lag_max))
                except DegenerateSeriesError:
                    col = np.full(lag_max + 1, math.nan)
                    col[0] = 1.0
                    cols.append(col)
            for lag in range(lag_max + 1):
                row = ",".join(repr(float(c[lag])) for c in cols)
                fh.write(f"{stem},{lag},{row}\n")


def cmd_sample_params(args) -> int:
    seed = args.seed
    n = _num(int, "n", args.n, 100)
    if n < 0:
        raise InputDomainError(f"n must be >= 0, got {n}")
    source = _opt(args.histograms, "highway")
    hists = _load_histogram_arg(source)
    out = _out_dir(args)
    rng = np.random.default_rng(seed)
    path = out / "params.csv"
    with path.open("w", newline="") as fh:
        fh.write(",".join(PARAM_NAMES) + "\n")
        for _ in range(n):
            p = sample_param_set(hists, rng)
            fh.write(",".join(repr(getattr(p, name)) for name in PARAM_NAMES) + "\n")
    RunManifest("sample-params", (str(source),), seed, str(args.out),
                __version__, {"n": n, "histograms": str(source)}).write(out)
    print(f"wrote {n} parameter rows to {path}")
    return 0


def cmd_build_demand(args) -> int:
    out = _out_dir(args)
    seed = args.seed
    if args.network is None:
        raise ConfigurationError("build-demand needs --network")
    n_vehicles = _num(int, "n_vehicles", args.n_vehicles, 50)
    mean_headway = _num(float, "mean_headway", args.mean_headway, 4.0)
    n_routes = _num(int, "n_routes", args.n_routes, 4)
    source = _opt(args.histograms, "highway")

    net = load_network(args.network)
    hists = _load_histogram_arg(source)
    rng = np.random.default_rng(seed)
    demand = build_demand(net, hists, n_vehicles, rng,
                          mean_headway=mean_headway, n_routes=n_routes)
    save_demand(demand, out / "demand.json")
    RunManifest("build-demand", (str(args.network), str(source)), seed,
                str(args.out), __version__, {
        "n_vehicles": n_vehicles, "mean_headway": mean_headway,
        "n_routes": n_routes, "histograms": str(source),
    }).write(out)
    print(f"wrote demand for {n_vehicles} vehicles to {out / 'demand.json'}")
    return 0


def _make_policy(name: str, args, scenario):
    if name == "zero-action":
        return ZeroActionPolicy()
    if name == "builtin-idm-ego":
        params = _parse_params(_opt(args.params, DEFAULT_PARAMS))
        half_width = scenario.network.lanes[scenario.ego_lane].width / 2.0
        return BuiltinIdmEgoPolicy(params, v0=scenario.ego_speed,
                                   dt=scenario.dt, half_lane_width=half_width)
    if name == "external-stdio":
        return ExternalStdioPolicy(_opt(args.policy_cmd, ""))
    raise ConfigurationError(f"unknown policy {name!r}")


def cmd_simulate(args) -> int:
    out = _out_dir(args)
    seed = args.seed
    if args.scenario is None:
        raise ConfigurationError("simulate needs --scenario (a file or a kind)")
    policy_name = _opt(args.policy, "zero-action")

    rng = np.random.default_rng(seed)
    scenario = load_scenario(args.scenario, rng=rng)
    if args.max_steps is not None:
        scenario = replace(scenario, max_steps=_num(int, "max_steps", args.max_steps))

    env = TrafficEnv(scenario, trace_path=out / "trace.csv")
    policy = _make_policy(policy_name, args, scenario)
    cause_override = None
    try:
        obs = env.reset()
        while True:
            try:
                action = policy.act(obs)
            except PolicyProtocolError as exc:
                print(f"policy protocol violation: {exc}", file=sys.stderr)
                cause_override = "policy_error"
                break
            result = env.step(action)
            obs = result.observation
            env.render_frame()
            if result.terminated:
                break
    finally:
        policy.close()
        env.close()

    summary = env.episode_summary()
    if cause_override is not None:
        summary["cause"] = cause_override
    (out / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n")
    RunManifest("simulate", (str(args.scenario),), seed, str(args.out),
                __version__, {
        "policy": policy_name, "policy_cmd": args.policy_cmd,
        "max_steps": args.max_steps,
    }).write(out)
    print(f"cause={summary['cause']} steps={summary['steps']} "
          f"collisions_logged={summary['collisions_logged']}")
    return 0


# -- parser -----------------------------------------------------------------


def _add_common(sub) -> None:
    sub.add_argument("--seed", type=int, default=None,
                     help="master RNG seed (default 0)")
    sub.add_argument("--out", required=True, help="output directory")
    sub.add_argument("--config", default=None,
                     help="JSON file supplying values for omitted flags")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="microtraffic",
        description="calibrated microscopic traffic simulation toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("gen-synthetic",
                        help="generate follower trajectories from known parameters")
    p.add_argument("--n-vehicles", type=int, default=None)
    p.add_argument("--n-obs", type=int, default=None)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--noise-sigma", type=float, default=None)
    p.add_argument("--params", default=None,
                   help=f"six comma-separated values, default {DEFAULT_PARAMS}")
    _add_common(p)
    p.set_defaults(func=cmd_gen_synthetic)

    p = subs.add_parser("calibrate",
                        help="fit driver parameters to trajectory files")
    p.add_argument("--data", nargs="+", required=True,
                   help="trajectory CSV files or directories of them")
    p.add_argument("--n-iter", type=int, default=None)
    p.add_argument("--burn-in", type=int, default=None)
    p.add_argument("--thin", type=int, default=None)
    p.add_argument("--noise-sigma", type=float, default=None)
    p.add_argument("--objective", choices=("one-step", "rollout"), default=None)
    p.add_argument("--pin-delta", default=None,
                   help="freeze the exponent at this value (calibrated by default)")
    p.add_argument("--max-lag", type=int, default=None)
    p.add_argument("--n-bins", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_calibrate)

    p = subs.add_parser("sample-params",
                        help="draw parameter sets from posterior histograms")
    p.add_argument("--histograms", default=None,
                   help="histogram JSON path, or a scenario kind for the bundled defaults")
    p.add_argument("--n", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_sample_params)

    p = subs.add_parser("build-demand",
                        help="generate a demand file for a road network")
    p.add_argument("--network", default=None, required=False,
                   help="road network JSON")
    p.add_argument("--histograms", default=None)
    p.add_argument("--n-vehicles", type=int, default=None)
    p.add_argument("--mean-headway", type=float, default=None)
    p.add_argument("--n-routes", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_build_demand)

    p = subs.add_parser("simulate", help="run one environment episode")
    p.add_argument("--scenario", default=None,
                   help="scenario file, or a kind name to pick a bundled one")
    p.add_argument("--policy", choices=POLICY_NAMES, default=None)
    p.add_argument("--policy-cmd", default=None,
                   help="command line for the external-stdio policy")
    p.add_argument("--max-steps", type=int, default=None,
                   help="override the scenario step budget")
    p.add_argument("--params", default=None,
                   help="parameters for the builtin-idm-ego policy")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)
    return parser


def _apply_config(args) -> None:
    if args.config is None:
        return
    try:
        config = json.loads(Path(args.config).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{args.config}: not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise ConfigurationError(f"{args.config}: config must be a JSON object")
    for key, value in config.items():
        dest = key.replace("-", "_")
        if hasattr(args, dest) and getattr(args, dest) is None:
            setattr(args, dest, value)


def _check_seed(value) -> int:
    """The master seed (0 when omitted) as a non-negative integer."""
    seed = _num(int, "seed", value, 0)
    if seed < 0:
        raise ConfigurationError(f"seed must be an integer >= 0, got {value!r}")
    return seed


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args)
        args.seed = _check_seed(args.seed)
        return args.func(args)
    except MicrotrafficError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
