"""Command-line front end for the calibration-to-simulation pipeline.

Verbs:

* ``gen-synthetic`` - follower trajectories from a known parameter set
* ``calibrate``     - MCMC chains, posterior histograms and diagnostics
* ``sample-params`` - parameter table drawn from posterior histograms
* ``build-demand``  - per-vehicle demand file for a road network
* ``simulate``      - one environment episode under a chosen policy

All verbs share ``--seed``, ``--out`` (an output directory) and
``--config`` (a JSON file supplying values for flags not given on the
command line; its keys are the other flags of any verb, with dashes or
underscores, but not both for one flag). Every flag a verb takes is
declared once, in ``VERBS``: its inputs (the required ``--data``,
``--network`` or ``--scenario``) and its options alike. ``_resolve``
reads them all in one pass, so a value is converted and checked the
same way from either source, and every verb checks its flags, its
inputs and the counts it would hold in memory before it creates
``--out``. Every run writes ``manifest.json`` listing its inputs and
every resolved option, so a run can be reproduced from it alone.
Manifests carry no timestamps: repeating a command bit-reproduces its
output files.
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
from contextlib import closing
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__, _kernels
from .calibration import (DEFAULT_NOISE_SIGMA, DEFAULT_PRIOR_HI,
                          DEFAULT_PRIOR_LO, Chain, ProposalConfig,
                          TargetDensity, autocorrelation,
                          default_proposal_sigma, pooled_histograms,
                          run_chains, synthetic_trajectory)
from .env import Action, TrafficEnv
from .errors import (ConfigurationError, DegenerateSeriesError, InputDomainError,
                     MicrotrafficError, PolicyProtocolError, checked, read_json_object)
from .histogram import load_histograms, save_histograms
from .idm import PARAM_NAMES, FollowingState, ParamSet, Trajectory, idm_acceleration
from .network import SCENARIO_KINDS, load_network, load_scenario
from .population import (DEFAULT_MEAN_HEADWAY, DEFAULT_VEHICLE_LENGTH, build_demand,
                         default_histograms, sample_param_set, save_demand)

DEFAULT_PARAMS = "3,5,35,10,2,4"
POLICY_NAMES = ("zero-action", "builtin-idm-ego", "external-stdio")
#: Seconds an external policy gets to answer one observation.
POLICY_REPLY_TIMEOUT_S = 30.0


def _parse_params(text: str) -> ParamSet:
    parts = [p.strip() for p in str(text).split(",")]
    if len(parts) != len(PARAM_NAMES):
        raise ConfigurationError(
            f"--params wants {len(PARAM_NAMES)} comma-separated values "
            f"({','.join(PARAM_NAMES)}), got {text!r}"
        )
    return ParamSet.from_array([checked(float, p, "--params value", ConfigurationError,
                                        finite=False) for p in parts])


def _parse_pin(text) -> float | None:
    if text is None or str(text).lower() == "none":
        return None
    return checked(float, text, "pin_delta", ConfigurationError, finite=False)


def _paths(value) -> list:
    """One path or a list of them (``--config`` may give either), as strings."""
    return [str(v) for v in (value if isinstance(value, list) else [value])]


@dataclass(frozen=True)
class Option:
    """One verb flag. ``kind`` converts its value (from the command line or
    ``--config``); ``low`` and ``high`` are its least and greatest allowed
    values; ``nargs`` is argparse's."""

    flag: str
    kind: object = str
    default: object = None
    low: int | None = None
    high: int | None = None
    choices: tuple | None = None
    nargs: str | None = None
    help: str = ""

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")


SEED = Option("--seed", int, 0, low=0, help="master RNG seed")
#: Ceiling of ``calibrate --n-bins``: the histogram allocates every bin
#: edge, so a huge count would exhaust memory instead of failing cleanly.
MAX_N_BINS = 10_000
#: Ceiling of ``gen-synthetic --n-obs``: a trajectory takes about 450 bytes
#: a sample in memory, so a huge count would fail only after --out exists.
MAX_N_OBS = 1_000_000
#: Ceiling of ``--n-vehicles``: ``build-demand`` holds about 3.6 kB a vehicle
#: until its demand file is written (``gen-synthetic`` about 0.4 kB).
MAX_N_VEHICLES = 100_000
#: Ceiling of ``build-demand --n-routes``: a route takes about 1.6 kB and a
#: shortest-path search (about 30 us on the bundled urban grid).
MAX_N_ROUTES = 100_000
#: Ceiling of the samples ``calibrate`` keeps over all its chains (files
#: times kept iterations): about 136 bytes each in memory, with their
#: histograms and autocorrelations. A long run fits when thinned.
MAX_KEPT_SAMPLES = 4_000_000

#: Per verb: its help line, its inputs (the flags naming what it reads,
#: each required, from the command line or ``--config``) and its options,
#: which the manifest records as ``parameters``.
VERBS = {
    "gen-synthetic": ("generate follower trajectories from known parameters", (), (
        Option("--n-vehicles", int, 50, low=0, high=MAX_N_VEHICLES,
               help=f"at most {MAX_N_VEHICLES}"),
        Option("--n-obs", int, 200, high=MAX_N_OBS,
               help=f"samples per trajectory, at most {MAX_N_OBS}"),
        Option("--dt", float, 0.1),
        Option("--noise-sigma", float, DEFAULT_NOISE_SIGMA, low=0),
        Option("--params", _parse_params, DEFAULT_PARAMS,
               help="six comma-separated values"),
    )),
    "calibrate": ("fit driver parameters to trajectory files", (
        Option("--data", _paths, nargs="+",
               help="trajectory CSV files or directories of them"),
    ), (
        Option("--n-iter", int, 20000),
        Option("--burn-in", int),
        Option("--thin", int, 1),
        Option("--noise-sigma", float, DEFAULT_NOISE_SIGMA),
        Option("--objective", str, "one-step", choices=("one-step", "rollout")),
        Option("--pin-delta", _parse_pin,
               help="freeze the exponent at this value (calibrated by default)"),
        Option("--max-lag", int, 50, low=0),
        Option("--n-bins", int, 20, low=1, high=MAX_N_BINS,
               help=f"posterior histogram bins per parameter, at most {MAX_N_BINS}"),
    )),
    "sample-params": ("draw parameter sets from posterior histograms", (), (
        Option("--histograms", str, "highway",
               help="histogram JSON path, or a scenario kind for the bundled defaults"),
        Option("--n", int, 100, low=0),
    )),
    "build-demand": ("generate a demand file for a road network", (
        Option("--network", help="road network JSON"),
    ), (
        Option("--histograms", str, "highway"),
        Option("--n-vehicles", int, 50, low=0, high=MAX_N_VEHICLES,
               help=f"at most {MAX_N_VEHICLES}"),
        Option("--mean-headway", float, DEFAULT_MEAN_HEADWAY),
        Option("--n-routes", int, 4, low=1, high=MAX_N_ROUTES,
               help=f"at most {MAX_N_ROUTES}"),
    )),
    "simulate": ("run one environment episode", (
        Option("--scenario", help="scenario file, or a kind name to pick a bundled one"),
    ), (
        Option("--policy", str, "zero-action", choices=POLICY_NAMES),
        Option("--policy-cmd", help="command line for the external-stdio policy"),
        Option("--max-steps", int, help="override the scenario step budget"),
        Option("--params", _parse_params, DEFAULT_PARAMS,
               help="parameters for the builtin-idm-ego policy"),
    )),
}


def _resolve(args) -> None:
    """Leave on ``args`` every flag of the verb, inputs included, defaulted,
    converted and checked, whether it came from the command line or from
    ``--config``; the command line wins. A number may be ``nan`` or ``inf``
    here; the verb decides."""
    config = {}
    if args.config is not None:
        raw = read_json_object(args.config, ConfigurationError, "config must be a JSON object")
        # Keys of other verbs are accepted, so one file can serve the pipeline.
        known = {SEED.dest} | {opt.dest for _, inputs, options in VERBS.values()
                               for opt in inputs + options}
        spelling = {}
        for key, value in raw.items():
            dest = key.replace("-", "_")
            if dest not in known:
                raise ConfigurationError(f"{args.config}: no verb has an option {key!r}")
            if dest in spelling:
                raise ConfigurationError(f"{args.config}: keys {spelling[dest]!r} and "
                                         f"{key!r} set the same option")
            spelling[dest] = key
            config[dest] = value
    _, inputs, options = VERBS[args.command]
    for opt in (SEED,) + inputs + options:
        value = getattr(args, opt.dest)
        if value is None:
            value = config.get(opt.dest)
        if value is None:
            value = opt.default
        if value is not None:
            value = (checked(opt.kind, value, opt.dest, ConfigurationError, finite=False)
                     if opt.kind in (int, float) else opt.kind(value))
            if opt.choices is not None and value not in opt.choices:
                raise ConfigurationError(
                    f"{opt.dest} must be one of {', '.join(opt.choices)}, got {value!r}")
            if opt.low is not None and value < opt.low:
                what = "an integer >= " if opt is SEED else ">= "
                raise InputDomainError(f"{opt.dest} must be {what}{opt.low}, got {value}")
            if opt.high is not None and value > opt.high:
                raise InputDomainError(f"{opt.dest} must be <= {opt.high}, got {value}")
        setattr(args, opt.dest, value)
    for opt in inputs:
        if getattr(args, opt.dest) is None:
            raise ConfigurationError(f"{args.command} needs {opt.flag}")


def _write_manifest(args, out: Path, inputs=()) -> None:
    """``manifest.json``: the inputs, the seed and every resolved option,
    enough to repeat the run exactly."""
    parameters = {}
    for opt in VERBS[args.command][2]:
        value = getattr(args, opt.dest)
        parameters[opt.dest] = value.as_dict() if isinstance(value, ParamSet) else value
    manifest = {"command": args.command, "inputs": [str(p) for p in inputs],
                "seed": args.seed, "out_dir": str(args.out), "version": __version__,
                "parameters": parameters}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_histogram_arg(source):
    """A scenario kind name picks the bundled defaults; anything else is a
    path. A histogram must cover every parameter, checked before ``--out``
    exists."""
    if str(source) in SCENARIO_KINDS:
        return default_histograms(str(source))
    hists = load_histograms(source)
    for name in PARAM_NAMES:
        if name not in hists:
            raise ConfigurationError(f"{source}: missing histogram for parameter {name!r}")
    return hists


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

    The law runs on the floats the policy holds (``_kernels._idm_accel``
    on ``ParamSet.law``). Where it gives a non-finite acceleration or the
    closing speed is not finite, ``act`` raises the error of the checked
    path (``FollowingState``, ``idm_acceleration``).
    """

    def __init__(self, params: ParamSet, v0: float, dt: float, half_lane_width: float):
        self.params = params
        self.dt = float(dt)
        self.half_width = float(half_lane_width)
        self._v = float(v0)
        self._law = params.law

    def act(self, obs) -> Action:
        leader = None
        for row in np.asarray(obs)[0::2].tolist():
            if row[0] != 1.0 or row[1] <= 0.0 or abs(row[2]) >= self.half_width:
                continue
            if leader is None or row[1] < leader[1]:
                leader = row
        v = max(self._v, 0.0)
        if leader is None:
            dv, gap = 0.0, math.inf
        else:
            dv, gap = -leader[3], max(leader[1] - DEFAULT_VEHICLE_LENGTH, 1e-3)
        a = _kernels._idm_accel(*self._law, v, dv, gap)
        if not (math.isfinite(a) and math.isfinite(dv)):
            a = idm_acceleration(self.params, FollowingState(v=v, delta_v=dv, d_front=gap))
        self._v += a * self.dt
        return Action(a, 0.0)

    def close(self) -> None:
        pass


class ExternalStdioPolicy:
    """Line protocol to a child process: one flattened observation out
    (comma-separated decimals, LF), one ``a_long,a_lat`` line back. Writing
    the observation and reading the reply share one deadline of
    ``POLICY_REPLY_TIMEOUT_S`` seconds per step."""

    def __init__(self, command: str):
        try:
            argv = shlex.split(command or "")
        except ValueError as exc:
            raise ConfigurationError(f"--policy-cmd {command!r}: {exc}") from None
        if not argv:
            raise ConfigurationError("external-stdio policy needs --policy-cmd")
        self._proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        # A child that stops reading must not block the write past the deadline.
        os.set_blocking(self._proc.stdin.fileno(), False)
        self._pending = b""
        self._stalled = False

    def act(self, obs) -> Action:
        line = ",".join(repr(float(x)) for x in np.asarray(obs).ravel())
        reply = self._exchange(line.encode() + b"\n")
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

    def _exchange(self, data: bytes) -> str:
        """Write ``data``, then return the next reply line, or what is left
        ("" if nothing) once the policy closed its output."""
        deadline = time.monotonic() + POLICY_REPLY_TIMEOUT_S
        stdin, stdout = self._proc.stdin.fileno(), self._proc.stdout.fileno()
        data = memoryview(data)
        with selectors.DefaultSelector() as selector:
            selector.register(stdin, selectors.EVENT_WRITE)
            while data:
                self._wait(selector, deadline, "policy process did not read its observation")
                try:
                    data = data[os.write(stdin, data):]
                except BlockingIOError:
                    pass
                except OSError as exc:
                    raise PolicyProtocolError(f"pipe to policy process broke: {exc}") from None
            selector.unregister(stdin)
            selector.register(stdout, selectors.EVENT_READ)
            while b"\n" not in self._pending:
                self._wait(selector, deadline, "no reply from policy process")
                try:
                    chunk = os.read(stdout, 65536)
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

    def _wait(self, selector, deadline: float, stall: str) -> None:
        """Wait for the pipe; at the deadline mark the child stalled and raise."""
        remaining = deadline - time.monotonic()
        if remaining <= 0.0 or not selector.select(remaining):
            self._stalled = True
            raise PolicyProtocolError(f"{stall} within {POLICY_REPLY_TIMEOUT_S:g} s")

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
    # synthetic_trajectory checks these too, but only once --out exists.
    if args.n_obs < 2 or not (math.isfinite(args.dt) and args.dt > 0):
        raise InputDomainError(f"need n_obs >= 2 and finite dt > 0, got {args.n_obs}, {args.dt!r}")
    checked(float, args.noise_sigma, "noise_sigma", low=0.0)
    out = _out_dir(args)
    children = np.random.SeedSequence(args.seed).spawn(args.n_vehicles)
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        traj = synthetic_trajectory(args.params, rng, n_obs=args.n_obs, dt=args.dt,
                                    noise_sigma=args.noise_sigma)
        traj.to_csv(out / f"veh_{i:04d}.csv")
    (out / "true_params.json").write_text(json.dumps(
        {"params": args.params.as_dict(), "noise_sigma": args.noise_sigma, "dt": args.dt},
        indent=2, sort_keys=True) + "\n")
    _write_manifest(args, out)
    print(f"wrote {args.n_vehicles} trajectories to {out}")
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
    files = _expand_data_args(args.data)
    if not files:
        raise ConfigurationError("no trajectory files found under --data")
    # Each file's outputs are named by its stem, so a repeat would overwrite.
    by_stem = {}
    for path in files:
        other = by_stem.setdefault(path.stem, path)
        if other is not path:
            raise ConfigurationError(
                f"--data {other} and {path} share the stem {path.stem!r}, "
                "which names their outputs")
    master = np.random.default_rng(args.seed)
    sigma = default_proposal_sigma()
    theta_init = 0.5 * (DEFAULT_PRIOR_LO + DEFAULT_PRIOR_HI)

    targets, cfgs = [], []
    for path in files:
        traj = Trajectory.from_csv(path)
        targets.append(TargetDensity(traj, noise_sigma=args.noise_sigma,
                                     objective=args.objective))
        cfgs.append(ProposalConfig(sigma_prop=sigma, n_iter=args.n_iter,
                                   seed=int(master.integers(2 ** 63)),
                                   burn_in=args.burn_in, thin=args.thin,
                                   pin_delta=args.pin_delta))
    n_kept = cfgs[0].n_kept
    if len(files) * n_kept > MAX_KEPT_SAMPLES:
        raise InputDomainError(
            f"calibrate would keep {n_kept} samples for each of {len(files)} files, "
            f"more than {MAX_KEPT_SAMPLES} in all; raise --thin or --burn-in")
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

    save_histograms(pooled_histograms(chains.values(), args.n_bins),
                    out / "posterior.json")
    _write_acf_table(out / "diagnostics.csv", chains, args.max_lag)
    (out / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n")
    _write_manifest(args, out, files)
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
            rows = zip(*(c.tolist() for c in cols))
            fh.write("".join(f"{stem},{lag},{','.join(map(repr, row))}\n"
                             for lag, row in enumerate(rows)))


def cmd_sample_params(args) -> int:
    hists = _load_histogram_arg(args.histograms)
    out = _out_dir(args)
    rng = np.random.default_rng(args.seed)
    path = out / "params.csv"
    with path.open("w", newline="") as fh:
        fh.write(",".join(PARAM_NAMES) + "\n")
        for _ in range(args.n):
            p = sample_param_set(hists, rng)
            fh.write(",".join(repr(getattr(p, name)) for name in PARAM_NAMES) + "\n")
    _write_manifest(args, out, (args.histograms,))
    print(f"wrote {args.n} parameter rows to {path}")
    return 0


def cmd_build_demand(args) -> int:
    net = load_network(args.network)
    hists = _load_histogram_arg(args.histograms)
    rng = np.random.default_rng(args.seed)
    demand = build_demand(net, hists, args.n_vehicles, rng,
                          mean_headway=args.mean_headway, n_routes=args.n_routes)
    out = _out_dir(args)
    save_demand(demand, out / "demand.json")
    _write_manifest(args, out, (args.network, args.histograms))
    print(f"wrote demand for {args.n_vehicles} vehicles to {out / 'demand.json'}")
    return 0


def _make_policy(args, scenario):
    if args.policy == "zero-action":
        return ZeroActionPolicy()
    if args.policy == "builtin-idm-ego":
        half_width = scenario.network.lanes[scenario.ego_lane].width / 2.0
        return BuiltinIdmEgoPolicy(args.params, v0=scenario.ego_speed,
                                   dt=scenario.dt, half_lane_width=half_width)
    return ExternalStdioPolicy(args.policy_cmd)


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario, rng=np.random.default_rng(args.seed))
    if args.max_steps is not None:
        scenario = replace(scenario, max_steps=args.max_steps)

    cause_override = None
    with closing(_make_policy(args, scenario)) as policy:
        out = _out_dir(args)
        with closing(TrafficEnv(scenario, trace_path=out / "trace.csv")) as env:
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

    summary = env.episode_summary()
    if cause_override is not None:
        summary["cause"] = cause_override
    (out / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n")
    _write_manifest(args, out, (args.scenario,))
    print(f"cause={summary['cause']} steps={summary['steps']} "
          f"collisions_logged={summary['collisions_logged']}")
    return 0


# -- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="microtraffic",
        description="calibrated microscopic traffic simulation toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, inputs, options) in VERBS.items():
        p = subs.add_parser(name, help=help_text)
        # No argparse default: a flag left off the command line stays None,
        # so --config can fill it before _resolve converts it.
        for opt in inputs + options + (SEED,):
            shown = "" if opt.default is None else f" (default {opt.default})"
            p.add_argument(opt.flag, nargs=opt.nargs, choices=opt.choices,
                           help=(opt.help + shown).strip() or None)
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--config", default=None,
                       help="JSON file supplying values for omitted flags")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Huge but finite inputs can overflow inside numpy, whose warnings would
    # reach stderr ahead of the one error line. Silencing them changes no
    # value; the library itself keeps numpy's default.
    try:
        with np.errstate(all="ignore"):
            _resolve(args)
            # Looked up by name at call time, so a replaced module attribute
            # (a tracer's wrapper, a test double) is the function that runs.
            return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (MicrotrafficError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
