"""End-to-end checks of the command-line verbs and the policy classes."""

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from microtraffic import Action, ParamSet, TrafficEnv, Trajectory, calibration, cli
from microtraffic.calibration import MAX_KEPT_SAMPLES, calibrate
from microtraffic.cli import (DEFAULT_PARAMS, POLICY_NAMES, BuiltinIdmEgoPolicy,
                              ExternalStdioPolicy, ZeroActionPolicy,
                              _parse_params, _parse_pin, main)
from microtraffic.errors import ConfigurationError, PolicyProtocolError
from microtraffic.histogram import load_histograms, save_histograms
from microtraffic.idm import (PARAM_NAMES, FollowingState, idm_acceleration,
                              rmse_objective)
from microtraffic.network import _bundled_library, load_network, load_scenario
from microtraffic.population import default_histograms, load_demand

from conftest import THETA_STAR, IdmEgoPolicyReference, child_env, write_scenario_files

TABLE_MEANS = {"a_max": 1.2, "a_comf": 2.0, "v_des": 29.7,
               "d_min": 63.9, "T": 2.0, "delta": 4.0}


def run_cli(*argv):
    return main([str(a) for a in argv])


def read_bytes_snapshot(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def read_manifest(out):
    return json.loads((out / "manifest.json").read_text())


# -- parsing helpers ---------------------------------------------------------


def test_parse_params_round_trip():
    assert _parse_params(DEFAULT_PARAMS) == THETA_STAR
    assert _parse_params(" 1, 2 ,3,4,5,6 ") == ParamSet(1, 2, 3, 4, 5, 6)


def test_parse_params_wants_six_values():
    with pytest.raises(ConfigurationError, match="6 comma-separated"):
        _parse_params("1,2")


@pytest.mark.parametrize("text, expected", [
    (None, None), ("none", None), ("None", None), ("NONE", None),
    ("4", 4.0), ("4.5", 4.5),
])
def test_parse_pin(text, expected):
    assert _parse_pin(text) == expected


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--version")
    assert exc.value.code == 0


def test_subcommand_required():
    with pytest.raises(SystemExit) as exc:
        run_cli()
    assert exc.value.code == 2


# -- gen-synthetic -----------------------------------------------------------


def test_calls_in_one_process_match_separate_calls(tmp_path, capsys):
    # Two verbs, then the first again without the flags it had: in one
    # process, each call writes and prints what it does in a process alone.
    calls = [("gen-synthetic", "--n-vehicles", 2, "--n-obs", 30, "--dt", 0.2,
              "--noise-sigma", 0.1, "--seed", 3),
             ("sample-params", "--n", 5, "--seed", 4),
             ("gen-synthetic", "--n-vehicles", 3, "--n-obs", 20)]
    outs = [tmp_path / f"run{k}" for k in range(len(calls))]
    alone = []
    for argv, out in zip(calls, outs):
        proc = _child_cli(*argv, "--out", out)
        assert (proc.returncode, proc.stderr) == (0, "")
        alone.append((proc.stdout, read_bytes_snapshot(out)))
        shutil.rmtree(out)
    parsers = []
    for argv, out, (stdout, files) in zip(calls, outs, alone):
        assert run_cli(*argv, "--out", out) == 0
        assert capsys.readouterr().out == stdout
        assert read_bytes_snapshot(out) == files
        parsers.append(cli._PARSER)
    assert parsers[0] is not None and parsers.count(parsers[0]) == len(calls)


def test_gen_synthetic_outputs(tmp_path, capsys):
    out = tmp_path / "data"
    rc = run_cli("gen-synthetic", "--seed", 3, "--n-vehicles", 3,
                 "--n-obs", 40, "--noise-sigma", 0.0, "--out", out)
    assert rc == 0
    assert "wrote 3 trajectories" in capsys.readouterr().out
    names = sorted(p.name for p in out.iterdir())
    assert names == ["manifest.json", "true_params.json",
                     "veh_0000.csv", "veh_0001.csv", "veh_0002.csv"]

    truth = json.loads((out / "true_params.json").read_text())
    assert truth["params"] == THETA_STAR.as_dict()
    assert truth["noise_sigma"] == 0.0
    assert truth["dt"] == 0.1

    manifest = read_manifest(out)
    assert manifest["command"] == "gen-synthetic"
    assert manifest["seed"] == 3
    assert manifest["parameters"]["n_vehicles"] == 3

    traj = Trajectory.from_csv(out / "veh_0000.csv")
    assert len(traj) == 40
    assert rmse_objective(traj, THETA_STAR) == 0.0


def test_gen_synthetic_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "data"
    argv = ("gen-synthetic", "--seed", 11, "--n-vehicles", 2,
            "--n-obs", 30, "--out", out)
    assert run_cli(*argv) == 0
    first = read_bytes_snapshot(out)
    assert run_cli(*argv) == 0
    assert read_bytes_snapshot(out) == first


def test_gen_synthetic_seed_changes_output(tmp_path):
    for seed in (1, 2):
        run_cli("gen-synthetic", "--seed", seed, "--n-vehicles", 1,
                "--n-obs", 30, "--out", tmp_path / f"s{seed}")
    a = (tmp_path / "s1" / "veh_0000.csv").read_bytes()
    b = (tmp_path / "s2" / "veh_0000.csv").read_bytes()
    assert a != b


@pytest.mark.parametrize("flags, message", [
    (("--params", "1e-170,1e-170,30,2,1,4"), "desired gap is not finite"),
    (("--n-vehicles", -1), "n_vehicles must be >= 0"),
    (("--dt", "nan"), "finite dt > 0"),
    (("--params", "1,2,x,4,5,6"), "--params value must be a number, got 'x'"),
])
def test_gen_synthetic_bad_input_reports_cleanly(tmp_path, capsys, flags, message):
    rc = run_cli("gen-synthetic", "--n-vehicles", 1, *flags, "--out", tmp_path / "d")
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("flags, message", [
    (("--dt", "nan"), "need n_obs >= 2 and finite dt > 0, got 200, nan"),
    (("--dt", 0), "need n_obs >= 2 and finite dt > 0, got 200, 0.0"),
    (("--n-obs", 1), "need n_obs >= 2 and finite dt > 0, got 1, 0.1"),
    (("--noise-sigma", -1), "noise_sigma must be >= 0, got -1.0"),
    (("--noise-sigma", "nan"), "noise_sigma must be finite and >= 0, got nan"),
    (("--n-obs", 10**23), f"n_obs must be <= 1000000, got {10**23}"),
    (("--n-vehicles", 10**12), f"n_vehicles must be <= {cli.MAX_N_VEHICLES}, got {10**12}"),
])
def test_gen_synthetic_bad_generation_input_makes_no_out_dir(tmp_path, capsys, flags,
                                                             message):
    out = tmp_path / "g"
    rc = run_cli("gen-synthetic", "--n-vehicles", 1, *flags, "--out", out)
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# -- calibrate ---------------------------------------------------------------


@pytest.fixture(scope="module")
def synthetic_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synthetic")
    run_cli("gen-synthetic", "--seed", 9, "--n-vehicles", 2,
            "--n-obs", 60, "--noise-sigma", 0.1, "--out", out)
    return out


def test_calibrate_outputs(tmp_path, synthetic_dir, capsys):
    out = tmp_path / "calib"
    rc = run_cli("calibrate", "--data", synthetic_dir, "--n-iter", 400,
                 "--burn-in", 100, "--thin", 2, "--max-lag", 10,
                 "--n-bins", 8, "--pin-delta", 4, "--seed", 1, "--out", out)
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "veh_0000: acceptance_rate=" in stdout
    assert "veh_0001: acceptance_rate=" in stdout

    n_kept = len(range(100, 400, 2))
    for stem in ("veh_0000", "veh_0001"):
        lines = (out / f"{stem}.chain.csv").read_text().splitlines()
        assert lines[0] == "iter," + ",".join(PARAM_NAMES) + ",log_target,accepted"
        assert len(lines) == n_kept + 1

    summary = json.loads((out / "summary.json").read_text())
    assert sorted(summary) == ["veh_0000", "veh_0001"]
    for entry in summary.values():
        assert 0.0 <= entry["acceptance_rate"] <= 1.0
        assert sorted(entry["posterior_mean"]) == sorted(PARAM_NAMES)
        assert entry["posterior_mean"]["delta"] == 4.0

    hists = load_histograms(out / "posterior.json")
    assert sorted(hists) == sorted(PARAM_NAMES)
    lo, hi = hists["delta"].support
    assert lo == pytest.approx(4.0, abs=1e-6)
    assert hi > lo

    manifest = read_manifest(out)
    assert manifest["parameters"]["pin_delta"] == 4.0
    assert manifest["parameters"]["n_iter"] == 400
    assert len(manifest["inputs"]) == 2


def test_calibrate_diagnostics_table(tmp_path, synthetic_dir):
    out = tmp_path / "calib"
    run_cli("calibrate", "--data", synthetic_dir, "--n-iter", 200,
            "--burn-in", 50, "--max-lag", 10, "--pin-delta", 4,
            "--seed", 1, "--out", out)
    lines = (out / "diagnostics.csv").read_text().splitlines()
    assert lines[0] == "file,lag," + ",".join(PARAM_NAMES)
    assert len(lines) == 1 + 2 * 11

    by_key = {}
    for line in lines[1:]:
        parts = line.split(",")
        by_key[(parts[0], int(parts[1]))] = [float(x) for x in parts[2:]]
    for stem in ("veh_0000", "veh_0001"):
        assert by_key[(stem, 0)] == [1.0] * len(PARAM_NAMES)
        assert math.isnan(by_key[(stem, 1)][PARAM_NAMES.index("delta")])
        assert math.isfinite(by_key[(stem, 1)][PARAM_NAMES.index("v_des")])


def test_calibrate_accepts_explicit_file_list(tmp_path, synthetic_dir):
    out = tmp_path / "one"
    rc = run_cli("calibrate", "--data", synthetic_dir / "veh_0001.csv",
                 "--n-iter", 60, "--seed", 0, "--out", out)
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert sorted(summary) == ["veh_0001"]


@pytest.mark.parametrize("twice", [False, True])
def test_calibrate_rejects_inputs_sharing_a_stem(tmp_path, capsys, twice):
    # Each file's chain, summary entry and diagnostics rows are named by its stem.
    first, second = tmp_path / "a", tmp_path / "b"
    for seed, out in ((1, first), (2, second)):
        assert run_cli("gen-synthetic", "--seed", seed, "--n-vehicles", 2,
                       "--n-obs", 30, "--out", out) == 0
    capsys.readouterr()
    if twice:
        data = (first / "veh_0001.csv",) * 2
        one, other = data
    else:
        data = (first, second)
        one, other = first / "veh_0000.csv", second / "veh_0000.csv"
    out = tmp_path / "calib"
    rc = run_cli("calibrate", "--data", *data, "--n-iter", 50, "--out", out)
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: --data {one} and {other} share the stem {one.stem!r}, "
        "which names their outputs\n")
    assert not out.exists()


def test_calibrate_empty_data_dir_fails(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    rc = run_cli("calibrate", "--data", empty, "--out", tmp_path / "out")
    assert rc == 2
    assert "error: no trajectory files found" in capsys.readouterr().err


def test_calibrate_malformed_csv_names_row(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,v_ego,v_leader,gap,a_obs\n"
                   "0.0,20.0,20.0,30.0,0.1\n"
                   "0.1,oops,20.0,30.0,0.1\n")
    rc = run_cli("calibrate", "--data", bad, "--n-iter", 40,
                 "--out", tmp_path / "out")
    assert rc == 2
    assert "row 3" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (("--max-lag", -1), "max_lag must be >= 0, got -1"),
    (("--n-bins", 0), "n_bins must be >= 1, got 0"),
    (("--n-bins", cli.MAX_N_BINS + 1),
     f"n_bins must be <= {cli.MAX_N_BINS}, got {cli.MAX_N_BINS + 1}"),
    (("--n-iter", 10**12), f"calibrate would keep {8 * 10**11} samples for each of 2 "
     f"files, more than {MAX_KEPT_SAMPLES} in all; raise thin or burn_in "
     "(--thin or --burn-in)"),
    (("--n-iter", MAX_KEPT_SAMPLES // 2 + 1, "--burn-in", 0),
     f"calibrate would keep {MAX_KEPT_SAMPLES // 2 + 1} samples for each of 2 "
     f"files, more than {MAX_KEPT_SAMPLES} in all; raise thin or burn_in "
     "(--thin or --burn-in)"),
])
def test_calibrate_checks_diagnostic_options_before_any_chain(
        tmp_path, synthetic_dir, capsys, monkeypatch, flags, message):
    def no_chains(*args):
        raise AssertionError("chains ran before the options were checked")

    monkeypatch.setattr(calibration, "run_chains", no_chains)
    out = tmp_path / "calib"
    rc = run_cli("calibrate", "--data", synthetic_dir, "--n-iter", 50, *flags,
                 "--out", out)
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_calibrate_checks_the_schedule_before_reading_any_file(tmp_path, synthetic_dir,
                                                               capsys):
    data = tmp_path / "D"
    shutil.copytree(synthetic_dir, data)
    (data / "veh_0009.csv").write_text("t,v_ego,v_leader,gap,a_obs\n0.0,oops,20.0,30.0,0.1\n")
    out = tmp_path / "calib"
    rc = run_cli("calibrate", "--data", data, "--n-iter", 10, "--burn-in", 20, "--out", out)
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: burn_in must satisfy 0 <= burn_in < n_iter, got 20\n")
    assert not out.exists()
    # With a valid schedule the malformed file is what fails.
    assert run_cli("calibrate", "--data", data, "--n-iter", 30, "--out", out) == 2
    assert "veh_0009.csv" in capsys.readouterr().err
    assert not out.exists()


def test_calibrate_checks_kept_samples_before_reading_any_file(tmp_path, synthetic_dir,
                                                               capsys, monkeypatch):
    def unread(path):
        raise AssertionError(f"{path} was parsed before the kept samples were checked")

    data = tmp_path / "D"
    shutil.copytree(synthetic_dir, data)
    (data / "veh_0009.csv").write_text("t,v_ego,v_leader,gap,a_obs\n0.0,oops,20.0,30.0,0.1\n")
    monkeypatch.setattr(Trajectory, "from_csv", unread)
    out = tmp_path / "calib"
    rc = run_cli("calibrate", "--data", data, "--n-iter", 10**12, "--burn-in", 0, "--out", out)
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: calibrate would keep {10**12} samples for each of 3 files, more than "
        f"{MAX_KEPT_SAMPLES} in all; raise thin or burn_in (--thin or --burn-in)\n")
    assert not out.exists()


@pytest.mark.parametrize("objective", ["one-step", "rollout"])
def test_calibrate_function_gives_the_chains_the_verb_writes(tmp_path, synthetic_dir,
                                                            objective):
    out = tmp_path / "calib"
    assert run_cli("calibrate", "--data", synthetic_dir, "--n-iter", 60, "--burn-in", 10,
                   "--thin", 3, "--objective", objective, "--seed", 5, "--out", out) == 0
    files = sorted(synthetic_dir.glob("*.csv"))
    chains = calibrate([Trajectory.from_csv(path) for path in files], seed=5, n_iter=60,
                       burn_in=10, thin=3, noise_sigma=calibration.DEFAULT_NOISE_SIGMA,
                       objective=objective, pin_delta=None)
    assert len(chains) == len(files) == 2
    for path, chain in zip(files, chains):
        lines = (out / f"{path.stem}.chain.csv").read_text().splitlines()[1:]
        assert len(lines) == len(chain) == 17
        for line, it, theta, logp, acc in zip(lines, chain.iterations.tolist(),
                                              chain.samples.tolist(),
                                              chain.log_targets.tolist(),
                                              chain.accepted.tolist()):
            fields = line.split(",")
            assert int(fields[0]) == it and int(fields[-1]) == acc
            assert [float(x).hex() for x in fields[1:-1]] == [
                x.hex() for x in theta + [logp]]


def test_calibrate_sampler_error_leaves_no_out_dir(tmp_path, synthetic_dir, capsys):
    # delta pinned above the prior box puts the initial point outside it.
    out = tmp_path / "calib"
    rc = run_cli("calibrate", "--data", synthetic_dir, "--n-iter", 10,
                 "--pin-delta", 20, "--out", out)
    assert rc == 2
    assert capsys.readouterr().err == "error: initial point has zero target density\n"
    assert not out.exists()


@pytest.mark.parametrize("sigma", ["1e308", "1e-200"])
def test_calibrate_noise_sigma_without_a_positive_float_square_reports_cleanly(
        tmp_path, synthetic_dir, capsys, sigma):
    # sigma ** 2 overflows, or underflows to 0, in the likelihood's scale.
    out = tmp_path / "calib"
    rc = run_cli("calibrate", "--data", synthetic_dir, "--n-iter", 10,
                 "--noise-sigma", sigma, "--out", out)
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: noise_sigma must have a finite, nonzero square, got {float(sigma)!r}\n")
    assert not out.exists()


def test_calibrate_help_states_n_bins_ceiling(capsys):
    assert cli.MAX_N_BINS <= 10_000
    with pytest.raises(SystemExit):
        cli.main(["calibrate", "--help"])
    assert f"at most {cli.MAX_N_BINS}" in " ".join(capsys.readouterr().out.split())


# -- sample-params -----------------------------------------------------------


def test_sample_params_from_bundled_highway(tmp_path):
    out = tmp_path / "draws"
    rc = run_cli("sample-params", "--n", 25, "--seed", 5, "--out", out)
    assert rc == 0
    lines = (out / "params.csv").read_text().splitlines()
    assert lines[0] == ",".join(PARAM_NAMES)
    assert len(lines) == 26
    for line in lines[1:]:
        row = dict(zip(PARAM_NAMES, map(float, line.split(","))))
        for name, mean in TABLE_MEANS.items():
            assert mean * 0.975 <= row[name] < mean * 1.025
    manifest = read_manifest(out)
    assert manifest["command"] == "sample-params"
    assert manifest["inputs"] == ["highway"]


def test_sample_params_zero_rows(tmp_path):
    out = tmp_path / "none"
    assert run_cli("sample-params", "--n", 0, "--out", out) == 0
    assert (out / "params.csv").read_text() == ",".join(PARAM_NAMES) + "\n"


def test_sample_params_negative_count_reports_cleanly(tmp_path, capsys):
    out = tmp_path / "p"
    rc = run_cli("sample-params", "--n", -1, "--out", out)
    assert rc == 2
    assert capsys.readouterr().err == "error: n must be >= 0, got -1\n"
    assert not out.exists()


def test_sample_params_from_histogram_file(tmp_path):
    hist_path = tmp_path / "urban.json"
    save_histograms(default_histograms("urban"), hist_path)
    out = tmp_path / "draws"
    rc = run_cli("sample-params", "--histograms", hist_path, "--n", 40,
                 "--seed", 2, "--out", out)
    assert rc == 0
    lines = (out / "params.csv").read_text().splitlines()[1:]
    v_des = [float(line.split(",")[PARAM_NAMES.index("v_des")]) for line in lines]
    assert all(17.0 <= v < 21.0 for v in v_des)


# -- build-demand ------------------------------------------------------------


def test_build_demand_requires_network(tmp_path, capsys):
    rc = run_cli("build-demand", "--out", tmp_path / "out")
    assert rc == 2
    assert "needs --network" in capsys.readouterr().err


def test_build_demand_outputs(tmp_path):
    write_scenario_files(tmp_path, n_lanes=2)
    out = tmp_path / "demand"
    rc = run_cli("build-demand", "--network", tmp_path / "net.json",
                 "--n-vehicles", 12, "--n-routes", 2, "--mean-headway", 2.0,
                 "--seed", 8, "--out", out)
    assert rc == 0
    demand = load_demand(out / "demand.json")
    assert len(demand.vehicles) == 12
    demand.validate_against(load_network(tmp_path / "net.json"))
    departs = [v.depart for v in demand.vehicles]
    assert departs == sorted(departs)
    manifest = read_manifest(out)
    assert str(tmp_path / "net.json") in manifest["inputs"]


# -- simulate ----------------------------------------------------------------


def test_simulate_zero_action(tmp_path, capsys):
    scenario = write_scenario_files(tmp_path, max_steps=30, ego_speed=5.0)
    out = tmp_path / "run"
    rc = run_cli("simulate", "--scenario", scenario, "--seed", 0, "--out", out)
    assert rc == 0
    assert "cause=max_steps steps=30" in capsys.readouterr().out

    summary = json.loads((out / "summary.json").read_text())
    assert summary["cause"] == "max_steps"
    assert summary["steps"] == 30
    assert summary["collisions_logged"] == 0
    assert summary["ego_final"]["v"] == 5.0

    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == "step,id,x,y,heading,v"
    assert len(trace) == 1 + 30

    manifest = read_manifest(out)
    assert manifest["parameters"]["policy"] == "zero-action"


def test_simulate_rerun_is_byte_identical(tmp_path):
    scenario = write_scenario_files(tmp_path, max_steps=25, ego_speed=3.0)
    out = tmp_path / "run"
    argv = ("simulate", "--scenario", scenario, "--seed", 4, "--out", out)
    assert run_cli(*argv) == 0
    first = read_bytes_snapshot(out)
    assert run_cli(*argv) == 0
    assert read_bytes_snapshot(out) == first


def test_simulate_builtin_idm_avoids_parked_leader(tmp_path):
    parked = {"a_max": 1e-9, "a_comf": 5.0, "v_des": 1e-9,
              "d_min": 10.0, "T": 2.0, "delta": 4.0}
    scenario = write_scenario_files(
        tmp_path, max_steps=400, ego_speed=20.0,
        vehicles=[{"id": "slow", "route": "r0", "depart": 0.0,
                   "params": parked, "length": 5.0, "depart_s": 300.0}])
    out = tmp_path / "run"
    rc = run_cli("simulate", "--scenario", scenario, "--policy",
                 "builtin-idm-ego", "--out", out)
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["cause"] == "max_steps"
    assert summary["collisions_logged"] == 0


def test_simulate_builtin_idm_params_flag(tmp_path):
    scenario = write_scenario_files(tmp_path, max_steps=200)
    out = tmp_path / "run"
    rc = run_cli("simulate", "--scenario", scenario, "--policy",
                 "builtin-idm-ego", "--params", "3,5,8,10,2,4", "--out", out)
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["cause"] == "max_steps"
    assert 7.5 < summary["ego_final"]["v"] <= 8.0


@pytest.mark.parametrize("params", [
    "1,1,1e-35,2,1,10",        # (v / v_des) ** delta overflows
    "1e-170,1e-170,30,2,1,4",  # a_max * a_comf underflows, b2 is 0
])
def test_simulate_builtin_idm_overflow_prints_only_the_error(tmp_path, params):
    out = _child_cli("simulate", "--scenario", "highway", "--max-steps", 5,
                     "--policy", "builtin-idm-ego", "--params", params,
                     "--out", tmp_path / "run")
    assert out.returncode == 2
    assert out.stderr.startswith("error: acceleration overflowed ")
    assert out.stderr.count("\n") == 1


def test_calibrate_on_a_huge_csv_value_prints_only_the_error(tmp_path):
    run_cli("gen-synthetic", "--seed", 2, "--n-vehicles", 1, "--n-obs", 20,
            "--out", tmp_path / "syn")
    lines = (tmp_path / "syn" / "veh_0000.csv").read_text().splitlines()
    row = lines[3].split(",")
    row[lines[0].split(",").index("v_ego")] = "1e308"
    lines[3] = ",".join(row)
    data = tmp_path / "huge.csv"
    data.write_text("\n".join(lines) + "\n")
    out = _child_cli("calibrate", "--data", data, "--n-iter", 20, "--out", tmp_path / "cal")
    assert (out.returncode, out.stderr) == (
        2, "error: initial point has zero target density\n")
    assert not (tmp_path / "cal").exists()


def test_simulate_with_overflowing_background_law_prints_nothing(tmp_path):
    files = _bundled_copy(tmp_path)
    for vehicle in files["demand"][1]["vehicles"]:
        vehicle["params"]["a_max"] = 1e300
    for target, payload in files.values():
        target.write_text(json.dumps(payload))
    out = _child_cli("simulate", "--scenario", files["scenario"][0], "--max-steps", 50,
                     "--out", tmp_path / "run")
    assert (out.returncode, out.stderr) == (0, "")


def _child_cli(*argv):
    """Run the CLI in a child process, so that stderr holds what a user
    sees, numpy's warnings included."""
    return subprocess.run(
        [sys.executable, "-W", "default", "-m", "microtraffic.cli", *map(str, argv)],
        env=child_env(), capture_output=True, text=True)


def _policy_script(tmp_path, body):
    script = tmp_path / "policy.py"
    script.write_text(body)
    return f"{sys.executable} {script}"


ECHO_BODY = """\
import sys
for line in sys.stdin:
    print("0.05,0.0", flush=True)
"""

BAD_REPLY_BODY = """\
import sys
sys.stdin.readline()
print("banana", flush=True)
"""


def test_simulate_external_stdio(tmp_path):
    scenario = write_scenario_files(tmp_path, max_steps=10)
    out = tmp_path / "run"
    rc = run_cli("simulate", "--scenario", scenario, "--policy",
                 "external-stdio", "--policy-cmd",
                 _policy_script(tmp_path, ECHO_BODY), "--out", out)
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["cause"] == "max_steps"
    assert summary["steps"] == 10
    assert summary["ego_final"]["v"] == pytest.approx(0.05, rel=1e-12)


def test_simulate_external_stdio_protocol_violation(tmp_path, capsys):
    scenario = write_scenario_files(tmp_path, max_steps=10)
    out = tmp_path / "run"
    rc = run_cli("simulate", "--scenario", scenario, "--policy",
                 "external-stdio", "--policy-cmd",
                 _policy_script(tmp_path, BAD_REPLY_BODY), "--out", out)
    assert rc == 0
    assert "policy protocol violation" in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["cause"] == "policy_error"
    assert summary["steps"] == 0
    assert (out / "trace.csv").read_text() == "step,id,x,y,heading,v\n"


def test_simulate_external_stdio_silent_policy(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "POLICY_REPLY_TIMEOUT_S", 0.2)
    scenario = write_scenario_files(tmp_path, max_steps=10)
    out = tmp_path / "run"
    start = time.monotonic()
    rc = run_cli("simulate", "--scenario", scenario, "--policy",
                 "external-stdio", "--policy-cmd", "sleep 1000", "--out", out)
    # close() kills the silent child instead of waiting out its 5 s grace
    assert time.monotonic() - start < 4.0
    assert rc == 0
    assert "no reply from policy process within 0.2 s" in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["cause"] == "policy_error"
    assert summary["steps"] == 0


def test_simulate_external_stdio_needs_command(tmp_path):
    scenario = write_scenario_files(tmp_path, max_steps=5)
    rc = run_cli("simulate", "--scenario", scenario, "--policy",
                 "external-stdio", "--out", tmp_path / "run")
    assert rc == 2


def test_simulate_bundled_kind_with_step_override(tmp_path):
    out = tmp_path / "run"
    rc = run_cli("simulate", "--scenario", "highway", "--max-steps", 5,
                 "--seed", 1, "--out", out)
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["cause"] == "max_steps"
    assert summary["steps"] == 5
    manifest = read_manifest(out)
    assert manifest["inputs"] == ["highway"]
    assert manifest["parameters"]["max_steps"] == 5


def test_simulate_unknown_scenario_source(tmp_path, capsys):
    rc = run_cli("simulate", "--scenario", "boulevard",
                 "--out", tmp_path / "run")
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_simulate_rejects_unknown_policy(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("simulate", "--scenario", "highway", "--policy", "psychic",
                "--out", tmp_path / "run")
    assert exc.value.code == 2


def test_simulate_requires_scenario(tmp_path, capsys):
    rc = run_cli("simulate", "--out", tmp_path / "run")
    assert rc == 2
    assert "needs --scenario" in capsys.readouterr().err


# -- config files ------------------------------------------------------------


def test_config_fills_missing_flags(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        {"n-vehicles": 2, "n_obs": 30, "noise-sigma": 0.0}))
    out = tmp_path / "data"
    rc = run_cli("gen-synthetic", "--seed", 1, "--config", config, "--out", out)
    assert rc == 0
    assert len(list(out.glob("veh_*.csv"))) == 2
    assert len((out / "veh_0000.csv").read_text().splitlines()) == 31


def test_config_does_not_override_cli_flags(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n-obs": 99, "n-vehicles": 1}))
    out = tmp_path / "data"
    rc = run_cli("gen-synthetic", "--n-obs", 25, "--config", config,
                 "--out", out)
    assert rc == 0
    assert len((out / "veh_0000.csv").read_text().splitlines()) == 26


@pytest.mark.parametrize("argv, config, message", [
    (("gen-synthetic",), {"n_vehicles": "abc"}, "n_vehicles must be an integer, got 'abc'"),
    (("gen-synthetic",), {"dt": "fast"}, "dt must be a number, got 'fast'"),
    (("calibrate", "--data", "veh.csv"), {"burn-in": "x"},
     "burn_in must be an integer, got 'x'"),
    (("calibrate", "--data", "veh.csv"), {"pin_delta": "four"},
     "pin_delta must be a number, got 'four'"),
    (("calibrate", "--data", "veh.csv"), {"max_lag": 1e400},
     "max_lag must be an integer, got inf"),
    (("sample-params",), {"n": [3]}, "n must be an integer, got [3]"),
    (("build-demand", "--network", "net.json"), {"mean_headway": "slow"},
     "mean_headway must be a number, got 'slow'"),
    (("simulate", "--scenario", "highway"), {"max_steps": "many"},
     "max_steps must be an integer, got 'many'"),
    (("simulate", "--scenario", "highway"), {"seed": "abc"},
     "seed must be an integer, got 'abc'"),
    (("sample-params",), {"n": 2.5}, "n must be an integer, got 2.5"),
])
def test_unconvertible_config_value_reports_cleanly(tmp_path, capsys, monkeypatch,
                                                    argv, config, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text(json.dumps(config))
    rc = run_cli(*argv, "--config", "c.json", "--out", tmp_path / "out")
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_config_key_no_verb_declares_reports_cleanly(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"n_vehicle": 2}))
    out = tmp_path / "g"
    rc = run_cli("gen-synthetic", "--config", config, "--out", out)
    assert rc == 2
    assert capsys.readouterr().err == f"error: {config}: no verb has an option 'n_vehicle'\n"
    assert not out.exists()


@pytest.mark.parametrize("keys", [("n_obs", "n-obs"), ("n-obs", "n_obs")])
def test_config_key_under_both_spellings_reports_cleanly(tmp_path, capsys, keys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({keys[0]: 5, keys[1]: 30}))
    out = tmp_path / "g"
    rc = run_cli("gen-synthetic", "--n-vehicles", 1, "--config", config, "--out", out)
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {config}: keys {keys[0]!r} and {keys[1]!r} set the same option\n")
    assert not out.exists()


@pytest.mark.parametrize("key", ["out", "config"])
def test_config_key_naming_no_option_value_reports_cleanly(tmp_path, capsys, key):
    # --out and --config are read from the command line only.
    config = tmp_path / "c.json"
    config.write_text(json.dumps({key: str(tmp_path / "elsewhere")}))
    out = tmp_path / "here"
    rc = run_cli("sample-params", "--config", config, "--out", out)
    assert rc == 2
    assert capsys.readouterr().err == f"error: {config}: no verb has an option {key!r}\n"
    assert not out.exists() and not (tmp_path / "elsewhere").exists()


def test_config_input_path_gives_way_to_command_line_data(tmp_path, synthetic_dir):
    # A --data on the command line wins over the config's value.
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"data": 5}))
    out = tmp_path / "calib"
    data = synthetic_dir / "veh_0000.csv"
    rc = run_cli("calibrate", "--data", data, "--n-iter", 20, "--config", config, "--out", out)
    assert rc == 0
    assert read_manifest(out)["inputs"] == [str(data)]


@pytest.mark.parametrize("as_list", [False, True])
def test_config_alone_supplies_calibrate_data(tmp_path, synthetic_dir, as_list):
    files = sorted(synthetic_dir.glob("*.csv"))
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"data": [str(p) for p in files] if as_list
                                  else str(synthetic_dir)}))
    out = tmp_path / "calib"
    assert run_cli("calibrate", "--n-iter", 20, "--config", config, "--out", out) == 0
    assert read_manifest(out)["inputs"] == [str(p) for p in files]
    # the same run as with --data on the command line
    direct = tmp_path / "direct"
    assert run_cli("calibrate", "--n-iter", 20, "--data", *files, "--out", direct) == 0
    for name in ("posterior.json", "summary.json", "veh_0000.chain.csv"):
        assert (out / name).read_bytes() == (direct / name).read_bytes()


def test_config_keys_of_other_verbs_are_accepted(tmp_path):
    # One file for the whole pipeline: each verb takes its own keys.
    config = tmp_path / "c.json"
    config.write_text(json.dumps({
        "n-vehicles": 2, "n_obs": 30, "n_iter": 40, "objective": "rollout",
        "data": ["elsewhere"], "network": "net.json", "n": 3,
        "scenario": "highway", "policy": "zero-action"}))
    out = tmp_path / "data"
    rc = run_cli("gen-synthetic", "--seed", 1, "--config", config, "--out", out)
    assert rc == 0
    assert len(list(out.glob("veh_*.csv"))) == 2
    assert len((out / "veh_0000.csv").read_text().splitlines()) == 31


def test_config_must_be_an_object(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text("[1, 2]")
    rc = run_cli("gen-synthetic", "--config", config, "--out", tmp_path / "d")
    assert rc == 2
    assert "config must be a JSON object" in capsys.readouterr().err


def test_malformed_config_reports_cleanly(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text('{"seed": 1,')
    rc = run_cli("simulate", "--config", config, "--out", tmp_path / "run")
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: not valid JSON: ")
    assert "Traceback" not in err


def test_config_that_is_not_utf8_reports_cleanly(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_bytes(b'\xff{"seed": 1}')
    rc = run_cli("simulate", "--config", config, "--out", tmp_path / "run")
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: not valid JSON: 'utf-8' codec can't decode")


@pytest.mark.parametrize("argv", [
    ("gen-synthetic", "--seed", -1),
    ("calibrate", "--data", "veh.csv", "--seed", -1),
    ("sample-params", "--seed", -1),
    ("build-demand", "--seed", -1),
    ("simulate", "--scenario", "highway", "--seed", -1),
    ("simulate", "--scenario", "highway", "--config", "seed.json"),
])
def test_negative_seed_reports_cleanly(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "seed.json").write_text(json.dumps({"seed": -1}))
    rc = run_cli(*argv, "--out", tmp_path / "out")
    assert rc == 2
    assert capsys.readouterr().err == "error: seed must be an integer >= 0, got -1\n"
    assert not (tmp_path / "out").exists()


def test_calibrate_one_row_csv_reports_cleanly(tmp_path, capsys):
    data = tmp_path / "one.csv"
    data.write_text("t,v_ego,v_leader,gap,a_obs\n0.0,20,20,30,0\n")
    rc = run_cli("calibrate", "--data", data, "--n-iter", 10,
                 "--out", tmp_path / "calib")
    assert rc == 2
    assert "at least 2 data rows" in capsys.readouterr().err


def test_missing_input_file_reports_cleanly(tmp_path, capsys):
    rc = run_cli("simulate", "--scenario", tmp_path / "no_such.scenario.json",
                 "--out", tmp_path / "run")
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


# -- manifest ----------------------------------------------------------------


def argv_from_manifest(manifest):
    """The command line that a manifest alone describes, without ``--out``."""
    _, inputs, options = cli.VERBS[manifest["command"]]
    argv = [manifest["command"], "--seed", manifest["seed"]]
    for opt in inputs:
        argv += [opt.flag, *(manifest["inputs"] if opt.nargs else manifest["inputs"][:1])]
    for opt in options:
        value = manifest["parameters"][opt.dest]
        if isinstance(value, dict):
            value = ",".join(repr(value[name]) for name in PARAM_NAMES)
        if value is not None:
            argv += [opt.flag, value]
    return argv


def test_manifest_alone_reproduces_its_run(tmp_path, synthetic_dir):
    write_scenario_files(tmp_path)
    runs = {
        "gen-synthetic": ("--seed", 4, "--n-vehicles", 2, "--n-obs", 25, "--dt", 0.2,
                          "--noise-sigma", 0.05, "--params", "1.5,2.5,30,3,1.2,4"),
        "calibrate": ("--seed", 5, "--data", synthetic_dir, "--n-iter", 30, "--thin", 2,
                      "--pin-delta", 4, "--objective", "rollout", "--n-bins", 7),
        "sample-params": ("--seed", 6, "--histograms", "urban", "--n", 5),
        "build-demand": ("--seed", 7, "--network", tmp_path / "net.json", "--n-vehicles",
                         3, "--mean-headway", 2.5, "--n-routes", 2),
        "simulate": ("--seed", 8, "--scenario", "urban", "--max-steps", 6, "--policy",
                     "builtin-idm-ego", "--params", "3,5,8,10,2,4"),
    }
    assert sorted(runs) == sorted(cli.VERBS)
    for verb, flags in runs.items():
        first, again = tmp_path / f"{verb}-1", tmp_path / f"{verb}-2"
        assert run_cli(verb, *flags, "--out", first) == 0
        manifest = read_manifest(first)
        assert sorted(manifest) == ["command", "inputs", "out_dir", "parameters",
                                    "seed", "version"]
        assert run_cli(*argv_from_manifest(manifest), "--out", again) == 0
        replay = read_manifest(again)
        assert (replay.pop("out_dir"), manifest.pop("out_dir")) == (str(again), str(first))
        assert replay == manifest
        expected = read_bytes_snapshot(first)
        del expected["manifest.json"]
        assert len(expected) >= 1
        assert {k: v for k, v in read_bytes_snapshot(again).items()
                if k != "manifest.json"} == expected


# -- policy classes ----------------------------------------------------------


def test_zero_action_policy():
    policy = ZeroActionPolicy()
    action = policy.act(np.zeros((6, 5)))
    assert (action.a_long, action.a_lat) == (0.0, 0.0)
    policy.close()


def test_policy_names_cover_factory():
    assert POLICY_NAMES == ("zero-action", "builtin-idm-ego", "external-stdio")


def test_builtin_policy_free_road_matches_model():
    policy = BuiltinIdmEgoPolicy(THETA_STAR, v0=20.0, dt=0.1,
                                 half_lane_width=1.75)
    action = policy.act(np.zeros((6, 5)))
    expected = idm_acceleration(
        THETA_STAR, FollowingState(v=20.0, delta_v=0.0, d_front=math.inf))
    assert action.a_long == expected
    assert action.a_lat == 0.0
    assert policy._v == 20.0 + expected * 0.1


def test_builtin_policy_picks_nearest_valid_leader():
    obs = np.zeros((6, 5))
    obs[0] = (1.0, 20.0, 0.0, -2.0, 0.0)   # same lane, 20 m ahead, closing
    obs[1] = (1.0, 5.0, 0.0, 0.0, 0.0)     # behind-slot row, must be ignored
    obs[2] = (1.0, 50.0, 0.0, 5.0, 0.0)    # farther ahead
    obs[4] = (1.0, 10.0, 3.0, 0.0, 0.0)    # nearest but a full lane over
    policy = BuiltinIdmEgoPolicy(THETA_STAR, v0=20.0, dt=0.1,
                                 half_lane_width=1.75)
    action = policy.act(obs)
    expected = idm_acceleration(
        THETA_STAR, FollowingState(v=20.0, delta_v=2.0, d_front=15.0))
    assert action.a_long == expected


def test_builtin_policy_floors_tiny_gap():
    obs = np.zeros((2, 5))
    obs[0] = (1.0, 4.0, 0.0, 0.0, 0.0)
    policy = BuiltinIdmEgoPolicy(THETA_STAR, v0=10.0, dt=0.1,
                                 half_lane_width=1.75)
    action = policy.act(obs)
    expected = idm_acceleration(
        THETA_STAR, FollowingState(v=10.0, delta_v=0.0, d_front=1e-3))
    assert action.a_long == expected


def _act_outcome(policy, obs):
    """The action and the speed the policy keeps after it, as hex, or the
    type and message of its error."""
    try:
        action = policy.act(obs)
    except Exception as exc:
        return type(exc), str(exc)
    return action.a_long.hex(), action.a_lat.hex(), policy._v.hex()


def test_builtin_policy_matches_checked_path_over_bundled_episodes():
    params = _parse_params(DEFAULT_PARAMS)
    followed = 0
    for name in ("highway_plain", "highway_curve", "urban_block", "urban_grid"):
        scenario = load_scenario(_bundled_library() / f"{name}.scenario.json")
        half_width = scenario.network.lanes[scenario.ego_lane].width / 2.0
        policy, reference = (cls(params, v0=scenario.ego_speed, dt=scenario.dt,
                                 half_lane_width=half_width)
                             for cls in (BuiltinIdmEgoPolicy, IdmEgoPolicyReference))
        env = TrafficEnv(scenario)
        obs = env.reset()
        while True:
            want = _act_outcome(reference, obs)
            assert _act_outcome(policy, obs) == want, name
            followed += any(row[0] == 1.0 and row[1] > 0.0 and abs(row[2]) < half_width
                            for row in obs[0::2].tolist())
            result = env.step(Action(float.fromhex(want[0]), 0.0))
            if result.terminated:
                break
            obs = result.observation
    # urban_block's ego follows a leader for about a hundred steps
    assert followed > 50


# ParamSet with a_max * a_comf underflowing to 0, so that b2 is 0.
TINY_PARAMS = ParamSet(1e-200, 1e-200, 30.0, 2.0, 1.5, 4.0)


@pytest.mark.parametrize("params, v0, leader", [
    (THETA_STAR, 10.0, (20.0, math.inf)),      # closing speed -inf
    (THETA_STAR, 10.0, (20.0, -math.inf)),
    (THETA_STAR, 10.0, (20.0, math.nan)),
    (THETA_STAR, 0.0, (20.0, math.inf)),
    (THETA_STAR, 10.0, (20.0, 1e308)),         # desired gap -inf, clamped to 0
    (THETA_STAR, 10.0, (20.0, -1e308)),        # desired gap +inf
    (THETA_STAR, 10.0, (math.nan, 0.0)),       # gap NaN
    (THETA_STAR, 10.0, (math.inf, 3.0)),       # leader at infinity
    (THETA_STAR, 1e308, None),                 # (v / v_des) ** delta overflows
    (THETA_STAR, 1e300, (20.0, 0.0)),
    (THETA_STAR, math.inf, None),
    (THETA_STAR, math.nan, None),
    (THETA_STAR, -5.0, (20.0, 1.0)),           # speed floored at 0
    (TINY_PARAMS, 10.0, (20.0, 2.0)),          # 0 / 0 law: numpy scalars give a value
    (TINY_PARAMS, 10.0, (20.0, -2.0)),
    (TINY_PARAMS, 10.0, (20.0, 0.0)),
    (TINY_PARAMS, 10.0, None),
])
def test_builtin_policy_matches_checked_path_on_extreme_observations(params, v0, leader):
    obs = np.zeros((6, 5))
    if leader is not None:
        obs[2] = (1.0, leader[0], 0.0, leader[1], 0.0)
    policy, reference = (cls(params, v0=v0, dt=0.1, half_lane_width=1.75)
                         for cls in (BuiltinIdmEgoPolicy, IdmEgoPolicyReference))
    with np.errstate(all="ignore"):
        for _ in range(2):
            assert _act_outcome(policy, obs) == _act_outcome(reference, obs)


def test_external_policy_round_trip(tmp_path):
    policy = ExternalStdioPolicy(_policy_script(tmp_path, ECHO_BODY))
    try:
        for _ in range(3):
            action = policy.act(np.zeros((2, 5)))
            assert (action.a_long, action.a_lat) == (0.05, 0.0)
    finally:
        policy.close()


@pytest.mark.parametrize("reply", ["1,2,3", "abc,def", "inf,0.0", "nan,0.0"])
def test_external_policy_rejects_bad_replies(tmp_path, reply):
    body = ("import sys\n"
            "sys.stdin.readline()\n"
            f"print({reply!r}, flush=True)\n")
    policy = ExternalStdioPolicy(_policy_script(tmp_path, body))
    try:
        with pytest.raises(PolicyProtocolError):
            policy.act(np.zeros((2, 5)))
    finally:
        policy.close()


def test_external_policy_detects_closed_output(tmp_path):
    policy = ExternalStdioPolicy(_policy_script(tmp_path, "pass\n"))
    try:
        with pytest.raises(PolicyProtocolError, match="closed its output"):
            policy.act(np.zeros((2, 5)))
    finally:
        policy.close()


def test_external_policy_times_out_and_close_kills_it(monkeypatch):
    monkeypatch.setattr(cli, "POLICY_REPLY_TIMEOUT_S", 0.2)
    policy = ExternalStdioPolicy("sleep 1000")
    try:
        with pytest.raises(PolicyProtocolError, match="no reply"):
            policy.act(np.zeros((2, 5)))
    finally:
        policy.close()
    assert policy._proc.returncode is not None


def test_external_policy_that_never_reads_times_out_and_close_kills_it(monkeypatch):
    # An observation line of about 80 KB does not fit in a pipe buffer, so
    # the write, not only the wait for a reply, has to give up at the
    # deadline. ``act`` runs on a worker thread so a blocked write fails
    # the test instead of hanging it.
    monkeypatch.setattr(cli, "POLICY_REPLY_TIMEOUT_S", 0.2)
    policy = ExternalStdioPolicy("sleep 1000")
    errors = []

    def act():
        try:
            policy.act(np.zeros((4000, 5)))
        except PolicyProtocolError as exc:
            errors.append(str(exc))

    worker = threading.Thread(target=act, daemon=True)
    worker.start()
    try:
        worker.join(timeout=5.0)
        assert not worker.is_alive(), "act blocked writing to a policy that never reads"
        start = time.monotonic()
        policy.close()
        # close() kills the stalled child instead of waiting out its 5 s grace
        assert time.monotonic() - start < 4.0
        assert policy._proc.returncode is not None
    finally:
        policy._proc.kill()
        worker.join(timeout=5.0)
    assert errors == ["policy process did not read its observation within 0.2 s"]


def test_external_policy_reply_split_across_writes(tmp_path):
    body = ("import sys, time\n"
            "sys.stdin.readline()\n"
            "sys.stdout.write('0.25,'); sys.stdout.flush(); time.sleep(0.05)\n"
            "print('-0.5', flush=True)\n")
    policy = ExternalStdioPolicy(_policy_script(tmp_path, body))
    try:
        action = policy.act(np.zeros((2, 5)))
    finally:
        policy.close()
    assert (action.a_long, action.a_lat) == (0.25, -0.5)


def test_external_policy_requires_command():
    with pytest.raises(ConfigurationError, match="--policy-cmd"):
        ExternalStdioPolicy("")


# -- option declaration ------------------------------------------------------


@pytest.mark.parametrize("argv, flag, text, message", [
    (("gen-synthetic",), "--n-vehicles", "abc",
     "n_vehicles must be an integer, got 'abc'"),
    (("gen-synthetic",), "--dt", "fast", "dt must be a number, got 'fast'"),
    (("calibrate", "--data", "veh.csv"), "--burn-in", "x",
     "burn_in must be an integer, got 'x'"),
    (("calibrate", "--data", "veh.csv"), "--pin-delta", "four",
     "pin_delta must be a number, got 'four'"),
    (("calibrate", "--data", "veh.csv"), "--max-lag", "1e400",
     "max_lag must be an integer, got '1e400'"),
    (("calibrate", "--data", "veh.csv"), "--n-bins", "0", "n_bins must be >= 1, got 0"),
    (("sample-params",), "--n", "[3]", "n must be an integer, got '[3]'"),
    (("build-demand", "--network", "net.json"), "--mean-headway", "slow",
     "mean_headway must be a number, got 'slow'"),
    (("build-demand", "--network", "net.json"), "--n-routes", "0",
     "n_routes must be >= 1, got 0"),
    (("build-demand", "--network", "net.json"), "--n-routes", "-5",
     "n_routes must be >= 1, got -5"),
    (("simulate", "--scenario", "highway"), "--max-steps", "many",
     "max_steps must be an integer, got 'many'"),
    (("simulate", "--scenario", "highway"), "--seed", "abc",
     "seed must be an integer, got 'abc'"),
    (("simulate", "--scenario", "highway"), "--seed", "-1",
     "seed must be an integer >= 0, got -1"),
    (("calibrate", "--data", "veh.csv"), "--n-bins", str(cli.MAX_N_BINS + 1),
     f"n_bins must be <= {cli.MAX_N_BINS}, got {cli.MAX_N_BINS + 1}"),
    (("build-demand", "--network", "net.json"), "--n-vehicles", str(10**12),
     f"n_vehicles must be <= {cli.MAX_N_VEHICLES}, got {10**12}"),
    (("build-demand", "--network", "net.json"), "--n-routes", str(10**12),
     f"n_routes must be <= {cli.MAX_N_ROUTES}, got {10**12}"),
])
def test_bad_value_reports_alike_from_command_line_and_config(
        tmp_path, capsys, monkeypatch, argv, flag, text, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text(json.dumps({flag[2:]: text}))
    for given in ((flag, text), ("--config", "c.json")):
        rc = run_cli(*argv, *given, "--out", tmp_path / "out")
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, config", [
    (("gen-synthetic", "--n-vehicles", -1), {}),
    (("calibrate", "--data", "veh.csv", "--max-lag", -1), {}),
    (("calibrate", "--data", "veh.csv"), {"objective": "two-step"}),
    (("sample-params", "--n", -1), {}),
    (("sample-params", "--histograms", "no_such.json"), {}),
    (("build-demand", "--network", "no_such.json"), {}),
    (("build-demand", "--network", "net.json", "--n-vehicles", -1), {}),
    (("build-demand", "--network", "net.json", "--mean-headway", 0), {}),
    (("simulate", "--scenario", "nope"), {}),
    (("simulate", "--scenario", "highway", "--params", "1,2"), {}),
    (("simulate", "--scenario", "highway", "--policy", "external-stdio"), {}),
    (("simulate", "--scenario", "highway"), {"policy": "psychic"}),
    (("simulate",), {"scenario": 5}),
    (("build-demand",), {"network": 7}),
    (("calibrate",), {}),
    (("calibrate",), {"data": []}),
])
def test_rejected_run_leaves_no_output_directory(tmp_path, capsys, monkeypatch,
                                                argv, config):
    monkeypatch.chdir(tmp_path)
    write_scenario_files(tmp_path)
    (tmp_path / "c.json").write_text(json.dumps(config))
    rc = run_cli(*argv, "--config", "c.json", "--out", tmp_path / "out")
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


def test_manifest_records_every_declared_option(tmp_path, synthetic_dir):
    write_scenario_files(tmp_path)
    runs = {
        "gen-synthetic": ("--n-vehicles", 1, "--n-obs", 20),
        "calibrate": ("--data", synthetic_dir / "veh_0000.csv", "--n-iter", 20),
        "sample-params": ("--n", 2),
        "build-demand": ("--network", tmp_path / "net.json", "--n-vehicles", 2),
        "simulate": ("--scenario", "highway", "--max-steps", 2, "--policy",
                     "builtin-idm-ego", "--params", "3,5,8,10,2,4"),
    }
    assert sorted(runs) == sorted(cli.VERBS)
    for verb, flags in runs.items():
        out = tmp_path / verb
        assert run_cli(verb, *flags, "--out", out) == 0
        parameters = read_manifest(out)["parameters"]
        assert sorted(parameters) == sorted(opt.dest for opt in cli.VERBS[verb][2])
    simulate = read_manifest(tmp_path / "simulate")["parameters"]
    assert simulate["params"] == _parse_params("3,5,8,10,2,4").as_dict()
    assert simulate["policy_cmd"] is None


def test_main_runs_the_verb_function_found_on_the_module(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "cmd_simulate", lambda args: calls.append(args) or 0)
    assert run_cli("simulate", "--scenario", "highway", "--out", tmp_path / "run") == 0
    assert [args.policy for args in calls] == ["zero-action"]


# -- malformed input files ---------------------------------------------------


def _bundled_copy(tmp_path):
    """Copies of the bundled highway_plain files and default histograms,
    each loaded as a JSON document keyed by its role."""
    src = _bundled_library()
    names = {"scenario": "highway_plain.scenario.json",
             "network": "highway_plain.network.json",
             "demand": "highway_plain.demand.json",
             "histograms": "defaults_highway.json"}
    return {role: (tmp_path / name, json.loads((src / name).read_text()))
            for role, name in names.items()}


def _set(doc, keys, value):
    """Replace the field of ``doc`` at the path ``keys``."""
    for key in keys[:-1]:
        doc = doc[key]
    doc[keys[-1]] = value


@pytest.mark.parametrize("role, keys, value, named", [
    ("scenario", ("max_steps",), "abc", "max_steps must be an integer, got 'abc'"),
    ("scenario", ("dt",), None, "dt must be a number, got None"),
    ("scenario", ("seed",), "x", "seed must be an integer, got 'x'"),
    ("scenario", ("seed",), math.nan, "seed must be an integer, got nan"),
    ("scenario", ("max_steps",), math.inf, "max_steps must be an integer, got inf"),
    ("scenario", ("max_steps",), 500.5, "max_steps must be an integer, got 500.5"),
    ("scenario", ("ego_speed",), "fast", "ego_speed must be a number, got 'fast'"),
    ("scenario", ("ego_speed",), [25.0], "ego_speed must be a number, got [25.0]"),
    ("scenario", ("ego_lane",), ["lane_1"], "highway_plain.scenario.json: malformed"),
    ("scenario", ("network_file",), 5, "highway_plain.scenario.json: malformed"),
    ("network", ("lanes", 0, "width"), "wide", "width must be a number, got 'wide'"),
    ("network", ("lanes", 0, "width"), None, "width must be a number, got None"),
    ("network", ("lanes", 0, "width"), [3.5], "width must be a number, got [3.5]"),
    ("network", ("lanes",), 5, "highway_plain.network.json: malformed"),
    ("network", ("lanes",), math.nan, "highway_plain.network.json: malformed"),
    ("network", ("lanes", 0), "lane_0", "highway_plain.network.json: malformed"),
    ("network", ("lanes", 0, "successors"), 5, "highway_plain.network.json: malformed"),
    ("network", ("lanes", 0, "successors"), math.inf,
     "highway_plain.network.json: malformed"),
    ("network", ("lanes", 0, "centerline"), "abc", "centerline must be numbers"),
    ("network", ("sources",), 5, "highway_plain.network.json: malformed"),
    ("demand", ("vehicles", 0, "depart"), "soon", "depart must be a number, got 'soon'"),
    ("demand", ("vehicles", 0, "length"), math.nan, "length must be finite and > 0, got nan"),
    ("demand", ("vehicles", 0, "length"), math.inf, "length must be finite and > 0, got inf"),
    ("demand", ("vehicles", 0, "id"), ["veh_0000"], "highway_plain.demand.json: malformed"),
    ("demand", ("routes", 0, "id"), ["route_0"], "highway_plain.demand.json: malformed"),
    ("histograms", ("a_max", 0, "lo"), "a", "'a_max': bin edges and masses must be numbers"),
    ("histograms", ("a_max", 0, "mass"), "x", "'a_max': bin edges and masses must be numbers"),    ("demand", ("vehicles", 0, "id"), 7, "vehicle id must be a string, got 7"),
    ("network", ("lanes", 0, "centerline", 0, 0), 10**400, "centerline must be numbers"),
    ("histograms", ("a_max", 0, "lo"), 10**400,
     "'a_max': bin edges and masses must be numbers"),
    ("network", ("lanes", 0, "centerline", -1, 0), 1e308,
     "lane 'lane_0': centerline has a segment too long to project onto"),
])
def test_malformed_input_file_field_ends_in_one_error_line(tmp_path, capsys, role, keys,
                                                           value, named):
    files = _bundled_copy(tmp_path)
    path, doc = files[role]
    _set(doc, keys, value)
    for target, payload in files.values():
        target.write_text(json.dumps(payload))
    out = tmp_path / "out"
    if role == "histograms":
        argv = ("sample-params", "--histograms", path)
    else:
        argv = ("simulate", "--scenario", files["scenario"][0])
    rc = run_cli(*argv, "--out", out)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err
    assert not out.exists()


def test_calibrate_csv_that_is_not_utf8_ends_in_one_error_line(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"t,v_ego,v_leader,gap,a_obs\n\xff\n")
    out = tmp_path / "out"
    rc = run_cli("calibrate", "--data", bad, "--n-iter", 10, "--out", out)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {bad}: not valid UTF-8 text: ") and err.count("\n") == 1
    assert not out.exists()


def test_scenario_field_error_names_the_scenario_file(tmp_path, capsys):
    files = _bundled_copy(tmp_path)
    path, doc = files["scenario"]
    doc["max_steps"] = "abc"
    for target, payload in files.values():
        target.write_text(json.dumps(payload))
    rc = run_cli("simulate", "--scenario", path, "--out", tmp_path / "out")
    err = capsys.readouterr().err
    assert rc == 2
    assert err == (f"error: {path}: scenario max_steps must be an integer, "
                   "got 'abc'\n")


# -- operating-system errors -------------------------------------------------


def _assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_out_naming_an_existing_file_reports_cleanly(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("keep me\n")
    rc = run_cli("gen-synthetic", "--n-vehicles", 1, "--n-obs", 10, "--out", out)
    assert rc == 2
    _assert_one_error_line(capsys)
    assert out.read_text() == "keep me\n"


def test_out_under_a_file_reports_cleanly(tmp_path, capsys):
    (tmp_path / "taken").write_text("")
    out = tmp_path / "taken" / "run"
    rc = run_cli("gen-synthetic", "--n-vehicles", 1, "--n-obs", 10, "--out", out)
    assert rc == 2
    _assert_one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("sample-params", "--n", 0),
    ("build-demand", "--network", "net.json", "--n-vehicles", 0),
])
def test_histogram_file_missing_a_parameter_reports_cleanly(tmp_path, capsys, monkeypatch,
                                                            argv):
    monkeypatch.chdir(tmp_path)
    write_scenario_files(tmp_path)
    hists = default_histograms("highway")
    del hists["T"]
    save_histograms(hists, tmp_path / "h.json")
    rc = run_cli(*argv, "--histograms", "h.json", "--out", tmp_path / "out")
    assert rc == 2
    assert capsys.readouterr().err == "error: h.json: missing histogram for parameter 'T'\n"
    assert not (tmp_path / "out").exists()


def test_histograms_naming_a_directory_reports_cleanly(tmp_path, capsys):
    out = tmp_path / "out"
    rc = run_cli("sample-params", "--histograms", tmp_path, "--out", out)
    assert rc == 2
    _assert_one_error_line(capsys)
    assert not out.exists()


def test_policy_cmd_that_cannot_run_reports_cleanly(tmp_path, capsys):
    scenario = write_scenario_files(tmp_path, max_steps=5)
    script = tmp_path / "not_executable"
    script.write_text("print('0,0')\n")
    script.chmod(0o644)
    out = tmp_path / "out"
    rc = run_cli("simulate", "--scenario", scenario, "--policy", "external-stdio",
                 "--policy-cmd", script, "--out", out)
    assert rc == 2
    _assert_one_error_line(capsys)
    assert not out.exists()


def test_policy_cmd_that_does_not_split_reports_cleanly(tmp_path, capsys):
    scenario = write_scenario_files(tmp_path, max_steps=5)
    out = tmp_path / "out"
    rc = run_cli("simulate", "--scenario", scenario, "--policy", "external-stdio",
                 "--policy-cmd", 'python3 -c "unbalanced', "--out", out)
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: --policy-cmd 'python3 -c \"unbalanced': No closing quotation\n")
    assert not out.exists()


# -- fuzzed input files ------------------------------------------------------

#: Stands for "delete this leaf" among the fuzzed values.
DELETE = object()
FUZZ_VALUES = st.one_of(
    st.sampled_from(["abc", "", True, None, [], {}, [1.0], {"x": 1}, 10**400, -10**400,
                     1e308, -1e308, math.nan, math.inf, -math.inf, 0, -1, DELETE]),
    st.floats(), st.integers(-3, 3))

#: Options every fuzzed config file starts from, for all five verbs.
FUZZ_CONFIG = {"seed": 1, "dt": 0.1, "noise_sigma": 0.3, "params": "3,5,35,10,2,4",
               "burn_in": 2, "thin": 1, "objective": "rollout", "pin_delta": None,
               "max_lag": 5, "n_bins": 4, "histograms": "urban", "mean_headway": 2.0,
               "policy": "builtin-idm-ego", "scenario": "highway"}

#: The flags that fix every count a verb loops over, so that no fuzzed
#: value can make a run as long as it asks; the command line wins over
#: ``--config``.
FUZZ_SIZES = {"gen-synthetic": ("--n-vehicles", 1, "--n-obs", 20),
              "calibrate": ("--n-iter", 20),
              "sample-params": ("--n", 3),
              "build-demand": ("--n-vehicles", 3, "--n-routes", 2),
              "simulate": ("--max-steps", 5)}


def _leaves(doc, path=()):
    """Paths of the non-container values in a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        if isinstance(value, (dict, list)) and value:
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,)


def _fuzz(data, doc):
    """Replace or delete one to three leaves of ``doc`` in place."""
    leaves = list(_leaves(doc))
    paths = data.draw(st.lists(st.sampled_from(leaves), min_size=1, max_size=3,
                               unique=True))
    for path in paths:
        node = doc
        try:
            for key in path[:-1]:
                node = node[key]
            value = data.draw(FUZZ_VALUES)
            if value is DELETE:
                del node[path[-1]]
            else:
                node[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            pass  # an earlier edit removed or replaced the path


@pytest.fixture(scope="module")
def fuzz_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz_csv")
    run_cli("gen-synthetic", "--seed", 2, *FUZZ_SIZES["gen-synthetic"], "--out", out)
    return (out / "veh_0000.csv").read_text()


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_input_exits_0_or_ends_in_one_error_line(data, fuzz_csv):
    role = data.draw(st.sampled_from(
        ["scenario", "network", "demand", "histograms", "trajectory", "config"]))
    name = data.draw(st.sampled_from(
        ["highway_plain", "highway_curve", "urban_block", "urban_grid"]))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        src = _bundled_library()
        docs = {role_: (tmp / f"{name}.{role_}.json",
                        json.loads((src / f"{name}.{role_}.json").read_text()))
                for role_ in ("scenario", "network", "demand")}
        kind = name.split("_")[0]
        docs["histograms"] = (tmp / "hist.json",
                              json.loads((src / f"defaults_{kind}.json").read_text()))
        csv_path = tmp / "veh.csv"
        docs["config"] = (tmp / "config.json", dict(
            FUZZ_CONFIG, data=str(csv_path), network=str(docs["network"][0])))
        rows = [line.split(",") for line in fuzz_csv.splitlines()]
        _fuzz(data, rows if role == "trajectory" else docs[role][1])
        csv_path.write_text("".join(",".join(map(str, row)) + "\n" for row in rows))
        for path, doc in docs.values():
            path.write_text(json.dumps(doc))
        inputs = {"simulate": ("--scenario", docs["scenario"][0]),
                  "build-demand": ("--network", docs["network"][0],
                                   "--histograms", docs["histograms"][0]),
                  "sample-params": ("--histograms", docs["histograms"][0]),
                  "calibrate": ("--data", csv_path),
                  "gen-synthetic": ()}
        verbs = {"scenario": ["simulate"], "network": ["simulate", "build-demand"],
                 "demand": ["simulate"], "histograms": ["sample-params", "build-demand"],
                 "trajectory": ["calibrate"], "config": sorted(inputs)}[role]
        verb = data.draw(st.sampled_from(verbs))
        argv = [verb, *FUZZ_SIZES[verb], "--out", tmp / "out"]
        if role == "config":
            argv += ["--config", docs["config"][0]]
        else:
            argv += inputs[verb]
            if verb == "simulate":
                argv += ["--policy", data.draw(st.sampled_from(["zero-action",
                                                                 "builtin-idm-ego"]))]
            if verb == "calibrate":
                argv += ["--objective", data.draw(st.sampled_from(["one-step", "rollout"]))]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = run_cli(*argv)
    err = err.getvalue()
    assert rc == 0 or (rc == 2 and err.startswith("error: ") and err.count("\n") == 1), \
        (argv, rc, err)
