"""Backend parity: the compiled kernels and their numpy twins must agree."""

import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import THETA_STAR, idm_accel_formula
from microtraffic import ParamSet
from microtraffic import _kernels
from microtraffic.calibration import DEFAULT_PRIOR_HI, DEFAULT_PRIOR_LO

PARAM_GRID = (
    THETA_STAR,
    ParamSet(a_max=1.2, a_comf=2.0, v_des=29.7, d_min=63.9, T=2.0, delta=4.0),
    ParamSet(a_max=0.5, a_comf=0.8, v_des=12.0, d_min=1.5, T=0.4, delta=1.0),
)
STATE_GRID = list(itertools.product(
    (0.0, 5.0, 20.0, 34.9, 50.0),
    (-10.0, -1.0, 0.0, 1.0, 10.0),
    (0.5, 10.0, 62.9, 1e3, math.inf),
))


def _scalar_args(p, v, dv, gap):
    return (p.a_max, p.a_comf, p.v_des, p.d_min, p.T, p.delta, v, dv, gap)


def _prior_batch(n_theta=16, n_states=500, seed=2109):
    """Seeded parameter vectors from the default prior box and states to score."""
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(DEFAULT_PRIOR_LO, DEFAULT_PRIOR_HI, size=(n_theta, 6))
    v = rng.uniform(0.0, 40.0, n_states)
    dv = rng.uniform(-15.0, 15.0, n_states)
    gap = rng.uniform(0.5, 300.0, n_states)
    a_obs = rng.normal(0.0, 1.0, n_states)
    return thetas, v, dv, gap, a_obs


def _per_sample_thetas(thetas, n):
    """A (6, n) block giving sample i the parameters ``thetas[i % len]``."""
    return thetas[np.arange(n) % len(thetas)].T.copy()


def _batch_results(thetas, v, dv, gap, a_obs):
    """Numpy batch accelerations (one row per theta), each row's RMSE, and
    one batched follower step (accel, speed, gap) with a different theta
    per sample."""
    accel = np.empty((len(thetas), v.size))
    rmse = np.empty(len(thetas))
    for i, theta in enumerate(thetas):
        _kernels.NUMPY_BACKEND.accel_series(theta, v, dv, gap, accel[i])
        rmse[i] = _kernels.NUMPY_BACKEND.rmse_one_step(theta, v, dv, gap, a_obs)
    steps = np.stack(_kernels._follower_step_np(
        _per_sample_thetas(thetas, v.size), v, v - dv, gap, 0.1))
    return accel, rmse, steps


def _assert_bits_equal(got, want):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    differ = got.view(np.int64) != want.view(np.int64)
    assert not differ.any(), (
        f"{int(differ.sum())} of {differ.size} values differ, e.g. "
        f"{got[differ][:3].tolist()} vs {want[differ][:3].tolist()}")


def test_available_backends_lists_numpy_first():
    backends = _kernels.available_backends()
    assert backends[0].name == "numpy"
    assert [b.name for b in backends] == (
        ["numpy", "numba"] if _kernels.NUMBA_AVAILABLE else ["numpy"]
    )


def test_active_is_one_of_the_available_backends():
    assert _kernels.ACTIVE in _kernels.available_backends()


@pytest.mark.parametrize("value,expected", [
    ("0", True), ("false", True), ("off", True), ("no", True),
    (" FALSE ", True), ("Off", True), ("NO\t", True),
    ("", False), ("1", False), ("true", False), ("yes", False),
    ("on", False), ("numpy", False),
])
def test_numba_disabled_by_env_value_table(value, expected):
    assert _kernels.numba_disabled_by_env(value) is expected


def test_scalar_accel_matches_formula_oracle():
    for p in PARAM_GRID:
        for v, dv, gap in STATE_GRID:
            got = _kernels.ACTIVE.idm_accel(*_scalar_args(p, v, dv, gap))
            want = idm_accel_formula(p, v, dv, gap)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_no_leader_interaction_is_exactly_zero():
    for p in PARAM_GRID:
        for backend in _kernels.available_backends():
            free = backend.idm_accel(*_scalar_args(p, 15.0, 7.0, math.inf))
            assert free == p.a_max * (1.0 - (15.0 / p.v_des) ** p.delta)


def test_batch_accel_bit_identical_to_scalar_on_grid():
    v, dv, gap = (np.array(col) for col in zip(*STATE_GRID))
    for p in PARAM_GRID:
        got = np.empty(v.size)
        _kernels.NUMPY_BACKEND.accel_series(p.to_array(), v, dv, gap, got)
        want = [_kernels.NUMPY_BACKEND.idm_accel(*_scalar_args(p, *state))
                for state in STATE_GRID]
        _assert_bits_equal(got, want)


def test_batch_accel_bit_identical_to_scalar_on_prior_draws():
    thetas, v, dv, gap, a_obs = _prior_batch()
    accel, _, _ = _batch_results(thetas, v, dv, gap, a_obs)
    states = list(zip(v.tolist(), dv.tolist(), gap.tolist()))
    for theta, row in zip(thetas, accel):
        want = [_kernels.NUMPY_BACKEND.idm_accel(*theta, *state)
                for state in states]
        _assert_bits_equal(row, want)


def _scalar_steps(theta_cols, v, v_lead, gap, dt):
    """Scalar ``follower_step`` on every column: one (accel, speed, gap) each."""
    return [_kernels.NUMPY_BACKEND.follower_step(*theta_cols[:, i], v[i], v_lead[i],
                                                 gap[i], dt)
            for i in range(v.size)]


def test_batched_follower_step_bit_identical_to_scalar():
    dt = 0.1
    v, dv, gap = (np.array(col) for col in zip(*STATE_GRID))
    cases = [(np.repeat(p.to_array()[:, None], v.size, axis=1), v, v - dv, gap)
             for p in PARAM_GRID]
    # Mixed per-sample parameters; leaders may be slower or faster.
    thetas, pv, pdv, pgap, _ = _prior_batch()
    cases.append((_per_sample_thetas(thetas, pv.size), pv, pv - pdv, pgap))
    floored = collapsed = leaderless = 0
    for theta_cols, v, v_lead, gap in cases:
        got = _kernels._follower_step_np(theta_cols, v, v_lead, gap, dt)
        want = _scalar_steps(theta_cols, v, v_lead, gap, dt)
        for got_row, want_row in zip(got, zip(*want)):
            _assert_bits_equal(got_row, want_row)
        a, v_next, gap_next = got
        floored += np.count_nonzero((v_next == 0.0) & (v + a * dt < 0.0))
        collapsed += np.count_nonzero(gap_next <= 0.0)
        leaderless += np.count_nonzero(np.isinf(gap))
    # The grid reaches the zero-speed floor, a collapsing gap and +inf gaps.
    assert floored and collapsed and leaderless


def _avx512_dispatch_targets():
    """AVX-512 targets that numpy dispatches to and this CPU enables."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    enabled = umath.__cpu_features__
    return [t for t in getattr(umath, "__cpu_dispatch__", ())
            if (t.startswith("AVX512") or t == "X86_V4") and enabled.get(t)]


_BATCH_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
from test_kernels import _avx512_dispatch_targets, _batch_results, _prior_batch
accel, rmse, steps = _batch_results(*_prior_batch())
print(json.dumps({"still_enabled": _avx512_dispatch_targets(),
                  "accel": accel.tobytes().hex(), "rmse": rmse.tobytes().hex(),
                  "steps": steps.tobytes().hex()}))
"""


@pytest.mark.skipif(not _avx512_dispatch_targets(),
                    reason="no AVX-512 numpy dispatch target enabled in this process")
def test_batch_results_identical_with_avx512_dispatch_disabled():
    targets = _avx512_dispatch_targets()
    env = dict(os.environ)
    env.pop("NPY_ENABLE_CPU_FEATURES", None)
    env["NPY_DISABLE_CPU_FEATURES"] = " ".join(targets)
    out = subprocess.run(
        [sys.executable, "-c", _BATCH_SCRIPT, str(Path(__file__).parent)],
        env=env, capture_output=True, text=True, check=True)
    other = json.loads(out.stdout)
    assert other["still_enabled"] == []
    accel, rmse, steps = _batch_results(*_prior_batch())
    assert bytes.fromhex(other["accel"]) == accel.tobytes()
    assert bytes.fromhex(other["rmse"]) == rmse.tobytes()
    assert bytes.fromhex(other["steps"]) == steps.tobytes()


@pytest.mark.skipif(not _kernels.NUMBA_AVAILABLE, reason="numba not importable")
def test_scalar_kernels_bit_identical_across_backends():
    for p in PARAM_GRID:
        for v, dv, gap in STATE_GRID:
            args = _scalar_args(p, v, dv, gap)
            assert (_kernels.NUMPY_BACKEND.idm_accel(*args)
                    == _kernels.NUMBA_BACKEND.idm_accel(*args))
            step_np = _kernels.NUMPY_BACKEND.follower_step(
                p.a_max, p.a_comf, p.v_des, p.d_min, p.T, p.delta,
                v, max(v - dv, 0.0), gap, 0.1)
            step_nb = _kernels.NUMBA_BACKEND.follower_step(
                p.a_max, p.a_comf, p.v_des, p.d_min, p.T, p.delta,
                v, max(v - dv, 0.0), gap, 0.1)
            assert tuple(step_np) == tuple(step_nb)


@pytest.mark.skipif(not _kernels.NUMBA_AVAILABLE, reason="numba not importable")
def test_rollout_bit_identical_across_backends():
    theta = THETA_STAR.to_array()
    lead = np.repeat([22.0, 9.0, 27.0, 0.0], 50).astype(np.float64)
    for gap0 in (8.0, 40.0, 300.0):
        results = []
        for backend in (_kernels.NUMPY_BACKEND, _kernels.NUMBA_BACKEND):
            v_out = np.empty(lead.size)
            gap_out = np.empty(lead.size)
            a_out = np.empty(lead.size)
            n, collapsed = backend.rollout(theta, lead, 25.0, gap0, 0.1,
                                           v_out, gap_out, a_out)
            results.append((int(n), bool(collapsed),
                            v_out[:n].copy(), gap_out[:n].copy(),
                            a_out[:n].copy()))
        (n0, c0, v0, g0, a0), (n1, c1, v1, g1, a1) = results
        assert (n0, c0) == (n1, c1)
        assert np.array_equal(v0, v1)
        assert np.array_equal(g0, g1)
        assert np.array_equal(a0, a1)


@pytest.mark.skipif(not _kernels.NUMBA_AVAILABLE, reason="numba not importable")
def test_batch_kernels_agree_up_to_reduction_order():
    rng = np.random.default_rng(11)
    theta = THETA_STAR.to_array()
    v = rng.uniform(0.0, 40.0, 500)
    dv = rng.uniform(-10.0, 10.0, 500)
    gap = rng.uniform(1.0, 200.0, 500)
    a_obs = rng.normal(0.0, 1.0, 500)

    out_np = np.empty(500)
    out_nb = np.empty(500)
    _kernels.NUMPY_BACKEND.accel_series(theta, v, dv, gap, out_np)
    _kernels.NUMBA_BACKEND.accel_series(theta, v, dv, gap, out_nb)
    assert np.max(np.abs(out_np - out_nb)) < 1e-12

    rmse_np = _kernels.NUMPY_BACKEND.rmse_one_step(theta, v, dv, gap, a_obs)
    rmse_nb = _kernels.NUMBA_BACKEND.rmse_one_step(theta, v, dv, gap, a_obs)
    assert rmse_np == pytest.approx(rmse_nb, rel=1e-12, abs=1e-12)


def _active_name_in_subprocess(env_value):
    env = dict(os.environ)
    env.pop("MICROTRAFFIC_NUMBA", None)
    if env_value is not None:
        env["MICROTRAFFIC_NUMBA"] = env_value
    code = "from microtraffic import _kernels; print(_kernels.ACTIVE.name)"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_env_flag_selects_numpy_backend():
    assert _active_name_in_subprocess("0") == "numpy"
    assert _active_name_in_subprocess("off") == "numpy"


@pytest.mark.skipif(not _kernels.NUMBA_AVAILABLE, reason="numba not importable")
def test_default_backend_is_numba():
    assert _active_name_in_subprocess(None) == "numba"
    assert _active_name_in_subprocess("1") == "numba"
