"""Kernel parity: the scalar and batch kernels must agree bit for bit."""

import itertools
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import (THETA_STAR, dispatch_disabled_env, enabled_dispatch_targets,
                      follower_step, idm_accel_formula, rollout_reference)
from microtraffic import FollowingState, InputDomainError, ParamSet
from microtraffic import _kernels
from microtraffic.calibration import DEFAULT_PRIOR_HI, DEFAULT_PRIOR_LO
from microtraffic.idm import rollout_follower, rollout_rmse

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


def _law_cols(theta):
    """``_kernels._law`` for the batch kernels: ``theta`` one parameter vector
    or one column per sample, ``b2`` by ``np.sqrt``."""
    a_max, a_comf, *rest = theta
    return (a_max, 2.0 * np.sqrt(a_max * a_comf), *rest)


def _scalar_args(p, v, dv, gap):
    return (*p.law, v, dv, gap)


def _prior_batch(n_theta=16, n_states=500, seed=2109):
    """Seeded parameter vectors from the default prior box and states to score."""
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(DEFAULT_PRIOR_LO, DEFAULT_PRIOR_HI, size=(n_theta, 6))
    v = rng.uniform(0.0, 40.0, n_states)
    dv = rng.uniform(-15.0, 15.0, n_states)
    gap = rng.uniform(0.5, 300.0, n_states)
    a_obs = rng.normal(0.0, 1.0, n_states)
    return thetas, v, dv, gap, a_obs


#: Leader speeds of the rollout cases: cruise, brake, speed up, stop.
LEAD = np.repeat([22.0, 9.0, 27.0, 0.0], 50)


def _batch_results(thetas, v, dv, gap, a_obs):
    """Numpy batch accelerations (one row per theta), each row's RMSE and
    one rollout (v, gap, a) per theta, nan after a collapse."""
    accel = np.empty((len(thetas), v.size))
    rmse = np.empty(len(thetas))
    for i, theta in enumerate(thetas):
        accel[i] = _kernels._accel_series_np(_law_cols(theta), v, v * dv, gap)
        rmse[i] = _kernels._rmse_one_step_np(theta, v, v * dv, gap, a_obs)
    rollouts = np.full((len(thetas), 3, LEAD.size), np.nan)
    for theta, out in zip(thetas, rollouts):
        rows = np.array(_float_rollout(theta, LEAD, 25.0, 40.0))
        out[:, :rows.shape[1]] = rows
    return accel, rmse, rollouts


def _assert_bits_equal(got, want):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    differ = got.view(np.int64) != want.view(np.int64)
    assert not differ.any(), (
        f"{int(differ.sum())} of {differ.size} values differ, e.g. "
        f"{got[differ][:3].tolist()} vs {want[differ][:3].tolist()}")


def test_scalar_accel_matches_formula_oracle():
    for p in PARAM_GRID:
        for v, dv, gap in STATE_GRID:
            got = _kernels._idm_accel(*_scalar_args(p, v, dv, gap))
            want = idm_accel_formula(p, v, dv, gap)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_no_leader_interaction_is_exactly_zero():
    for p in PARAM_GRID:
        free = _kernels._idm_accel(*_scalar_args(p, 15.0, 7.0, math.inf))
        assert free == p.a_max * (1.0 - (15.0 / p.v_des) ** p.delta)


def test_batch_accel_bit_identical_to_scalar_on_grid():
    v, dv, gap = (np.array(col) for col in zip(*STATE_GRID))
    for p in PARAM_GRID:
        got = _kernels._accel_series_np(_law_cols(p.to_array()), v, v * dv, gap)
        want = [_kernels._idm_accel(*_scalar_args(p, *state))
                for state in STATE_GRID]
        _assert_bits_equal(got, want)


def test_batch_accel_bit_identical_to_scalar_on_prior_draws():
    thetas, v, dv, gap, a_obs = _prior_batch()
    accel = _batch_results(thetas, v, dv, gap, a_obs)[0]
    states = list(zip(v.tolist(), dv.tolist(), gap.tolist()))
    for theta, row in zip(thetas, accel):
        want = [_kernels._idm_accel(*_kernels._law(theta.tolist()), *state)
                for state in states]
        _assert_bits_equal(row, want)


#: Parameters the law on Python floats cannot evaluate: the free-road term
#: overflows, and ``a_max * a_comf`` underflows to 0, so the desired-gap
#: term divides by zero. Both are inside the default prior box.
EXTREME_THETAS = (np.array([1.0, 1.0, 1e-35, 2.0, 1.0, 10.0]),
                  np.array([1e-170, 1e-170, 30.0, 2.0, 1.0, 4.0]))


def _float_rollout(theta, lead, v0, gap0):
    """``_rollout_loop`` on Python floats, as ``rollout_rmse`` runs it, with
    the speeds and gaps replayed from its accelerations: rows (v, gap, a)."""
    dt = 0.1
    accs = _kernels._rollout_loop(_kernels._law(theta.tolist()), lead.tolist(), v0, gap0, dt)
    vs, gaps = [], []
    v, gap = v0, gap0
    for v_lead, a in zip(lead.tolist(), accs):
        vs.append(v)
        gaps.append(gap)
        gap += (v_lead - v) * dt
        v = max(v + a * dt, 0.0)
    return vs, gaps, accs


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_float_rollout_bit_identical_to_numpy_scalar_rollout():
    # The reference takes one follower step call per step on numpy scalars,
    # which carry inf and nan on where Python floats raise.
    thetas = [p.to_array() for p in PARAM_GRID] + list(_prior_batch()[0])
    collapsed = completed = 0
    for theta in thetas + list(EXTREME_THETAS):
        for gap0 in (0.25, 8.0, 300.0, math.inf):
            want_n, want_c, want_rows = rollout_reference(theta, LEAD, 25.0, gap0, 0.1)
            rows = np.array(_float_rollout(theta, LEAD, 25.0, gap0))
            assert (rows.shape[1], rows.shape[1] < LEAD.size) == (want_n, want_c)
            _assert_bits_equal(rows, want_rows)
            collapsed += want_c
            completed += not want_c
    # The cases reach a collapsing gap and complete horizons.
    assert collapsed and completed
    for theta in EXTREME_THETAS:
        # Python floats raise on these parameters, so the law fell back to
        # numpy scalars, whose non-finite values the rollout carries on.
        with pytest.raises(ArithmeticError):
            follower_step(*theta.tolist(), 25.0, float(LEAD[0]), 40.0, 0.1)
        assert not np.isfinite(_float_rollout(theta, LEAD, 25.0, 40.0)[2]).all()


#: (v0, gap0) of the rollout parity cases: from a stop, where the first
#: steps hit the speed floor, and at speed; behind a gap that collapses,
#: a close one, a far one and no leader.
ROLLOUT_STARTS = list(itertools.product((0.0, 25.0), (0.25, 8.0, 300.0, math.inf)))


def _rollout_cases():
    """(theta, v0, gap0, reference) over the grid, the prior draws and the
    extreme parameters; the reference is ``rollout_reference``'s result."""
    thetas = [p.to_array() for p in PARAM_GRID] + list(_prior_batch()[0]) + list(EXTREME_THETAS)
    for theta in thetas:
        for v0, gap0 in ROLLOUT_STARTS:
            yield theta, v0, gap0, rollout_reference(theta, LEAD, v0, gap0, 0.1)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_rollout_rmse_bit_equal_to_rmse_of_reference_accelerations():
    a_obs = np.random.default_rng(77).normal(0.0, 1.0, LEAD.size)
    seen = {"scored": 0, "collapsed": 0, "not_finite": 0, "floored": 0}
    for theta, v0, gap0, (n, collapsed, rows) in _rollout_cases():
        got = rollout_rmse(theta, LEAD.tolist(), v0, gap0, 0.1, a_obs)
        v, _, a = rows
        seen["floored"] += bool(np.any((v[1:] == 0.0) & (v[:-1] + a[:-1] * 0.1 < 0.0)))
        if collapsed:
            seen["collapsed"] += 1
            assert got == math.inf
        elif not np.isfinite(a).all():
            seen["not_finite"] += 1
            assert got == math.inf
        else:
            seen["scored"] += 1
            _assert_bits_equal(got, np.sqrt(np.mean(np.square(a - a_obs))))
    # Every outcome is reached, and rollouts that hit the speed floor.
    assert all(seen.values()), seen


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_rollout_follower_bit_equal_to_reference_where_valid():
    valid = 0
    for theta, v0, gap0, (n, collapsed, rows) in _rollout_cases():
        p = ParamSet.from_array(theta)
        init = FollowingState(v0, v0 - LEAD[0], gap0)
        if not np.isfinite(rows[2]).all():
            # A non-finite acceleration is no valid trajectory.
            with pytest.raises(InputDomainError):
                rollout_follower(p, LEAD, init, 0.1, LEAD.size)
            continue
        tr = rollout_follower(p, LEAD, init, 0.1, LEAD.size)
        assert (len(tr), tr.gap_collapsed) == (n, collapsed)
        _assert_bits_equal([tr.v_ego, tr.gap, tr.a_obs], rows)
        valid += 1
    assert valid


def _avx512_dispatch_targets():
    """AVX-512 targets that numpy dispatches to and this CPU enables."""
    return [t for t in enabled_dispatch_targets()
            if t.startswith("AVX512") or t == "X86_V4"]


_BATCH_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
from test_kernels import _avx512_dispatch_targets, _batch_results, _prior_batch
accel, rmse, rollouts = _batch_results(*_prior_batch())
print(json.dumps({"still_enabled": _avx512_dispatch_targets(),
                  "accel": accel.tobytes().hex(), "rmse": rmse.tobytes().hex(),
                  "rollouts": rollouts.tobytes().hex()}))
"""


@pytest.mark.skipif(not _avx512_dispatch_targets(),
                    reason="no AVX-512 numpy dispatch target enabled in this process")
def test_batch_results_identical_with_avx512_dispatch_disabled():
    out = subprocess.run(
        [sys.executable, "-c", _BATCH_SCRIPT, str(Path(__file__).parent)],
        env=dispatch_disabled_env(_avx512_dispatch_targets()),
        capture_output=True, text=True, check=True)
    other = json.loads(out.stdout)
    assert other["still_enabled"] == []
    accel, rmse, rollouts = _batch_results(*_prior_batch())
    assert bytes.fromhex(other["accel"]) == accel.tobytes()
    assert bytes.fromhex(other["rmse"]) == rmse.tobytes()
    assert bytes.fromhex(other["rollouts"]) == rollouts.tobytes()
