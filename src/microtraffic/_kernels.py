"""Hot numeric kernels of the car-following law, on numpy and Python floats.

The car-following step and the calibration objective dominate runtime: a
chain run evaluates the objective tens of thousands of times, each over a
few hundred samples. The scalar kernels (``_idm_accel``,
``_follower_step``, ``_rollout_loop``) step one follower at a time; the
batch kernels (``_accel_series_np``, ``_follower_step_np``,
``_rmse_one_step_np``) are vectorised over samples.

The scalar law ``_idm_accel`` (rollouts, ``follower_step``) and the batch
law ``_accel_series_np`` (the one-step RMSE, and through
``_follower_step_np`` the environment's background traffic) use the same
floating-point operation for each term: the ``(v/v_des)**delta`` term is
libm ``pow`` (scalar ``**``, and ``np.float_power`` for arrays, which is
never dispatched to a SIMD ``pow``), and the squared gap ratio is a
single multiply. Every other operation is a correctly rounded IEEE add,
multiply, divide or square root. The two therefore agree bit for bit on
every dispatch target numpy's SIMD dispatch can select, with one
parameter vector for all samples or one per sample: a trajectory rolled
out at theta scores a one-step RMSE of exactly zero at theta, and a BV in
the environment moves exactly as a rollout of it would.

A rollout runs the scalar law on Python floats, not on the slower numpy
scalars: ``**`` on Python floats is the same libm ``pow`` as on
``np.float64``, and the rest is correctly rounded IEEE arithmetic either
way. Where Python floats raise ``ArithmeticError`` and numpy scalars
carry inf or nan on, the rollout is rerun on the arrays, so its results
stay bit-identical.
"""

import math
from types import SimpleNamespace

import numpy as np

#: Kernel record read by the benchmark's machine record; nothing in the
#: package reads it.
ACTIVE = SimpleNamespace(name="numpy")


def _idm_accel(a_max, a_comf, v_des, d_min, T, delta, v, dv, gap):
    # Desired gap is clamped at zero before squaring so a fast-opening gap
    # (large negative dv) cannot turn the interaction term into a push.
    d_des = d_min + v * T + v * dv / (2.0 * math.sqrt(a_max * a_comf))
    if d_des < 0.0:
        d_des = 0.0
    q = d_des / gap
    return a_max * (1.0 - (v / v_des) ** delta - q * q)


def _follower_step(a_max, a_comf, v_des, d_min, T, delta, v, v_lead, gap, dt):
    """One forward-Euler step of a follower behind a leader.

    Positions advance with the speeds held at the start of the step, so the
    gap update uses the pre-step relative speed. Speed is floored at zero.
    Returns (accel at the pre-step state, next speed, next gap).
    """
    a = _idm_accel(a_max, a_comf, v_des, d_min, T, delta, v, v - v_lead, gap)
    v_next = v + a * dt
    if v_next < 0.0:
        v_next = 0.0
    gap_next = gap + (v_lead - v) * dt
    return a, v_next, gap_next


def _rollout_loop(theta, lead_v, v0, gap0, dt, v_out, gap_out, a_out):
    """Roll a follower forward, recording one sample per step.

    Sample k holds the state after k Euler steps plus the acceleration
    evaluated at that state. Stops early when the gap collapses to zero
    or below; returns (samples recorded, collapsed flag).
    """
    n = len(lead_v)
    v = v0
    gap = gap0
    for k in range(n):
        v_out[k] = v
        gap_out[k] = gap
        a, v, gap = _follower_step(
            theta[0], theta[1], theta[2], theta[3], theta[4], theta[5],
            v, lead_v[k], gap, dt,
        )
        a_out[k] = a
        if gap <= 0.0 and k + 1 < n:
            return k + 1, True
    return n, False


def _rollout_floats(theta, lead_v, v0, gap0, dt, v_out, gap_out, a_out):
    """``_rollout_loop`` on Python floats, rerun on the arrays where Python
    floats raise (see the module docstring)."""
    try:
        return _rollout_loop(theta.tolist(), lead_v.tolist(), v0, gap0, dt,
                             v_out, gap_out, a_out)
    except ArithmeticError:
        return _rollout_loop(theta, lead_v, v0, gap0, dt, v_out, gap_out, a_out)


def _accel_series_np(theta, v, dv, gap, out):
    """Acceleration law over a batch of samples, written into ``out``.

    ``theta`` is one parameter vector (shape ``(6,)``) shared by every
    sample, or one column of parameters per sample (shape ``(6, n)``).
    Same operation per term as ``_idm_accel``: ``np.float_power``, not
    ``np.power``, so the delta term is libm ``pow`` on every CPU.
    """
    a_max, a_comf, v_des, d_min, T, delta = theta
    d_des = d_min + v * T + v * dv / (2.0 * np.sqrt(a_max * a_comf))
    np.maximum(d_des, 0.0, out=d_des)
    q = d_des / gap
    np.multiply(a_max, 1.0 - np.float_power(v / v_des, delta) - q * q, out=out)


def _follower_step_np(theta, v, v_lead, gap, dt):
    """``_follower_step`` over a batch: one forward-Euler step per row.

    ``theta`` is as in ``_accel_series_np``. Same arithmetic as the scalar
    step, so every row equals ``_follower_step`` on that row bit for bit.
    Returns arrays (accel at the pre-step state, next speed, next gap).
    """
    a = np.empty_like(v)
    _accel_series_np(theta, v, v - v_lead, gap, a)
    v_next = v + a * dt
    v_next[v_next < 0.0] = 0.0
    gap_next = gap + (v_lead - v) * dt
    return a, v_next, gap_next


def _rmse_one_step_np(theta, v, dv, gap, a_obs):
    pred = np.empty_like(v)
    _accel_series_np(theta, v, dv, gap, pred)
    pred -= a_obs
    pred *= pred
    # np.mean's own pairwise sum and divide, without its Python-level checks.
    return math.sqrt(np.add.reduce(pred) / pred.shape[0])
