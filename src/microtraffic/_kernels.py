"""Hot numeric kernels of the car-following law, on numpy and Python floats.

The car-following step and the calibration objective dominate runtime: a
chain run evaluates the objective tens of thousands of times, each over a
few hundred samples. ``_idm_accel`` and ``_rollout_loop`` step one
follower at a time; the ``_np`` kernels are vectorised over samples.

The scalar law ``_idm_accel`` (rollouts, ``idm_acceleration``) and the
batch law ``_accel_series_np`` (the one-step RMSE, and through
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

Both laws take ``(a_max, b2, v_des, d_min, T, delta)``, the desired-gap
denominator ``b2 = 2.0 * sqrt(a_max * a_comf)`` in place of ``a_comf``:
``_law`` builds it from six floats (``ParamSet.law``), ``_rmse_one_step_np``
from arrays; ``math.sqrt`` and ``np.sqrt`` are both correctly rounded. The
scalar law runs on Python floats, not the slower numpy scalars: ``**`` on
them is the same libm ``pow`` as on ``np.float64``, and the rest is
correctly rounded IEEE arithmetic either way. Where Python floats raise
(``**`` overflow, division by zero), ``_idm_accel`` evaluates the same
expression on numpy scalars, which carry inf or nan on: the law is total.

``_follower_step`` is the environment's one entry to the law. A numpy
call costs about as much as the scalar law on one row, and the batch step
makes about twenty, so up to ``_SCALAR_ROWS`` rows it loops ``_idm_accel``
over Python floats and above that it calls ``_follower_step_np``. Since
the two laws agree bit for bit, the crossover moves time, never a result.
"""

import math
from types import SimpleNamespace

import numpy as np

#: Kernel record read by the benchmark's machine record; nothing in the
#: package reads it.
ACTIVE = SimpleNamespace(name="numpy")


def _law(theta):
    """``_idm_accel``'s first six arguments of the six floats ``theta``."""
    a_max, a_comf, v_des, d_min, T, delta = theta
    return a_max, 2.0 * math.sqrt(a_max * a_comf), v_des, d_min, T, delta


def _idm_accel(a_max, b2, v_des, d_min, T, delta, v, dv, gap):
    """The scalar law on ``_law``'s tuple; inf or nan, never an exception."""
    try:
        # Desired gap is clamped at zero before squaring so a fast-opening
        # gap (large negative dv) cannot turn the interaction term into a push.
        d_des = d_min + v * T + v * dv / b2
        if d_des < 0.0:
            d_des = 0.0
        q = d_des / gap
        return a_max * (1.0 - (v / v_des) ** delta - q * q)
    except ArithmeticError:
        with np.errstate(all="ignore"):
            args = map(np.float64, (a_max, b2, v_des, d_min, T, delta, v, dv, gap))
            return float(_idm_accel(*args))


def _rollout_loop(law, lead_v, v0, gap0, dt):
    """Roll a follower behind leader speeds ``lead_v`` with forward Euler.

    Sample k holds the state after k steps plus the acceleration at that
    state. The gap advances with the pre-step speeds; speed is floored at
    zero. Returns lists (speed, gap, accel) of the samples; fewer samples
    than leader speeds means the gap collapsed to zero or below.
    """
    a_max, b2, v_des, d_min, T, delta = law
    vs, gaps, accs = [], [], []
    v, gap = v0, gap0
    for v_lead in lead_v:
        a = _idm_accel(a_max, b2, v_des, d_min, T, delta, v, v - v_lead, gap)
        vs.append(v)
        gaps.append(gap)
        accs.append(a)
        gap += (v_lead - v) * dt
        v += a * dt
        if v < 0.0:
            v = 0.0
        if gap <= 0.0:
            break
    return vs, gaps, accs


def _accel_series_np(law, v, dv, gap):
    """Acceleration law over a batch of samples.

    ``law`` is ``_idm_accel``'s ``(a_max, b2, v_des, d_min, T, delta)``,
    each a scalar shared by every sample or one value per sample. Same
    operation per term as ``_idm_accel``: ``np.float_power``, not
    ``np.power``, so the delta term is libm ``pow`` on every CPU.
    """
    a_max, b2, v_des, d_min, T, delta = law
    d_des = d_min + v * T + v * dv / b2
    np.maximum(d_des, 0.0, out=d_des)
    q = d_des / gap
    return a_max * (1.0 - np.float_power(v / v_des, delta) - q * q)


def _follower_step_np(law, v, v_lead, gap, dt):
    """One forward-Euler step per row, as ``_rollout_loop`` takes it.

    ``law`` is as in ``_accel_series_np``. Same arithmetic as a rollout
    step, so every row equals that step on that row bit for bit.
    Returns arrays (accel at the pre-step state, next speed, next gap).
    """
    a = _accel_series_np(law, v, v - v_lead, gap)
    v_next = v + a * dt
    v_next[v_next < 0.0] = 0.0
    gap_next = gap + (v_lead - v) * dt
    return a, v_next, gap_next


#: Row count up to which ``_follower_step`` loops the scalar law. Timed
#: with ``timeit`` on random rows (numpy 2.4, 2-vCPU x86-64 host): the
#: batch step costs 10-12 us from 1 to 16 rows and 14 us at 32, the scalar
#: loop, list conversions included, 2.7 us at 1 row, 8.8 us at 12, 11.5 us
#: at 16 and 23 us at 32. The two meet at about 16 rows.
_SCALAR_ROWS = 16


def _follower_step(law, v, v_lead, gap, dt):
    """``_follower_step_np``'s step and result, on the scalar law
    ``_idm_accel`` over Python floats for at most ``_SCALAR_ROWS`` rows,
    where numpy's per-call cost outweighs the arithmetic. The two laws
    agree bit for bit, so either branch gives the same arrays. Speeds are
    >= 0 or NaN, as the environment keeps them: ``**`` on a negative
    Python float goes complex where ``np.float_power`` gives NaN."""
    if len(v) > _SCALAR_ROWS:
        return _follower_step_np(law, v, v_lead, gap, dt)
    accs, vs, gaps = [], [], []
    for a_max, b2, v_des, d_min, T, delta, vk, lead, g in zip(
            *law.tolist(), v.tolist(), v_lead.tolist(), gap.tolist()):
        a = _idm_accel(a_max, b2, v_des, d_min, T, delta, vk, vk - lead, g)
        accs.append(a)
        v_next = vk + a * dt
        vs.append(0.0 if v_next < 0.0 else v_next)
        gaps.append(g + (lead - vk) * dt)
    return np.array(accs), np.array(vs), np.array(gaps)


def _rmse_np(err):
    """Root mean square along the last axis, squaring ``err`` in place; each
    row of a C-contiguous block gets the pairwise sum it would get alone."""
    err *= err
    # np.mean's own pairwise sum and divide, without its Python-level checks.
    return np.sqrt(np.add.reduce(err, axis=-1) / err.shape[-1])


def _rmse_one_step_np(theta, v, dv, gap, a_obs):
    """One-step prediction RMSE of ``a_obs`` along the last axis at
    ``theta``, shape ``(6,)``, or ``(6, K, 1)`` for ``(K, n)`` samples."""
    a_max, a_comf, *rest = theta
    pred = _accel_series_np((a_max, 2.0 * np.sqrt(a_max * a_comf), *rest), v, dv, gap)
    pred -= a_obs
    return _rmse_np(pred)
