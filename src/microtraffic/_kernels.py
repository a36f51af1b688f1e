"""Hot numeric kernels, compiled with numba when available.

The car-following step and the calibration objective dominate runtime
(a chain run evaluates the objective tens of thousands of times, each
over a few hundred samples), so they get @njit treatment. A pure-numpy
twin of every kernel is kept alongside; setting the environment variable
``MICROTRAFFIC_NUMBA=0`` (also ``false``/``off``/``no``) selects it, as
does numba simply not being importable. ``ACTIVE.name`` reports which
backend is in use.

The sequential kernels share a single source for both backends, so a
given input produces the same trajectory on either path. The batch
kernels (``accel_series``, ``rmse_one_step``) are vectorised in the
numpy twin.

The scalar law ``_idm_accel`` (rollouts, ``follower_step``) and the
numpy batch law ``_accel_series_np`` (the one-step RMSE, and through
``_follower_step_np`` the environment's background traffic) use the same
floating-point operation for each term: the ``(v/v_des)**delta`` term is
libm ``pow`` (scalar ``**``, and ``np.float_power`` for arrays, which is
never dispatched to a SIMD ``pow``), and the squared gap ratio is a
single multiply. Every other operation is a correctly rounded IEEE add,
multiply, divide or square root. The two therefore agree bit for bit on
every CPU target numpy's SIMD dispatch can select, with one parameter
vector for all samples or one per sample: a trajectory rolled out at
theta scores a one-step RMSE of exactly zero at theta, and a BV in the
environment moves exactly as a numpy-backend rollout of it would. The
numba ``rmse_one_step`` loop and the numpy pairwise sum (the one
``np.mean`` uses) differ only in summation order.

On the numpy backend a rollout runs the scalar law on Python floats, not
on the slower numpy scalars: ``**`` on Python floats is the same libm
``pow`` as on ``np.float64``, and the rest is correctly rounded IEEE
arithmetic either way. Where Python floats raise ``ArithmeticError`` and
numpy scalars carry inf or nan on, the rollout is rerun on the arrays,
so its results stay bit-identical.

The environment always uses the numpy batch step, whichever backend is
active. Where numba is active, rollouts run the compiled scalar kernels,
so "environment equals rollout" rests there on the numba-only test that
the compiled and plain-Python scalar kernels agree bit for bit.
"""

import math
import os
from typing import Callable, NamedTuple

import numpy as np

try:
    from numba import njit
    from numba.extending import register_jitable

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - exercised only when numba is absent
    NUMBA_AVAILABLE = False

    def register_jitable(func):
        return func


_DISABLE_VALUES = ("0", "false", "off", "no")


def numba_disabled_by_env(value=None):
    """True when the environment flag requests the pure-numpy backend."""
    if value is None:
        value = os.environ.get("MICROTRAFFIC_NUMBA", "")
    return value.strip().lower() in _DISABLE_VALUES


@register_jitable
def _idm_accel(a_max, a_comf, v_des, d_min, T, delta, v, dv, gap):
    # Desired gap is clamped at zero before squaring so a fast-opening gap
    # (large negative dv) cannot turn the interaction term into a push.
    d_des = d_min + v * T + v * dv / (2.0 * math.sqrt(a_max * a_comf))
    if d_des < 0.0:
        d_des = 0.0
    q = d_des / gap
    return a_max * (1.0 - (v / v_des) ** delta - q * q)


@register_jitable
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
    """Numpy-backend rollout: ``_rollout_loop`` on Python floats, rerun on
    the arrays where Python floats raise (see the module docstring)."""
    try:
        return _rollout_loop(theta.tolist(), lead_v.tolist(), v0, gap0, dt,
                             v_out, gap_out, a_out)
    except ArithmeticError:
        return _rollout_loop(theta, lead_v, v0, gap0, dt, v_out, gap_out, a_out)


def _accel_series_loop(theta, v, dv, gap, out):
    for i in range(v.shape[0]):
        out[i] = _idm_accel(
            theta[0], theta[1], theta[2], theta[3], theta[4], theta[5],
            v[i], dv[i], gap[i],
        )


def _rmse_one_step_loop(theta, v, dv, gap, a_obs):
    acc = 0.0
    for i in range(v.shape[0]):
        pred = _idm_accel(
            theta[0], theta[1], theta[2], theta[3], theta[4], theta[5],
            v[i], dv[i], gap[i],
        )
        r = a_obs[i] - pred
        acc += r * r
    return np.sqrt(acc / v.shape[0])


def _accel_series_np(theta, v, dv, gap, out):
    """Numpy twin of the acceleration batch kernel.

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
    """Batch twin of ``_follower_step``: one forward-Euler step per row.

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


class KernelBackend(NamedTuple):
    name: str
    idm_accel: Callable
    follower_step: Callable
    rollout: Callable
    accel_series: Callable
    rmse_one_step: Callable


NUMPY_BACKEND = KernelBackend(
    name="numpy",
    idm_accel=_idm_accel,
    follower_step=_follower_step,
    rollout=_rollout_floats,
    accel_series=_accel_series_np,
    rmse_one_step=_rmse_one_step_np,
)

if NUMBA_AVAILABLE:
    NUMBA_BACKEND = KernelBackend(
        name="numba",
        idm_accel=njit(cache=True)(_idm_accel),
        follower_step=njit(cache=True)(_follower_step),
        rollout=njit(cache=True)(_rollout_loop),
        accel_series=njit(cache=True)(_accel_series_loop),
        rmse_one_step=njit(cache=True)(_rmse_one_step_loop),
    )
else:  # pragma: no cover
    NUMBA_BACKEND = None

if NUMBA_BACKEND is not None and not numba_disabled_by_env():
    ACTIVE = NUMBA_BACKEND
else:
    ACTIVE = NUMPY_BACKEND


def available_backends():
    """Backends usable in this process, numpy first."""
    out = [NUMPY_BACKEND]
    if NUMBA_BACKEND is not None:
        out.append(NUMBA_BACKEND)
    return out
