"""Hot numeric kernels of the car-following law, on numpy and Python floats.

The car-following step and the calibration objective dominate runtime: a
chain run evaluates the objective tens of thousands of times, each over a
few hundred samples. ``_idm_accel`` and ``_rollout_loop`` step one
follower at a time; the ``_np`` kernels are vectorised over samples.

The scalar law ``_idm_accel`` (``idm_acceleration``, the ego policy, the
environment's background traffic on floats), its inline copy in
``_rollout_loop`` (rollouts and the rollout objective) and the batch law
``_accel_series_np`` (the one-step RMSE, the environment's background
traffic on arrays) use the same floating-point operation for each term:
the ``(v/v_des)**delta`` term is libm ``pow`` (scalar ``**``, and
``np.float_power`` for arrays, which is never dispatched to a SIMD
``pow``), and the squared gap ratio is a single multiply. Every other
operation is a correctly rounded IEEE add, multiply, divide or square
root. For speeds >= 0 or NaN, the laws therefore agree bit for bit on
every dispatch target numpy's SIMD dispatch can select, with one
parameter vector for all samples or one per sample: a trajectory rolled
out at theta scores a one-step RMSE of exactly zero at theta, and a BV in
the environment moves exactly as a rollout of it would.

The batch law runs in place and takes the product ``v * dv`` from its
callers instead of ``dv``: the scalar law's ``v * dv / b2`` multiplies
first, so a product formed once (``TargetDensity`` and the lockstep batch
form it when they are built, from data alone) has the bits the law would
compute, and the environment forms ``v * (v - v_lead)`` each step. Its
terms go, in the scalar law's order, into the lockstep batch's two
``(K, n)`` buffers or into two arrays of its own; an IEEE operation gives
the same bits whichever array it writes to.

Both laws take ``(a_max, b2, v_des, d_min, T, delta)``, the desired-gap
denominator ``b2 = 2.0 * sqrt(a_max * a_comf)`` in place of ``a_comf``:
``_law`` builds it from six floats (``ParamSet.law``), ``_rmse_one_step_np``
and the lockstep batch with numpy; ``math.sqrt`` and ``np.sqrt`` are both
correctly rounded. The
scalar law runs on Python floats, not the slower numpy scalars: ``**`` on
them is the same libm ``pow`` as on ``np.float64``, and the rest is
correctly rounded IEEE arithmetic either way. Where Python floats raise
(``**`` overflow, division by zero), ``_idm_accel`` evaluates the same
expression on numpy scalars, which carry inf or nan on: for speeds >= 0
or NaN the law is total. A negative speed is outside it: ``**`` on a
negative Python float with a non-integer ``delta`` goes complex where
``np.float_power`` gives NaN. No caller passes one: ``FollowingState``
and ``idm.rollout_start`` reject negative speeds, ``_rollout_loop`` and
the environment floor speeds at 0 (each step's next speed, and a BV's
spawn speed), and the ego policy passes ``max(v, 0.0)``.

``_rollout_loop`` holds the law's expression inline rather than calling
``_idm_accel``: the rollout objective runs it once per step of every
proposal, and a call per step costs about as much as the arithmetic. On
the rare step where Python floats raise, the loop calls ``_idm_accel``
with that step's arguments, so the numpy fallback lives in one place.
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
    """Accelerations of a follower rolled behind leader speeds ``lead_v``
    with forward Euler, from speed ``v0`` >= 0 and gap ``gap0`` > 0.

    Entry k is the acceleration at the state after k steps. The gap
    advances with the pre-step speeds; speed is floored at zero. Fewer
    entries than leader speeds means the gap collapsed to zero or below.

    This is the rollout objective's scoring pass, so it keeps only what
    the score needs: the law's expression is inline, with ``dv`` taken
    once per step, and the speeds and gaps are not stored
    (``idm.rollout_follower`` replays them from the accelerations). A step
    where Python floats raise goes to ``_idm_accel`` with the same
    arguments, which owns the numpy fallback; the inline expression is
    ``_idm_accel``'s, term for term, so every entry has its bits.
    """
    a_max, b2, v_des, d_min, T, delta = law
    accs = []
    v, gap = v0, gap0
    for v_lead in lead_v:
        dv = v - v_lead
        try:
            d_des = d_min + v * T + v * dv / b2
            if d_des < 0.0:
                d_des = 0.0
            q = d_des / gap
            a = a_max * (1.0 - (v / v_des) ** delta - q * q)
        except ArithmeticError:
            a = _idm_accel(a_max, b2, v_des, d_min, T, delta, v, dv, gap)
        accs.append(a)
        gap += (v_lead - v) * dt
        v += a * dt
        if v < 0.0:
            v = 0.0
        if gap <= 0.0:
            break
    return accs


def _accel_series_np(law, v, vdv, gap, out=None, tmp=None):
    """Acceleration law over a batch of samples, from the speeds ``v``, the
    products ``vdv = v * dv`` of speed and closing speed, and the gaps.

    ``law`` is ``_idm_accel``'s ``(a_max, b2, v_des, d_min, T, delta)``,
    each a scalar shared by every sample or one value per sample. Same
    operation per term, in the same order, as ``_idm_accel``:
    ``np.float_power``, not ``np.power``, so the delta term is libm ``pow``
    on every CPU, and ``vdv / b2`` is the ``v * dv / b2`` of the scalar
    law, which multiplies first. ``v`` has the shape of the result, and
    every other argument broadcasts to it. The terms are evaluated in
    place, into ``out`` and ``tmp`` when the caller passes them (two
    float64 arrays of that shape, whose contents are overwritten; the
    result is ``out``) and into two arrays of its own otherwise.
    """
    a_max, b2, v_des, d_min, T, delta = law
    if out is None:
        out, tmp = np.empty(v.shape), np.empty(v.shape)
    np.multiply(v, T, out=out)
    np.add(d_min, out, out=out)
    np.divide(vdv, b2, out=tmp)
    np.add(out, tmp, out=out)
    np.maximum(out, 0.0, out=out)
    np.divide(out, gap, out=out)
    np.multiply(out, out, out=out)
    np.divide(v, v_des, out=tmp)
    np.float_power(tmp, delta, out=tmp)
    np.subtract(1.0, tmp, out=tmp)
    np.subtract(tmp, out, out=out)
    return np.multiply(a_max, out, out=out)


def _rmse_np(err):
    """Root mean square of the 1-D ``err``, squaring it in place: np.mean's
    own pairwise sum and divide, without its Python-level checks."""
    err *= err
    return np.sqrt(np.add.reduce(err) / err.size)


def _rmse_one_step_np(theta, v, vdv, gap, a_obs):
    """One-step prediction RMSE of ``a_obs`` at the 6-vector ``theta``;
    ``vdv`` is ``v * dv``."""
    a_max, a_comf, *rest = theta
    pred = _accel_series_np((a_max, 2.0 * np.sqrt(a_max * a_comf), *rest), v, vdv, gap)
    pred -= a_obs
    return _rmse_np(pred)
