"""Hot numeric kernels of the car-following law, on numpy and Python floats.

The car-following step and the calibration objective dominate runtime: a
chain run evaluates the objective tens of thousands of times, each over a
few hundred samples. ``_idm_accel`` and ``_rollout_loop`` step one
follower at a time; the ``_np`` kernels are vectorised over samples.

The scalar law ``_idm_accel`` (``idm_acceleration``, the ego policy, the
environment's few-vehicle step), its inline copy in ``_rollout_loop``
(rollouts and the rollout objective) and the batch law ``_accel_series_np``
(the one-step RMSE, and through ``_follower_step_np`` the environment's
background traffic) use the same floating-point operation for each term:
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
compute, and ``_follower_step_np`` forms ``v * (v - v_lead)`` itself. Its
terms go, in the scalar law's order, into two buffers the caller owns
(the lockstep batch allocates its ``(K, n)`` pair once) or into two
arrays of its own; an IEEE operation gives the same bits whichever array
it writes to.

Both laws take ``(a_max, b2, v_des, d_min, T, delta)``, the desired-gap
denominator ``b2 = 2.0 * sqrt(a_max * a_comf)`` in place of ``a_comf``:
``_law`` builds it from six floats (``ParamSet.law``), ``_rmse_one_step_np``
from arrays; ``math.sqrt`` and ``np.sqrt`` are both correctly rounded. The
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


def _follower_step_np(law, v, v_lead, gap, dt):
    """One forward-Euler step per row, as ``_rollout_loop`` takes it.

    ``law`` is as in ``_accel_series_np``. Same arithmetic as a rollout
    step, so every row equals that step on that row bit for bit.
    Returns arrays (accel at the pre-step state, next speed, next gap).
    """
    a = _accel_series_np(law, v, v * (v - v_lead), gap)
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


def _rmse_np(err, out=None):
    """Root mean square along the last axis, squaring ``err`` in place; each
    row of a C-contiguous block gets the pairwise sum it would get alone.
    The sums, mean and root go into ``out`` (one float64 per row), or into
    an array of its own."""
    err *= err
    if out is None:
        out = np.empty(err.shape[:-1])
    # np.mean's own pairwise sum and divide, without its Python-level checks.
    np.add.reduce(err, axis=-1, out=out)
    np.divide(out, err.shape[-1], out=out)
    return np.sqrt(out, out=out)


def _one_step_np(theta, v, vdv, gap, out=None, tmp=None):
    """One-step predicted accelerations at ``theta``, shape ``(6,)``, or
    ``(6, K, 1)`` for ``(K, n)`` samples; ``vdv`` is ``v * dv``, and
    ``out`` and ``tmp`` are as in ``_accel_series_np``."""
    a_max, a_comf, *rest = theta
    law = (a_max, 2.0 * np.sqrt(a_max * a_comf), *rest)
    return _accel_series_np(law, v, vdv, gap, out, tmp)


def _rmse_one_step_np(theta, v, vdv, gap, a_obs):
    """One-step prediction RMSE of ``a_obs`` along the last axis at
    ``theta``, shaped as for ``_one_step_np``."""
    pred = _one_step_np(theta, v, vdv, gap)
    pred -= a_obs
    return _rmse_np(pred)
