"""Car-following model core: parameters, states, trajectories, rollouts.

The acceleration law has a free-road term shaped by the speed ratio and an
interaction term shaped by the ratio of desired gap to actual gap. A gap of
``+inf`` encodes "no leader" and makes the interaction term exactly zero.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _kernels
from .errors import InputDomainError, SchemaError, SingularGapError, checked

#: Canonical parameter order used by arrays, CSV columns and JSON payloads.
PARAM_NAMES = ("a_max", "a_comf", "v_des", "d_min", "T", "delta")

TRAJECTORY_COLUMNS = ("t", "v_ego", "v_leader", "gap", "a_obs")


@dataclass(frozen=True)
class ParamSet:
    """Driver parameters: all strictly positive.

    a_max   maximum acceleration, m/s^2
    a_comf  comfortable deceleration, m/s^2
    v_des   desired speed, m/s
    d_min   standstill minimum gap, m
    T       desired time headway, s
    delta   free-road acceleration exponent (dimensionless)
    """

    a_max: float
    a_comf: float
    v_des: float
    d_min: float
    T: float
    delta: float = 4.0

    def __post_init__(self):
        for name in PARAM_NAMES:
            value = checked(float, getattr(self, name), name, low=0.0, strict=True)
            object.__setattr__(self, name, value)

    @classmethod
    def _trusted(cls, values) -> "ParamSet":
        """The set of ``values``, floats the package has already bounded
        to be finite and positive, without the checks."""
        p = object.__new__(cls)
        p.__dict__.update(zip(PARAM_NAMES, values))
        return p

    @property
    def law(self) -> tuple:
        """``_kernels._law`` of these parameters: (a_max, b2, v_des, d_min, T, delta)."""
        return _kernels._law((self.a_max, self.a_comf, self.v_des, self.d_min,
                              self.T, self.delta))

    def to_array(self) -> np.ndarray:
        return np.array([getattr(self, n) for n in PARAM_NAMES], dtype=np.float64)

    @classmethod
    def from_array(cls, theta) -> "ParamSet":
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (len(PARAM_NAMES),):
            raise InputDomainError(f"expected {len(PARAM_NAMES)} parameters, got shape {theta.shape}")
        return cls(*theta)

    def as_dict(self) -> dict:
        return {n: float(getattr(self, n)) for n in PARAM_NAMES}

    @classmethod
    def from_dict(cls, d) -> "ParamSet":
        missing = [n for n in PARAM_NAMES if n not in d]
        if missing:
            raise InputDomainError(f"missing parameters: {missing}")
        return cls(**{n: d[n] for n in PARAM_NAMES})


@dataclass(frozen=True)
class FollowingState:
    """Instantaneous follower state.

    v        follower speed, m/s (>= 0)
    delta_v  speed difference v - v_leader, m/s
    d_front  bumper-to-bumper gap to the leader, m; +inf means no leader
    """

    v: float
    delta_v: float
    d_front: float

    def __post_init__(self):
        v = checked(float, self.v, "speed", low=0.0)
        delta_v = checked(float, self.delta_v, "delta_v")
        d_front = checked(float, self.d_front, "gap", finite=False)
        if math.isnan(d_front) or d_front <= 0.0:
            raise SingularGapError(
                f"gap must be > 0 (+inf for no leader), got {d_front!r}"
            )
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "delta_v", delta_v)
        object.__setattr__(self, "d_front", d_front)

    @property
    def has_leader(self) -> bool:
        return math.isfinite(self.d_front)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Uniformly sampled follower trajectory.

    Columns follow the CSV layout: t, v_ego, v_leader, gap, a_obs. The gap
    is bumper-to-bumper and stays strictly positive at every sample (+inf
    allowed for leaderless stretches). ``gap_collapsed`` marks a rollout
    that stopped early because the next state would have had gap <= 0.
    Equality and hashing are by identity, as the arrays define no truth
    value.
    """

    dt: float
    t: np.ndarray
    v_ego: np.ndarray
    v_leader: np.ndarray
    gap: np.ndarray
    a_obs: np.ndarray
    gap_collapsed: bool = False

    def __post_init__(self):
        object.__setattr__(self, "dt", checked(float, self.dt, "dt", low=0.0, strict=True))
        arrays = {}
        n = None
        for name in TRAJECTORY_COLUMNS:
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            if arr.ndim != 1:
                raise InputDomainError(f"column {name!r} must be 1-D")
            if n is None:
                n = arr.size
            elif arr.size != n:
                raise InputDomainError(
                    f"column {name!r} has {arr.size} rows, expected {n}"
                )
            arrays[name] = arr
            object.__setattr__(self, name, arr)
        if n:
            expected = arrays["t"][0] + np.arange(n) * self.dt
            if not np.allclose(arrays["t"], expected, rtol=0.0, atol=1e-6 * self.dt):
                raise InputDomainError("timestamps are not uniformly spaced by dt")
            for name in ("v_ego", "v_leader", "a_obs"):
                if not np.all(np.isfinite(arrays[name])):
                    raise InputDomainError(f"column {name!r} contains non-finite values")
            if np.any(np.isnan(arrays["gap"])) or np.any(arrays["gap"] <= 0.0):
                raise SingularGapError("gap must be > 0 at every sample")

    def __len__(self) -> int:
        return self.t.size

    def states(self):
        """(v, delta_v, gap) arrays for one-step prediction at each sample."""
        return self.v_ego, self.v_ego - self.v_leader, self.gap

    def to_csv(self, path) -> None:
        path = Path(path)
        # A nonzero value equal to the one above it in its column (the
        # leader speed holds for whole pieces of synthetic data) reuses
        # that one's ``repr`` text, as in ``Chain.to_csv`` and the
        # environment's trace: equal nonzero floats have equal bits, and
        # +-0.0 (equal, but not the same text) always goes through ``repr``.
        columns = [_column_text(getattr(self, name)) for name in TRAJECTORY_COLUMNS]
        with path.open("w", newline="") as fh:
            fh.write(",".join(TRAJECTORY_COLUMNS) + "\n")
            fh.write("".join([f"{t},{v},{v_lead},{gap},{a}\n"
                              for t, v, v_lead, gap, a in zip(*columns)]))

    @classmethod
    def from_csv(cls, path) -> "Trajectory":
        path = Path(path)
        try:
            with path.open(newline="") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path}: not valid UTF-8 text: {exc}") from None
        values = _csv_values(path, text)
        width = len(TRAJECTORY_COLUMNS)
        n = len(values) // width
        if n < 2:
            raise SchemaError(f"{path}: needs at least 2 data rows to fix dt, got {n}")
        # dt is the second row's t minus the first's.
        dt = values[width] - values[0]
        return cls(dt, *np.array(values).reshape(n, width).T)


def _column_text(values):
    """``repr`` text of each float of the 1-D array ``values``, built once
    per run of equal nonzero values."""
    first = np.ones(values.size, dtype=bool)
    first[1:] = (values[1:] != values[:-1]) | (values[1:] == 0.0)
    texts = list(map(repr, values[first].tolist()))
    if len(texts) == values.size:
        return texts
    return [texts[run] for run in (np.cumsum(first) - 1).tolist()]


def _csv_values(path, text) -> list:
    """The values of the data rows of the CSV ``text``, row after row, read
    by ``csv.reader``; a bad header, field count or value raises
    ``SchemaError`` naming its line."""
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if header != list(TRAJECTORY_COLUMNS):
        raise SchemaError(
            f"{path}: expected header {','.join(TRAJECTORY_COLUMNS)}, got {header}"
        )
    values = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(TRAJECTORY_COLUMNS):
            raise SchemaError(
                f"{path}: row {lineno}: expected {len(TRAJECTORY_COLUMNS)} fields, got {len(row)}"
            )
        try:
            values.extend([float(x) for x in row])
        except ValueError as exc:
            raise SchemaError(f"{path}: row {lineno}: {exc}") from None
    return values


def idm_acceleration(p: ParamSet, s: FollowingState) -> float:
    """Longitudinal acceleration for state ``s`` under parameters ``p``.

    With no leader (``d_front == +inf``) the interaction term is exactly
    zero. The result is never silently non-finite: where the law gives inf
    or nan (``_kernels._idm_accel``), this raises instead.
    """
    a = _kernels._idm_accel(*p.law, s.v, s.delta_v, s.d_front)
    if not math.isfinite(a):
        raise InputDomainError(
            f"acceleration overflowed for v={s.v}, delta_v={s.delta_v}, gap={s.d_front}"
        )
    return a


def desired_gap(p: ParamSet, v: float, delta_v: float) -> float:
    """Desired (unclamped) gap at speed ``v`` and closing speed ``delta_v``.

    May be negative for strongly opening gaps; the acceleration law clamps
    it at zero internally, this helper reports the raw value. Raises when
    the value is not finite, e.g. when ``a_max * a_comf`` underflows to 0.
    """
    v = checked(float, v, "speed", low=0.0)
    delta_v = checked(float, delta_v, "delta_v")
    try:
        gap = p.d_min + v * p.T + v * delta_v / p.law[1]
    except ZeroDivisionError:
        gap = math.nan
    if not math.isfinite(gap):
        raise InputDomainError(
            f"desired gap is not finite for v={v}, delta_v={delta_v} "
            f"(a_max * a_comf = {p.a_max * p.a_comf!r})"
        )
    return gap


def rollout_follower(p: ParamSet, leader_speeds, init: FollowingState,
                     dt: float, n_steps: int) -> Trajectory:
    """Integrate a follower behind a scripted leader with forward Euler.

    ``leader_speeds`` is a scalar (constant leader) or an array with at
    least ``n_steps`` entries giving the leader speed at each step. Sample
    k of the result is the state after k steps together with the model
    acceleration at that state; ``init.delta_v`` is ignored in favour of
    the profile. Stops early with ``gap_collapsed=True`` when the gap
    would close completely.

    ``_kernels._rollout_loop`` returns only the accelerations, as the
    rollout objective needs no more; the speeds and gaps are replayed here
    from them with the loop's own Euler step (gap advanced with the
    pre-step speed, speed floored at 0), so every sample has the bits the
    loop stepped through.
    """
    dt = checked(float, dt, "dt", low=0.0, strict=True)
    n_steps = checked(int, n_steps, "n_steps", low=1)
    lead = np.asarray(leader_speeds, dtype=np.float64)
    if lead.ndim == 0:
        lead = np.full(n_steps, float(lead))
    elif lead.ndim == 1:
        if lead.size < n_steps:
            raise InputDomainError(
                f"leader profile has {lead.size} entries, need {n_steps}"
            )
        lead = np.ascontiguousarray(lead[:n_steps])
    else:
        raise InputDomainError("leader_speeds must be a scalar or 1-D array")
    if not np.all(np.isfinite(lead)) or np.any(lead < 0.0):
        raise InputDomainError("leader speeds must be finite and >= 0")

    lead_v = lead.tolist()
    a = _kernels._rollout_loop(p.law, lead_v, init.v, init.d_front, dt)
    vs, gaps = [], []
    v, gap = init.v, init.d_front
    for v_lead, acc in zip(lead_v, a):
        vs.append(v)
        gaps.append(gap)
        gap += (v_lead - v) * dt
        v += acc * dt
        if v < 0.0:
            v = 0.0
    n = len(a)
    return Trajectory(dt, np.arange(n) * dt, vs, lead[:n].copy(), gaps, a,
                      gap_collapsed=n < n_steps)


def rmse_objective(obs: Trajectory, p: ParamSet) -> float:
    """RMSE of one-step acceleration predictions at the observed states."""
    if len(obs) == 0:
        raise InputDomainError("cannot evaluate objective on an empty trajectory")
    v, dv, gap = obs.states()
    return float(_kernels._rmse_one_step_np(p.to_array(), v, v * dv, gap, obs.a_obs))


def rollout_start(obs: Trajectory):
    """Leader speeds (a list), initial speed and initial gap for
    ``rollout_rmse``, validated as ``rollout_follower`` would validate them."""
    if len(obs) == 0:
        raise InputDomainError("cannot evaluate objective on an empty trajectory")
    init = FollowingState(obs.v_ego[0], obs.v_ego[0] - obs.v_leader[0], obs.gap[0])
    if np.any(obs.v_leader < 0.0):
        raise InputDomainError("leader speeds must be finite and >= 0")
    return obs.v_leader.tolist(), init.v, init.d_front


def rollout_rmse(theta, lead, v0: float, gap0: float, dt: float, a_obs) -> float:
    """RMSE between ``a_obs`` and a rollout at ``theta``; +inf when the gap
    collapses before the horizon or an acceleration is not finite."""
    a = _kernels._rollout_loop(_kernels._law(theta.tolist()), lead, v0, gap0, dt)
    if len(a) < len(lead):
        return math.inf
    rmse = float(_kernels._rmse_np(np.subtract(a, a_obs)))
    # A nan (inf - inf) maps to +inf.
    return rmse if rmse <= math.inf else math.inf


def rollout_rmse_objective(obs: Trajectory, p: ParamSet) -> float:
    """RMSE between observed accelerations and a full re-rollout.

    The rollout starts from the first observed state and is driven by the
    observed leader speeds. Returns +inf when the candidate parameters make
    the simulated gap collapse before the horizon, or overflow the law so
    that a simulated acceleration is not finite; a calibration target
    rejects such a candidate, as it does a non-finite one-step RMSE.
    """
    return rollout_rmse(p.to_array(), *rollout_start(obs), obs.dt, obs.a_obs)
