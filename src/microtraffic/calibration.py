"""Random-walk Metropolis-Hastings calibration of driver parameters.

The target is a Gaussian quasi-likelihood built from the one-step
acceleration-prediction RMSE on an observed trajectory, restricted to a
flat box prior on the positive orthant. The proposal kernel is an
independent Gaussian per coordinate, which is symmetric, so the kernel
terms cancel exactly in the acceptance ratio.

``calibrate`` is the one construction of the ``calibrate`` verb's chains,
and ``run_chains`` the one sampler. Its chains share one schedule (length,
burn-in, thinning), and each equals the plain loop of :func:`mh_step`
calls bit for bit. Trajectory targets of one objective and length are
scored as one block per iteration: one-step rows by the batch law,
rollout rows by one Euler rollout each, with the support test, RMSE and
density shared by the block. Any other target needs only a
``log_density(theta)`` method, so toy targets (see :class:`GaussianTarget`)
can stand in for the trajectory target when validating the chain machinery.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import _kernels
from .errors import DegenerateSeriesError, GenerationError, InputDomainError, checked
from .histogram import Histogram
from .idm import (PARAM_NAMES, FollowingState, ParamSet, Trajectory,
                  desired_gap, rollout_follower, rollout_rmse, rollout_start)

DEFAULT_NOISE_SIGMA = 0.3
#: Flat prior box, open at zero: a_max, a_comf, v_des, d_min, T, delta.
DEFAULT_PRIOR_LO = np.zeros(6)
DEFAULT_PRIOR_HI = np.array([6.0, 8.0, 60.0, 100.0, 5.0, 10.0])
#: Ceiling of the samples ``calibrate`` keeps over all its chains (files
#: times kept iterations): about 136 bytes each in memory, with their
#: histograms and autocorrelations. A long run fits when thinned.
MAX_KEPT_SAMPLES = 4_000_000


def default_proposal_sigma() -> np.ndarray:
    """Per-coordinate proposal scale: 2% of the default prior box width."""
    return 0.02 * (DEFAULT_PRIOR_HI - DEFAULT_PRIOR_LO)


def _theta_of(p) -> np.ndarray:
    if isinstance(p, ParamSet):
        return p.to_array()
    theta = np.asarray(p, dtype=np.float64)
    if theta.ndim != 1 or theta.size == 0:
        raise InputDomainError("parameter vector must be 1-D and non-empty")
    return theta


@dataclass(frozen=True)
class ProposalConfig:
    """Chain settings: proposal scales, length, burn-in, thinning.

    ``burn_in`` defaults to 20% of ``n_iter``. ``pin_delta`` freezes the
    exponent coordinate at the given value instead of calibrating it
    (only meaningful for 6-dimensional chains).
    """

    sigma_prop: np.ndarray
    n_iter: int
    seed: int = 0
    burn_in: int | None = None
    thin: int = 1
    pin_delta: float | None = None

    def __post_init__(self):
        sigma = np.ascontiguousarray(self.sigma_prop, dtype=np.float64)
        if sigma.ndim != 1 or sigma.size == 0:
            raise InputDomainError("sigma_prop must be a non-empty 1-D array")
        if not np.all(np.isfinite(sigma)) or np.any(sigma <= 0.0):
            raise InputDomainError("sigma_prop entries must be finite and > 0")
        object.__setattr__(self, "sigma_prop", sigma)
        n_iter = checked(int, self.n_iter, "n_iter", low=1)
        object.__setattr__(self, "n_iter", n_iter)
        burn_in = n_iter // 5 if self.burn_in is None else checked(int, self.burn_in, "burn_in")
        if not 0 <= burn_in < n_iter:
            raise InputDomainError(
                f"burn_in must satisfy 0 <= burn_in < n_iter, got {burn_in}"
            )
        object.__setattr__(self, "burn_in", burn_in)
        object.__setattr__(self, "thin", checked(int, self.thin, "thin", low=1))
        if self.pin_delta is not None:
            pin = checked(float, self.pin_delta, "pin_delta", low=0.0, strict=True)
            if sigma.size != len(PARAM_NAMES):
                raise InputDomainError("pin_delta requires a 6-dimensional chain")
            object.__setattr__(self, "pin_delta", pin)

    @property
    def effective_sigma(self) -> np.ndarray:
        """Proposal scales actually used; the pinned coordinate gets zero."""
        sigma = self.sigma_prop.copy()
        if self.pin_delta is not None:
            sigma[PARAM_NAMES.index("delta")] = 0.0
        return sigma

    @property
    def n_kept(self) -> int:
        return len(range(self.burn_in, self.n_iter, self.thin))


class TargetDensity:
    """Unnormalised log-posterior for driver parameters given a trajectory.

    ``log_density`` is ``-n * rmse^2 / (2 * noise_sigma^2)`` inside the
    prior box (so exact prediction scores 0) and -inf outside it or for
    any non-positive coordinate. ``objective`` selects the one-step
    prediction RMSE (default) or a full re-rollout RMSE.
    """

    def __init__(self, obs: Trajectory, noise_sigma: float = DEFAULT_NOISE_SIGMA,
                 prior_lo=None, prior_hi=None, objective: str = "one-step"):
        if len(obs) == 0:
            raise InputDomainError("target density needs a non-empty trajectory")
        noise_sigma = checked(float, noise_sigma, "noise_sigma", low=0.0, strict=True)
        # The likelihood's noise_sigma ** 2 must be a float > 0: 1.5e-162 to 1.3e154.
        if not 0.0 < noise_sigma * noise_sigma < math.inf:
            raise InputDomainError(f"noise_sigma must have a finite, nonzero square, got {noise_sigma!r}")
        lo = DEFAULT_PRIOR_LO.copy() if prior_lo is None else np.ascontiguousarray(prior_lo, dtype=np.float64)
        hi = DEFAULT_PRIOR_HI.copy() if prior_hi is None else np.ascontiguousarray(prior_hi, dtype=np.float64)
        if lo.shape != (6,) or hi.shape != (6,):
            raise InputDomainError("prior bounds must be 6-vectors")
        if np.any(lo < 0.0) or np.any(hi <= lo):
            raise InputDomainError("prior box needs 0 <= lo < hi per coordinate")
        if objective not in ("one-step", "rollout"):
            raise InputDomainError(f"unknown objective {objective!r}")
        self.obs = obs
        self.noise_sigma = noise_sigma
        self.prior_lo = lo
        self.prior_hi = hi
        # The support is this closed box: ``theta > 0 and theta >= lo`` is
        # ``theta >= max(lo, 5e-324)``, and a nan lies outside it.
        self._lo = np.maximum(lo, np.nextafter(0.0, 1.0))
        self.objective = objective
        self.dim = 6
        # Trajectory columns are contiguous float64 already. The law takes
        # the data-only product ``v * dv`` (see ``_kernels._accel_series_np``).
        self._v, dv, self._gap = obs.states()
        self._vdv = self._v * dv
        self._a_obs = obs.a_obs
        if objective == "rollout":
            self._rollout = (*rollout_start(obs), obs.dt, self._a_obs)
        self._scale = len(obs) / (2.0 * noise_sigma ** 2)

    @staticmethod
    def _row(theta) -> np.ndarray:
        theta = np.ascontiguousarray(theta, dtype=np.float64)
        if theta.shape != (6,):
            raise InputDomainError(f"theta must be a 6-vector, got shape {theta.shape}")
        return theta

    def _inside(self, row) -> bool:
        return bool(((row >= self._lo) & (row <= self.prior_hi)).all())

    def in_support(self, theta) -> bool:
        return self._inside(self._row(theta))

    def rmse(self, theta) -> float:
        """Objective RMSE at ``theta``; ``log_density`` checks the support."""
        # A row that ``log_density`` checked passes through without a copy.
        theta = np.ascontiguousarray(theta, dtype=np.float64)
        if self.objective == "one-step":
            return float(_kernels._rmse_one_step_np(
                theta, self._v, self._vdv, self._gap, self._a_obs))
        return rollout_rmse(theta, *self._rollout)

    def log_density(self, theta) -> float:
        """The log-density of ``theta``, converted and checked once."""
        row = self._row(theta)
        rmse = self.rmse(row) if self._inside(row) else math.nan
        return -self._scale * rmse * rmse if math.isfinite(rmse) else -math.inf


class GaussianTarget:
    """1-D Gaussian log-density adapter for sampler self-checks."""

    def __init__(self, mu: float, sigma: float):
        self.mu = float(mu)
        self.sigma = checked(float, sigma, "sigma", low=0.0, strict=True)
        self.dim = 1

    def log_density(self, theta) -> float:
        z = (float(np.asarray(theta).ravel()[0]) - self.mu) / self.sigma
        return -0.5 * z * z


class MHStep(NamedTuple):
    theta: np.ndarray
    log_target: float
    accepted: bool


def mh_step(theta_curr, target, sigma, rng: np.random.Generator,
            logp_curr: float | None = None) -> MHStep:
    """One Metropolis-Hastings step from ``theta_curr``.

    Nothing in the package calls it: it is the tests' single-chain step,
    the reference ``run_chains`` matches bit for bit. The name stays for
    the benchmark's tracer, whose step counts by wrapping it now read 0.

    ``sigma`` is the effective proposal scale array; a zero entry leaves
    its coordinate untouched. The kernel is symmetric, so the acceptance
    ratio reduces to the target ratio; a proposal with zero target density
    is always rejected. Pass ``logp_curr`` to skip re-evaluating the target
    at the current point.
    """
    theta_curr = _theta_of(theta_curr)
    if logp_curr is None:
        logp_curr = float(target.log_density(theta_curr))
    theta_prop = theta_curr + sigma * rng.standard_normal(theta_curr.size)
    logp_prop = float(target.log_density(theta_prop))
    u = rng.random()
    if logp_prop > -math.inf and math.log(u) < logp_prop - logp_curr:
        return MHStep(theta_prop, logp_prop, True)
    return MHStep(theta_curr, logp_curr, False)


@dataclass(frozen=True)
class Chain:
    """Post-burn-in, thinned samples plus bookkeeping.

    ``iterations[i]`` is the 0-based chain iteration sample i was recorded
    at and ``accepted[i]`` whether that iteration's proposal was accepted.
    ``accept_count`` counts acceptances over the whole run including
    burn-in.
    """

    samples: np.ndarray
    log_targets: np.ndarray
    iterations: np.ndarray
    accepted: np.ndarray
    accept_count: int
    config: ProposalConfig
    param_names: tuple

    def __len__(self) -> int:
        return self.samples.shape[0]

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    @property
    def acceptance_rate(self) -> float:
        return self.accept_count / self.config.n_iter

    def posterior_mean(self) -> np.ndarray:
        return self.samples.mean(axis=0)

    def to_csv(self, path) -> None:
        path = Path(path)
        # A kept row repeats the one before it unless a proposal was
        # accepted in between, so the ``repr`` text of (theta, log_target)
        # is built only on a row that differs from the one before it, and
        # every row of its run reuses that text. Rows are compared bit for
        # bit: ``==`` merges -0.0 with 0.0 and never matches a NaN. Lines
        # go out in chunks of ``_CSV_CHUNK`` rows, one ``join`` and one
        # write each, so the floats and text of a long chain are never all
        # alive at once.
        theta = np.asarray(self.samples, dtype=np.float64)
        logp = np.asarray(self.log_targets, dtype=np.float64)
        bits, logp_bits = theta.view(np.int64), logp.view(np.int64)
        new = np.ones(len(logp), dtype=bool)
        new[1:] = (bits[1:] != bits[:-1]).any(axis=1) | (logp_bits[1:] != logp_bits[:-1])
        # Row r shows the state that starts at row ``firsts[run[r]]``.
        run = np.cumsum(new) - 1
        firsts = np.flatnonzero(new)
        ends = (",0\n", ",1\n")
        with path.open("w", newline="") as fh:
            fh.write("iter," + ",".join(self.param_names) + ",log_target,accepted\n")
            for start in range(0, len(logp), _CSV_CHUNK):
                stop = start + _CSV_CHUNK
                runs = run[start:stop]
                rows = firsts[runs[0]:runs[-1] + 1]
                texts = [f",{','.join(map(repr, row))},{lp!r}" for row, lp
                         in zip(theta[rows].tolist(), logp[rows].tolist())]
                fh.write("".join([f"{it}{texts[k]}{ends[acc]}" for it, k, acc in zip(
                    self.iterations[start:stop].tolist(), (runs - runs[0]).tolist(),
                    self.accepted[start:stop].tolist())]))


#: Rows per write of ``Chain.to_csv``, about 35 kB of text for six
#: parameters; larger chunks wrote no faster.
_CSV_CHUNK = 256


class _TargetBatch:
    """``TargetDensity`` chains of one objective and trajectory length,
    scored as one ``(K, n)`` block per iteration.

    Only the prediction block depends on the objective. One-step rows get
    the batch law with theta as ``(K, 1)`` columns, evaluated in place into
    two ``(K, n)`` buffers the batch allocates once, from the products
    ``v * dv`` it forms once: the law's ``v * dv / b2`` multiplies first,
    so the hoisted product has the bits the per-row law computes. Rollout
    rows get one ``_rollout_loop`` each, run only for rows in the support,
    and a row whose gap collapsed (or that was not rolled out) becomes NaN,
    which the shared tail maps to -inf. The tail (residual, ``_rmse_np``,
    ``neg_scale * rmse * rmse``, the support and finiteness mask) is the
    one ``TargetDensity.log_density`` runs per row, in place on the
    prediction block and on ``(K,)`` buffers of the batch: the row sums
    of a C-contiguous block equal the 1-D pairwise sums, ``neg_scale *
    rmse`` is ``-scale * rmse``, and a NaN or inf RMSE is -inf on both
    paths. Every buffer is overwritten in full by each call, and the
    returned array is a new one, so no call sees another's values.
    """

    def __init__(self, rows, targets):
        # A run of consecutive chains is sliced, not fancy-indexed.
        contiguous = rows[-1] - rows[0] == len(rows) - 1
        self.rows = slice(rows[0], rows[-1] + 1) if contiguous else np.array(rows)
        self.rollout = targets[0].objective == "rollout"
        if self.rollout:
            self.starts = [t._rollout[:4] for t in targets]
            self.nan_row = [math.nan] * len(targets[0].obs)
        else:
            self.v = np.stack([t._v for t in targets])
            self.vdv = np.stack([t._vdv for t in targets])
            self.gap = np.stack([t._gap for t in targets])
            self.out = np.empty_like(self.v)
            self.tmp = np.empty_like(self.v)
        self.a_obs = np.stack([t._a_obs for t in targets])
        self.lo = np.stack([t._lo for t in targets])
        self.hi = np.stack([t.prior_hi for t in targets])
        self.neg_scale = -np.array([t._scale for t in targets])
        self.rmse = np.empty(len(targets))
        self.logp = np.empty(len(targets))
        self.mask = np.empty(len(targets), dtype=bool)

    def _predictions(self, theta, ok) -> np.ndarray:
        if not self.rollout:
            # Rows outside the support are predicted too and then discarded.
            return _kernels._one_step_np(theta.T[:, :, None], self.v, self.vdv, self.gap,
                                         self.out, self.tmp)
        n = len(self.nan_row)
        accs = []
        for row, inside, (lead, v0, gap0, dt) in zip(theta.tolist(), ok.tolist(), self.starts):
            a = _kernels._rollout_loop(_kernels._law(row), lead, v0, gap0, dt) if inside else ()
            accs.append(a if len(a) == n else self.nan_row)
        # One conversion of every row; ``fromiter`` skips ``np.array``'s
        # pass that discovers the shape and type of nested lists.
        flat = itertools.chain.from_iterable(accs)
        return np.fromiter(flat, np.float64, len(accs) * n).reshape(-1, n)

    def log_densities(self, theta) -> np.ndarray:
        """``log_density`` of each row of ``theta`` under its own target, as
        a new array."""
        # ``.all(axis=1)`` without its Python-level wrapper.
        ok = np.logical_and.reduce((theta >= self.lo) & (theta <= self.hi), axis=1)
        with np.errstate(all="ignore"):
            pred = self._predictions(theta, ok)
            np.subtract(pred, self.a_obs, out=pred)
            rmse = _kernels._rmse_np(pred, self.rmse)
            logp = np.multiply(self.neg_scale, rmse, out=self.logp)
            logp *= rmse
        mask = np.isfinite(rmse, out=self.mask)
        mask &= ok
        return np.where(mask, logp, -math.inf)


def run_chains(targets, cfgs, theta_init) -> list[Chain]:
    """Run one chain per (target, config) pair, all on one schedule.

    The configs must share ``n_iter``, ``burn_in`` and ``thin``; seeds and
    ``pin_delta`` may differ. Every chain starts at ``theta_init``, which
    needs non-zero target density for each, and is bit for bit the chain
    it would be alone: it draws from its own ``Generator`` in the same
    order (``standard_normal(dim)``, then one ``random()`` per iteration,
    in or out of support), its target values come from the same
    floating-point operations, and its accept test is ``math.log`` on
    Python floats. Each iteration proposes a K x dim block. The
    ``TargetDensity`` chains of one objective and trajectory length are
    scored as one block (``_TargetBatch``): one support test, one
    prediction block (the batch law for one-step rows, one
    ``_rollout_loop`` per in-support rollout row) and one shared RMSE
    and density tail. Any other target is scored by its own
    ``log_density``. Each kept iteration is one write per block of shape
    ``(K, n_kept, ...)``; chain c holds row c of each as a contiguous view.
    """
    targets = list(targets)
    cfgs = list(cfgs)
    if len(targets) != len(cfgs):
        raise InputDomainError(f"got {len(targets)} targets but {len(cfgs)} configs")
    if not cfgs:
        return []
    for name in ("n_iter", "burn_in", "thin"):
        if len({getattr(cfg, name) for cfg in cfgs}) > 1:
            raise InputDomainError(f"chains run together need the same {name}")
    n_iter, burn_in, thin = cfgs[0].n_iter, cfgs[0].burn_in, cfgs[0].thin
    theta0 = _theta_of(theta_init)
    dim = theta0.size
    for target, cfg in zip(targets, cfgs):
        # A target without a ``dim`` takes any size.
        target_dim = getattr(target, "dim", dim)
        if cfg.sigma_prop.size != dim or target_dim != dim:
            raise InputDomainError(f"init point has dim {dim}, proposal config has "
                                   f"{cfg.sigma_prop.size}, target has {target_dim}")
    theta = np.tile(theta0, (len(cfgs), 1))
    for row, cfg in zip(theta, cfgs):
        if cfg.pin_delta is not None:
            row[PARAM_NAMES.index("delta")] = cfg.pin_delta
    logp = [float(t.log_density(row)) for t, row in zip(targets, theta)]
    if -math.inf in logp:
        raise InputDomainError("initial point has zero target density")

    rngs = [np.random.default_rng(cfg.seed) for cfg in cfgs]
    sigma = np.array([cfg.effective_sigma for cfg in cfgs])
    groups: dict[tuple, list] = {}
    others = []
    for c, t in enumerate(targets):
        if isinstance(t, TargetDensity):
            groups.setdefault((t.objective, len(t.obs)), []).append(c)
        else:
            others.append(c)
    batches = [_TargetBatch(rows, [targets[c] for c in rows]) for rows in groups.values()]
    iterations = np.arange(burn_in, n_iter, thin, dtype=np.int64)
    samples = np.empty((len(cfgs), iterations.size, dim))
    log_targets = np.empty((len(cfgs), iterations.size))
    accepted_at = np.empty((len(cfgs), iterations.size), dtype=bool)
    accept_count = [0] * len(cfgs)
    z = np.empty_like(theta)
    z_rows = list(z)
    prop = np.empty_like(theta)
    logp_prop = np.empty(len(cfgs))
    for i in range(n_iter):
        for rng, row in zip(rngs, z_rows):
            rng.standard_normal(out=row)
        # theta + sigma * z, into the one proposal block.
        np.multiply(sigma, z, out=prop)
        np.add(theta, prop, out=prop)
        for batch in batches:
            logp_prop[batch.rows] = batch.log_densities(prop[batch.rows])
        lp = logp_prop.tolist()
        for c in others:
            lp[c] = float(targets[c].log_density(prop[c]))
        accepted = []
        for c, rng in enumerate(rngs):
            u = rng.random()
            accept = lp[c] > -math.inf and math.log(u) < lp[c] - logp[c]
            if accept:
                theta[c] = prop[c]
                logp[c] = lp[c]
                accept_count[c] += 1
            accepted.append(accept)
        if i >= burn_in and (i - burn_in) % thin == 0:
            j = (i - burn_in) // thin
            samples[:, j] = theta
            log_targets[:, j] = logp
            accepted_at[:, j] = accepted
    names = PARAM_NAMES if dim == len(PARAM_NAMES) else tuple(f"p{k}" for k in range(dim))
    return [Chain(s, lt, iterations, acc, n, cfg, names) for s, lt, acc, n, cfg
            in zip(samples, log_targets, accepted_at, accept_count, cfgs)]


def calibrate(trajectories, *, seed, n_iter, burn_in, thin, noise_sigma, objective,
              pin_delta) -> list[Chain]:
    """The ``calibrate`` verb's chains, one per trajectory in input order, seeded in
    turn from ``default_rng(seed)``, started at the prior box's centre, run together."""
    master = np.random.default_rng(seed)
    targets = [TargetDensity(t, noise_sigma, objective=objective) for t in trajectories]
    if not targets:
        raise InputDomainError("calibrate needs at least one trajectory")
    cfgs = [ProposalConfig(default_proposal_sigma(), n_iter, seed=int(master.integers(2 ** 63)),
                           burn_in=burn_in, thin=thin, pin_delta=pin_delta) for _ in targets]
    n_kept = cfgs[0].n_kept
    if len(cfgs) * n_kept > MAX_KEPT_SAMPLES:
        raise InputDomainError(
            f"calibrate would keep {n_kept} samples for each of {len(cfgs)} files, "
            f"more than {MAX_KEPT_SAMPLES} in all; raise --thin or --burn-in")
    return run_chains(targets, cfgs, 0.5 * (DEFAULT_PRIOR_LO + DEFAULT_PRIOR_HI))


def run_chain(target, cfg: ProposalConfig, theta_init) -> Chain:
    """Run the chain and record post-burn-in, thinned samples.

    ``target`` needs a ``log_density(theta) -> float`` method. The initial
    point must have non-zero target density. With ``cfg.pin_delta`` set
    the exponent coordinate is forced to the pinned value and never moves.
    """
    return run_chains([target], [cfg], theta_init)[0]


def autocorrelation(series, max_lag: int) -> np.ndarray:
    """Biased sample autocorrelation at lags 0..max_lag (lag 0 is 1.0)."""
    x = np.asarray(series, dtype=np.float64).ravel()
    max_lag = checked(int, max_lag, "max_lag", low=0)
    if x.size <= max_lag:
        raise InputDomainError(
            f"series length {x.size} must exceed max_lag {max_lag}"
        )
    y = x - x.mean()
    c0 = float(np.dot(y, y))
    if c0 == 0.0:
        raise DegenerateSeriesError("series is constant, autocorrelation undefined")
    acf = np.empty(max_lag + 1)
    acf[0] = 1.0
    for k in range(1, max_lag + 1):
        acf[k] = float(np.dot(y[:-k], y[k:])) / c0
    return acf


def posterior_histogram(chain: Chain, param_index: int, n_bins: int) -> Histogram:
    """Equal-width histogram of one chain coordinate over its sample range."""
    return _sample_histogram(chain.samples[:, param_index], n_bins)


def _sample_histogram(x, n_bins) -> Histogram:
    if x.size == 0:
        raise InputDomainError("chain has no samples")
    n_bins = checked(int, n_bins, "n_bins", low=1)
    lo = float(x.min())
    hi = float(x.max())
    if hi <= lo:
        # All samples identical: keep the support glued to the value.
        hi = lo + max(1e-9, abs(lo) * 1e-9)
    counts, edges = np.histogram(x, bins=n_bins, range=(lo, hi))
    return Histogram(edges[:-1], edges[1:], counts / x.size)


def pooled_histograms(chains, n_bins: int):
    """Per-coordinate histograms over the concatenated samples of ``chains``."""
    chains = list(chains)
    if not chains:
        raise InputDomainError("need at least one chain")
    names = chains[0].param_names
    for c in chains[1:]:
        if c.param_names != names:
            raise InputDomainError("chains have mismatched parameter names")
    samples = np.concatenate([c.samples for c in chains])
    return {name: _sample_histogram(samples[:, i], n_bins) for i, name in enumerate(names)}


def synthetic_trajectory(params: ParamSet, rng, n_obs: int = 200,
                         dt: float = 0.1,
                         noise_sigma: float = DEFAULT_NOISE_SIGMA,
                         piece_duration: float = 20.0,
                         speed_range=(10.0, 30.0)) -> Trajectory:
    """Simulated follower data for calibration exercises.

    The leader holds a uniformly drawn speed for ``piece_duration``
    seconds at a time. The follower starts near the first leader speed
    with a gap drawn around its own preferred value, runs noise-free, and
    only the recorded acceleration column carries Gaussian noise, which
    matches the likelihood used by :class:`TargetDensity`.
    """
    if n_obs < 2 or not (math.isfinite(dt) and dt > 0):
        raise InputDomainError(f"need n_obs >= 2 and finite dt > 0, got {n_obs}, {dt!r}")
    noise_sigma = checked(float, noise_sigma, "noise_sigma", low=0.0)
    n = int(n_obs)
    # A tiny dt must not ask for an enormous (or infinite) leader profile.
    per_piece = max(int(round(min(piece_duration / dt, n))), 1)
    n_pieces = -(-n // per_piece)
    lo, hi = speed_range
    pieces = rng.uniform(lo, hi, n_pieces)
    lead = np.repeat(pieces, per_piece)[:n]
    v0 = max(float(lead[0] + rng.uniform(-5.0, 5.0)), 0.1)
    ref = desired_gap(params, v0, v0 - float(lead[0]))
    gap0 = max(float(ref * rng.uniform(0.9, 1.4)), 5.0)
    init = FollowingState(v=v0, delta_v=v0 - float(lead[0]), d_front=gap0)
    clean = rollout_follower(params, lead, init, dt, n)
    if clean.gap_collapsed:
        raise GenerationError(
            "synthetic rollout collapsed; widen the initial gap or soften the leader profile"
        )
    a_obs = clean.a_obs + rng.normal(0.0, noise_sigma, len(clean))
    return Trajectory(clean.dt, clean.t, clean.v_ego, clean.v_leader, clean.gap, a_obs)
