"""Sampler machinery: targets, proposals, chains, diagnostics."""

import math

import numpy as np
import pytest

from conftest import THETA_STAR, chain_csv_reference
from microtraffic import (DegenerateSeriesError, FollowingState,
                          GaussianTarget, GenerationError, InputDomainError,
                          ParamSet, ProposalConfig, TargetDensity, Trajectory,
                          autocorrelation, default_proposal_sigma, mh_step,
                          pooled_histograms, posterior_histogram,
                          rmse_objective, rollout_follower, run_chain,
                          run_chains, synthetic_trajectory)
from microtraffic import _kernels, calibration
from microtraffic.calibration import (DEFAULT_PRIOR_HI, DEFAULT_PRIOR_LO,
                                      MAX_KEPT_SAMPLES, Chain, _TargetBatch,
                                      calibrate)
from test_kernels import EXTREME_THETAS


class FlatTarget:
    """Log density zero everywhere: every proposal is accepted."""

    dim = 1

    def log_density(self, theta):
        return 0.0


class HalfTarget:
    """Constant log density log(0.5), for exercising the accept ratio."""

    dim = 1

    def log_density(self, theta):
        return math.log(0.5)


class ShiftedTarget:
    def __init__(self, base, offset):
        self.base = base
        self.offset = offset
        self.dim = base.dim

    def log_density(self, theta):
        return self.base.log_density(theta) + self.offset


def short_trajectory(theta=THETA_STAR):
    init = FollowingState(v=20.0, delta_v=0.0, d_front=40.0)
    return rollout_follower(theta, np.repeat([24.0, 16.0], 30), init, 0.1, 60)


def braking_trajectory(gap0=60.0, n=60):
    """The leader cruises at 25 m/s for half the horizon, then stands
    still; a near-zero-headway candidate rams it in a re-rollout."""
    lead = np.concatenate([np.full(n // 2, 25.0), np.zeros(n - n // 2)])
    init = FollowingState(v=25.0, delta_v=0.0, d_front=gap0)
    return rollout_follower(THETA_STAR, lead, init, 0.1, n)


def test_default_proposal_sigma_is_two_percent_of_box():
    sigma = default_proposal_sigma()
    assert np.array_equal(sigma, 0.02 * (DEFAULT_PRIOR_HI - DEFAULT_PRIOR_LO))
    assert sigma == pytest.approx([0.12, 0.16, 1.2, 2.0, 0.1, 0.2])


def test_proposal_config_defaults_and_kept_count():
    cfg = ProposalConfig(np.ones(6), 1000)
    assert cfg.burn_in == 200
    assert cfg.thin == 1
    assert cfg.n_kept == 800

    cfg = ProposalConfig(np.ones(2), 10, burn_in=4, thin=2)
    assert cfg.n_kept == 3


def test_proposal_config_validation():
    with pytest.raises(InputDomainError):
        ProposalConfig(np.array([1.0, 0.0]), 10)
    with pytest.raises(InputDomainError):
        ProposalConfig(np.ones(3), 0)
    with pytest.raises(InputDomainError):
        ProposalConfig(np.ones(3), 10, burn_in=10)
    with pytest.raises(InputDomainError):
        ProposalConfig(np.ones(3), 10, thin=0)
    with pytest.raises(InputDomainError):
        ProposalConfig(np.ones(3), 10, pin_delta=4.0)
    with pytest.raises(InputDomainError):
        ProposalConfig(np.ones(6), 10, pin_delta=-1.0)


def test_effective_sigma_zeroes_pinned_exponent():
    cfg = ProposalConfig(np.ones(6), 10, pin_delta=4.0)
    assert np.array_equal(cfg.effective_sigma, [1, 1, 1, 1, 1, 0])
    assert np.array_equal(cfg.sigma_prop, np.ones(6))


def test_target_density_zero_at_exact_parameters():
    td = TargetDensity(short_trajectory())
    assert td.log_density(THETA_STAR.to_array()) == 0.0


def test_target_density_matches_rmse_formula():
    tr = short_trajectory()
    td = TargetDensity(tr, noise_sigma=0.4)
    candidate = ParamSet(2.0, 4.0, 30.0, 12.0, 1.5, 4.0)
    rmse = rmse_objective(tr, candidate)
    want = -len(tr) * rmse ** 2 / (2.0 * 0.4 ** 2)
    assert td.log_density(candidate.to_array()) == pytest.approx(want, rel=1e-12)


def test_target_density_support_boundaries():
    td = TargetDensity(short_trajectory())
    inside = THETA_STAR.to_array()
    assert td.in_support(inside)
    assert td.log_density(np.array([3, 5, 61, 10, 2, 4.0])) == -math.inf
    assert td.log_density(np.array([0.0, 5, 35, 10, 2, 4.0])) == -math.inf
    assert td.log_density(np.array([-1, 5, 35, 10, 2, 4.0])) == -math.inf


def test_target_density_rollout_objective_rejects_collapse():
    # The rollout objective maps a collapsing re-rollout to zero density.
    td = TargetDensity(braking_trajectory(), objective="rollout")
    assert td.log_density(THETA_STAR.to_array()) == 0.0
    reckless = np.array([6.0, 8.0, 60.0, 1e-3, 1e-3, 4.0])
    assert td.log_density(reckless) == -math.inf


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_target_density_rejects_overflowing_parameters_for_both_objectives():
    # Inside the prior box, but (v / v_des) ** delta overflows: the one-step
    # RMSE is not finite, and so is the re-rollout's first acceleration.
    tr = synthetic_trajectory(THETA_STAR, np.random.default_rng(3), n_obs=60)
    theta = np.array([1.0, 1.0, 1e-35, 2.0, 1.0, 10.0])
    for objective in ("one-step", "rollout"):
        td = TargetDensity(tr, objective=objective)
        assert td.in_support(theta)
        assert td.log_density(theta) == -math.inf


def test_target_density_validation():
    tr = short_trajectory()
    empty = Trajectory(0.1, np.array([]), np.array([]), np.array([]),
                       np.array([]), np.array([]))
    with pytest.raises(InputDomainError):
        TargetDensity(empty)
    with pytest.raises(InputDomainError):
        TargetDensity(tr, noise_sigma=0.0)
    with pytest.raises(InputDomainError):
        TargetDensity(tr, prior_lo=np.zeros(3))
    with pytest.raises(InputDomainError):
        TargetDensity(tr, prior_lo=np.ones(6), prior_hi=np.ones(6))
    with pytest.raises(InputDomainError):
        TargetDensity(tr, objective="two-step")


def test_gaussian_target_moments_of_log_density():
    g = GaussianTarget(2.0, 0.5)
    assert g.log_density(np.array([2.0])) == 0.0
    assert g.log_density(np.array([2.5])) == -0.5
    with pytest.raises(InputDomainError):
        GaussianTarget(0.0, 0.0)


def test_mh_step_flat_target_always_accepts():
    rng = np.random.default_rng(0)
    theta = np.array([0.0])
    for _ in range(200):
        step = mh_step(theta, FlatTarget(), np.array([1.0]), rng)
        assert step.accepted
        assert step.log_target == 0.0
        theta = step.theta


def test_mh_step_acceptance_frequency_matches_target_ratio():
    # With logp_curr pinned at 0 and the target constant at log(0.5) the
    # acceptance probability is exactly 0.5 per step.
    rng = np.random.default_rng(123)
    target = HalfTarget()
    theta = np.array([0.0])
    sigma = np.array([1.0])
    n = 20_000
    accepted = sum(mh_step(theta, target, sigma, rng, logp_curr=0.0).accepted
                   for _ in range(n))
    assert abs(accepted / n - 0.5) < 0.011


def test_mh_step_rejects_zero_density_proposal():
    class OnlyOrigin:
        dim = 1

        def log_density(self, theta):
            return 0.0 if float(np.asarray(theta)[0]) == 0.0 else -math.inf

    rng = np.random.default_rng(5)
    theta = np.array([0.0])
    for _ in range(50):
        step = mh_step(theta, OnlyOrigin(), np.array([1.0]), rng)
        assert not step.accepted
        assert np.array_equal(step.theta, theta)
        assert step.log_target == 0.0


def test_mh_step_uses_provided_current_log_density():
    class Counting(FlatTarget):
        calls = 0

        def log_density(self, theta):
            type(self).calls += 1
            return 0.0

    target = Counting()
    mh_step(np.array([0.0]), target, np.array([1.0]),
            np.random.default_rng(0), logp_curr=0.0)
    assert Counting.calls == 1


def test_run_chain_log_shift_invariance():
    base = GaussianTarget(2.0, 0.5)
    cfg = ProposalConfig(np.array([1.2]), 2000, seed=31)
    plain = run_chain(base, cfg, np.array([2.0]))
    shifted = run_chain(ShiftedTarget(base, 7.3), cfg, np.array([2.0]))
    assert np.array_equal(plain.samples, shifted.samples)
    assert plain.accept_count == shifted.accept_count
    assert np.max(np.abs(shifted.log_targets - plain.log_targets - 7.3)) < 1e-12


def test_run_chain_is_seed_reproducible():
    cfg = ProposalConfig(np.array([1.2]), 500, seed=8)
    a = run_chain(GaussianTarget(0.0, 1.0), cfg, np.array([0.0]))
    b = run_chain(GaussianTarget(0.0, 1.0), cfg, np.array([0.0]))
    assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(a.iterations, b.iterations)
    assert a.accept_count == b.accept_count


def test_run_chain_bookkeeping():
    cfg = ProposalConfig(np.array([1.0]), 10, burn_in=4, thin=2, seed=1)
    chain = run_chain(FlatTarget(), cfg, np.array([0.0]))
    assert len(chain) == 3
    assert chain.iterations.tolist() == [4, 6, 8]
    assert chain.param_names == ("p0",)
    assert chain.accept_count == 10
    assert chain.acceptance_rate == 1.0
    assert np.all(chain.accepted)


def test_run_chain_single_iteration():
    cfg = ProposalConfig(np.array([1.0]), 1, burn_in=0, seed=0)
    chain = run_chain(GaussianTarget(0.0, 1.0), cfg, np.array([0.0]))
    assert len(chain) == 1
    assert chain.dim == 1


def test_run_chain_samples_stay_in_support():
    tr = short_trajectory()
    td = TargetDensity(tr, noise_sigma=1.0)
    cfg = ProposalConfig(default_proposal_sigma(), 400, seed=3)
    chain = run_chain(td, cfg, THETA_STAR.to_array())
    assert chain.param_names == ("a_max", "a_comf", "v_des", "d_min", "T", "delta")
    assert np.all(chain.samples > 0.0)
    assert np.all(chain.samples <= DEFAULT_PRIOR_HI)


def test_run_chain_pins_exponent():
    tr = short_trajectory()
    td = TargetDensity(tr, noise_sigma=1.0)
    cfg = ProposalConfig(default_proposal_sigma(), 300, seed=3, pin_delta=4.0)
    init = np.array([3.0, 5.0, 35.0, 10.0, 2.0, 9.0])
    chain = run_chain(td, cfg, init)
    assert np.all(chain.samples[:, 5] == 4.0)
    assert chain.samples[:, 0].std() > 0.0


def test_run_chain_rejects_bad_init():
    cfg = ProposalConfig(np.ones(6), 10)
    td = TargetDensity(short_trajectory())
    with pytest.raises(InputDomainError):
        run_chain(td, cfg, np.array([-1.0, 5, 35, 10, 2, 4]))
    with pytest.raises(InputDomainError):
        run_chain(td, ProposalConfig(np.ones(2), 10), THETA_STAR.to_array())


def mh_step_chain(target, cfg, theta_init):
    """Single-chain reference: the plain loop of ``mh_step`` calls."""
    theta = np.array(theta_init, dtype=np.float64)
    if cfg.pin_delta is not None:
        theta[5] = cfg.pin_delta
    logp = target.log_density(theta)
    rng = np.random.default_rng(cfg.seed)
    rows = []
    count = 0
    for i in range(cfg.n_iter):
        theta, logp, accepted = mh_step(theta, target, cfg.effective_sigma, rng,
                                        logp_curr=logp)
        count += accepted
        if i >= cfg.burn_in and (i - cfg.burn_in) % cfg.thin == 0:
            rows.append((i, theta, logp, accepted))
    return rows, count


def assert_lockstep_matches_alone(targets, cfgs, theta_init):
    chains = run_chains(targets, cfgs, theta_init)
    assert len(chains) == len(targets)
    for chain, target, cfg in zip(chains, targets, cfgs):
        alone = run_chain(target, cfg, theta_init)
        for field in ("samples", "log_targets", "iterations", "accepted"):
            a, b = getattr(chain, field), getattr(alone, field)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
        assert chain.accept_count == alone.accept_count
        assert chain.config is cfg
        rows, count = mh_step_chain(target, cfg, theta_init)
        assert count == chain.accept_count
        assert chain.iterations.tolist() == [r[0] for r in rows]
        assert np.array([r[1] for r in rows]).tobytes() == chain.samples.tobytes()
        assert [r[2] for r in rows] == chain.log_targets.tolist()
        assert [r[3] for r in rows] == chain.accepted.tolist()
    return chains


def synthetic_targets(lengths, **kwargs):
    return [TargetDensity(synthetic_trajectory(THETA_STAR, np.random.default_rng(k),
                                               n_obs=n), **kwargs)
            for k, n in enumerate(lengths)]


def lockstep_configs(n, n_iter, **kwargs):
    return [ProposalConfig(default_proposal_sigma(), n_iter, seed=100 + k, **kwargs)
            for k in range(n)]


CENTRE = 0.5 * (DEFAULT_PRIOR_LO + DEFAULT_PRIOR_HI)


def test_run_chains_ragged_lengths_match_single_chains():
    # Two equal-length pairs scored in batches, one length in a batch of one.
    targets = synthetic_targets([60, 45, 60, 80, 45])
    chains = assert_lockstep_matches_alone(targets, lockstep_configs(5, 400), CENTRE)
    assert all(c.accept_count > 0 for c in chains)


def test_run_chains_pinned_exponent_matches_single_chains():
    targets = synthetic_targets([50, 50, 50])
    cfgs = [ProposalConfig(default_proposal_sigma(), 300, seed=7, pin_delta=4.0),
            ProposalConfig(default_proposal_sigma(), 300, seed=8),
            ProposalConfig(default_proposal_sigma(), 300, seed=9, pin_delta=2.5)]
    chains = assert_lockstep_matches_alone(targets, cfgs, CENTRE)
    assert np.all(chains[0].samples[:, 5] == 4.0)
    assert np.all(chains[2].samples[:, 5] == 2.5)
    assert chains[1].samples[:, 5].std() > 0.0


def assert_rows_are_contiguous(chains):
    for chain in chains:
        for field in ("samples", "log_targets", "accepted"):
            assert getattr(chain, field).flags.c_contiguous, field


def test_run_chains_thinning_and_burn_in_match_single_chains():
    # Chains run together share one schedule; seeds and pins stay per chain.
    targets = synthetic_targets([40, 40, 40])
    chains = assert_lockstep_matches_alone(
        targets, lockstep_configs(3, 301, burn_in=37, thin=3), CENTRE)
    assert chains[0].iterations.tolist() == list(range(37, 301, 3))
    assert_rows_are_contiguous(chains)
    cfgs = lockstep_configs(3, 301, burn_in=0, thin=7)
    cfgs[1] = ProposalConfig(default_proposal_sigma(), 301, seed=2, burn_in=0, thin=7,
                             pin_delta=4.0)
    chains = assert_lockstep_matches_alone(targets, cfgs, CENTRE)
    assert chains[0].iterations.tolist() == list(range(0, 301, 7))
    assert np.all(chains[1].samples[:, 5] == 4.0)
    assert_rows_are_contiguous(chains)
    chains = assert_lockstep_matches_alone(
        targets, lockstep_configs(3, 301, burn_in=300), CENTRE)
    assert [len(c) for c in chains] == [1, 1, 1]
    assert_rows_are_contiguous(chains)


def test_run_chains_tight_prior_box_matches_single_chains():
    # Proposal scales of 2% of the default box against a box of +-10%
    # around the start: most proposals fall outside the support.
    theta = THETA_STAR.to_array()
    targets = synthetic_targets([50, 50, 50, 50], prior_lo=0.9 * theta,
                               prior_hi=1.1 * theta)
    chains = assert_lockstep_matches_alone(targets, lockstep_configs(4, 300), theta)
    assert all(0 < c.acceptance_rate < 0.2 for c in chains)


def test_run_chains_rollout_targets_match_single_chains():
    # Ragged lengths, a box of +-10% around the start (so most proposals
    # fall outside the support) and one pinned exponent.
    theta = THETA_STAR.to_array()
    targets = synthetic_targets([40, 25, 40, 60], objective="rollout",
                                prior_lo=0.9 * theta, prior_hi=1.1 * theta)
    cfgs = lockstep_configs(4, 200)
    cfgs[2] = ProposalConfig(default_proposal_sigma(), 200, seed=12, pin_delta=4.0)
    chains = assert_lockstep_matches_alone(targets, cfgs, theta)
    assert all(0 < c.acceptance_rate < 0.2 for c in chains)
    assert np.all(chains[2].samples[:, 5] == 4.0)


def test_run_chains_mixed_objectives_match_single_chains():
    # One-step and rollout targets of two lengths each, interleaved so that
    # no batch is a run of consecutive chains, and toy targets (wrappers
    # that are not a ``TargetDensity``) scored one by one between them.
    one_step = synthetic_targets([40, 50, 40])
    rollout = [TargetDensity(braking_trajectory(gap0, n), objective="rollout")
               for gap0, n in ((60.0, 40), (80.0, 50), (50.0, 40))]
    targets = [one_step[0], rollout[0], ShiftedTarget(rollout[1], 1.5), one_step[1],
               rollout[2], ShiftedTarget(one_step[2], -2.0), rollout[1], one_step[2],
               TargetDensity(short_trajectory(), objective="rollout")]
    chains = assert_lockstep_matches_alone(targets, lockstep_configs(9, 150),
                                           THETA_STAR.to_array())
    assert all(c.accept_count > 0 for c in chains)


def test_run_chains_gaussian_targets_match_single_chains():
    targets = [GaussianTarget(0.0, 1.0), GaussianTarget(3.0, 0.5), FlatTarget()]
    cfgs = [ProposalConfig(np.array([s]), 500, seed=k)
            for k, s in enumerate((1.2, 0.3, 2.0))]
    chains = run_chains(targets, cfgs, np.array([0.5]))
    for chain, target, cfg in zip(chains, targets, cfgs):
        alone = run_chain(target, cfg, np.array([0.5]))
        assert chain.samples.tobytes() == alone.samples.tobytes()
        assert chain.log_targets.tobytes() == alone.log_targets.tobytes()
        assert chain.iterations.tobytes() == alone.iterations.tobytes()
        assert chain.accepted.tobytes() == alone.accepted.tobytes()
        assert chain.accept_count == alone.accept_count


CALIBRATE_OPTIONS = dict(seed=1, burn_in=None, thin=1, noise_sigma=0.3,
                         objective="one-step", pin_delta=None)


def test_calibrate_checks_kept_samples_before_any_chain(monkeypatch):
    def no_chains(*args):
        raise AssertionError("chains ran before the kept samples were checked")

    monkeypatch.setattr(calibration, "run_chains", no_chains)
    trajectories = [target.obs for target in synthetic_targets([30, 30, 30])]
    n_kept = MAX_KEPT_SAMPLES // 3 + 1
    with pytest.raises(InputDomainError, match=(
            f"^calibrate would keep {n_kept} samples for each of 3 files, more than "
            f"{MAX_KEPT_SAMPLES} in all; raise --thin or --burn-in$")):
        calibrate(trajectories, n_iter=n_kept, **{**CALIBRATE_OPTIONS, "burn_in": 0})


def test_calibrate_needs_a_trajectory():
    with pytest.raises(InputDomainError, match="at least one trajectory"):
        calibrate([], n_iter=10, **CALIBRATE_OPTIONS)


def test_run_chains_validation():
    targets = [GaussianTarget(0.0, 1.0)] * 2
    assert run_chains([], [], np.array([0.0])) == []
    with pytest.raises(InputDomainError, match="targets"):
        run_chains(targets, [ProposalConfig(np.ones(1), 10)], np.array([0.0]))
    with pytest.raises(InputDomainError, match="n_iter"):
        run_chains(targets, [ProposalConfig(np.ones(1), 10),
                             ProposalConfig(np.ones(1), 11)], np.array([0.0]))
    with pytest.raises(InputDomainError, match="burn_in"):
        run_chains(targets, [ProposalConfig(np.ones(1), 10, burn_in=2),
                             ProposalConfig(np.ones(1), 10, burn_in=3)], np.array([0.0]))
    with pytest.raises(InputDomainError, match="thin"):
        run_chains(targets, [ProposalConfig(np.ones(1), 10),
                             ProposalConfig(np.ones(1), 10, thin=2)], np.array([0.0]))
    # The default burn-in of 10 iterations is 2, so these share a schedule.
    assert len(run_chains(targets, [ProposalConfig(np.ones(1), 10),
                                    ProposalConfig(np.ones(1), 10, burn_in=2)],
                          np.array([0.0]))) == 2
    with pytest.raises(InputDomainError, match="dim"):
        run_chains(targets, [ProposalConfig(np.ones(1), 10),
                             ProposalConfig(np.ones(2), 10)], np.array([0.0]))
    with pytest.raises(InputDomainError, match="zero target density"):
        run_chains(synthetic_targets([30, 30]), lockstep_configs(2, 10),
                   np.array([3.0, 5.0, 35.0, 10.0, 2.0, 11.0]))


@pytest.mark.parametrize("dim", [5, 7])
def test_parameter_vector_of_the_wrong_size_is_an_input_error(dim):
    td = synthetic_targets([30])[0]
    with pytest.raises(InputDomainError, match="target has 6"):
        run_chains([td], [ProposalConfig(np.ones(dim), 10)], np.ones(dim))
    for call in (td.log_density, td.in_support):
        with pytest.raises(InputDomainError, match="6-vector"):
            call(np.ones(dim))


def rollout_collapses(td, theta):
    """Whether the re-rollout of ``td``'s trajectory at ``theta`` collapses."""
    lead, v0, gap0, dt, _ = td._rollout
    accs = _kernels._rollout_loop(_kernels._law(theta.tolist()), lead, v0, gap0, dt)
    return len(accs) < len(lead)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_one_step_batch_equals_log_density_row_by_row():
    targets = synthetic_targets([70, 70, 70], noise_sigma=0.4)
    rng = np.random.default_rng(11)
    # Draws inside the box, beyond both of its faces, and non-finite ones.
    theta = rng.uniform(-0.2, 1.2, (400, 3, 6)) * DEFAULT_PRIOR_HI
    theta[::7, 1, 2] = np.nan
    theta[::11, 2, 5] = np.inf
    theta[::13, 0] = THETA_STAR.to_array()
    batch = _TargetBatch([0, 1, 2], targets)
    for block in theta:
        got = batch.log_densities(block).tolist()
        assert got == [t.log_density(row) for t, row in zip(targets, block)]

    # Rollout rows: three trajectories behind a leader that stops, and
    # every other block of draws with near-zero d_min and T, so that
    # in-support rollouts collapse; plus the parameters the law on Python
    # floats cannot evaluate.
    targets = [TargetDensity(braking_trajectory(gap0, 70), noise_sigma=0.4, objective="rollout")
               for gap0 in (40.0, 60.0, 80.0)]
    theta = rng.uniform(-0.05, 1.05, (150, 3, 6)) * DEFAULT_PRIOR_HI
    theta[::2, :, 3:5] *= 1e-3
    theta[::7, 1, 2] = np.nan
    theta[::11, 2, 5] = np.inf
    theta[::13, 0] = THETA_STAR.to_array()
    theta[1, :2] = EXTREME_THETAS
    theta[3, 1:] = EXTREME_THETAS
    batch = _TargetBatch([0, 1, 2], targets)
    kinds = {"outside": 0, "collapsed": 0, "scored": 0, "not finite": 0}
    for block in theta:
        want = [t.log_density(row) for t, row in zip(targets, block)]
        assert batch.log_densities(block).tolist() == want
        for t, row, logp in zip(targets, block, want):
            kind = ("outside" if not t.in_support(row) else "collapsed"
                    if rollout_collapses(t, row) else "scored" if logp > -math.inf
                    else "not finite")
            kinds[kind] += 1
    assert all(kinds.values()), kinds


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_batch_buffers_never_leak_between_calls():
    # Two one-step batches of different lengths and a rollout batch, called
    # in turn. Every other round's blocks hold a NaN, an inf, an
    # out-of-support row and parameters whose law is not finite; the rounds
    # between them must still score exactly, row by row.
    batches = []
    for rows, targets in (([0, 1, 2], synthetic_targets([50, 50, 50])),
                          ([3, 4], synthetic_targets([80, 80], noise_sigma=0.5)),
                          ([5, 6], [TargetDensity(braking_trajectory(gap0, 40),
                                                  objective="rollout")
                                    for gap0 in (50.0, 70.0)])):
        batches.append((_TargetBatch(rows, targets), targets))
    rng = np.random.default_rng(12)
    returned = []
    for k in range(24):
        for batch, targets in batches:
            block = THETA_STAR.to_array() * rng.uniform(0.8, 1.2, (len(targets), 6))
            if k % 4 == 1:
                block[0, 2] = np.nan
                block[1] = EXTREME_THETAS[0]
            elif k % 4 == 3:
                block[0, 5] = np.inf
                block[1] = EXTREME_THETAS[1]
            if k % 2:
                block[-1, k % 6] = -1.0
            got = batch.log_densities(block)
            want = [t.log_density(row) for t, row in zip(targets, block)]
            assert got.tolist() == want, (k, len(targets))
            if not k % 2:
                assert all(w > -math.inf for w in want)
            returned.append((got, got.copy()))
    # Nothing a call returned was written to by a later call.
    for got, copy in returned:
        assert got.tobytes() == copy.tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("tight", [False, True])
def test_support_is_one_box_for_every_scoring_path(tight):
    theta0 = THETA_STAR.to_array()
    box = dict(prior_lo=0.9 * theta0, prior_hi=1.1 * theta0) if tight else {}
    for objective in ("one-step", "rollout"):
        td = TargetDensity(short_trajectory(), objective=objective, **box)
        batch = _TargetBatch([0], [td])
        for k, (lo, hi) in enumerate(zip(td.prior_lo, td.prior_hi)):
            for x, inside in ((-0.0, False), (0.0, False), (5e-324, lo == 0.0),
                              (lo, lo > 0.0), (hi, True),
                              (np.nextafter(hi, np.inf), False), (np.nan, False)):
                theta = theta0.copy()
                theta[k] = x
                assert td.in_support(theta) == inside, (objective, k, x)
                logp = td.log_density(theta)
                assert (logp > -math.inf) == (inside and math.isfinite(td.rmse(theta)))
                assert batch.log_densities(theta[None]).tolist() == [logp], (objective, k, x)


def test_chain_csv_layout(tmp_path):
    cfg = ProposalConfig(np.array([1.0]), 6, burn_in=2, seed=0)
    chain = run_chain(GaussianTarget(0.0, 1.0), cfg, np.array([0.0]))
    path = tmp_path / "chain.csv"
    chain.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,p0,log_target,accepted"
    assert len(lines) == 1 + len(chain)
    first = lines[1].split(",")
    assert first[0] == str(chain.iterations[0])
    assert first[3] in ("0", "1")


def assert_chain_csv_matches_reference(chain, tmp_path):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    chain.to_csv(got)
    chain_csv_reference(chain, want)
    assert got.read_bytes() == want.read_bytes()
    # Every float reads back to the bits it was written from.
    rows = [line.split(",") for line in got.read_text().splitlines()[1:]]
    values = np.array([[float(x) for x in row[1:-1]] for row in rows])
    assert values[:, :-1].tobytes() == np.ascontiguousarray(chain.samples).tobytes()
    assert values[:, -1].tobytes() == chain.log_targets.tobytes()


def _hand_chain(samples, log_targets):
    n = len(log_targets)
    return Chain(samples=samples, log_targets=np.array(log_targets, dtype=np.float64),
                 iterations=np.arange(5, 5 + 3 * n, 3, dtype=np.int64),
                 accepted=np.arange(n) % 3 == 0, accept_count=0,
                 config=ProposalConfig(np.ones(samples.shape[1]), 5 + 3 * n),
                 param_names=tuple(f"p{k}" for k in range(samples.shape[1])))


def test_chain_csv_long_runs_and_consecutive_acceptances_match_reference(tmp_path):
    rng = np.random.default_rng(4)
    lengths = [1, 1, 60, 1, 7, 1, 1, 30]
    samples = np.repeat(rng.normal(size=(len(lengths), 3)), lengths, axis=0)
    # Equal samples with a new log target, and the reverse, start new runs.
    samples[61:63] = samples[60]
    logp = np.repeat(rng.normal(size=len(lengths)), lengths)
    logp[70] = logp[69]
    assert_chain_csv_matches_reference(_hand_chain(samples, logp), tmp_path)
    # A flat target accepts every proposal: no row repeats the one before.
    flat = run_chain(FlatTarget(), ProposalConfig(np.array([0.5]), 50, seed=2),
                     np.array([0.0]))
    assert flat.accepted.all()
    assert_chain_csv_matches_reference(flat, tmp_path)


def test_chain_csv_signed_zeros_and_nans_match_reference(tmp_path):
    samples = np.ones((9, 2))
    samples[[2, 3, 6], 1] = -0.0
    samples[[4, 5], 1] = 0.0
    samples[7:, 0] = math.nan
    logp = [0.0, -0.0, -0.0, 0.0, math.nan, math.nan, -1.5, math.nan, math.nan]
    chain = _hand_chain(samples, logp)
    assert_chain_csv_matches_reference(chain, tmp_path)
    fields = [line.split(",") for line in (tmp_path / "got.csv").read_text().splitlines()[1:]]
    assert [f[3] for f in fields[:4]] == ["0.0", "-0.0", "-0.0", "0.0"]
    assert [f[2] for f in fields[:6]] == ["1.0", "1.0", "-0.0", "-0.0", "0.0", "0.0"]


def test_chain_csv_non_contiguous_samples_match_reference(tmp_path):
    rng = np.random.default_rng(8)
    lengths = rng.integers(1, 9, 12)
    block = np.repeat(rng.normal(size=(12, 8)), lengths, axis=0)
    logp = np.repeat(rng.normal(size=12), lengths)
    for samples in (block[:, ::2], np.asfortranarray(block[:, :4])):
        assert not samples.flags.c_contiguous
        assert_chain_csv_matches_reference(_hand_chain(samples, logp), tmp_path)


def test_run_chains_csv_matches_reference(tmp_path):
    # Burn-in 0 with thinning, a pinned exponent, a single kept row, and a
    # tight box where most proposals are rejected and rows repeat.
    theta = THETA_STAR.to_array()
    targets = (synthetic_targets([40, 40, 40])
               + synthetic_targets([40], prior_lo=0.9 * theta, prior_hi=1.1 * theta))
    # One schedule per call, as chains run together share it; the second
    # and fourth chains have their exponent pinned.
    sigma = default_proposal_sigma()
    lengths = []
    for schedule in ({"burn_in": 0, "thin": 7}, {}, {"burn_in": 300},
                     {"burn_in": 0, "thin": 3}):
        cfgs = [ProposalConfig(sigma, 301, seed=k + 1, pin_delta=4.0 if k % 2 else None,
                               **schedule) for k in range(4)]
        chains = run_chains(targets, cfgs, theta)
        assert np.all(chains[1].samples[:, 5] == 4.0)
        lengths.append(len(chains[0]))
        for chain in chains:
            assert_chain_csv_matches_reference(chain, tmp_path)
    assert lengths == [43, 241, 1, 101]
    assert (chains[3].samples[1:] == chains[3].samples[:-1]).all(axis=1).any()


def test_autocorrelation_lag_zero_and_alternating():
    x = np.array([1.0, -1.0] * 5)
    acf = autocorrelation(x, 2)
    assert acf[0] == 1.0
    assert acf[1] == pytest.approx(-(len(x) - 1) / len(x), abs=1e-12)


def test_autocorrelation_white_noise_is_small():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(4000)
    acf = autocorrelation(x, 50)
    assert np.max(np.abs(acf[1:])) < 4.0 / math.sqrt(x.size)


def test_autocorrelation_errors():
    with pytest.raises(DegenerateSeriesError):
        autocorrelation(np.ones(10), 3)
    with pytest.raises(InputDomainError):
        autocorrelation(np.arange(5.0), 5)
    with pytest.raises(InputDomainError):
        autocorrelation(np.arange(5.0), -1)


def _chain_with_samples(samples):
    samples = np.asarray(samples, dtype=np.float64)
    n = samples.shape[0]
    return Chain(
        samples=samples,
        log_targets=np.zeros(n),
        iterations=np.arange(n, dtype=np.int64),
        accepted=np.ones(n, dtype=bool),
        accept_count=n,
        config=ProposalConfig(np.ones(samples.shape[1]), n),
        param_names=tuple(f"p{k}" for k in range(samples.shape[1])),
    )


def test_posterior_histogram_masses():
    chain = _chain_with_samples([[1.0], [1.0], [2.0], [2.0], [2.0], [2.0]])
    hist = posterior_histogram(chain, 0, 2)
    assert hist.mass == pytest.approx([1 / 3, 2 / 3], abs=1e-12)
    assert hist.support == (1.0, 2.0)


def test_posterior_histogram_degenerate_samples():
    chain = _chain_with_samples([[3.0]] * 4)
    hist = posterior_histogram(chain, 0, 1)
    assert hist.mass == pytest.approx([1.0])
    lo, hi = hist.support
    assert lo == 3.0 and 0.0 < hi - lo < 1e-6


def test_posterior_histogram_validation():
    chain = _chain_with_samples([[1.0], [2.0]])
    with pytest.raises(InputDomainError):
        posterior_histogram(chain, 0, 0)


def test_pooled_histograms_concatenate():
    a = _chain_with_samples([[1.0], [1.0]])
    b = _chain_with_samples([[2.0], [2.0], [2.0], [2.0]])
    pooled = pooled_histograms([a, b], 2)
    assert set(pooled) == {"p0"}
    assert pooled["p0"].mass == pytest.approx([1 / 3, 2 / 3], abs=1e-12)

    with pytest.raises(InputDomainError):
        pooled_histograms([], 2)
    mismatched = _chain_with_samples([[1.0, 1.0]])
    with pytest.raises(InputDomainError):
        pooled_histograms([a, mismatched], 2)


def test_synthetic_trajectory_shape_and_determinism():
    tr = synthetic_trajectory(THETA_STAR, np.random.default_rng(7), n_obs=150)
    again = synthetic_trajectory(THETA_STAR, np.random.default_rng(7), n_obs=150)
    assert len(tr) == 150
    assert tr.dt == 0.1
    assert np.array_equal(tr.a_obs, again.a_obs)
    assert np.array_equal(tr.v_leader, again.v_leader)


def test_synthetic_trajectory_noise_free_fits_exactly():
    tr = synthetic_trajectory(THETA_STAR, np.random.default_rng(77),
                              n_obs=200, noise_sigma=0.0)
    assert rmse_objective(tr, THETA_STAR) == 0.0


def test_synthetic_trajectory_noise_level_shows_in_rmse():
    tr = synthetic_trajectory(THETA_STAR, np.random.default_rng(77),
                              n_obs=200, noise_sigma=0.3)
    assert 0.2 < rmse_objective(tr, THETA_STAR) < 0.4


def test_synthetic_trajectory_piecewise_leader():
    tr = synthetic_trajectory(THETA_STAR, np.random.default_rng(1),
                              n_obs=400, dt=0.1, piece_duration=10.0)
    assert len(np.unique(tr.v_leader)) == 4


def test_synthetic_trajectory_with_tiny_dt_holds_one_leader_speed():
    # piece_duration / dt asks for 2e201 leader samples at 1e-200, and for
    # inf at the least dt; only n_obs of them are used.
    for dt in (1e-200, 5e-324):
        tr = synthetic_trajectory(THETA_STAR, np.random.default_rng(3), n_obs=20, dt=dt)
        assert len(tr) == 20 and len(np.unique(tr.v_leader)) == 1


def test_synthetic_trajectory_validation_and_collapse():
    rng = np.random.default_rng(0)
    with pytest.raises(InputDomainError):
        synthetic_trajectory(THETA_STAR, rng, n_obs=1)
    with pytest.raises(InputDomainError):
        synthetic_trajectory(THETA_STAR, rng, noise_sigma=-0.1)

    weak = ParamSet(a_max=0.01, a_comf=0.01, v_des=60.0, d_min=1.0,
                    T=0.01, delta=4.0)
    with pytest.raises(GenerationError):
        synthetic_trajectory(weak, np.random.default_rng(4), n_obs=30,
                             dt=1.0, piece_duration=2.0,
                             speed_range=(0.1, 30.0))
