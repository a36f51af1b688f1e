"""Model core: parameter validation, the acceleration law, rollouts, RMSE."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import THETA_STAR, equilibrium_gap, idm_accel_formula
from microtraffic import (PARAM_NAMES, FollowingState, InputDomainError,
                          ParamSet, SchemaError, SingularGapError, Trajectory,
                          desired_gap, idm_acceleration, rmse_objective,
                          rollout_follower, rollout_rmse_objective)

positive = st.floats(min_value=1e-3, max_value=1e3)


def test_param_names_order():
    assert PARAM_NAMES == ("a_max", "a_comf", "v_des", "d_min", "T", "delta")


@pytest.mark.parametrize("name", PARAM_NAMES)
@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_param_set_rejects_nonpositive(name, bad):
    values = THETA_STAR.as_dict()
    values[name] = bad
    with pytest.raises(InputDomainError):
        ParamSet(**values)


@given(theta=st.lists(positive, min_size=6, max_size=6))
def test_param_set_array_round_trip(theta):
    p = ParamSet.from_array(theta)
    assert p.to_array().tolist() == [float(x) for x in theta]
    assert ParamSet.from_dict(p.as_dict()) == p


def test_param_set_from_bad_shapes():
    with pytest.raises(InputDomainError):
        ParamSet.from_array([1.0, 2.0, 3.0])
    with pytest.raises(InputDomainError):
        ParamSet.from_dict({"a_max": 1.0})


def test_following_state_validation():
    with pytest.raises(InputDomainError):
        FollowingState(v=-1.0, delta_v=0.0, d_front=10.0)
    with pytest.raises(InputDomainError):
        FollowingState(v=1.0, delta_v=math.nan, d_front=10.0)
    with pytest.raises(SingularGapError):
        FollowingState(v=1.0, delta_v=0.0, d_front=0.0)
    with pytest.raises(SingularGapError):
        FollowingState(v=1.0, delta_v=0.0, d_front=-2.0)
    free = FollowingState(v=1.0, delta_v=0.0, d_front=math.inf)
    assert not free.has_leader
    assert FollowingState(v=1.0, delta_v=0.0, d_front=30.0).has_leader


def test_desired_gap_standstill_is_minimum_gap():
    assert desired_gap(THETA_STAR, 0.0, 0.0) == 10.0


def test_desired_gap_steady_following():
    assert desired_gap(THETA_STAR, 20.0, 0.0) == 50.0


def test_desired_gap_while_closing():
    oracle = 10.0 + 20.0 * 2.0 + 20.0 * 5.0 / (2.0 * math.sqrt(3.0 * 5.0))
    got = desired_gap(THETA_STAR, 20.0, 5.0)
    assert got == pytest.approx(oracle, abs=1e-12)
    assert got == pytest.approx(62.909944487358054, abs=1e-9)


def test_desired_gap_unclamped_when_opening():
    # An opening gap shrinks the dynamic term below the steady-state value
    # and the helper reports it raw, even below d_min.
    assert desired_gap(THETA_STAR, 20.0, -5.0) < 50.0
    assert desired_gap(THETA_STAR, 20.0, -40.0) < THETA_STAR.d_min


def test_desired_gap_rejects_bad_inputs():
    with pytest.raises(InputDomainError):
        desired_gap(THETA_STAR, -1.0, 0.0)
    with pytest.raises(InputDomainError):
        desired_gap(THETA_STAR, 1.0, math.inf)


def test_desired_gap_rejects_underflowing_comfort_product():
    # a_max * a_comf underflows to 0, so the dynamic term has no finite value.
    tiny = ParamSet(a_max=1e-170, a_comf=1e-170, v_des=30.0, d_min=2.0, T=1.0, delta=4.0)
    with pytest.raises(InputDomainError, match="desired gap is not finite"):
        desired_gap(tiny, 20.0, 1.0)


def test_accel_zero_at_desired_speed_free_road():
    s = FollowingState(v=35.0, delta_v=0.0, d_front=math.inf)
    assert idm_acceleration(THETA_STAR, s) == 0.0


def test_accel_zero_at_standstill_equilibrium():
    s = FollowingState(v=0.0, delta_v=0.0, d_front=10.0)
    assert idm_acceleration(THETA_STAR, s) == 0.0


def test_accel_closing_on_leader():
    got = idm_acceleration(THETA_STAR, FollowingState(20.0, 5.0, 30.0))
    oracle = idm_accel_formula(THETA_STAR, 20.0, 5.0, 30.0)
    assert got == pytest.approx(oracle, rel=1e-12)
    assert got == pytest.approx(-10.51, abs=5e-3)


def test_accel_no_leader_drops_interaction_exactly():
    free = idm_acceleration(THETA_STAR, FollowingState(20.0, 3.0, math.inf))
    assert free == THETA_STAR.a_max * (1.0 - (20.0 / 35.0) ** 4)
    assert free == pytest.approx(2.6801332778009166, abs=1e-12)


def test_accel_clamps_desired_gap_for_fast_opening():
    # Strongly opening gap: raw desired gap is negative, the law clamps it
    # to zero, so the interaction term cannot push the vehicle forward.
    v, dv, gap = 5.0, -80.0, 20.0
    assert desired_gap(THETA_STAR, v, dv) < 0.0
    got = idm_acceleration(THETA_STAR, FollowingState(v, dv, gap))
    assert got == THETA_STAR.a_max * (1.0 - (v / 35.0) ** 4)


@settings(deadline=None)
@given(v=st.floats(0.0, 60.0), dv=st.floats(0.0, 20.0),
       gap=st.floats(0.5, 1e4))
def test_accel_bounded_above_when_closing(v, dv, gap):
    a = idm_acceleration(THETA_STAR, FollowingState(v, dv, gap))
    assert a <= THETA_STAR.a_max


@settings(deadline=None)
@given(lo=st.floats(0.0, 50.0), bump=st.floats(1e-3, 10.0))
def test_accel_strictly_decreasing_in_speed(lo, bump):
    a_lo = idm_acceleration(THETA_STAR, FollowingState(lo, 0.0, 40.0))
    a_hi = idm_acceleration(THETA_STAR, FollowingState(lo + bump, 0.0, 40.0))
    assert a_hi < a_lo


@settings(deadline=None)
@given(lo=st.floats(0.5, 1e3), bump=st.floats(1e-3, 100.0),
       v=st.floats(1.0, 50.0))
def test_accel_strictly_increasing_in_gap(lo, bump, v):
    a_lo = idm_acceleration(THETA_STAR, FollowingState(v, 0.0, lo))
    a_hi = idm_acceleration(THETA_STAR, FollowingState(v, 0.0, lo + bump))
    assert a_lo < a_hi


def test_rollout_single_step_records_initial_state():
    init = FollowingState(v=12.0, delta_v=0.0, d_front=40.0)
    tr = rollout_follower(THETA_STAR, 15.0, init, 0.1, 1)
    assert len(tr) == 1
    assert tr.v_ego[0] == 12.0
    assert tr.gap[0] == 40.0
    assert tr.a_obs[0] == idm_acceleration(THETA_STAR,
                                           FollowingState(12.0, -3.0, 40.0))


def test_rollout_matches_hand_stepped_euler():
    init = FollowingState(v=18.0, delta_v=0.0, d_front=25.0)
    tr = rollout_follower(THETA_STAR, 15.0, init, 0.1, 50)
    v, gap = 18.0, 25.0
    for k in range(50):
        assert tr.v_ego[k] == v
        assert tr.gap[k] == gap
        a = tr.a_obs[k]
        assert a == pytest.approx(idm_accel_formula(THETA_STAR, v, v - 15.0, gap),
                                  rel=1e-12)
        gap = gap + (15.0 - v) * 0.1
        v = max(v + a * 0.1, 0.0)


def test_rollout_converges_to_equilibrium_gap():
    table_means = ParamSet(a_max=1.2, a_comf=2.0, v_des=29.7, d_min=63.9,
                           T=2.0, delta=4.0)
    g_star = equilibrium_gap(table_means, 25.0)
    init = FollowingState(v=25.0, delta_v=0.0, d_front=g_star + 60.0)
    tr = rollout_follower(table_means, 25.0, init, 0.1, 6000)
    assert not tr.gap_collapsed
    assert abs(tr.gap[-1] - g_star) < 1e-3


def test_rollout_bit_deterministic():
    lead = np.repeat([20.0, 12.0, 26.0], 40)
    init = FollowingState(v=22.0, delta_v=0.0, d_front=45.0)
    a = rollout_follower(THETA_STAR, lead, init, 0.1, 120)
    b = rollout_follower(THETA_STAR, lead, init, 0.1, 120)
    assert np.array_equal(a.v_ego, b.v_ego)
    assert np.array_equal(a.gap, b.gap)
    assert np.array_equal(a.a_obs, b.a_obs)


def test_rollout_flags_gap_collapse():
    # Hand-stepped oracle at dt=1: the gap update 5 + (0 - 30) * 1 goes
    # negative on the very first step, so only the initial sample remains.
    init = FollowingState(v=30.0, delta_v=0.0, d_front=5.0)
    assert 5.0 + (0.0 - 30.0) * 1.0 <= 0.0
    tr = rollout_follower(THETA_STAR, 0.0, init, 1.0, 10)
    assert tr.gap_collapsed
    assert len(tr) == 1
    assert tr.v_ego[0] == 30.0 and tr.gap[0] == 5.0


def test_rollout_speed_floor():
    # Same approach at dt=0.1: braking overshoots past zero on the first
    # step, the speed clamps to exactly 0.0 and the gap freezes just short
    # of the leader instead of collapsing.
    init = FollowingState(v=30.0, delta_v=0.0, d_front=5.0)
    tr = rollout_follower(THETA_STAR, 0.0, init, 0.1, 200)
    assert not tr.gap_collapsed
    assert len(tr) == 200
    assert tr.v_ego[1] == 0.0
    assert tr.gap[1] == 5.0 + (0.0 - 30.0) * 0.1
    assert np.all(tr.v_ego[1:] == 0.0)
    assert np.all(tr.gap[1:] == tr.gap[1])


def test_rollout_input_validation():
    init = FollowingState(v=10.0, delta_v=0.0, d_front=30.0)
    with pytest.raises(InputDomainError):
        rollout_follower(THETA_STAR, 15.0, init, 0.0, 10)
    with pytest.raises(InputDomainError):
        rollout_follower(THETA_STAR, 15.0, init, 0.1, 0)
    with pytest.raises(InputDomainError):
        rollout_follower(THETA_STAR, np.full(5, 15.0), init, 0.1, 10)
    with pytest.raises(InputDomainError):
        rollout_follower(THETA_STAR, np.array([15.0, -1.0]), init, 0.1, 2)


def test_rmse_zero_on_noise_free_round_trip():
    init = FollowingState(v=20.0, delta_v=0.0, d_front=35.0)
    tr = rollout_follower(THETA_STAR, np.repeat([25.0, 15.0], 30), init, 0.1, 60)
    assert rmse_objective(tr, THETA_STAR) == 0.0
    assert rollout_rmse_objective(tr, THETA_STAR) == 0.0


def test_rmse_constant_shift_is_one():
    init = FollowingState(v=20.0, delta_v=0.0, d_front=35.0)
    tr = rollout_follower(THETA_STAR, 25.0, init, 0.1, 60)
    shifted = Trajectory(tr.dt, tr.t, tr.v_ego, tr.v_leader, tr.gap,
                         tr.a_obs + 1.0)
    assert rmse_objective(shifted, THETA_STAR) == pytest.approx(1.0, rel=1e-12)


def test_rmse_positive_at_perturbed_parameters():
    init = FollowingState(v=20.0, delta_v=0.0, d_front=35.0)
    tr = rollout_follower(THETA_STAR, np.repeat([25.0, 18.0], 40), init, 0.1, 80)
    perturbed = ParamSet(a_max=3.3, a_comf=4.5, v_des=32.0, d_min=12.0,
                         T=1.8, delta=4.0)
    got = rmse_objective(tr, perturbed)
    residuals = [a - idm_accel_formula(perturbed, v, dv, g)
                 for v, dv, g, a in zip(tr.v_ego, tr.v_ego - tr.v_leader,
                                        tr.gap, tr.a_obs)]
    oracle = math.sqrt(sum(r * r for r in residuals) / len(residuals))
    assert got > 0.0
    assert got == pytest.approx(oracle, rel=1e-9)


def test_rollout_rmse_is_inf_when_candidate_collapses():
    # A calm leader profile recorded at the true parameters, re-simulated
    # with a near-zero headway candidate that rams the braking leader.
    lead = np.concatenate([np.full(30, 25.0), np.zeros(30)])
    init = FollowingState(v=25.0, delta_v=0.0, d_front=60.0)
    tr = rollout_follower(THETA_STAR, lead, init, 0.1, 60)
    assert not tr.gap_collapsed
    reckless = ParamSet(a_max=6.0, a_comf=8.0, v_des=60.0, d_min=1e-3,
                        T=1e-3, delta=4.0)
    assert rollout_rmse_objective(tr, reckless) == math.inf


def test_rollout_rmse_is_inf_when_acceleration_is_not_finite():
    init = FollowingState(v=20.0, delta_v=0.0, d_front=35.0)
    tr = rollout_follower(THETA_STAR, 25.0, init, 0.1, 60)
    overflowing = ParamSet(a_max=1.0, a_comf=1.0, v_des=1e-35, d_min=2.0,
                           T=1.0, delta=10.0)
    assert rollout_rmse_objective(tr, overflowing) == math.inf
    # A rollout of its own still refuses the non-finite trajectory.
    with pytest.raises(InputDomainError):
        rollout_follower(overflowing, tr.v_leader, init, 0.1, 60)
    # a_max * a_comf underflows to 0 and the first speed difference is 0,
    # so the desired gap is 0/0: a nan acceleration, scored as +inf too.
    level = rollout_follower(THETA_STAR, 20.0, init, 0.1, 60)
    tiny = ParamSet(1e-170, 1e-170, 30.0, 2.0, 1.0, 4.0)
    assert rollout_rmse_objective(level, tiny) == math.inf


def test_accel_at_extreme_parameters_keeps_numpy_scalar_results():
    overflowing = ParamSet(1.0, 1.0, 1e-35, 2.0, 1.0, 10.0)
    with pytest.raises(InputDomainError):
        idm_acceleration(overflowing, FollowingState(20.0, 0.0, 30.0))
    # a_max * a_comf underflows to 0, so an opening gap's desired-gap term
    # is -inf; the law clamps it and keeps the finite free-road term.
    tiny = ParamSet(1e-170, 1e-170, 30.0, 2.0, 1.0, 4.0)
    got = idm_acceleration(tiny, FollowingState(20.0, -5.0, 30.0))
    assert got == tiny.a_max * (1.0 - (20.0 / 30.0) ** 4.0)


def test_rmse_rejects_empty_trajectory():
    empty = Trajectory(0.1, np.array([]), np.array([]), np.array([]),
                       np.array([]), np.array([]))
    with pytest.raises(InputDomainError):
        rmse_objective(empty, THETA_STAR)


def test_trajectory_validation():
    t = np.arange(4) * 0.1
    ones = np.ones(4)
    with pytest.raises(InputDomainError):
        Trajectory(0.1, np.array([0.0, 0.1, 0.3, 0.4]), ones, ones, ones, ones)
    with pytest.raises(SingularGapError):
        Trajectory(0.1, t, ones, ones, np.array([1.0, 1.0, 0.0, 1.0]), ones)
    with pytest.raises(InputDomainError):
        Trajectory(0.1, t, ones[:3], ones, ones, ones)
    with pytest.raises(InputDomainError):
        Trajectory(0.0, t, ones, ones, ones, ones)
    inf_gap = Trajectory(0.1, t, ones, ones,
                         np.array([1.0, math.inf, 1.0, 1.0]), ones)
    assert inf_gap.gap[1] == math.inf


def test_trajectory_csv_round_trip(tmp_path):
    init = FollowingState(v=20.0, delta_v=0.0, d_front=35.0)
    tr = rollout_follower(THETA_STAR, np.repeat([25.0, 18.0], 20), init, 0.1, 40)
    path = tmp_path / "traj.csv"
    tr.to_csv(path)
    back = Trajectory.from_csv(path)
    assert back.dt == tr.dt
    for name in ("t", "v_ego", "v_leader", "gap", "a_obs"):
        assert np.array_equal(getattr(back, name), getattr(tr, name))


def test_trajectory_csv_text_is_the_repr_of_every_value(tmp_path):
    # Runs of equal values (leader speed), signed zeros side by side (0.0
    # == -0.0, but their text differs) and an infinite gap.
    n = 12
    tr = Trajectory(0.1, np.arange(n) * 0.1, np.repeat([3.0, 0.0, -0.0, 0.0], 3),
                    np.repeat([25.0, 18.0], 6), np.array([1.5] * 4 + [math.inf] * 8),
                    np.array([0.0, -0.0] * 6))
    path = tmp_path / "traj.csv"
    tr.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,v_ego,v_leader,gap,a_obs"
    assert lines[1:] == [",".join(map(repr, row)) for row in zip(
        tr.t.tolist(), tr.v_ego.tolist(), tr.v_leader.tolist(), tr.gap.tolist(),
        tr.a_obs.tolist())]
    assert lines[8].split(",")[1:] == ["-0.0", "18.0", "inf", "-0.0"]


def test_trajectory_csv_schema_errors(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("time,v,v2,gap,a\n0,1,1,10,0\n")
    with pytest.raises(SchemaError):
        Trajectory.from_csv(bad_header)

    short_row = tmp_path / "s.csv"
    short_row.write_text("t,v_ego,v_leader,gap,a_obs\n0.0,1,1,10,0\n0.1,1,1\n")
    with pytest.raises(SchemaError, match="row 3"):
        Trajectory.from_csv(short_row)

    bad_value = tmp_path / "v.csv"
    bad_value.write_text("t,v_ego,v_leader,gap,a_obs\n0.0,1,1,ten,0\n")
    with pytest.raises(SchemaError, match="row 2"):
        Trajectory.from_csv(bad_value)


@pytest.mark.parametrize("rows", ["", "0.0,1,1,10,0\n"])
def test_trajectory_csv_needs_two_rows_for_dt(tmp_path, rows):
    path = tmp_path / "few.csv"
    path.write_text("t,v_ego,v_leader,gap,a_obs\n" + rows)
    with pytest.raises(SchemaError, match="at least 2 data rows"):
        Trajectory.from_csv(path)


def test_trajectories_compare_and_hash_by_identity():
    t = np.arange(4) * 0.1
    ones = np.ones(4)
    a, b = (Trajectory(0.1, t, ones, ones, ones, ones) for _ in range(2))
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2 and {a: 1}[a] == 1
