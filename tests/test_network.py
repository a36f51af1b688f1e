"""Road geometry, routing, coordinate transforms and scenario configs."""

import json
import math
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (pose_at_reference, project_reference, straight_network,
                      straight_scenario, write_scenario_files)
from microtraffic import (ConfigurationError, InputDomainError, NetworkError,
                          RoadCoord, RoadNetwork, Scenario, SchemaError,
                          global_to_road, is_off_road, list_scenarios,
                          load_network, load_scenario, road_to_global)
from microtraffic.network import Lane, _bundled_library


def bent_lane():
    return Lane("bend", [(0.0, 0.0), (10.0, 0.0), (10.0, 10.0)], 3.5)


def test_lane_length_sums_segments():
    assert straight_network().lanes["lane_0"].length == 3000.0
    assert bent_lane().length == 20.0


def test_pose_at_straight_lane():
    lane = straight_network().lanes["lane_0"]
    assert lane.pose_at(100.0) == (100.0, 0.0, 0.0)
    x, y, heading = lane.pose_at(100.0, d=5.0)
    assert (x, y, heading) == (100.0, 5.0, 0.0)


def test_pose_at_vertical_lane_offsets_left():
    lane = Lane("up", [(0.0, 0.0), (0.0, 100.0)], 3.5)
    x, y, heading = lane.pose_at(5.0, d=1.0)
    assert x == pytest.approx(-1.0)
    assert y == pytest.approx(5.0)
    assert heading == pytest.approx(math.pi / 2)


def test_pose_at_vertex_uses_outgoing_segment():
    x, y, heading = bent_lane().pose_at(10.0)
    assert (x, y) == (10.0, 0.0)
    assert heading == pytest.approx(math.pi / 2)


def test_pose_at_bounds_and_extrapolation():
    lane = straight_network().lanes["lane_0"]
    with pytest.raises(InputDomainError):
        lane.pose_at(-1.0)
    with pytest.raises(InputDomainError):
        lane.pose_at(3001.0)
    assert lane.pose_at(3100.0, extrapolate=True) == (3100.0, 0.0, 0.0)
    assert lane.pose_at(-50.0, extrapolate=True) == (-50.0, 0.0, 0.0)


def test_project_signs_and_clamping():
    lane = straight_network().lanes["lane_0"]
    s, d, dist = lane.project(100.0, 2.0)
    assert (s, d, dist) == (100.0, 2.0, 2.0)
    s, d, dist = lane.project(100.0, -2.0)
    assert (s, d, dist) == (100.0, -2.0, 2.0)
    s, d, dist = lane.project(3100.0, 1.0)
    assert s == 3000.0
    assert dist == pytest.approx(math.hypot(100.0, 1.0))


def test_lane_validation():
    with pytest.raises(NetworkError):
        Lane("l", [(0.0, 0.0)], 3.5)
    with pytest.raises(NetworkError):
        Lane("l", [(0.0, 0.0), (math.nan, 1.0)], 3.5)
    with pytest.raises(NetworkError):
        Lane("l", [(0.0, 0.0), (0.0, 0.0), (1.0, 0.0)], 3.5)
    with pytest.raises(NetworkError):
        Lane("l", [(0.0, 0.0), (1.0, 0.0)], 0.0)
    # a segment whose squared length underflows to 0 is zero-length too
    with pytest.raises(NetworkError, match="zero-length"):
        Lane("l", [(0.0, 0.0), (1e-170, 0.0), (1.0, 0.0)], 3.5)


def test_lane_rejects_a_segment_whose_square_overflows():
    # project divides by the squared length; RuntimeWarnings fail the test
    for far in ([(0.0, 0.0), (1e308, 0.0)], [(-1e308, 0.0), (1e308, 0.0)],
                [(0.0, 0.0), (1.0, 0.0), (1e200, 1e200)]):
        with pytest.raises(NetworkError, match="'l': centerline has a segment too long"):
            Lane("l", far, 3.5)
    assert Lane("l", [(0.0, 0.0), (1e154, 0.0)], 3.5).length == 1e154


def test_network_reference_validation():
    a = Lane("a", [(0.0, 0.0), (10.0, 0.0)], 3.5)
    with pytest.raises(NetworkError, match="duplicate"):
        RoadNetwork((a, Lane("a", [(0.0, 0.0), (10.0, 0.0)], 3.5)))
    with pytest.raises(NetworkError):
        RoadNetwork(())
    with pytest.raises(NetworkError, match="successor"):
        RoadNetwork((Lane("a", [(0.0, 0.0), (10.0, 0.0)], 3.5,
                          successors=("ghost",)),))
    with pytest.raises(NetworkError, match="neighbour"):
        RoadNetwork((Lane("a", [(0.0, 0.0), (10.0, 0.0)], 3.5, left="ghost"),))
    with pytest.raises(NetworkError, match="source"):
        RoadNetwork((a,), sources=("ghost",))
    net = RoadNetwork((a,), sources=("a",), sinks=("a",))
    assert "a" in net and "ghost" not in net


def chain_network():
    a = Lane("a", [(0.0, 0.0), (10.0, 0.0)], 3.5, successors=("b", "c"))
    b = Lane("b", [(10.0, 0.0), (20.0, 0.0)], 3.5, successors=("c",))
    c = Lane("c", [(20.0, 0.0), (30.0, 0.0)], 3.5)
    d = Lane("d", [(0.0, 50.0), (10.0, 50.0)], 3.5)
    return RoadNetwork((a, b, c, d), sources=("a", "d"), sinks=("c", "d"))


def test_shortest_path():
    net = chain_network()
    assert net.shortest_path("a", "a") == ["a"]
    assert net.shortest_path("a", "c") == ["a", "c"]
    assert net.shortest_path("b", "c") == ["b", "c"]
    assert net.shortest_path("a", "d") is None
    with pytest.raises(NetworkError):
        net.shortest_path("a", "ghost")


def test_lane_group_orders_left_to_right():
    net = straight_network(n_lanes=3)
    for lane_id in ("lane_0", "lane_1", "lane_2"):
        assert net.lane_group(lane_id) == ["lane_0", "lane_1", "lane_2"]
    with pytest.raises(NetworkError):
        net.lane_group("ghost")


def test_load_network_schema_errors(tmp_path):
    bad = tmp_path / "net.json"
    bad.write_text("{nope")
    with pytest.raises(SchemaError):
        load_network(bad)
    bad.write_text('{"roads": []}')
    with pytest.raises(SchemaError):
        load_network(bad)
    bad.write_text('{"lanes": [{"id": "a", "width": 3.5}]}')
    with pytest.raises(SchemaError, match="centerline"):
        load_network(bad)
    bad.write_text(json.dumps({"lanes": [
        {"id": "a", "width": 3.5,
         "centerline": [[0.0, 0.0], [1.0, 0.0]],
         "successors": ["ghost"]},
    ]}))
    with pytest.raises(NetworkError):
        load_network(bad)


def test_scenario_files_round_trip(tmp_path):
    path = write_scenario_files(tmp_path, n_lanes=2, ego_speed=10.0,
                                ego_start_s=60.0)
    scenario = load_scenario(path)
    assert scenario.kind == "highway"
    assert scenario.ego_lane == "lane_0"
    assert scenario.ego_speed == 10.0
    assert scenario.ego_start_s == 60.0
    assert scenario.max_steps == 100
    assert sorted(scenario.network.lanes) == ["lane_0", "lane_1"]
    assert scenario.source_path == str(path)


def test_road_global_round_trip_examples():
    net = straight_network(n_lanes=2)
    x, y, heading = road_to_global(net, RoadCoord("lane_1", 120.0, 0.5))
    assert (x, y, heading) == (120.0, -3.0, 0.0)
    rc = global_to_road(net, 120.0, -3.0)
    assert rc.lane_id == "lane_1"
    assert rc.s == pytest.approx(120.0, abs=1e-9)
    assert rc.d == pytest.approx(0.5, abs=1e-9)
    with pytest.raises(NetworkError):
        road_to_global(net, RoadCoord("ghost", 0.0))


@settings(deadline=None, max_examples=60)
@given(lane_i=st.integers(0, 1), s=st.floats(0.0, 3000.0),
       d=st.floats(-1.7, 1.7))
def test_road_global_round_trip_property(lane_i, s, d):
    net = straight_network(n_lanes=2)
    lane_id = f"lane_{lane_i}"
    x, y, _ = road_to_global(net, RoadCoord(lane_id, s, d))
    back = global_to_road(net, x, y)
    assert back is not None
    assert back.lane_id == lane_id
    assert abs(back.s - s) < 1e-6
    assert abs(back.d - d) < 1e-6


def test_off_road_boundary_is_closed():
    net = straight_network()
    assert not is_off_road(net, 1500.0, 1.75)
    assert not is_off_road(net, 1500.0, -1.75)
    assert is_off_road(net, 1500.0, math.nextafter(1.75, 2.0))
    assert is_off_road(net, 1500.0, 2.0)
    # the same edges among several lanes, and round a lane end
    net = straight_network(n_lanes=3)
    assert not is_off_road(net, 1500.0, 1.75)
    assert is_off_road(net, 1500.0, math.nextafter(1.75, 2.0))
    assert not is_off_road(net, 3001.75, -7.0)
    assert is_off_road(net, math.nextafter(3001.75, 4000.0), -7.0)


def bundled_network(name):
    return load_scenario(_bundled_library() / f"{name}.scenario.json").network


OFF_ROAD_NETWORKS = (straight_network(n_lanes=3), RoadNetwork([bent_lane()]),
                     bundled_network("urban_grid"))


@st.composite
def points_near_lanes(draw):
    """A network and a point near one of its lanes: at either lane end or
    along it, on an edge or anywhere across it, optionally moved one ulp
    along x or y."""
    net = draw(st.sampled_from(OFF_ROAD_NETWORKS))
    lane = draw(st.sampled_from([net.lanes[lane_id] for lane_id in sorted(net.lanes)]))
    half = lane.width / 2.0
    s = draw(st.sampled_from([0.0, lane.length]) | st.floats(-5.0, lane.length + 5.0))
    d = draw(st.sampled_from([half, -half]) | st.floats(-3.0 * half, 3.0 * half))
    x, y, _ = lane.pose_at(s, d, extrapolate=True)
    toward = draw(st.sampled_from([None, -math.inf, math.inf]))
    if toward is not None:
        if draw(st.booleans()):
            x = math.nextafter(x, toward)
        else:
            y = math.nextafter(y, toward)
    return net, x, y


@settings(deadline=None, max_examples=150)
@given(points_near_lanes())
def test_off_road_early_exit_agrees_with_global_to_road(case):
    net, x, y = case
    assert is_off_road(net, x, y) == (global_to_road(net, x, y) is None)


# At s = -0.0 on this lane, x = (-0.0 + 0.6 * -0.0) - (-0.8 * 0.0) is +0.0
# only through the offset term with d = 0.0.
SIGNED_ZERO_LANE = Lane("down", [(-0.0, -0.0), (3.0, -4.0)], 3.5)
# Here, at s = 0.0, x = (-0.0 + -0.6 * 0.0) - (0.8 * 0.0) is -0.0: the
# offset term must subtract +0.0, not add it.
NEGATIVE_ZERO_LANE = Lane("back", [(-0.0, -0.0), (-3.0, 4.0)], 3.5)


COORD = st.floats(-2000.0, 2000.0)
STEP = st.tuples(st.floats(-60.0, 60.0), st.floats(-60.0, 60.0)).filter(
    lambda v: math.hypot(*v) > 0.5)


@st.composite
def polyline_lanes(draw):
    """A lane with 1 to 6 segments of random direction and length."""
    x, y = draw(COORD), draw(COORD)
    pts = [(x, y)]
    for dx, dy in draw(st.lists(STEP, min_size=1, max_size=6)):
        x, y = x + dx, y + dy
        pts.append((x, y))
    return Lane("p", pts, draw(st.sampled_from([3.0, 3.5])))


# Out along y = 0 in eight 10 m segments, a 4 m U-turn (segment 8), back
# along y = 4 (segments 9-16): points between the legs are often equally
# near to two segments.
HAIRPIN_LANE = Lane("hairpin", [(x, 0.0) for x in range(0, 90, 10)]
                    + [(x, 4.0) for x in range(80, -10, -10)], 3.5)

# Whole-metre steps mixed with random ones, so that whole-metre points are
# often equally near to two segments.
GRID_STEP = st.sampled_from([(1.0, 0.0), (0.0, 2.0), (-3.0, 0.0), (0.0, -1.0)]) | STEP


@st.composite
def long_polyline_lanes(draw):
    """A lane of up to 40 segments, many on integer steps."""
    pts = [(draw(st.integers(-500, 500)) * 1.0, draw(st.integers(-500, 500)) * 1.0)]
    for dx, dy in draw(st.lists(GRID_STEP, min_size=9, max_size=40)):
        pts.append((pts[-1][0] + dx, pts[-1][1] + dy))
    return Lane("long", pts, 3.5)


@st.composite
def many_run_lanes(draw):
    """A lane of 100 to 400 segments, so of 10 to 20 runs: a seeded walk of
    the whole-metre steps of GRID_STEP and random ones."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(100, 400))
    grid = np.array([(1.0, 0.0), (0.0, 2.0), (-3.0, 0.0), (0.0, -1.0)])
    steps = np.where(rng.random((n, 1)) < 0.5, grid[rng.integers(4, size=n)],
                     rng.uniform(-60.0, 60.0, (n, 2)))
    start = (float(draw(st.integers(-500, 500))), float(draw(st.integers(-500, 500))))
    return Lane("many_runs", np.cumsum(np.vstack([start, steps]), axis=0), 3.5)


# Out along y = 0 in sixty 1 m segments, a U-turn of two 2 m segments (60
# and 61), back along y = 4 (segments 62-121): runs of 12 segments, so the
# two segments 2 m from a point between the legs lie in different runs,
# whose circles are 2 m apart along x.
RUNS_HAIRPIN_LANE = Lane("runs_hairpin", [(x, 0.0) for x in range(61)] + [(60.0, 2.0)]
                         + [(x, 4.0) for x in range(60, -1, -1)], 3.5)
# 400 segments on a 1 km arc, 2 radians long.
ARC_LANE = Lane("arc", [(1000.0 * math.cos(i / 200.0), 1000.0 * math.sin(i / 200.0))
                        for i in range(401)], 3.5)

PROJECT_LANES = ([SIGNED_ZERO_LANE, NEGATIVE_ZERO_LANE, bent_lane(), HAIRPIN_LANE,
                  RUNS_HAIRPIN_LANE, ARC_LANE]
                 + [bundled_network(name).lanes[lane_id]
                    for name, lane_id in (("highway_curve", "lane_0"), ("urban_grid", "e00_10"))])

ANY_LANE = st.sampled_from(PROJECT_LANES) | polyline_lanes() | long_polyline_lanes()


@st.composite
def lanes_and_points(draw, lanes=ANY_LANE):
    """A lane and a point: across it, beyond either end, on a vertex, at
    signed zeros, anywhere nearby or on a whole-metre grid point."""
    lane = draw(lanes)
    if draw(st.integers(0, 4)) == 0:
        x0, y0, x1, y1 = lane._box
        return (lane, draw(st.integers(int(x0) - 5, int(x1) + 5)) * 1.0,
                draw(st.integers(int(y0) - 5, int(y1) + 5)) * 1.0)
    s = draw(st.sampled_from([0.0, *lane._inner_s, lane.length])
             | st.floats(-30.0, lane.length + 30.0))
    d = draw(st.sampled_from([-0.0, 0.0, lane.width / 2.0]) | st.floats(-20.0, 20.0))
    x, y, _ = lane.pose_at(s, d, extrapolate=True)
    return lane, *draw(st.sampled_from([(x, y), (-0.0, -0.0), (0.0, -0.0), (-0.0, y)]))


def assert_projects_as_reference(lane, x, y):
    with np.errstate(invalid="ignore", over="ignore"):
        want = project_reference(lane, x, y)
    assert [v.hex() for v in lane.project(x, y)] == [v.hex() for v in want], (x, y)


@settings(deadline=None, max_examples=400)
@given(lanes_and_points())
def test_project_matches_reference_bit_for_bit(case):
    assert_projects_as_reference(*case)


@pytest.mark.parametrize("x, y, s", [
    # segments 0 and 16, 2 m on either side
    (5.0, 2.0, 5.0),
    # segments 7 and 9, 2 m on either side
    (75.0, 2.0, 75.0),
])
def test_project_tie_goes_to_the_first_segment(x, y, s):
    lane = HAIRPIN_LANE
    assert lane.project(x, y) == (s, 2.0, 2.0)
    assert_projects_as_reference(lane, x, y)


@settings(deadline=None, max_examples=150)
@given(lanes_and_points(many_run_lanes()))
def test_project_over_many_runs_matches_reference_bit_for_bit(case):
    lane, x, y = case
    assert len(lane._runs) >= 10
    assert_projects_as_reference(lane, x, y)


def test_lanes_are_cut_into_runs_of_about_root_n_segments():
    assert [len(lane._runs) for lane in (bent_lane(), HAIRPIN_LANE)] == [0, 4]
    assert [len(run[3]) for run in RUNS_HAIRPIN_LANE._runs] == [12] * 10 + [2]
    assert [len(run[3]) for run in ARC_LANE._runs] == [20] * 20
    curve = bundled_network("highway_curve").lanes["lane_0"]
    assert [len(run[3]) for run in curve._runs] == [9] * 8 + [8]


def test_project_tie_across_runs_goes_to_the_first_segment():
    lane = RUNS_HAIRPIN_LANE
    later_run_first = 0
    for x in np.arange(0.5, 58.0, 0.5).tolist():
        assert lane.project(x, 2.0) == (x, 2.0, 2.0)
        assert_projects_as_reference(lane, x, 2.0)
        lows = [math.hypot(x - cx, 2.0 - cy) - r for cx, cy, r, _ in lane._runs]
        later_run_first += lows.index(min(lows)) > 5
    # the tie is met with the back leg's run scanned first, too
    assert later_run_first > 10


NON_FINITE = (math.inf, -math.inf, math.nan, 1e308, -1e308, 1e200, 0.0, -3.0)


@pytest.mark.parametrize("lane", PROJECT_LANES, ids=lambda lane: lane.id)
def test_project_of_non_finite_and_overflowing_points_matches_reference(lane):
    for x in NON_FINITE:
        for y in NON_FINITE:
            assert_projects_as_reference(lane, x, y)


# Either side of the size past which a projection skips no run.
FAR = (1e100, -1e100, math.nextafter(1e100, 0.0), 5e99, 1e101, 1e50, -1e50, 1e15, 3.0)


@pytest.mark.parametrize("lane", [RUNS_HAIRPIN_LANE, ARC_LANE], ids=lambda lane: lane.id)
def test_project_of_far_points_matches_reference(lane):
    for x in FAR:
        for y in FAR:
            assert_projects_as_reference(lane, x, y)


def test_lane_past_the_far_limit_is_one_run():
    lane = Lane("far", [(2e100 + i * 1e90, 2e100) for i in range(20)], 3.5)
    assert lane._runs == []
    for x in NON_FINITE:
        for y in NON_FINITE:
            assert_projects_as_reference(lane, x, y)


def vertex_arc_lengths(lane):
    """Every vertex's arc length and the floats next to it on both sides."""
    return [v for c in [0.0, *lane._inner_s, lane.length]
            for v in (math.nextafter(c, -math.inf), c, math.nextafter(c, math.inf))]


def assert_poses_as_reference(lane, arc, offsets):
    for s in arc:
        for d in offsets:
            for s_in, d_in in ((s, d), (np.float64(s), np.float64(d)), (np.float64(s), d)):
                with np.errstate(invalid="ignore"):
                    want = pose_at_reference(lane, s_in, d_in)
                    got = lane.pose_at(s_in, d_in, extrapolate=True)
                assert [type(v) for v in got] == [float] * 3
                assert [v.hex() for v in got] == [v.hex() for v in want], (s, d)


@pytest.mark.parametrize("lane", PROJECT_LANES, ids=lambda lane: lane.id)
def test_pose_at_matches_reference_bit_for_bit(lane):
    # every vertex and the floats next to it, past both ends, signed zero,
    # infinities, NaN and random arc lengths
    arc = vertex_arc_lengths(lane)
    arc += [-0.0, -50.0, lane.length + 50.0, math.inf, -math.inf, math.nan]
    arc += np.random.default_rng(0).uniform(-5.0, lane.length + 5.0, 32).tolist()
    assert_poses_as_reference(lane, arc, (0.0, -0.0, 1.25, -lane.width / 2.0))
    with pytest.raises(InputDomainError):
        lane.pose_at(math.nan)


@settings(deadline=None, max_examples=150)
@given(polyline_lanes())
def test_pose_at_on_the_centre_line_matches_reference_on_random_lanes(lane):
    # Background vehicles are posed at d = 0.0, where the offset terms
    # decide the sign of a zero coordinate.
    assert_poses_as_reference(lane, vertex_arc_lengths(lane), (0.0,))


def test_global_to_road_prefers_nearest_then_id_order():
    net = straight_network(n_lanes=2)
    assert global_to_road(net, 10.0, -1.0).lane_id == "lane_0"
    assert global_to_road(net, 10.0, -2.5).lane_id == "lane_1"
    # midline between the two lanes: equidistant, id order decides
    assert global_to_road(net, 10.0, -1.75).lane_id == "lane_0"


def test_scenario_validation():
    base = straight_scenario()
    with pytest.raises(SchemaError):
        Scenario("rural", base.network, base.demand, 0.1, 100, 0, "lane_0")
    with pytest.raises(SchemaError):
        Scenario("highway", base.network, base.demand, 0.0, 100, 0, "lane_0")
    with pytest.raises(SchemaError):
        Scenario("highway", base.network, base.demand, 0.1, 0, 0, "lane_0")
    with pytest.raises(SchemaError):
        Scenario("highway", base.network, base.demand, 0.1, 100, 0, "ghost")
    with pytest.raises(SchemaError):
        Scenario("highway", base.network, base.demand, 0.1, 100, 0, "lane_0",
                 ego_start_s=9000.0)
    with pytest.raises(SchemaError):
        Scenario("highway", base.network, base.demand, 0.1, 100, 0, "lane_0",
                 ego_speed=-1.0)


@pytest.mark.parametrize("seed", ["x", None, 1.5, 1.5j, -1])
def test_scenario_rejects_a_seed_that_is_not_a_non_negative_integer(seed):
    base = straight_scenario()
    with pytest.raises(SchemaError, match="scenario seed must be"):
        Scenario("highway", base.network, base.demand, 0.1, 100, seed, "lane_0")


def test_bundled_scenarios_parse_with_expected_networks():
    paths = list_scenarios()
    names = [p.name for p in paths]
    assert names == sorted(names)
    by_stem = {p.name.split(".")[0]: load_scenario(p) for p in paths}
    assert set(by_stem) == {"highway_plain", "highway_curve",
                            "urban_block", "urban_grid"}
    assert len(by_stem["highway_plain"].network.lanes) == 3
    assert len(by_stem["highway_curve"].network.lanes) == 3
    assert len(by_stem["urban_block"].network.lanes) == 8
    grid = by_stem["urban_grid"].network
    assert len(grid.lanes) == 24
    assert len(grid.sources) == 20
    assert len(grid.sinks) == 20
    for scenario in by_stem.values():
        assert scenario.kind in ("highway", "urban")
        assert scenario.ego_lane in scenario.network.lanes


def test_list_scenarios_kind_filter():
    assert len(list_scenarios("highway")) == 2
    assert len(list_scenarios("urban")) == 2
    assert list_scenarios("rural") == []


def test_library_file_that_is_not_an_object_is_skipped(tmp_path):
    (tmp_path / "bad.scenario.json").write_text("[1, 2]")
    # nor UTF-8 text, nor JSON
    (tmp_path / "bytes.scenario.json").write_bytes(b"\xff")
    (tmp_path / "text.scenario.json").write_text("not json")
    with pytest.raises(ConfigurationError, match="no scenarios of kind 'highway'"):
        load_scenario("highway", np.random.default_rng(0), library=tmp_path)
    good = write_scenario_files(tmp_path, max_steps=10)
    assert list_scenarios("highway", library=tmp_path) == [good]
    picked = load_scenario("highway", np.random.default_rng(0), library=tmp_path)
    assert picked.source_path == str(good)


def test_load_scenario_by_kind_picks_uniformly(tmp_path):
    first = write_scenario_files(tmp_path, max_steps=10)
    second = tmp_path / "case2.scenario.json"
    shutil.copy(first, second)

    counts = {first.name: 0, second.name: 0}
    rng = np.random.default_rng(0)
    for _ in range(1000):
        picked = load_scenario("highway", rng, library=tmp_path)
        counts[picked.source_path.rsplit("/", 1)[-1]] += 1
    assert counts[first.name] + counts[second.name] == 1000
    assert abs(counts[first.name] / 1000 - 0.5) < 0.05

    with pytest.raises(ConfigurationError):
        load_scenario("urban", rng, library=tmp_path)
    with pytest.raises(ConfigurationError):
        load_scenario("no-such-thing", rng)


def test_lanes_compare_and_hash_by_identity():
    a, b = bent_lane(), bent_lane()
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2 and {a: 1}[a] == 1
