"""Parameter sampling from marginals and demand generation."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (THETA_STAR, sample_from_histogram_reference, sample_param_set_reference,
                      straight_network)
from microtraffic import (PARAM_NAMES, ConfigurationError, DemandSpec, GenerationError,
                          Histogram, InputDomainError, ParamSet, RoadNetwork,
                          Route, SchemaError, VehicleSpec, build_demand,
                          default_histograms, generate_random_trips,
                          load_demand, sample_from_histogram,
                          sample_param_set, save_demand)
from microtraffic.network import Lane, _bundled_library, load_network
from microtraffic.population import DEFAULT_VEHICLE_LENGTH

TABLE_HISTOGRAMS = {
    name: Histogram.from_bins([(value * 0.975, value * 1.025, 1.0)])
    for name, value in zip(
        ("a_max", "a_comf", "v_des", "d_min", "T", "delta"),
        (1.2, 2.0, 29.7, 63.9, 2.0, 4.0),
    )
}


class ScriptedRng:
    """Duck-typed generator that hands out the given uniforms in order."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None):
        if size is None:
            return self.values.pop(0)
        out = np.array(self.values[:size])
        del self.values[:size]
        return out


def fork_network():
    """One entry lane splitting into two exit lanes."""
    entry = Lane("entry", [(0.0, 0.0), (100.0, 0.0)], 3.5,
                 successors=("out_a", "out_b"))
    out_a = Lane("out_a", [(100.0, 0.0), (200.0, 0.0)], 3.5)
    out_b = Lane("out_b", [(100.0, 0.0), (200.0, -20.0)], 3.5)
    return RoadNetwork((entry, out_a, out_b),
                       sources=("entry",), sinks=("out_a", "out_b"))


def test_sample_from_histogram_stays_in_support():
    h = Histogram.from_bins([(2.0, 3.0, 1.0)])
    rng = np.random.default_rng(0)
    draws = np.array([sample_from_histogram(h, rng) for _ in range(2000)])
    assert np.all((draws >= 2.0) & (draws < 3.0))


def test_sample_from_histogram_bin_frequencies():
    h = Histogram.from_bins([(0.0, 1.0, 0.25), (1.0, 2.0, 0.75)])
    rng = np.random.default_rng(8)
    draws = np.array([sample_from_histogram(h, rng) for _ in range(20_000)])
    frac_hi = np.mean(draws >= 1.0)
    assert abs(frac_hi - 0.75) < 0.02


def test_sample_from_histogram_is_seed_deterministic():
    h = Histogram.from_bins([(0.0, 1.0, 0.5), (1.0, 2.0, 0.5)])
    a = [sample_from_histogram(h, np.random.default_rng(3)) for _ in range(5)]
    b = [sample_from_histogram(h, np.random.default_rng(3)) for _ in range(5)]
    assert a == b


def test_sample_from_histogram_tiny_bin_respects_open_edge():
    h = Histogram.from_bins([(5.0, 5.0 + 1e-9, 1.0)])
    rng = np.random.default_rng(1)
    for _ in range(1000):
        v = sample_from_histogram(h, rng)
        assert 5.0 <= v < 5.0 + 1e-9


def test_sample_from_histogram_rejects_zero_total_mass():
    # A histogram's mass is checked when it is built, so no histogram
    # without mass ever reaches the sampler.
    with pytest.raises(InputDomainError, match="sum to 1"):
        Histogram.from_bins([(0.0, 1.0, 0.0)])


@st.composite
def sampling_histograms(draw):
    """1 to 40 contiguous bins, some of zero mass and some 1e-9 wide,
    starting at 0.0 or at a random edge."""
    n = draw(st.integers(1, 40))
    start = draw(st.one_of(st.just(0.0), st.floats(-100.0, 100.0)))
    widths = draw(st.lists(st.one_of(st.just(1e-9), st.floats(1e-6, 10.0)),
                           min_size=n, max_size=n))
    weights = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n).filter(any))
    edges = start + np.concatenate(([0.0], np.cumsum(widths)))
    mass = np.array(weights, dtype=np.float64)
    return Histogram(edges[:-1], edges[1:], mass / mass.sum())


def assert_same_draws(draw, reference, seed, n=200):
    """``n`` draws (lists of floats) bit for bit equal to the reference's,
    and the generator left in the same state."""
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(n):
        got, want = draw(rng), reference(ref_rng)
        assert [x.hex() for x in got] == [x.hex() for x in want]
    assert rng.bit_generator.state == ref_rng.bit_generator.state


#: Uniforms on the cumulative masses below, 0.0 and the largest draw below 1.
EDGE_UNIFORMS = (0.0, 0.25, 0.5, 0.75, 0.5 - 2.0**-54, 1.0 - 2.0**-53)

#: Masses whose running sum ends one ulp below their (pairwise) total.
ROUNDED_TOTAL = Histogram.from_bins(
    [(k, k + 1.0, m) for k, m in enumerate([0.1001, 0.0999] + [0.1] * 8)])


def test_largest_draw_can_pass_the_last_cumulative_mass():
    h = ROUNDED_TOTAL
    assert EDGE_UNIFORMS[-1] * float(h.mass.sum()) >= np.cumsum(h.mass)[-1]


@pytest.mark.parametrize("h", [
    # Zero-mass bins at both ends, and cumulative masses a draw can equal.
    Histogram.from_bins([(0.0, 1.0, 0.0), (1.0, 2.0, 0.25), (2.0, 3.0, 0.25),
                         (3.0, 4.0, 0.5), (4.0, 5.0, 0.0)]),
    # A bin so narrow that ``lo + u * (hi - lo)`` can round up to ``hi``.
    Histogram.from_bins([(100.0, 100.0 + 1e-9, 1.0)]),
    ROUNDED_TOTAL,
], ids=["zero-mass-ends", "narrow", "rounded-total"])
def test_sampler_matches_reference_on_bin_edges(h):
    uniforms = [u for pair in itertools.product(EDGE_UNIFORMS, repeat=2) for u in pair]
    for k in range(0, len(uniforms), 2):
        got = sample_from_histogram(h, ScriptedRng(uniforms[k:k + 2]))
        want = sample_from_histogram_reference(h, ScriptedRng(uniforms[k:k + 2]))
        assert got.hex() == want.hex(), uniforms[k:k + 2]
    hists = dict.fromkeys(PARAM_NAMES, h)
    for k in range(0, len(uniforms), 12):
        got = sample_param_set(hists, ScriptedRng(uniforms[k:k + 12]))
        want = sample_param_set_reference(hists, ScriptedRng(uniforms[k:k + 12]))
        assert got == want, uniforms[k:k + 12]


@settings(deadline=None, max_examples=80)
@given(sampling_histograms(), st.integers(0, 2**32 - 1))
def test_sample_from_histogram_matches_reference_bit_for_bit(h, seed):
    assert_same_draws(lambda rng: [sample_from_histogram(h, rng)],
                      lambda rng: [sample_from_histogram_reference(h, rng)], seed)


@settings(deadline=None, max_examples=40)
@given(st.lists(sampling_histograms(), min_size=6, max_size=6), st.integers(0, 2**32 - 1))
def test_sample_param_set_matches_reference_bit_for_bit(hists, seed):
    hists = dict(zip(PARAM_NAMES, hists))
    assert_same_draws(lambda rng: sample_param_set(hists, rng).to_array().tolist(),
                      lambda rng: sample_param_set_reference(hists, rng).to_array().tolist(),
                      seed)


@pytest.mark.parametrize("kind, network", [("highway", "highway_plain"),
                                           ("urban", "urban_grid")])
def test_sample_param_set_equals_the_checked_construction(kind, network):
    # The draws pinned by GOLDEN_SAMPLING: sample-params --n 100 and
    # build-demand at their defaults, seed 3.
    hists = default_histograms(kind)
    rng = np.random.default_rng(3)
    drawn = [sample_param_set(hists, rng) for _ in range(100)]
    net = load_network(_bundled_library() / f"{network}.network.json")
    demand = build_demand(net, hists, 50, np.random.default_rng(3))
    drawn += [v.params for v in demand.vehicles]
    for p in drawn:
        values = [getattr(p, name) for name in PARAM_NAMES]
        checked = ParamSet(*values)
        assert [type(v) for v in values] == [float] * len(PARAM_NAMES)
        assert [getattr(checked, name).hex() for name in PARAM_NAMES] == [v.hex() for v in values]
        assert p == checked


def test_sample_param_set_lands_in_bins():
    rng = np.random.default_rng(10)
    for _ in range(50):
        p = sample_param_set(TABLE_HISTOGRAMS, rng)
        for name, h in TABLE_HISTOGRAMS.items():
            lo, hi = h.support
            assert lo <= getattr(p, name) < hi


def test_sample_param_set_consumes_draws_in_canonical_order():
    shuffled = dict(reversed(list(TABLE_HISTOGRAMS.items())))
    a = sample_param_set(TABLE_HISTOGRAMS, np.random.default_rng(4))
    b = sample_param_set(shuffled, np.random.default_rng(4))
    assert a == b


def test_sample_param_set_missing_marginal():
    partial = {k: v for k, v in TABLE_HISTOGRAMS.items() if k != "T"}
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ConfigurationError, match="T"):
        sample_param_set(partial, rng)
    # Every histogram is looked up before the first draw.
    assert rng.bit_generator.state == state


def test_sample_param_set_zero_edge_bin_stays_positive():
    hists = dict(TABLE_HISTOGRAMS)
    hists["a_max"] = Histogram.from_bins([(0.0, 0.5, 1.0)])
    p = sample_param_set(hists, ScriptedRng([0.0] * 12))
    assert p.a_max > 0.0


def test_route_and_vehicle_validation():
    with pytest.raises(InputDomainError):
        Route("r", ())
    with pytest.raises(InputDomainError):
        VehicleSpec("v", "r", -1.0, THETA_STAR)
    with pytest.raises(InputDomainError):
        VehicleSpec("v", "r", 0.0, THETA_STAR, length=0.0)
    with pytest.raises(InputDomainError):
        VehicleSpec("v", "r", 0.0, THETA_STAR, depart_s=-1.0)


@pytest.mark.parametrize("field", ["length", "depart_s"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_vehicle_spec_rejects_non_finite_geometry(field, value):
    with pytest.raises(InputDomainError, match=f"vehicle 'v': {field} must be finite"):
        VehicleSpec("v", "r", 0.0, THETA_STAR, **{field: value})


def test_demand_spec_reference_checks():
    r = Route("r0", ("lane_0",))
    v = VehicleSpec("veh", "r0", 0.0, THETA_STAR)
    with pytest.raises(InputDomainError):
        DemandSpec((r, Route("r0", ("lane_0",))), ())
    with pytest.raises(InputDomainError):
        DemandSpec((r,), (v, VehicleSpec("veh", "r0", 1.0, THETA_STAR)))
    with pytest.raises(InputDomainError):
        DemandSpec((r,), (VehicleSpec("veh", "nope", 0.0, THETA_STAR),))
    spec = DemandSpec((r,), (v,))
    assert spec.route_by_id("r0") is r


def test_demand_validate_against_network():
    net = straight_network(n_lanes=2)
    ok = DemandSpec((Route("r", ("lane_0",)),),
                    (VehicleSpec("v", "r", 0.0, THETA_STAR, depart_s=100.0),))
    ok.validate_against(net)

    with pytest.raises(SchemaError, match="does not exist"):
        DemandSpec((Route("r", ("lane_9",)),), ()).validate_against(net)
    with pytest.raises(SchemaError, match="not a successor"):
        DemandSpec((Route("r", ("lane_0", "lane_1")),), ()).validate_against(net)
    too_far = DemandSpec((Route("r", ("lane_0",)),),
                         (VehicleSpec("v", "r", 0.0, THETA_STAR,
                                      depart_s=3000.0),))
    with pytest.raises(SchemaError, match="depart_s"):
        too_far.validate_against(net)


def test_generate_random_trips_single_road():
    net = straight_network()
    trips = generate_random_trips(net, 3, np.random.default_rng(0))
    assert trips == [("lane_0",)] * 3


def test_generate_random_trips_fork_paths_are_drivable():
    net = fork_network()
    trips = generate_random_trips(net, 20, np.random.default_rng(2))
    assert len(trips) == 20
    seen_sinks = set()
    for trip in trips:
        assert trip[0] == "entry"
        assert trip[-1] in ("out_a", "out_b")
        seen_sinks.add(trip[-1])
        for a, b in zip(trip, trip[1:]):
            assert b in net.lanes[a].successors
    assert seen_sinks == {"out_a", "out_b"}


def test_generate_random_trips_edge_cases():
    net = straight_network()
    assert generate_random_trips(net, 0, np.random.default_rng(0)) == []
    with pytest.raises(InputDomainError):
        generate_random_trips(net, -1, np.random.default_rng(0))


def test_generate_random_trips_disconnected_network():
    a = Lane("a", [(0.0, 0.0), (100.0, 0.0)], 3.5)
    b = Lane("b", [(0.0, 50.0), (100.0, 50.0)], 3.5)
    net = RoadNetwork((a, b), sources=("a",), sinks=("b",))
    with pytest.raises(GenerationError):
        generate_random_trips(net, 1, np.random.default_rng(0))


def test_build_demand_empty():
    net = straight_network()
    spec = build_demand(net, TABLE_HISTOGRAMS, 0, np.random.default_rng(0))
    assert spec.routes == () and spec.vehicles == ()


def test_build_demand_schedule_and_parameters():
    net = fork_network()
    spec = build_demand(net, TABLE_HISTOGRAMS, 50, np.random.default_rng(6),
                        mean_headway=4.0, n_routes=4)
    assert len(spec.routes) == 4
    assert len(spec.vehicles) == 50
    spec.validate_against(net)

    departs = [v.depart for v in spec.vehicles]
    assert all(b > a for a, b in zip(departs, departs[1:]))
    assert abs(np.mean(np.diff([0.0] + departs)) - 4.0) < 2.0

    a_max_draws = {v.params.a_max for v in spec.vehicles}
    assert len(a_max_draws) == 50

    for i, v in enumerate(spec.vehicles):
        assert v.id == f"veh_{i:04d}"
        assert v.route == f"route_{i % 4}"
        assert v.length == DEFAULT_VEHICLE_LENGTH
        lo, hi = TABLE_HISTOGRAMS["v_des"].support
        assert lo <= v.params.v_des < hi


def test_build_demand_is_seed_deterministic():
    net = straight_network()
    a = build_demand(net, TABLE_HISTOGRAMS, 10, np.random.default_rng(9))
    b = build_demand(net, TABLE_HISTOGRAMS, 10, np.random.default_rng(9))
    assert a == b


def test_build_demand_validation():
    net = straight_network()
    with pytest.raises(InputDomainError):
        build_demand(net, TABLE_HISTOGRAMS, -1, np.random.default_rng(0))
    with pytest.raises(InputDomainError):
        build_demand(net, TABLE_HISTOGRAMS, 1, np.random.default_rng(0),
                     mean_headway=0.0)


@pytest.mark.parametrize("n_routes", [0, -3, 2.5])
def test_build_demand_rejects_a_route_count_below_one_or_not_whole(n_routes):
    # Checked with the other arguments, also when no vehicle is asked for.
    net = straight_network()
    for n_vehicles in (0, 1):
        with pytest.raises(InputDomainError, match="n_routes"):
            build_demand(net, TABLE_HISTOGRAMS, n_vehicles, np.random.default_rng(0),
                         n_routes=n_routes)


def test_demand_json_round_trip(tmp_path):
    demand = DemandSpec(
        (Route("r0", ("lane_0",)),),
        (VehicleSpec("veh_0000", "r0", 0.0, THETA_STAR),
         VehicleSpec("veh_0001", "r0", 3.5, THETA_STAR, length=4.0,
                     depart_s=30.0)),
    )
    path = tmp_path / "demand.json"
    save_demand(demand, path)
    text = path.read_text()
    assert text.count("depart_s") == 1
    back = load_demand(path)
    assert back == demand
    assert back.vehicles[0].depart_s == 0.0
    assert back.vehicles[1].depart_s == 30.0


def test_load_demand_schema_errors(tmp_path):
    bad_json = tmp_path / "a.json"
    bad_json.write_text("[]")
    with pytest.raises(SchemaError):
        load_demand(bad_json)

    missing = tmp_path / "b.json"
    missing.write_text('{"routes": [], "vehicles": [{"id": "v"}]}')
    with pytest.raises(SchemaError):
        load_demand(missing)

    negative = tmp_path / "c.json"
    negative.write_text(
        '{"routes": [{"id": "r", "lanes": ["l"]}],'
        ' "vehicles": [{"id": "v", "route": "r", "depart": -1.0,'
        ' "params": {"a_max": 3, "a_comf": 5, "v_des": 35, "d_min": 10,'
        ' "T": 2, "delta": 4}}]}'
    )
    with pytest.raises(SchemaError):
        load_demand(negative)


def test_default_histograms_highway_means():
    hists = default_histograms("highway")
    assert set(hists) == set(TABLE_HISTOGRAMS)
    for name, value in (("a_max", 1.2), ("a_comf", 2.0), ("v_des", 29.7),
                        ("d_min", 63.9), ("T", 2.0), ("delta", 4.0)):
        assert hists[name].n_bins == 1
        assert hists[name].mean() == pytest.approx(value, rel=1e-12)


def test_default_histograms_urban_marginals():
    hists = default_histograms("urban")
    v_des = hists["v_des"]
    assert v_des.n_bins == 2
    assert v_des.support == (17.0, 21.0)
    assert v_des.mass == pytest.approx([0.5, 0.5])
    assert v_des.mean() == pytest.approx(19.0)
    assert hists["d_min"].support == (15.0, 45.0)


def test_default_histograms_unknown_kind():
    with pytest.raises(ConfigurationError):
        default_histograms("rural")
