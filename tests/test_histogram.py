"""Binned marginals: construction invariants and the JSON interchange."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from microtraffic import (Histogram, InputDomainError, SchemaError,
                          load_histograms, save_histograms)


def test_two_bin_construction():
    h = Histogram(np.array([0.0, 1.0]), np.array([1.0, 2.0]),
                  np.array([0.25, 0.75]))
    assert h.n_bins == 2
    assert h.support == (0.0, 2.0)
    assert list(h.bins()) == [(0.0, 1.0, 0.25), (1.0, 2.0, 0.75)]


def test_from_bins_matches_direct_construction():
    h = Histogram.from_bins([(0.0, 1.0, 0.5), (1.0, 3.0, 0.5)])
    assert np.array_equal(h.lo, [0.0, 1.0])
    assert np.array_equal(h.hi, [1.0, 3.0])
    assert h.mean() == 0.5 * 0.5 + 2.0 * 0.5


def test_mean_is_mass_weighted_midpoint():
    h = Histogram.from_bins([(10.0, 20.0, 0.2), (20.0, 40.0, 0.8)])
    assert h.mean() == pytest.approx(0.2 * 15.0 + 0.8 * 30.0, rel=1e-12)


def test_single_bin_mean_is_midpoint():
    h = Histogram.from_bins([(29.7 * 0.975, 29.7 * 1.025, 1.0)])
    assert h.mean() == pytest.approx(29.7, rel=1e-12)


def test_arrays_are_read_only_copies():
    lo, hi, mass = np.array([0.0, 1.0]), np.array([1.0, 2.0]), np.array([0.25, 0.75])
    h = Histogram(lo, hi, mass)
    for a in (h.lo, h.hi, h.mass):
        with pytest.raises(ValueError):
            a[0] = 0.5
    # The caller's arrays are neither aliased nor frozen.
    mass[0] = 0.5
    assert h.mass[0] == 0.25
    assert all(a.flags.writeable for a in (lo, hi, mass))


def test_zero_mass_bins_are_allowed():
    h = Histogram.from_bins([(0.0, 1.0, 0.0), (1.0, 2.0, 1.0)])
    assert h.mass[0] == 0.0


def test_construction_errors():
    with pytest.raises(InputDomainError):
        Histogram(np.array([0.0]), np.array([1.0]), np.array([[1.0]]))
    with pytest.raises(InputDomainError):
        Histogram(np.array([]), np.array([]), np.array([]))
    with pytest.raises(InputDomainError):
        Histogram(np.array([0.0, 1.0]), np.array([1.0]), np.array([1.0]))
    with pytest.raises(InputDomainError):
        Histogram(np.array([0.0]), np.array([np.inf]), np.array([1.0]))
    with pytest.raises(InputDomainError):
        Histogram(np.array([1.0]), np.array([1.0]), np.array([1.0]))
    with pytest.raises(InputDomainError):
        Histogram(np.array([0.0, 1.5]), np.array([1.0, 2.0]),
                  np.array([0.5, 0.5]))
    with pytest.raises(InputDomainError):
        Histogram(np.array([0.0]), np.array([1.0]), np.array([-1.0]))
    with pytest.raises(InputDomainError):
        Histogram(np.array([0.0, 1.0]), np.array([1.0, 2.0]),
                  np.array([0.5, 0.6]))
    with pytest.raises(InputDomainError):
        Histogram.from_bins([])


def test_mass_tolerance_accepts_rounding_noise():
    mass = np.array([0.1] * 10)
    assert Histogram(np.arange(10.0), np.arange(1.0, 11.0), mass).n_bins == 10


@given(st.integers(1, 12), st.integers(0, 2 ** 31 - 1))
def test_random_dirichlet_histograms_construct(n_bins, seed):
    rng = np.random.default_rng(seed)
    edges = np.sort(rng.uniform(-50.0, 50.0, n_bins + 1))
    edges += np.arange(n_bins + 1) * 1e-3
    h = Histogram(edges[:-1], edges[1:], rng.dirichlet(np.ones(n_bins)))
    assert h.n_bins == n_bins
    lo, hi = h.support
    assert lo < hi


def test_save_load_round_trip(tmp_path):
    v_des = Histogram.from_bins([(17.0, 19.0, 0.5), (19.0, 21.0, 0.5)])
    d_min = Histogram.from_bins([(15.0, 45.0, 1.0)])
    path = tmp_path / "marginals.json"
    save_histograms({"v_des": v_des, "d_min": d_min}, path)
    back = load_histograms(path)
    assert set(back) == {"v_des", "d_min"}
    for name, original in (("v_des", v_des), ("d_min", d_min)):
        assert np.array_equal(back[name].lo, original.lo)
        assert np.array_equal(back[name].hi, original.hi)
        assert np.array_equal(back[name].mass, original.mass)


def test_load_rejects_bad_payloads(tmp_path):
    not_json = tmp_path / "a.json"
    not_json.write_text("{nope")
    with pytest.raises(SchemaError):
        load_histograms(not_json)

    not_mapping = tmp_path / "b.json"
    not_mapping.write_text("[1, 2]")
    with pytest.raises(SchemaError):
        load_histograms(not_mapping)

    not_list = tmp_path / "c.json"
    not_list.write_text('{"v_des": 3}')
    with pytest.raises(SchemaError, match="v_des"):
        load_histograms(not_list)

    missing_key = tmp_path / "d.json"
    missing_key.write_text('{"v_des": [{"lo": 0.0, "hi": 1.0}]}')
    with pytest.raises(SchemaError, match="v_des"):
        load_histograms(missing_key)

    bad_mass = tmp_path / "e.json"
    bad_mass.write_text('{"v_des": [{"lo": 0.0, "hi": 1.0, "mass": 0.5}]}')
    with pytest.raises(SchemaError, match="v_des"):
        load_histograms(bad_mass)


def test_histograms_compare_and_hash_by_identity():
    a, b = (Histogram.from_bins([(0.0, 1.0, 0.25), (1.0, 2.0, 0.75)]) for _ in range(2))
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2 and {a: 1}[a] == 1
