"""Domains and epsilon-covers: grid construction, greedy packing, nearest lookup."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripletdist import CoverSizeError, Domain, EpsCover, build_cover
from tripletdist.cover import (
    covering_radius_check,
    grid_cover_counts,
    grid_cover_size,
    min_pairwise_separation,
    nearest_center_batch,
)


# ---------------------------------------------------------------------------
# domains


def test_box_constructor_validates():
    with pytest.raises(ValueError):
        Domain.box([0.0, 0.0], [1.0])
    with pytest.raises(ValueError):
        Domain.box([0.0, 1.0], [1.0, 1.0])  # empty side


def test_box_basic_geometry():
    dom = Domain.box([0.0, -1.0], [2.0, 1.0])
    assert dom.dim == 2
    np.testing.assert_array_equal(dom.side_lengths, [2.0, 2.0])
    assert dom.diameter() == pytest.approx(math.sqrt(8.0))


def test_unit_box():
    dom = Domain.unit_box(3)
    np.testing.assert_array_equal(dom.side_lengths, [1.0, 1.0, 1.0])
    assert dom.diameter() == pytest.approx(math.sqrt(3.0))


def test_finite_domain_diameter():
    dom = Domain.finite([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]])
    assert dom.diameter() == pytest.approx(5.0)
    with pytest.raises(ValueError):
        Domain.finite(np.empty((0, 2)))


def test_contains_and_sampling(rng):
    dom = Domain.box([0.0, 0.0], [1.0, 2.0])
    X = dom.sample_uniform(rng, 500)
    assert dom.contains(X).all()
    assert not dom.contains([[1.5, 0.5]])[0]
    assert dom.contains([[1.0 + 1e-13, 0.5]])[0]  # boundary slack


def test_shrunk_keeps_lower_corner():
    dom = Domain.box([1.0, 2.0], [3.0, 6.0])
    small = dom.shrunk(0.5)
    np.testing.assert_array_equal(small.bounds[:, 0], [1.0, 2.0])
    np.testing.assert_array_equal(small.bounds[:, 1], [2.0, 4.0])


# ---------------------------------------------------------------------------
# grid covers


def test_grid_counts_formula_one_dimension():
    dom = Domain.box([0.0], [1.0])
    # ceil(1 * 1 / (2 * 0.25)) = 2 centers at the cell midpoints
    np.testing.assert_array_equal(grid_cover_counts(dom, 0.25), [2])
    cover = build_cover(dom, 0.25)
    np.testing.assert_allclose(cover.centers, [[0.25], [0.75]])


def test_grid_counts_formula_two_dimensions():
    dom = Domain.unit_box(2)
    # ceil(sqrt(2) / 0.6) = 3 per axis
    np.testing.assert_array_equal(grid_cover_counts(dom, 0.3), [3, 3])
    assert grid_cover_size(dom, 0.3) == 9
    cover = build_cover(dom, 0.3)
    assert cover.size == 9
    axis = np.array([1.0, 3.0, 5.0]) / 6.0
    np.testing.assert_allclose(sorted(set(cover.centers[:, 0])), axis)


def test_grid_size_with_anisotropic_box():
    dom = Domain.box([0.0, 0.0], [4.0, 1.0])
    counts = grid_cover_counts(dom, 0.5)
    np.testing.assert_array_equal(
        counts,
        [math.ceil(4 * math.sqrt(2) / 1.0), math.ceil(1 * math.sqrt(2) / 1.0)])
    assert grid_cover_size(dom, 0.5) == int(np.prod(counts))


def test_grid_counts_never_below_one():
    dom = Domain.unit_box(2)
    np.testing.assert_array_equal(grid_cover_counts(dom, 50.0), [1, 1])
    cover = build_cover(dom, 50.0)
    np.testing.assert_allclose(cover.centers, [[0.5, 0.5]])


def test_grid_covering_radius_holds(rng):
    """Every sampled box point lies within the advertised radius of a center."""
    for p, radius in [(1, 0.25), (2, 0.3), (3, 0.37)]:
        dom = Domain.unit_box(p)
        cover = build_cover(dom, radius)
        worst = covering_radius_check(cover, dom, n_samples=100_000, rng=rng)
        assert worst <= radius + 1e-12


def test_grid_radius_is_tight_in_the_cell_corner():
    dom = Domain.unit_box(2)
    cover = build_cover(dom, 0.3)
    # cell half-diagonal = radius * (k_exact / k_ceil) <= radius; the corner of a
    # cell is the farthest point from its midpoint center
    h = 1.0 / 3.0
    corner = np.array([h, h])  # meeting point of the first cells
    dist = np.linalg.norm(cover.centers - corner, axis=1).min()
    assert dist <= 0.3 + 1e-12
    assert dist == pytest.approx(math.sqrt(2) * h / 2.0)


def test_grid_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        build_cover(Domain.unit_box(1), 0.0)


def test_grid_rejects_finite_domain():
    with pytest.raises(ValueError):
        build_cover(Domain.finite([[0.0], [1.0]]), 0.5, method="grid")


def test_cover_cap_raises_with_required_count():
    dom = Domain.unit_box(3)
    required = grid_cover_size(dom, 0.001)
    with pytest.raises(CoverSizeError) as err:
        build_cover(dom, 0.001, max_centers=1000)
    assert err.value.required == required
    assert err.value.cap == 1000
    assert str(required) in str(err.value)


# ---------------------------------------------------------------------------
# greedy covers


def test_greedy_on_finite_points_packs_and_covers():
    rng = np.random.default_rng(3)
    pts = rng.uniform(0, 1, (400, 2))
    dom = Domain.finite(pts)
    cover = build_cover(dom, 0.2, method="greedy")
    assert min_pairwise_separation(cover) > 0.2
    assert covering_radius_check(cover, dom) <= 0.2 + 1e-12


def test_greedy_idempotent_on_its_own_centers():
    """Re-covering the centers at the same radius returns every center."""
    rng = np.random.default_rng(5)
    pts = rng.uniform(0, 1, (300, 2))
    cover = build_cover(Domain.finite(pts), 0.25, method="greedy")
    again = build_cover(Domain.finite(cover.centers), 0.25, method="greedy")
    assert again.size == cover.size
    np.testing.assert_allclose(np.sort(again.centers, axis=0),
                               np.sort(cover.centers, axis=0))


def test_greedy_on_box_covers_all_samples(rng):
    dom = Domain.unit_box(2)
    cover = build_cover(dom, 0.3, method="greedy")
    assert covering_radius_check(cover, dom, n_samples=100_000, rng=rng) <= 0.3 + 1e-12
    assert min_pairwise_separation(cover) > 0.95 * 0.3


def test_greedy_cap_enforced():
    rng = np.random.default_rng(11)
    pts = rng.uniform(0, 1, (500, 2))
    with pytest.raises(CoverSizeError):
        build_cover(Domain.finite(pts), 0.01, method="greedy", max_centers=5)


def test_unknown_method_rejected():
    with pytest.raises(ValueError, match="method"):
        build_cover(Domain.unit_box(1), 0.5, method="quantum")


# ---------------------------------------------------------------------------
# nearest-center lookup


def test_nearest_center_tie_takes_smallest_index():
    cover = EpsCover(centers=np.array([[0.0], [1.0]]), radius=0.5)
    np.testing.assert_array_equal(nearest_center_batch(cover, [[0.5], [0.25], [0.75]]),
                                  [0, 0, 1])


def test_nearest_center_batch_matches_linear_scan(rng):
    centers = rng.uniform(0, 1, (37, 3))
    cover = EpsCover(centers=centers, radius=0.3)
    X = rng.uniform(0, 1, (500, 3))
    got = nearest_center_batch(cover, X)
    expected = np.array([
        int(np.argmin(((centers - x) ** 2).sum(axis=1))) for x in X])
    np.testing.assert_array_equal(got, expected)


def test_min_pairwise_separation_single_center():
    assert min_pairwise_separation(EpsCover(centers=np.array([[0.0]]), radius=1.0)) == math.inf


# ---------------------------------------------------------------------------
# serialization


def test_cover_json_round_trip():
    cover = build_cover(Domain.unit_box(2), 0.3)
    data = json.loads(json.dumps(cover.to_json_dict()))
    assert set(data) >= {"radius", "centers"}
    back = EpsCover.from_json_dict(data)
    assert back.radius == cover.radius
    np.testing.assert_allclose(back.centers, cover.centers)


# ---------------------------------------------------------------------------
# properties


@given(st.integers(1, 4), st.floats(0.05, 2.0))
@settings(max_examples=40, deadline=None)
def test_grid_size_formula_matches_built_cover(p, radius):
    dom = Domain.unit_box(p)
    size = grid_cover_size(dom, radius)
    if size > 5000:
        return
    cover = build_cover(dom, radius, max_centers=5000)
    assert cover.size == size
    k = np.ceil(math.sqrt(p) / (2.0 * radius))
    assert size == int(max(k, 1)) ** p


@given(st.integers(0, 2 ** 31))
@settings(max_examples=20, deadline=None)
def test_grid_cover_radius_property(seed):
    r = np.random.default_rng(seed)
    p = int(r.integers(1, 4))
    radius = float(r.uniform(0.1, 0.8))
    dom = Domain.box(r.uniform(-2, 0, p), r.uniform(0.5, 2, p))
    cover = build_cover(dom, radius, max_centers=100_000)
    assert covering_radius_check(cover, dom, n_samples=5000, rng=r) <= radius + 1e-12
