"""The series rule of the bulk fields: at points clear of the interface
strip the layer integrals are exact geometric series, which must give the
sums of the dense trapezoid rule (``oracles.trapezoid_layers``) to roundoff,
on any profile, on both sides and at the routing threshold itself."""

import tracemalloc

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from stokes2p import (InterfaceProfile, PeriodicGrid, PhysParams, ProximityError,  # noqa: E402
                      eval_Z, far_field_residuals, pressure_field, sample_flow,
                      velocity_field, velocity_gradient_field)
from stokes2p import fields, layer_series  # noqa: E402
from stokes2p.evolution import forcing_G  # noqa: E402
from oracles import band_limited, trapezoid_layers  # noqa: E402

PARAMS = PhysParams.from_theta(mu=1.3, sigma=0.7, theta=1.5)


def strip_range(f):
    """The lowest and highest of the samples of f that the routing reads:
    the distance search's and the trapezoid rule's."""
    heights = np.concatenate([f.uniform_samples(max(8 * f.grid.n_points, 1024)),
                              f.uniform_samples(max(f.grid.n_points, 256))])
    return np.min(heights), np.max(heights)


def threshold_heights(f):
    """The heights closest to the strip that still take the series rule,
    above and below it: the routing threshold to the last bit."""
    bottom, top = strip_range(f)
    gap = fields.default_collar(f)
    above, below = top + gap, bottom - gap
    while above - top < gap:
        above = np.nextafter(above, np.inf)
    while bottom - below < gap:
        below = np.nextafter(below, -np.inf)
    return above, below


def n_terms(f):
    """K + 1, the terms of the series: a side takes it when it holds more
    points than that."""
    return len(layer_series._terms(fields.default_collar(f)))


def profile(n, seed, amplitude, nyquist):
    """A random profile on N = n whose spectrum reaches the Nyquist mode."""
    grid = PeriodicGrid(n)
    values = band_limited(grid, seed, modes=n // 2 - 1, amplitude=amplitude)
    return InterfaceProfile(grid, values + nyquist * np.cos(n // 2 * grid.nodes))


@st.composite
def series_inputs(draw):
    """A profile with a Nyquist mode, a density with one, and K + 2 points
    above the strip and as many below it, so that the series serves both
    sides: two at the threshold, two 800 collars past it and the others up
    to 40 collars past it."""
    n = draw(st.sampled_from([32, 64, 200, 256, 512]))
    seed = draw(st.integers(0, 2**16))
    f = profile(n, seed, draw(st.floats(0.05, 1.0)), draw(st.floats(-0.3, 0.3)))
    density = profile(n, seed + 1, 1.0, 0.2).values + draw(st.floats(-1.0, 1.0))
    rng = np.random.default_rng(seed)
    above, below = threshold_heights(f)
    gaps = fields.default_collar(f) * np.concatenate(
        [[0.0], rng.uniform(0.0, 40.0, n_terms(f)), [800.0]])
    x2 = np.concatenate([above + gaps, below - gaps])
    return f, density, np.column_stack([rng.uniform(-1.0, 7.5, len(x2)), x2])


def assert_matches_oracle(got, want, pts, scale):
    """|got - want| <= 1e-14 (1 + |x2|) scale at each point."""
    bound = 1e-14 * (1.0 + np.abs(pts[:, 1])) * scale
    err = np.abs(np.asarray(got) - np.asarray(want)).reshape(len(pts), -1)
    assert np.all(err.max(axis=1) <= bound)


class TestAgainstTheTrapezoidRule:
    @settings(max_examples=25, deadline=None)
    @given(series_inputs())
    def test_layer_integrals_and_flow(self, inputs):
        f, density, pts = inputs
        assert np.all(fields._collar_search(f, pts, fields.default_collar(f))[0] != 0)
        B = trapezoid_layers(f, pts)
        for index in range(7):
            got = eval_Z(index, f, density, pts)
            assert_matches_oracle(got, B(index, density)[0], pts, np.max(np.abs(density)))
            assert np.array_equal(got, eval_Z(index, f, density, pts))
        G = forcing_G(f, PARAMS)
        scale = max(np.max(np.abs(G.g1)), np.max(np.abs(G.g2)))
        for evaluate, assemble in (
                (velocity_field, lambda: fields._bulk_velocity(B, G, PARAMS.mu)),
                (pressure_field, lambda: fields._bulk_pressure(B, G)),
                (velocity_gradient_field, lambda: fields._bulk_gradient(B, G, PARAMS.mu))):
            got = evaluate(f, PARAMS, pts)
            assert_matches_oracle(got, assemble(), pts, scale)
            assert np.array_equal(got, evaluate(f, PARAMS, pts))

    @pytest.mark.parametrize("n", [32, 200, 512])
    def test_either_side_of_the_threshold(self, n):
        # the last heights that take the series, and the first that take
        # the trapezoid rule, one bit closer to the strip; K + 1 more points
        # on each side, 1 to 40 collars past it, let the series serve both
        f = profile(n, n, 0.4, 0.2)
        density = profile(n, n + 1, 1.0, 0.2).values
        above, below = threshold_heights(f)
        collar = fields.default_collar(f)
        gaps = collar * np.random.default_rng(n).uniform(1.0, 40.0, n_terms(f))
        x2 = np.concatenate([[above, below, np.nextafter(above, 0.0), np.nextafter(below, 0.0)],
                             above + gaps, below - gaps])
        pts = np.column_stack([np.linspace(0.4, 5.9, len(x2)), x2])
        assert list(fields._collar_search(f, pts[:4], collar)[0]) == [1, -1, 0, 0]
        assert np.all(fields.min_interface_distance(f, pts) >= collar)
        B = trapezoid_layers(f, pts)
        for index in range(7):
            assert_matches_oracle(eval_Z(index, f, density, pts), B(index, density)[0], pts,
                                  np.max(np.abs(density)))

    def test_proximity_decided_as_by_the_search(self):
        # points at every height through the strip and past it: the call
        # refuses exactly the point sets that hold a point the search puts
        # inside the collar, whatever collar is asked for
        f = profile(64, 3, 0.6, 0.2)
        density = np.cos(f.grid.nodes)
        bottom, top = strip_range(f)
        default = fields.default_collar(f)
        rng = np.random.default_rng(7)
        x2 = np.linspace(bottom - 3.0 * default, top + 3.0 * default, 400)
        pts = np.column_stack([rng.uniform(0.0, 2.0 * np.pi, len(x2)), x2])
        dist = fields.min_interface_distance(f, pts)
        for collar in (0.5 * default, default, 2.5 * default):
            for i in range(len(pts)):
                if dist[i] < collar:
                    with pytest.raises(ProximityError):
                        eval_Z(1, f, density, pts[i:i + 1], collar=collar)
                else:
                    eval_Z(1, f, density, pts[i:i + 1], collar=collar)


@pytest.fixture
def series_calls(monkeypatch):
    """The coefficient builds (density values) and the products (block,
    side, lead, coefficient id) of the series rule while the test runs: a
    block's rule is (samples, product), product(lead, coefficients)."""
    builds, products = [], []
    build, rule = fields._Series._build, fields._Series.rule
    monkeypatch.setattr(fields._Series, "_build",
                        lambda self, values: builds.append(values.copy()) or build(self, values))

    def spy(self, pts, sg):
        block = object()
        samples, product = rule(self, pts, sg)

        def counted(lead, c):
            products.append((block, sg, lead, id(c)))
            return product(lead, c)

        return samples, counted

    monkeypatch.setattr(fields._Series, "rule", spy)
    return builds, products


class TestSeriesWork:
    @pytest.fixture
    def far(self):
        """A profile with K + 1 = 44 terms and 120 points clear of its strip,
        above and below it in turn."""
        grid = PeriodicGrid(64)
        f = InterfaceProfile(grid, 0.2 * np.cos(grid.nodes) + 0.1 * np.sin(2 * grid.nodes))
        rng = np.random.default_rng(11)
        side = np.where(np.arange(120) % 2, 1.0, -1.0)
        return f, np.column_stack([rng.uniform(0.0, 6.0, 120), side * rng.uniform(1.5, 4.0, 120)])

    def test_coefficients_built_once_per_density_per_call(self, far, series_calls,
                                                          monkeypatch):
        # six blocks of at most 24 points, three a side; no layer table is
        # built at all
        from stokes2p import operators

        f, pts = far
        builds, products = series_calls
        monkeypatch.setattr(fields, "_EVAL_BLOCK", 24 * 256)
        assert len(list(fields._point_blocks(f, pts, np.empty((0, f.grid.n_points))))) == 6
        G = forcing_G(f, PARAMS)
        monkeypatch.setattr(operators._LayerTables, "__init__",
                            lambda *args, **kw: pytest.fail("a layer table was built"))
        sample_flow(f, PARAMS, pts)
        assert len(builds) == 2
        assert np.array_equal(builds[0], G.g1) and np.array_equal(builds[1], G.g2)

    def test_one_product_per_lead_and_density_per_block(self, far, series_calls, monkeypatch):
        # the velocity reads leads 0 and 5, the pressure lead 1, each for g1
        # and g2, in each of six blocks, three a side
        f, pts = far
        builds, products = series_calls
        monkeypatch.setattr(fields, "_EVAL_BLOCK", 24 * 256)
        sample_flow(f, PARAMS, pts)
        assert len(products) == len(set(products)) == 6 * 3 * 2
        blocks = {(block, sg) for block, sg, _, _ in products}
        assert sorted(sg for _, sg in blocks) == [-1.0] * 3 + [1.0] * 3
        for block, sg in blocks:
            leads = sorted(lead for b, s, lead, _ in products if (b, s) == (block, sg))
            assert leads == [0, 0, 1, 1, 5, 5]

    def test_gradient_products(self, far, series_calls):
        # Z1/Z2 and Z3/Z4 share their products
        f, pts = far
        builds, products = series_calls
        velocity_gradient_field(f, PARAMS, pts)
        assert sorted(lead for _, _, lead, _ in products) == [1] * 4 + [3] * 4
        assert len(builds) == 2

    def test_far_points_need_no_search(self, far, monkeypatch):
        f, pts = far
        monkeypatch.setattr(fields, "_closest_samples", lambda *args: pytest.fail("searched"))
        sample_flow(f, PARAMS, pts)

    @pytest.mark.parametrize("options", [{"near": True}, {"collar": 0.0}])
    def test_series_without_a_partial_search(self, far, series_calls, options):
        # the sides are found when the search takes every point or none
        f, pts = far
        builds, products = series_calls
        eval_Z(1, f, np.cos(f.grid.nodes), pts, **options)
        assert len(builds) == 1

    def test_a_side_of_k_plus_one_points_takes_the_tables(self, far, series_calls):
        # its coefficients would cost (K + 1) m entries a density, its table
        # m a point: one more point above the strip, and that side alone
        # takes the series
        f, pts = far
        builds, products = series_calls
        above, below = pts[pts[:, 1] > 0], pts[pts[:, 1] < 0]
        k1 = n_terms(f)
        sample_flow(f, PARAMS, np.concatenate([above[:k1], below[:k1]]))
        assert builds == [] and products == []
        sample_flow(f, PARAMS, np.concatenate([above[:k1 + 1], below[:k1]]))
        assert len(builds) == 2 and {sg for _, sg, _, _ in products} == {1.0}

    def test_far_field_probes_take_the_tables_without_a_search(self, far, series_calls,
                                                               monkeypatch):
        # 16 probes against K + 1 = 44 terms, at any N: no coefficients
        f, pts = far
        builds, products = series_calls
        monkeypatch.setattr(fields, "_closest_samples", lambda *args: pytest.fail("searched"))
        monkeypatch.setattr(fields, "min_interface_distance",
                            lambda *args: pytest.fail("searched"))
        far_field_residuals(f, PARAMS)
        assert builds == []

    @pytest.mark.parametrize("rows", [1, 2, "one left"])
    def test_slabs_of_any_height(self, far, monkeypatch, rows):
        # the coefficients in slabs of one row each, of two, and of 43 with
        # one row left for the last: each slab continues the last one's powers
        f, pts = far
        k1 = n_terms(f)
        rows = next(h for h in range(2, k1) if k1 % h == 1) if rows == "one left" else rows
        monkeypatch.setattr(layer_series, "_EVAL_BLOCK", rows * 256)
        density = profile(64, 5, 1.0, 0.2).values
        B = trapezoid_layers(f, pts)
        for index in range(7):
            assert_matches_oracle(eval_Z(index, f, density, pts), B(index, density)[0], pts,
                                  np.max(np.abs(density)))

    def test_peak_bounded(self):
        # the (terms, nodes) coefficients are built in slabs: unslabbed, they
        # would take 11 MB at N = 1024
        grid = PeriodicGrid(1024)
        f = InterfaceProfile(grid, 0.2 * np.cos(grid.nodes) + 0.1 * np.sin(2 * grid.nodes))
        rng = np.random.default_rng(3)
        side = np.where(rng.uniform(size=4000) < 0.5, 1.0, -1.0)
        pts = np.column_stack([rng.uniform(0.0, 6.0, 4000), side * rng.uniform(1.0, 3.0, 4000)])
        sample_flow(f, PARAMS, pts[:10])
        tracemalloc.start()
        try:
            sample_flow(f, PARAMS, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.0 * 2**20
