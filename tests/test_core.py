import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stokes2p
from stokes2p import (
    InterfaceProfile,
    PeriodicGrid,
    PhysParams,
    from_spectral,
    geometry_quantities,
    half_shift_samples,
    spectral_derivative,
    to_spectral,
)


def random_profile(grid, seed, amplitude=0.3, modes=None):
    rng = np.random.default_rng(seed)
    modes = modes or grid.n_points // 4
    values = np.zeros(grid.n_points)
    for k in range(1, modes + 1):
        decay = np.exp(-0.3 * k)
        values += amplitude * decay * (rng.normal() * np.cos(k * grid.nodes)
                                       + rng.normal() * np.sin(k * grid.nodes))
    return InterfaceProfile(grid, values)


class TestPeriodicGrid:
    def test_nodes_equispaced_from_zero(self):
        g = PeriodicGrid(16)
        assert g.nodes[0] == 0.0
        assert np.allclose(np.diff(g.nodes), g.spacing)
        assert np.all(np.diff(g.nodes) > 0)

    def test_shifted_nodes_interleave(self):
        g = PeriodicGrid(16)
        assert np.allclose(g.shifted_nodes, g.nodes + g.spacing / 2)

    @pytest.mark.parametrize("n", [7, 6, 9, 15, 0, -8])
    def test_rejects_bad_sizes(self, n):
        with pytest.raises(ValueError):
            PeriodicGrid(n)


class TestSpectral:
    def test_pure_cosine_coefficients(self):
        g = PeriodicGrid(16)
        c = to_spectral(InterfaceProfile(g, np.cos(g.nodes)))
        assert abs(c[1] - 0.5) < 1e-14
        assert abs(c[-1] - 0.5) < 1e-14
        c[1] = c[-1] = 0.0
        assert np.max(np.abs(c)) < 1e-14

    def test_constant_coefficients(self):
        g = PeriodicGrid(16)
        c = to_spectral(InterfaceProfile(g, np.ones(16)))
        assert abs(c[0] - 1.0) < 1e-14
        assert np.max(np.abs(c[1:])) < 1e-14

    def test_round_trip(self):
        g = PeriodicGrid(64)
        f = random_profile(g, 1)
        back = from_spectral(g, to_spectral(f))
        assert np.max(np.abs(back.values - f.values)) < 1e-12

    def test_conjugate_symmetry_and_mean(self):
        g = PeriodicGrid(32)
        f = random_profile(g, 2)
        c = f.coeffs
        for k in range(1, 16):
            assert abs(c[k] - np.conj(c[-k])) < 1e-14
        assert abs(f.mean - c[0].real) < 1e-14

    def test_parseval(self):
        g = PeriodicGrid(64)
        for seed in range(3):
            f = random_profile(g, seed)
            lhs = np.sum(np.abs(f.values) ** 2) / g.n_points
            rhs = np.sum(np.abs(f.coeffs) ** 2)
            assert abs(lhs - rhs) < 1e-12 * max(1.0, lhs)

    def test_rejects_nonfinite(self):
        g = PeriodicGrid(8)
        bad = np.zeros(8)
        bad[3] = np.nan
        with pytest.raises(ValueError):
            InterfaceProfile(g, bad)


class TestDerivative:
    def test_single_mode(self):
        g = PeriodicGrid(32)
        d = spectral_derivative(InterfaceProfile(g, np.sin(3 * g.nodes)))
        assert np.max(np.abs(d - 3 * np.cos(3 * g.nodes))) < 1e-12

    def test_constant(self):
        g = PeriodicGrid(32)
        d = spectral_derivative(InterfaceProfile(g, np.full(32, 2.5)))
        assert np.max(np.abs(d)) < 1e-14

    def test_mean_mode_annihilated(self):
        g = PeriodicGrid(32)
        f = random_profile(g, 3)
        assert abs(np.mean(spectral_derivative(f))) < 1e-13

    def test_against_central_differences(self):
        # smooth non-polynomial profile: finite differences converge at O(h^2)
        fn = lambda x: np.exp(np.cos(x))
        g = PeriodicGrid(64)
        d = spectral_derivative(InterfaceProfile(g, fn(g.nodes)))
        errs = []
        for h in (1e-3, 5e-4):
            fd = (fn(g.nodes + h) - fn(g.nodes - h)) / (2 * h)
            errs.append(np.max(np.abs(d - fd)))
        assert errs[0] < 1e-5
        assert errs[1] < errs[0] / 3.0   # ratio ~4 for O(h^2)


class TestHalfShift:
    def test_cosine(self):
        g = PeriodicGrid(8)
        shifted = half_shift_samples(InterfaceProfile(g, np.cos(g.nodes)))
        assert np.max(np.abs(shifted - np.cos(g.nodes + np.pi / 8))) < 1e-12

    def test_constant(self):
        g = PeriodicGrid(8)
        shifted = half_shift_samples(InterfaceProfile(g, np.full(8, 1.7)))
        assert np.max(np.abs(shifted - 1.7)) < 1e-14

    def test_trig_polynomial_matches_direct(self):
        g = PeriodicGrid(32)
        f = random_profile(g, 4, modes=8)
        direct = f.eval_at(g.shifted_nodes)
        assert np.max(np.abs(half_shift_samples(f) - direct)) < 1e-12

    def test_double_shift_is_rotation(self):
        g = PeriodicGrid(32)
        f = random_profile(g, 5, modes=8)
        once = InterfaceProfile(g, half_shift_samples(f))
        twice = half_shift_samples(once)
        assert np.max(np.abs(twice - np.roll(f.values, -1))) < 1e-12


class TestGeometry:
    def test_flat(self):
        g = PeriodicGrid(16)
        geo = geometry_quantities(InterfaceProfile.zero(g))
        assert np.allclose(geo.omega, 1.0)
        assert np.allclose(geo.normal[0], 0.0) and np.allclose(geo.normal[1], 1.0)
        assert np.allclose(geo.tangent[0], 1.0) and np.allclose(geo.tangent[1], 0.0)
        assert np.allclose(geo.curvature, 0.0)

    def test_small_cosine_curvature(self):
        g = PeriodicGrid(64)
        geo = geometry_quantities(InterfaceProfile(g, 0.1 * np.cos(g.nodes)))
        # at xi = 0: f' = 0, f'' = -0.1, so curvature = -0.1
        assert abs(geo.curvature[0] + 0.1) < 1e-12

    def test_unit_frames(self):
        g = PeriodicGrid(64)
        geo = geometry_quantities(random_profile(g, 6))
        assert np.max(np.abs(np.sum(geo.normal**2, axis=0) - 1.0)) < 1e-12
        assert np.max(np.abs(np.sum(geo.tangent**2, axis=0) - 1.0)) < 1e-12
        assert np.max(np.abs(np.sum(geo.normal * geo.tangent, axis=0))) < 1e-12
        assert np.all(geo.omega >= 1.0)


class TestPhysParams:
    def test_theta_derived(self):
        p = PhysParams(mu=1.0, sigma=1.0, g=9.81, rho_plus=2.0, rho_minus=1.0)
        assert p.theta == 9.81 * (1.0 - 2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            PhysParams(mu=0.0, sigma=1.0)
        with pytest.raises(ValueError):
            PhysParams(mu=1.0, sigma=0.0)
        with pytest.raises(ValueError):
            PhysParams(mu=1.0, sigma=1.0, g=-1.0)
        with pytest.raises(ValueError):
            PhysParams(mu=1.0, sigma=1.0, rho_plus=-0.1)

    @pytest.mark.parametrize("field", ["mu", "sigma", "g", "rho_plus", "rho_minus"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            PhysParams(**{"mu": 1.0, "sigma": 1.0, field: value})

    def test_regime(self):
        assert PhysParams.from_theta(1.0, 1.0, 0.0).regime == "stable"
        assert PhysParams.from_theta(1.0, 1.0, -2.0).regime == "unstable"
        assert PhysParams.from_theta(1.0, 1.0, -1.0).regime == "neutral"

    def test_decay_constant_branches(self):
        # sigma >= theta branch
        p = PhysParams.from_theta(mu=1.0, sigma=1.0, theta=0.5)
        assert abs(p.decay_constant - 1.5 / 4.0) < 1e-14
        # sigma < theta branch
        p = PhysParams.from_theta(mu=1.0, sigma=1.0, theta=3.0)
        assert abs(p.decay_constant - np.sqrt(3.0) / 2.0) < 1e-12
        assert PhysParams.from_theta(1.0, 1.0, -2.0).decay_constant is None

    def test_from_theta_round_trip(self):
        for theta in (2.0, -1.3, 0.0):
            assert abs(PhysParams.from_theta(1.0, 1.0, theta).theta - theta) < 1e-14


def test_import_does_not_load_scipy():
    # scipy is a test-only dependency: the package itself must not import it
    src = str(Path(stokes2p.__file__).resolve().parent.parent)
    code = (f"import sys; sys.path.insert(0, {src!r}); import stokes2p; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    assert done.stdout.strip() == "[]"
