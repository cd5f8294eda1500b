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
from stokes2p.core import _samples


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

    @pytest.mark.parametrize("n", [8.5, np.float64(33.9), 64.25, np.nan, np.inf])
    def test_rejects_non_integral_sizes(self, n):
        # not truncated to a grid of another size
        with pytest.raises(ValueError, match="must be an integer"):
            PeriodicGrid(n)

    @pytest.mark.parametrize("n", [64.0, np.float64(64.0), np.int32(64)])
    def test_integral_sizes_of_any_type_accepted(self, n):
        assert PeriodicGrid(n) == PeriodicGrid(64)


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


class TestProfile:
    @pytest.mark.parametrize("shape", [(15,), (17,), (2, 16), (), (16, 1)])
    def test_values_of_the_wrong_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="does not match grid size 16"):
            InterfaceProfile(PeriodicGrid(16), np.zeros(shape))


def with_nyquist(grid, seed, rows=1):
    """Random values whose spectra reach the Nyquist mode, (rows, N)."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=(rows, grid.n_points)) + np.cos(grid.n_points // 2 * grid.nodes)


def one_profile_samples(values, m):
    """The interpolant of one row of values at m uniform targets, or at the
    half grid for m None, coded from the profile's own coefficients: one
    zero-padded inverse FFT that splits the Nyquist coefficient, or the
    half-spacing shift multiplier."""
    f = InterfaceProfile(PeriodicGrid(len(values)), values)
    n, c = len(values), f.coeffs
    if m is None:
        shift = np.exp(1j * f.grid.wavenumbers * (f.grid.spacing / 2))
        return np.fft.ifft(np.fft.fft(f.values) * shift).real
    if m == n:
        return f.values
    padded, h = np.zeros(m, dtype=complex), n // 2
    padded[:h], padded[m - h + 1:] = c[:h], c[h + 1:]
    padded[h] = padded[m - h] = c[h] / 2.0
    return np.fft.ifft(padded, norm="forward").real


class TestSamples:
    @pytest.mark.parametrize("n", [8, 64, 200])
    @pytest.mark.parametrize("factor", [None, 1, 2, 8])
    def test_stack_rows_match_single_rows_bitwise(self, n, factor):
        # a stack of densities is sampled as one FFT along its rows, and
        # each row keeps the bits it has alone
        grid = PeriodicGrid(n)
        m = None if factor is None else factor * n
        stack = with_nyquist(grid, n, rows=11)
        samples, coeffs = _samples(stack, m)
        assert samples.shape == (11, n if m is None else m)
        if m == n:      # the values themselves, no FFT taken
            assert samples is stack and coeffs is None
            coeffs = [None] * len(stack)
        for row, got, c in zip(stack, samples, coeffs):
            alone, alone_c = _samples(row, m)
            assert np.array_equal(got, alone) and np.array_equal(got, one_profile_samples(row, m))
            if c is not None:
                assert np.array_equal(c, alone_c) and np.array_equal(c, np.fft.fft(row))

    @pytest.mark.parametrize("n", [8, 64, 200])
    @pytest.mark.parametrize("factor", [1, 2, 8])
    def test_kept_uniform_samples_are_fresh_ones(self, n, factor):
        grid = PeriodicGrid(n)
        f = InterfaceProfile(grid, with_nyquist(grid, n)[0])
        kept = f.uniform_samples(factor * n)
        assert np.array_equal(kept, _samples(f.values.copy(), factor * n)[0])
        assert f.uniform_samples(factor * n) is kept
        # read-only, as the values they came from
        assert not kept.flags.writeable and not f.values.flags.writeable
        with pytest.raises(ValueError):
            kept[0] = 0.0

    @pytest.mark.parametrize("m", [32, 63, 0])
    def test_fewer_targets_than_nodes_rejected(self, m):
        # a padded spectrum needs m >= N; fewer would alias silently
        f = InterfaceProfile(PeriodicGrid(64), np.cos(PeriodicGrid(64).nodes))
        with pytest.raises(ValueError, match="m >= N = 64"):
            f.uniform_samples(m)

    def test_half_shift_samples_are_the_half_grid_samples(self):
        grid = PeriodicGrid(64)
        f = InterfaceProfile(grid, with_nyquist(grid, 3)[0])
        assert np.array_equal(half_shift_samples(f), _samples(f.values)[0])


def full_spectrum(grid, seed):
    """A random profile with every mode active, up to the Nyquist one."""
    rng = np.random.default_rng(seed)
    k = np.arange(grid.n_points // 2 + 1)
    c = (rng.normal(size=len(k)) + 1j * rng.normal(size=len(k))) / (1.0 + k) ** 1.05
    return InterfaceProfile(grid, np.fft.irfft(c, grid.n_points) * grid.n_points)


class TestEvalAt:
    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_any_split_of_the_targets_is_bitwise(self, n):
        # 3000 targets are several blocks at every n; parts of two rows or
        # more, and the one dense product over all targets, give the same bits
        f = full_spectrum(PeriodicGrid(n), n)
        rng = np.random.default_rng(1)
        s = rng.uniform(-3.0, 9.0, 3000)
        whole = f.eval_at(s)
        k, c = f.grid.wavenumbers, f.coeffs
        keep = np.abs(c) > 1e-15 * np.max(np.abs(c))
        assert np.array_equal(whole, (np.exp(1j * np.outer(s, k[keep])) @ c[keep]).real)
        for _ in range(3):
            cuts = np.sort(rng.choice(np.arange(2, len(s) - 1, 2), 40, replace=False))
            parts = [f.eval_at(part) for part in np.split(s, cuts)]
            assert np.array_equal(np.concatenate(parts), whole)
        assert np.array_equal(np.concatenate([f.eval_at(p) for p in np.split(s, 1000)]), whole)

    def test_shapes(self):
        f = full_spectrum(PeriodicGrid(32), 2)
        s = np.linspace(0.0, 7.0, 12)
        assert np.shape(f.eval_at(1.5)) == ()
        assert f.eval_at(np.empty(0)).shape == (0,)
        assert np.array_equal(f.eval_at(s.reshape(3, 4)), f.eval_at(s).reshape(3, 4))
        assert np.max(np.abs(f.eval_at(f.grid.nodes[:3]) - f.values[:3])) < 1e-14
        assert np.array_equal(InterfaceProfile.zero(f.grid).eval_at(s), np.zeros(12))


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
