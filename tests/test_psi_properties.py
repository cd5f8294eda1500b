"""Property tests of the evolution operator Psi on random band-limited
profiles: mean-freeness, vertical-shift invariance, agreement with the
direct velocity trace, x-translation equivariance, reflection symmetry,
oddness under f -> -f and energy dissipation."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from stokes2p import InterfaceProfile, PeriodicGrid, PhysParams, eval_Psi  # noqa: E402
from stokes2p.core import geometry_quantities  # noqa: E402
from stokes2p.fields import trace_velocity  # noqa: E402


@st.composite
def psi_inputs(draw):
    """A random band-limited profile on N in {32, 64, 128}, with mode k of
    size exp(-k) so that it is resolved on every grid, plus parameters.

    Mean-freeness and vertical-shift invariance are continuum identities
    that the discrete Psi meets to truncation error: on slowly decaying
    profiles they fail at the 1e-3 level on these grids."""
    grid = PeriodicGrid(draw(st.sampled_from([32, 64, 128])))
    modes = draw(st.integers(1, grid.n_points // 4))
    amplitude = draw(st.floats(0.01, 0.5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.zeros(grid.n_points)
    for k in range(1, modes + 1):
        values += amplitude * np.exp(-k) * (rng.normal() * np.cos(k * grid.nodes)
                                            + rng.normal() * np.sin(k * grid.nodes))
    params = PhysParams.from_theta(draw(st.floats(0.5, 2.0)), draw(st.floats(0.2, 2.0)),
                                   draw(st.floats(-2.0, 3.0)))
    return InterfaceProfile(grid, values + draw(st.floats(-1.0, 1.0))), params


def _scale(psi):
    return 1.0 + np.max(np.abs(psi))


class TestPsiProperties:
    @settings(max_examples=15, deadline=None)
    @given(psi_inputs())
    def test_mean_free(self, case):
        f, params = case
        psi = eval_Psi(f, params)
        assert abs(np.mean(psi)) < 1e-12 * _scale(psi)

    @settings(max_examples=15, deadline=None)
    @given(psi_inputs(), st.floats(-2.0, 2.0))
    def test_vertical_shift_invariance(self, case, shift):
        f, params = case
        psi = eval_Psi(f, params)
        shifted = eval_Psi(InterfaceProfile(f.grid, f.values + shift), params)
        assert np.max(np.abs(shifted - psi)) < 1e-9 * _scale(psi)

    @settings(max_examples=15, deadline=None)
    @given(psi_inputs(), st.floats(-2.0, 2.0))
    def test_direct_trace_assembles_psi(self, case, shift):
        # Psi codes buoyancy directly and surface tension by parts, so its
        # buoyancy part Psi(theta) - Psi(0) is -f' v1 + v2 on the same part
        # of the direct trace (to the truncation error of f f' against
        # (f^2/2)'): the log part of that trace carries the profile's mean.
        # The trace does not see a vertical shift either.
        f, params = case
        calm = PhysParams.from_theta(params.mu, params.sigma, 0.0)
        psi = eval_Psi(f, params) - eval_Psi(f, calm)
        trace = trace_velocity(f, params, "direct-g")
        v1, v2 = trace - trace_velocity(f, calm, "direct-g")
        assert np.max(np.abs(-f.deriv_values * v1 + v2 - psi)) < 1e-9 * _scale(trace)
        shifted = trace_velocity(InterfaceProfile(f.grid, f.values + shift), params, "direct-g")
        assert np.max(np.abs(shifted - trace)) < 1e-9 * _scale(trace)

    @settings(max_examples=15, deadline=None)
    @given(psi_inputs(), st.integers(1, 127))
    def test_translation_equivariance(self, case, shift):
        f, params = case
        psi = eval_Psi(f, params)
        rolled = eval_Psi(InterfaceProfile(f.grid, np.roll(f.values, shift)), params)
        assert np.max(np.abs(rolled - np.roll(psi, shift))) < 1e-12 * _scale(psi)

    @settings(max_examples=15, deadline=None)
    @given(psi_inputs())
    def test_reflection_symmetry(self, case):
        # f(-x) moves with Psi(f)(-x)
        f, params = case
        psi = eval_Psi(f, params)
        mirror = np.roll(f.values[::-1], 1)
        reflected = eval_Psi(InterfaceProfile(f.grid, mirror), params)
        assert np.max(np.abs(reflected - np.roll(psi[::-1], 1))) < 1e-12 * _scale(psi)

    @settings(max_examples=15, deadline=None)
    @given(psi_inputs())
    def test_odd_in_the_profile(self, case):
        # f -> -f mirrors the interface in x2 = 0, and Psi(-f) = -Psi(f)
        # holds exactly: every step of Psi is odd or even in f bit for bit
        f, params = case
        psi = eval_Psi(f, params)
        flipped = eval_Psi(InterfaceProfile(f.grid, -f.values), params)
        assert np.array_equal(flipped, -psi)


def _forcing(f, params):
    """g = theta (f - mean f) - sigma kappa: the energy's first variation, so
    that the energy changes at the rate <g, Psi(f)>."""
    return params.theta * (f.values - f.mean) - params.sigma * geometry_quantities(f).curvature


class TestEnergyDissipation:
    @settings(max_examples=30, deadline=None)
    @given(psi_inputs())
    def test_energy_decreases(self, case):
        # the flow dissipates the energy, whatever the sign of theta: the
        # cosine of g and Psi was at most -0.82 over 300 draws
        f, params = case
        g, psi = _forcing(f, params), eval_Psi(f, params)
        assert np.mean(g * psi) < 0.0

    def test_flat_limit(self):
        # to first order Psi(f)^_k = -g^_k / (4 mu |k|), so the rate is
        # -2 pi sum_k |g^_k|^2 / (4 mu |k|) up to a relative O(a^2)
        grid = PeriodicGrid(64)
        params = PhysParams.from_theta(1.3, 0.7, 0.5)
        k = np.abs(grid.wavenumbers)
        errors = []
        for a in (1e-1, 1e-2, 1e-3):
            f = InterfaceProfile(grid, a * (np.cos(grid.nodes) + 0.3 * np.sin(2 * grid.nodes)))
            g = _forcing(f, params)
            rate = 2.0 * np.pi * np.mean(g * eval_Psi(f, params))
            c = np.fft.fft(g)[1:] / grid.n_points
            flat = -2.0 * np.pi * np.sum(np.abs(c) ** 2 / (4.0 * params.mu * k[1:]))
            errors.append(rate / flat - 1.0)
            assert abs(errors[-1]) < 0.1 * a**2
        assert 80.0 < errors[0] / errors[1] < 120.0 and 80.0 < errors[1] / errors[2] < 120.0
