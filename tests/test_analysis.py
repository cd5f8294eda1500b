import numpy as np
import pytest

from stokes2p import (
    PeriodicGrid,
    PhysParams,
    analytic_spectrum,
    decay_rate_fit,
    numeric_jacobian_at_zero,
)
from stokes2p.analysis import (
    DiagonalizationError,
    jacobian_action_at_zero,
)


class TestAnalyticSpectrum:
    def test_pure_tension_mode_one(self):
        rep = analytic_spectrum(PhysParams.from_theta(1.0, 1.0, 0.0), 4)
        assert rep.modes[0].lam_analytic == pytest.approx(-0.25)
        assert rep.regime == "stable"
        assert rep.theta0 == pytest.approx(0.25)

    def test_heavy_lower_fluid(self):
        rep = analytic_spectrum(PhysParams.from_theta(1.0, 1.0, 3.0), 2)
        assert rep.modes[0].lam_analytic == pytest.approx(-1.0)
        assert rep.theta0 == pytest.approx(np.sqrt(3.0) / 2.0)

    def test_unstable_regime(self):
        rep = analytic_spectrum(PhysParams.from_theta(1.0, 1.0, -2.0), 3)
        assert rep.regime == "unstable"
        assert rep.theta0 is None
        assert rep.modes[0].lam_analytic == pytest.approx(0.25)
        # higher modes are damped again
        assert rep.modes[1].lam_analytic < 0

    def test_k_max_validated(self):
        with pytest.raises(ValueError):
            analytic_spectrum(PhysParams.from_theta(1.0, 1.0, 0.0), 0)


class TestNumericJacobian:
    def test_matches_symbol_tightly(self):
        grid = PeriodicGrid(256)
        params = PhysParams.from_theta(1.0, 1.0, 0.0)
        rep = numeric_jacobian_at_zero(params, grid, 32)
        assert rep.worst_rel_error < 1e-7
        assert rep.leakage < 1e-8

    def test_sin_and_cos_probes_agree(self):
        grid = PeriodicGrid(128)
        params = PhysParams.from_theta(1.0, 1.0, 1.5)
        cos_rep = numeric_jacobian_at_zero(params, grid, 6, probe="cos")
        sin_rep = numeric_jacobian_at_zero(params, grid, 6, probe="sin")
        for a, b in zip(cos_rep.modes, sin_rep.modes):
            assert abs(a.lam_numeric - b.lam_numeric) < 1e-9

    def test_constant_direction_is_null(self):
        grid = PeriodicGrid(64)
        params = PhysParams.from_theta(1.0, 1.0, 2.0)
        resp = jacobian_action_at_zero(params, grid, np.ones(64))
        assert np.max(np.abs(resp)) < 1e-10

    def test_leakage_diagnostic(self):
        grid = PeriodicGrid(64)
        params = PhysParams.from_theta(1.0, 1.0, 0.0)
        # an impossible tolerance must trip the multiplier-structure check
        with pytest.raises(DiagonalizationError):
            numeric_jacobian_at_zero(params, grid, 4, leakage_tol=1e-30)
        # a realistic one passes silently
        numeric_jacobian_at_zero(params, grid, 4, leakage_tol=1e-8)

    def test_k_max_limited(self):
        grid = PeriodicGrid(64)
        with pytest.raises(ValueError):
            numeric_jacobian_at_zero(PhysParams.from_theta(1.0, 1.0, 0.0), grid, 20)


def synthetic_snapshots(rate, n=200, t_end=8.0, a0=1e-5, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, t_end, n)
    recs = []
    for t in times:
        amp = a0 * np.exp(-rate * t) * (1.0 + noise * rng.normal())
        values = amp * np.cos(2 * np.pi * np.arange(16) / 16)
        recs.append({"t": float(t), "mean": 0.0, "linf": abs(amp),
                     "l2": abs(amp) / np.sqrt(2), "values": list(values)})
    return recs


class TestRateFit:
    def test_recovers_exact_rate(self):
        fit = decay_rate_fit(synthetic_snapshots(0.25))
        assert fit.reliable
        assert fit.rate == pytest.approx(0.25, rel=1e-10)

    def test_mode_amplitude_kind(self):
        fit = decay_rate_fit(synthetic_snapshots(0.4), kind=("mode", 1))
        assert fit.rate == pytest.approx(0.4, rel=1e-9)

    def test_growth_gives_negative_rate(self):
        fit = decay_rate_fit(synthetic_snapshots(-0.25, a0=1e-8),
                             amp_window=(1e-9, 1e-4))
        assert fit.reliable
        assert fit.rate == pytest.approx(-0.25, rel=1e-9)

    def test_zero_data_flags_unreliable(self):
        recs = synthetic_snapshots(0.25, a0=0.0)
        fit = decay_rate_fit(recs)
        assert not fit.reliable
        assert fit.rate is None

    def test_too_few_snapshots(self):
        fit = decay_rate_fit(synthetic_snapshots(0.25, n=5))
        assert not fit.reliable

    def test_noisy_tail_flagged(self):
        fit = decay_rate_fit(synthetic_snapshots(0.25, noise=0.3, seed=1))
        assert not fit.reliable
