import numpy as np
import pytest

from stokes2p import (
    BlowUpError,
    EvolutionState,
    InterfaceProfile,
    OperatorSpec,
    PeriodicGrid,
    PhysParams,
    StepperConfig,
    StepSizeError,
    dphi_of,
    eval_B,
    eval_B0,
    eval_Psi,
    far_field_constants,
    forcing_G,
    integrate,
    linear_multiplier,
    phi_of,
    step,
)
from stokes2p import evolution
from stokes2p.evolution import LN4, snapshot_record

from oracles import COMPOSITE_MEMBERS, band_limited


def random_profile(grid, seed, amplitude=0.25, modes=12):
    rng = np.random.default_rng(seed)
    values = np.zeros(grid.n_points)
    for k in range(1, modes + 1):
        values += amplitude * np.exp(-0.4 * k) * (
            rng.normal() * np.cos(k * grid.nodes) + rng.normal() * np.sin(k * grid.nodes))
    return InterfaceProfile(grid, values)


class TestPhi:
    def test_flat(self):
        g = PeriodicGrid(32)
        p1, p2 = phi_of(InterfaceProfile.zero(g))
        assert np.max(np.abs(p1)) < 1e-15 and np.max(np.abs(p2)) < 1e-15

    def test_unit_slope_node(self):
        # f = sin has slope 1 at xi = 0
        g = PeriodicGrid(64)
        p1, p2 = phi_of(InterfaceProfile(g, np.sin(g.nodes)))
        assert abs(p1[0] - (1 / np.sqrt(2) - 1)) < 1e-12
        assert abs(p2[0] - 1 / np.sqrt(2)) < 1e-12

    def test_algebraic_identity(self):
        g = PeriodicGrid(64)
        f = random_profile(g, 0)
        p1, p2 = phi_of(f)
        fp = f.deriv_values
        assert np.max(np.abs((1 + p1) ** 2 * (1 + fp**2) - 1.0)) < 1e-12
        assert np.all(p1 <= 0) and np.all(p1 > -1)
        assert np.all(np.abs(p2) < 1)

    def test_derivative_flat_base(self):
        g = PeriodicGrid(64)
        h = InterfaceProfile(g, np.sin(2 * g.nodes))
        d1, d2 = dphi_of(InterfaceProfile.zero(g), h)
        assert np.max(np.abs(d1)) < 1e-14
        assert np.max(np.abs(d2 - h.deriv_values)) < 1e-13

    def test_derivative_constant_direction(self):
        g = PeriodicGrid(64)
        f0 = random_profile(g, 1)
        d1, d2 = dphi_of(f0, InterfaceProfile(g, np.full(64, 2.0)))
        assert np.max(np.abs(d1)) < 1e-13 and np.max(np.abs(d2)) < 1e-13

    def test_derivative_matches_finite_differences(self):
        g = PeriodicGrid(64)
        f0 = random_profile(g, 2)
        h = InterfaceProfile(g, np.cos(3 * g.nodes))
        d1, d2 = dphi_of(f0, h)
        eps = 1e-6
        p1p, p2p = phi_of(InterfaceProfile(g, f0.values + eps * h.values))
        p1m, p2m = phi_of(InterfaceProfile(g, f0.values - eps * h.values))
        assert np.max(np.abs(d1 - (p1p - p1m) / (2 * eps))) < 1e-7
        assert np.max(np.abs(d2 - (p2p - p2m) / (2 * eps))) < 1e-7


class TestForcing:
    def test_flat(self):
        g = PeriodicGrid(32)
        params = PhysParams.from_theta(1.0, 1.0, 2.0)
        G = forcing_G(InterfaceProfile.zero(g), params)
        assert np.max(np.abs(G.g1)) < 1e-15 and np.max(np.abs(G.g2)) < 1e-15

    def test_buoyancy_part_is_explicit(self):
        # the buoyancy contribution is linear in theta: isolating it by
        # differencing two theta values gives theta*(-f f', f) exactly
        g = PeriodicGrid(64)
        f = InterfaceProfile(g, np.cos(g.nodes))
        params2 = PhysParams.from_theta(1.0, 1.0, 2.0)
        params0 = PhysParams.from_theta(1.0, 1.0, 0.0)
        G2, G0 = forcing_G(f, params2), forcing_G(f, params0)
        want1 = 2.0 * np.sin(g.nodes) * np.cos(g.nodes)
        want2 = 2.0 * np.cos(g.nodes)
        assert np.max(np.abs((G2.g1 - G0.g1) - want1)) < 1e-12
        assert np.max(np.abs((G2.g2 - G0.g2) - want2)) < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_g1_mean_free(self, seed):
        g = PeriodicGrid(128)
        params = PhysParams.from_theta(1.0, 1.5, -0.7)
        G = forcing_G(random_profile(g, seed), params)
        assert abs(np.mean(G.g1)) < 1e-12


class TestFarFieldConstants:
    def test_constant_profile(self):
        g = PeriodicGrid(32)
        params = PhysParams.from_theta(1.0, 1.0, 2.0)
        c = far_field_constants(InterfaceProfile(g, np.full(32, 0.5)), params)
        assert abs(c.c1) < 1e-14
        assert abs(c.c2 - (-2.0 * 0.5 / 2.0)) < 1e-14

    def test_mean_free_profile(self):
        g = PeriodicGrid(64)
        params = PhysParams.from_theta(1.0, 1.0, 2.0)
        c = far_field_constants(InterfaceProfile(g, 0.3 * np.cos(g.nodes)), params)
        assert abs(c.c2) < 1e-14

    def test_dual_formulas_agree(self):
        g = PeriodicGrid(128)
        params = PhysParams.from_theta(0.7, 1.2, 1.9)
        f = InterfaceProfile(g, 0.2 * np.cos(g.nodes) + 0.1 * np.sin(2 * g.nodes))
        assert far_field_constants(f, params).spread < 1e-10


class TestPsi:
    def test_zero_is_equilibrium(self):
        g = PeriodicGrid(64)
        params = PhysParams.from_theta(1.0, 1.0, 3.0)
        assert np.max(np.abs(eval_Psi(InterfaceProfile.zero(g), params))) < 1e-14

    def test_constants_are_equilibria(self):
        g = PeriodicGrid(64)
        params = PhysParams.from_theta(1.0, 1.0, 3.0)
        psi = eval_Psi(InterfaceProfile(g, np.full(64, 0.7)), params)
        assert np.max(np.abs(psi)) < 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_mean_free(self, seed):
        g = PeriodicGrid(128)
        params = PhysParams.from_theta(1.0, 1.0, -0.5)
        psi = eval_Psi(random_profile(g, seed), params)
        assert abs(np.mean(psi)) < 1e-10

    def test_vertical_shift_invariance(self):
        g = PeriodicGrid(128)
        params = PhysParams.from_theta(1.0, 1.0, 2.0)
        f = random_profile(g, 11)
        shifted = InterfaceProfile(g, f.values + 0.6)
        assert np.max(np.abs(eval_Psi(shifted, params) - eval_Psi(f, params))) < 1e-9

    def test_reflection_symmetry(self):
        # even profiles have even velocity
        g = PeriodicGrid(128)
        params = PhysParams.from_theta(1.0, 1.0, 1.0)
        f = InterfaceProfile(g, 0.2 * np.cos(g.nodes) + 0.05 * np.cos(3 * g.nodes))
        psi = eval_Psi(f, params)
        reflected = np.concatenate([[psi[0]], psi[:0:-1]])
        assert np.max(np.abs(psi - reflected)) < 1e-10

    def test_rotation_equivariance(self):
        g = PeriodicGrid(64)
        params = PhysParams.from_theta(1.0, 1.0, 1.0)
        f = random_profile(g, 3)
        shift = 9
        rolled = eval_Psi(InterfaceProfile(g, np.roll(f.values, shift)), params)
        assert np.max(np.abs(rolled - np.roll(eval_Psi(f, params), shift))) < 1e-12


def psi_from_composite_terms(f, params):
    """Psi assembled term by term from its 14 composite applications: the
    composites 1..6 as sums of tangent-family members, composite 0 as the
    spectral log part plus its bounded remainder."""
    def B(index, density):
        if index == 0:
            return eval_B0(f, density)
        return sum(coef * eval_B(OperatorSpec.diagonal(n, m, p, q, f), density)
                   for coef, (n, m, p, q) in COMPOSITE_MEMBERS[index])

    fv, fp = f.values, f.deriv_values
    phi1, phi2 = phi_of(f)
    ffp = fv * fp
    d_a, d_b = phi1 - fp * phi2, fp * phi1
    psi1 = B(1, d_a) - 2.0 * B(4, d_a) + 2.0 * B(2, d_b) + B(3, d_b) + B(3, phi2)
    psi2 = B(1, phi2 - fp * phi1) + B(3, d_a) + 2.0 * B(4, d_b + phi2)
    psi3 = B(0, ffp) + B(6, ffp) + B(5, fv)
    psi4 = B(0, fv) - B(6, fv) + B(5, ffp)
    sigma, theta, mu = params.sigma, params.theta, params.mu
    return (sigma / (4.0 * mu)) * (fp * psi1 - psi2) \
        + (theta / (4.0 * mu)) * (fp * psi3 + psi4) + (theta * LN4 / (4.0 * mu)) * f.mean


class TestPsiAgainstCompositeTerms:
    @pytest.mark.parametrize("n_points", [64, 128, 512])
    def test_matches_term_by_term_assembly(self, n_points):
        grid = PeriodicGrid(n_points)
        f = InterfaceProfile(grid, band_limited(grid, 40 + n_points, modes=16, amplitude=0.3)
                             + 0.2)
        params = PhysParams.from_theta(0.8, 1.3, 1.7)
        want = psi_from_composite_terms(f, params)
        got = eval_Psi(f, params)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_each_kernel_built_once(self, monkeypatch):
        # the 14 terms come grouped by composite index, so one eval_Psi builds
        # the log remainder, the (3, 4) table and the (5, 6) table once each;
        # Z1 and Z2 are the parts of D, built with the tables
        from stokes2p import operators

        built = []
        build = operators._LayerTables._build
        monkeypatch.setattr(operators._LayerTables, "_build",
                            lambda self, lead: built.append(lead) or build(self, lead))
        grid = PeriodicGrid(32)
        eval_Psi(random_profile(grid, 6), PhysParams.from_theta(1.0, 1.0, 1.0))
        assert sorted(built) == [0, 3, 5]

    def test_each_product_taken_once(self, monkeypatch):
        # the 14 terms take 11 table products: Z4 on a and Z6 on both
        # forcings are the other parts of products already taken
        from stokes2p import operators

        taken = []
        part = operators._LayerTables.part
        monkeypatch.setattr(operators._LayerTables, "part",
                            lambda self, index: taken.append(index) or part(self, index))
        grid = PeriodicGrid(32)
        eval_Psi(random_profile(grid, 6), PhysParams.from_theta(1.0, 1.0, 1.0))
        assert sorted(taken) == [0, 0, 1, 1, 2, 3, 3, 3, 4, 5, 5]

    def test_warm_call_allocates_no_table(self):
        # the (N, N) layer tables of a warm call live in the working set the
        # previous call released, so the call itself allocates only N-vectors
        import tracemalloc

        from stokes2p import operators

        n = 256
        grid = PeriodicGrid(n)
        f, params = random_profile(grid, 8), PhysParams.from_theta(1.0, 1.0, 1.0)
        eval_Psi(f, params)
        idle = dict(operators._TABLE_POOL._idle)
        tracemalloc.start()
        try:
            eval_Psi(f, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n
        assert all(operators._TABLE_POOL._idle[k] is t for k, t in idle.items())


class TestKinematicAssembly:
    def test_psi_equals_trace_combination(self):
        # the evolution operator must reproduce the kinematic condition
        # assembled from the interface velocity trace computed in the
        # layer-potential module: df/dt = -f' v1 + v2 (+ mean term)
        from stokes2p import trace_velocity
        from stokes2p.evolution import LN4

        g = PeriodicGrid(128)
        for theta in (0.0, 1.5):
            params = PhysParams.from_theta(1.0, 1.0, theta)
            f = random_profile(g, 21, amplitude=0.15, modes=6)
            tv = trace_velocity(f, params, "direct-g")
            kinematic = -f.deriv_values * tv[0] + tv[1] \
                + params.theta * f.mean * LN4 / (4.0 * params.mu)
            psi = eval_Psi(f, params)
            assert np.max(np.abs(psi - kinematic)) < 1e-10


class TestLinearMultiplier:
    def test_symbol_values(self):
        g = PeriodicGrid(16)
        params = PhysParams.from_theta(2.0, 1.0, 3.0)
        lam = linear_multiplier(g, params)
        assert lam[0] == 0.0
        assert abs(lam[1] - (-(1.0 + 3.0) / (4 * 2.0))) < 1e-14
        assert abs(lam[2] - (-(4.0 + 3.0) / (8 * 2.0))) < 1e-14
        assert abs(lam[-1] - lam[1]) < 1e-14


class TestStepping:
    def test_zero_fixed_point(self):
        g = PeriodicGrid(32)
        params = PhysParams.from_theta(1.0, 1.0, 0.0)
        state = EvolutionState(0.0, InterfaceProfile.zero(g), params)
        out = step(state, StepperConfig(scheme="exp-euler", dt=0.01))
        assert np.max(np.abs(out.profile.values)) < 1e-15
        assert out.time == pytest.approx(0.01)

    @pytest.mark.parametrize("scheme", ["exp-euler", "rk4-explicit"])
    def test_linear_decay_of_single_mode(self, scheme):
        # amplitude of a tiny cosine contracts like exp(-t/4)
        g = PeriodicGrid(32)
        params = PhysParams.from_theta(1.0, 1.0, 0.0)
        state = EvolutionState(0.0, InterfaceProfile(g, 1e-6 * np.cos(g.nodes)), params)
        config = StepperConfig(scheme=scheme, dt=0.005, t_end=1.0)
        state = integrate(state, config)
        amp = 2 * np.abs(np.fft.fft(state.profile.values))[1] / g.n_points
        assert amp / 1e-6 == pytest.approx(np.exp(-0.25), rel=3e-3)

    def test_mean_preserved_many_steps(self):
        g = PeriodicGrid(32)
        params = PhysParams.from_theta(1.0, 1.0, 1.0)
        f = InterfaceProfile(g, 0.05 * np.cos(g.nodes) + 0.2)
        state = EvolutionState(0.0, f, params)
        config = StepperConfig(scheme="exp-euler", dt=0.002, t_end=2.0)
        state = integrate(state, config)
        assert state.step_count == 1000
        assert abs(state.profile.mean - 0.2) < 1e-9

    def test_exp_euler_rk4_consistency_first_order(self):
        g = PeriodicGrid(32)
        params = PhysParams.from_theta(1.0, 1.0, 0.5)
        f = random_profile(g, 4, amplitude=0.1)
        diffs = []
        for dt in (0.02, 0.01):
            a = integrate(EvolutionState(0.0, f, params),
                          StepperConfig(scheme="exp-euler", dt=dt, t_end=0.4))
            b = integrate(EvolutionState(0.0, f, params),
                          StepperConfig(scheme="rk4-explicit", dt=dt, t_end=0.4))
            diffs.append(np.max(np.abs(a.profile.values - b.profile.values)))
        ratio = diffs[0] / diffs[1]
        assert 1.5 < ratio < 3.0   # schemes differ at the lower (first) order

    def test_stable_small_data_envelope_decreasing(self):
        # multi-mode small data: after a short transient the amplitude
        # envelope decreases monotonically
        g = PeriodicGrid(64)
        params = PhysParams.from_theta(1.0, 1.0, 0.5)
        f = random_profile(g, 8, amplitude=1e-4, modes=6)
        records = []
        integrate(EvolutionState(0.0, f, params),
                  StepperConfig(scheme="exp-euler", dt=0.02, t_end=6.0),
                  sink=records.append)
        linf = np.array([r["linf"] for r in records])
        tail = linf[len(linf) // 5:]
        assert np.all(np.diff(tail) <= 1e-16)

    def test_mode_two_decay_rate(self):
        # a pure second-mode seed decays at its own eigenvalue rate
        g = PeriodicGrid(64)
        params = PhysParams.from_theta(1.0, 1.0, 0.0)
        f = InterfaceProfile(g, 1e-5 * np.cos(2 * g.nodes))
        records = []
        integrate(EvolutionState(0.0, f, params),
                  StepperConfig(scheme="rk4-explicit", dt=0.005, t_end=4.0),
                  sink=records.append)
        from stokes2p import decay_rate_fit
        fit = decay_rate_fit(records, kind=("mode", 2), amp_window=(1e-10, 1e-4))
        want = (4.0 * params.sigma + params.theta) / (8.0 * params.mu)
        assert fit.reliable
        assert abs(fit.rate - want) / want < 0.02

    def test_t_end_zero_identity(self):
        g = PeriodicGrid(32)
        params = PhysParams.from_theta(1.0, 1.0, 0.0)
        f = random_profile(g, 5)
        state = EvolutionState(0.0, f, params)
        out = integrate(state, StepperConfig(dt=0.01, t_end=0.0))
        assert out is state

    def test_blow_up_detected(self):
        # unstable regime, sizable seed: mode 1 grows until the runaway guard
        g = PeriodicGrid(32)
        params = PhysParams.from_theta(1.0, 1.0, -9.0)
        f = InterfaceProfile(g, 1e-3 * np.cos(g.nodes))
        state = EvolutionState(0.0, f, params)
        with pytest.raises(BlowUpError) as err:
            integrate(state, StepperConfig(scheme="exp-euler", dt=0.05, t_end=50.0))
        assert np.all(np.isfinite(err.value.last_state.profile.values))

    def test_adaptive_matches_fixed_step(self):
        g = PeriodicGrid(32)
        params = PhysParams.from_theta(1.0, 1.0, 0.0)
        f = InterfaceProfile(g, 1e-3 * np.cos(g.nodes))
        fixed = integrate(EvolutionState(0.0, f, params),
                          StepperConfig(scheme="rk4-explicit", dt=0.01, t_end=0.5))
        adaptive = integrate(EvolutionState(0.0, f, params),
                             StepperConfig(scheme="rk4-explicit", dt=0.02, t_end=0.5,
                                           adapt=True, tol=1e-10))
        assert np.max(np.abs(fixed.profile.values - adaptive.profile.values)) < 1e-8

    def test_adaptive_unmeetable_tolerance_fails_fast(self):
        # below the roundoff level of the step-doubling estimate no step can
        # pass: the run stops at the smallest step instead of accepting
        g = PeriodicGrid(32)
        params = PhysParams.from_theta(1.0, 1.0, 0.0)
        state = EvolutionState(0.0, random_profile(g, 6), params)

        def sink(record):
            raise AssertionError(f"a step was accepted at t={record['t']}")

        with pytest.raises(StepSizeError) as err:
            integrate(state, StepperConfig(dt=0.02, t_end=0.5, adapt=True, tol=1e-18), sink)
        assert err.value.last_state is state

    def test_adaptive_step_budget(self, monkeypatch):
        # a tolerance met only at small steps stops once the budget of
        # step-doubling trials (three steps each) is spent
        monkeypatch.setattr(evolution, "MAX_ADAPTIVE_STEPS", 12)
        calls = []
        one_step = evolution._step
        monkeypatch.setattr(evolution, "_step",
                            lambda *a, **kw: calls.append(1) or one_step(*a, **kw))
        g = PeriodicGrid(32)
        params = PhysParams.from_theta(1.0, 1.0, 0.0)
        state = EvolutionState(0.0, random_profile(g, 6), params)
        records = []
        with pytest.raises(StepSizeError, match="budget") as err:
            integrate(state, StepperConfig(dt=0.02, t_end=0.5, adapt=True, tol=1e-10),
                      records.append)
        assert len(calls) == 3 * 12
        last = err.value.last_state
        assert 0.0 < last.time < 0.5 and 0 < last.step_count <= 12
        assert records[-1]["t"] == last.time

    @pytest.mark.parametrize("scheme, psi_calls", [("exp-euler", 2), ("rk4-explicit", 11)])
    def test_adaptive_trial_reuses_psi_at_the_state(self, monkeypatch, scheme, psi_calls):
        # the full step and the first half step share Psi(f_n): one trial
        # costs 2 calls for exponential Euler and 11 for RK4, and its result
        # is bitwise the two half steps taken one by one
        g = PeriodicGrid(32)
        params = PhysParams.from_theta(1.0, 1.0, 0.5)
        state = EvolutionState(0.0, random_profile(g, 3, amplitude=0.05), params)
        config = StepperConfig(scheme=scheme, dt=0.02, t_end=0.02, adapt=True, tol=1.0)
        half = step(step(state, config, dt=0.01), config, dt=0.01)
        calls = []
        monkeypatch.setattr(evolution, "eval_Psi",
                            lambda *a: calls.append(1) or eval_Psi(*a))
        out = integrate(state, config)
        assert len(calls) == psi_calls
        assert out.step_count == 1 and out.time == 0.02
        assert np.array_equal(out.profile.values, half.profile.values)

    @pytest.mark.parametrize("theta, k", [(0.5, 3), (-3.0, 1)])
    def test_exp_euler_exact_on_a_linear_mode_at_large_steps(self, theta, k):
        # a tiny mode moves as exp(lambda_k t) however large the step: decay
        # of mode 3, and growth of mode 1 in the unstable regime
        g = PeriodicGrid(32)
        params = PhysParams.from_theta(1.0, 1.0, theta)
        f = InterfaceProfile(g, 1e-9 * np.cos(k * g.nodes))
        out = integrate(EvolutionState(0.0, f, params),
                        StepperConfig(scheme="exp-euler", dt=0.25, t_end=2.0))
        assert out.step_count == 8
        lam = linear_multiplier(g, params)[k]
        assert (lam < 0) == (theta > 0)
        amp = 2 * np.fft.fft(out.profile.values)[k].real / g.n_points
        assert amp / 1e-9 == pytest.approx(np.exp(2.0 * lam), rel=1e-8)

    def test_exp_euler_exact_for_a_frozen_remainder(self):
        # with Psi(f) = L f + n for a fixed n, one step solves f' = L f + n
        # exactly: f^(dt) = e^{dt lam} f^ + (e^{dt lam} - 1)/lam n^
        g = PeriodicGrid(16)
        lam = linear_multiplier(g, PhysParams.from_theta(1.0, 1.0, 0.5))
        f = np.cos(g.nodes)
        n = 0.3 * np.cos(2 * g.nodes) + 0.1
        k1 = np.fft.ifft(lam * np.fft.fft(f)).real + n
        got = evolution._exp_euler(None, f, 0.5, lam, k1)
        want = (np.exp(0.5 * lam[1]) * f
                + np.expm1(0.5 * lam[2]) / lam[2] * 0.3 * np.cos(2 * g.nodes) + 0.5 * 0.1)
        assert np.max(np.abs(got - want)) < 1e-14

    def test_snapshot_schema_and_stride(self):
        g = PeriodicGrid(32)
        params = PhysParams.from_theta(1.0, 1.0, 0.0)
        f = InterfaceProfile(g, 1e-4 * np.cos(g.nodes))
        records = []
        integrate(EvolutionState(0.0, f, params),
                  StepperConfig(dt=0.01, t_end=0.1, snapshot_stride=2),
                  sink=records.append)
        assert len(records) == 5
        rec = records[0]
        assert set(rec) == {"t", "mean", "linf", "l2", "values"}
        assert len(rec["values"]) == 32
        assert rec["linf"] >= rec["l2"] > 0

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            StepperConfig(scheme="leapfrog")
        with pytest.raises(ValueError):
            StepperConfig(tol=0.0)
        with pytest.raises(ValueError, match="snapshot_stride"):
            StepperConfig(snapshot_stride=0)

    @pytest.mark.parametrize("field", ["dt", "t_end", "tol", "blowup_factor"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_config_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            StepperConfig(**{field: value})


def test_snapshot_record_roundtrip():
    g = PeriodicGrid(16)
    params = PhysParams.from_theta(1.0, 1.0, 0.0)
    state = EvolutionState(0.5, InterfaceProfile(g, 0.1 * np.cos(g.nodes)), params)
    rec = snapshot_record(state)
    assert rec["t"] == 0.5
    assert rec["mean"] == pytest.approx(0.0, abs=1e-15)
    assert max(abs(v) for v in rec["values"]) == pytest.approx(rec["linf"])
