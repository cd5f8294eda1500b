import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.special import sici

from stokes2p import (
    DiagonalOps,
    InterfaceProfile,
    KernelWorkspace,
    OperatorSpec,
    PeriodicGrid,
    PhysParams,
    eval_A,
    eval_B,
    eval_B0,
    eval_C,
    eval_Psi,
    frechet_B,
    frechet_B0,
    hilbert_transform,
)
from stokes2p import fields, operators
from stokes2p.fields import antiderivative

from oracles import (
    COMPOSITE_MEMBERS,
    band_limited,
    eval_A_loop,
    eval_B_loop,
    eval_C_loop,
    frechet_B0_loop,
    frechet_B_loop,
    layer_kernels_real,
    member_spec,
)


# ---------------------------------------------------------------------------
# slow direct oracles: closed-form argument functions, naive per-point loops,
# no shared machinery with the package
# ---------------------------------------------------------------------------

def oracle_pv_midpoint(kernel_fn, xi, m):
    """Direct symmetric-midpoint principal value, one collocation point at a
    time (kernel_fn(xi, s) includes the density)."""
    h = 2 * np.pi / m
    s = -np.pi + (np.arange(m) + 0.5) * h
    return np.array([np.sum(kernel_fn(x, s)) * h for x in xi])


def oracle_pv_gauss(kernel_fn, xi, m):
    """Direct symmetrized Gauss-Legendre principal value."""
    x, w = leggauss(m)
    s = 0.5 * np.pi * (x + 1.0)
    w = 0.5 * np.pi * w
    return np.array([np.sum((kernel_fn(p, s) + kernel_fn(p, -s)) * w) for p in xi])


def b_kernel_direct(n, m, p, q, f, phi):
    def kernel(xi, s):
        t = np.tan(s / 2)
        df = f(xi) - f(xi - s)
        u = np.tanh(df / 2) / t
        return (u**n * ((df / 2) / t) ** q / (1 + u**2) ** m
                * phi(xi - s) / t * t**p / (2 * np.pi))
    return kernel


def c_kernel_direct(n, m, f, phi):
    def kernel(xi, s):
        df = f(xi) - f(xi - s)
        return (df / s) ** n / (1 + (df / s) ** 2) ** m * phi(xi - s) / (np.pi * s)
    return kernel


def a_kernel_direct(n, m, ell, q, f, phi):
    def kernel(xi, s):
        t = np.tan(s / 2)
        df = f(xi) - f(xi - s)
        u = np.tanh(df / 2) / t
        bt = u**n * ((df / 2) / t) ** q / (1 + u**2) ** m / t**ell
        v = df / s
        bs = v ** (n + q) / (1 + v**2) ** m / (s / 2) ** ell
        return (bt - bs) * phi(xi - s) / (2 * np.pi)
    return kernel


F_FN = lambda x: 0.3 * np.cos(x) + 0.1 * np.sin(2 * x)
PHI_FN = lambda x: np.cos(x) + 0.4 * np.sin(3 * x)


@pytest.fixture(scope="module")
def grid():
    return PeriodicGrid(256)


@pytest.fixture(scope="module")
def f_profile(grid):
    return InterfaceProfile(grid, F_FN(grid.nodes))


@pytest.fixture(scope="module")
def density(grid):
    return PHI_FN(grid.nodes)


class TestHilbert:
    @pytest.mark.parametrize("k", [1, 2, 5, 17])
    def test_cosine_to_sine(self, grid, k):
        out = hilbert_transform(np.cos(k * grid.nodes))
        assert np.max(np.abs(out - np.sin(k * grid.nodes))) < 1e-12

    def test_constant_to_zero(self, grid):
        assert np.max(np.abs(hilbert_transform(np.full(grid.n_points, 3.0)))) < 1e-14

    def test_quadrature_agrees_with_multiplier(self, grid):
        phi = band_limited(grid, 0)
        quad_version = eval_B(OperatorSpec(0, 0), InterfaceProfile(grid, phi))
        assert np.max(np.abs(quad_version - hilbert_transform(phi))) < 1e-10

    def test_involution(self, grid):
        phi = band_limited(grid, 1)
        twice = hilbert_transform(hilbert_transform(phi))
        assert np.max(np.abs(twice + (phi - np.mean(phi)))) < 1e-12


class TestFamilyB:
    def test_constant_arguments_annihilate(self, grid, density):
        c = InterfaceProfile(grid, np.full(grid.n_points, 0.8))
        for (n, m, p, q) in [(1, 0, 0, 0), (0, 1, 0, 1), (2, 1, 2, 1)]:
            spec = OperatorSpec.diagonal(n, m, p, q, c)
            if n + q >= 1:
                out = eval_B(spec, density)
                assert np.max(np.abs(out)) < 1e-14

    def test_invalid_spec_rejected(self, f_profile):
        with pytest.raises(ValueError):
            OperatorSpec.diagonal(0, 1, 2, 0, f_profile)   # p > n+q+1

    @pytest.mark.parametrize("counts", [((), (), ()), (("f", "f"), ("f",), ()),
                                        (("f",), (), ("f",))])
    def test_argument_counts_must_match(self, f_profile, counts):
        # (n, m, q) = (1, 1, 0) wants one profile in args_a and args_b, none in args_c
        args = [tuple(f_profile for _ in slot) for slot in counts]
        with pytest.raises(ValueError, match="argument counts"):
            OperatorSpec(1, 1, 0, 0, *args)

    def test_mixed_grid_arguments_rejected(self, f_profile):
        other = InterfaceProfile(PeriodicGrid(64), np.zeros(64))
        with pytest.raises(ValueError):
            OperatorSpec(1, 1, 0, 0, (f_profile,), (other,), ())

    def test_non_profile_slot_rejected(self, f_profile):
        with pytest.raises(ValueError, match=r"args_c\[0\] holds a ndarray"):
            OperatorSpec(1, 1, 0, 1, (f_profile,), (f_profile,), (np.zeros(16),))

    def test_grid_mismatch_rejected(self, f_profile):
        other = PeriodicGrid(64)
        with pytest.raises(ValueError):
            eval_B(OperatorSpec.diagonal(1, 1, 0, 0, f_profile),
                   InterfaceProfile(other, np.zeros(64)))

    @pytest.mark.parametrize("nmpq", [(0, 1, 0, 0), (1, 2, 2, 1), (2, 1, 3, 1)])
    def test_oversampled_quadrature_converged(self, f_profile, density, nmpq):
        spec = OperatorSpec.diagonal(*nmpq, f_profile)
        a = eval_B(spec, density)
        b = eval_B(spec, density, m_quad=2 * f_profile.grid.n_points)
        assert np.max(np.abs(a - b)) < 1e-8

    def test_cross_resolution_convergence(self):
        # analytic inputs sampled on two grids give matching values at the
        # shared nodes once the coarse grid already resolves them
        coarse, fine = PeriodicGrid(128), PeriodicGrid(256)
        worst = 0.0
        for (n, m, p, q) in [(0, 1, 0, 0), (2, 2, 2, 1), (1, 1, 1, 1)]:
            vals = {}
            for g in (coarse, fine):
                f = InterfaceProfile(g, F_FN(g.nodes))
                vals[g.n_points] = eval_B(OperatorSpec.diagonal(n, m, p, q, f),
                                          PHI_FN(g.nodes))
            worst = max(worst, np.max(np.abs(vals[128] - vals[256][::2])))
        assert worst < 1e-8

    def test_translation_equivariance(self, grid, f_profile, density):
        # grid-shift rotations commute with the operator; FFT rounding is not
        # shift-covariant, so equality holds at roundoff rather than bitwise
        shift = 7
        spec = OperatorSpec.diagonal(2, 1, 0, 1, f_profile)
        base = eval_B(spec, density)
        f_rot = InterfaceProfile(grid, np.roll(f_profile.values, shift))
        out_rot = eval_B(OperatorSpec.diagonal(2, 1, 0, 1, f_rot), np.roll(density, shift))
        assert np.max(np.abs(out_rot - np.roll(base, shift))) < 1e-13

    def test_mixed_arguments(self, grid):
        # different profiles in each slot still satisfy the family identity
        a = InterfaceProfile(grid, 0.2 * np.cos(grid.nodes))
        b = InterfaceProfile(grid, 0.1 * np.sin(grid.nodes) + 0.05 * np.cos(3 * grid.nodes))
        c = InterfaceProfile(grid, 0.15 * np.sin(2 * grid.nodes))
        phi = np.cos(grid.nodes)
        spec_b = OperatorSpec(1, 1, 0, 1, (a,), (b,), (c,))
        spec_c = OperatorSpec(2, 1, 0, 0, (a,), (b, c), ())
        lhs = eval_B(spec_b, phi)
        rhs = eval_A(spec_b, 1, phi) + eval_C(spec_c, phi)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestFamilyIdentities:
    @pytest.mark.parametrize("q", [0, 1])
    def test_decomposition_shared_nodes(self, f_profile, density, q):
        worst = 0.0
        for n in range(5):
            for m in range(1, 4):
                B = eval_B(OperatorSpec.diagonal(n, m, 0, q, f_profile), density)
                A = eval_A(OperatorSpec.diagonal(n, m, 0, q, f_profile), 1, density)
                C = eval_C(OperatorSpec.diagonal(n + q, m, 0, 0, f_profile), density)
                worst = max(worst, np.max(np.abs(B - A - C)))
        assert worst < 1e-10

    def test_decomposition_across_rules(self, f_profile, density):
        # converged values: midpoint for the periodic kernel, Gauss for the rest
        for (n, m, q) in [(1, 1, 0), (2, 2, 1), (0, 3, 1)]:
            B = eval_B(OperatorSpec.diagonal(n, m, 0, q, f_profile), density)
            A = eval_A(OperatorSpec.diagonal(n, m, 0, q, f_profile), 1, density, rule="gauss")
            C = eval_C(OperatorSpec.diagonal(n + q, m, 0, 0, f_profile), density, rule="gauss")
            assert np.max(np.abs(B - A - C)) < 1e-9

    def test_difference_recursion(self, f_profile, density):
        dens = InterfaceProfile(f_profile.grid, density)
        worst = 0.0
        for n in range(5):
            for m in range(1, 4):
                lhs = eval_C(OperatorSpec.diagonal(n, m, 0, 0, f_profile), dens) \
                    + eval_C(OperatorSpec.diagonal(n + 2, m, 0, 0, f_profile), dens)
                rhs = eval_C(OperatorSpec.diagonal(n, m - 1, 0, 0, f_profile), dens)
                worst = max(worst, np.max(np.abs(lhs - rhs)))
        assert worst < 1e-10

    @pytest.mark.parametrize("op", [eval_B, lambda spec, d: eval_A(spec, 1, d),
                                    lambda spec, d: eval_C(c_member(spec), d)],
                             ids=["B", "A", "C"])
    def test_one_difference_table_per_profile(self, f_profile, density, op, monkeypatch):
        # the eight slots of a diagonal spec share the table of their one profile
        calls = []
        delta = KernelWorkspace.delta
        monkeypatch.setattr(KernelWorkspace, "delta",
                            lambda self, v: calls.append(1) or delta(self, v))
        op(OperatorSpec.diagonal(4, 3, 0, 1, f_profile), density)
        assert len(calls) == 1

    def test_unread_indices_rejected(self, f_profile, density):
        # eval_C has no power of s and no difference slots, eval_A's power
        # is its ell: a spec that sets them names another operator
        for p, q in ((3, 2), (0, 2), (3, 0)):
            with pytest.raises(ValueError, match="eval_C takes p = q = 0"):
                eval_C(OperatorSpec.diagonal(2, 1, p, q, f_profile), density)
        with pytest.raises(ValueError, match="eval_A takes p = 0"):
            eval_A(OperatorSpec.diagonal(2, 1, 3, 0, f_profile), 1, density)
        eval_A(OperatorSpec.diagonal(2, 1, 0, 2, f_profile), 2, density)


def c_member(spec):
    """The difference-family member of B = A + C for a tangent-family spec:
    the q difference slots join the n numerator slots, and p is 0."""
    return OperatorSpec(spec.n + spec.q, spec.m, 0, 0, spec.args_a, spec.args_b + spec.args_c)


# ---------------------------------------------------------------------------
# the kernel assembly against the slot-by-slot loop of oracles.py: one
# quotient per difference table, products formed in place, the same bits
# ---------------------------------------------------------------------------

def _bitwise(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.fixture(scope="module")
def loop_case():
    """A small grid, a profile f, three more profiles and two directions."""
    g = PeriodicGrid(32)
    x = g.nodes
    f = InterfaceProfile(g, F_FN(x))
    others = (InterfaceProfile(g, 0.2 * np.cos(x)),
              InterfaceProfile(g, 0.1 * np.sin(x) + 0.05 * np.cos(3 * x)),
              InterfaceProfile(g, 0.15 * np.sin(2 * x)), f)
    return g, f, others, PHI_FN(x), (0.2 * np.sin(x) - 0.1 * np.cos(2 * x), 0.05 * np.cos(4 * x))


def _loop_specs(f, others, kind, p_max=2, q_max=2):
    """Every (n, m, p, q) with n <= 4, m <= 3, q <= q_max and p <= min(p_max,
    n + q + 1), diagonal in f or with the slots cycling through ``others``."""
    for n in range(5):
        for m in range(4):
            for q in range(q_max + 1):
                for p in range(min(p_max, n + q + 1) + 1):
                    if kind == "diagonal":
                        yield OperatorSpec.diagonal(n, m, p, q, f)
                    else:
                        yield OperatorSpec(n, m, p, q, tuple(others[i % 4] for i in range(m)),
                                           tuple(others[(i + 1) % 4] for i in range(n)),
                                           tuple(others[(i + 2) % 4] for i in range(q)))


_LOOP_OPS = {
    "B": (lambda s, d: eval_B(s, d), eval_B_loop, 2),
    "A1-midpoint": (lambda s, d: eval_A(s, 1, d), lambda s, d: eval_A_loop(s, 1, d), 0),
    "A2-midpoint": (lambda s, d: eval_A(s, 2, d), lambda s, d: eval_A_loop(s, 2, d), 0),
    "A1-gauss": (lambda s, d: eval_A(s, 1, d, rule="gauss"),
                 lambda s, d: eval_A_loop(s, 1, d, rule="gauss"), 0),
    "A2-gauss": (lambda s, d: eval_A(s, 2, d, rule="gauss"),
                 lambda s, d: eval_A_loop(s, 2, d, rule="gauss"), 0),
    "C-midpoint": (lambda s, d: eval_C(s, d), eval_C_loop, 0),
    "C-gauss": (lambda s, d: eval_C(s, d, rule="gauss"),
                lambda s, d: eval_C_loop(s, d, rule="gauss"), 0),
}


class TestLoopOracle:
    @pytest.mark.parametrize("kind", ["diagonal", "mixed"])
    @pytest.mark.parametrize("name", list(_LOOP_OPS))
    def test_generic_families_bitwise(self, loop_case, name, kind):
        # eval_A and eval_C take p = 0 (A's power is its ell), eval_C q = 0
        _, f, others, dens, _ = loop_case
        op, loop, p_max = _LOOP_OPS[name]
        specs = list(_loop_specs(f, others, kind, p_max, 0 if name.startswith("C") else 2))
        bad = [(s.n, s.m, s.p, s.q) for s in specs if not _bitwise(op(s, dens), loop(s, dens))]
        assert specs and bad == []

    def test_frechet_maps_bitwise(self, loop_case):
        _, f, others, dens, (h1, h2) = loop_case
        bad = []
        for s in _loop_specs(f, others, "diagonal"):
            nmpq = (s.n, s.m, s.p, s.q)
            if not _bitwise(frechet_B(s, f, h1)(dens), frechet_B_loop(f, nmpq, h1, dens)):
                bad.append(nmpq)
            raised = (s.n, s.m, s.p + 1, s.q)
            if not _bitwise(frechet_B(raised, f, h2, directions=(h1,))(dens),
                            frechet_B_loop(f, raised, h2, dens, (h1,))):
                bad.append(raised + ("second",))
        assert bad == []
        assert _bitwise(frechet_B0(f, h1)(dens), frechet_B0_loop(f, h1, dens))

    @pytest.mark.parametrize("name", ["B", "A1-midpoint", "C-gauss"])
    def test_one_tanh_quotient_per_profile_per_call(self, loop_case, monkeypatch, name):
        # seven tangent slots of one profile, then four slots over three
        # profiles: each call builds one tangent quotient per distinct
        # profile of its a- and b-slots, and two calls build it twice
        _, f, (a, b, c, _), dens, _ = loop_case
        kinds = []
        quotient = operators._quotient
        monkeypatch.setattr(operators, "_quotient",
                            lambda ws, kind, d: kinds.append(kind) or quotient(ws, kind, d))
        op = _LOOP_OPS[name][0]
        tangent = name != "C-gauss"
        for spec, profiles in ((OperatorSpec.diagonal(4, 3, 0, 1, f), 1),
                               (OperatorSpec(2, 2, 0, 1, (a, b), (b, c), (a,)), 3)):
            if not tangent:
                spec = c_member(spec)
            for calls in (1, 2):
                kinds.clear()
                for _ in range(calls):
                    op(spec, dens)
                assert kinds.count("tanh") == calls * profiles * tangent
                assert kinds.count("half") == calls * tangent
                assert kinds.count("diff") == calls * profiles * (name != "B")

    def test_no_table_outlives_a_call(self, f_profile, density):
        # the quotient memo is dropped with its call, without the help of
        # the cycle collector: repeated calls hold no more than the first
        import gc
        import tracemalloc

        spec = OperatorSpec.diagonal(4, 3, 0, 1, f_profile)
        gc.disable()
        tracemalloc.start()
        try:
            eval_A(spec, 1, density)
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(4):
                eval_B(spec, density), eval_A(spec, 2, density), eval_C(c_member(spec), density)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            gc.enable()
        assert held < 8 * f_profile.grid.n_points ** 2 // 4        # a quarter table

    def test_repeat_calls_bitwise(self, loop_case):
        # a product formed in place never writes into a shared quotient, a
        # difference table or an input
        _, f, (a, b, c, _), dens, (h1, h2) = loop_case
        inputs = [f.values.copy(), a.values.copy(), b.values.copy(), c.values.copy(),
                  dens.copy(), h1.copy(), h2.copy()]
        mixed = OperatorSpec(2, 2, 1, 1, (a, b), (b, a), (a,))
        diag = OperatorSpec.diagonal(3, 2, 2, 2, f)
        mixed_a = OperatorSpec(2, 2, 0, 1, (a, b), (b, a), (a,))
        diag_a = OperatorSpec.diagonal(3, 2, 0, 2, f)
        ops = DiagonalOps(f)
        runs = [lambda: eval_B(mixed, dens), lambda: eval_B(diag, dens),
                lambda: eval_A(diag_a, 2, dens), lambda: eval_A(mixed_a, 1, dens, rule="gauss"),
                lambda: eval_C(c_member(diag_a), dens), lambda: ops.kernel(3, 2, 2, 2),
                lambda: eval_B(member_spec(f, 3, 2, 4, 2, h1, h1), dens),
                lambda: frechet_B(diag, f, h2)(dens), lambda: frechet_B0(f, h1)(dens)]
        for run in runs:
            assert _bitwise(run(), run())
        now = [f.values, a.values, b.values, c.values, dens, h1, h2]
        assert all(_bitwise(x, y) for x, y in zip(now, inputs))


class TestFamilyC:
    @pytest.mark.parametrize("k", [1, 3])
    def test_bare_kernel_multiplier(self, grid, k):
        # 1/s kernel maps cos(k xi) to (2/pi) Si(k pi) sin(k xi)
        zero = InterfaceProfile.zero(grid)
        got = eval_C(OperatorSpec.diagonal(0, 0, 0, 0, zero),
                     InterfaceProfile(grid, np.cos(k * grid.nodes)), rule="gauss")
        exact = (2.0 / np.pi) * sici(k * np.pi)[0] * np.sin(k * grid.nodes)
        assert np.max(np.abs(got - exact)) < 1e-12

    def test_constant_numerator_annihilates(self, grid, density):
        c = InterfaceProfile(grid, np.full(grid.n_points, 1.3))
        out = eval_C(OperatorSpec.diagonal(2, 1, 0, 0, c), density)
        assert np.max(np.abs(out)) < 1e-14

    def test_against_direct_oracle(self, grid):
        kernel = c_kernel_direct(2, 1, F_FN, PHI_FN)
        probe = grid.nodes[::32]
        want = oracle_pv_gauss(kernel, probe, 8 * grid.n_points)
        f = InterfaceProfile(grid, F_FN(grid.nodes))
        got = eval_C(OperatorSpec.diagonal(2, 1, 0, 0, f), PHI_FN(grid.nodes),
                     rule="gauss")[::32]
        assert np.max(np.abs(got - want)) < 1e-10


class TestFamilyA:
    def test_odd_kernel_constant_density(self, grid):
        zero = InterfaceProfile.zero(grid)
        out = eval_A(OperatorSpec.diagonal(0, 0, 0, 0, zero), 1,
                     InterfaceProfile(grid, np.ones(grid.n_points)))
        assert np.max(np.abs(out)) < 1e-13

    def test_against_direct_oracle(self, grid):
        kernel = a_kernel_direct(1, 1, 1, 0, F_FN, lambda x: np.cos(x))
        probe = grid.nodes[::32]
        want = oracle_pv_gauss(kernel, probe, 8 * grid.n_points)
        f = InterfaceProfile(grid, F_FN(grid.nodes))
        got = eval_A(OperatorSpec.diagonal(1, 1, 0, 0, f), 1, np.cos(grid.nodes),
                     rule="gauss")[::32]
        assert np.max(np.abs(got - want)) < 1e-9

    def test_consistency_with_decomposition(self, f_profile, density):
        for (n, m, q) in [(0, 1, 0), (3, 2, 1)]:
            A = eval_A(OperatorSpec.diagonal(n, m, 0, q, f_profile), 1, density)
            B = eval_B(OperatorSpec.diagonal(n, m, 0, q, f_profile), density)
            C = eval_C(OperatorSpec.diagonal(n + q, m, 0, 0, f_profile), density)
            assert np.max(np.abs(A - (B - C))) < 1e-10

    def test_bad_ell_rejected(self, f_profile, density):
        with pytest.raises(ValueError):
            eval_A(OperatorSpec.diagonal(1, 1, 0, 0, f_profile), 3, density)


class TestLogOperator:
    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_flat_multiplier(self, grid, k):
        zero = InterfaceProfile.zero(grid)
        out = eval_B0(zero, np.cos(k * grid.nodes))
        assert np.max(np.abs(out + np.cos(k * grid.nodes) / k)) < 1e-12

    def test_flat_constant(self, grid):
        zero = InterfaceProfile.zero(grid)
        out = eval_B0(zero, np.ones(grid.n_points))
        assert np.max(np.abs(out + np.log(4.0))) < 1e-12

    def test_zero_density(self, grid, f_profile):
        assert np.max(np.abs(eval_B0(f_profile, np.zeros(grid.n_points)))) < 1e-14

    def test_is_composite_zero(self, f_profile, density):
        assert np.array_equal(eval_B0(f_profile, density),
                              DiagonalOps(f_profile).composite(0, density))

    def test_flat_factorization(self, grid):
        # on mean-free densities the flat log operator is the Hilbert
        # transform of the periodic antiderivative
        phi = band_limited(grid, 7)
        phi -= np.mean(phi)
        zero = InterfaceProfile.zero(grid)
        want = hilbert_transform(antiderivative(phi))
        assert np.max(np.abs(eval_B0(zero, phi) - want)) < 1e-11

    def test_oracle_general_profile(self, grid):
        # adaptive quadrature of the full log kernel, split at the
        # integrable log singularity
        from scipy.integrate import quad

        f = InterfaceProfile(grid, F_FN(grid.nodes))

        def oracle(xi):
            def kernel(s):
                df = F_FN(xi) - F_FN(xi - s)
                return np.log(np.sin(s / 2) ** 2 + np.sinh(df / 2) ** 2) \
                    * PHI_FN(xi - s) / (2 * np.pi)
            val, _ = quad(kernel, -np.pi, np.pi, points=[0.0], limit=200,
                          epsabs=1e-11, epsrel=1e-11)
            return val

        probe = grid.nodes[::32]
        want = np.array([oracle(xi) for xi in probe])
        got = eval_B0(f, PHI_FN(grid.nodes))[::32]
        assert np.max(np.abs(got - want)) < 1e-8


# the layer-sum evaluators: the composites on the interface, the layer
# integrals at far points (one rule) and at far and near points (two rules)
LAYER_EVALUATORS = ("interface", "far", "far-and-near")


def layer_evaluator(kind, f):
    """The layer sums of a list of (index, density) requests: on the
    interface one stand-alone ``composite`` per request, all on one
    ``DiagonalOps``; off it one ``fields._blocked`` call over them all."""
    if kind == "interface":
        ops = DiagonalOps(f)
        return lambda requests: [ops.composite(index, d) for index, d in requests]
    pts = [[0.3, 2.5], [4.0, -2.5]]
    near = kind == "far-and-near"
    if near:
        collar = fields.default_collar(f)
        pts += [[0.0, f.values[0] + 0.5 * collar], [2.5, f.eval_at(2.5) - 0.2 * collar]]
    return lambda requests: fields._blocked(
        f, np.array(pts), lambda B: [z for index, d in requests for z in B(index, d)], near=near)


class TestComposites:
    def test_flat_state_reduction(self, grid, density):
        zero = InterfaceProfile.zero(grid)
        assert np.max(np.abs(DiagonalOps(zero).composite(1, density)
                             - hilbert_transform(density))) < 1e-12
        for idx in (2, 3, 4, 5, 6):
            assert np.max(np.abs(DiagonalOps(zero).composite(idx, density))) < 1e-13

    def test_index_validation(self, f_profile, density):
        with pytest.raises(ValueError):
            DiagonalOps(f_profile).composite(7, density)

    @pytest.mark.parametrize("n_points", [64, 128, 512])
    @pytest.mark.parametrize("idx", range(1, 7))
    def test_layer_kernel_matches_member_sum(self, idx, n_points):
        # one closed-form kernel per composite against its member expansion
        grid = PeriodicGrid(n_points)
        f = InterfaceProfile(grid, band_limited(grid, 10 + idx, modes=16, amplitude=0.3))
        phi = band_limited(grid, 20 + idx, modes=16)
        want = sum(coef * eval_B(OperatorSpec.diagonal(n, m, p, q, f), phi)
                   for coef, (n, m, p, q) in COMPOSITE_MEMBERS[idx])
        got = DiagonalOps(f).composite(idx, phi)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("kind", LAYER_EVALUATORS)
    def test_kept_kernel_matches_fresh_ops(self, kind):
        # requests in any order of indices, repeats included, give the
        # values of one fresh evaluation per request
        grid = PeriodicGrid(128)
        f = InterfaceProfile(grid, band_limited(grid, 5, modes=16, amplitude=0.3))
        phis = [band_limited(grid, 30 + c, modes=16) for c in range(2)]
        requests = [(idx, phi) for idx in (3, 3, 0, 4, 2, 4, 6, 1, 0, 5) for phi in phis]
        for request, got in zip(requests, layer_evaluator(kind, f)(requests)):
            assert np.array_equal(got, layer_evaluator(kind, f)([request])[0])

    @pytest.mark.parametrize("kind", LAYER_EVALUATORS)
    def test_density_changed_in_place_is_sampled_afresh(self, kind):
        grid = PeriodicGrid(64)
        f = InterfaceProfile(grid, band_limited(grid, 7, modes=12, amplitude=0.3))
        phi = band_limited(grid, 8, modes=12)
        ops = layer_evaluator(kind, f)
        requests = [(idx, phi) for idx in (0, 1, 3)]
        before = ops(requests)
        phi *= 2.0
        phi[5] += 0.1
        for request, got, old in zip(requests, ops(requests), before):
            assert np.array_equal(got, layer_evaluator(kind, f)([request])[0])
            assert not np.array_equal(got, old)

    def test_live_ops_hold_their_own_tables(self):
        # two live DiagonalOps at one N write their tables into two working
        # sets: each keeps its kernel while the other builds a new one
        grid = PeriodicGrid(256)
        fs = [InterfaceProfile(grid, band_limited(grid, 50 + c, modes=16, amplitude=0.3))
              for c in range(2)]
        phi = band_limited(grid, 60, modes=16)
        ops = [DiagonalOps(f) for f in fs]
        for ia, ib in ((1, 4), (4, 1), (0, 3), (3, 0), (6, 2), (5, 5)):
            got_a = ops[0].composite(ia, phi)
            got_b = ops[1].composite(ib, phi)
            again_a = ops[0].composite(ia, phi)
            want_a = DiagonalOps(fs[0]).composite(ia, phi)
            assert np.array_equal(got_a, want_a) and np.array_equal(again_a, want_a)
            assert np.array_equal(got_b, DiagonalOps(fs[1]).composite(ib, phi))

    def test_pool_keeps_one_set_for_latest_n(self):
        from stokes2p import operators

        for n in (128, 64):
            grid = PeriodicGrid(n)
            f = InterfaceProfile(grid, 0.2 * np.cos(grid.nodes))
            for idx in range(7):
                DiagonalOps(f).composite(idx, np.sin(grid.nodes))
        pool = operators._TABLE_POOL
        assert pool._idle_n == 64
        assert pool._idle.shape == (operators._SET_PLANES, 64, 64)
        # a lease takes the idle set; a second concurrent lease maps its own
        idle = pool._idle
        first, second = pool.lease(64), pool.lease(64)
        assert first is idle
        assert second.shape == idle.shape and not np.shares_memory(second, idle)
        pool.release(64, first)

    def test_working_set_holds_five_real_tables(self):
        # the planes of D, the two of the log and pair tables and r2: 40
        # bytes per entry, as many as the real tables they replaced
        from stokes2p import operators

        stack = operators._TABLE_POOL.lease(48)
        try:
            assert stack.nbytes == 40 * 48 * 48 and stack.dtype == np.float64
        finally:
            operators._TABLE_POOL.release(48, stack)

    def test_concurrent_ops_stress(self):
        # more threads than cores, switching often, each building composites
        # on its own profile: results equal the serial ones bitwise
        import sys
        import threading

        grid = PeriodicGrid(64)
        fs = [InterfaceProfile(grid, band_limited(grid, 70 + c, modes=12, amplitude=0.3))
              for c in range(6)]
        phi = band_limited(grid, 80, modes=12)
        want = [[DiagonalOps(f).composite(idx, phi) for idx in range(7)] for f in fs]
        got = [[None] * 7 for _ in fs]

        def work(c):
            for _ in range(5):
                for idx in range(7):
                    got[c][idx] = DiagonalOps(fs[c]).composite(idx, phi)
                    if not np.array_equal(got[c][idx], want[c][idx]):
                        return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(c,)) for c in range(len(fs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for c in range(len(fs)):
            for idx in range(7):
                assert np.array_equal(got[c][idx], want[c][idx])

    def test_tables_need_no_memory_map(self, monkeypatch):
        # the working sets are heap arrays: a platform without private memory
        # maps (Windows has no mmap.MAP_PRIVATE) builds them at a new N too
        import mmap

        from stokes2p import PhysParams, eval_Psi

        monkeypatch.delattr(mmap, "MAP_PRIVATE", raising=False)
        grid = PeriodicGrid(44)
        f = InterfaceProfile(grid, 0.2 * np.cos(grid.nodes) + 0.05 * np.sin(3 * grid.nodes))
        psi = eval_Psi(f, PhysParams.from_theta(1.0, 1.0, 0.5))
        assert psi.shape == (44,) and np.all(np.isfinite(psi))
        ops = DiagonalOps(f)
        for idx in range(7):
            assert np.all(np.isfinite(ops.composite(idx, np.sin(grid.nodes))))

    def test_composite_rejects_bad_input(self):
        grid = PeriodicGrid(32)
        ops = DiagonalOps(InterfaceProfile(grid, 0.1 * np.cos(grid.nodes)))
        with pytest.raises(ValueError):
            ops.composite(7, np.ones(32))
        with pytest.raises(ValueError):
            ops.composite(1, np.ones((32, 1)))
        with pytest.raises(ValueError):
            ops.composite(1, np.ones(16))

    @pytest.mark.parametrize("idx,members", [
        (3, COMPOSITE_MEMBERS[3]),
        (4, COMPOSITE_MEMBERS[4]),
    ])
    def test_against_direct_oracle(self, idx, members):
        # the two odd derivative composites on a small cosine profile
        grid = PeriodicGrid(128)
        fn = lambda x: 0.1 * np.cos(x)
        phi = lambda x: np.sin(x)
        probe = grid.nodes[::16]
        want = np.zeros_like(probe)
        for coef, (n, m, p, q) in members:
            want = want + coef * oracle_pv_midpoint(
                b_kernel_direct(n, m, p, q, fn, phi), probe, 8 * grid.n_points)
        f = InterfaceProfile(grid, fn(grid.nodes))
        got = DiagonalOps(f).composite(idx, phi(grid.nodes))[::16]
        assert np.max(np.abs(got - want)) < 1e-8


class TestRowBlocks:
    """The on-interface tables are built and contracted in row blocks of at
    most ``_EVAL_BLOCK`` entries; no value may depend on the split or on the
    run, to the bit."""

    PARAMS = PhysParams.from_theta(0.8, 1.3, 1.7)

    @staticmethod
    def _case(n):
        grid = PeriodicGrid(n)
        f = InterfaceProfile(grid, band_limited(grid, 90 + n, modes=16, amplitude=0.3) + 0.1)
        return f, band_limited(grid, 91 + n, modes=16)

    def _outputs(self, f, phi):
        return [eval_Psi(f, self.PARAMS)] + [DiagonalOps(f).composite(idx, phi)
                                             for idx in range(7)]

    @pytest.mark.parametrize("n", [200, 512])
    @pytest.mark.parametrize("rows", [2, 7, 33, None])
    def test_split_agrees_with_one_block(self, n, rows, monkeypatch):
        # 200 rows split in 100, 29 (of 6 or 7), 7 or 2 blocks; 512 in 256,
        # 74, 16 or 8.  None keeps the default budget
        f, phi = self._case(n)
        monkeypatch.setattr(operators, "_EVAL_BLOCK", n * n)
        assert operators._row_blocks(n) == 1
        want = self._outputs(f, phi)
        monkeypatch.undo()
        if rows is not None:
            monkeypatch.setattr(operators, "_EVAL_BLOCK", rows * n)
        assert operators._row_blocks(n) == -(-n // (rows or operators._EVAL_BLOCK // n))
        got = self._outputs(f, phi)
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) <= 1e-15 * np.max(np.abs(w))
            assert np.array_equal(g, w)
        assert all(np.array_equal(a, b) for a, b in zip(self._outputs(f, phi), got))

    @pytest.mark.parametrize("n", [32, 200, 512, 1024])
    def test_products_match_one_density_each(self, n, monkeypatch):
        # Psi's sweep takes each lead's products as one GEMM against all of
        # its densities; a one-density plan is a gemv, which sums each row
        # in another order: the two differ by roundoff of the size of a sum
        # of N terms in random order, sqrt(N) u for the unit roundoff u
        # (1.8e-15 of 3.6e-15 at N = 1024)
        f, _ = self._case(n)
        sweeps = []
        sweep = operators._sweep
        monkeypatch.setattr(operators, "_sweep", lambda f, half, plan: sweeps.append(
            (half, plan, sweep(f, half, plan))) or sweeps[-1][-1])
        eval_Psi(f, self.PARAMS)
        ((half, plan, out),) = sweeps
        assert {lead: len(v) for lead, v in plan.items()} == {0: 2, 1: 3, 3: 4, 5: 2}
        for lead, stack in plan.items():
            for j, v in enumerate(stack):
                one = sweep(f, half, {lead: v[None]})[lead][0]
                bound = np.sqrt(n) * np.finfo(float).eps / 2 * np.max(np.abs(one))
                assert np.max(np.abs(out[lead][j] - one)) <= bound

    def test_warm_psi_holds_no_square_table(self):
        # the idle set is one stack of (rows, N) planes, rows * N <=
        # _EVAL_BLOCK, and a warm call allocates less than one (N, N)
        # float64 table
        import tracemalloc

        n = 512
        f, _ = self._case(n)
        eval_Psi(f, self.PARAMS)
        pool = operators._TABLE_POOL
        assert pool._idle_n == n and 64 * n <= operators._EVAL_BLOCK
        assert pool._idle.shape == (operators._SET_PLANES, 64, n)
        tracemalloc.start()
        try:
            eval_Psi(f, self.PARAMS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n

    def test_kernel_leaves_the_pool_alone(self):
        # a member kernel reads no layer table, so it leases none: the idle
        # set stays the one made at N = 64
        small, other = PeriodicGrid(64), PeriodicGrid(96)
        DiagonalOps(InterfaceProfile(small, 0.2 * np.cos(small.nodes))).composite(
            1, np.sin(small.nodes))
        pool = operators._TABLE_POOL
        idle = pool._idle
        assert pool._idle_n == 64
        DiagonalOps(InterfaceProfile(other, 0.2 * np.cos(other.nodes))).kernel(1, 1, 0, 0)
        assert pool._idle_n == 64 and pool._idle is idle

    def test_one_sweep_per_evaluation(self, monkeypatch):
        # Psi, both traces and the traces of the jump checks each take all
        # their products in one sweep; a stand-alone composite is the sweep
        # of its one request
        from stokes2p import fields

        sweeps = []
        sweep = operators._sweep
        monkeypatch.setattr(operators, "_sweep", lambda f, half, plan: sweeps.append(
            sum(len(v) for v in plan.values())) or sweep(f, half, plan))
        f, phi = self._case(64)
        eval_Psi(f, self.PARAMS)
        assert sweeps == [11]
        for variant, products in (("direct-g", 4), ("parts-z", 7)):
            sweeps.clear()
            fields.trace_velocity(InterfaceProfile(f.grid, f.values - f.mean), self.PARAMS,
                                  variant)
            assert sweeps == [products]
        sweeps.clear()
        fields.interface_jump_checks(f, self.PARAMS, probe_count=1, eps_factors=(1e-2,))
        assert sweeps == [2]
        sweeps.clear()
        ops = DiagonalOps(f)
        ops.composite(3, phi), ops.composite(4, phi), eval_B0(f, phi)
        assert sweeps == [1, 1, 1]

    def test_ops_freed_without_the_cycle_collector(self):
        # nothing it holds refers back to it, so its queue of composites
        # goes with the last reference
        import gc
        import weakref

        f, phi = self._case(64)
        gc.disable()
        try:
            ops = DiagonalOps(f)
            ops.composite(0, phi)
            ops.sweep([(5, phi), (1, phi)])
            ref = weakref.ref(ops)
            del ops
            assert ref() is None
        finally:
            gc.enable()


class TestSwept:
    """``_swept`` runs an evaluation once to record its requests and once to
    hand their composites back by position."""

    @staticmethod
    def _case():
        grid = PeriodicGrid(64)
        f = InterfaceProfile(grid, band_limited(grid, 5, modes=8, amplitude=0.3))
        return f, band_limited(grid, 6, modes=8), band_limited(grid, 7, modes=8)

    def test_replay_is_the_stand_alone_composites(self):
        f, phi, psi = self._case()
        got = operators._swept(f, lambda B: B(3, phi, psi) + B(0, psi) + B(4, phi))
        ops = DiagonalOps(f)
        want = [ops.composite(3, phi), ops.composite(3, psi), ops.composite(0, psi),
                ops.composite(4, phi)]
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) <= 1e-15 * np.max(np.abs(w))

    @pytest.mark.parametrize("change", ["index", "extra", "missing"])
    def test_changed_requests_raise(self, change):
        # a replay that asks for other indices, or more or fewer composites,
        # than the recording run fails instead of reading another's value
        f, phi, psi = self._case()
        runs, received = [], []

        def evaluate(B):
            runs.append(B)
            replay = len(runs) == 2
            received.extend(B(2 if replay and change == "index" else 1, phi))
            if not (replay and change == "missing"):
                received.extend(B(5, psi))
            if replay and change == "extra":
                received.extend(B(5, phi))
            return received

        with pytest.raises(ValueError):
            operators._swept(f, evaluate)
        assert len(received) == {"index": 2, "extra": 4, "missing": 3}[change]


def _kernel_points(kind, count=4000):
    rng = np.random.default_rng({"random": 1, "near_lattice": 2, "tall": 3}[kind])
    if kind == "random":
        return rng.uniform(-7.0, 7.0, count), rng.uniform(-5.0, 5.0, count)
    if kind == "near_lattice":
        # |w - 2 pi k| from 1e-8 to 1 around the lattice points k = -1, 0, 1
        radius = 10.0 ** rng.uniform(-8.0, 0.0, count)
        angle = rng.uniform(0.0, 2.0 * np.pi, count)
        centre = 2.0 * np.pi * rng.integers(-1, 2, count)
        return centre + radius * np.cos(angle), radius * np.sin(angle)
    # |r2| up to 700, where the real coding is still finite
    return rng.uniform(-7.0, 7.0, count), rng.uniform(-700.0, 700.0, count)


class TestLayerKernels:
    @pytest.mark.parametrize("kind", ["random", "near_lattice", "tall"])
    def test_match_real_coding(self, kind):
        from stokes2p.operators import _LayerTables, _sines

        r1, r2 = _kernel_points(kind)
        want = layer_kernels_real(r1, r2)

        def read(tables, index):
            # a part is a view of a table that the next build may overwrite
            table, take, factor = tables.part(index)
            return factor * take(table)

        tables = _LayerTables.at(r1, r2)
        split = _LayerTables(*_sines(r1), r2, remainder=True)
        got = [read(tables, i) for i in range(7)] + [read(split, 0)]
        for i, (g, w) in enumerate(zip(got, want)):
            scale = np.maximum(1.0, np.abs(w))
            if i == 3:
                # Z3 = (r2/2)(1 + Z1^2 - Z2^2) is a difference of terms of
                # this size.  Near a lattice point with |r1 - 2 pi k| ~ |r2|
                # neither coding resolves it better (both are off a 50-digit
                # value by up to 7e-12 there), and for |r2| >> 1 the planes
                # know 1 - Z2^2 to an absolute epsilon only
                scale = np.maximum(scale, np.abs(r2) * (1.0 + want[1] ** 2 + want[2] ** 2) / 2.0)
            assert np.max(np.abs(g - w) / scale) <= 1e-13, i


class TestWorkspace:
    @pytest.mark.parametrize("rule,m_quad", [("midpoint", 1), ("midpoint", 3),
                                             ("midpoint", -4), ("gauss", -1)])
    def test_bad_m_quad_rejected(self, f_profile, density, rule, m_quad):
        # an odd midpoint rule has a node on the singularity at s = 0
        spec = OperatorSpec.diagonal(1, 1, 0, 0, f_profile)
        with pytest.raises(ValueError, match="m_quad"):
            eval_C(spec, density, rule=rule, m_quad=m_quad)
        with pytest.raises(ValueError, match="m_quad"):
            eval_A(spec, 1, density, rule=rule, m_quad=m_quad)
        if rule == "midpoint":
            with pytest.raises(ValueError, match="m_quad"):
                eval_B(spec, density, m_quad=m_quad)

    def test_sample_follows_in_place_change(self, grid):
        ws = KernelWorkspace(grid)
        v = np.cos(grid.nodes)
        w = np.sin(3 * grid.nodes)
        ws.sample(v)
        v[:] = w
        assert np.array_equal(ws.sample(v), ws.sample(w.copy()))
        assert np.array_equal(ws.delta(v), ws.delta(w.copy()))


def central_difference_map(build, f0, direction, eps=1e-5):
    plus = build(InterfaceProfile(f0.grid, f0.values + eps * direction))
    minus = build(InterfaceProfile(f0.grid, f0.values - eps * direction))
    return lambda density: (plus(density) - minus(density)) / (2 * eps)


class TestFrechet:
    @pytest.mark.parametrize("nmpq", [(0, 1, 0, 0), (1, 1, 2, 0), (2, 2, 0, 1),
                                      (1, 2, 2, 1), (3, 1, 3, 1)])
    def test_matches_central_differences(self, nmpq):
        grid = PeriodicGrid(128)
        f0 = InterfaceProfile(grid, 0.25 * np.cos(grid.nodes) + 0.1 * np.sin(2 * grid.nodes))
        direction = np.cos(2 * grid.nodes) + 0.5 * np.sin(grid.nodes)
        density = np.cos(grid.nodes) + 0.2 * np.sin(3 * grid.nodes)
        n, m, p, q = nmpq
        deriv = frechet_B(OperatorSpec.diagonal(n, m, p, q, f0), f0, direction)

        def build(f):
            return lambda d: eval_B(OperatorSpec.diagonal(n, m, p, q, f), d)

        fd = central_difference_map(build, f0, direction)
        got, want = deriv(density), fd(density)
        scale = np.max(np.abs(want)) + 1e-30
        assert np.max(np.abs(got - want)) / scale < 1e-6

    def test_no_tangent_no_difference_slots(self):
        # with n = q = 0 only the denominator block contributes
        grid = PeriodicGrid(64)
        f0 = InterfaceProfile(grid, 0.2 * np.cos(grid.nodes))
        direction = np.sin(grid.nodes)
        density = np.cos(grid.nodes)
        m, p = 2, 1
        deriv = frechet_B(OperatorSpec.diagonal(0, m, p, 0, f0), f0, direction)
        want = 2 * m * (eval_B(member_spec(f0, 3, m + 1, p + 2, 0, direction), density)
                        - eval_B(member_spec(f0, 1, m + 1, p, 0, direction), density))
        assert np.max(np.abs(deriv(density) - want)) < 1e-13

    def test_second_order_slot_with_raised_power(self):
        # a once-derived member (one extra difference slot) admits p up to
        # n+q+2; its further derivative must still match finite differences
        grid = PeriodicGrid(128)
        f0 = InterfaceProfile(grid, 0.2 * np.cos(grid.nodes))
        h1 = np.sin(grid.nodes)
        direction = np.cos(2 * grid.nodes)
        density = np.cos(grid.nodes)
        nmpq = (1, 1, 3, 0)   # p = 3 > n+q+1, valid once a slot is appended
        deriv = frechet_B(nmpq, f0, direction, directions=(h1,))
        eps = 1e-5

        def once_derived(f):
            return eval_B(member_spec(f, *nmpq, h1), density)

        fd = (once_derived(InterfaceProfile(grid, f0.values + eps * direction))
              - once_derived(InterfaceProfile(grid, f0.values - eps * direction))) / (2 * eps)
        got = deriv(density)
        assert np.max(np.abs(got - fd)) / (np.max(np.abs(fd)) + 1e-30) < 1e-6

    def test_non_diagonal_spec_rejected(self):
        # frechet_B differentiates the member of f0: a spec slot that holds
        # a profile with other values names another operator
        grid = PeriodicGrid(64)
        f0 = InterfaceProfile(grid, 0.2 * np.cos(grid.nodes))
        other = InterfaceProfile(grid, 0.1 * np.sin(grid.nodes))
        same = InterfaceProfile(grid, f0.values)
        h = np.sin(2 * grid.nodes)
        for spec in (OperatorSpec(1, 1, 0, 1, (f0,), (other,), (f0,)),
                     OperatorSpec(1, 1, 0, 1, (other,), (f0,), (f0,)),
                     OperatorSpec(1, 1, 0, 1, (f0,), (f0,), (other,))):
            with pytest.raises(ValueError, match="diagonal in f0"):
                frechet_B(spec, f0, h)
        density = np.cos(grid.nodes)
        want = frechet_B((1, 1, 0, 1), f0, h)(density)
        got = frechet_B(OperatorSpec(1, 1, 0, 1, (same,), (f0,), (same,)), f0, h)(density)
        assert _bitwise(got, want)

    @pytest.mark.parametrize("directions", [(), (1,), (1, 2)])
    def test_one_difference_table_per_argument(self, f_profile, density, directions, monkeypatch):
        # an application builds f0's table once and one per direction, for
        # all five members of (2, 1, 0, 1)
        grid = f_profile.grid
        extra = tuple(np.sin(k * grid.nodes) for k in directions)
        deriv = frechet_B((2, 1, 0, 1), f_profile, np.cos(grid.nodes), directions=extra)
        calls = []
        delta = KernelWorkspace.delta
        monkeypatch.setattr(KernelWorkspace, "delta",
                            lambda self, v: calls.append(1) or delta(self, v))
        deriv(density)
        assert len(calls) == 2 + len(extra)
        deriv(density)
        assert len(calls) == 2 * (2 + len(extra))

    def test_linearity_in_direction(self):
        grid = PeriodicGrid(64)
        f0 = InterfaceProfile(grid, 0.2 * np.cos(grid.nodes))
        h = np.sin(2 * grid.nodes)
        density = np.cos(grid.nodes)
        spec = OperatorSpec.diagonal(1, 1, 0, 1, f0)
        one = frechet_B(spec, f0, h)(density)
        two = frechet_B(spec, f0, 2.0 * h)(density)
        assert np.max(np.abs(two - 2.0 * one)) < 1e-13

    def test_log_operator_derivative(self):
        grid = PeriodicGrid(128)
        f0 = InterfaceProfile(grid, 0.25 * np.cos(grid.nodes))
        direction = np.cos(2 * grid.nodes)
        density = np.sin(grid.nodes) + 0.3 * np.cos(3 * grid.nodes)
        deriv = frechet_B0(f0, direction)

        def build(f):
            return lambda d: eval_B0(f, d)

        fd = central_difference_map(build, f0, direction)
        got, want = deriv(density), fd(density)
        scale = np.max(np.abs(want)) + 1e-30
        assert np.max(np.abs(got - want)) / scale < 1e-6

    def test_log_operator_zero_direction(self):
        grid = PeriodicGrid(64)
        f0 = InterfaceProfile(grid, 0.2 * np.cos(grid.nodes))
        deriv = frechet_B0(f0, np.zeros(grid.n_points))
        assert np.max(np.abs(deriv(np.cos(grid.nodes)))) < 1e-14

    def test_flat_base_structure(self):
        # at a flat base profile the log-operator derivative reduces to the
        # two members with the direction in the difference slot
        grid = PeriodicGrid(64)
        zero = InterfaceProfile.zero(grid)
        h = np.cos(grid.nodes)
        density = np.sin(2 * grid.nodes)
        want = 2 * (eval_B(member_spec(zero, 1, 1, 1, 0, h), density)
                    + eval_B(member_spec(zero, 1, 1, 3, 0, h), density))
        got = frechet_B0(zero, h)(density)
        assert np.max(np.abs(got - want)) < 1e-15
