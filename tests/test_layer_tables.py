"""The layer kernels of ``_LayerTables`` against a 50-digit reference: on
the interface, the log remainder that composite 0 contracts, and off it,
Z0..Z6 of ``_LayerTables.at`` where a real coding could lose its digits
(tiny and huge |r2|, r1 next to the lattice, r1 = +/-pi)."""

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")
pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from stokes2p import InterfaceProfile, PeriodicGrid, PhysParams, eval_Psi, operators  # noqa: E402
from stokes2p.core import _samples  # noqa: E402
from stokes2p.fields import stokeslet_eval  # noqa: E402

EPS = np.finfo(float).eps


def reference_remainder(r1: float, r2: float) -> float:
    """The trace's log remainder Z0 - ln sin^2(r1/2) = log1p(sinh^2(r2/2) /
    sin^2(r1/2)) to 50 digits."""
    with mpmath.workdps(50):
        r1, r2 = mpmath.mpf(r1), mpmath.mpf(r2)
        return float(mpmath.log1p(mpmath.sinh(r2 / 2) ** 2 / mpmath.sin(r1 / 2) ** 2))


def reference_kernels(r1: float, r2: float) -> list:
    """Z0..Z6 at r = (r1, r2), the floats taken as exact, to 50 digits:
    with s1, c1 = sin(r1/2), cos(r1/2), s2, c2 = sinh(r2/2), cosh(r2/2)
    and S = s1^2 + s2^2, Z0 = ln S, D = (s1 c1, s2 c2)/S, Z3 = (r2/2)(1 +
    Z1^2 - Z2^2), Z4 = r2 Z1 Z2/2, Z5 = r2 Z1 and Z6 = r2 Z2."""
    with mpmath.workdps(50):
        r1, r2 = mpmath.mpf(r1), mpmath.mpf(r2)
        s1, c1 = mpmath.sin(r1 / 2), mpmath.cos(r1 / 2)
        s2, c2 = mpmath.sinh(r2 / 2), mpmath.cosh(r2 / 2)
        s = s1 * s1 + s2 * s2
        z1, z2 = s1 * c1 / s, s2 * c2 / s
        return [mpmath.log(s), z1, z2, r2 / 2 * (1 + z1 * z1 - z2 * z2), r2 * z1 * z2 / 2,
                r2 * z1, r2 * z2]


class TestTraceLogRemainder:
    """Composite 0 contracts Z0 - ln sin^2(r1/2) = log1p(sinh^2(r2/2) /
    sin^2(r1/2)) at r = (node, delta f).  For a small profile that is of
    the size of f'^2, and a coding that subtracts ln sin^2 from a log of
    the whole kernel loses its digits (off by 1.3 relative at amplitude
    1e-6, 6.3e-5 at 1e-3 and 8.3e-10 at 0.3); log1p(t^2/q) keeps them."""

    @pytest.mark.parametrize("amplitude", [1e-6, 1e-3, 0.3])
    def test_matches_the_reference(self, amplitude):
        # the product with a unit vector e_m is column m of the table:
        # rows 0..63 (the first row block at N = 512) of seven columns
        n = 512
        grid = PeriodicGrid(n)
        f = InterfaceProfile(grid, amplitude * (np.cos(grid.nodes)
                                                + 0.5 * np.sin(2 * grid.nodes)))
        half = _samples(f.values)[0]
        nodes = operators._midpoint_rule(n)[0]
        worst = 0.0
        columns = (0, 1, 37, 255, 256, 400, 511)
        units = np.eye(n)[list(columns)]
        products = operators._sweep(f, half, {0: units})[0] / (grid.spacing / (2.0 * np.pi))
        for m, column in zip(columns, products):
            for i in range(64):
                want = reference_remainder(nodes[(i - m - 1 + n // 2) % n],
                                           f.values[i] - half[m])
                worst = max(worst, abs(column[i] - want) / want)
        assert worst <= 1e-14

    def test_tall_profile_stays_finite(self):
        # |delta f| reaches 800, where e^{-|r2|} underflows: the remainder
        # takes it at a floor and adds the rest back
        grid = PeriodicGrid(64)
        f = InterfaceProfile(grid, 400.0 * np.cos(grid.nodes))
        psi = eval_Psi(f, PhysParams.from_theta(1.0, 1.0, 1.0))
        assert np.all(np.isfinite(psi))
        assert abs(np.mean(psi)) <= 1e-12 * np.max(np.abs(psi))


# r1: anywhere, a few ulps from 0 (subnormal and normal) or at +/-pi
_R1 = st.one_of(
    st.floats(-7.0, 7.0),
    st.integers(1, 4).map(lambda k: k * 5e-324) | st.integers(1, 4).map(lambda k: k * 1e-300),
    st.sampled_from([np.pi, -np.pi, np.nextafter(np.pi, 0.0), 2.0 * np.pi]),
).flatmap(lambda r1: st.sampled_from([r1, -r1]))
# |r2| log-uniform from 1e-12 to 800, where e^{-|r2|} underflows, either sign
_R2 = st.tuples(st.floats(-12.0, np.log10(800.0)), st.sampled_from([1.0, -1.0])).map(
    lambda e: e[1] * 10.0 ** e[0])


class TestKernelsAgainstReference:
    """Z0..Z6 of ``_LayerTables.at`` are finite and within 8 ulps of the
    reference in the scale of each: 1 + |Z0| for Z0; |D| for Z1 and Z2;
    |r2| |D| for Z5, Z6; |r2| |D|^2 for Z4 and |r2| (1 + |D|^2) for Z3, a
    difference of terms of that size.  Z2 has all its digits besides:
    within 8 ulps of itself.  So has Z1 where |r2| <= 1; it is carried as
    4 (1 + t) s1 c1/den, so it has an absolute epsilon where e^{-|r2|} is
    small.  Where |r1| >= 1e-6, the trace's log remainder is within 8 ulps
    of itself, up to |r2| = 800.  The worst seen in 6000 draws was 2.6
    ulps for the kernels and 2.9 for the remainder."""

    ULPS = 8

    @settings(max_examples=300, deadline=None)
    @given(r1=_R1, r2=_R2)
    @example(r1=5e-324, r2=1e-12)
    @example(r1=np.pi, r2=-800.0)
    @example(r1=-np.pi, r2=3e-7)
    def test_within_ulps(self, r1, r2):
        tables = operators._LayerTables.at(r1, r2)
        got = []
        for index in range(7):
            table, take, factor = tables.part(index)
            got.append(float(factor * take(table)))
        want = [float(z) for z in reference_kernels(r1, r2)]
        d = np.hypot(want[1], want[2])
        scales = [1.0 + abs(want[0]), d, d, abs(r2) * (1.0 + d * d), abs(r2) * d * d,
                  abs(r2) * d, abs(r2) * d]
        assert np.all(np.isfinite(got))
        for index, (g, w, scale) in enumerate(zip(got, want, scales)):
            assert abs(g - w) <= self.ULPS * EPS * scale, index
        assert abs(got[2] - want[2]) <= self.ULPS * EPS * abs(want[2])
        if abs(r2) <= 1.0 and abs(want[1]) >= np.finfo(float).tiny:
            assert abs(got[1] - want[1]) <= self.ULPS * EPS * abs(want[1])
        if abs(r1) >= 1e-6:
            # the trace's remainder, past the floor of e^{-|r2|} too
            r1a, r2a = np.asarray(r1), np.asarray(r2)
            trace = operators._LayerTables(*operators._sines(r1a), r2a, remainder=True)
            rem = reference_remainder(r1, r2)
            assert abs(float(trace.part(0)[0]) - rem) <= self.ULPS * EPS * rem

    @pytest.mark.parametrize("remainder", [False, True])
    def test_log_after_a_pair_is_rebuilt(self, remainder):
        # a pair table overwrites the log's scratch; the log read after it
        # has the bits of one read first
        r1, r2 = np.array([0.3, -2.0, 3.1]), np.array([1e-3, -0.7, 40.0])
        want = operators._LayerTables(*operators._sines(r1), r2, remainder=remainder).part(0)[0]
        tables = operators._LayerTables(*operators._sines(r1), r2, remainder=remainder)
        d = tables.part(1)[0].copy()
        tables.part(3), tables.part(5)
        assert np.array_equal(tables.part(0)[0], want)
        assert np.array_equal(tables.part(1)[0], d)

    @pytest.mark.parametrize("x1", [0.0, 2.0 * np.pi, -4.0 * np.pi, 5e-324, -1e-300])
    def test_stokeslet_refuses_source_points(self, x1):
        with pytest.raises(ValueError, match="source point"):
            stokeslet_eval(np.array([x1, 0.5]), np.array([0.0, 0.3]))
