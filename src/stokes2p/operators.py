"""Singular integral operator calculus on periodic interface profiles.

Three kernel families act on 2*pi-periodic densities phi, each indexed by
small integer tuples and parameterized by argument profiles:

* tangent family ``B``: products of quotients tanh(delta/2)/tan(s/2) over a
  denominator of the same build, against phi(xi - s)/tan(s/2) * tan(s/2)**p.
  For p = 0 the kernel carries an odd principal-value singularity at s = 0;
  for p >= 1 it is bounded.  The (0,0,0,0) member is the periodic Hilbert
  transform.
* difference family ``C``: the same structure with plain difference
  quotients delta/s and a 1/s singularity on the window (-pi, pi).
* regularized family ``A``: the pointwise difference of a tangent-family
  kernel (with 1/tan(s/2)**ell) and its difference-quotient counterpart
  (with 1/(s/2)**ell); the kernel is bounded by |s|**(2-ell).

The three satisfy, kernel by kernel,

    B[n,m,0,q] = A[n,m,ell=1,q] + C[n+q,m]

and the difference family obeys C[n,m] + C[n+2,m] = C[n,m-1] for m >= 1.

The six named composites 1..6 that enter the interface velocity are the
on-interface traces of the layer integrals Z_1..Z_6: each is one contraction
against the closed-form layer kernel at r = (s, delta f), built from the
same half-angle tables (``_LayerTables``) the bulk fields use off the
interface.  Their expansions as signed sums of tangent-family members are
kept only as a test oracle.  Composite 0 is the logarithmic operator
``eval_B0``.  ``DiagonalOps`` builds the layer tables at r = (s, delta f)
once per profile and applies each composite as one product against the
half-grid samples of a density.

Quadrature.  Principal values use a midpoint rule with nodes straddling
s = 0 symmetrically (half a spacing off the collocation grid), so the
singularity is never sampled and odd singular parts cancel analytically.
For the tangent family the integrand is periodic and the rule converges
spectrally.  The 1/s kernels are not periodic, so the midpoint rule is only
second order for them; a symmetrized Gauss-Legendre rule is available
(``rule="gauss"``) when converged values rather than shared-node identities
are wanted.  Densities and arguments are sampled at xi_i - s_j by FFT phase
shifts, with a circulant fast path (a strided view of the half-grid samples)
when the nodes are the half grid.
"""

from __future__ import annotations

import mmap
import threading
import weakref
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial.legendre import leggauss

from .core import InterfaceProfile, PeriodicGrid, TWO_PI

__all__ = [
    "OperatorSpec",
    "KernelWorkspace",
    "DiagonalOps",
    "hilbert_transform",
    "eval_B",
    "eval_C",
    "eval_A",
    "eval_B0",
    "composite_B",
    "frechet_B",
    "frechet_B0",
]


# ---------------------------------------------------------------------------
# quadrature rules and sampling
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _midpoint_rule(m: int):
    h = TWO_PI / m
    s = -np.pi + (np.arange(m) + 0.5) * h
    w = np.full(m, h)
    s.flags.writeable = False
    w.flags.writeable = False
    return s, w


@lru_cache(maxsize=32)
def _gauss_rule(m_half: int):
    # Gauss-Legendre on (0, pi), mirrored to (-pi, 0): integrates the
    # symmetrized integrand, so odd singular parts cancel pairwise.
    x, w = leggauss(m_half)
    s_half = 0.5 * np.pi * (x + 1.0)
    w_half = 0.5 * np.pi * w
    s = np.concatenate([s_half, -s_half])
    w = np.concatenate([w_half, w_half])
    s.flags.writeable = False
    w.flags.writeable = False
    return s, w


@lru_cache(maxsize=32)
def _half_shift(n: int) -> np.ndarray:
    grid = PeriodicGrid(n)
    shift = np.exp(1j * grid.wavenumbers * (grid.spacing / 2))
    shift.flags.writeable = False
    return shift


def _half_grid(grid: PeriodicGrid, values: np.ndarray) -> np.ndarray:
    """Samples of the interpolant at the half grid (m + 1/2) h."""
    return np.fft.ifft(np.fft.fft(values) * _half_shift(grid.n_points)).real


def _circulant(vec: np.ndarray) -> np.ndarray:
    """Read-only (n, n) view T[i, j] = vec[(i - j - 1 + n/2) mod n], no copy.

    For half-grid samples, T[i, j] is the sample at xi_i - s_j on the
    midpoint nodes s_j.  The index map is its own inverse, so for a vector
    over the nodes, T[i, m] is the node that row i pairs with half-grid
    sample m.
    """
    n = len(vec)
    wrapped = vec[(3 * n // 2 - 2 - np.arange(2 * n - 1)) % n]
    return sliding_window_view(wrapped, n)[::-1]


class KernelWorkspace:
    """Quadrature nodes and weights for one evaluation context.

    Builds, per argument function d, the sampling table d(xi_i - s_j) and the
    difference table d(xi_i) - d(xi_i - s_j), both of shape (N, M).  Tables
    are built afresh on every call, so an input changed in place is never
    served from a stale copy.
    """

    def __init__(self, grid: PeriodicGrid, rule: str = "midpoint", m_quad: int | None = None):
        self.grid = grid
        self.rule = rule
        n = grid.n_points
        if rule == "midpoint":
            m = m_quad or n
            self.nodes, self.weights = _midpoint_rule(m)
        elif rule == "gauss":
            m = m_quad or n // 2
            self.nodes, self.weights = _gauss_rule(m)
        else:
            raise ValueError(f"unknown quadrature rule {rule!r}")
        self.tan_half = np.tan(self.nodes / 2.0)
        self._circulant = rule == "midpoint" and len(self.nodes) == n

    def sample(self, values: np.ndarray) -> np.ndarray:
        """Table T[i, j] = d(xi_i - s_j) for the interpolant of values."""
        values = np.asarray(values, dtype=float)
        n = self.grid.n_points
        if self._circulant:
            return _circulant(_half_grid(self.grid, values))
        c = np.fft.fft(values) / n
        phase = np.exp(-1j * np.outer(self.grid.wavenumbers, self.nodes))
        return np.fft.ifft(c[:, None] * phase * n, axis=0).real

    def delta(self, values: np.ndarray) -> np.ndarray:
        """Difference table D[i, j] = d(xi_i) - d(xi_i - s_j)."""
        return np.asarray(values, dtype=float)[:, None] - self.sample(values)

    def contract(self, kernel: np.ndarray, density_values: np.ndarray) -> np.ndarray:
        """sum_j kernel[i, j] * phi(xi_i - s_j) * w_j, fixed summation order."""
        return (kernel * self.sample(density_values)) @ self.weights


# ---------------------------------------------------------------------------
# operator specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OperatorSpec:
    """Index tuple (n, m, p, q) plus the argument profiles of one operator.

    args_a fills the m denominator slots, args_b the n tangent-numerator
    slots, args_c the q difference-numerator slots.  The standing constraint
    p <= n + q + 1 keeps the kernel bounded at |s| = pi.
    """

    n: int
    m: int
    p: int = 0
    q: int = 0
    args_a: tuple = ()
    args_b: tuple = ()
    args_c: tuple = ()

    def __post_init__(self):
        for name, val in (("n", self.n), ("m", self.m), ("p", self.p), ("q", self.q)):
            if val < 0:
                raise ValueError(f"index {name} must be nonnegative, got {val}")
        if self.p > self.n + self.q + 1:
            raise ValueError(
                f"invalid spec: p={self.p} exceeds n+q+1={self.n + self.q + 1}"
            )
        if len(self.args_a) != self.m or len(self.args_b) != self.n or len(self.args_c) != self.q:
            raise ValueError("argument counts must match (m, n, q)")
        grids = {pr.grid for pr in self.args_a + self.args_b + self.args_c}
        if len(grids) > 1:
            raise ValueError("all argument profiles must share one grid")

    @classmethod
    def diagonal(cls, n: int, m: int, p: int, q: int, f: InterfaceProfile) -> "OperatorSpec":
        """All argument slots filled with the same profile f."""
        return cls(n, m, p, q, (f,) * m, (f,) * n, (f,) * q)

    @property
    def grid(self) -> PeriodicGrid | None:
        for pr in self.args_a + self.args_b + self.args_c:
            return pr.grid
        return None


def _density_values(density, grid: PeriodicGrid) -> np.ndarray:
    if isinstance(density, InterfaceProfile):
        if density.grid != grid:
            raise ValueError("density grid does not match argument grid")
        return density.values
    values = np.asarray(density, dtype=float)
    if values.shape != (grid.n_points,):
        raise ValueError("density length does not match grid")
    return values


def _resolve_grid(spec: OperatorSpec, density) -> PeriodicGrid:
    grid = spec.grid
    if grid is None:
        if isinstance(density, InterfaceProfile):
            return density.grid
        return PeriodicGrid(len(np.asarray(density)))
    return grid


# ---------------------------------------------------------------------------
# kernel assembly
# ---------------------------------------------------------------------------

def _tangent_kernel(ws, deltas_a, deltas_b, deltas_c, p):
    t = ws.tan_half
    num = 1.0
    for db in deltas_b:
        num = num * (np.tanh(db / 2.0) / t)
    for dc in deltas_c:
        num = num * ((dc / 2.0) / t)
    den = 1.0
    for da in deltas_a:
        den = den * (1.0 + (np.tanh(da / 2.0) / t) ** 2)
    shape = (ws.grid.n_points, len(ws.nodes))
    return np.broadcast_to(num / den, shape) / (2.0 * np.pi) * t ** (p - 1)


def _difference_kernel(ws, deltas_a, deltas_b):
    s = ws.nodes
    num = 1.0
    for db in deltas_b:
        num = num * (db / s)
    den = 1.0
    for da in deltas_a:
        den = den * (1.0 + (da / s) ** 2)
    shape = (ws.grid.n_points, len(ws.nodes))
    return np.broadcast_to(num / den, shape) / (np.pi * s)


def _regularized_kernel(ws, deltas_a, deltas_b, deltas_c, ell):
    t = ws.tan_half
    s = ws.nodes
    num_t, den_t = 1.0, 1.0
    for db in deltas_b:
        num_t = num_t * (np.tanh(db / 2.0) / t)
    for dc in deltas_c:
        num_t = num_t * ((dc / 2.0) / t)
    for da in deltas_a:
        den_t = den_t * (1.0 + (np.tanh(da / 2.0) / t) ** 2)
    num_s, den_s = 1.0, 1.0
    for d in deltas_b + deltas_c:
        num_s = num_s * (d / s)
    for da in deltas_a:
        den_s = den_s * (1.0 + (da / s) ** 2)
    shape = (ws.grid.n_points, len(ws.nodes))
    bracket = num_t / den_t / t**ell - num_s / den_s / (s / 2.0) ** ell
    return np.broadcast_to(bracket, shape) / (2.0 * np.pi)


def eval_B(spec: OperatorSpec, density, *, m_quad: int | None = None,
           workspace: KernelWorkspace | None = None) -> np.ndarray:
    """Nodal values of the tangent-family operator applied to the density."""
    grid = _resolve_grid(spec, density)
    ws = workspace or KernelWorkspace(grid, "midpoint", m_quad)
    da = [ws.delta(a.values) for a in spec.args_a]
    db = [ws.delta(b.values) for b in spec.args_b]
    dc = [ws.delta(c.values) for c in spec.args_c]
    K = _tangent_kernel(ws, da, db, dc, spec.p)
    return ws.contract(K, _density_values(density, grid))


def eval_C(spec: OperatorSpec, density, *, rule: str = "midpoint",
           m_quad: int | None = None,
           workspace: KernelWorkspace | None = None) -> np.ndarray:
    """Nodal values of the difference-family (1/s kernel) principal value.

    The default midpoint rule shares nodes with :func:`eval_B`, making the
    algebraic identities between the families exact at the discrete level;
    ``rule="gauss"`` gives converged continuum values instead.
    """
    grid = _resolve_grid(spec, density)
    ws = workspace or KernelWorkspace(grid, rule, m_quad)
    da = [ws.delta(a.values) for a in spec.args_a]
    db = [ws.delta(b.values) for b in spec.args_b]
    K = _difference_kernel(ws, da, db)
    return ws.contract(K, _density_values(density, grid))


def eval_A(spec: OperatorSpec, ell: int, density, *, rule: str = "midpoint",
           m_quad: int | None = None,
           workspace: KernelWorkspace | None = None) -> np.ndarray:
    """Nodal values of the regularized-difference operator (bounded kernel)."""
    if ell not in (1, 2):
        raise ValueError("ell must be 1 or 2")
    grid = _resolve_grid(spec, density)
    ws = workspace or KernelWorkspace(grid, rule, m_quad)
    da = [ws.delta(a.values) for a in spec.args_a]
    db = [ws.delta(b.values) for b in spec.args_b]
    dc = [ws.delta(c.values) for c in spec.args_c]
    K = _regularized_kernel(ws, da, db, dc, ell)
    return ws.contract(K, _density_values(density, grid))


# ---------------------------------------------------------------------------
# Fourier multiplier operators
# ---------------------------------------------------------------------------

def hilbert_transform(density, grid: PeriodicGrid | None = None) -> np.ndarray:
    """Periodic Hilbert transform via its multiplier -i*sign(k); mean to zero.

    The Nyquist mode is zeroed as well: its transform samples to zero on the
    collocation grid.
    """
    if isinstance(density, InterfaceProfile):
        grid = density.grid
        values = density.values
    else:
        values = np.asarray(density, dtype=float)
        if grid is None:
            grid = PeriodicGrid(len(values))
    n = grid.n_points
    c = np.fft.fft(values)
    mult = -1j * np.sign(grid.wavenumbers)
    mult[n // 2] = 0.0
    return np.fft.ifft(mult * c).real


@lru_cache(maxsize=32)
def _log_sin_multiplier(n: int) -> np.ndarray:
    # multiplier of convolution with ln(sin^2(s/2))/(2*pi): -1/|k|, and
    # -ln 4 on the mean mode
    k = np.abs(np.fft.fftfreq(n, d=1.0 / n))
    mult = np.empty(n)
    mult[0] = -np.log(4.0)
    mult[1:] = -1.0 / k[1:]
    mult.flags.writeable = False
    return mult


def _log_sin_part(grid: PeriodicGrid, values: np.ndarray) -> np.ndarray:
    """Convolution with ln(sin^2(s/2))/(2*pi), applied spectrally."""
    return np.fft.ifft(_log_sin_multiplier(grid.n_points) * np.fft.fft(values)).real


def eval_B0(f: InterfaceProfile, density, *, m_quad: int | None = None,
            workspace: KernelWorkspace | None = None) -> np.ndarray:
    """Logarithmic-kernel operator, split into an exact multiplier plus a
    smooth periodic remainder.

    The log kernel ln(sin^2(s/2) + sinh^2(delta f/2)) is written as
    ln(sin^2(s/2)) (applied spectrally) plus ln(1 + sinh^2(delta f/2)/sin^2(s/2)),
    which is bounded and handled by the half-grid midpoint rule.
    """
    grid = f.grid
    values = _density_values(density, grid)
    ws = workspace or KernelWorkspace(grid, "midpoint", m_quad)
    half_nodes = ws.nodes / 2.0
    # the tables go as soon as K is built, before the contraction's tables
    K = _LayerTables(np.sin(half_nodes), np.cos(half_nodes), ws.delta(f.values),
                     {}).log_remainder() / (2.0 * np.pi)
    return _log_sin_part(grid, values) + ws.contract(K, values)


# ---------------------------------------------------------------------------
# the layer kernels Z_0 .. Z_6
# ---------------------------------------------------------------------------

def _table(tables: dict, name: str, shape) -> np.ndarray:
    """The working-set table ``name``; a fresh set allocates it on first use."""
    t = tables.get(name)
    if t is None:
        t = tables[name] = np.empty(shape)
    return t


_SET_NAMES = ("r2", "s2", "c2", "inv_d", "kernel", "temp")


def _mapped_table(n: int) -> np.ndarray:
    """An (n, n) float64 table in its own private anonymous memory map.

    A pooled table outlives the call that filled it.  Kept outside the
    malloc heap, it leaves the heap to grow and shrink around other code's
    temporaries as it would without the pool: in the heap, an idle set
    raised the page faults of the generic ``eval_A``/``eval_B``/``eval_C``
    path by about a quarter.  Pages are mapped when first written.
    """
    return np.frombuffer(mmap.mmap(-1, 8 * n * n, flags=mmap.MAP_PRIVATE),
                         dtype=np.float64).reshape(n, n)


class _TablePool:
    """Working sets of (N, N) layer tables, leased to ``DiagonalOps``.

    A set is a dict of the six named tables of ``_SET_NAMES``, overwritten
    in place by each ``_LayerTables`` built on it.  A lease takes the idle
    set if it was made for the same N and maps a new one otherwise; a
    released set becomes the idle one.  So at most one idle set is kept, for
    the most recent N, and a set is never held by two live leases: a second
    concurrent lease maps its own.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._idle_n, self._idle = None, None

    def lease(self, n: int) -> dict:
        with self._lock:
            tables = self._idle if self._idle_n == n else None
            self._idle_n, self._idle = None, None
        if tables is None:
            tables = {name: _mapped_table(n) for name in _SET_NAMES}
        return tables

    def release(self, n: int, tables: dict) -> None:
        with self._lock:
            self._idle_n, self._idle = n, tables


_TABLE_POOL = _TablePool()


class _LayerTables:
    """Half-angle tables at r = (r1, r2), shared by the layer kernels Z_0..Z_6.

    With s1, c1 = sin(r1/2), cos(r1/2), s2, c2 = sinh(r2/2), cosh(r2/2) and
    D = s1^2 + s2^2 the kernels are

        Z0 = ln D               Z3 = (r2/2)(s1^2 c2^2 - s2^2 c1^2)/D^2
        Z1 = s1 c1/D            Z5 = r2 Z1
        Z2 = s2 c2/D            Z6 = r2 Z2          Z4 = Z5 Z2/2,

    finite wherever r is off the lattice (2*pi*Z, 0).  They equal the
    half-angle expressions
        Z1: t(1-T^2)/E          Z2: T(1+t^2)/E
        Z3: (r2/2)(1+t^2)(1-T^2)(t^2-T^2)/E^2
        Z4: (r2/2) tT(1+t^2)(1-T^2)/E^2
    with t = tan(r1/2), T = tanh(r2/2), E = t^2 + T^2.  Off the interface
    they are the layer integrands of the bulk fields; at r = (s, delta f)
    they are, over 2*pi, the kernels of the trace composites 1..6.  s1 and
    c1 depend on r1 alone and are passed in, so that ``DiagonalOps`` can take
    them as circulant views of their values at the quadrature nodes.

    Every table is written in place into the working set ``tables`` (see
    ``_table``): s2, c2 and 1/D once, each kernel into the one ``kernel``
    table, which the next kernel overwrites.  Z3, Z4 and the log remainder
    also need the ``temp`` table.  ``DiagonalOps`` passes a set leased from
    ``_TABLE_POOL``; ``at`` passes an empty dict, filled on first use.
    """

    def __init__(self, s1, c1, r2, tables: dict):
        self.s1, self.c1, self.r2 = s1, c1, r2
        self._tables = tables
        self._shape = np.broadcast_shapes(np.shape(s1), np.shape(c1), np.shape(r2))
        s2 = np.divide(r2, 2.0, out=self._t("s2"))
        self.s2 = np.sinh(s2, out=s2)
        self._c2 = self._inv_d = None

    @classmethod
    def at(cls, r1, r2):
        r1, r2 = np.broadcast_arrays(r1, r2)
        half = r1 / 2.0
        return cls(np.sin(half), np.cos(half), r2, {})

    def _t(self, name: str) -> np.ndarray:
        return _table(self._tables, name, self._shape)

    # c2 and 1/D are built on first use and then shared by every kernel

    def c2(self):
        if self._c2 is None:
            c2 = np.divide(self.r2, 2.0, out=self._t("c2"))
            self._c2 = np.cosh(c2, out=c2)
        return self._c2

    def inv_d(self):
        # built by the first kernel that needs it, before that kernel is
        # written, so the kernel table is free to hold s2^2
        if self._inv_d is None:
            d = np.multiply(self.s1, self.s1, out=self._t("inv_d"))
            d += np.multiply(self.s2, self.s2, out=self._t("kernel"))
            self._inv_d = np.divide(1.0, d, out=d)
        return self._inv_d

    def log_remainder(self) -> np.ndarray:
        """ln(1 + s2^2/s1^2): Z0 less the ln(s1^2) that the trace applies
        spectrally; bounded where s1 != 0.  Written into the kernel table."""
        t = np.multiply(self.s2, self.s2, out=self._t("kernel"))
        t /= np.multiply(self.s1, self.s1, out=self._t("temp"))
        return np.log1p(t, out=t)

    def kernel(self, index: int) -> np.ndarray:
        """Z_index, written into the kernel table."""
        if index not in range(7):
            raise ValueError(f"Z index must be 0..6, got {index}")
        s1, c1, s2, r2 = self.s1, self.c1, self.s2, self.r2
        z = self._t("kernel")
        if index == 0:                      # off the Psi path: s2^2 is transient
            np.multiply(s1, s1, out=z)
            z += s2 * s2
            return np.log(z, out=z)
        inv_d = self.inv_d()
        if index == 3:
            np.multiply(s1, self.c2(), out=z)
            z *= z
            t = np.multiply(s2, c1, out=self._t("temp"))
            t *= t
            z -= t
            z *= r2
            z *= 0.5
            z *= inv_d
            z *= inv_d
            return z
        if index in (2, 6):
            np.multiply(s2, self.c2(), out=z)
            z *= inv_d
            if index == 6:
                z *= r2
            return z
        np.multiply(s1, c1, out=z)          # Z1
        z *= inv_d
        if index == 1:
            return z
        z *= r2                             # Z5
        if index == 4:
            t = np.multiply(s2, self.c2(), out=self._t("temp"))   # Z2
            t *= inv_d
            z *= t
            z *= 0.5
        return z


def _z_kernel(index, r1, r2):
    """Layer kernel Z_index at r = (r1, r2); see ``_LayerTables``."""
    return _LayerTables.at(r1, r2).kernel(index)


# ---------------------------------------------------------------------------
# diagonal fast path and the named composites
# ---------------------------------------------------------------------------

class DiagonalOps:
    """Evaluator for operators whose arguments all equal one profile f.

    ``composite`` applies the named composites 0..6 from one set of layer
    tables at r = (s, delta f).  The single members of the tangent family
    (used by the derivatives) come from powers of the difference table in
    node coordinates.  Both sets of tables are built on first use.  The
    layer tables go into a working set leased from ``_TABLE_POOL`` on first
    use and returned when this object is freed, so a new instance at the
    same N reuses the memory of the last one.
    """

    def __init__(self, f: InterfaceProfile):
        self.f = f
        self.ws = KernelWorkspace(f.grid)
        self._u_pow = {0: 1.0}
        self._den_pow = {0: 1.0}
        self._t_pow = {}
        self._kernels: dict[tuple, np.ndarray] = {}
        self._composite_index, self._composite_kernel = None, None

    @cached_property
    def df(self):
        return self.ws.delta(self.f.values)                  # node coordinates

    @cached_property
    def _u(self):
        return np.tanh(self.df / 2.0) / self.ws.tan_half     # tangent quotient

    @cached_property
    def _v(self):
        return (self.df / 2.0) / self.ws.tan_half            # difference slot

    @cached_property
    def _den(self):
        return 1.0 + self._u**2

    def _upow(self, n):
        if n not in self._u_pow:
            self._u_pow[n] = self._upow(n - 1) * self._u
        return self._u_pow[n]

    def _denpow(self, m):
        if m not in self._den_pow:
            self._den_pow[m] = self._denpow(m - 1) * self._den
        return self._den_pow[m]

    def _tpow(self, p):
        if p not in self._t_pow:
            self._t_pow[p] = self.ws.tan_half ** p
        return self._t_pow[p]

    def kernel(self, n: int, m: int, p: int, q: int) -> np.ndarray:
        # boundedness at |s| = pi (p <= n + q + #extras + 1) is the caller's
        # contract; the bare table is finite at the quadrature nodes regardless
        key = (n, m, p, q)
        K = self._kernels.get(key)
        if K is None:
            K = self._upow(n) * self._tpow(p - 1) / (2.0 * np.pi)
            if q:
                K = K * (self._v if q == 1 else self._v**q)
            if m:
                K = K / self._denpow(m)
            self._kernels[key] = K
        return K

    def apply_member(self, n, m, p, q, density_values, extra_diffs=()) -> np.ndarray:
        """One member applied to a density; extra_diffs appends difference
        slots filled by functions other than f (used by the derivatives)."""
        if p > n + q + len(extra_diffs) + 1:
            raise ValueError("invalid member indices")
        K = self.kernel(n, m, p, q)
        for d in extra_diffs:
            K = K * ((self.ws.delta(np.asarray(d, dtype=float)) / 2.0) / self.ws.tan_half)
        return self.ws.contract(K, density_values)

    @cached_property
    def _layer(self) -> _LayerTables:
        # circulant coordinates: column m holds the half-grid sample m, which
        # row i pairs with the quadrature node s_j, j = (i - m - 1 + N/2) mod N;
        # the difference table is the outer difference f(xi_i) - f_half[m]
        # and the sin/cos tables are strided views of N-vectors.  The tables
        # are written into a working set leased for the life of this object.
        n = self.f.grid.n_points
        tables = _TABLE_POOL.lease(n)
        weakref.finalize(self, _TABLE_POOL.release, n, tables)
        half_nodes = self.ws.nodes / 2.0
        r2 = np.subtract.outer(self.f.values, _half_grid(self.f.grid, self.f.values),
                               out=tables["r2"])
        return _LayerTables(_circulant(np.sin(half_nodes)), _circulant(np.cos(half_nodes)),
                            r2, tables)

    def composite(self, index: int, density) -> np.ndarray:
        """Composite ``index`` applied to a density: one product of its layer
        kernel against the density's half-grid samples (index 0 adds the
        spectral log part, from the same forward FFT).  The last kernel built
        is kept until another index is asked for, so calls grouped by index
        build each kernel once.
        """
        if index not in range(7):
            raise ValueError(f"composite index must be in 0..6, got {index}")
        grid = self.f.grid
        values = _density_values(density, grid)
        if self._composite_index != index:
            self._composite_index = None        # the kernel table is rewritten in place
            self._composite_kernel = (self._layer.log_remainder() if index == 0
                                      else self._layer.kernel(index))
            self._composite_index = index
        coeffs = np.fft.fft(values)
        half = np.fft.ifft(coeffs * _half_shift(grid.n_points)).real
        out = (self._composite_kernel @ half) * (grid.spacing / TWO_PI)
        if index == 0:
            return np.fft.ifft(_log_sin_multiplier(grid.n_points) * coeffs).real + out
        return out


def composite_B(index: int, f: InterfaceProfile, density, *,
                ops: DiagonalOps | None = None) -> np.ndarray:
    """The named diagonal combinations; index 0 is the logarithmic operator."""
    return (ops or DiagonalOps(f)).composite(index, density)


# ---------------------------------------------------------------------------
# analytic directional derivatives in the interface argument
# ---------------------------------------------------------------------------

def frechet_B(spec, f0: InterfaceProfile, direction, *, directions: tuple = ()):
    """Derivative of the diagonal tangent-family operator in its profile.

    Returns the linear density-to-values map h -> (d/d f) B[n,m,p,q](f0)
    applied in the given direction.  ``directions`` carries the extra
    difference slots of an already-differentiated member (its length is the
    derivative order built up so far); validity then requires only
    p <= n + q + len(directions) + 1, so ``spec`` may be a bare (n, m, p, q)
    tuple for members whose p exceeds the underived bound.
    """
    n, m, p, q = (spec.n, spec.m, spec.p, spec.q) if isinstance(spec, OperatorSpec) \
        else spec
    k = len(directions)
    if p > n + q + k + 1:
        raise ValueError("invalid member indices for the requested derivative")
    ops = DiagonalOps(f0)
    dvec = np.asarray(direction.values if isinstance(direction, InterfaceProfile) else direction,
                      dtype=float)
    extras = tuple(np.asarray(d.values if isinstance(d, InterfaceProfile) else d, dtype=float)
                   for d in directions) + (dvec,)

    terms = []
    if n:
        terms += [(n, (n - 1, m, p, q)), (-n, (n + 1, m, p + 2, q))]
    if m:
        terms += [(2 * m, (n + 3, m + 1, p + 2, q)), (-2 * m, (n + 1, m + 1, p, q))]
    if q:
        terms += [(q, (n, m, p, q - 1))]

    def operator(density):
        values = _density_values(density, f0.grid)
        out = np.zeros(f0.grid.n_points)
        for coef, (nn, mm, pp, qq) in terms:
            out += coef * ops.apply_member(nn, mm, pp, qq, values, extra_diffs=extras)
        return out

    return operator


def frechet_B0(f0: InterfaceProfile, direction):
    """Derivative of the logarithmic operator in its profile argument."""
    ops = DiagonalOps(f0)
    dvec = np.asarray(direction.values if isinstance(direction, InterfaceProfile) else direction,
                      dtype=float)

    def operator(density):
        values = _density_values(density, f0.grid)
        return 2.0 * (ops.apply_member(1, 1, 1, 0, values, extra_diffs=(dvec,))
                      + ops.apply_member(1, 1, 3, 0, values, extra_diffs=(dvec,)))

    return operator
