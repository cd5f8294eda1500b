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
Each kernel of the three families is one slot product (``_slot_kernel``):
the numerator quotients over the denominator factors 1 + quotient**2, each
built once per difference table and multiplied in the order of the slots.

The six named composites 1..6 that enter the interface velocity are the
on-interface traces of the layer integrals Z_1..Z_6: each is one contraction
against the closed-form layer kernel at r = (s, delta f).  The kernels are
the real and imaginary parts of three complex tables, D = cot((r1 - i r2)/2),
r2 D and (r2/2)(1 + D^2) (``_LayerTables``), the same coding the bulk fields
use off the interface.  Their expansions as signed sums of tangent-family
members are kept only as a test oracle.  Composite 0 is the logarithmic
operator ``eval_B0``.  ``DiagonalOps`` builds D at r = (s, delta f) once per
profile, into a pooled set of plain (N, N) arrays, and applies each
composite as a part of the product of its table with a density's half-grid
samples: the ``_LayerSums`` that ``fields`` uses, one rule per point set.

The Fréchet derivatives ``frechet_B`` and ``frechet_B0`` are signed sums of
tangent-family members of the base profile whose extra difference slots
hold the directions: each term is the ``eval_B`` kernel of that member,
all contracted on one workspace and its difference tables.

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

import threading
import weakref
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .core import InterfaceProfile, PeriodicGrid, TWO_PI, _half_samples

__all__ = [
    "OperatorSpec",
    "KernelWorkspace",
    "DiagonalOps",
    "hilbert_transform",
    "eval_B",
    "eval_C",
    "eval_A",
    "eval_B0",
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
def _wrap_index(n: int) -> np.ndarray:
    index = (3 * n // 2 - 2 - np.arange(2 * n - 1)) % n
    index.flags.writeable = False
    return index


def _circulant(vec: np.ndarray) -> np.ndarray:
    """Read-only (n, n) view T[i, j] = vec[(i - j - 1 + n/2) mod n], no copy.

    For half-grid samples, T[i, j] is the sample at xi_i - s_j on the
    midpoint nodes s_j.  The index map is its own inverse, so for a vector
    over the nodes, T[i, m] is the node that row i pairs with half-grid
    sample m.  Row i is the window wrapped[n-1-i : 2n-1-i] of one wrapped
    copy of vec.
    """
    n = len(vec)
    wrapped = vec[_wrap_index(n)]
    step = wrapped.strides[0]
    view = np.ndarray((n, n), wrapped.dtype, wrapped, (n - 1) * step, (-step, step))
    view.flags.writeable = False
    return view


class KernelWorkspace:
    """Quadrature nodes and weights for one evaluation context.

    Builds, per argument function d, the sampling table d(xi_i - s_j) and the
    difference table d(xi_i) - d(xi_i - s_j), both of shape (N, M).  Tables
    are built afresh on every call, so an input changed in place is never
    served from a stale copy.  A kernel build (``_slot_kernel``) makes each
    quotient of a difference table once, in a memo that lives for that build
    only.
    """

    def __init__(self, grid: PeriodicGrid, rule: str = "midpoint", m_quad: int | None = None):
        self.grid = grid
        n = grid.n_points
        if rule == "midpoint":
            m = m_quad or n
            if m < 2 or m % 2:        # an odd m puts a node on the singularity s = 0
                raise ValueError(f"midpoint m_quad must be even and >= 2, got {m}")
            self.nodes, self.weights = _midpoint_rule(m)
        elif rule == "gauss":
            m = m_quad or n // 2
            if m < 1:
                raise ValueError(f"gauss m_quad must be >= 1, got {m}")
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
            return _circulant(_half_samples(values)[0])
        c = np.fft.fft(values) / n
        phase = np.exp(-1j * np.outer(self.grid.wavenumbers, self.nodes))
        return np.fft.ifft(c[:, None] * phase * n, axis=0).real

    def delta(self, values: np.ndarray) -> np.ndarray:
        """Difference table D[i, j] = d(xi_i) - d(xi_i - s_j)."""
        return np.asarray(values, dtype=float)[:, None] - self.sample(values)

    def contract(self, kernel: np.ndarray, density_values: np.ndarray) -> np.ndarray:
        """sum_j kernel[i, j] * phi(xi_i - s_j) * w_j, fixed summation order.
        The product is formed in place: ``kernel`` is overwritten."""
        kernel *= self.sample(density_values)
        return kernel @ self.weights


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
        for name in ("args_a", "args_b", "args_c"):
            for i, pr in enumerate(getattr(self, name)):
                if not isinstance(pr, InterfaceProfile):
                    raise ValueError(f"{name}[{i}] holds a {type(pr).__name__}, "
                                     "not an InterfaceProfile")
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

def _quotient(ws, kind, delta):
    """A slot quotient over a difference table, in a fresh table: the tangent
    quotient tanh(delta/2)/tan(s/2) ("tanh"), the half-difference quotient
    (delta/2)/tan(s/2) ("half") or the difference quotient delta/s ("diff")."""
    if kind == "diff":
        return np.divide(delta, ws.nodes)
    q = np.divide(delta, 2.0)
    if kind == "tanh":
        np.tanh(q, out=q)
    q /= ws.tan_half
    return q


def _slot_kernel(ws, numerator, denominator):
    """The product of the ``numerator`` slot factors over that of 1 + q**2
    for the ``denominator`` slots, in a fresh table.  A slot (kind, delta)
    is the ``_quotient`` q of that kind over a difference table.  Each q and
    each 1 + q**2 is built once per table, keyed by the table's identity
    (the caller holds its tables for the build), and read by every slot that
    table fills; the memo goes with the build.  Each product runs in slot
    order from a copy of its first factor, so the kernel has the bits of the
    slot-by-slot product."""
    memo = {}

    def factor(kind, delta, squared):
        key = kind, id(delta)
        if key not in memo:
            memo[key] = _quotient(ws, kind, delta)
        if squared:
            q, key = memo[key], key + ("1 + q**2",)
            if key not in memo:
                memo[key] = np.square(q)
                memo[key] += 1.0
        return memo[key]

    def product(slots, squared):
        if not slots:
            return np.ones((ws.grid.n_points, len(ws.nodes)))
        out = factor(*slots[0], squared).copy()
        for kind, delta in slots[1:]:
            out *= factor(kind, delta, squared)
        return out

    K = product(numerator, False)
    if denominator:
        K /= product(denominator, True)
    return K


def _tangent_kernel(ws, deltas_a, deltas_b, deltas_c, p):
    K = _slot_kernel(ws, [("tanh", d) for d in deltas_b] + [("half", d) for d in deltas_c],
                     [("tanh", d) for d in deltas_a])
    K /= 2.0 * np.pi
    K *= ws.tan_half ** (p - 1)
    return K


def _difference_kernel(ws, deltas_a, deltas_b):
    K = _slot_kernel(ws, [("diff", d) for d in deltas_b], [("diff", d) for d in deltas_a])
    K /= np.pi * ws.nodes
    return K


def _regularized_kernel(ws, deltas_a, deltas_b, deltas_c, ell):
    # the tangent kernel over tan(s/2)**ell less its difference counterpart
    # over (s/2)**ell
    K = _tangent_kernel(ws, deltas_a, deltas_b, deltas_c, 1 - ell)
    D = _difference_kernel(ws, deltas_a, deltas_b + deltas_c)
    D *= (2.0 / ws.nodes) ** (ell - 1)
    K -= D
    return K


def _apply(spec: OperatorSpec, density, rule, m_quad, build) -> np.ndarray:
    """Contract the kernel build(ws, deltas_a, deltas_b, deltas_c) with the
    density.  Each distinct argument profile gets one difference table,
    shared by every slot it fills, and the build makes each of its
    quotients once (``_slot_kernel``)."""
    grid = _resolve_grid(spec, density)
    ws = KernelWorkspace(grid, rule, m_quad)
    profiles = dict.fromkeys(spec.args_a + spec.args_b + spec.args_c)
    tables = {pr: ws.delta(pr.values) for pr in profiles}
    da, db, dc = ([tables[pr] for pr in args] for args in (spec.args_a, spec.args_b, spec.args_c))
    return ws.contract(build(ws, da, db, dc), _density_values(density, grid))


def eval_B(spec: OperatorSpec, density, *, m_quad: int | None = None) -> np.ndarray:
    """Nodal values of the tangent-family operator applied to the density."""
    return _apply(spec, density, "midpoint", m_quad,
                  lambda ws, da, db, dc: _tangent_kernel(ws, da, db, dc, spec.p))


def eval_C(spec: OperatorSpec, density, *, rule: str = "midpoint",
           m_quad: int | None = None) -> np.ndarray:
    """Nodal values of the difference-family (1/s kernel) principal value.

    The family has no power of s and no difference-numerator slots, so a
    spec with p or q nonzero is rejected.  The default midpoint rule shares
    nodes with :func:`eval_B`, making the algebraic identities between the
    families exact at the discrete level; ``rule="gauss"`` gives converged
    continuum values instead.
    """
    if spec.p or spec.q:
        raise ValueError(f"eval_C takes p = q = 0, got p={spec.p}, q={spec.q}")
    return _apply(spec, density, rule, m_quad,
                  lambda ws, da, db, dc: _difference_kernel(ws, da, db))


def eval_A(spec: OperatorSpec, ell: int, density, *, rule: str = "midpoint",
           m_quad: int | None = None) -> np.ndarray:
    """Nodal values of the regularized-difference operator (bounded kernel).
    Its power of tan(s/2) is ``ell``, so a spec with p nonzero is rejected."""
    if ell not in (1, 2):
        raise ValueError("ell must be 1 or 2")
    if spec.p:
        raise ValueError(f"eval_A takes p = 0 (its power is ell), got p={spec.p}")
    return _apply(spec, density, rule, m_quad,
                  lambda ws, da, db, dc: _regularized_kernel(ws, da, db, dc, ell))


# ---------------------------------------------------------------------------
# Fourier multiplier operators
# ---------------------------------------------------------------------------

def hilbert_transform(density) -> np.ndarray:
    """Periodic Hilbert transform via its multiplier -i*sign(k); mean to zero.

    The density is a profile or its nodal values, which fix the grid.  The
    Nyquist mode is zeroed as well: its transform samples to zero on the
    collocation grid.
    """
    if isinstance(density, InterfaceProfile):
        density = density.values
    values = np.asarray(density, dtype=float)
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


def eval_B0(f: InterfaceProfile, density) -> np.ndarray:
    """Logarithmic-kernel operator: composite 0 of :class:`DiagonalOps`.

    The log kernel Z0 = ln(sin^2(s/2) + sinh^2(delta f/2)) is written as
    ln(sin^2(s/2)) (applied spectrally) plus the remainder Z0 - ln(sin^2(s/2)),
    which is bounded and handled by the half-grid midpoint rule; Z0 is built
    from the table D of the other composites.
    """
    return DiagonalOps(f).composite(0, density)


# ---------------------------------------------------------------------------
# the layer kernels Z_0 .. Z_6
# ---------------------------------------------------------------------------

# the tables of a working set and their dtypes
_SET_NAMES = {"r2": np.float64, "cot": np.complex128, "pair": np.complex128}


def _cache_aligned(n: int, dtype) -> np.ndarray:
    """An (n, n) heap table that starts on a 64-byte cache line.  glibc puts
    a large block 16 bytes past a page boundary, and on such tables the
    layer-table builds at N = 512 took about a quarter longer."""
    size = n * n * np.dtype(dtype).itemsize
    block = np.empty(size + 64, np.uint8)
    start = -block.ctypes.data % 64
    return block[start:start + size].view(dtype).reshape(n, n)


class _TablePool:
    """Working sets of (N, N) layer tables, leased to ``DiagonalOps``.

    A set is a dict of the tables of ``_SET_NAMES``, five float64 tables'
    worth, overwritten in place by each ``_LayerTables`` built on it.  A lease
    takes the idle set if it was made for the same N and allocates a new one
    otherwise; a released set becomes the idle one.  So at most one idle set
    is kept, for the most recent N, and a set is never held by two live
    leases: a second concurrent lease allocates its own.  Without the pool,
    fresh tables cost a warm ``eval_Psi`` 609 and 1539 page faults and
    1.4-1.6x the time at N = 256 and 512.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._idle_n, self._idle = None, None

    def lease(self, n: int) -> dict:
        with self._lock:
            tables = self._idle if self._idle_n == n else None
            self._idle_n, self._idle = None, None
        if tables is None:
            tables = {name: _cache_aligned(n, dtype) for name, dtype in _SET_NAMES.items()}
        return tables

    def release(self, n: int, tables: dict) -> None:
        with self._lock:
            self._idle_n, self._idle = n, tables


_TABLE_POOL = _TablePool()


# index -> (lead, take, factor): Z_index = factor * take(the table of lead).
# D (lead 1) is built with the tables; the log table (lead 0), r2 (1 + D^2)
# (lead 3) and r2 D (lead 5) go into the pair slot
_PARTS = ((0, np.real, 1.0), (1, np.real, 1.0), (1, np.imag, 1.0), (3, np.real, 0.5),
          (3, np.imag, 0.25), (5, np.real, 1.0), (5, np.imag, 1.0))


class _LayerTables:
    """The complex table D = cot((r1 - i r2)/2) = Z1 + i Z2 and the layer
    kernels Z_0..Z_6 read from it.

    Each kernel but Z0 is a part of one of three complex tables,

        D = Z1 + i Z2      r2 D = Z5 + i Z6      (r2/2)(1 + D^2) = Z3 + 2i Z4,

    and Z0 = |r2| - ln(Z1^2 + (1 + |Z2|)^2) is real; all are finite wherever
    r is off the lattice (2*pi*Z, 0).  In real variables s1, c1 = sin(r1/2),
    cos(r1/2), s2, c2 = sinh(r2/2), cosh(r2/2) and S = s1^2 + s2^2 they are
    the periodic vortex-sheet kernels Z0 = ln S, Z1 = s1 c1/S, Z2 = s2 c2/S.
    Off the interface they are the layer integrands of the bulk fields; at
    r = (s, delta f) they are, over 2*pi, the kernels of the trace
    composites 1..6.

    D is built as C = cot(w/2), w = r1 + i|r2|, with its imaginary part then
    given the sign of r2 (one ``copysign``).  C = i + 2i/Q with Q = e^{iw} - 1
    = u (u t + 2i s1), u = e^{i r1/2} and t = expm1(-|r2|), so the inner
    factor is c1 t + i s1 (t + 2).  Each factor keeps its relative digits as
    w -> 0, and e^{-|r2|} <= 1 never overflows, so the kernels are finite
    however far r is from the interface.  The constructor takes the phase
    table u itself, in the shape of r2, which is the tables' shape: on the
    interface ``DiagonalOps`` passes a circulant view of u at the quadrature
    nodes, so that r1 is exactly the node; off it, u is an outer product of
    phases or a broadcast table.

    Every table is written in place: r2 is the caller's, and D and the one
    ``pair`` slot go into ``tables`` (a working set of ``_TABLE_POOL``) or,
    without it, into fresh arrays.  ``part`` builds the other tables into
    the slot when first asked for, each overwriting the last; this object
    alone tracks which one the slot holds.  Held as a complex table,
    (r2/2)(1 + D^2) is r2 (1 + D^2), and the factors of ``_PARTS`` take its
    halves.  While the slot holds no complex table its bytes are two
    contiguous real tables: the constructor's expm1 scratch, then the log
    table and its scratch.  A ``log_shift`` table is subtracted from the log
    table: the trace passes ln(sin^2(r1/2)), leaving the bounded remainder of
    Z0 that it adds to the spectrally applied log.
    """

    def __init__(self, u, r2, tables: dict | None = None, log_shift=None):
        self.r2, self.log_shift = r2, log_shift
        shape = np.shape(r2)
        if tables is None:
            tables = {name: np.empty(shape, complex) for name in ("pair", "cot")}
        self._pair = tables["pair"]
        # reshape(-1) first: a 0-d complex array has no float view
        reals = self._pair.reshape(-1).view(np.float64).reshape((2,) + shape)
        self._log, self._scratch = reals[0, ...], reals[1, ...]
        self._held = None
        t = np.abs(r2, out=self._scratch)
        np.negative(t, out=t)
        np.expm1(t, out=t)
        c = self.cot = tables["cot"]
        np.multiply(u.real, t, out=c.real)
        t += 2.0
        np.multiply(u.imag, t, out=c.imag)
        c *= u                                          # Q
        np.divide(2j, c, out=c)
        c += 1j
        np.copysign(c.imag, r2, out=c.imag)             # D

    @classmethod
    def at(cls, r1, r2):
        r1, r2 = np.broadcast_arrays(np.asarray(r1, dtype=float), np.asarray(r2, dtype=float))
        u = np.multiply(r1, 0.5j, out=np.empty(r1.shape, complex))
        np.exp(u, out=u)
        return cls(u, r2)

    def part(self, index: int):
        """Z_index as (table, take, factor): Z_index = factor * take(table),
        where take is ``np.real`` or ``np.imag``; so a product of the table
        with real samples, taken apart, gives the integral."""
        lead, take, factor = _PARTS[index]
        if lead == 1:
            return self.cot, take, factor
        if self._held != lead:
            self._held = None                   # the slot is rewritten in place
            self._build(lead)
            self._held = lead
        return (self._log if lead == 0 else self._pair), take, factor

    def _build(self, lead: int) -> None:
        """Write the table of ``lead`` into the pair slot."""
        d, p, r2 = self.cot, self._pair, self.r2
        if lead == 5:
            np.multiply(d, r2, out=p)
        elif lead == 3:
            np.square(d, out=p)
            p += 1.0
            p *= r2
        else:
            z, scratch = self._log, self._scratch
            np.abs(d.imag, out=z)
            z += 1.0
            np.square(z, out=z)
            z += np.square(d.real, out=scratch)
            np.log(z, out=z)
            np.subtract(np.abs(r2, out=scratch), z, out=z)
            if self.log_shift is not None:
                z -= self.log_shift


# ---------------------------------------------------------------------------
# layer sums on and off the interface
# ---------------------------------------------------------------------------

class _LayerSums:
    """Layer integrals Z_index[density] by a list of rules.  A rule is
    (share, sample, product): the outputs it fills, its density sampler and
    product(index, samples), the weighted sum over its nodes of the table of
    the lead of ``_PARTS[index]`` (for a table rule, ``part(index)`` of its
    ``_LayerTables``) against the samples.  One memo samples each density
    once, keyed by its values (so one changed in place is sampled afresh);
    one takes each product once per (lead, density): both parts of a
    complex table come from one product."""

    def __init__(self, grid: PeriodicGrid, n_out: int, rules):
        self.grid, self.n_out, self._rules = grid, n_out, rules
        self._samples, self._products = {}, {}

    def _sampled(self, density):
        values = _density_values(density, self.grid)
        key = values.tobytes()
        samples = self._samples.get(key)
        if samples is None:
            samples = self._samples[key] = [sample(values) for _, sample, _ in self._rules]
        return key, samples

    def _sum(self, index: int, key: bytes, samples) -> np.ndarray:
        if index not in range(7):
            raise ValueError(f"Z index must be 0..6, got {index}")
        lead, take, factor = _PARTS[index]
        products = self._products.get((lead, key))
        if products is None:
            products = self._products[lead, key] = [
                product(index, v) for (_, _, product), v in zip(self._rules, samples)]
        z = np.empty(self.n_out)
        for (share, *_), p in zip(self._rules, products):
            z[share] = take(p) * factor
        return z

    def composite(self, index: int, density) -> np.ndarray:
        return self._sum(index, *self._sampled(density))

    def composites(self, index: int, *densities) -> list:
        return [self.composite(index, d) for d in densities]


# ---------------------------------------------------------------------------
# diagonal fast path and the named composites
# ---------------------------------------------------------------------------

class DiagonalOps(_LayerSums):
    """The layer sums on the interface of one profile f.

    ``composite`` applies the named composites 0..6, the layer sums of the
    half-grid midpoint rule at r = (s, delta f); composite 0 is the
    logarithmic operator ``eval_B0``.  The constructor builds D into a
    working set leased from ``_TABLE_POOL`` and returned when this object is
    freed, so a new instance at the same N reuses its memory.  Its one rule
    covers every output and folds the weight h/(2 pi) into its contraction;
    the part factors 1, 1/2 and 1/4 are powers of two, so the order of the
    two scalings does not change a bit.
    """

    def __init__(self, f: InterfaceProfile):
        # circulant coordinates: column m holds the half-grid sample m, which
        # row i pairs with the quadrature node s_j, j = (i - m - 1 + N/2) mod N;
        # the difference table is the outer difference f(xi_i) - f_half[m]
        # and u = e^{i s_j/2} and the log shift are strided views of N-vectors
        n = f.grid.n_points
        self.f = f
        tables = _TABLE_POOL.lease(n)
        weakref.finalize(self, _TABLE_POOL.release, n, tables)
        r2 = np.subtract.outer(f.values, _half_samples(f.values)[0], out=tables["r2"])
        u = np.exp(0.5j * _midpoint_rule(n)[0])
        layer = _LayerTables(_circulant(u), r2, tables,
                             log_shift=_circulant(np.log(u.imag ** 2)))
        scale = f.grid.spacing / TWO_PI
        super().__init__(f.grid, n, [(slice(None), _half_samples,
                                      lambda index, v: (layer.part(index)[0] @ v[0]) * scale)])

    def kernel(self, n: int, m: int, p: int, q: int) -> np.ndarray:
        """The diagonal tangent-family kernel of f, the one ``eval_B`` builds."""
        # bench/tracer.py still wraps this reader; ROADMAP item 1 retires it
        ws = KernelWorkspace(self.grid)
        df = ws.delta(self.f.values)
        return _tangent_kernel(ws, [df] * m, [df] * n, [df] * q, p)

    def composite(self, index: int, density) -> np.ndarray:
        """Composite ``index`` of a density: a part of its table's product with
        the half-grid samples; index 0 adds the spectral log part."""
        key, samples = self._sampled(density)
        out = self._sum(index, key, samples)
        if index == 0:
            return np.fft.ifft(_log_sin_multiplier(self.grid.n_points) * samples[0][1]).real + out
        return out


# ---------------------------------------------------------------------------
# analytic directional derivatives in the interface argument
# ---------------------------------------------------------------------------

def _member_sum(f0: InterfaceProfile, terms, directions):
    """The map density -> sum of coef * B[n, m, p, q + k] over ``terms``
    (coef, (n, m, p, q)), in their order: each member has f0 in its m, n and
    q slots and the k ``directions`` in its last difference slots.  An
    application builds one workspace, f0's difference table and one table
    per direction, and contracts each member's ``eval_B`` kernel on them."""
    extras = [InterfaceProfile(f0.grid, d.values if isinstance(d, InterfaceProfile) else d).values
              for d in directions]

    def operator(density):
        ws = KernelWorkspace(f0.grid)
        df, dx = ws.delta(f0.values), [ws.delta(v) for v in extras]
        values = _density_values(density, f0.grid)
        out = np.zeros(f0.grid.n_points)
        for coef, (n, m, p, q) in terms:
            out += coef * ws.contract(_tangent_kernel(ws, [df] * m, [df] * n, [df] * q + dx, p),
                                      values)
        return out

    return operator


def frechet_B(spec, f0: InterfaceProfile, direction, *, directions: tuple = ()):
    """Derivative of the diagonal tangent-family operator in its profile.

    Returns the linear density-to-values map h -> (d/d f) B[n,m,p,q](f0)
    applied in the given direction.  ``directions`` carries the extra
    difference slots of an already-differentiated member (its length is the
    derivative order built up so far); validity then requires only
    p <= n + q + len(directions) + 1, so ``spec`` may be a bare (n, m, p, q)
    tuple for members whose p exceeds the underived bound.  An
    ``OperatorSpec`` must be diagonal in f0: a slot holding a profile with
    other values is rejected.
    """
    if isinstance(spec, OperatorSpec):
        if any(not np.array_equal(pr.values, f0.values)
               for pr in spec.args_a + spec.args_b + spec.args_c):
            raise ValueError("frechet_B differentiates the member diagonal in f0; "
                             "a slot of the spec holds another profile")
        spec = (spec.n, spec.m, spec.p, spec.q)
    n, m, p, q = spec
    k = len(directions)
    if p > n + q + k + 1:
        raise ValueError("invalid member indices for the requested derivative")

    terms = []
    if n:
        terms += [(n, (n - 1, m, p, q)), (-n, (n + 1, m, p + 2, q))]
    if m:
        terms += [(2 * m, (n + 3, m + 1, p + 2, q)), (-2 * m, (n + 1, m + 1, p, q))]
    if q:
        terms += [(q, (n, m, p, q - 1))]
    return _member_sum(f0, terms, tuple(directions) + (direction,))


def frechet_B0(f0: InterfaceProfile, direction):
    """Derivative of the logarithmic operator in its profile argument."""
    return _member_sum(f0, [(2.0, (1, 1, 1, 0)), (2.0, (1, 1, 3, 0))], (direction,))
