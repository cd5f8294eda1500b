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
r2 D and (r2/2)(1 + D^2), each held as two float64 planes and built in real
arithmetic (``_LayerTables``), the same coding the bulk fields use off the
interface.  Their expansions as signed sums of tangent-family members are
kept only as a test oracle.  Composite 0 is the logarithmic
operator ``eval_B0``.

Every layer sum, on the interface and off it (``fields``), is asked for
one way.  An evaluation runs once against a recorder (``_recorded``); its
requests are planned (``_Plan``: the distinct densities, by identity, as
one stack, the rows that each table takes and one slot per request); the
products of each table with its rows are taken, and the plan alone turns
them into sums (``_Plan.sums``, by the take and factor of ``_PARTS``); and
the evaluation runs again against a positional queue of them
(``_Replay``), which raises if it asks for other ones.
``DiagonalOps`` takes them on the interface, each composite a part of the
product of its table at r = (s, delta f) with a density's half-grid
samples, sampled with f as one FFT stack.  The products come from sweeps
(``_sweep``) over row blocks of the tables of at most ``core._EVAL_BLOCK``
entries, built in turn on one pooled working set; each block reads each
table once, in one GEMM against all the densities that table takes.
``_swept`` takes all the products of an evaluation in one sweep.

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
shifts, with a circulant fast path (a strided view of the half-grid samples
of ``core._samples``, a call's densities as one stack) on the half grid.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

import numpy as np
from numpy.polynomial.legendre import leggauss

from .core import _EVAL_BLOCK, InterfaceProfile, PeriodicGrid, TWO_PI, _samples

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
            return _circulant(_samples(values)[0])
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
    which is bounded and handled by the half-grid midpoint rule; it is built
    with the planes of D of the other composites (``_LayerTables``).
    """
    return DiagonalOps(f).composite(0, density)


# ---------------------------------------------------------------------------
# the layer kernels Z_0 .. Z_6
# ---------------------------------------------------------------------------

# the float64 planes of a working set: the four of ``_LayerTables``, then r2
_SET_PLANES = 5


def _cache_aligned(shape, dtype) -> np.ndarray:
    """A heap table that starts on a 64-byte cache line.  glibc puts a large
    block 16 bytes past a page boundary, and on such tables the layer-table
    builds at N = 512 took about a quarter longer."""
    size = int(np.prod(shape)) * np.dtype(dtype).itemsize
    block = np.empty(size + 64, np.uint8)
    start = -block.ctypes.data % 64
    return block[start:start + size].view(dtype).reshape(shape)


def _row_blocks(n: int) -> int:
    """How many row blocks the on-interface tables at N take: near-equal
    ones of at most ``_EVAL_BLOCK`` entries where two rows fit, and of at
    least two rows (a one-row product takes numpy's dot path, not gemv)."""
    return -(-n // max(2, min(n, _EVAL_BLOCK // n)))


class _TablePool:
    """Working sets of layer-table row blocks, leased by ``DiagonalOps``'s
    sweep.

    A set for N is one (``_SET_PLANES``, rows, N) float64 stack, rows the
    largest block of ``_row_blocks(N)`` (all N rows up to N = 180, 64 at
    N = 512): 40 bytes an entry, overwritten in place by each
    ``_LayerTables`` built on it.  A lease takes the idle set if it was made
    for the same N and rows and allocates a new one otherwise; a released
    set becomes the idle one.  So at most one idle set is kept, for the most
    recent N, and a set is never held by two live leases: a second
    concurrent lease allocates its own.  Without the pool, fresh (N, N)
    tables cost a warm ``eval_Psi`` 609 and 1539 page faults and 1.4-1.6x
    the time at N = 256 and 512.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._idle_n, self._idle = None, None

    def lease(self, n: int) -> np.ndarray:
        rows = -(-n // _row_blocks(n))
        with self._lock:
            stack = self._idle if self._idle_n == n and self._idle.shape[1] == rows else None
            self._idle_n, self._idle = None, None
        if stack is None:
            stack = _cache_aligned((_SET_PLANES, rows, n), np.float64)
        return stack

    def release(self, n: int, stack: np.ndarray) -> None:
        with self._lock:
            self._idle_n, self._idle = n, stack


_TABLE_POOL = _TablePool()


_first, _second = itemgetter(0), itemgetter(1)

# index -> (lead, take, factor): Z_index = factor * take(the table of lead).
# The log table (lead 0) is one plane, taken whole; D (lead 1), r2 (1 + D^2)
# (lead 3) and r2 D (lead 5) are pairs of planes, whose products with a
# density are pairs of rows, taken apart by ``_first`` and ``_second``
_PARTS = ((0, np.asarray, 1.0), (1, _first, 1.0), (1, _second, 1.0), (3, _first, 0.5),
          (3, _second, 0.25), (5, _first, 1.0), (5, _second, 1.0))

# lead -> the planes of ``_LayerTables`` that hold its table
_LEAD_PLANES = {0: slice(2, 3), 1: slice(0, 2), 3: slice(2, 4), 5: slice(2, 4)}


# the |r2| past which the trace's remainder takes e^{-|r2|} at this floor:
# e^{-600} 4 sin^2(r1/2) is a normal number for any N below 10^5
_EXP_FLOOR = 600.0


def _sines(r1):
    """The tables 4 sin(r1/2) cos(r1/2) = 2 sin(r1) and 4 sin^2(r1/2) that
    ``_LayerTables`` takes for r1."""
    half = np.sin(0.5 * r1)
    return 2.0 * np.sin(r1), 4.0 * (half * half)


class _LayerTables:
    """The layer kernels Z_0..Z_6 at r = (r1, r2), built in real arithmetic
    on four float64 planes.

    Each kernel but Z0 is a plane of one of three pairs of planes, the real
    and imaginary parts of the complex tables

        D = cot((r1 - i r2)/2) = (Z1, Z2)    r2 D = (Z5, Z6)
        r2 (1 + D^2) = (r2 (1 + Z1^2 - Z2^2), 2 r2 Z1 Z2) = (2 Z3, 4 Z4),

    and Z0 is real; all are finite wherever r is off the lattice
    (2*pi*Z, 0).  In real variables s1, c1 = sin(r1/2), cos(r1/2), s2, c2 =
    sinh(r2/2), cosh(r2/2) and S = s1^2 + s2^2 they are the periodic
    vortex-sheet kernels Z0 = ln S, Z1 = s1 c1/S, Z2 = s2 c2/S.  Off the
    interface they are the layer integrands of the bulk fields; at
    r = (s, delta f) they are, over 2*pi, the kernels of the trace
    composites 1..6.

    They are built from t = expm1(-|r2|) and a = e^{-|r2|} <= 1, neither of
    which overflows however far r is from the interface:

        q = 4 a s1^2        den = q + t^2 = 4 a S
        Z1 = 4 (1 + t) s1 c1 / den        Z2 = sign(r2) (-t (t + 2)) / den
        Z0 = |r2| - ln(4 / den).

    den is a sum of two non-negative terms, so nothing cancels, and one
    reciprocal of it serves both parts of D.  a enters q from ``np.exp`` and
    Z1 as 1 + t: q needs its relative digits (see ``remainder``), Z1 only an
    absolute epsilon.  The constructor takes the tables sc = 4 s1 c1 and
    ss = 4 s1^2 (``_sines``) in the shape of r2, or views that broadcast to
    it: on the interface ``_sweep`` passes rows of circulant views of them
    at the quadrature nodes, so that r1 is exactly the node; off it they
    come from an outer product of phases or from r1 itself (``at``).  With
    ``remainder``, part 0 is Z0 - ln s1^2 = log1p(t^2/q) instead: the
    bounded remainder that the trace adds to the spectrally applied log,
    with no |r2| to cancel against a log as r2 -> 0.  Past |r2| =
    ``_EXP_FLOOR``, where e^{-|r2|} would underflow, q takes a at the floor
    and the remainder adds |r2| - _EXP_FLOOR back: t^2/q is then so large
    that its log1p is its log.

    Every table is written in place: r2 is the caller's, and the four
    ``planes`` are rows of a ``_TABLE_POOL`` set or, without it, a fresh
    stack.  So the working set is 40 bytes an entry on the interface, with
    r2, and 56 in the trapezoid rule of ``fields``, whose complex phases
    become sc and ss in place.  Planes 0 and 1 hold D.  Planes 2 and 3
    first hold the constructor's t^2/q (with ``remainder``) and 1/den, from
    which ``part`` builds the log table into plane 2, and then the pair
    r2 (1 + D^2) or r2 D, each built when first asked for and overwriting
    the last; this object alone tracks which one they hold.  The factors of
    ``_PARTS`` take the halves of r2 (1 + D^2).
    """

    def __init__(self, sc, ss, r2, planes=None, remainder: bool = False):
        self.r2, self._sines, self._remainder = r2, (sc, ss), remainder
        self._planes = np.empty((4,) + np.shape(r2)) if planes is None else planes
        # views of the single planes, also of a 0-d table's
        self._views = tuple(self._planes[i, ...] for i in range(4))
        self._held = None
        self._tabulate()

    @classmethod
    def at(cls, r1, r2):
        r1, r2 = np.broadcast_arrays(np.asarray(r1, dtype=float), np.asarray(r2, dtype=float))
        return cls(*_sines(r1), r2)

    def _tabulate(self) -> None:
        """D into planes 0 and 1, 1/den into plane 3 and, with
        ``remainder``, t^2/q into plane 2."""
        sc, ss = self._sines
        r2 = self.r2
        t, z2, ratio, rden = self._views
        np.abs(r2, out=t)
        np.negative(t, out=t)
        self._clamped = self._remainder and t.min() < -_EXP_FLOOR
        if self._clamped:
            np.maximum(t, -_EXP_FLOOR, out=t)   # expm1 is -1 either way
        np.exp(t, out=z2)                       # a
        np.expm1(t, out=t)
        z2 *= ss                                # q
        np.square(t, out=ratio)
        np.add(ratio, z2, out=rden)             # den
        if self._remainder:
            ratio /= z2
        np.reciprocal(rden, out=rden)
        np.add(t, 2.0, out=z2)
        z2 *= t
        z2 *= rden
        np.copysign(z2, r2, out=z2)             # Z2
        t += 1.0
        t *= rden                               # normal before a subnormal sc
        t *= sc                                 # Z1

    def part(self, index: int):
        """Z_index as (table, take, factor): Z_index = factor * take(table),
        where take is ``np.asarray`` for the log plane and ``_first`` or
        ``_second`` for a pair of planes; so a product of the table with
        real samples, taken apart, gives the integral."""
        lead, take, factor = _PARTS[index]
        if lead != 1 and self._held != lead:
            if lead == 0 and self._held is not None:
                self._tabulate()                # a pair took the log's scratch
            self._held = None                   # the planes are rewritten in place
            self._build(lead)
            self._held = lead
        return (self._views[2] if lead == 0 else self._planes[_LEAD_PLANES[lead]]), take, factor

    def _build(self, lead: int) -> None:
        """Write the table of ``lead`` into planes 2 and 3."""
        z1, z2, p, scratch = self._views
        r2 = self.r2
        if lead == 5:
            np.multiply(z1, r2, out=p)
            np.multiply(z2, r2, out=scratch)
        elif lead == 3:
            np.subtract(z1, z2, out=p)
            np.add(z1, z2, out=scratch)
            p *= scratch
            p += 1.0
            p *= r2
            np.multiply(z1, z2, out=scratch)
            scratch *= r2
            scratch += scratch
        elif self._remainder:
            np.log1p(p, out=p)
            if self._clamped:                   # log1p(t^2/q) = ln(t^2/q) there
                p += np.maximum(np.abs(r2) - _EXP_FLOOR, 0.0)
        else:
            np.multiply(scratch, 4.0, out=p)
            np.log(p, out=p)
            np.subtract(np.abs(r2, out=scratch), p, out=p)


# ---------------------------------------------------------------------------
# layer sums on and off the interface: record, plan, replay
# ---------------------------------------------------------------------------

def _recorded(evaluate) -> list:
    """The (index, density) requests of ``evaluate(composites)``, listed by
    one run against a recorder that returns a zero per density."""
    requests = []

    def record(index, *densities):
        requests.extend((index, d) for d in densities)
        return [0.0] * len(densities)

    evaluate(record)
    return requests


class _Plan:
    """A list of (index, density) requests, planned: ``densities`` are the
    distinct ones, told apart by identity (the plan holds each, so no
    identity is reused), ``leads`` maps each lead of ``_PARTS``, in order,
    to the rows of ``densities`` that its table takes, and ``slots`` holds
    one (index, lead, column) per request, column the place of its row
    among the lead's.  Lead 0 is index 0's alone, so the rows of the log
    parts are those of lead 0."""

    def __init__(self, requests):
        rows, leads, self.slots = {}, {}, []
        for index, d in requests:
            if index not in range(7):
                raise ValueError(f"Z index must be 0..6, got {index}")
            lead = _PARTS[index][0]
            row = rows.setdefault(id(d), (len(rows), d))[0]
            column = leads.setdefault(lead, {}).setdefault(row, len(leads[lead]))
            self.slots.append((index, lead, column))
        self.densities = [d for _, d in rows.values()]
        self.leads = {lead: list(leads[lead]) for lead in sorted(leads)}

    def stack(self, grid: PeriodicGrid, *rows) -> np.ndarray:
        """The densities' values as one (k, N) stack, then the given rows."""
        return np.array([_density_values(d, grid) for d in self.densities]
                        + list(rows)).reshape(-1, grid.n_points)

    def sums(self, products) -> list:
        """The (index, sum) of each slot, in request order: ``products``
        maps each lead to its products with the lead's rows, entry
        ``column`` that of the column's row, and a slot's sum is its product
        taken apart and scaled by the take and factor of its index in
        ``_PARTS``, in a fresh array."""
        sums = []
        for index, lead, column in self.slots:
            _, take, factor = _PARTS[index]
            sums.append((index, take(products[lead][column]) * factor))
        return sums


class _Replay:
    """A positional queue of layer sums: ``composite`` hands back the next
    queued (index, value), which must be of the index asked for, and
    ``replay`` runs ``evaluate(composites)`` on it, which must read the
    queue to its end.  So a replay that asks for another index, or for one
    sum more or one fewer than the recording run, raises instead of reading
    another request's value."""

    def __init__(self, values=None):
        self._queue = None if values is None else deque(values)

    def composites(self, index: int, *densities) -> list:
        """One ``composite`` per density."""
        return [self.composite(index, d) for d in densities]

    def composite(self, index: int, density) -> np.ndarray:
        queue = self._queue
        if not queue or queue[0][0] != index:
            raise ValueError(f"composite {index} asked for where the plan queued "
                             f"{queue[0][0] if queue else 'none'}")
        return queue.popleft()[1]

    def replay(self, evaluate):
        out = evaluate(self.composites)
        if self._queue:
            raise ValueError(f"the evaluation left {len(self._queue)} recorded composites unread")
        return out


# ---------------------------------------------------------------------------
# diagonal fast path and the named composites
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _trace_phases(n: int):
    """Circulant views of the ``_sines`` of the midpoint nodes, 4 sin(s_j/2)
    cos(s_j/2) and 4 sin^2(s_j/2): column m, row i holds node j = (i - m -
    1 + N/2) mod N, the node that pairs half-grid sample m with xi_i."""
    return tuple(_circulant(table) for table in _sines(_midpoint_rule(n)[0]))


# the most rows of a table that one GEMM takes, a multiple of four.  On more
# rows OpenBLAS takes another kernel, whose sums round differently, so that
# a row's bits would depend on the size of its block
_GEMM_ROWS = 64


def _sweep(f: InterfaceProfile, half: np.ndarray, plan: dict) -> dict:
    """The products of the on-interface tables of f with half-grid samples,
    each times the weight h/(2 pi): ``plan`` maps a lead of ``_PARTS`` to a
    (k, N) stack of the samples of its densities, and the result maps it to
    their products, (k, N) for the log table and (k, 2, N) for a pair of
    planes, entry j that of row j.  ``half`` is f's own half-grid samples.

    One sweep over the row blocks of ``_row_blocks``: each block builds r2
    and D on the first rows of a stack leased from ``_TABLE_POOL``, r2 its
    last plane, and takes the leads in their order, so that planes 2 and 3
    hold the log, (3, 4) and (5, 6) tables in turn.  A lead's table, a
    pair's planes stacked, is read once per block: one GEMM against all of
    its densities, in chunks of ``_GEMM_ROWS`` rows.  A chunk runs over
    whole groups of four rows, the last one into at most three rows of the
    planes that follow the table (``_LEAD_PLANES``).  BLAS sums a row in one
    order within whole groups of four rows and in another for the last rows
    of a matrix; with whole groups of a fixed chunk height a row's bits do
    not depend on how the rows are split into blocks."""
    if not plan:
        return {}
    n = f.grid.n_points
    out = {lead: np.empty((len(v), n) if lead == 0 else (len(v), 2, n)) for lead, v in plan.items()}
    blocks = _row_blocks(n)
    bounds = [i * n // blocks for i in range(blocks + 1)]
    # a lead's products over a block: at most two planes of its rows, in
    # whole groups of four
    height = 2 * -(-n // blocks)
    chunk = {lead: np.empty((-(-height // 4) * 4, len(v))) for lead, v in plan.items()}
    scale = f.grid.spacing / TWO_PI
    sc, ss = _trace_phases(n)
    stack = _TABLE_POOL.lease(n)
    try:
        for a, b in zip(bounds[:-1], bounds[1:]):
            # the block's planes, contiguous: a pair of them is one table
            flat = stack.reshape(-1)[:_SET_PLANES * (b - a) * n]
            planes = flat.reshape(-1, b - a, n)
            # circulant coordinates: the difference table is the outer
            # difference f(xi_i) - f_half[m]
            r2 = np.subtract.outer(f.values[a:b], half, out=planes[4])
            layer = _LayerTables(sc[a:b], ss[a:b], r2, planes[:4], remainder=True)
            for lead, p in out.items():
                layer.part(lead)                    # builds the lead's table
                lead_planes = _LEAD_PLANES[lead]
                rows = (lead_planes.stop - lead_planes.start) * (b - a)
                table = flat[lead_planes.start * (b - a) * n:].reshape(-1, n)
                for c in range(0, rows, _GEMM_ROWS):
                    h = min(_GEMM_ROWS, -(-(rows - c) // 4) * 4)
                    np.matmul(table[c:c + h], plan[lead].T, out=chunk[lead][c:c + h])
                block = p[..., a:b]
                np.multiply(chunk[lead][:rows].T.reshape(block.shape), scale, out=block)
    finally:
        _TABLE_POOL.release(n, stack)
    return out


class DiagonalOps(_Replay):
    """The layer sums on the interface of one profile f.

    ``composite`` applies the named composites 0..6, the layer sums of the
    half-grid midpoint rule at r = (s, delta f); composite 0 is the
    logarithmic operator ``eval_B0``.  ``sweep`` takes the products of a
    list of requests in one sweep of the tables (``_sweep``), which leases
    its working set for that sweep only, and queues their composites, which
    ``composite`` then hands back in that order with no lookup.
    Stand-alone, with nothing queued, a composite is the sweep of its one
    request.  The rule covers every output and folds the weight h/(2 pi)
    into its contraction; the part factors 1, 1/2 and 1/4 are powers of
    two, so the order of the two scalings does not change a bit.
    """

    def __init__(self, f: InterfaceProfile):
        super().__init__()
        self.f, self.grid = f, f.grid

    def sweep(self, requests) -> None:
        """Take every product of the (index, density) ``requests`` in one
        sweep and queue their composites in request order (``_Plan``).  The
        densities and f are sampled as one stack; each (lead, density)
        takes one product, and composite 0's log parts take one inverse
        FFT."""
        self._queue = deque(self._sums(_Plan(requests)))

    def _sums(self, plan: _Plan) -> list:
        """(index, composite) per slot of the plan; index 0 adds its
        spectral log part to its sum."""
        half, coeffs = _samples(plan.stack(self.grid, self.f.values))
        sums = plan.sums(_sweep(self.f, half[-1],
                                {lead: half[rows] for lead, rows in plan.leads.items()}))
        if 0 in plan.leads:
            logs = np.fft.ifft(_log_sin_multiplier(self.grid.n_points)
                               * coeffs[plan.leads[0]]).real
            for (index, _, column), (_, z) in zip(plan.slots, sums):
                if index == 0:
                    z += logs[column]
        return sums

    def kernel(self, n: int, m: int, p: int, q: int) -> np.ndarray:
        """The diagonal tangent-family kernel of f, the one ``eval_B`` builds."""
        # bench/tracer.py still wraps this reader; ROADMAP item 1 retires it
        ws = KernelWorkspace(self.grid)
        df = ws.delta(self.f.values)
        return _tangent_kernel(ws, [df] * m, [df] * n, [df] * q, p)

    def composite(self, index: int, density) -> np.ndarray:
        """Composite ``index`` of a density: a part of its table's product with
        the half-grid samples; index 0 adds the spectral log part.  After a
        ``sweep``, the next queued composite, which must be of this index."""
        if self._queue is None:
            return self._sums(_Plan([(index, density)]))[0][1]
        return _Replay.composite(self, index, density)


def _swept(f: InterfaceProfile, evaluate):
    """What ``evaluate(composites)`` returns on the interface of f, with all
    its products taken in one sweep: a first run lists its requests
    (``_recorded``), ``DiagonalOps.sweep`` takes them, and the second run
    gets their composites back by position (``_Replay``).  So ``evaluate``
    must ask for the same indices in the same order in both runs, without
    reading the values it gets back."""
    ops = DiagonalOps(f)
    ops.sweep(_recorded(evaluate))
    return ops.replay(evaluate)


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
