"""The layer sums of the trapezoid rule at points clear of the interface
strip, as exact series.

Above the strip (sg = +1, h0 = max f_j over the m nodes) or below it
(sg = -1, h0 = min f_j), each layer kernel is a geometric series in
Q = e^{-sg(i r1 + r2)}, |Q| = e^{-|r2|} < 1:

    D = sg i (1 + 2 sum_k Q^k)      1 + D^2 = -4 sum_k k Q^k
    Z0 = |r2| - ln 4 - 2 Re sum_k Q^k / k,

and Q^k is W^k, W = e^{-sg(i x1 + x2 - h0)} at the point, times z_j^k,
z_j = e^{sg(i s_j + f_j - h0)} at the node.  So the sum of D against v is
sg i (2 sum_{k >= 0} W^k c_k - c_0), with the coefficients
c_k = (1/m) sum_j v_j z_j^k, and r2 D and r2 (1 + D^2) are x2 times the
sums of v less those of f v.  No factor exceeds 1 in modulus.  The sums
are those of the trapezoid rule, summed in another order.

The coefficients of (v, f v) are built once per density and side for all
point blocks of a call, in slabs of at most ``_EVAL_BLOCK`` (term, node)
entries: the first holds z^r from ``_powers``, and each next one is the
last times z^h, h its height.  A block's powers W^k come from ``_powers``
too, into one buffer that all blocks share.  K, the number of terms
(``_terms``), follows from the least gap that a point of the rule may
have, never from the points themselves.  ``fields`` routes the points and
takes these rules beside its tables.
"""

from __future__ import annotations

import numpy as np

from .core import _EVAL_BLOCK, InterfaceProfile, _uniform_samples
from .evolution import LN4
from .operators import _PARTS

# at the least gap, the terms past the last are below e^-_DECAY of the first
_DECAY = 42.0


def _terms(gap: float) -> np.ndarray:
    """The powers k = 0 .. K of the series at points that clear the strip by
    at least ``gap``."""
    return np.arange(np.ceil(_DECAY / gap) + 1)


def _powers(w, out) -> None:
    """w^k for k = 0, 1, ... into the rows of out, by doubling: w^(n + k) =
    w^n w^k, so each is a product of at most log2(k) + 1 factors."""
    out[0] = 1.0
    out[1:2] = w            # no row if out has one
    done = 1                # out[:done + 1] hold w^0 .. w^done
    while done + 1 < len(out):
        stop = min(2 * done + 1, len(out))
        np.multiply(out[1:stop - done], out[done], out=out[done + 1:stop])
        done = stop - 1


class _Series:
    """The series rule of the points of one call that clear the strip by
    at least the gap of its terms k (``_terms``; see the module docstring),
    on the m nodes of the trapezoid rule; ``side`` is +1 at the points above
    it, -1 at those below and 0 at the others."""

    def __init__(self, f: InterfaceProfile, m: int, k: np.ndarray, side, block_points: int):
        self.m, self.grid, self.fs, self.k = m, f.grid, _uniform_samples(f, m), k
        self.s = 2.0 * np.pi * np.arange(m) / m
        self.sides = [sg for sg in (1.0, -1.0) if np.any(side == sg)]
        self.h0 = {1.0: np.max(self.fs), -1.0: np.min(self.fs)}
        self._slab = np.empty((max(1, min(len(k), _EVAL_BLOCK // m)), m), complex)
        self._block = np.empty(block_points * len(k), complex)
        self._coefficients = {}

    def coefficients(self, values) -> dict:
        """Side -> the coefficients of the density's values (``_build``),
        built once a call."""
        key = values.tobytes()
        if key not in self._coefficients:
            self._coefficients[key] = self._build(values)
        return self._coefficients[key]

    def _build(self, values) -> dict:
        """Side -> the coefficients c_k of v and of f v, the rows of a
        (2, K + 1) array, slab by slab.  By matrix-vector products only: a
        matrix product has BLAS fault in larger buffers (about 0.4 MB more
        RSS), and complex products of real vectors do not take BLAS."""
        v = _uniform_samples(InterfaceProfile(self.grid, values), self.m) / self.m
        weighted = v.astype(complex), (self.fs * v).astype(complex)
        coefficients, slab = {}, self._slab
        for sg in self.sides:
            c = coefficients[sg] = np.empty((2, len(self.k)), complex)
            z = np.exp(sg * (1j * self.s + self.fs - self.h0[sg]))
            _powers(z, slab)
            step = slab[-1] * z
            for start in range(0, len(self.k), len(slab)):
                if start:
                    slab *= step
                rows = slab[:len(self.k) - start]
                for out, w in zip(c, weighted):
                    out[start:start + len(rows)] = rows @ w
        return coefficients

    def rules(self, pts: np.ndarray, side) -> list:
        """The rules (share, sample, product) of a block's points, one per
        side that holds some."""
        rules, used, n_terms = [], 0, len(self.k)
        for sg in self.sides:
            share = side == sg
            x1, x2 = pts[share, 0], pts[share, 1]
            if not len(x2):
                continue
            powers = self._block[used * n_terms:(used + len(x2)) * n_terms]
            powers = powers.reshape(n_terms, len(x2))
            used += len(x2)
            _powers(np.exp(-sg * (1j * x1 + (x2 - self.h0[sg]))), powers)
            rules.append((share, lambda values, sg=sg: self.coefficients(values)[sg],
                          self._product(powers.T, x2, sg)))
        return rules

    def _product(self, powers, x2, sg):
        """product(index, c) of a rule: the sum of the table of the lead of
        ``index`` at its points, from a density's coefficients c."""
        k = self.k
        inverse_k = np.concatenate([[0.0], 1.0 / k[1:]])

        def d(c):       # the sum of D
            return sg * 1j * (2.0 * (powers @ c) - c[0])

        def product(index, c):
            lead = _PARTS[index][0]
            if lead == 0:
                c0 = c[:, 0].real
                return (sg * (x2 * c0[0] - c0[1]) - LN4 * c0[0]
                        - 2.0 * (powers @ (c[0] * inverse_k)).real)
            if lead == 1:
                return d(c[0])
            if lead == 3:
                return -4.0 * (x2 * (powers @ (k * c[0])) - powers @ (k * c[1]))
            return x2 * d(c[0]) - d(c[1])

        return product
