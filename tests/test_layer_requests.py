"""The one request protocol of the layer sums, on and off the interface: an
evaluation's requests are recorded once, their densities sampled once a
call, and the sums handed back by position."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from stokes2p import (DiagonalOps, InterfaceProfile, PeriodicGrid, PhysParams,  # noqa: E402
                      eval_Z, velocity_field)
from stokes2p import fields, layer_series, operators  # noqa: E402
from oracles import band_limited  # noqa: E402

PARAMS = PhysParams.from_theta(mu=1.3, sigma=0.7, theta=1.5)
GRID = PeriodicGrid(64)
F = InterfaceProfile(GRID, band_limited(GRID, 5, modes=8, amplitude=0.3))
POOL = [band_limited(GRID, 6 + c, modes=8) for c in range(3)]


def far_and_near_points(f):
    """Two far points, above and below the interface, and two inside its
    collar."""
    collar = fields.default_collar(f)
    return np.array([[0.3, 2.5], [4.0, -2.5], [0.0, f.values[0] + 0.5 * collar],
                     [2.5, float(f.eval_at(2.5)) - 0.2 * collar]])


# (index, positions in POOL) per call: indices 0..6, one to three densities
# a call, repeats of both included
REQUESTS = st.lists(st.tuples(st.integers(0, 6), st.lists(st.integers(0, 2), min_size=1,
                                                           max_size=3)),
                    min_size=1, max_size=6)


def evaluation(calls):
    """evaluate(composites) of the calls: every sum, in call order."""
    return lambda B: [z for index, rows in calls for z in B(index, *(POOL[r] for r in rows))]


@settings(max_examples=30, deadline=None)
@given(REQUESTS)
def test_any_request_list(calls):
    # on the interface, the one sweep's GEMMs against the stand-alone
    # composites' one density each (the bound of TestSwept); off it, one
    # product per (lead, row) against one evaluation per request, bitwise
    requests = [(index, r) for index, rows in calls for r in rows]
    got = operators._swept(F, evaluation(calls))
    assert len(got) == len(requests)
    for g, (index, r) in zip(got, requests):
        w = DiagonalOps(F).composite(index, POOL[r])
        assert np.max(np.abs(g - w)) <= 1e-15 * np.max(np.abs(w))
    pts = far_and_near_points(F)
    got = fields._blocked(F, pts, evaluation(calls), near=True)
    for g, (index, r) in zip(got, requests):
        assert np.array_equal(g, eval_Z(index, F, POOL[r], pts, near=True))


class TestBlockedReplay:
    """``fields._blocked`` replays its evaluation once per block, by position."""

    @pytest.mark.parametrize("change", ["index", "extra", "missing"])
    def test_changed_requests_raise(self, change, monkeypatch):
        # the last of three blocks asks for another index, or for one sum
        # more or one fewer, than the recording run: it fails, and every
        # sum handed back before is its own request's
        phi, psi = POOL[:2]
        pts = far_and_near_points(F)[:2].repeat(3, axis=0)
        pts[:, 0] += np.arange(6) * 0.1
        monkeypatch.setattr(fields, "_EVAL_BLOCK", 2 * fields._trapezoid_nodes(F))
        rows = [r for r, _, _ in fields._point_blocks(F, pts, np.empty((0, GRID.n_points)))]
        assert [r.tolist() for r in rows] == [[0, 1], [2, 3], [4, 5]]
        want = [eval_Z(1, F, phi, pts), eval_Z(5, F, psi, pts)]
        runs, received = [], []

        def evaluate(B):
            runs.append(B)
            last = len(runs) == 1 + len(rows)
            out = B(2 if last and change == "index" else 1, phi)
            if not (last and change == "missing"):
                out += B(5, psi)
            if last and change == "extra":
                out += B(5, phi)
            if len(runs) > 1:
                received.append(out)
            return out

        with pytest.raises(ValueError):
            fields._blocked(F, pts, evaluate)
        assert [len(out) for out in received] == {"index": [2, 2], "extra": [2, 2],
                                                  "missing": [2, 2, 1]}[change]
        for block, out in zip(rows, received):
            for got, w in zip(out, want):
                assert np.array_equal(got, w[block])


def test_one_sampling_per_call(monkeypatch):
    # a near evaluation of the three rules, each over at least two blocks:
    # the trapezoid stack is sampled once a call, each density's series
    # coefficients are built once a call, and the near rule samples f and
    # each density once at each block's nodes
    rng = np.random.default_rng(3)
    top, bottom = np.max(F.values), np.min(F.values)
    above = np.column_stack([rng.uniform(0.0, 6.0, 60), top + rng.uniform(1.5, 4.0, 60)])
    below = np.column_stack([rng.uniform(0.0, 6.0, 8), bottom - rng.uniform(1.5, 4.0, 8)])
    x = rng.uniform(0.0, 6.0, 6)
    close = np.column_stack([x, F.eval_at(x) + 0.3 * fields.default_collar(F)])
    pts = np.concatenate([above[:20], close[:2], below, above[20:40], close[2:], above[40:]])
    assert len(above) > len(layer_series._terms(fields.default_collar(F))) >= len(below)
    monkeypatch.setattr(fields, "_EVAL_BLOCK", 4 * fields._trapezoid_nodes(F))
    want = velocity_field(F, PARAMS, pts, near=True)
    rule = np.repeat(["series", "near", "table", "series", "near", "series"],
                     [20, 2, 8, 20, 4, 20])
    stack = np.empty((0, GRID.n_points))
    blocks = [set(rule[r]) for r, _, _ in fields._point_blocks(F, pts, stack, near=True)]
    assert all(blocks.count({name}) >= 2 for name in ("table", "series", "near"))
    assert sum(map(len, blocks)) == len(blocks)
    sampled, built, near, evals = [], [], [], []
    samples = fields._samples
    monkeypatch.setattr(fields, "_samples", lambda stack, m=None:
                        sampled.append(np.shape(stack)) or samples(stack, m))
    build = layer_series._Series._build
    monkeypatch.setattr(layer_series._Series, "_build",
                        lambda self, values: built.append(values) or build(self, values))
    eval_at = InterfaceProfile.eval_at
    monkeypatch.setattr(InterfaceProfile, "eval_at",
                        lambda self, s: evals.append(np.size(s)) or eval_at(self, s))
    near_rule = fields._near_rule

    def counted(*args):
        before = len(evals)
        out = near_rule(*args)
        near.append(len(evals) - before)
        return out

    monkeypatch.setattr(fields, "_near_rule", counted)
    got = velocity_field(F, PARAMS, pts, near=True)
    assert np.array_equal(got, want)
    assert sampled == [(2, GRID.n_points)]
    assert len(built) == 2
    assert near == [3] * len(near) and len(near) >= 2
