"""The four benchmark workloads.

Each workload builds its inputs from a seed in its constructor (import,
inputs and one cold call that fills the package's lazy caches: what a user
pays before the first result), runs the same round of operations on every
call of ``run_round`` and checks a round's output in ``check``, which
returns a list of problems (empty when the output is correct).  Checks
compare against values the benchmark computes itself or against properties
the method must have, never against a saved copy of the program's output;
the one stored input, the ``evolve`` reference trajectory, is remade by
``make_reference.py``.

Package functions are called through their modules (``evolution.integrate``)
so that the tracer, which rebinds module attributes, sees the calls.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

from stokes2p import (
    EvolutionState,
    InterfaceProfile,
    PeriodicGrid,
    PhysParams,
    StepperConfig,
    analysis,
    evolution,
    fields,
)

REFERENCE_PATH = Path(__file__).with_name("reference_evolve.json")


def _rng(seed, name):
    # one independent stream per workload, so seeds do not couple workloads
    return np.random.default_rng([seed, sum(map(ord, name))])


def _spectral_slope(values):
    n = len(values)
    k = np.fft.fftfreq(n, d=1.0 / n)
    k[n // 2] = 0.0
    return np.fft.ifft(1j * k * np.fft.fft(values)).real


def interface_energy(values, sigma, theta):
    """sigma * int(omega - 1) + theta/2 * int (f - mean f)^2 over one period,
    by the benchmark's own spectral slope and rectangle rule."""
    dx = 2.0 * np.pi / len(values)
    omega = np.sqrt(1.0 + _spectral_slope(values) ** 2)
    dev = values - np.mean(values)
    return sigma * np.sum(omega - 1.0) * dx + 0.5 * theta * np.sum(dev * dev) * dx


# ---------------------------------------------------------------------------
# evolve: time-to-accuracy of the default stepping scheme
# ---------------------------------------------------------------------------

EVOLVE = {
    "n": 128, "mu": 1.0, "sigma": 1.0, "theta": 0.5, "t_end": 1.0,
    "target": 1e-4, "amplitude": 0.18,
}


def evolve_base_profile(nodes):
    """The nonlinear initial profile the reference trajectory starts from."""
    a = EVOLVE["amplitude"]
    return a * (np.cos(nodes) + 0.5 * np.sin(2.0 * nodes) + 0.25 * np.cos(3.0 * nodes))


def evolve_params():
    return PhysParams.from_theta(mu=EVOLVE["mu"], sigma=EVOLVE["sigma"], theta=EVOLVE["theta"])


class Evolve:
    """Integrate to t_end with the default StepperConfig scheme, halving the
    step from the scheme default until the error against the reference
    meets the target; a round repeats the run that first met it.

    The seed picks a grid translation, a reflection and a vertical offset of
    the base profile.  The flow commutes with all three, so the seeded
    trajectory is the same transform of the stored one, to roundoff, and
    every seed needs the same step.
    """

    ops_per_round = 1
    max_rungs = 10

    def __init__(self, seed):
        ref = json.loads(REFERENCE_PATH.read_text())
        cfg = {k: ref[k] for k in EVOLVE}
        if cfg != EVOLVE:
            raise ValueError(f"reference made for {cfg}, workload is {EVOLVE}")
        self.grid = PeriodicGrid(EVOLVE["n"])
        self.params = evolve_params()
        base = evolve_base_profile(self.grid.nodes)
        if not np.array_equal(base, np.asarray(ref["initial"])):
            raise ValueError("reference initial profile differs from the base profile")
        rng = _rng(seed, "evolve")
        shift = int(rng.integers(self.grid.n_points))
        reflect = bool(rng.integers(2))
        offset = float(rng.uniform(-0.5, 0.5))

        def transform(v):
            v = np.asarray(v, dtype=float)
            if reflect:
                v = np.roll(v[::-1], 1)     # x -> -x on the grid
            return np.roll(v, shift) + offset

        self.f0 = InterfaceProfile(self.grid, transform(base))
        self.reference = transform(ref["final"])
        evolution.eval_Psi(self.f0, self.params)
        self.dt = None
        self.first_values = None

    def _integrate(self, dt):
        records = []
        state = evolution.integrate(EvolutionState(0.0, self.f0, self.params),
                                    StepperConfig(dt=dt, t_end=EVOLVE["t_end"]),
                                    sink=records.append)
        return state, records

    def prepare(self):
        """The untimed halving ladder; returns its rung count and the step."""
        dt = StepperConfig().effective_dt(self.grid)
        for rung in range(1, self.max_rungs + 1):
            state, _ = self._integrate(dt)
            err = float(np.max(np.abs(state.profile.values - self.reference)))
            if err <= EVOLVE["target"]:
                self.dt, self.first_values = dt, state.profile.values.copy()
                return {"rungs": rung, "dt": dt, "ladder_error": err}
            dt /= 2.0
        raise RuntimeError(f"target {EVOLVE['target']} not met in {self.max_rungs} rungs")

    def run_round(self):
        return self._integrate(self.dt)

    def check(self, output):
        state, records = output
        values = state.profile.values
        problems = []
        if abs(state.time - EVOLVE["t_end"]) > 1e-9:
            problems.append(f"stopped at t={state.time}")
        err = float(np.max(np.abs(values - self.reference)))
        if not err <= EVOLVE["target"]:
            problems.append(f"error {err:.3e} against the reference exceeds {EVOLVE['target']:g}")
        drift = abs(float(np.mean(values)) - float(np.mean(self.f0.values)))
        if not drift <= 1e-12:
            problems.append(f"mean drifted by {drift:.3e}")
        sigma, theta = EVOLVE["sigma"], EVOLVE["theta"]
        energies = [interface_energy(self.f0.values, sigma, theta)]
        energies += [interface_energy(np.asarray(r["values"]), sigma, theta) for r in records]
        rises = np.diff(energies)
        if np.any(rises > 1e-13 * abs(energies[0])):
            problems.append(f"energy rose by {float(np.max(rises)):.3e} between snapshots")
        if not np.array_equal(values, np.asarray(records[-1]["values"])):
            problems.append("last snapshot differs from the returned state")
        if self.first_values is not None and not np.array_equal(values, self.first_values):
            problems.append("rerun is not bitwise identical to the first run")
        return problems


# ---------------------------------------------------------------------------
# spectrum: flat-state Jacobian in three buoyancy regimes
# ---------------------------------------------------------------------------

SPECTRUM = {"n": 512, "k_max": 16, "mu": 1.0, "sigma": 1.0, "thetas": (0.0, 3.0, -1.5)}


def expected_regime(sigma, theta, mu):
    """(regime, sharp decay constant) by the flat-state stability criterion."""
    if sigma + theta < 0:
        return "unstable", None
    if sigma >= theta:
        return "stable", (sigma + theta) / (4.0 * mu)     # tension dominated
    return "stable", np.sqrt(sigma * theta) / (2.0 * mu)  # gravity dominated


class Spectrum:
    """numeric_jacobian_at_zero at N = 512 for a tension-dominated (theta=0),
    a gravity-dominated (theta=3) and an unstable (theta=-1.5) regime.  The
    seed orders the three and picks the cosine or sine probe for each."""

    ops_per_round = 3

    def __init__(self, seed):
        rng = _rng(seed, "spectrum")
        order = rng.permutation(len(SPECTRUM["thetas"]))
        self.cases = [(SPECTRUM["thetas"][i], str(rng.choice(["cos", "sin"]))) for i in order]
        self.grid = PeriodicGrid(SPECTRUM["n"])
        self.params = {th: PhysParams.from_theta(mu=SPECTRUM["mu"], sigma=SPECTRUM["sigma"],
                                                 theta=th) for th, _ in self.cases}
        evolution.eval_Psi(InterfaceProfile.zero(self.grid), self.params[self.cases[0][0]])

    def prepare(self):
        return {"cases": self.cases}

    def run_round(self):
        return [analysis.numeric_jacobian_at_zero(self.params[th], self.grid, SPECTRUM["k_max"],
                                                  probe=probe)
                for th, probe in self.cases]

    def check(self, output):
        problems = []
        sigma, mu = SPECTRUM["sigma"], SPECTRUM["mu"]
        for (theta, probe), rep in zip(self.cases, output):
            tag = f"theta={theta:g}/{probe}"
            ks = [m.k for m in rep.modes]
            if ks != list(range(1, SPECTRUM["k_max"] + 1)):
                problems.append(f"{tag}: modes {ks}")
                continue
            lam = np.array([m.lam_numeric for m in rep.modes], dtype=float)
            k = np.array(ks, dtype=float)
            exact = -(sigma * k * k + theta) / (4.0 * mu * k)
            rel = float(np.max(np.abs(lam - exact) / np.abs(exact)))
            if not rel <= 1e-6:
                problems.append(f"{tag}: eigenvalue relative error {rel:.3e} > 1e-6")
            if not rep.leakage <= 1e-8:
                problems.append(f"{tag}: leakage {rep.leakage:.3e} > 1e-8")
            regime, decay = expected_regime(sigma, theta, mu)
            if rep.regime != regime:
                problems.append(f"{tag}: regime {rep.regime!r}, expected {regime!r}")
            if regime == "unstable":
                if rep.theta0 is not None or not np.max(lam) > 0:
                    problems.append(f"{tag}: no growing mode or a decay constant reported")
            elif rep.theta0 is None or abs(rep.theta0 - decay) > 1e-12 * decay \
                    or np.max(lam) > -decay * (1.0 - 1e-6):
                problems.append(f"{tag}: decay constant {rep.theta0}, expected {decay:.6g} "
                                f"bounding every mode")
        return problems


# ---------------------------------------------------------------------------
# fields: bulk velocity and pressure on a window, plus far-field limits
# ---------------------------------------------------------------------------

FIELDS = {"n": 256, "mu": 1.0, "sigma": 1.0, "theta": 1.5, "modes": 8, "height": 0.25,
          "nx1": 48, "nx2": 20, "x2_min": 0.7, "x2_max": 2.5, "centres": 4, "h": 1e-3}

# fourth-order central differences on offsets (-2h, -h, 0, h, 2h)
_OFFSETS = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
_D1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_D2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0


class Fields:
    """sample_flow at N = 256 on a 48 x 40 window that stays outside the
    interface collar, plus finite-difference stencils around four window
    points, followed by far_field_residuals.

    The seed draws the profile's Fourier coefficients (modes 1..8, scaled
    to a fixed height, so the window clears the collar on every seed), the
    window's horizontal offset and the stencil centres.
    """

    ops_per_round = 2

    def __init__(self, seed):
        c = FIELDS
        rng = _rng(seed, "fields")
        self.grid = PeriodicGrid(c["n"])
        self.params = PhysParams.from_theta(mu=c["mu"], sigma=c["sigma"], theta=c["theta"])
        ks = np.arange(1, c["modes"] + 1)
        envelope = np.exp(-0.4 * (ks - 1))
        self.a = envelope * rng.normal(size=len(ks))
        self.b = envelope * rng.normal(size=len(ks))
        scale = c["height"] / np.max(np.abs(self._curve(self.grid.nodes)))
        self.a, self.b = self.a * scale, self.b * scale
        self.f = InterfaceProfile(self.grid, self._curve(self.grid.nodes))

        x1 = 2.0 * np.pi * (np.arange(c["nx1"]) + rng.uniform()) / c["nx1"]
        rows = np.linspace(c["x2_min"], c["x2_max"], c["nx2"])
        x2 = np.concatenate([-rows[::-1], rows])
        window = np.stack(np.meshgrid(x1, x2), axis=-1).reshape(-1, 2)
        self.centre_rows = rng.choice(len(window), size=c["centres"], replace=False)
        h = c["h"]
        stencils = []
        for p in window[self.centre_rows]:
            for axis in (0, 1):
                for o in _OFFSETS[_OFFSETS != 0]:
                    q = p.copy()
                    q[axis] += o * h
                    stencils.append(q)
        self.n_window = len(window)
        self.points = np.concatenate([window, np.array(stencils)])
        fields.sample_flow(self.f, self.params, self.points[:1])

    def _curve(self, x):
        ks = np.arange(1, len(self.a) + 1)
        return np.cos(np.outer(x, ks)) @ self.a + np.sin(np.outer(x, ks)) @ self.b

    def prepare(self):
        return {"points": len(self.points)}

    def run_round(self):
        return (fields.sample_flow(self.f, self.params, self.points),
                fields.far_field_residuals(self.f, self.params))

    def _stencil(self, arr, centre):
        """Values on the x1 and x2 stencils through one centre, shape (2, 5, ...)."""
        base = self.n_window + 8 * centre
        rows = []
        for axis in (0, 1):
            side = arr[base + 4 * axis: base + 4 * axis + 4]
            rows.append(np.concatenate([side[:2], arr[self.centre_rows[centre]][None], side[2:]]))
        return np.array(rows)

    def check(self, output):
        samples, far = output
        problems = []
        if len(samples) != len(self.points):
            return [f"{len(samples)} samples for {len(self.points)} points"]
        pts = np.array([s.point for s in samples])
        v = np.array([s.velocity for s in samples])
        q = np.array([s.pressure for s in samples])
        if not np.array_equal(pts, self.points):
            problems.append("sample points differ from the requested window")
        if not (np.all(np.isfinite(v)) and np.all(np.isfinite(q))):
            problems.append("non-finite field values")
        above = self.points[:, 1] > self._curve(self.points[:, 0])
        sides = np.array([s.side == "plus" for s in samples])
        if not np.array_equal(sides, above):
            problems.append(f"{int(np.sum(sides != above))} samples on the wrong side")
        h, mu = FIELDS["h"], self.params.mu
        worst_div, worst_mom = 0.0, 0.0
        for c in range(FIELDS["centres"]):
            vs, qs = self._stencil(v, c), self._stencil(q, c)
            d1v = np.einsum("s,asi->ai", _D1, vs) / h     # [axis, component]
            d2v = np.einsum("s,asi->ai", _D2, vs) / h**2
            d1q = qs @ _D1 / h
            worst_div = max(worst_div, abs(d1v[0, 0] + d1v[1, 1]))
            worst_mom = max(worst_mom, float(np.max(np.abs(mu * d2v.sum(axis=0) - d1q))))
        if not (worst_div <= 1e-7 and worst_mom <= 1e-7):
            problems.append(f"Stokes residuals: divergence {worst_div:.3e}, "
                            f"momentum {worst_mom:.3e} (tol 1e-7)")
        far_worst = max(val for side in far.values() for val in side.values())
        if not far_worst <= 1e-6:
            problems.append(f"far-field residual {far_worst:.3e} > 1e-6")
        return problems


# ---------------------------------------------------------------------------
# verify: the acceptance gate through the command line
# ---------------------------------------------------------------------------

class Verify:
    """``stokes2p verify --level quick`` through stokes2p.cli.main; the
    benchmark seed is the verify seed (it draws the conservation profiles)."""

    ops_per_round = 1

    def __init__(self, seed):
        from stokes2p import cli

        self.main = cli.main
        self.argv = ["verify", "--level", "quick", "--seed", str(seed)]
        cli.build_parser().parse_args(self.argv)
        evolution.eval_Psi(InterfaceProfile.zero(PeriodicGrid(128)), PhysParams(mu=1.0, sigma=1.0))

    def prepare(self):
        return {"argv": self.argv}

    def run_round(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.main(self.argv)
        return code, out.getvalue() + err.getvalue()

    def check(self, output):
        code, text = output
        lines = text.splitlines()
        passed = [ln for ln in lines if ln.startswith("PASS ")]
        failed = [ln for ln in lines if ln.startswith("FAIL ")]
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        if failed or not passed:
            problems.append(f"{len(failed)} failed, {len(passed)} passed checks")
        total = len(passed) + len(failed)
        if f"{len(passed)}/{total} checks passed" not in text or len(passed) != total:
            problems.append("summary line does not report every check passed")
        return problems


WORKLOADS = {"evolve": Evolve, "spectrum": Spectrum, "fields": Fields, "verify": Verify}
