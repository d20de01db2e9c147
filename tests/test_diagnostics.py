import csv

import numpy as np
import pytest

from invariant_guard import correctors as co
from invariant_guard.cli import write_invariants
from invariant_guard.core import (DgField, EulerState1D, FvField1D, FvField2D,
                                  SpectralField, UniformGrid1D, UniformGrid2D,
                                  VorticityState2D)
from invariant_guard.diagnostics import (invariant_report, mae, normalized_mse,
                                         total_variation, vorticity_correlation)
from invariant_guard.problems import ic_sod, ic_sine
from invariant_guard.schemes import poisson_solve
from invariant_guard.timeloop import Trajectory


def test_zero_field_report():
    g = UniformGrid1D(8, 1.0)
    rep = invariant_report(FvField1D(g, np.zeros(8)), 0.0)
    assert rep.mass == 0.0 and rep.l2 == 0.0 and rep.tv == 0.0
    assert rep.entropy_total is None and rep.energy is None


def test_sine_l2_is_quarter_length():
    # midpoint-rule sum of sin^2 over full periods is exactly N/2
    for n, length in ((16, 1.0), (64, 2 * np.pi)):
        g = UniformGrid1D(n, length)
        rep = invariant_report(ic_sine(g), 0.0)
        assert rep.l2 == pytest.approx(length / 4.0, rel=1e-13)


def test_sod_entropy_total_matches_oracle():
    g = UniformGrid1D(64, 1.0, boundary="dirichlet")
    s = ic_sod(g)
    rep = invariant_report(s, 0.0)
    ev = co.entropy_variables_euler1d(s)
    assert rep.entropy_total == pytest.approx(
        float(np.sum(ev.eta * g.dx)), rel=1e-14)
    assert rep.min_rho == pytest.approx(0.125) and rep.min_p == pytest.approx(0.1)


@pytest.mark.parametrize("bad", ["rho", "p"])
def test_nonpositive_euler_state_reports_all_but_entropy(bad, tmp_path):
    # the driver's report of a state the run has driven to rho <= 0 or p <= 0
    from invariant_guard.drivers import Euler1D
    g = UniformGrid1D(8, 2.0, boundary="dirichlet")
    rho = np.linspace(0.5, 1.2, 8)
    p = np.linspace(0.3, 1.0, 8)
    (rho if bad == "rho" else p)[3] = -0.25
    s = EulerState1D.from_primitive(g, rho, np.full(8, 0.4), p, 1.4)
    rep = Euler1D(ic_sod(g)).report(s.u.ravel(), 0.5)
    assert rep.entropy_total is None
    assert rep.mass == pytest.approx(float(np.sum(rho * g.dx)))
    assert rep.tv == total_variation(s.rho, periodic=False)
    assert rep.min_rho == float(s.rho.min())
    assert rep.min_p == float(s.pressure().min())
    assert (rep.min_rho if bad == "rho" else rep.min_p) < 0.0
    path = tmp_path / "invariants.csv"
    write_invariants(path, Trajectory(reports=[rep]))
    with open(path, newline="") as fh:
        [cells] = csv.DictReader(fh)
    assert cells["entropy_total"] == ""
    assert all(cells[k] for k in ("t", "mass", "tv", "min_rho", "min_p"))


def test_dg_and_spectral_reports():
    g = UniformGrid1D(8, 2.0)
    coeffs = np.zeros((8, 2))
    coeffs[:, 0] = 1.5
    rep = invariant_report(DgField(g, coeffs), 0.1)
    assert rep.mass == pytest.approx(3.0) and rep.t == 0.1

    c = np.zeros(3, dtype=complex)
    c[0] = 2.0
    rep = invariant_report(SpectralField(4.0, c), 0.0)
    assert rep.mass == pytest.approx(8.0)       # L * u_0
    assert rep.l2 == pytest.approx(0.5 * 4.0 * 4.0)


def test_vorticity_report_energy_bracket():
    rng = np.random.default_rng(90)
    g = UniformGrid2D(16, 16, 2 * np.pi, 2 * np.pi)
    chi = FvField2D(g, rng.normal(size=(16, 16)))
    state = VorticityState2D(chi, poisson_solve(chi))
    rep = invariant_report(state, 0.0)
    vol = g.cell_volume
    assert rep.enstrophy == pytest.approx(0.5 * np.sum(chi.values**2) * vol)
    assert rep.energy == pytest.approx(
        0.5 * np.sum(chi.values * state.psi_bar) * vol)


def test_mass_constant_along_flux_trajectory():
    from invariant_guard.drivers import ScalarFv1D
    from invariant_guard.schemes import FluxScheme
    from invariant_guard.timeloop import StepPlan, run
    g = UniformGrid1D(32, 1.0)
    tr = run(StepPlan(t_end=1.0, cfl=0.3, n_snapshots=11),
             ScalarFv1D(ic_sine(g), "burgers", FluxScheme.MUSCL_MC))
    masses = np.array([r.mass for r in tr.reports])
    scale = max(abs(masses[0]), 1.0)
    assert np.abs(masses - masses[0]).max() <= 1e-13 * scale


def test_metric_examples():
    r = np.array([1.0, 2.0, 3.0])
    assert normalized_mse(r, r) == 0.0
    assert mae(r, r) == 0.0
    assert vorticity_correlation(r, r) == pytest.approx(1.0)
    assert vorticity_correlation(-r, r) == pytest.approx(-1.0)
    # 3-cell hand case: mse = (1+0+1)/3, ref power = (1+4+9)/3
    c = np.array([2.0, 2.0, 2.0])
    assert normalized_mse(c, r) == pytest.approx((2.0 / 3.0) / (14.0 / 3.0))


def test_correlation_affine_invariance():
    rng = np.random.default_rng(91)
    a, b = rng.normal(size=(2, 40))
    base = vorticity_correlation(a, b)
    assert vorticity_correlation(3.0 * a, 3.0 * b) == pytest.approx(base, rel=1e-12)
    assert vorticity_correlation(3.0 * a + 1.0, b) == pytest.approx(base, rel=1e-12)


def test_total_variation_wrap():
    assert total_variation(np.array([0.0, 1.0, 0.0]), periodic=True) == 2.0
    assert total_variation(np.array([0.0, 1.0, 0.0]), periodic=False) == 2.0
    assert total_variation(np.array([0.0, 1.0]), periodic=True) == 2.0
