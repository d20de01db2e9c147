"""End-to-end 2D vorticity runs: the driver-level corrector contracts."""

import numpy as np
import pytest

from invariant_guard import correctors as co
from invariant_guard.core import (FvField2D, UniformGrid2D, VorticityState2D,
                                  bracket)
from invariant_guard.drivers import Vorticity2D
from invariant_guard.problems import ic_random_vorticity
from invariant_guard.schemes import poisson_solve
from invariant_guard.timeloop import StepPlan, run


@pytest.fixture(scope="module")
def ic32():
    return ic_random_vorticity(UniformGrid2D(32, 32, 2 * np.pi, 2 * np.pi),
                               seed=12)


def _reports(monkeypatch, name):
    """The list that collects every report of corrector ``co.<name>``; a
    run's log keeps only their per-interval aggregates."""
    reports = []
    correct = getattr(co, name)

    def reporting(*args):
        update, rec = correct(*args)
        reports.extend(rec if isinstance(rec, tuple) else (rec,))
        return update, rec
    monkeypatch.setattr(co, name, reporting)
    return reports


def test_plain_muscl_decays_energy_and_enstrophy(ic32):
    tr = run(StepPlan(t_end=0.5, cfl=0.3, n_snapshots=6), Vorticity2D(ic32))
    energy = np.array([r.energy for r in tr.reports])
    enstrophy = np.array([r.enstrophy for r in tr.reports])
    assert np.all(np.diff(energy) <= 1e-12 * energy[0])
    assert np.all(np.diff(enstrophy) <= 1e-12 * enstrophy[0])
    masses = np.array([r.mass for r in tr.reports])
    assert np.abs(masses - masses[0]).max() <= 1e-12


def test_energy_corrector_per_stage_and_integrated(ic32, monkeypatch):
    reports = _reports(monkeypatch, "correct_euler2d_mass_energy_l2")
    tr = run(StepPlan(t_end=0.5, cfl=0.3, n_snapshots=6),
             Vorticity2D(ic32, corrector="energy", target=co.L2RateTarget.clamp()))
    assert len(reports) == len(tr.stage_records)
    # max_energy_error is the worst |<psi_bar|P'>| / max(scale, 1e-30)
    for row in tr.stage_records.rows:
        assert row.max_energy_error <= 1e-12
    for rec in reports:
        assert rec.achieved_rate <= 1e-12 * max(abs(rec.old_rate), 1.0)
    # integrated drift is the RK3 residual; at this coarse 32^2 grid it sits
    # near 1e-6 (the acceptance-level 1e-6 bound is checked at 64^2)
    energy = np.array([r.energy for r in tr.reports])
    assert np.abs(energy / energy[0] - 1.0).max() <= 5e-6


def test_enstrophy_zero_with_step_chain(ic32):
    tr = run(StepPlan(t_end=0.5, cfl=0.3, n_snapshots=6),
             Vorticity2D(ic32, corrector="flux_l2",
                         target=co.L2RateTarget.fixed(0.0), step_target=co.L2RateTarget.fixed(0.0)))
    enstrophy = np.array([r.enstrophy for r in tr.reports])
    assert np.abs(enstrophy / enstrophy[0] - 1.0).max() <= 1e-12
    masses = np.array([r.mass for r in tr.reports])
    assert np.abs(masses - masses[0]).max() <= 1e-12


def test_forcing_and_viscosity_break_invariants_but_run(ic32):
    tr = run(StepPlan(t_end=0.2, cfl=0.3, n_snapshots=3),
             Vorticity2D(ic32, corrector="energy", target=co.L2RateTarget.clamp(),
                         nu=1e-3, forcing=True))
    assert tr.error is None
    # forcing injects energy: the corrector guards only the inviscid terms
    assert np.all(np.isfinite(np.asarray(tr.snapshots)))


def test_stage_records_carry_rates(ic32, monkeypatch):
    reports = _reports(monkeypatch, "correct_flux_l2_2d")
    tr = run(StepPlan(t_end=0.1, cfl=0.3, n_snapshots=2),
             Vorticity2D(ic32, corrector="flux_l2",
                         target=co.L2RateTarget.fixed(-0.05)))
    kinds = {row.kind for row in tr.stage_records.rows}
    assert kinds == {"l2_x", "l2_y"}
    assert len(reports) == len(tr.stage_records)
    for rec in reports:
        assert rec.achieved_rate == pytest.approx(rec.target_rate, rel=1e-10,
                                                  abs=1e-12)


@pytest.mark.parametrize("target", [
    co.L2RateTarget.fixed(-0.2), co.TrackedRateSource([0.0, 1.0], [-0.2, -0.2])],
    ids=["fixed", "tracked"])
def test_flux_l2_total_enstrophy_rate_is_the_target(target):
    # the x and y fluxes each carry half of the prescribed rate
    ic = ic_random_vorticity(UniformGrid2D(32, 32, 2 * np.pi, 2 * np.pi),
                             seed=42)
    driver = Vorticity2D(ic, corrector="flux_l2", target=target)
    y = driver.initial_array()
    rhs = driver.rhs(driver.evaluate(y), 0.0, 0.01).reshape(ic.values.shape)
    rate = bracket(ic.values, rhs, ic.grid.cell_volume)
    assert rate == pytest.approx(-0.2, rel=1e-10)
