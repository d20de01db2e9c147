"""Drivers record what the correctors report instead of re-measuring it."""

import warnings
from collections import Counter

import numpy as np
import pytest

from invariant_guard import correctors as co
from invariant_guard import schemes
from invariant_guard.core import EulerState1D, UniformGrid1D, UniformGrid2D
from invariant_guard.dg import burgers_centered_rule, dg_project
from invariant_guard.drivers import (DgScalar1D, Euler1D, FtcsAdvection,
                                     NonconservativeBurgers1D, ScalarFv1D,
                                     Vorticity2D)
from invariant_guard.problems import (ic_random_vorticity, ic_sine, ic_sod,
                                      ic_sum_of_sines)
from invariant_guard.schemes import FluxScheme
from invariant_guard.surrogate import SurrogateFluxRule
from invariant_guard.timeloop import StepPlan, run


def _calls_per_stage(monkeypatch, driver, plan, *targets):
    """Run ``driver`` with each ``(owner, name)`` of ``targets`` counted
    under ``name``; the trajectory, the run's total counts and one Counter
    of the calls within each rhs call."""
    total = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            total[name] += 1
            return fn(*args, **kwargs)
        return counted
    for owner, name in targets:
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))

    per_stage = []
    rhs = driver.rhs

    def rhs_counted(y, t, dt):
        before = total.copy()
        out = rhs(y, t, dt)
        per_stage.append(total - before)
        return out
    driver.rhs = rhs_counted
    traj = run(plan, driver)
    assert traj.error is None
    assert len(traj.stage_records) == len(per_stage)   # one record per stage
    return traj, total, per_stage


def _sod_run(monkeypatch, *targets):
    driver = Euler1D(ic_sod(UniformGrid1D(64, 1.0, boundary="dirichlet")),
                     entropy_ratio=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", co.AntiDiffusiveTargetWarning)
        return _calls_per_stage(
            monkeypatch, driver, StepPlan(t_end=0.02, cfl=0.3, n_snapshots=2),
            *targets)


def test_sod_entropy_variables_once_per_stage(monkeypatch):
    # the stage's entropy variables serve the boundary estimate and the
    # corrector
    _, _, per_stage = _sod_run(monkeypatch, (co, "entropy_variables_euler1d"))
    assert per_stage
    assert max(c["entropy_variables_euler1d"] for c in per_stage) <= 1


def test_sod_stage_takes_pressure_and_ghost_rows_once(monkeypatch):
    # the flux, the limiter, the boundary estimate and the entropy corrector
    # share one pressure and one ghost-row array per stage; psi of the fixed
    # Dirichlet pair is computed once per driver
    _, total, per_stage = _sod_run(
        monkeypatch, (EulerState1D, "pressure"), (schemes, "ghost_rows"),
        (co, "ghost_rows"), (co, "entropy_flux_pair"))
    assert len(per_stage) > 3
    for calls in per_stage:
        assert calls["pressure"] <= 1 and calls["ghost_rows"] <= 1
    assert total["entropy_flux_pair"] == 1


def _stage_inputs(monkeypatch, driver, plan):
    """(y, t, dt) of every stage of a run of ``driver``, with whether the
    positivity limiter built its Lax-Friedrichs fallback in that stage."""
    built = [0]
    fallback = co.local_lax_friedrichs_fluxes

    def counted(*args):
        built[0] += 1
        return fallback(*args)
    monkeypatch.setattr(co, "local_lax_friedrichs_fluxes", counted)

    stages = []
    rhs = driver.rhs

    def captured(y, t, dt):
        before = built[0]
        out = rhs(y, t, dt)
        stages.append((y.copy(), t, dt, built[0] > before))
        return out
    driver.rhs = captured
    traj = run(plan, driver)
    del driver.rhs
    assert traj.error is None
    return stages


def _standalone_rhs(driver, y, dt):
    """One stage through the public entry points, each given the bare state
    and computing what it needs itself."""
    state = driver.state_of(y)
    f = schemes.euler1d_muscl_flux(state, driver.boundary_state)
    if driver.positivity:
        f = co.limit_positivity_euler1d(f, state, dt, driver.eps_pos,
                                        driver.boundary_state)
    if driver.entropy_ratio is not None:
        boundary = co.estimate_boundary_entropy_flux(state,
                                                     driver.boundary_state)
        f, _ = co.correct_entropy_euler1d(
            f, state, co.EntropyRateTarget(boundary, driver.entropy_ratio))
    return schemes.euler1d_rhs(f, driver.grid).ravel()


def _double_rarefaction(n=64, v=2.0):
    # the 1-2-3 problem: two rarefactions leave a near-vacuum between them
    g = UniformGrid1D(n, 1.0, "dirichlet")
    x = g.cell_centers()
    return EulerState1D.from_primitive(g, np.ones(n), np.where(x < 0.5, -v, v),
                                       np.full(n, 0.4), 1.4)


def _random_periodic_euler(n=32, seed=5):
    rng = np.random.default_rng(seed)
    return EulerState1D.from_primitive(
        UniformGrid1D(n, 1.0), rng.uniform(0.5, 2.0, n),
        rng.uniform(-1.0, 1.0, n), rng.uniform(0.5, 2.0, n), 1.4)


EULER_STAGE_CASES = {
    "sod_r0": (lambda: ic_sod(UniformGrid1D(64, 1.0, "dirichlet")), 0.0, 0.02),
    "sod_r1": (lambda: ic_sod(UniformGrid1D(64, 1.0, "dirichlet")), 1.0, 0.02),
    "sod_r2": (lambda: ic_sod(UniformGrid1D(64, 1.0, "dirichlet")), 2.0, 0.02),
    "random_periodic": (_random_periodic_euler, 0.5, 0.01),
    # R = 2 reads the boundary estimate, whose pair has psi of both signs;
    # the limiter builds its fallback in the last steps
    "double_rarefaction": (_double_rarefaction, 2.0, 0.012),
}


@pytest.mark.parametrize("case", list(EULER_STAGE_CASES))
def test_euler_stage_is_the_standalone_chain_bitwise(monkeypatch, case):
    make_ic, ratio, t_end = EULER_STAGE_CASES[case]
    driver = Euler1D(make_ic(), entropy_ratio=ratio)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", co.AntiDiffusiveTargetWarning)
        stages = _stage_inputs(monkeypatch, driver,
                               StepPlan(t_end=t_end, cfl=0.3, n_snapshots=2))
        assert len(stages) > 3
        if case == "double_rarefaction":
            assert any(fell_back for *_, fell_back in stages)
        for y, t, dt, _ in stages:
            assert driver.rhs(y, t, dt).tobytes() \
                == _standalone_rhs(driver, y, dt).tobytes()


def test_euler_stage_state_is_the_stage_array():
    # the stage state wraps y without a copy, and the Dirichlet boundary is
    # the pair of conserved end cells of the initial condition
    ic = ic_sod(UniformGrid1D(8, 1.0, boundary="dirichlet"))
    driver = Euler1D(ic)
    y = driver.initial_array()
    assert np.shares_memory(driver.state_of(y).u, y)
    left, right = driver.boundary_state
    assert np.array_equal(left, ic.u[0]) and np.array_equal(right, ic.u[-1])


def test_flux_rate_at_most_twice_per_stage(monkeypatch):
    driver = ScalarFv1D(ic_sine(UniformGrid1D(32, 1.0)), "burgers",
                        FluxScheme.CENTERED, target=co.L2RateTarget.fixed(-0.1))
    traj, _, per_stage = _calls_per_stage(
        monkeypatch, driver, StepPlan(t_end=0.1, cfl=0.3, n_snapshots=2),
        (co, "flux_l2_rate_1d"))
    assert per_stage
    assert max(c["flux_l2_rate_1d"] for c in per_stage) <= 2
    # the records are the corrector's reports, stamped by the driver
    for rec in traj.stage_records:
        assert isinstance(rec, co.Correction)
        assert rec.kind == "l2" and 0.0 <= rec.t <= 0.1
        assert rec.target_rate == -0.1
        assert np.isclose(rec.achieved_rate, -0.1, rtol=1e-12)


def test_ftcs_tracked_step_changes_l2_by_rate_times_dt():
    # the FTCS increment corrector reads a step spec, as step_correction does
    src = co.TrackedRateSource([0.0, 1.0], [-0.1, -0.3])
    driver = FtcsAdvection(ic_sine(UniformGrid1D(64, 1.0)), c=1.0,
                           target=src)
    y, dt = driver.initial_array(), 0.005
    for t in (0.0, 0.4):
        y_new = y + driver.increment(y, t, dt)
        change = driver.report(y_new, t + dt).l2 - driver.report(y, t).l2
        assert change == pytest.approx(src.rate_at(t + 0.5 * dt) * dt,
                                       rel=1e-9)
        y = y_new


def _stage_path_drivers():
    g = UniformGrid1D(32, 1.0)
    fixed = co.L2RateTarget.fixed(-0.1)
    dg_ic = dg_project(g, 2, lambda x: np.sin(2.0 * np.pi * x))
    return {
        "centered": ScalarFv1D(ic_sine(g), "burgers", FluxScheme.CENTERED,
                               target=fixed, step_target=co.L2RateTarget.clamp()),
        "godunov": ScalarFv1D(ic_sine(g), "burgers", FluxScheme.GODUNOV,
                              nu=1e-3),
        "muscl": ScalarFv1D(ic_sine(g), "advection", FluxScheme.MUSCL_MC,
                            target=fixed),
        "surrogate": ScalarFv1D(
            ic_sine(g), "advection",
            SurrogateFluxRule(FluxScheme.UPWIND, "advection", 1.5, 0),
            target=co.L2RateTarget.clamp()),
        "nonconservative": NonconservativeBurgers1D(ic_sine(g), target=fixed),
        "ftcs": FtcsAdvection(ic_sine(g), target=co.L2RateTarget.clamp()),
        "dg_diffusion": DgScalar1D(dg_ic, lambda u: 0.5 * u * u,
                                   burgers_centered_rule, target=fixed),
        "vorticity": Vorticity2D(
            ic_random_vorticity(UniformGrid2D(16, 16, 1.0, 1.0), 42),
            corrector="flux_l2", target=fixed, nu=1e-3, step_target=co.L2RateTarget.clamp()),
        "periodic_euler": Euler1D(ic_sum_of_sines(g, 3, "euler1d"),
                                  entropy_ratio=0.5),
    }


@pytest.mark.parametrize("name", list(_stage_path_drivers()))
def test_stage_path_makes_no_roll(monkeypatch, name):
    # periodic neighbours come from core.shift on every stage path; only
    # verification.py, the independent re-measurement, keeps np.roll
    driver = _stage_path_drivers()[name]

    def roll(*args, **kwargs):
        raise AssertionError("np.roll on the stage path")
    monkeypatch.setattr(np, "roll", roll)
    integrator = "discrete" if name == "ftcs" else "ssprk3"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", co.AntiDiffusiveTargetWarning)
        traj = run(StepPlan(integrator, t_end=1e-3, n_snapshots=2, dt_max=1e-3),
                   driver)
    assert traj.error is None and traj.times == [0.0, 1e-3]
    assert name == "godunov" or traj.stage_records
