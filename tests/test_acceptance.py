"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

The criteria pin exact algebraic post-conditions, oracle equivalences, and
the qualitative replication runs; every tolerance is asserted as stated.
"""

import time
import warnings

import numpy as np
import pytest

from invariant_guard import correctors as co
from invariant_guard.cli import run_with_rates
from invariant_guard.core import (EulerState1D, FvField1D, UniformGrid1D,
                                  UniformGrid2D, bracket, coarse_grain_2d,
                                  FvField2D)
from invariant_guard.diagnostics import total_variation, vorticity_correlation
from invariant_guard.drivers import (Euler1D, FtcsAdvection, ScalarFv1D,
                                     Vorticity2D)
from invariant_guard.problems import (ic_random_vorticity, ic_sine, ic_sod,
                                      ic_sum_of_sines)
from invariant_guard.schemes import FluxScheme, ftcs_increment
from invariant_guard.surrogate import SurrogateFluxRule
from invariant_guard.timeloop import StepPlan, run, ssprk3_step
from invariant_guard.verification import CASES, run_property_suite


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# -----------------------------------------------------------------------------
# 1. corrector exactness suite
# -----------------------------------------------------------------------------

def test_criterion_1_exactness_suite():
    t0 = time.time()
    results = run_property_suite(seed=0, trials=200)
    elapsed = time.time() - t0
    by_name = {r.name: r for r in results}
    # every linear case's exactness row ran and checked something
    exact_names = [case.exact_name for case in CASES]
    unchecked = [n for n in exact_names if n not in by_name
                 or by_name[n].checks == 0]
    failures = [r.name for r in results if not r.passed]
    checks = sum(r.checks for r in results)
    ok = (not failures and not unchecked and elapsed < 30.0
          and len(exact_names) >= 8)
    report(1, ok, f"{len(results)} properties / {checks} randomized checks "
                  f"in {elapsed:.1f}s (< 30 s), failures: {failures or 'none'}, "
                  f"exactness rows without checks: {unchecked or 'none'}")


# -----------------------------------------------------------------------------
# 2. no-op property
# -----------------------------------------------------------------------------

def test_criterion_2_noop_property():
    by_name = {r.name: r for r in run_property_suite(seed=1, trials=200)}
    noop = [case.noop_name for case in CASES if case.noop_name] \
        + ["increment fixed point no-op"]
    assert len(noop) >= 8 and set(noop) <= set(by_name), noop
    failed = [n for n in noop if not by_name[n].passed or by_name[n].checks == 0]
    report(2, not failed,
           f"{len(noop)} no-op properties at <= 1e-14 relative "
           f"(bitwise on explicit early returns); failures: {failed or 'none'}")


# -----------------------------------------------------------------------------
# 3. Fig 1 replication: Burgers with the centered flux
# -----------------------------------------------------------------------------

def test_criterion_3_fig1_burgers():
    t0 = time.time()
    g = UniformGrid1D(64, 1.0)
    ic = ic_sine(g)

    # (a) uncorrected centered flux: the instability is seeded by rounding
    # noise (float64), so the blow-up lands near t ~ 21 rather than the
    # paper's float32-era t ~ 0.5; the horizon covers it.
    with np.errstate(over="ignore", invalid="ignore"):
        tr_un = run(StepPlan(t_end=25.0, cfl=0.3, n_snapshots=101,
                             max_steps=500000),
                    ScalarFv1D(ic, "burgers", FluxScheme.CENTERED))
    l2_un = np.array([r.l2 for r in tr_un.reports])
    drv = ScalarFv1D(ic, "burgers", FluxScheme.CENTERED)
    rates = [co.flux_l2_rate_1d(drv.face_fluxes(y, 1e-6), FvField1D(g, y))
             for y in tr_un.snapshots]
    grew = float(np.nanmax(l2_un / l2_un[0]))
    blowup = grew > 1.0 and max(rates) > 0.0

    # (b) corrected, target 0: l2 constant within 1e-6 over [0, 1]
    plan1 = StepPlan(t_end=1.0, cfl=0.3, n_snapshots=101)
    tr0 = run(plan1, ScalarFv1D(ic, "burgers", FluxScheme.CENTERED,
                                target=co.L2RateTarget.fixed(0.0),
                                step_target=co.L2RateTarget.fixed(0.0)))
    l2_0 = np.array([r.l2 for r in tr0.reports])
    drift = float(np.abs(l2_0 / l2_0[0] - 1.0).max())

    # (c) tracked rates from the N=512 MUSCL reference beat target 0; the
    # reference records them as the CLI's reference run does
    tr_ref, src = run_with_rates(plan1, ScalarFv1D(
        ic_sine(UniformGrid1D(512, 1.0)), "burgers", FluxScheme.MUSCL_MC))
    tr_t = run(plan1, ScalarFv1D(ic, "burgers", FluxScheme.CENTERED,
                                 target=src, step_target=src))
    l2_ref = np.array([r.l2 for r in tr_ref.reports])
    l2_t = np.array([r.l2 for r in tr_t.reports])
    err0 = float(np.abs(l2_0 - l2_ref).mean())
    errt = float(np.abs(l2_t - l2_ref).mean())

    elapsed = time.time() - t0
    ok = blowup and drift <= 1e-6 and errt < err0 and elapsed < 60.0
    report(3, ok,
           f"centered: max dl2/dt {max(rates):.3g} > 0, peak l2 ratio "
           f"{grew:.3g} > 1 (float64 blow-up at t~{tr_un.times[-1]:.0f}; "
           f"paper's 0.5 is float32-seeded); target-0 drift {drift:.2e} "
           f"<= 1e-6; tracked err {errt:.3g} < target-0 err {err0:.3g}; "
           f"{elapsed:.0f}s < 60s")


# -----------------------------------------------------------------------------
# 4. Fig 3 replication: FTCS advection
# -----------------------------------------------------------------------------

def test_criterion_4_fig3_ftcs():
    g = UniformGrid1D(64, 1.0)
    ic = ic_sine(g)
    vols = g.dx
    dt = 0.5 * g.dx  # CFL 0.5, c = 1

    # uncorrected: strictly increasing l2 every step
    y = ic.values.copy()
    increasing = True
    for _ in range(128):
        inc = ftcs_increment(FvField1D(g, y), 1.0, dt)
        dl2 = bracket(y, inc, vols) + 0.5 * bracket(inc, inc, vols)
        increasing &= dl2 > 0.0
        y = y + inc

    # corrected: l2 constant to 1e-12 per step, eps checked against the
    # quadratic-root oracle every step
    y = ic.values.copy()
    l2 = lambda v: 0.5 * bracket(v, v, vols)
    max_step_drift = 0.0
    max_eps_dev = 0.0
    for _ in range(128):
        field = FvField1D(g, y)
        inc = ftcs_increment(field, 1.0, dt)
        out, _ = co.correct_increment_mass_l2(inc, field, 0.0)
        gvec = co._default_cell_G(field, vols)
        a, b, c = co.increment_quadratic_coefficients(inc, field, 0.0)
        roots = np.roots([a, 2.0 * b, c])
        oracle = roots[np.argmin(np.abs(roots))].real
        bar = inc - np.sum(inc * vols) / (vols * g.n_cells)
        eps = float((out - bar) @ gvec) / float(gvec @ gvec)
        max_eps_dev = max(max_eps_dev, abs(eps - oracle) / max(abs(oracle), 1e-30))
        before = l2(y)
        y = y + out
        max_step_drift = max(max_step_drift, abs(l2(y) - before) / before)

    ok = increasing and max_step_drift <= 1e-12 and max_eps_dev <= 1e-6
    report(4, ok,
           f"uncorrected l2 strictly increases each of 128 steps; corrected "
           f"per-step drift {max_step_drift:.2e} <= 1e-12; eps vs root "
           f"oracle dev {max_eps_dev:.2e}")


# -----------------------------------------------------------------------------
# 5. Fig 4 replication at desk scale: 2D incompressible Euler
# -----------------------------------------------------------------------------

def test_criterion_5_fig4_euler2d():
    t0 = time.time()
    g = UniformGrid2D(64, 64, 2 * np.pi, 2 * np.pi)
    ic = ic_random_vorticity(g, seed=42)
    plan = StepPlan(t_end=1.0, cfl=0.3, n_snapshots=11)

    # invariant check: forcing disabled
    tr_e = run(plan, Vorticity2D(ic, corrector="energy",
                                 target=co.L2RateTarget.clamp()))
    # max_energy_error: the interval's worst |<psi|N>| / max(scale, 1e-30)
    stage_ok = all(row.max_energy_error <= 1e-12
                   for row in tr_e.stage_records.rows)
    energy = np.array([r.energy for r in tr_e.reports])
    e_drift = float(np.abs(energy / energy[0] - 1.0).max())

    tr_p = run(plan, Vorticity2D(ic))
    en_p = np.array([r.energy for r in tr_p.reports])
    monotone = bool(np.all(np.diff(en_p) <= 1e-12 * en_p[0]))

    tr_z = run(plan, Vorticity2D(ic, corrector="flux_l2",
                                 target=co.L2RateTarget.fixed(0.0),
                                 step_target=co.L2RateTarget.fixed(0.0)))
    ens_z = np.array([r.enstrophy for r in tr_z.reports])
    z_drift = float(np.abs(ens_z / ens_z[0] - 1.0).max())

    # correlation check: forcing enabled, 64^2 vs 128^2 reference
    g_ref = UniformGrid2D(128, 128, 2 * np.pi, 2 * np.pi)
    forced = dict(nu=1e-3, forcing=True)
    tr_ref = run(plan, Vorticity2D(ic_random_vorticity(g_ref, seed=42),
                                   **forced))
    tr_c = run(plan, Vorticity2D(ic, corrector="energy",
                                 target=co.L2RateTarget.clamp(), **forced))
    corr = []
    for yc, yr in zip(tr_c.snapshots, tr_ref.snapshots):
        ref_c = coarse_grain_2d(FvField2D(g_ref, yr.reshape(128, 128)), 2)
        corr.append(vorticity_correlation(yc, ref_c.values))
    corr = np.array(corr)

    elapsed = time.time() - t0
    ok = (stage_ok and e_drift < 1e-6 and monotone and z_drift <= 1e-6
          and corr[0] > 0.99 and np.all(np.isfinite(corr)) and corr.min() > 0.5
          and elapsed < 600.0)
    report(5, ok,
           f"per-stage <psi|N> <= 1e-12*scale: {stage_ok}; energy drift "
           f"{e_drift:.2e} < 1e-6; plain MUSCL energy monotone: {monotone}; "
           f"enstrophy-0 drift {z_drift:.2e} <= 1e-6; correlation vs 128^2 "
           f"in [{corr.min():.3f}, {corr.max():.3f}]; {elapsed:.0f}s < 600s")


# -----------------------------------------------------------------------------
# 6. Fig 6 replication: Sod shock tube
# -----------------------------------------------------------------------------

def test_criterion_6_fig6_sod():
    t0 = time.time()
    g = UniformGrid1D(256, 1.0, boundary="dirichlet")
    ic = ic_sod(g)
    eps = 1e-12 * max(float(ic.rho.max()), float(ic.pressure().max()))
    plan = StepPlan(t_end=0.2, cfl=0.3, n_snapshots=6)

    outcomes = {}
    for ratio in (0.0, 1.0, 2.0):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", co.AntiDiffusiveTargetWarning)
            tr = run(plan, Euler1D(ic, entropy_ratio=ratio))
        assert tr.error is None, f"R={ratio}: {tr.error}"
        minima = np.array([(m[1], m[2]) for m in tr.step_minima])
        # max_rate_error: the interval's worst |achieved - target|
        # / max(|old|, |target|, 1e-30)
        rate_err = max((row.max_rate_error for row in tr.stage_records.rows
                        if row.kind == "entropy"), default=0.0)
        rho_end = tr.snapshots[-1].reshape(256, 3)[:, 0]
        outcomes[ratio] = (minima, rate_err, total_variation(rho_end, False))

    pos_ok = all(outcomes[r][0].min() >= eps for r in (1.0, 2.0))
    rate_ok = all(outcomes[r][1] <= 1e-10 for r in (0.0, 1.0, 2.0))
    tv_ok = outcomes[2.0][2] < outcomes[1.0][2]
    elapsed = time.time() - t0
    ok = pos_ok and rate_ok and tv_ok and elapsed < 60.0
    report(6, ok,
           f"min rho/p >= eps_pos for R in {{1,2}}: {pos_ok}; stage entropy "
           f"rate rel err <= 1e-10 for all R: {rate_ok} (max "
           f"{max(outcomes[r][1] for r in outcomes):.2e}); TV(rho) R=2 "
           f"{outcomes[2.0][2]:.4f} < R=1 {outcomes[1.0][2]:.4f}; "
           f"{elapsed:.0f}s < 60s")


# -----------------------------------------------------------------------------
# 7. convergence checks
# -----------------------------------------------------------------------------

def test_criterion_7_convergence():
    # MUSCL advection: 2nd order in MAE per grid doubling
    errs = {}
    for n in (32, 64, 128):
        g = UniformGrid1D(n, 1.0)
        ic = ic_sine(g)
        tr = run(StepPlan(t_end=1.0, cfl=0.3, n_snapshots=2),
                 ScalarFv1D(ic, "advection", FluxScheme.MUSCL_MC, c=1.0))
        errs[n] = float(np.abs(tr.snapshots[-1] - ic.values).mean())
    ratios = [errs[32] / errs[64], errs[64] / errs[128]]
    muscl_ok = all(3.2 <= r <= 4.8 for r in ratios)

    # SSPRK3 matches its stability polynomial on u' = -u to 1e-12
    poly_dev = 0.0
    for dt in (0.05, 0.2, 0.8):
        y = np.array([1.0])
        out = ssprk3_step(y, y, 0.0, dt, lambda u, t, h: -u, lambda u: u)
        poly = 1.0 - dt + dt**2 / 2.0 - dt**3 / 6.0
        poly_dev = max(poly_dev, abs(out[0] - poly))

    # 3rd order in dt on smooth advection: SSPRK3 on the modal ODE
    # u_m' = -i (2 pi m / L) c u_m, exact in space (L = 2 pi, c = 1)
    coeffs = np.zeros(5, dtype=complex)
    coeffs[1], coeffs[2] = 0.4 - 0.3j, 0.1 + 0.2j
    m = np.arange(5)
    terrs = []
    for dt in (0.1, 0.05, 0.025):
        u = coeffs
        for n in range(round(1.0 / dt)):
            u = ssprk3_step(u, u, n * dt, dt, lambda v, t, h: -1j * m * v,
                            lambda v: v)
        exact = coeffs * np.exp(-2j * np.pi * m / (2 * np.pi))
        terrs.append(np.abs(u - exact).max())
    tratios = [terrs[0] / terrs[1], terrs[1] / terrs[2]]
    time_ok = all(6.5 <= r <= 9.5 for r in tratios)

    ok = muscl_ok and poly_dev <= 1e-12 and time_ok
    report(7, ok,
           f"MUSCL MAE ratios {ratios[0]:.2f}, {ratios[1]:.2f} in [3.2, 4.8]; "
           f"SSPRK3 polynomial dev {poly_dev:.2e} <= 1e-12; dt-halving "
           f"ratios {tratios[0]:.2f}, {tratios[1]:.2f} in [6.5, 9.5]")


# -----------------------------------------------------------------------------
# 8. surrogate stability
# -----------------------------------------------------------------------------

def test_criterion_8_surrogate():
    g = UniformGrid1D(32, 1.0)
    ic = ic_sum_of_sines(g, seed=100)
    plan = StepPlan(t_end=2.0, cfl=0.3, n_snapshots=21)

    hostile = SurrogateFluxRule(FluxScheme.UPWIND, "advection", 1.5, 0, c=1.0)
    tr_u = run(plan, ScalarFv1D(ic, "advection", hostile, c=1.0))
    l2_u = np.array([r.l2 for r in tr_u.reports])
    growth = float(l2_u[-1] / l2_u[0])

    tr_c = run(plan, ScalarFv1D(ic, "advection", hostile, c=1.0,
                                target=co.L2RateTarget.clamp(),
                                step_target=co.L2RateTarget.clamp()))
    l2_c = np.array([r.l2 for r in tr_c.reports])
    stabilized = l2_c[-1] <= l2_c[0]

    benign = SurrogateFluxRule(FluxScheme.UPWIND, "advection", 0.3, 3, c=1.0)
    tr_b = run(plan, ScalarFv1D(ic, "advection", benign, c=1.0))
    tr_bc = run(plan, ScalarFv1D(ic, "advection", benign, c=1.0,
                                 target=co.L2RateTarget.clamp()))
    dev = max(float(np.abs(a - b).max()) / max(float(np.abs(a).max()), 1e-30)
              for a, b in zip(tr_b.snapshots, tr_bc.snapshots))

    ok = growth > 10.0 and stabilized and dev <= 1e-12
    report(8, ok,
           f"hostile surrogate grows l2 {growth:.3g}x > 10x; clamped run "
           f"l2(t_end)/l2(0) = {l2_c[-1] / l2_c[0]:.6f} <= 1; benign "
           f"surrogate trajectory deviation {dev:.2e} <= 1e-12")


# -----------------------------------------------------------------------------
# 9. entropy-variable gradient check
# -----------------------------------------------------------------------------

def test_criterion_9_gradient_check():
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(100):
        g = UniformGrid1D(4, 1.0)
        state = EulerState1D.from_primitive(
            g, rng.uniform(0.5, 2.0, 4), rng.uniform(-1.0, 1.0, 4),
            rng.uniform(0.5, 2.0, 4), 1.4)
        ev = co.entropy_variables_euler1d(state)
        u = state.u
        h = 1e-7
        for comp in range(3):
            up, um = u.copy(), u.copy()
            up[:, comp] += h
            um[:, comp] -= h
            eta_p = co.entropy_variables_euler1d(
                EulerState1D(g, up, 1.4)).eta
            eta_m = co.entropy_variables_euler1d(
                EulerState1D(g, um, 1.4)).eta
            fd = (eta_p - eta_m) / (2 * h)
            rel = np.abs(fd - ev.w[:, comp]) / np.abs(ev.w).max()
            worst = max(worst, float(rel.max()))
    report(9, worst < 1e-6,
           f"w vs central-difference gradient of eta on 100 random positive "
           f"states: worst rel err {worst:.2e} < 1e-6")
