import numpy as np
import pytest

from invariant_guard import correctors as co
from invariant_guard.core import (FvField1D, SpectralField, UniformGrid1D)
from invariant_guard.drivers import (FtcsAdvection, ScalarFv1D,
                                     SpectralAdvection)
from invariant_guard.errors import (ConfigurationError, DegenerateCorrection,
                                    NonFiniteState, NumericalBlowup)
from invariant_guard.problems import ic_sine
from invariant_guard.schemes import FluxScheme
from invariant_guard.timeloop import (StepPlan, cfl_dt, cfl_dt_2d,
                                      discrete_step, run, ssprk3_step)


def test_cfl_dt_examples():
    assert cfl_dt(1.0, 0.1, 0.3, 1.0) == pytest.approx(0.03, rel=1e-15)
    assert cfl_dt(0.0, 0.1, 0.3, 0.7) == 0.7          # degenerate speed
    # Euler sound speed case: dt = cfl dx / sqrt(1.4)
    assert cfl_dt(np.sqrt(1.4), 0.1, 0.3, 1.0) == \
        pytest.approx(0.03 / np.sqrt(1.4), rel=1e-14)
    assert cfl_dt_2d(1.0, 2.0, 0.5, 0.25, 0.3, 1.0) == \
        pytest.approx(0.3 / (2.0 + 8.0), rel=1e-14)


def test_ssprk3_zero_rhs():
    y = np.array([1.0, -2.0, 3.0])
    out = ssprk3_step(y, 0.0, 0.1, lambda u, t, dt: np.zeros(3))
    assert np.allclose(out, y, atol=1e-16)


def test_ssprk3_stability_polynomial():
    # u' = -u: one step must equal 1 - z + z^2/2 - z^3/6 at z = dt
    for dt in (0.1, 0.37, 1.0):
        out = ssprk3_step(np.array([1.0]), 0.0, dt, lambda u, t, h: -u)
        poly = 1.0 - dt + dt**2 / 2.0 - dt**3 / 6.0
        assert out[0] == pytest.approx(poly, rel=1e-14)


def test_ssprk3_third_order_on_exact_advection():
    # spectral RHS is exact in space, so dt halving shows pure 3rd order
    g_len = 2 * np.pi
    coeffs = np.zeros(5, dtype=complex)
    coeffs[1] = 0.4 - 0.3j
    coeffs[2] = 0.1 + 0.2j
    ic = SpectralField(g_len, coeffs)
    errs = []
    for dt in (0.1, 0.05, 0.025):
        drv = SpectralAdvection(ic, c=1.0)
        plan = StepPlan(t_end=1.0, n_snapshots=2, dt_override=dt)
        tr = run(plan, drv)
        m = np.arange(5)
        exact = ic.coeffs * np.exp(-2j * np.pi * m * 1.0 / g_len)
        errs.append(np.abs(tr.snapshots[-1] - exact).max())
    r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
    assert 6.5 <= r1 <= 9.5, r1
    assert 6.5 <= r2 <= 9.5, r2


def test_clamp_chain_is_noop_on_monotone_flux():
    g = UniformGrid1D(32, 1.0)
    ic = ic_sine(g)
    plain = ScalarFv1D(ic, "advection", FluxScheme.UPWIND, c=1.0)
    chained = ScalarFv1D(ic, "advection", FluxScheme.UPWIND, c=1.0,
                         target=co.L2RateTarget.clamp())
    plan = StepPlan(t_end=0.5, cfl=0.3, n_snapshots=6)
    tr1, tr2 = run(plan, plain), run(plan, chained)
    for a, b in zip(tr1.snapshots, tr2.snapshots):
        assert np.array_equal(a, b)


def test_discrete_step_and_ftcs_chain():
    g = UniformGrid1D(16, 1.0)
    u = ic_sine(g)
    out = discrete_step(u.values, 0.0, 0.1, lambda y, t, dt: np.zeros(16))
    assert np.array_equal(out, u.values)

    plan = StepPlan(integrator="discrete", t_end=0.5, cfl=0.5, n_snapshots=6)
    tr = run(plan, FtcsAdvection(u, c=1.0, target=co.L2RateTarget.fixed(0.0)))
    l2 = np.array([r.l2 for r in tr.reports])
    assert np.abs(l2 / l2[0] - 1.0).max() <= 1e-12


def test_forward_euler_step_corrector_holds_l2():
    # per stage the flux corrector pins dl2/dt = 0, but a forward-Euler step
    # still adds dt^2 |N|^2 / 2 to l2; the step corrector removes exactly that
    ic = ic_sine(UniformGrid1D(64, 1.0))
    plan = StepPlan(integrator="forward_euler", cfl=0.3, t_end=1.0,
                    n_snapshots=11)
    growth = {}
    for step_target in (co.L2RateTarget.fixed(0.0), None):
        drv = ScalarFv1D(ic, "burgers", FluxScheme.CENTERED,
                         target=co.L2RateTarget.fixed(0.0),
                         step_target=step_target)
        tr = run(plan, drv)
        assert tr.error is None
        l2 = np.array([r.l2 for r in tr.reports])
        growth[step_target] = l2 / l2[0] - 1.0
        if step_target is not None:
            kinds = [r.kind for r in tr.stage_records]
            # one stage, so one flux correction, per step
            assert kinds.count("l2") == kinds.count("step_delta_l2") > 0
            assert len(kinds) == 2 * kinds.count("l2")
    assert np.abs(growth[co.L2RateTarget.fixed(0.0)]).max() <= 1e-12
    assert growth[None][-1] > 10.0


def test_zero_duration_run():
    g = UniformGrid1D(8, 1.0)
    drv = ScalarFv1D(ic_sine(g), "advection", FluxScheme.UPWIND, c=1.0)
    tr = run(StepPlan(t_end=0.0, n_snapshots=1), drv)
    assert len(tr.snapshots) == 1 and tr.times == [0.0]


@pytest.mark.parametrize("max_steps, complete", [(10, True), (9, False)])
def test_step_budget_counts_only_unfinished_runs(max_steps, complete):
    # the run reaches t_end in exactly 10 steps
    g = UniformGrid1D(16, 1.0)
    drv = ScalarFv1D(ic_sine(g), "advection", FluxScheme.UPWIND, c=1.0)
    tr = run(StepPlan(t_end=0.1, cfl=0.5, n_snapshots=3, max_steps=max_steps),
             drv)
    assert (tr.error is None) == complete
    if not complete:
        assert isinstance(tr.error, NumericalBlowup)
        assert "step budget" in str(tr.error)
    assert len(tr.times) == (3 if complete else 2)


def test_advection_one_period_translation_identity():
    coeffs = np.zeros(5, dtype=complex)
    coeffs[1] = 0.5 + 0.1j
    coeffs[2] = -0.2 + 0.3j
    ic = SpectralField(2 * np.pi, coeffs)
    drv = SpectralAdvection(ic, c=1.0)
    plan = StepPlan(t_end=2 * np.pi, n_snapshots=2, dt_override=2 * np.pi / 20000)
    tr = run(plan, drv)
    assert np.abs(tr.snapshots[-1] - ic.coeffs).max() <= 1e-10


def test_determinism_same_seed_same_trajectory():
    from invariant_guard.problems import ic_sum_of_sines
    g = UniformGrid1D(32, 1.0)
    plan = StepPlan(t_end=0.5, cfl=0.3, n_snapshots=6)
    runs = []
    for _ in range(2):
        ic = ic_sum_of_sines(g, seed=9, family="advection")
        tr = run(plan, ScalarFv1D(ic, "advection", FluxScheme.MUSCL_MC, c=1.0))
        runs.append(np.asarray(tr.snapshots))
    assert np.array_equal(runs[0], runs[1])


def test_blowup_keeps_partial_trajectory():
    g = UniformGrid1D(16, 1.0)

    class Exploding(ScalarFv1D):
        def rhs(self, y, t, dt):
            return y * 1e6  # exponential blowup

    drv = Exploding(ic_sine(g), "advection", FluxScheme.UPWIND, c=1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        tr = run(StepPlan(t_end=1.0, cfl=0.3, n_snapshots=11, dt_override=0.01),
                 drv)
    assert tr.error is not None
    assert len(tr.snapshots) >= 1  # the initial snapshot survives


def test_non_finite_stage_is_recorded():
    # an overflowing stage makes the next stage's field constructor reject
    # the state; the run must record that as a blow-up, not raise
    g = UniformGrid1D(16, 1.0)

    class OverflowsOnce(ScalarFv1D):
        calls = 0

        def rhs(self, y, t, dt):
            self.calls += 1
            if self.calls == 1:
                return np.full_like(y, np.inf)
            return super().rhs(y, t, dt)

    drv = OverflowsOnce(ic_sine(g), "advection", FluxScheme.UPWIND, c=1.0)
    with np.errstate(invalid="ignore"):
        tr = run(StepPlan(t_end=1.0, n_snapshots=2, dt_override=0.1), drv)
    assert isinstance(tr.error, NonFiniteState)
    assert isinstance(tr.error, ValueError)
    assert drv.calls == 2
    assert len(tr.snapshots) == 1


def _raising_driver(exc):
    g = UniformGrid1D(16, 1.0)

    class Raising(ScalarFv1D):
        def rhs(self, y, t, dt):
            raise exc

    return Raising(ic_sine(g), "advection", FluxScheme.UPWIND, c=1.0)


@pytest.mark.parametrize("exc", [TypeError("bug in rhs"),
                                 ConfigurationError("bad option")])
def test_programming_and_configuration_errors_propagate(exc):
    with pytest.raises(type(exc)):
        run(StepPlan(t_end=1.0, n_snapshots=2, dt_override=0.1),
            _raising_driver(exc))


def test_corrector_error_is_recorded():
    exc = DegenerateCorrection("zero denominator")
    tr = run(StepPlan(t_end=1.0, n_snapshots=2, dt_override=0.1),
             _raising_driver(exc))
    assert tr.error is exc
    assert len(tr.snapshots) == 1


def test_stepplan_validation():
    with pytest.raises(ValueError):
        StepPlan(cfl=0.0)
    with pytest.raises(ValueError):
        StepPlan(integrator="rk4")
