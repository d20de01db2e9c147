import numpy as np
import pytest

from invariant_guard.core import UniformGrid1D, UniformGrid2D
from invariant_guard.errors import ConfigurationError
from invariant_guard.problems import (EULER_IC_P_MIN, EULER_IC_RHO_MIN,
                                      forcing_2d_kolmogorov, ic_random_euler,
                                      ic_random_vorticity, ic_sine, ic_sod,
                                      ic_sum_of_sines)


def test_sum_of_sines_deterministic():
    g = UniformGrid1D(32, 1.0)
    a = ic_sum_of_sines(g, seed=4)
    b = ic_sum_of_sines(g, seed=4)
    assert np.array_equal(a.values, b.values)
    c = ic_sum_of_sines(g, seed=5)
    assert not np.array_equal(a.values, c.values)


def test_single_mode_is_plain_sine():
    g = UniformGrid1D(64, 2.0)
    x = g.cell_centers()
    # find a seed whose draw is a single mode and compare analytically
    from invariant_guard.problems import advection_sine_params
    for seed in range(64):
        amp, k, phase = advection_sine_params(seed)
        if len(amp) == 1:
            f = ic_sum_of_sines(g, seed)
            expected = amp[0] * np.sin(2 * np.pi * k[0] * x / 2.0 + phase[0])
            assert np.allclose(f.values, expected, atol=1e-14)
            return
    raise AssertionError("no single-mode seed in range")


def test_euler_family_floors():
    g = UniformGrid1D(128, 1.0)
    for seed in range(10):
        s = ic_random_euler(g, seed)
        assert s.rho.min() >= EULER_IC_RHO_MIN
        assert s.pressure().min() >= EULER_IC_P_MIN - 1e-12


def test_kolmogorov_forcing_structure():
    g = UniformGrid2D(16, 16, 2 * np.pi, 2 * np.pi)
    chi = np.zeros((16, 16))
    f = forcing_2d_kolmogorov(g, chi, k=4, drag=0.1)
    # zero vorticity: no drag, and the field is constant along x
    assert np.abs(f - f[0:1, :]).max() <= 1e-15
    rng = np.random.default_rng(8)
    chi = rng.normal(size=(16, 16))
    f2 = forcing_2d_kolmogorov(g, chi, k=4, drag=0.1)
    assert np.allclose(f2, f - 0.1 * chi, atol=1e-15)
    # amplitude at y = 0: (2 pi k / L) cos(0)
    amp = 2 * np.pi * 4 / g.ly
    assert np.abs(f).max() <= amp + 1e-12
    assert np.abs(f).max() >= amp * np.cos(2 * np.pi * 4 * (g.dy / 2) / g.ly) - 1e-12


def test_sod_setup():
    g = UniformGrid1D(64, 1.0, boundary="dirichlet")
    s = ic_sod(g)
    mass = float(np.sum(s.rho * g.dx))
    assert mass == pytest.approx(0.5 * 1.0 + 0.5 * 0.125, rel=1e-14)
    assert s.pressure().min() == pytest.approx(0.1, rel=1e-14)
    assert s.rho[0] == 1.0 and s.rho[-1] == 0.125
    with pytest.raises(ConfigurationError):
        ic_sod(UniformGrid1D(8, 1.0))  # periodic grids rejected


def test_sod_reflection_symmetry_under_evolution():
    # mirroring the domain flips the sign of the evolved velocity field
    from invariant_guard.drivers import Euler1D
    from invariant_guard.timeloop import StepPlan, run
    from invariant_guard.core import EulerState1D
    g = UniformGrid1D(64, 1.0, boundary="dirichlet")
    s = ic_sod(g)
    mirrored = EulerState1D.from_primitive(
        g, s.rho[::-1], -s.velocity()[::-1], s.pressure()[::-1], 1.4)
    plan = StepPlan(t_end=0.05, cfl=0.3, n_snapshots=2)
    tr1 = run(plan, Euler1D(s, positivity=False))
    tr2 = run(plan, Euler1D(mirrored, positivity=False))
    u1 = tr1.snapshots[-1].reshape(64, 3)
    u2 = tr2.snapshots[-1].reshape(64, 3)
    assert np.allclose(u2[:, 0], u1[::-1, 0], atol=1e-12)
    assert np.allclose(u2[:, 1], -u1[::-1, 1], atol=1e-12)
    assert np.allclose(u2[:, 2], u1[::-1, 2], atol=1e-12)


def test_random_vorticity_contract():
    g = UniformGrid2D(64, 64, 2 * np.pi, 2 * np.pi)
    chi = ic_random_vorticity(g, seed=3)
    assert abs(chi.values.mean()) <= 1e-13
    hat = np.fft.fft2(chi.values)
    kx = np.fft.fftfreq(64, d=1 / 64)
    ky = np.fft.fftfreq(64, d=1 / 64)
    kmag = np.sqrt(kx[:, None] ** 2 + ky[None, :] ** 2)
    assert np.abs(hat[kmag > 8]).max() <= 1e-10 * np.abs(hat).max()
    again = ic_random_vorticity(g, seed=3)
    assert np.array_equal(chi.values, again.values)
