"""Initial conditions and the Kolmogorov forcing of the replication runs.

Every generator is a deterministic function of (grid, seed).  Cell averages
are evaluated by the midpoint rule (1-point Gauss quadrature), as the
forcing is sampled.
"""

from __future__ import annotations

import numpy as np

from .core import (DIRICHLET, EulerState1D, FvField1D, FvField2D,
                   UniformGrid1D, UniformGrid2D)
from .errors import ConfigurationError

SOD_LEFT = (1.0, 0.0, 1.0)
SOD_RIGHT = (0.125, 0.0, 0.1)
EULER_IC_RHO_MIN = 0.75
EULER_IC_P_MIN = 0.5


def advection_sine_params(seed):
    """The 1-6 mode, k in 1..4, A in [-1,1] sum-of-sines draw."""
    rng = np.random.default_rng(seed)
    n_modes = rng.integers(1, 7)
    k = rng.integers(1, 5, size=n_modes)
    amp = rng.uniform(-1.0, 1.0, size=n_modes)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=n_modes)
    return amp, k, phase


def evaluate_sines(params, x, length):
    amp, k, phase = params
    return np.sin(2.0 * np.pi * np.outer(x, k) / length + phase) @ amp


def ic_sum_of_sines(grid: UniformGrid1D, seed):
    """The ``sum_of_sines`` initial condition: an FvField1D drawn from the
    1-6 mode, k in 1..4, A in [-1,1] distribution."""
    vals = evaluate_sines(advection_sine_params(seed), grid.cell_centers(),
                          grid.length)
    return FvField1D(grid, vals)


def ic_random_euler(grid: UniformGrid1D, seed, gamma=1.4):
    """The ``random_euler`` initial condition: an EulerState1D of ratio of
    specific heats ``gamma`` whose rho, v and p are single-mode sine draws,
    with floors rho >= 0.75, p >= 0.5."""
    rng = np.random.default_rng(seed)
    x = grid.cell_centers()

    def sine_draw():
        amp = rng.uniform(0.0, 1.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        return amp * np.sin(2.0 * np.pi * x / grid.length + phase)

    rho = np.maximum(EULER_IC_RHO_MIN, 1.0 + sine_draw())
    v = sine_draw()
    p = np.maximum(EULER_IC_P_MIN, 1.0 + sine_draw())
    return EulerState1D.from_primitive(grid, rho, v, p, gamma)


def ic_sine(grid: UniformGrid1D):
    """sin(2 pi x / L) sampled at cell centers."""
    x = grid.cell_centers()
    return FvField1D(grid, np.sin(2.0 * np.pi * x / grid.length))


def forcing_2d_kolmogorov(grid: UniformGrid2D, chi, k=4, drag=0.1):
    """Kolmogorov forcing (2 pi k / L) cos(2 pi k y / L) minus linear drag."""
    _, y = grid.cell_centers()
    f = (2.0 * np.pi * k / grid.ly) * np.cos(2.0 * np.pi * k * y / grid.ly)
    return f - drag * chi


def ic_sod(grid: UniformGrid1D, gamma=1.4):
    """Canonical Sod states (1,0,1) / (0.125,0,0.1) with the jump at L/2."""
    if grid.boundary != DIRICHLET:
        raise ConfigurationError("the Sod problem uses Dirichlet boundaries")
    x = grid.cell_centers()
    left = x < 0.5 * grid.length
    rho = np.where(left, SOD_LEFT[0], SOD_RIGHT[0])
    v = np.where(left, SOD_LEFT[1], SOD_RIGHT[1])
    p = np.where(left, SOD_LEFT[2], SOD_RIGHT[2])
    return EulerState1D.from_primitive(grid, rho, v, p, gamma)


def ic_random_vorticity(grid: UniformGrid2D, seed):
    """Band-limited Gaussian random vorticity, zero mean, unit rms.

    The spectrum is flat for integer wavenumber magnitudes 0 < |k| <= 8 and
    zero beyond, a distributional stand-in for a filtered turbulent field.
    Mode coefficients are drawn on the fixed k-lattice (independent of
    resolution), so coarse and fine grids sample the same field.
    """
    k_max = 8
    rng = np.random.default_rng(seed)
    x, y = grid.cell_centers()
    chi = np.zeros((grid.nx, grid.ny))
    for kx in range(0, k_max + 1):
        for ky in range(-k_max, k_max + 1):
            amp = rng.normal()
            phase = rng.uniform(0.0, 2.0 * np.pi)
            if kx == 0 and ky <= 0:
                continue  # conjugate pairs and the mean mode
            if kx * kx + ky * ky > k_max * k_max:
                continue
            chi += amp * np.cos(2.0 * np.pi * (kx * x / grid.lx
                                               + ky * y / grid.ly) + phase)
    rms = np.sqrt(np.mean(chi**2))
    if rms > 0:
        chi /= rms
    return FvField2D(grid, chi)
