"""Standard spatial discretizations: interface fluxes, FV right-hand sides,
the periodic Q1 finite-element Poisson solve, and gas-dynamics fluxes."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernels
from .core import EulerState1D, FvField1D, FvField2D, UniformGrid2D, shift
from .errors import ConfigurationError, PositivityViolation


class FluxScheme(enum.Enum):
    UPWIND = "upwind"
    CENTERED = "centered"
    GODUNOV = "godunov"
    LAX_FRIEDRICHS = "lax_friedrichs"
    MUSCL_MC = "muscl"


@dataclass
class BoundaryFluxes2D:
    """fx[i, j] at vertical faces (i+1/2, j); fy[i, j] at horizontal (i, j+1/2)."""

    fx: np.ndarray
    fy: np.ndarray


# ---------------------------------------------------------------------------
# scalar 1D fluxes and RHS
# ---------------------------------------------------------------------------

def _burgers_flux(u):
    return 0.5 * u * u


def numerical_flux_1d(scheme, u: FvField1D, equation, c=None, lf_ratio=None):
    """Interface fluxes f_{j+1/2} for j = 0..N-1 (periodic wraparound).

    ``equation`` is "advection" (speed ``c``) or "burgers".  Lax-Friedrichs
    takes the dissipation ratio dx/(2 dt) of the active timestep via
    ``lf_ratio``.
    """
    if not u.grid.periodic:
        raise ConfigurationError("scalar interface fluxes are periodic-only")
    if equation not in ("advection", "burgers"):
        raise ConfigurationError(f"unknown equation {equation!r}")
    advection = equation == "advection"
    if advection and c is None:
        raise ConfigurationError("advection needs a wave speed c")
    vals = u.values
    if scheme is FluxScheme.MUSCL_MC:
        if u.grid.n_cells < 4:
            raise ConfigurationError("MUSCL needs at least 4 cells")
        return kernels.muscl_fluxes_advection(vals, c) if advection \
            else kernels.muscl_fluxes_burgers(vals)
    if scheme is FluxScheme.LAX_FRIEDRICHS and lf_ratio is None:
        raise ConfigurationError("Lax-Friedrichs needs lf_ratio = dx/(2 dt)")
    up = shift(vals, 1)

    if advection:
        if scheme in (FluxScheme.UPWIND, FluxScheme.GODUNOV):
            # the monotone flux of a linear f(u)=c*u is plain upwinding
            return c * (vals if c >= 0 else up)
        if scheme is FluxScheme.CENTERED:
            return 0.5 * c * (vals + up)
        if scheme is FluxScheme.LAX_FRIEDRICHS:
            return 0.5 * c * (vals + up) - lf_ratio * (up - vals)
    else:
        if scheme is FluxScheme.UPWIND:
            raise ConfigurationError("upwinding is sign-ambiguous for burgers; "
                                     "use godunov")
        if scheme is FluxScheme.CENTERED:
            # the l2-increasing demo flux (u_j^2 + u_{j+1}^2)/4
            return 0.25 * (vals * vals + up * up)
        if scheme is FluxScheme.GODUNOV:
            return kernels.godunov_burgers_flux(vals, up)
        if scheme is FluxScheme.LAX_FRIEDRICHS:
            return 0.5 * (_burgers_flux(vals) + _burgers_flux(up)) \
                - lf_ratio * (up - vals)
    raise ConfigurationError(f"unsupported scheme {scheme} for {equation}")


def fv_rhs_1d(fluxes, grid):
    """N_j = -(f_{j+1/2} - f_{j-1/2})/dx.

    Periodic grids take N fluxes (f[j] at j+1/2, wrapping); bounded grids
    take N+1 fluxes including both domain boundaries.
    """
    f = np.asarray(fluxes, dtype=np.float64)
    if grid.periodic:
        if f.shape != (grid.n_cells,):
            raise ValueError("periodic flux array must have one entry per cell")
        return -(f - shift(f, -1)) / grid.dx
    if f.shape != (grid.n_cells + 1,):
        raise ValueError("bounded flux array must have N+1 entries")
    return -(f[1:] - f[:-1]) / grid.dx


def fv_rhs_2d(fluxes: BoundaryFluxes2D, grid: UniformGrid2D):
    """2D flux-form RHS: N_ij = -d(fx)/dx - d(fy)/dy on the periodic grid."""
    fx, fy = fluxes.fx, fluxes.fy
    if fx.shape != (grid.nx, grid.ny) or fy.shape != (grid.nx, grid.ny):
        raise ValueError("flux arrays must have shape (nx, ny)")
    return -(fx - shift(fx, -1)) / grid.dx - (fy - shift(fy, -1, 1)) / grid.dy


def ftcs_increment(u: FvField1D, c, dt):
    """Forward-time centered-space increment -(c dt / 2 dx)(u_{j+1} - u_{j-1})."""
    if not u.grid.periodic:
        raise ConfigurationError("the FTCS demo update is periodic-only")
    vals = u.values
    return -(c * dt) / (2.0 * u.grid.dx) * (shift(vals, 1) - shift(vals, -1))


# ---------------------------------------------------------------------------
# spectral advection
# ---------------------------------------------------------------------------

def spectral_rhs_advection(u, c):
    """Exact advection RHS in Fourier space: dU_m/dt = -(2 pi i m c / L) U_m."""
    m = np.arange(u.n_modes + 1)
    rhs = -(2j * np.pi * c / u.length) * m * u.coeffs
    rhs[0] = 0.0
    return rhs


# ---------------------------------------------------------------------------
# periodic Poisson solve (Q1 finite elements, Fourier-diagonalized)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16)
def _fe_laplacian_symbol(nx, ny, dx, dy):
    tx = 2.0 * np.pi * np.fft.fftfreq(nx)
    ty = 2.0 * np.pi * np.fft.fftfreq(ny)
    ctx, cty = np.cos(tx)[:, None], np.cos(ty)[None, :]
    stiff_x = (2.0 / dx) * (1.0 - ctx)
    mass_x = dx * (2.0 + ctx) / 3.0
    stiff_y = (2.0 / dy) * (1.0 - cty)
    mass_y = dy * (2.0 + cty) / 3.0
    lam = (stiff_x * mass_y + mass_x * stiff_y) / (dx * dy)
    lam[0, 0] = 1.0  # the zero mode is projected out before division
    return lam


def poisson_solve(chi: FvField2D):
    """Cell-average streamfunction psi_bar with -lap(psi) = chi - <chi>.

    The discrete Laplacian is the bilinear (Q1) finite-element stencil on the
    periodic grid, inverted mode by mode; the gauge is fixed by mean zero.
    """
    g = chi.grid
    lam = _fe_laplacian_symbol(g.nx, g.ny, g.dx, g.dy)
    hat = np.fft.fft2(chi.values - chi.values.mean())
    hat[0, 0] = 0.0
    psi = np.fft.ifft2(hat / lam).real
    return psi - psi.mean()


def apply_fe_laplacian(psi_bar, grid: UniformGrid2D):
    """Apply the (negative) Q1 Laplacian stencil used by ``poisson_solve``."""
    lam = _fe_laplacian_symbol(grid.nx, grid.ny, grid.dx, grid.dy)
    hat = np.fft.fft2(psi_bar)
    hat[0, 0] = 0.0
    return np.fft.ifft2(hat * lam).real


def fe_mode_eigenvalue(grid: UniformGrid2D, kx, ky):
    """Stencil eigenvalue of the (kx, ky) Fourier mode (for oracle tests)."""
    lam = _fe_laplacian_symbol(grid.nx, grid.ny, grid.dx, grid.dy)
    return float(lam[kx % grid.nx, ky % grid.ny])


# ---------------------------------------------------------------------------
# vorticity transport
# ---------------------------------------------------------------------------

def face_velocities(psi_bar, grid: UniformGrid2D):
    """Face-normal velocities from tangential differences of psi_bar.

    The streamfunction is first averaged to cell corners; differencing corner
    values along each face makes the discrete divergence vanish identically.
    """
    east = shift(psi_bar, 1)
    corner = 0.25 * (psi_bar + east + shift(psi_bar, 1, 1) + shift(east, 1, 1))
    # corner[i, j] holds psi at (i+1/2, j+1/2)
    ux = (corner - shift(corner, -1, 1)) / grid.dy
    uy = -(corner - shift(corner, -1)) / grid.dx
    return ux, uy


def advective_fluxes_2d(chi: FvField2D, ux, uy):
    """MC-limited upwinded vorticity fluxes u*chi at cell faces.

    The face velocities must be discretely divergence-free (they are when
    produced by ``face_velocities``); violations beyond 1e-10 times the
    velocity scale raise.
    """
    g = chi.grid
    div = (ux - shift(ux, -1)) / g.dx + (uy - shift(uy, -1, 1)) / g.dy
    scale = max(np.abs(ux).max(), np.abs(uy).max(), 1e-300) / min(g.dx, g.dy)
    if np.abs(div).max() > 1e-10 * max(scale, 1.0):
        raise ValueError("face velocities are not discretely divergence-free")
    fx, fy = kernels.muscl_advective_fluxes_2d(chi.values, ux, uy)
    return BoundaryFluxes2D(fx, fy)


# ---------------------------------------------------------------------------
# 1D Euler fluxes
# ---------------------------------------------------------------------------

def _extend_state(state: EulerState1D, boundary_state=None):
    """Conserved array with two ghost cells per side.

    Periodic grids wrap; Dirichlet grids hold the ghosts at the boundary
    states, a (left, right) pair of conserved triples, which default to the
    outermost cell values.
    """
    u = state.u
    ext = np.empty((len(u) + 4, 3))
    ext[2:-2] = u
    if state.grid.periodic:
        ext[:2], ext[-2:] = u[-2:], u[:2]
    elif boundary_state is None:
        ext[:2], ext[-2:] = u[0], u[-1]
    else:
        ext[:2], ext[-2:] = boundary_state
    return ext


def euler1d_muscl_flux(state: EulerState1D, boundary_state=None):
    """Characteristic-MUSCL interface fluxes F_{j+1/2}, shape (N+1, 3).

    Face 0 and face N are the domain boundaries; on periodic grids they are
    equal by construction.  Raises ``PositivityViolation`` when the cell
    states themselves are non-positive (the eigendecomposition needs
    positive rho and p); degenerate reconstructed faces silently fall back
    to the first-order local Lax-Friedrichs flux.
    """
    if (state.rho <= 0.0).any() or (state.pressure() <= 0.0).any():
        raise PositivityViolation("non-positive density or pressure in state")
    u_ext = _extend_state(state, boundary_state)
    return kernels.characteristic_muscl_fluxes(u_ext, state.gamma)


def euler1d_lax_friedrichs_flux(state: EulerState1D, dt, boundary_state=None):
    """First-order Lax-Friedrichs fluxes with dissipation dx/(2 dt)."""
    u_ext = _extend_state(state, boundary_state)[1:-1]
    f_ext = kernels.euler_physical_flux(u_ext, state.gamma)
    alpha = state.grid.dx / dt
    return 0.5 * (f_ext[:-1] + f_ext[1:]) - 0.5 * alpha * (u_ext[1:] - u_ext[:-1])


def euler1d_rhs(fluxes, grid):
    """du/dt = -(F_{j+1/2} - F_{j-1/2})/dx, rows (N, 3), from (N+1, 3) fluxes."""
    f = np.asarray(fluxes, dtype=np.float64)
    return -(f[1:] - f[:-1]) / grid.dx
