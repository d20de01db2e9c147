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


def flux_rule_1d(scheme, grid, equation, c=None):
    """The interface-flux formula of ``scheme`` for ``equation`` on ``grid``,
    checked once: a function ``rule(vals, lf_ratio)`` of the cell values
    that returns f_{j+1/2} for j = 0..N-1 (periodic wraparound).

    ``equation`` is "advection" (speed ``c``) or "burgers".  Only
    Lax-Friedrichs reads ``lf_ratio``, the dissipation ratio dx/(2 dt) of
    the active timestep.  Drivers bind a rule once; ``numerical_flux_1d``
    binds one per call.
    """
    if not grid.periodic:
        raise ConfigurationError("scalar interface fluxes are periodic-only")
    if equation not in ("advection", "burgers"):
        raise ConfigurationError(f"unknown equation {equation!r}")
    advection = equation == "advection"
    if advection and c is None:
        raise ConfigurationError("advection needs a wave speed c")
    if scheme is FluxScheme.MUSCL_MC:
        if grid.n_cells < 4:
            raise ConfigurationError("MUSCL needs at least 4 cells")
        if advection:
            return lambda vals, lf_ratio: kernels.muscl_fluxes_advection(vals, c)
        return lambda vals, lf_ratio: kernels.muscl_fluxes_burgers(vals)

    if advection:
        if scheme in (FluxScheme.UPWIND, FluxScheme.GODUNOV):
            # the monotone flux of a linear f(u)=c*u is plain upwinding
            if c >= 0:
                return lambda vals, lf_ratio: c * vals
            return lambda vals, lf_ratio: c * shift(vals, 1)
        if scheme is FluxScheme.CENTERED:
            return lambda vals, lf_ratio: 0.5 * c * (vals + shift(vals, 1))
        if scheme is FluxScheme.LAX_FRIEDRICHS:
            def lax_friedrichs(vals, lf_ratio):
                up = shift(vals, 1)
                return 0.5 * c * (vals + up) - lf_ratio * (up - vals)
            return lax_friedrichs
    else:
        if scheme is FluxScheme.UPWIND:
            raise ConfigurationError("upwinding is sign-ambiguous for burgers; "
                                     "use godunov")
        if scheme is FluxScheme.CENTERED:
            # the l2-increasing demo flux (u_j^2 + u_{j+1}^2)/4, squaring
            # each cell once into a wrapped array
            def centered(vals, lf_ratio):
                sq = np.empty(len(vals) + 1)
                np.multiply(vals, vals, out=sq[:-1])
                sq[-1] = sq[0]
                out = sq[:-1] + sq[1:]
                out *= 0.25
                return out
            return centered
        if scheme is FluxScheme.GODUNOV:
            return lambda vals, lf_ratio: \
                kernels.godunov_burgers_flux(vals, shift(vals, 1))
        if scheme is FluxScheme.LAX_FRIEDRICHS:
            def lax_friedrichs(vals, lf_ratio):
                up = shift(vals, 1)
                return 0.5 * (_burgers_flux(vals) + _burgers_flux(up)) \
                    - lf_ratio * (up - vals)
            return lax_friedrichs
    raise ConfigurationError(f"unsupported scheme {scheme} for {equation}")


def numerical_flux_1d(scheme, u: FvField1D, equation, c=None, lf_ratio=None):
    """Interface fluxes f_{j+1/2} of ``u`` for j = 0..N-1: the rule of
    ``flux_rule_1d``, checked on every call."""
    rule = flux_rule_1d(scheme, u.grid, equation, c)
    if scheme is FluxScheme.LAX_FRIEDRICHS and lf_ratio is None:
        raise ConfigurationError("Lax-Friedrichs needs lf_ratio = dx/(2 dt)")
    return rule(u.values, lf_ratio)


def flux_divergence_1d(grid):
    """N_j = -(f_{j+1/2} - f_{j-1/2})/dx on a periodic ``grid``, f[j] at
    j+1/2 (wrapping): a function of a float64 flux array of N entries,
    bound once; raises ConfigurationError on a bounded grid.  Drivers bind
    it; ``fv_rhs_1d`` checks its input and binds one per call.
    """
    if not grid.periodic:
        raise ConfigurationError("the scalar flux divergence is periodic-only")
    dx = grid.dx

    def periodic(f):
        out = np.empty(len(f))
        np.subtract(f[1:], f[:-1], out=out[1:])
        out[0] = f[0] - f[-1]
        np.negative(out, out=out)
        out /= dx
        return out
    return periodic


def fv_rhs_1d(fluxes, grid):
    """The flux divergence of ``flux_divergence_1d``, checked on every call."""
    divergence = flux_divergence_1d(grid)
    f = np.asarray(fluxes, dtype=np.float64)
    if f.shape != (grid.n_cells,):
        raise ValueError("the flux array must have one entry per cell")
    return divergence(f)


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

def ghost_rows(state: EulerState1D, boundary_state=None):
    """Component rows (3, N+4) of the conserved state with two ghost cells
    per side, C-contiguous: row 0 is rho, row 1 rho*v, row 2 E.

    Periodic grids wrap; Dirichlet grids hold the ghosts at the boundary
    states, a (left, right) pair of conserved triples, which default to the
    outermost cell values.
    """
    u = state.u
    q = np.empty((3, len(u) + 4))
    q[:, 2:-2] = u.T
    if state.grid.periodic:
        q[:, :2], q[:, -2:] = u[-2:].T, u[:2].T
    else:
        left, right = (u[0], u[-1]) if boundary_state is None \
            else boundary_state
        q[:, 0] = q[:, 1] = left
        q[:, -2] = q[:, -1] = right
    return q


def euler1d_muscl_flux(state: EulerState1D, boundary_state=None, p=None,
                       rows=None):
    """Characteristic-MUSCL interface fluxes F_{j+1/2}, shape (N+1, 3).

    Face 0 and face N are the domain boundaries; on periodic grids they are
    equal by construction.  Raises ``PositivityViolation`` when the cell
    states themselves are non-positive (the eigendecomposition needs
    positive rho and p); degenerate reconstructed faces silently fall back
    to the first-order local Lax-Friedrichs flux.  A caller that already
    holds the state's pressure ``p`` or its ``ghost_rows`` passes them in
    (``rows`` then stands for ``boundary_state``).
    """
    if p is None:
        p = state.pressure()
    if (state.rho <= 0.0).any() or (p <= 0.0).any():
        raise PositivityViolation("non-positive density or pressure in state")
    if rows is None:
        rows = ghost_rows(state, boundary_state)
    return kernels.characteristic_muscl_fluxes(rows, state.gamma)


def euler1d_rhs(fluxes, grid):
    """du/dt = -(F_{j+1/2} - F_{j-1/2})/dx, rows (N, 3), from (N+1, 3) fluxes."""
    f = np.asarray(fluxes, dtype=np.float64)
    return -(f[1:] - f[:-1]) / grid.dx
