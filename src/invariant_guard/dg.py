"""Discontinuous Galerkin pieces: Legendre-basis RHS, interior-penalty
diffusion, and projection helpers.  Periodic grids, degrees p in {0, 1, 2}.

Coefficient right-hand sides follow the bracket-form normalization
``da_{jk}/dt = N_{jk} / (dx_j <psi_k|psi_k>)`` so that the weighted l2 rate
is the plain sum ``sum_jk a_jk N_jk``.  The operators are fixed tables: the
volume quadrature is built once per degree at import, and the
interior-penalty form is applied face by face, so a call costs O(N).
"""

import numpy as np

from .core import DgField, LEGENDRE_NORMS, UniformGrid1D, shift
from .errors import ConfigurationError

#: P_k at the right/left cell edge and P_k' at the edges, k = 0..2
_EDGE_PLUS = np.array([1.0, 1.0, 1.0])
_EDGE_MINUS = np.array([1.0, -1.0, 1.0])
_DEDGE_PLUS = np.array([0.0, 1.0, 3.0])
_DEDGE_MINUS = np.array([0.0, 1.0, -3.0])

#: int_{-1}^{1} P_k' P_k' dxi, diagonal for k <= 2
_STIFFNESS_DIAG = np.array([0.0, 2.0, 6.0])


def _legendre_vals(xi, p):
    cols = [np.ones_like(xi), xi, 1.5 * xi**2 - 0.5]
    return np.stack(cols[: p + 1], axis=-1)


def _legendre_derivs(xi, p):
    cols = [np.zeros_like(xi), np.ones_like(xi), 3.0 * xi]
    return np.stack(cols[: p + 1], axis=-1)


def _volume_quadrature(p):
    """Gauss-Legendre weights with the basis values and derivatives at the
    nodes, exact for the polynomial degree of f(u) at p <= 2."""
    xi, w = np.polynomial.legendre.leggauss(p + 2)
    return w, _legendre_vals(xi, p), _legendre_derivs(xi, p)


#: (weights, basis values (q, p+1), basis derivatives (q, p+1)) per degree;
#: p = 0 has no volume term
_QUADRATURE = {p: _volume_quadrature(p) for p in (1, 2)}


def face_traces(a: DgField):
    """Solution just left (u^-) and just right (u^+) of each interface j+1/2.

    Index j wraps periodically, so both arrays have length N.
    """
    um = a.coeffs @ _EDGE_PLUS[: a.degree + 1]
    up = shift(a.coeffs, 1) @ _EDGE_MINUS[: a.degree + 1]
    return um, up


def dg_rhs(a: DgField, flux_fn, interface_rule):
    """Bracket-form coefficient RHS N_{jk} for du/dt + d f(u)/dx = 0.

    ``flux_fn`` is the pointwise flux f(u); ``interface_rule(u_minus,
    u_plus)`` reconstructs the interface flux from the two traces.  The
    volume integral uses Gauss-Legendre quadrature exact for the polynomial
    degree of f(u) at p <= 2.
    """
    if not a.grid.periodic:
        raise ConfigurationError("DG right-hand sides are periodic-only")
    p = a.degree
    um, up = face_traces(a)
    f_face = np.asarray(interface_rule(um, up), dtype=np.float64)
    fp = f_face[:, None]                # flux at j+1/2
    fm = shift(f_face, -1)[:, None]     # flux at j-1/2

    rhs = -fp * _EDGE_PLUS[: p + 1] + fm * _EDGE_MINUS[: p + 1]
    if p > 0:
        w, vals, derivs = _QUADRATURE[p]
        u_q = a.coeffs @ vals.T               # (N, q)
        rhs += (flux_fn(u_q) * w) @ derivs
    return rhs


def dg_coefficient_rate(a: DgField, rhs):
    """Convert a bracket-form RHS into da/dt."""
    return rhs / (a.grid.cell_volumes[:, None] * a.basis_norms)


def upwind_advection_rule(c):
    """Interface rule for f(u) = c*u: take the upwind trace."""
    def rule(um, up):
        return c * (um if c >= 0 else up)
    return rule


def burgers_centered_rule(um, up):
    """The demo-only centered Burgers interface flux (u^- + u^+)^2 / 8.

    Not a consistent average of u^2/2 in general; it reproduces the
    l2-increasing DG demo and nothing else should use it.
    """
    return 0.125 * (um + up) ** 2


def dg_diffusion_rhs(a: DgField):
    """Bracket-form RHS -B a of a unit-coefficient diffusion term, where B is
    the symmetric interior-penalty form with penalty sigma = (p+1)^2/dx.

    B is applied per face: face j+1/2 couples only cells j and j+1, through
    the jump [u] = u^- - u^+ and the average {u'}.  B is positive
    semi-definite with null space spanned by the constant field, so
    ``sum_jk a_jk N_jk < 0`` for every non-constant field, and the k=0
    moments telescope, so mass is conserved; at p=0 this is the standard
    (u_{j+1} - 2 u_j + u_{j-1})/dx stencil.
    """
    if not a.grid.periodic:
        raise ConfigurationError("DG diffusion is periodic-only")
    dx = float(a.grid.cell_volumes[0])
    if not np.abs(a.grid.cell_volumes - dx).max() <= 1e-8 + 1e-5 * dx:
        raise ConfigurationError("DG diffusion assumes a uniform grid")
    nk = a.degree + 1
    sigma = nk**2 / dx
    ep, em = _EDGE_PLUS[:nk], _EDGE_MINUS[:nk]
    # half of u' at the edges in physical units, with the 2/dx mapping factor
    hdp, hdm = _DEDGE_PLUS[:nk] / dx, _DEDGE_MINUS[:nk] / dx
    nxt = shift(a.coeffs, 1)    # cell j+1, across face j+1/2
    jump = (a.coeffs @ ep - nxt @ em)[:, None]
    avg = (a.coeffs @ hdp + nxt @ hdm)[:, None]
    s = sigma * jump - avg
    # face j+1/2 acts on cell j through P_k(1), P_k'(1) and on cell j+1
    # through P_k(-1), P_k'(-1)
    left = s * ep - jump * hdp
    right = -s * em - jump * hdm
    vol = a.coeffs * ((2.0 / dx) * _STIFFNESS_DIAG[:nk])
    return -(vol + left + shift(right, -1))


def dg_mass(a: DgField):
    return float(np.sum(a.coeffs[:, 0] * a.grid.cell_volumes))


def dg_l2(a: DgField):
    """Weighted discrete l2 functional (1/2) sum_jk a^2 <psi_k|psi_k> dx_j."""
    return 0.5 * float(np.sum(a.coeffs**2 * a.basis_norms
                              * a.grid.cell_volumes[:, None]))


def dg_l2_rate(a: DgField, rhs):
    """d/dt of ``dg_l2`` under a bracket-form RHS: the plain sum a*N."""
    return float(np.sum(a.coeffs * rhs))


def dg_project(grid: UniformGrid1D, p, fn):
    """L2-project a callable u0(x) onto the degree-p Legendre basis."""
    if not 0 <= p <= 2:
        raise ConfigurationError("only degrees p in {0, 1, 2} are supported")
    xi, w = np.polynomial.legendre.leggauss(6)
    centers = grid.cell_centers()
    half = 0.5 * grid.cell_volumes
    x = centers[:, None] + half[:, None] * xi[None, :]
    vals = _legendre_vals(xi, p)
    coeffs = (fn(x) * w) @ vals * (0.5 * (2.0 * np.arange(p + 1) + 1.0))
    return DgField(grid, coeffs)
