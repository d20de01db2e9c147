"""Discontinuous Galerkin pieces: Legendre-basis RHS, interior-penalty
diffusion, and projection helpers.  Periodic grids, degrees p in {0, 1, 2}.

Coefficient right-hand sides follow the bracket-form normalization
``da_{jk}/dt = N_{jk} / (dx <psi_k|psi_k>)`` so that the weighted l2 rate
is the plain sum ``sum_jk a_jk N_jk``.  The operators are fixed tables built
once per degree at import: one table gives the face traces and the volume
quadrature values in one product, and the interior-penalty form is 1/dx
times an integer block-tridiagonal table applied to neighbour differences,
so a call costs O(N).
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


def _point_table(p):
    """(p+1, 2+q) basis values at the right edge, the left edge and the q
    volume quadrature nodes: ``coeffs @ table`` evaluates u at all of them."""
    cols = [_EDGE_PLUS[: p + 1, None], _EDGE_MINUS[: p + 1, None]]
    if p > 0:
        cols.append(_QUADRATURE[p][1].T)
    return np.concatenate(cols, axis=1)


def _penalty_table(p):
    """dx B in difference form, a (3(p+1), p+1) table acting on the row
    ``[a_{j-1} - a_j, a_{j+1} - a_j, a_j]``.

    Face j+1/2 couples its left cell j and right cell j+1 through the jump
    [u] = u^- - u^+ and the average {u'}: the left cell enters [u] with
    P_k(1) and the right one with -P_k(-1), and each enters dx {u'} with its
    P_k' at that edge.  M- is the block by which cell j-1 acts on cell j,
    M+ = M-^T the block of cell j+1 and M0 the cell's own block with the
    volume stiffness.  Because B a = 0 for a constant field, M- + M0 + M+
    has first row and column 0, so a constant field gives exactly 0 and a
    near-constant one only its small deviations.  Every entry is an integer.
    """
    nk = p + 1
    sides = ((_EDGE_PLUS[:nk], _DEDGE_PLUS[:nk]),
             (-_EDGE_MINUS[:nk], _DEDGE_MINUS[:nk]))    # left, right of face

    def block(x, y):    # side y's coefficients acting on side x's moments
        (jx, gx), (jy, gy) = sides[x], sides[y]
        return nk**2 * np.outer(jx, jy) - np.outer(gx, jy) - np.outer(jx, gy)

    m_minus = block(1, 0).T
    m_zero = np.diag(2.0 * _STIFFNESS_DIAG[:nk]) + block(0, 0) + block(1, 1)
    return np.concatenate((m_minus, m_minus.T, m_minus + m_zero + m_minus.T))


#: per degree, the point table of ``_point_table`` and dx B of
#: ``_penalty_table``
_POINTS = {p: _point_table(p) for p in (0, 1, 2)}
_PENALTY = {p: _penalty_table(p) for p in (0, 1, 2)}


def face_traces(a: DgField):
    """Solution just left (u^-) and just right (u^+) of each interface j+1/2.

    Index j wraps periodically, so both arrays have length N.
    """
    edges = a.coeffs @ _POINTS[a.degree][:, :2]
    return edges[:, 0], shift(edges[:, 1], 1)


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
    pts = a.coeffs @ _POINTS[p]     # u at right edge, left edge, nodes
    f_face = np.asarray(interface_rule(pts[:, 0], shift(pts[:, 1], 1)),
                        dtype=np.float64)
    fp = f_face[:, None]                # flux at j+1/2
    fm = shift(f_face, -1)[:, None]     # flux at j-1/2

    rhs = -fp * _EDGE_PLUS[: p + 1] + fm * _EDGE_MINUS[: p + 1]
    if p > 0:
        w, _, derivs = _QUADRATURE[p]
        rhs += (flux_fn(pts[:, 2:]) * w) @ derivs
    return rhs


def dg_coefficient_rate(a: DgField, rhs):
    """Convert a bracket-form RHS into da/dt."""
    return rhs / (a.grid.dx * a.basis_norms)


def burgers_centered_rule(um, up):
    """The demo-only centered Burgers interface flux (u^- + u^+)^2 / 8.

    Not a consistent average of u^2/2 in general; it reproduces the
    l2-increasing DG demo and nothing else should use it.
    """
    return 0.125 * (um + up) ** 2


def dg_diffusion_rhs(a: DgField):
    """Bracket-form RHS -B a of a unit-coefficient diffusion term, where B is
    the symmetric interior-penalty form with penalty sigma = (p+1)^2/dx.

    B is block-tridiagonal and 1/dx times a fixed integer table
    (``_penalty_table``), so the call is one product of that table with the
    neighbour differences a_{j-1} - a_j, a_{j+1} - a_j and a_j.
    Differences, not the plain stencil a_{j-1}, a_j, a_{j+1}, keep the null
    space exact: a constant field gives exactly 0 rather than round-off,
    and on a near-constant field the l2 rate ``sum a N`` stays the tiny
    negative number it is, so ``correct_dg_l2`` can tell it is degenerate.  B is positive semi-definite with null space spanned by the
    constant field, so ``sum_jk a_jk N_jk < 0`` for every non-constant
    field, and the k=0 moments telescope, so mass is conserved; at p=0 this
    is the standard (u_{j+1} - 2 u_j + u_{j-1})/dx stencil.
    """
    if not a.grid.periodic:
        raise ConfigurationError("DG diffusion is periodic-only")
    c = a.coeffs
    padded = np.concatenate((c[-1:], c, c[:1]))
    rows = np.concatenate((padded[:-2] - c, padded[2:] - c, c), axis=1)
    return (rows @ _PENALTY[a.degree]) / -a.grid.dx


def dg_mass(a: DgField):
    return float(np.sum(a.coeffs[:, 0] * a.grid.dx))


def dg_l2(a: DgField):
    """Weighted discrete l2 functional (1/2) sum_jk a^2 <psi_k|psi_k> dx."""
    return 0.5 * float(np.sum(a.coeffs**2 * a.basis_norms * a.grid.dx))


def dg_l2_rate(a: DgField, rhs):
    """d/dt of ``dg_l2`` under a bracket-form RHS: the plain sum a*N."""
    return float((a.coeffs * rhs).sum())


def dg_project(grid: UniformGrid1D, p, fn):
    """L2-project a callable u0(x) onto the degree-p Legendre basis."""
    if not 0 <= p <= 2:
        raise ConfigurationError("only degrees p in {0, 1, 2} are supported")
    xi, w = np.polynomial.legendre.leggauss(6)
    centers = grid.cell_centers()
    x = centers[:, None] + (0.5 * grid.dx) * xi[None, :]
    vals = _legendre_vals(xi, p)
    coeffs = (fn(x) * w) @ vals * (0.5 * (2.0 * np.arange(p + 1) + 1.0))
    return DgField(grid, coeffs)
