"""Discontinuous Galerkin pieces: Legendre-basis RHS, interior-penalty
diffusion, and projection helpers.  Periodic grids, degrees p in {0, 1, 2}.

Coefficient right-hand sides follow the bracket-form normalization
``da_{jk}/dt = N_{jk} / (dx <psi_k|psi_k>)`` so that the weighted l2 rate
is the plain sum ``sum_jk a_jk N_jk``.  The operators are fixed tables built
once per degree at import: one table gives the face traces and the volume
quadrature values in one product, and the interior-penalty form is 1/dx
times an integer block-tridiagonal table applied to neighbour differences,
so a call costs O(N).

``dg_operator`` checks a grid and degree once and binds their tables into
the stage formulas.  Each formula reads the coefficients padded with one
periodic ghost row per side (``periodic_pad``), so u^+ at face j+1/2 and
the neighbour differences are slices of one (N+2, p+1) array.
``dg_rhs`` and ``dg_diffusion_rhs`` are the checked library entry points:
they check and bind on every call.
"""

import numpy as np

from .core import DgField, LEGENDRE_NORMS, UniformGrid1D
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

#: per degree, the first two columns of the point table as one contiguous
#: (p+1, 2) table: ``coeffs @ table`` gives u at each cell's right and left
#: edge
EDGE_TABLES = {p: np.ascontiguousarray(_POINTS[p][:, :2]) for p in (0, 1, 2)}


def periodic_pad(c):
    """Coefficients ``c`` (N, p+1) with a periodic ghost row on each side:
    row i+1 is cell i, row 0 is cell N-1 and row N+1 is cell 0."""
    return np.concatenate((c[-1:], c, c[:1]))


def _check_supported(grid: UniformGrid1D, degree):
    if not grid.periodic:
        raise ConfigurationError("DG operators are periodic-only")
    if not 0 <= degree <= 2:
        raise ConfigurationError("only degrees p in {0, 1, 2} are supported")


def coeffs_l2_rate(c, rhs):
    """The plain sum c*N: d/dt of ``dg_l2`` for coefficients ``c``."""
    return float((c * rhs).sum())


def dg_diffusion(grid: UniformGrid1D, degree):
    """The formula ``diffusion(padded)`` of ``dg_diffusion_rhs`` for one
    grid and degree, reading ``periodic_pad`` of the coefficients."""
    _check_supported(grid, degree)
    table, neg_dx = _PENALTY[degree], -grid.dx

    def diffusion(padded):
        c = padded[1:-1]
        rows = np.concatenate((padded[:-2] - c, padded[2:] - c, c), axis=1)
        return (rows @ table) / neg_dx
    return diffusion


def dg_operator(grid: UniformGrid1D, degree, flux_fn, interface_rule):
    """The stage formulas of one periodic grid and degree, checked and bound
    once: ``(rhs, diffusion, divisor)``.  ``rhs(padded)`` is the formula of
    ``dg_rhs`` and ``diffusion(padded)`` that of ``dg_diffusion_rhs``, both
    reading ``periodic_pad`` of the coefficients; ``rhs / divisor`` is
    da/dt, with the divisor dx <psi_k|psi_k>."""
    diffusion = dg_diffusion(grid, degree)
    points = _POINTS[degree]
    edge_plus, edge_minus = _EDGE_PLUS[: degree + 1], _EDGE_MINUS[: degree + 1]
    if degree > 0:
        w, _, derivs = _QUADRATURE[degree]

    def rhs(padded):
        pts = padded @ points   # row j+1: cell j's u at its edges and nodes
        f_face = np.asarray(interface_rule(pts[1:-1, 0], pts[2:, 1]),
                            dtype=np.float64)
        fp = f_face[:, None]                                         # j+1/2
        fm = np.concatenate((f_face[-1:], f_face[:-1]))[:, None]     # j-1/2
        out = -fp * edge_plus + fm * edge_minus
        if degree > 0:
            out += (flux_fn(pts[1:-1, 2:]) * w) @ derivs
        return out
    return rhs, diffusion, grid.dx * LEGENDRE_NORMS[: degree + 1]


def dg_rhs(a: DgField, flux_fn, interface_rule):
    """Bracket-form coefficient RHS N_{jk} for du/dt + d f(u)/dx = 0.

    ``flux_fn`` is the pointwise flux f(u); ``interface_rule(u_minus,
    u_plus)`` reconstructs the interface flux from the two traces at the N
    faces j+1/2.  The volume integral uses Gauss-Legendre quadrature exact
    for the polynomial degree of f(u) at p <= 2.  Checks and binds
    ``dg_operator`` on every call; a driver binds it once.
    """
    rhs, _, _ = dg_operator(a.grid, a.degree, flux_fn, interface_rule)
    return rhs(periodic_pad(a.coeffs))


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
    space exact.  A constant field gives exactly 0 rather than round-off.
    On a near-constant field the l2 rate ``sum a N`` stays the tiny negative
    number it is, so ``correct_dg_l2`` can tell it is degenerate.

    B is positive semi-definite with null space spanned by the constant
    field, so ``sum_jk a_jk N_jk < 0`` for every non-constant field.  The
    k=0 moments telescope, so mass is conserved.  At p=0 this is the
    standard (u_{j+1} - 2 u_j + u_{j-1})/dx stencil.  Checks and binds
    ``dg_diffusion`` on every call.
    """
    return dg_diffusion(a.grid, a.degree)(periodic_pad(a.coeffs))


def dg_mass(a: DgField):
    return float(np.sum(a.coeffs[:, 0] * a.grid.dx))


def dg_l2(a: DgField):
    """Weighted discrete l2 functional (1/2) sum_jk a^2 <psi_k|psi_k> dx."""
    return 0.5 * float(np.sum(a.coeffs**2 * a.basis_norms * a.grid.dx))


def dg_l2_rate(a: DgField, rhs):
    """d/dt of ``dg_l2`` under a bracket-form RHS: the plain sum a*N."""
    return coeffs_l2_rate(a.coeffs, rhs)


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
