"""Grids, field containers, and the volume-weighted brackets the correctors use.

All field values are float64 throughout: the corrector post-conditions are
machine-precision identities and need the headroom.  2D arrays are indexed
``[i, j]`` with ``i`` the x index; CSV dumps flatten with i fastest.

Both grids are uniform: a 1D grid has N equal cells of width ``dx`` and a
2D grid equal dx-by-dy cells, because every scheme here (the MUSCL and
characteristic kernels, the FTCS increment, the non-conservative Burgers
stencil, the viscous term, the Lax-Friedrichs dissipation and the DG
operators) assumes equal cells.  So a cell volume is one scalar.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, NonFiniteState

PERIODIC = "periodic"
DIRICHLET = "dirichlet"


def _as_float_array(values):
    arr = np.asarray(values, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise NonFiniteState("field values must be finite")
    return arr


def _unchecked(cls, **fields):
    """A ``cls`` holding ``fields`` as given, without the checks of its
    ``__post_init__``.

    Drivers wrap the states a time loop hands them this way: ``timeloop``
    has checked every one of them for finiteness already, and their shapes
    are the driver's own.  Public construction keeps checking outside input.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def shift(a, k, axis=0):
    """Periodic neighbour ``a[(i + k) mod n]`` along ``axis`` (0 or 1).

    ``shift(u, 1)`` is u_{j+1} and ``shift(u, -1)`` is u_{j-1}.  The result
    equals numpy's ``roll(a, -k, axis)`` bit for bit, but two slices and one
    concatenate cost a fraction of a roll on the small grids stencils see.
    Only 2D code calls it: every periodic 1D stencil reads its neighbours
    from slices of a ghost-padded or wrapped copy, or of the array itself,
    and builds no shifted copy per neighbour.
    """
    k %= a.shape[axis]
    if axis == 0:
        return np.concatenate((a[k:], a[:k]))
    return np.concatenate((a[:, k:], a[:, :k]), axis=1)


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UniformGrid1D:
    """1D grid of N equal cells of width dx = L/N covering [0, L]."""

    n_cells: int
    length: float
    boundary: str = PERIODIC
    dx: float = field(init=False, repr=False)

    def __post_init__(self):
        if self.n_cells < 2:
            raise ValueError("need at least 2 cells")
        if self.length <= 0:
            raise ValueError("domain length must be positive")
        if self.boundary not in (PERIODIC, DIRICHLET):
            raise ConfigurationError(f"unknown boundary kind {self.boundary!r}")
        object.__setattr__(self, "dx", self.length / self.n_cells)

    @property
    def periodic(self):
        return self.boundary == PERIODIC

    def cell_edges(self):
        """x_{j-1/2} for j = 0..N, the widths summed cell by cell."""
        return np.concatenate(([0.0], np.cumsum(np.full(self.n_cells, self.dx))))

    def cell_centers(self):
        edges = self.cell_edges()
        return 0.5 * (edges[:-1] + edges[1:])


@dataclass(frozen=True)
class UniformGrid2D:
    """Uniform periodic rectangular grid, nx*ny cells on [0,lx]x[0,ly]."""

    nx: int
    ny: int
    lx: float
    ly: float

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ValueError("need at least 2 cells per direction")
        if self.lx <= 0 or self.ly <= 0:
            raise ValueError("domain sides must be positive")

    @property
    def dx(self):
        return self.lx / self.nx

    @property
    def dy(self):
        return self.ly / self.ny

    @property
    def cell_volume(self):
        return self.dx * self.dy

    def cell_centers(self):
        x = (np.arange(self.nx) + 0.5) * self.dx
        y = (np.arange(self.ny) + 0.5) * self.dy
        return np.meshgrid(x, y, indexing="ij")


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

@dataclass
class FvField1D:
    """Cell-average scalar field u_j on a 1D grid."""

    grid: UniformGrid1D
    values: np.ndarray

    def __post_init__(self):
        self.values = _as_float_array(self.values)
        if self.values.shape != (self.grid.n_cells,):
            raise ValueError("values must have one entry per cell")


@dataclass
class FvField2D:
    """Cell-average scalar field u_{i,j}, shape (nx, ny), i along x."""

    grid: UniformGrid2D
    values: np.ndarray

    def __post_init__(self):
        self.values = _as_float_array(self.values)
        if self.values.shape != (self.grid.nx, self.grid.ny):
            raise ValueError("values must have shape (nx, ny)")


#: squared L2 norms of the Legendre basis on the reference cell, <psi_k|psi_k>
LEGENDRE_NORMS = np.array([1.0, 1.0 / 3.0, 1.0 / 5.0])


@dataclass
class DgField:
    """Per-cell Legendre coefficients a_{jk}, shape (N, p+1), degree p in {0,1,2}."""

    grid: UniformGrid1D
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = _as_float_array(self.coeffs)
        if self.coeffs.ndim != 2 or self.coeffs.shape[0] != self.grid.n_cells:
            raise ValueError("coeffs must have shape (n_cells, p+1)")
        if not 1 <= self.coeffs.shape[1] <= 3:
            raise ConfigurationError("only degrees p in {0, 1, 2} are supported")

    @property
    def degree(self):
        return self.coeffs.shape[1] - 1

    @property
    def basis_norms(self):
        return LEGENDRE_NORMS[: self.degree + 1]

    def cell_means(self):
        return self.coeffs[:, 0].copy()


@dataclass
class SpectralField:
    """Fourier coefficients u~_m for m = 0..N on a periodic domain of size L.

    Negative modes are implied by conjugate symmetry, so the 2N+1 real
    degrees of freedom are (u_0^r, u_m^r, u_m^i).  The imaginary part of
    mode 0 is forced to zero on construction.
    """

    length: float
    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=np.complex128).copy()
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("coeffs must hold modes m = 0..N with N >= 1")
        if not np.isfinite(arr.view(np.float64)).all():
            raise NonFiniteState("coefficients must be finite")
        arr[0] = arr[0].real
        self.coeffs = arr
        if self.length <= 0:
            raise ValueError("domain length must be positive")

    @property
    def n_modes(self):
        return self.coeffs.size - 1


@dataclass
class EulerState1D:
    """Cell averages u = (rho, rho*v, E) of the 1D compressible Euler
    equations, one row per cell: shape (N, 3).

    ``u`` is held without a copy, so a state built on a solver's flat stage
    array ``y.reshape(N, 3)`` reads that array; ``rho``, ``mom`` and
    ``energy`` are views of its columns.
    """

    grid: UniformGrid1D
    u: np.ndarray
    gamma: float = 1.4

    def __post_init__(self):
        self.u = _as_float_array(self.u)
        if self.u.shape != (self.grid.n_cells, 3):
            raise ValueError("u must have shape (n_cells, 3)")
        if self.gamma <= 1.0:
            raise ValueError("gamma must exceed 1")

    @property
    def rho(self):
        return self.u[:, 0]

    @property
    def mom(self):
        return self.u[:, 1]

    @property
    def energy(self):
        return self.u[:, 2]

    def velocity(self):
        return self.mom / self.rho

    def pressure(self):
        return (self.gamma - 1.0) * (self.energy - 0.5 * self.mom**2 / self.rho)

    def sound_speed(self):
        return np.sqrt(self.gamma * self.pressure() / self.rho)

    @classmethod
    def from_primitive(cls, grid, rho, v, p, gamma):
        rho = np.asarray(rho, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        p = np.asarray(p, dtype=np.float64)
        u = np.stack([rho, rho * v, p / (gamma - 1.0) + 0.5 * rho * v**2], axis=1)
        return cls(grid, u, gamma)


#: an ``EulerState1D`` and its pressure ``p``, with rho and p checked
#: positive: what ``drivers.Euler1D.evaluate`` builds once per state array
#: and every gas hook and ``diagnostics.invariant_report`` read
EvaluatedEuler1D = namedtuple("EvaluatedEuler1D", "state p")


@dataclass
class VorticityState2D:
    """Vorticity cell averages plus the cell-average streamfunction.

    ``psi_bar`` must be refreshed (via ``schemes.poisson_solve``) after every
    change to ``chi``; the energy corrector's brackets read it directly.
    """

    chi: FvField2D
    psi_bar: np.ndarray

    def __post_init__(self):
        self.psi_bar = _as_float_array(self.psi_bar)
        if self.psi_bar.shape != self.chi.values.shape:
            raise ValueError("psi_bar must match the vorticity field shape")


# ---------------------------------------------------------------------------
# brackets
# ---------------------------------------------------------------------------

def bracket(a, b, volume):
    """Volume-weighted inner product <a|b> = sum_j a_j b_j |Omega|.

    Works on flat or 2D arrays; ``volume`` is the grid's one cell volume.
    ``np.add.reduce`` over all axes is the sum ``np.sum`` takes, without its
    dispatch.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"bracket arguments differ in shape: {a.shape} vs {b.shape}")
    return float(np.add.reduce(a * b * volume, axis=None))


#: <1|1> per (shape, cell volume), as ``volume_mean`` sums it
_VOLUME_TOTALS = {}


def volume_mean(a, volume):
    """Volume-weighted average <a> = <a|1>/<1|1>.

    ``volume`` is the grid's one cell volume.  a * 1.0 is a exactly, so
    <a|1> is the sum of a * |Omega| and <1|1> that of |Omega| in every
    cell: the brackets' bits with no array of ones.  <1|1> is summed once
    per shape and volume.
    """
    a = np.asarray(a, dtype=np.float64)
    key = (a.shape, volume)
    total = _VOLUME_TOTALS.get(key)
    if total is None:
        total = _VOLUME_TOTALS[key] = float(
            np.add.reduce(np.full(a.shape, volume), axis=None))
    return float(np.add.reduce(a * volume, axis=None)) / total


def coarse_grain(fine: FvField1D, factor: int) -> FvField1D:
    """Block-average a fine field onto a grid coarsened by ``factor``;
    uniform cells, so plain means preserve mass."""
    if factor < 1 or fine.grid.n_cells % factor != 0:
        raise ValueError("fine grid size must be divisible by the factor")
    n_coarse = fine.grid.n_cells // factor
    vals = fine.values.reshape(n_coarse, factor).mean(axis=1)
    grid = UniformGrid1D(n_coarse, fine.grid.length, fine.grid.boundary)
    return FvField1D(grid, vals)


def coarse_grain_2d(fine: FvField2D, factor: int) -> FvField2D:
    """2D block averaging; uniform cells, so plain means preserve mass."""
    g = fine.grid
    if factor < 1 or g.nx % factor != 0 or g.ny % factor != 0:
        raise ValueError("grid sizes must be divisible by the factor")
    nx, ny = g.nx // factor, g.ny // factor
    vals = fine.values.reshape(nx, factor, ny, factor).mean(axis=(1, 3))
    return FvField2D(UniformGrid2D(nx, ny, g.lx, g.ly), vals)
