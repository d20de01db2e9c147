"""Closed-form error-correcting transformations for solver updates.

Each corrector takes a proposed update (interface fluxes, a cell RHS, or a
discrete increment), a rate target, and a weight field G, and returns the
update transformed so the targeted bracket identities hold exactly:

* mass stays conserved (flux form keeps telescoping; RHS/increment forms are
  demeaned),
* the discrete l2-norm (or entropy) changes at exactly the prescribed rate,
* for 2D incompressible flow the energy bracket is projected to zero.

When the input already satisfies the target the output equals the input, so
correction never perturbs an update that is already invariant-legal.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import (DgField, EulerState1D, FvField1D, FvField2D, SpectralField,
                   VorticityState2D, bracket, volume_mean)
from .dg import dg_diffusion_rhs, dg_l2_rate
from .errors import (CflViolation, DegenerateCorrection, InfeasibleTarget,
                     PositivityViolation)
from .schemes import BoundaryFluxes2D, euler1d_lax_friedrichs_flux
from .kernels import euler_physical_flux

#: relative threshold below which a correction denominator counts as zero
DEGENERACY_RTOL = 1e-13


class AntiDiffusiveTargetWarning(RuntimeWarning):
    """An entropy target below the current rate adds anti-diffusion; positivity
    is no longer guaranteed."""


# ---------------------------------------------------------------------------
# rate targets
# ---------------------------------------------------------------------------

CLAMP = "clamp"
FIXED = "fixed"
TRACKED = "tracked"


@dataclass(frozen=True)
class L2RateTarget:
    """Prescription for the new l2 rate.

    Clamp sets new = min(old, 0); Fixed prescribes a rate <= 0; Tracked
    carries a rate from a reference run (callers enforcing stability clamp
    it when loading, see ``TrackedRateSource``).
    """

    mode: str
    rate: float = 0.0

    def __post_init__(self):
        if self.mode not in (CLAMP, FIXED, TRACKED):
            raise ValueError(f"unknown target mode {self.mode!r}")
        if self.mode == FIXED and self.rate > 0.0:
            raise ValueError("a fixed l2 rate must be <= 0")

    @classmethod
    def clamp(cls):
        return cls(CLAMP)

    @classmethod
    def fixed(cls, rate):
        return cls(FIXED, float(rate))

    @classmethod
    def tracked(cls, rate):
        return cls(TRACKED, float(rate))

    def resolve(self, old_rate):
        if self.mode == CLAMP:
            return min(old_rate, 0.0)
        return self.rate


class TrackedRateSource:
    """Reference-run rate curve: columns (t, rate), strictly increasing t.

    Rates are interpolated piecewise-linearly in time and clamped to <= 0 so
    the stability guarantee survives interpolation error.
    """

    def __init__(self, times, rates):
        self.times = np.asarray(times, dtype=np.float64)
        self.rates = np.asarray(rates, dtype=np.float64)
        if self.times.ndim != 1 or self.times.shape != self.rates.shape:
            raise ValueError("times and rates must be equal-length 1D arrays")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("tracked-rate times must be strictly increasing")

    @classmethod
    def from_csv(cls, path):
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        return cls(data[:, 0], data[:, 1])

    def rate_at(self, t):
        return min(float(np.interp(t, self.times, self.rates)), 0.0)

    def target_at(self, t):
        return L2RateTarget.tracked(self.rate_at(t))


@dataclass(frozen=True)
class EntropyRateTarget:
    """new entropy rate = boundary + R*(old - boundary), R >= 0.

    ``boundary_flux_estimate`` is psi(0) - psi(L) (zero for periodic runs).
    """

    boundary_flux_estimate: float = 0.0
    ratio: float = 1.0

    def __post_init__(self):
        if self.ratio < 0.0:
            raise ValueError("the entropy rate ratio R must be >= 0")

    def resolve(self, old_rate):
        if self.ratio == 1.0:
            return old_rate  # exact identity, not a floating-point round trip
        return self.boundary_flux_estimate \
            + self.ratio * (old_rate - self.boundary_flux_estimate)


def _check_denominator(denom, scale, what):
    if abs(denom) <= DEGENERACY_RTOL * max(scale, 1e-300):
        raise DegenerateCorrection(
            f"{what} denominator {denom:.3e} is zero at scale {scale:.3e}; "
            "choose a different weight field G")


def laplacian_1d(values):
    """Periodic second difference u_{j+1} - 2 u_j + u_{j-1} (not divided by dx^2)."""
    return np.roll(values, -1) - 2.0 * values + np.roll(values, 1)


def laplacian_2d(values, dx, dy):
    """Periodic five-point Laplacian on a uniform (nx, ny) grid."""
    return (np.roll(values, -1, axis=0) - 2.0 * values + np.roll(values, 1, axis=0)) \
        / dx**2 \
        + (np.roll(values, -1, axis=1) - 2.0 * values + np.roll(values, 1, axis=1)) \
        / dy**2


# ---------------------------------------------------------------------------
# flux-form correctors (scalar)
# ---------------------------------------------------------------------------

def flux_l2_rate_1d(fluxes, u: FvField1D):
    """Measured d(l2)/dt of a flux-form update, boundary terms included."""
    f = np.asarray(fluxes, dtype=np.float64)
    vals = u.values
    if u.grid.periodic:
        du = np.roll(vals, -1) - vals
        return float(f @ du)
    du = np.diff(vals)
    return float(f[1:-1] @ du + f[0] * vals[0] - f[-1] * vals[-1])


def correct_flux_l2_1d(fluxes, u: FvField1D, target: L2RateTarget, G=None):
    """Transform interface fluxes so the l2 rate equals the target.

    Periodic grids modify every interface; bounded grids hold the two
    boundary fluxes fixed and correct the interior, with the boundary terms
    entering the measured rate.  Default G is the interface jump u_{j+1}-u_j.
    """
    f = np.asarray(fluxes, dtype=np.float64)
    vals = u.values
    periodic = u.grid.periodic
    du = (np.roll(vals, -1) - vals) if periodic else np.diff(vals)

    old = flux_l2_rate_1d(f, u)
    new = target.resolve(old)
    if new == old:
        return f

    g = du if G is None else np.asarray(G, dtype=np.float64)
    g_int = g if periodic else (g[1:-1] if g.shape == f.shape else g)
    if g_int.shape != du.shape:
        raise ValueError("G must cover the corrected interfaces")
    denom = float(g_int @ du)
    _check_denominator(denom, np.linalg.norm(g_int) * np.linalg.norm(du),
                       "flux correction")
    out = f.copy()
    if periodic:
        out += (new - old) * g_int / denom
    else:
        out[1:-1] += (new - old) * g_int / denom
    return out


def flux_l2_rates_2d(fluxes, u: FvField2D):
    """Directional l2 rates (d l2^x/dt, d l2^y/dt) of a 2D flux update."""
    g = u.grid
    dux = np.roll(u.values, -1, axis=0) - u.values
    duy = np.roll(u.values, -1, axis=1) - u.values
    return (float(g.dy * np.sum(fluxes.fx * dux)),
            float(g.dx * np.sum(fluxes.fy * duy)))


def correct_flux_l2_2d(fluxes, u: FvField2D, target_x: L2RateTarget,
                       target_y: L2RateTarget, Gx=None, Gy=None):
    """Directional analogue of ``correct_flux_l2_1d`` on a periodic 2D grid."""
    g = u.grid
    dux = np.roll(u.values, -1, axis=0) - u.values
    duy = np.roll(u.values, -1, axis=1) - u.values
    old_x, old_y = flux_l2_rates_2d(fluxes, u)
    new_x = target_x.resolve(old_x)
    new_y = target_y.resolve(old_y)

    fx, fy = fluxes.fx, fluxes.fy
    if new_x != old_x:
        gx = dux if Gx is None else np.asarray(Gx, dtype=np.float64)
        denom = float(g.dy * np.sum(gx * dux))
        _check_denominator(denom, g.dy * np.linalg.norm(gx) * np.linalg.norm(dux),
                           "x-flux correction")
        fx = fx + (new_x - old_x) * gx / denom
    if new_y != old_y:
        gy = duy if Gy is None else np.asarray(Gy, dtype=np.float64)
        denom = float(g.dx * np.sum(gy * duy))
        _check_denominator(denom, g.dx * np.linalg.norm(gy) * np.linalg.norm(duy),
                           "y-flux correction")
        fy = fy + (new_y - old_y) * gy / denom
    return BoundaryFluxes2D(fx, fy)


# ---------------------------------------------------------------------------
# arbitrary-RHS and discrete-increment correctors
# ---------------------------------------------------------------------------

def _field_parts(u):
    if isinstance(u, FvField1D):
        return u.values, u.grid.cell_volumes
    if isinstance(u, FvField2D):
        return u.values, u.grid.cell_volume
    raise TypeError("expected an FvField1D or FvField2D")


def _default_cell_G(u, volumes):
    if isinstance(u, FvField1D):
        g = laplacian_1d(u.values)
    else:
        g = laplacian_2d(u.values, u.grid.dx, u.grid.dy)
    return g - volume_mean(g, volumes)


def correct_rhs_mass_l2(rhs, u, target: L2RateTarget, G=None):
    """Demean an arbitrary cell RHS and set its l2 rate to the target.

    Output satisfies <N> = 0 and <u|N> = resolved rate.  G must be mean-free
    (default: the demeaned discrete Laplacian of u).
    """
    vals, volumes = _field_parts(u)
    n = np.asarray(rhs, dtype=np.float64)
    if n.shape != vals.shape:
        raise ValueError("RHS shape must match the field")

    big_u = vals - volume_mean(vals, volumes)
    m = n - volume_mean(n, volumes)
    old = bracket(big_u, m, volumes)
    new = target.resolve(old)
    if new == old:
        return m

    if G is None:
        g = _default_cell_G(u, volumes)
    else:
        g = np.asarray(G, dtype=np.float64)
        g_mean = volume_mean(g, volumes)
        if abs(g_mean) > 1e-12 * max(np.abs(g).max(), 1e-300):
            raise ValueError("G must be mean-free for mass conservation")
    denom = bracket(big_u, g, volumes)
    _check_denominator(denom,
                       float(np.sqrt(bracket(big_u, big_u, volumes)
                                     * bracket(g, g, volumes))),
                       "RHS correction")
    return m + (new - old) * g / denom


def increment_quadratic_coefficients(increment, u, delta_l2, G=None):
    """Coefficients (a, b, c) of a eps^2 + 2 b eps + c = 0 from the
    discrete-time l2 condition, exposed for inspection and oracles."""
    vals, volumes = _field_parts(u)
    inc = np.asarray(increment, dtype=np.float64)
    bar = inc - volume_mean(inc, volumes)
    if G is None:
        g = _default_cell_G(u, volumes)
    else:
        g = np.asarray(G, dtype=np.float64)
    a = bracket(g, g, volumes)
    b = bracket(vals + bar, g, volumes)
    c = 2.0 * bracket(vals, bar, volumes) + bracket(bar, bar, volumes) \
        - 2.0 * float(delta_l2)
    return a, b, c


def correct_increment_mass_l2(increment, u, delta_l2, G=None):
    """Discrete-time correction: demean the increment and add eps*G so the
    new-state l2 integral changes by exactly ``delta_l2``.

    eps solves a quadratic; the root continuous in the already-satisfied
    limit (the paper's plus sign) is chosen.  A negative discriminant raises
    ``InfeasibleTarget`` carrying the minimum achievable delta_l2.
    """
    vals, volumes = _field_parts(u)
    inc = np.asarray(increment, dtype=np.float64)
    bar = inc - volume_mean(inc, volumes)
    if G is None:
        g = _default_cell_G(u, volumes)
    else:
        g = np.asarray(G, dtype=np.float64)
        g_mean = volume_mean(g, volumes)
        if abs(g_mean) > 1e-12 * max(np.abs(g).max(), 1e-300):
            raise ValueError("G must be mean-free for mass conservation")

    a = bracket(g, g, volumes)
    b = bracket(vals + bar, g, volumes)
    c0 = 2.0 * bracket(vals, bar, volumes) + bracket(bar, bar, volumes)
    c = c0 - 2.0 * float(delta_l2)
    if c == 0.0:
        return bar
    if a == 0.0:
        raise DegenerateCorrection("G vanishes; the quadratic degenerates")
    disc = b * b - a * c
    if disc < 0.0:
        min_delta = 0.5 * (c0 - b * b / a)
        raise InfeasibleTarget(
            f"delta_l2 = {delta_l2:.6e} is below the achievable minimum "
            f"{min_delta:.6e}", min_delta)
    root = np.sqrt(disc)
    if b == 0.0:
        eps = root / a
    else:
        big = -(b + np.sign(b) * root) / a   # larger-magnitude root
        eps = c / (a * big)                  # smaller-magnitude (plus-sign) root
    return bar + eps * g


# ---------------------------------------------------------------------------
# DG and spectral correctors
# ---------------------------------------------------------------------------

def correct_dg_l2(rhs, a: DgField, target: L2RateTarget):
    """Add interior-penalty diffusion with coefficient nu chosen so the
    weighted-bracket l2 rate equals the target; mass is untouched."""
    n = np.asarray(rhs, dtype=np.float64)
    if n.shape != a.coeffs.shape:
        raise ValueError("RHS shape must match the coefficient matrix")
    old = dg_l2_rate(a, n)
    new = target.resolve(old)
    if new == old:
        return n
    n_diff = dg_diffusion_rhs(a)
    denom = dg_l2_rate(a, n_diff)
    _check_denominator(denom,
                       float(np.linalg.norm(a.coeffs) * np.linalg.norm(n_diff)),
                       "DG correction")
    return n + (new - old) / denom * n_diff


def spectral_pair_dot(a, b):
    """Real-pair inner product over modes m = 0..N of two coefficient arrays."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    return float(np.sum(a.real * b.real + a.imag * b.imag))


def spectral_l2_rate(u: SpectralField, rhs):
    """d/dt of the Plancherel l2 functional under coefficient RHS Ntilde."""
    return 2.0 * u.length * spectral_pair_dot(u.coeffs, rhs)


def correct_spectral_mass_l2(rhs, u: SpectralField, target: L2RateTarget, G=None):
    """Zero the mode-0 rate exactly, then rescale toward the l2 target.

    Default G is the spectral diffusion -m^2 u~_m (G_0 = 0 automatically).
    """
    n = np.asarray(rhs, dtype=np.complex128).copy()
    if n.shape != u.coeffs.shape:
        raise ValueError("RHS must cover modes m = 0..N")
    n[0] = 0.0

    old = spectral_l2_rate(u, n)
    new = target.resolve(old)
    if new == old:
        return n

    if G is None:
        m = np.arange(u.n_modes + 1)
        g = -(m**2) * u.coeffs
    else:
        g = np.asarray(G, dtype=np.complex128)
        if abs(g[0]) > 1e-12 * max(np.abs(g).max(), 1e-300):
            raise ValueError("G_0 must vanish for mass conservation")
    denom = 2.0 * u.length * spectral_pair_dot(u.coeffs, g)
    _check_denominator(denom,
                       2.0 * u.length * float(np.linalg.norm(u.coeffs)
                                              * np.linalg.norm(g)),
                       "spectral correction")
    return n + (new - old) * g / denom


# ---------------------------------------------------------------------------
# 2D incompressible Euler corrector
# ---------------------------------------------------------------------------

def correct_euler2d_mass_energy_l2(rhs, state: VorticityState2D,
                                   target: L2RateTarget, G=None):
    """Demean, project out the energy direction, then set the enstrophy rate.

    The output P' satisfies <P'> = 0, <psi_bar|P'> = 0 and <W|P'> = target,
    where W is the streamfunction-orthogonal part of the vorticity.
    """
    chi = state.chi.values
    vol = state.chi.grid.cell_volume
    n = np.asarray(rhs, dtype=np.float64)
    if n.shape != chi.shape:
        raise ValueError("RHS shape must match the vorticity field")

    phi = state.psi_bar - volume_mean(state.psi_bar, vol)
    pp = bracket(phi, phi, vol)
    if pp <= DEGENERACY_RTOL * max(float(np.abs(phi).max()), 1e-300) ** 2:
        raise DegenerateCorrection("constant streamfunction: no energy direction")

    big_u = chi - volume_mean(chi, vol)
    m = n - volume_mean(n, vol)
    w = big_u - bracket(big_u, phi, vol) / pp * phi
    p = m - bracket(m, phi, vol) / pp * phi
    old = bracket(w, p, vol)
    new = target.resolve(old)
    if new == old:
        return p

    if G is None:
        grid = state.chi.grid
        lap_w = laplacian_2d(w, grid.dx, grid.dy)
        g = lap_w - bracket(lap_w, phi, vol) / pp * phi
    else:
        g = np.asarray(G, dtype=np.float64)
        scale = max(float(np.abs(g).max()), 1e-300) * vol * g.size
        if abs(bracket(g, np.ones_like(g), vol)) > 1e-12 * scale:
            raise ValueError("G must be mean-free")
        psi_scale = max(float(np.abs(state.psi_bar).max()), 1e-300)
        if abs(bracket(g, state.psi_bar, vol)) > 1e-10 * scale * psi_scale:
            raise ValueError("G must be orthogonal to the streamfunction")
    denom = bracket(w, g, vol)
    _check_denominator(denom,
                       float(np.sqrt(bracket(w, w, vol) * bracket(g, g, vol))),
                       "2D Euler correction")
    return p + (new - old) * g / denom


# ---------------------------------------------------------------------------
# 1D compressible Euler: entropy variables, positivity, entropy correction
# ---------------------------------------------------------------------------

@dataclass
class EntropyVariables1D:
    """w = d(eta)/du per cell, plus eta, p*, and the entropy flux psi."""

    w: np.ndarray        # (N, 3)
    eta: np.ndarray      # (N,)
    p_star: np.ndarray   # (N,)
    psi: np.ndarray      # (N,)


def entropy_variables_euler1d(state: EulerState1D) -> EntropyVariables1D:
    """Entropy variables for eta = rho*g(s), g(s) = exp(s/(gamma+1))."""
    rho = state.rho
    p = state.pressure()
    if np.any(rho <= 0.0) or np.any(p <= 0.0):
        raise PositivityViolation("entropy variables need positive rho and p")
    gamma = state.gamma
    g = (p / rho**gamma) ** (1.0 / (gamma + 1.0))
    eta = rho * g
    p_star = (gamma - 1.0) / (gamma + 1.0) * g
    scale = p_star / p
    w = np.stack([scale * state.energy, -scale * state.mom, scale * rho], axis=1)
    return EntropyVariables1D(w, eta, p_star, eta * state.velocity())


def entropy_total(state: EulerState1D):
    ev = entropy_variables_euler1d(state)
    return float(np.sum(ev.eta * state.grid.cell_volumes))


def entropy_rate_euler1d(fluxes, state: EulerState1D, w=None):
    """Summation-by-parts entropy rate of a flux update, boundary terms
    included for bounded grids."""
    f = np.asarray(fluxes, dtype=np.float64)
    if w is None:
        w = entropy_variables_euler1d(state).w
    if state.grid.periodic:
        # distinct faces are 1..N: face k sits between cells k-1 and k (mod N)
        return float(np.sum(f[1:] * (np.roll(w, -1, axis=0) - w)))
    interior = float(np.sum(f[1:-1] * np.diff(w, axis=0)))
    return interior + float(f[0] @ w[0] - f[-1] @ w[-1])


def correct_entropy_euler1d(fluxes, state: EulerState1D,
                            target: EntropyRateTarget, G=None):
    """Transform interface fluxes so the discrete entropy rate matches
    boundary + R*(old - boundary).

    Boundary fluxes are held fixed (Dirichlet) or mirrored (periodic);
    default G_{j+1/2} = (0, v_{j+1}-v_j, p_{j+1}-p_j).
    """
    f = np.asarray(fluxes, dtype=np.float64)
    n = state.grid.n_cells
    if f.shape != (n + 1, 3):
        raise ValueError("expected fluxes at the N+1 interfaces")
    w = entropy_variables_euler1d(state).w
    old = entropy_rate_euler1d(f, state, w)
    new = target.resolve(old)
    if new == old:
        return f
    if new < old:
        warnings.warn("entropy target below the current rate adds "
                      "anti-diffusion; positivity is no longer guaranteed",
                      AntiDiffusiveTargetWarning, stacklevel=2)

    periodic = state.grid.periodic
    if periodic:
        dw = np.vstack([np.diff(w, axis=0), (w[0] - w[-1])[None, :]])  # faces 1..N
    else:
        dw = np.diff(w, axis=0)                                        # faces 1..N-1

    if G is None:
        v = state.velocity()
        p = state.pressure()
        if periodic:
            dv = np.concatenate([np.diff(v), [v[0] - v[-1]]])
            dp = np.concatenate([np.diff(p), [p[0] - p[-1]]])
        else:
            dv, dp = np.diff(v), np.diff(p)
        g = np.stack([np.zeros_like(dv), dv, dp], axis=1)
    else:
        g = np.asarray(G, dtype=np.float64)
        if g.shape != dw.shape:
            raise ValueError("G must cover the corrected interfaces")
    denom = float(np.sum(g * dw))
    _check_denominator(denom, float(np.linalg.norm(g) * np.linalg.norm(dw)),
                       "entropy correction")
    out = f.copy()
    if periodic:
        out[1:] += (new - old) * g / denom
        out[0] = out[-1]
    else:
        out[1:-1] += (new - old) * g / denom
    return out


def estimate_boundary_entropy_flux(state: EulerState1D, boundary_primitive=None):
    """Conservative psi(0) - psi(L) estimate for open domains.

    Each end takes the minimum of the boundary-condition value and the
    outermost-cell value of psi = rho*v*g(s); periodic grids return 0.
    """
    if state.grid.periodic:
        return 0.0

    def psi_of(rho, v, p):
        g = (p / rho**state.gamma) ** (1.0 / (state.gamma + 1.0))
        return rho * v * g

    ev = entropy_variables_euler1d(state)
    psi_cells = ev.psi
    if boundary_primitive is None:
        psi_left_bc, psi_right_bc = psi_cells[0], psi_cells[-1]
    else:
        (rho_l, v_l, p_l), (rho_r, v_r, p_r) = boundary_primitive
        psi_left_bc = psi_of(rho_l, v_l, p_l)
        psi_right_bc = psi_of(rho_r, v_r, p_r)
    psi0 = min(psi_left_bc, float(psi_cells[0]))
    psiL = min(psi_right_bc, float(psi_cells[-1]))
    return psi0 - psiL


def limit_positivity_euler1d(fluxes, state: EulerState1D, dt, eps_pos=None,
                             boundary_state=None):
    """Blend each interface flux toward first-order Lax-Friedrichs until a
    forward-Euler step keeps rho and p at or above ``eps_pos``.

    Positivity of the full update is enforced through the two half-cell
    states each interface controls, so the per-interface theta decouple;
    bisection finds the largest feasible theta.  Raises ``CflViolation``
    when even theta = 0 fails.
    """
    f = np.asarray(fluxes, dtype=np.float64)
    n = state.grid.n_cells
    if f.shape != (n + 1, 3):
        raise ValueError("expected fluxes at the N+1 interfaces")
    if eps_pos is None:
        eps_pos = 1e-12 * max(float(state.rho.max()), float(state.pressure().max()))

    u = state.conserved()
    fu = euler_physical_flux(u, state.gamma)
    lam = dt / state.grid.cell_volumes
    f_lf = euler1d_lax_friedrichs_flux(state, dt, boundary_state)

    periodic = state.grid.periodic
    left = np.arange(-1, n)      # cell left of face k
    right = np.arange(0, n + 1)  # cell right of face k
    if periodic:
        left %= n
        right %= n
        check_left = np.ones(n + 1, dtype=bool)
        check_right = np.ones(n + 1, dtype=bool)
    else:
        check_left = left >= 0
        check_right = right <= n - 1
        left = np.clip(left, 0, n - 1)
        right = np.clip(right, 0, n - 1)

    def feasible(theta):
        ft = theta[:, None] * f + (1.0 - theta[:, None]) * f_lf
        ok = np.ones(n + 1, dtype=bool)
        # right-moving half of the left cell: u_L - 2 lam_L (F - f(u_L))
        hl = u[left] - 2.0 * lam[left, None] * (ft - fu[left])
        okl = _positive_state(hl, state.gamma, eps_pos)
        ok &= np.where(check_left, okl, True)
        # left half of the right cell: u_R + 2 lam_R (F - f(u_R))
        hr = u[right] + 2.0 * lam[right, None] * (ft - fu[right])
        okr = _positive_state(hr, state.gamma, eps_pos)
        ok &= np.where(check_right, okr, True)
        return ok

    ones = np.ones(n + 1)
    ok_full = feasible(ones)
    if ok_full.all():
        return f
    if not feasible(np.zeros(n + 1)).all():
        raise CflViolation("first-order Lax-Friedrichs violates positivity; "
                           "reduce dt")

    lo = np.zeros(n + 1)
    hi = ones.copy()
    lo[ok_full] = 1.0
    for _ in range(40):  # 2^-40 < 1e-10 interval width
        mid = 0.5 * (lo + hi)
        ok = feasible(mid)
        lo = np.where(ok, mid, lo)
        hi = np.where(ok, hi, mid)
    theta = lo
    theta[ok_full] = 1.0
    out = theta[:, None] * f + (1.0 - theta[:, None]) * f_lf
    out[ok_full] = f[ok_full]
    return out


def _positive_state(u, gamma, eps):
    rho = u[:, 0]
    p = (gamma - 1.0) * (u[:, 2] - 0.5 * u[:, 1] ** 2 / np.where(rho > 0, rho, 1.0))
    return (rho >= eps) & (p >= eps)
