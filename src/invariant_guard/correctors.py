"""Closed-form error-correcting transformations for solver updates.

Each corrector takes a proposed update (interface fluxes, a cell RHS, or a
discrete increment) and a rate target, and returns ``(update, Correction)``:
the update moved along a weight field G so the targeted bracket identities
hold exactly, and the rates it computed on the way (old, target, achieved on
the output):

* mass stays conserved (flux form keeps telescoping; RHS/increment forms are
  demeaned),
* the discrete l2-norm (or entropy) changes at exactly the prescribed rate,
* for 2D incompressible flow the energy bracket is projected to zero.

G is fixed by the solution representation: the face jump of u for fluxes,
the demeaned discrete Laplacian of u for a cell RHS or increment, -m^2 u~_m
for spectral modes, the streamfunction-orthogonal Laplacian of W for 2D
Euler, and (0, dv, dp) at the faces for the Euler entropy fluxes.  Every
corrector but the discrete-increment one (a quadratic root) makes its move
in one place, ``_line_search``: it adds (new - old) * G / denom, denom being
the rate of G, raises ``DegenerateCorrection`` when |denom| is round-off at
its scale, and re-measures the achieved rate on the output.

When the input already satisfies the target the output equals the input
and the achieved rate is the old one, so correction never perturbs an
update that is already invariant-legal.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (DgField, EulerState1D, FvField1D, FvField2D, SpectralField,
                   VorticityState2D, bracket, shift, volume_mean)
from .dg import coeffs_l2_rate, dg_diffusion, periodic_pad
# not called here any more; bench/spans.py still wraps this module's names
from .dg import dg_diffusion_rhs, dg_l2_rate  # noqa: F401
from .errors import (CflViolation, ConfigurationError, DegenerateCorrection,
                     InfeasibleTarget, PositivityViolation)
from .schemes import BoundaryFluxes2D, ghost_rows
from .kernels import local_lax_friedrichs_fluxes
from .kernels.euler1d import _physical_flux

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

    def at(self, t):
        """The target in force at time ``t``: a static target is itself."""
        return self

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

    def rate_at(self, t):
        return min(float(np.interp(t, self.times, self.rates)), 0.0)

    def at(self, t):
        """The tracked L2RateTarget in force at time ``t``."""
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


@dataclass
class Correction:
    """What one corrector call did: the rate of the incoming update, the
    resolved target and the rate measured on the returned update (per-step
    l2 changes for the increment corrector).  Drivers stamp ``kind`` when
    they record it; the 2D Euler corrector adds its energy bracket
    <psi_bar|P'> and that bracket's scale."""

    old_rate: float
    target_rate: float
    achieved_rate: float
    kind: str = None
    energy_bracket: float = None
    energy_scale: float = None


def _line_search(update, part, g, old, new, denom, scale, what, rate):
    """Add (new - old) * g / denom to ``update[part]`` of a copy, or to all
    of ``update`` when ``part`` is None, and report the ``rate`` measured on
    the result; raise ``DegenerateCorrection`` naming the corrector ``what``
    when |denom| <= DEGENERACY_RTOL * scale."""
    if abs(denom) <= DEGENERACY_RTOL * max(scale, 1e-300):
        raise DegenerateCorrection(
            f"{what}: denominator {denom:.3e} is zero at scale {scale:.3e}")
    move = (new - old) * g / denom
    if part is None:
        out = update + move
    else:
        out = update.copy()
        out[part] += move
    return out, Correction(old, new, rate(out))


def laplacian_1d(values):
    """Periodic second difference u_{j+1} - 2 u_j + u_{j-1} (not divided by
    dx^2), both neighbours read from one ghost-padded copy."""
    padded = np.concatenate((values[-1:], values, values[:1]))
    return padded[2:] - 2.0 * values + padded[:-2]


def laplacian_2d(values, dx, dy):
    """Periodic five-point Laplacian on a uniform (nx, ny) grid."""
    return (shift(values, 1) - 2.0 * values + shift(values, -1)) / dx**2 \
        + (shift(values, 1, 1) - 2.0 * values + shift(values, -1, 1)) / dy**2


# ---------------------------------------------------------------------------
# flux-form correctors (scalar)
# ---------------------------------------------------------------------------

def _face_jumps(a, periodic):
    """a_{j+1} - a_j along axis 0 at the interfaces a flux correction moves:
    faces 1..N (the last wraps to cell 0) on a periodic grid, 1..N-1 on a
    bounded one."""
    return (shift(a, 1) - a) if periodic else a[1:] - a[:-1]


def _periodic_jumps(u: FvField1D):
    """Face jumps u_{j+1} - u_j; ConfigurationError on a bounded grid."""
    if not u.grid.periodic:
        raise ConfigurationError("the scalar flux corrector is periodic-only")
    return _face_jumps(u.values, True)


def flux_l2_rate_1d(fluxes, u: FvField1D):
    """Measured d(l2)/dt of a flux-form update on a periodic grid."""
    return float(np.asarray(fluxes, dtype=np.float64) @ _periodic_jumps(u))


def correct_flux_l2_1d(fluxes, u: FvField1D, target: L2RateTarget):
    """Transform the N interface fluxes of a periodic grid so the l2 rate
    equals the target.  G is the interface jump u_{j+1}-u_j."""
    f = np.asarray(fluxes, dtype=np.float64)
    du = _periodic_jumps(u)
    old = float(f @ du)
    new = target.resolve(old)
    if new == old:
        return f, Correction(old, new, old)

    denom = float(du @ du)  # G = du: the denominator is its own scale
    return _line_search(f, None, du, old, new, denom, denom,
                        "correct_flux_l2_1d", lambda out: float(out @ du))


def flux_l2_rates_2d(fluxes, u: FvField2D):
    """Directional l2 rates (d l2^x/dt, d l2^y/dt) of a 2D flux update."""
    g = u.grid
    dux = shift(u.values, 1) - u.values
    duy = shift(u.values, 1, 1) - u.values
    return (float(g.dy * np.sum(fluxes.fx * dux)),
            float(g.dx * np.sum(fluxes.fy * duy)))


def _correct_direction(f, u, axis, h, old, target):
    """One direction of ``correct_flux_l2_2d``: its fluxes and Correction."""
    new = target.resolve(old)
    if new == old:
        return f, Correction(old, new, old)
    du = shift(u.values, 1, axis) - u.values
    denom = float(h * np.sum(du * du))  # G = du: its own scale
    return _line_search(f, None, du, old, new, denom, denom,
                        "correct_flux_l2_2d " + "xy"[axis],
                        lambda out: float(h * np.sum(out * du)))


def correct_flux_l2_2d(fluxes, u: FvField2D, target_x: L2RateTarget,
                       target_y: L2RateTarget):
    """Directional analogue of ``correct_flux_l2_1d`` on a periodic 2D grid;
    the report is a pair of ``Correction``s, x first."""
    old_x, old_y = flux_l2_rates_2d(fluxes, u)
    fx, cx = _correct_direction(fluxes.fx, u, 0, u.grid.dy, old_x, target_x)
    fy, cy = _correct_direction(fluxes.fy, u, 1, u.grid.dx, old_y, target_y)
    if fx is not fluxes.fx or fy is not fluxes.fy:
        fluxes = BoundaryFluxes2D(fx, fy)
    return fluxes, (cx, cy)


# ---------------------------------------------------------------------------
# arbitrary-RHS and discrete-increment correctors
# ---------------------------------------------------------------------------

def _field_parts(u):
    if isinstance(u, FvField1D):
        return u.values, u.grid.dx
    if isinstance(u, FvField2D):
        return u.values, u.grid.cell_volume
    raise TypeError("expected an FvField1D or FvField2D")


def _default_cell_G(u, volume):
    if isinstance(u, FvField1D):
        g = laplacian_1d(u.values)
    else:
        g = laplacian_2d(u.values, u.grid.dx, u.grid.dy)
    return g - volume_mean(g, volume)


def correct_rhs_mass_l2(rhs, u, target: L2RateTarget):
    """Demean an arbitrary cell RHS and set its l2 rate to the target.

    Output satisfies <N> = 0 and <u|N> = resolved rate.  G is the demeaned
    discrete Laplacian of u.
    """
    vals, volume = _field_parts(u)
    n = np.asarray(rhs, dtype=np.float64)
    if n.shape != vals.shape:
        raise ValueError("RHS shape must match the field")

    big_u = vals - volume_mean(vals, volume)
    m = n - volume_mean(n, volume)
    old = bracket(big_u, m, volume)
    new = target.resolve(old)
    if new == old:
        return m, Correction(old, new, old)

    g = _default_cell_G(u, volume)
    scale = float(np.sqrt(bracket(big_u, big_u, volume) * bracket(g, g, volume)))
    return _line_search(m, None, g, old, new, bracket(big_u, g, volume),
                        scale, "correct_rhs_mass_l2",
                        lambda out: bracket(big_u, out, volume))


def _increment_terms(increment, u):
    """Demeaned increment, weight G, and (a, b, c0): the l2 change of the
    state plus ``bar + eps*G`` is (a eps^2 + 2 b eps + c0) / 2."""
    vals, volume = _field_parts(u)
    inc = np.asarray(increment, dtype=np.float64)
    bar = inc - volume_mean(inc, volume)
    g = _default_cell_G(u, volume)
    a = bracket(g, g, volume)
    b = bracket(vals + bar, g, volume)
    c0 = 2.0 * bracket(vals, bar, volume) + bracket(bar, bar, volume)
    return bar, g, (a, b, c0)


def increment_quadratic_coefficients(increment, u, delta_l2):
    """Coefficients (a, b, c) of a eps^2 + 2 b eps + c = 0 from the
    discrete-time l2 condition, exposed for inspection and oracles."""
    _, _, (a, b, c0) = _increment_terms(increment, u)
    return a, b, c0 - 2.0 * float(delta_l2)


def correct_increment_mass_l2(increment, u, delta_l2):
    """Discrete-time correction: demean the increment and add eps*G so the
    new-state l2 integral changes by exactly ``delta_l2``.  G is the demeaned
    discrete Laplacian of u, as for ``correct_rhs_mass_l2``.

    eps solves a quadratic; the root continuous in the already-satisfied
    limit (the paper's plus sign) is chosen.  A negative discriminant raises
    ``InfeasibleTarget`` carrying the minimum achievable delta_l2.
    """
    bar, g, (a, b, c0) = _increment_terms(increment, u)
    delta_l2 = float(delta_l2)
    old = 0.5 * c0
    c = c0 - 2.0 * delta_l2
    if c == 0.0:
        return bar, Correction(old, delta_l2, old)
    if a == 0.0:
        raise DegenerateCorrection("G vanishes; the quadratic degenerates")
    disc = b * b - a * c
    if disc < 0.0:
        min_delta = 0.5 * (c0 - b * b / a)
        raise InfeasibleTarget(
            f"delta_l2 = {delta_l2:.6e} is below the achievable minimum "
            f"{min_delta:.6e}", min_delta)
    root = math.sqrt(disc)
    if b == 0.0:
        eps = root / a
    else:
        big = -(b + math.copysign(root, b)) / a  # larger-magnitude root
        eps = c / (a * big)          # smaller-magnitude (plus-sign) root
    out = bar + eps * g
    vals, volume = _field_parts(u)
    achieved = bracket(vals, out, volume) + 0.5 * bracket(out, out, volume)
    return out, Correction(old, delta_l2, achieved)


# ---------------------------------------------------------------------------
# DG and spectral correctors
# ---------------------------------------------------------------------------

def dg_l2_corrector(diffusion):
    """The formula ``correct(rhs, padded, target)`` of ``correct_dg_l2`` for
    one grid and degree: ``padded`` is ``dg.periodic_pad`` of the
    coefficients and ``diffusion`` the grid's bound interior-penalty formula
    (``dg.dg_diffusion``).  A driver binds it once."""
    def correct(n, padded, target):
        c = padded[1:-1]
        old = coeffs_l2_rate(c, n)
        new = target.resolve(old)
        if new == old:
            return n, Correction(old, new, old)
        n_diff = diffusion(padded)
        cf, d = c.ravel(), n_diff.ravel()
        return _line_search(n, None, n_diff, old, new,
                            coeffs_l2_rate(c, n_diff),
                            math.sqrt(cf @ cf) * math.sqrt(d @ d),
                            "correct_dg_l2",
                            lambda out: coeffs_l2_rate(c, out))
    return correct


def correct_dg_l2(rhs, a: DgField, target: L2RateTarget):
    """Add interior-penalty diffusion with coefficient nu chosen so the
    weighted-bracket l2 rate equals the target; mass is untouched.  Checks
    and binds ``dg_l2_corrector`` on every call."""
    n = np.asarray(rhs, dtype=np.float64)
    if n.shape != a.coeffs.shape:
        raise ValueError("RHS shape must match the coefficient matrix")
    correct = dg_l2_corrector(dg_diffusion(a.grid, a.degree))
    return correct(n, periodic_pad(a.coeffs), target)


def spectral_pair_dot(a, b):
    """Real-pair inner product over modes m = 0..N of two coefficient arrays."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    return float(np.sum(a.real * b.real + a.imag * b.imag))


def spectral_l2_rate(u: SpectralField, rhs):
    """d/dt of the Plancherel l2 functional under coefficient RHS Ntilde."""
    return 2.0 * u.length * spectral_pair_dot(u.coeffs, rhs)


def correct_spectral_mass_l2(rhs, u: SpectralField, target: L2RateTarget):
    """Zero the mode-0 rate exactly, then rescale toward the l2 target.

    G is the spectral diffusion -m^2 u~_m (G_0 = 0 automatically).
    """
    n = np.asarray(rhs, dtype=np.complex128).copy()
    if n.shape != u.coeffs.shape:
        raise ValueError("RHS must cover modes m = 0..N")
    n[0] = 0.0

    old = spectral_l2_rate(u, n)
    new = target.resolve(old)
    if new == old:
        return n, Correction(old, new, old)

    m = np.arange(u.n_modes + 1)
    g = -(m**2) * u.coeffs
    scale = 2.0 * u.length * float(np.linalg.norm(u.coeffs) * np.linalg.norm(g))
    return _line_search(n, None, g, old, new, spectral_l2_rate(u, g),
                        scale, "correct_spectral_mass_l2",
                        lambda out: spectral_l2_rate(u, out))


# ---------------------------------------------------------------------------
# 2D incompressible Euler corrector
# ---------------------------------------------------------------------------

def correct_euler2d_mass_energy_l2(rhs, state: VorticityState2D,
                                   target: L2RateTarget):
    """Demean, project out the energy direction, then set the enstrophy rate.

    The output P' satisfies <P'> = 0, <psi_bar|P'> = 0 and <W|P'> = target,
    where W is the streamfunction-orthogonal part of the vorticity.  G is the
    streamfunction-orthogonal part of the discrete Laplacian of W.  The
    report's ``energy_bracket`` is <psi_bar|P'> and its ``energy_scale``
    sqrt(<psi_bar|psi_bar> <P'|P'>).
    """
    chi = state.chi.values
    vol = state.chi.grid.cell_volume
    n = np.asarray(rhs, dtype=np.float64)
    if n.shape != chi.shape:
        raise ValueError("RHS shape must match the vorticity field")

    phi = state.psi_bar - volume_mean(state.psi_bar, vol)
    pp = bracket(phi, phi, vol)
    if pp <= DEGENERACY_RTOL * max(float(np.abs(phi).max()), 1e-300) ** 2:
        raise DegenerateCorrection("correct_euler2d_mass_energy_l2: constant "
                                   "streamfunction, no energy direction")

    big_u = chi - volume_mean(chi, vol)
    m = n - volume_mean(n, vol)
    w = big_u - bracket(big_u, phi, vol) / pp * phi
    p = m - bracket(m, phi, vol) / pp * phi
    old = bracket(w, p, vol)
    new = target.resolve(old)
    report = Correction(old, new, old)
    if new != old:
        lap_w = laplacian_2d(w, state.chi.grid.dx, state.chi.grid.dy)
        g = lap_w - bracket(lap_w, phi, vol) / pp * phi
        scale = float(np.sqrt(bracket(w, w, vol) * bracket(g, g, vol)))
        p, report = _line_search(p, None, g, old, new,
                                 bracket(w, g, vol), scale,
                                 "correct_euler2d_mass_energy_l2",
                                 lambda out: bracket(w, out, vol))
    psi = state.psi_bar
    report.energy_bracket = bracket(psi, p, vol)
    report.energy_scale = float(np.sqrt(bracket(psi, psi, vol)
                                        * bracket(p, p, vol)))
    return p, report


# ---------------------------------------------------------------------------
# 1D compressible Euler: entropy variables, positivity, entropy correction
# ---------------------------------------------------------------------------

@dataclass
class EntropyVariables1D:
    """w = d(eta)/du per cell, plus eta, p*, the entropy flux psi, and the
    velocity and pressure they were computed from."""

    w: np.ndarray        # (N, 3)
    eta: np.ndarray      # (N,)
    p_star: np.ndarray   # (N,)
    psi: np.ndarray      # (N,)
    v: np.ndarray        # (N,)
    p: np.ndarray        # (N,)


def entropy_variables_euler1d(state: EulerState1D,
                              p=None) -> EntropyVariables1D:
    """Entropy variables for eta = rho*g(s), g(s) = exp(s/(gamma+1)), from
    the state's pressure ``p`` (computed when not given)."""
    rho = state.rho
    if p is None:
        p = state.pressure()
    if (rho <= 0.0).any() or (p <= 0.0).any():
        raise PositivityViolation("entropy variables need positive rho and p")
    gamma = state.gamma
    g = (p / rho**gamma) ** (1.0 / (gamma + 1.0))
    eta = rho * g
    p_star = (gamma - 1.0) / (gamma + 1.0) * g
    scale = p_star / p
    w = np.empty(state.u.shape)
    np.multiply(scale, state.energy, out=w[:, 0])
    np.multiply(-scale, state.mom, out=w[:, 1])
    np.multiply(scale, rho, out=w[:, 2])
    v = state.velocity()
    return EntropyVariables1D(w, eta, p_star, eta * v, v, p)


def _entropy_rate(f, w, dw, periodic):
    """Summation-by-parts entropy rate from the face jumps ``dw`` of ``w``."""
    if periodic:
        # distinct faces are 1..N: face k sits between cells k-1 and k (mod N)
        return float((f[1:] * dw).sum())
    interior = float((f[1:-1] * dw).sum())
    return interior + float(f[0] @ w[0] - f[-1] @ w[-1])


def entropy_rate_euler1d(fluxes, state: EulerState1D):
    """Summation-by-parts entropy rate of a flux update, boundary terms
    included for bounded grids."""
    f = np.asarray(fluxes, dtype=np.float64)
    w = entropy_variables_euler1d(state).w
    periodic = state.grid.periodic
    return _entropy_rate(f, w, _face_jumps(w, periodic), periodic)


def correct_entropy_euler1d(fluxes, state: EulerState1D,
                            target: EntropyRateTarget, ev=None):
    """Transform interface fluxes so the discrete entropy rate matches
    boundary + R*(old - boundary).

    Boundary fluxes are held fixed (Dirichlet) or mirrored (periodic);
    G_{j+1/2} = (0, v_{j+1}-v_j, p_{j+1}-p_j), from the velocity and pressure
    the entropy variables ``ev`` were computed from (computed from the state
    when not given).  The entropy-variable jumps are taken once and serve
    the old rate, the denominator and the achieved rate.
    """
    f = np.asarray(fluxes, dtype=np.float64)
    n = state.grid.n_cells
    if f.shape != (n + 1, 3):
        raise ValueError("expected fluxes at the N+1 interfaces")
    periodic = state.grid.periodic
    if ev is None:
        ev = entropy_variables_euler1d(state)
    w = ev.w
    dw = _face_jumps(w, periodic)
    old = _entropy_rate(f, w, dw, periodic)
    new = target.resolve(old)
    if new == old:
        return f, Correction(old, new, old)
    if new < old:
        warnings.warn("entropy target below the current rate adds "
                      "anti-diffusion; positivity is no longer guaranteed",
                      AntiDiffusiveTargetWarning, stacklevel=2)

    g = np.zeros_like(dw)
    g[:, 1] = _face_jumps(ev.v, periodic)
    g[:, 2] = _face_jumps(ev.p, periodic)
    out, report = _line_search(
        f, slice(1, None) if periodic else slice(1, -1), g, old, new,
        float((g * dw).sum()), float(np.linalg.norm(g) * np.linalg.norm(dw)),
        "correct_entropy_euler1d",
        lambda out: _entropy_rate(out, w, dw, periodic))
    if periodic:
        out[0] = out[-1]  # face 0 is face N; the rate reads 1..N
    return out, report


def entropy_flux_pair(pair, gamma):
    """psi = rho*v*g(s) of a (left, right) pair of conserved triples, in the
    operation order of ``entropy_variables_euler1d``."""
    rho, mom, energy = np.array(pair, dtype=np.float64).T
    p = (gamma - 1.0) * (energy - 0.5 * mom**2 / rho)
    if (rho <= 0.0).any() or (p <= 0.0).any():
        raise PositivityViolation("entropy flux needs positive rho and p")
    g = (p / rho**gamma) ** (1.0 / (gamma + 1.0))
    return (rho * g) * (mom / rho)


def estimate_boundary_entropy_flux(state: EulerState1D, boundary_state=None,
                                   ev=None, boundary_psi=None):
    """Conservative psi(0) - psi(L) estimate for open domains.

    Each end takes the minimum of the boundary-state value and the
    outermost-cell value of psi = rho*v*g(s).  The boundary states are the
    (left, right) pair of conserved triples the fluxes use, ``boundary_state``,
    which defaults to the outermost cells.  A caller that holds the state's
    entropy variables ``ev`` or the pair's psi (``entropy_flux_pair``)
    passes them in.  Periodic grids return 0.
    """
    if state.grid.periodic:
        return 0.0
    if ev is None:
        ev = entropy_variables_euler1d(state)
    if boundary_psi is None:
        if boundary_state is None:
            boundary_state = (state.u[0], state.u[-1])
        boundary_psi = entropy_flux_pair(boundary_state, state.gamma)
    return float(min(boundary_psi[0], ev.psi[0])
                 - min(boundary_psi[1], ev.psi[-1]))


def limit_positivity_euler1d(fluxes, state: EulerState1D, dt, eps_pos=None,
                             boundary_state=None, rows=None):
    """Blend each interface flux toward the MUSCL kernel's first-order local
    Lax-Friedrichs fallback until a forward-Euler step keeps rho and p at or
    above ``eps_pos``.

    Positivity of the full update is enforced through the two half-cell
    states each interface controls, so the per-interface theta decouple;
    bisection finds the largest feasible theta.  theta = 0 is feasible
    whenever dt/dx * max(|v| + c) <= 1/2 over the cells the face reads, as
    its half-states are then convex combinations of admissible states (Zhang
    & Shu 2010); SSPRK3 takes dt from the step start, so a later stage can
    exceed that bound.  Raises ``CflViolation`` when even theta = 0 fails.
    A caller that holds the state's ``schemes.ghost_rows`` passes them in
    as ``rows``, which then stand for ``boundary_state``.
    """
    f = np.asarray(fluxes, dtype=np.float64)
    n = state.grid.n_cells
    if f.shape != (n + 1, 3):
        raise ValueError("expected fluxes at the N+1 interfaces")
    if eps_pos is None:
        eps_pos = 1e-12 * max(float(state.rho.max()), float(state.pressure().max()))

    gamma = state.gamma
    # component rows of the N+2 cells the faces read and their fluxes, and
    # both as C-contiguous pairs of the cells left ([:, 0]) and right ([:, 1])
    if rows is None:
        rows = ghost_rows(state, boundary_state)
    q = rows[:, 1:-1]
    fq = _physical_flux(q[1], q[2], q[1] / q[0], gamma, np.empty(q.shape))
    cells, f_cells = np.empty((2, 3, 2, n + 1))
    cells[:, 0], cells[:, 1] = q[:, :-1], q[:, 1:]
    f_cells[:, 0], f_cells[:, 1] = fq[:, :-1], fq[:, 1:]
    # equal cells, so lam = dt/dx on both sides of every face; u_L - 2 lam
    # (F - f(u_L)) is u_L + (-2 lam)(F - f(u_L)) bit for bit
    lam = 2.0 * (dt / state.grid.dx)
    lam2 = np.array([[-lam], [lam]])
    # on a bounded grid the ghosts left of face 0 and right of face N lie
    # outside the domain and go unchecked
    skip = np.zeros((2, n + 1), dtype=bool)
    if not state.grid.periodic:
        skip[0, 0] = skip[1, -1] = True

    def feasible(ft):
        # rho, p >= eps_pos in the right-moving half of the left cell,
        # u_L - 2 lam_L (F - f(u_L)), and the left half of the right cell,
        # u_R + 2 lam_R (F - f(u_R))
        rho, m, e = cells + lam2 * (ft.T[:, None] - f_cells)
        p = (gamma - 1.0) * (e - 0.5 * m ** 2 / np.where(rho > 0, rho, 1.0))
        ok = (rho >= eps_pos) & (p >= eps_pos)
        ok |= skip
        return ok.all(axis=0)

    # theta = 1 is f itself: the blend f + 0*f_lf differs from f only in the
    # sign of a zero while f_lf is finite, which no positivity test sees, so
    # the Lax-Friedrichs flux is built only when some face fails
    ok_full = feasible(f)
    if ok_full.all():
        return f
    f_lf = local_lax_friedrichs_fluxes(q, gamma).T

    def blend(theta):
        return theta[:, None] * f + (1.0 - theta[:, None]) * f_lf

    if not feasible(blend(np.zeros(n + 1))).all():
        raise CflViolation("first-order Lax-Friedrichs violates positivity; "
                           "reduce dt")

    # faces feasible at theta = 1 start and stay at lo = hi = 1
    lo = ok_full.astype(np.float64)
    hi = np.ones(n + 1)
    for _ in range(40):  # 2^-40 < 1e-10 interval width
        mid = 0.5 * (lo + hi)
        ok = feasible(blend(mid))
        lo = np.where(ok, mid, lo)
        hi = np.where(ok, hi, mid)
    out = blend(lo)
    out[ok_full] = f[ok_full]
    return out
