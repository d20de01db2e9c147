"""Invariant functionals and trajectory error metrics."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .core import (DgField, EulerState1D, FvField1D, FvField2D, SpectralField,
                   VorticityState2D, bracket)
from .correctors import entropy_variables_euler1d
from .dg import dg_l2, dg_mass


@dataclass
class InvariantReport:
    """Snapshot of the tracked functionals; fields absent for an equation
    kind stay None and serialize as empty CSV cells."""

    t: float
    mass: float = None
    l2: float = None
    tv: float = None
    energy: float = None
    enstrophy: float = None
    entropy_total: float = None
    min_rho: float = None
    min_p: float = None

    CSV_HEADER = "t,mass,l2,tv,energy,enstrophy,entropy_total,min_rho,min_p"

    def csv_row(self):
        cells = []
        for f in fields(self):
            v = getattr(self, f.name)
            cells.append("" if v is None else format(v, ".17g"))
        return ",".join(cells)


def total_variation(values, periodic=True):
    d = np.diff(values)
    tv = float(np.abs(d).sum())
    if periodic:
        tv += abs(float(values[0] - values[-1]))
    return tv


def invariant_report(state, t) -> InvariantReport:
    """Compute the functionals appropriate to the state kind."""
    if isinstance(state, FvField1D):
        dx = state.grid.dx
        return InvariantReport(
            t=t,
            mass=float(np.sum(state.values * dx)),
            l2=0.5 * bracket(state.values, state.values, dx),
            tv=total_variation(state.values, state.grid.periodic),
        )
    if isinstance(state, DgField):
        return InvariantReport(
            t=t,
            mass=dg_mass(state),
            l2=dg_l2(state),
            tv=total_variation(state.cell_means(), state.grid.periodic),
        )
    if isinstance(state, SpectralField):
        c = state.coeffs
        power = float(c[0].real ** 2 + 2.0 * np.sum(np.abs(c[1:]) ** 2))
        return InvariantReport(
            t=t,
            mass=state.length * float(c[0].real),
            l2=0.5 * state.length * power,
        )
    if isinstance(state, VorticityState2D):
        vol = state.chi.grid.cell_volume
        chi = state.chi.values
        return InvariantReport(
            t=t,
            mass=float(np.sum(chi) * vol),
            enstrophy=0.5 * bracket(chi, chi, vol),
            energy=0.5 * bracket(chi, state.psi_bar, vol),
        )
    if isinstance(state, EulerState1D):
        # entropy is defined only for positive rho and p; otherwise its cell
        # stays empty and the minima show why
        dx = state.grid.dx
        min_rho = float(state.rho.min())
        min_p = float(state.pressure().min())
        entropy = None
        if min_rho > 0.0 and min_p > 0.0:
            entropy = float(np.sum(entropy_variables_euler1d(state).eta * dx))
        return InvariantReport(
            t=t,
            mass=float(np.sum(state.rho * dx)),
            tv=total_variation(state.rho, state.grid.periodic),
            entropy_total=entropy,
            min_rho=min_rho,
            min_p=min_p,
        )
    raise TypeError(f"no invariant report for {type(state).__name__}")


# ---------------------------------------------------------------------------
# error metrics
# ---------------------------------------------------------------------------

def normalized_mse(candidate, reference):
    """MSE normalized by the mean square of the reference snapshot."""
    c = np.asarray(candidate, dtype=np.float64).ravel()
    r = np.asarray(reference, dtype=np.float64).ravel()
    ref_power = float(np.mean(r**2))
    return float(np.mean((c - r) ** 2)) / max(ref_power, 1e-300)


def mae(candidate, reference):
    c = np.asarray(candidate, dtype=np.float64).ravel()
    r = np.asarray(reference, dtype=np.float64).ravel()
    return float(np.mean(np.abs(c - r)))


def vorticity_correlation(candidate, reference):
    """Pearson correlation of the two cell-value vectors."""
    c = np.asarray(candidate, dtype=np.float64).ravel()
    r = np.asarray(reference, dtype=np.float64).ravel()
    cc = c - c.mean()
    rr = r - r.mean()
    denom = np.sqrt(np.sum(cc**2) * np.sum(rr**2))
    if denom == 0.0:
        return 1.0 if np.allclose(c, r) else 0.0
    return float(np.sum(cc * rr) / denom)

