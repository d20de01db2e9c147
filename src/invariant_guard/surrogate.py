"""Seeded perturbed-flux surrogates standing in for learned solvers.

The perturbation is multiplicative on interface fluxes and smooth in j
(band-limited), so mass conservation survives and only the nonlinear
invariants are stressed.  Amplitude 0 reduces to the base scheme exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# numerical_flux_1d is no longer called here; bench/spans.py still wraps
# this module's name for it
from .schemes import FluxScheme, flux_rule_1d, numerical_flux_1d  # noqa: F401


@dataclass
class SurrogateFluxRule:
    """f_{j+1/2} -> f_{j+1/2} * (1 + amplitude * g(x_{j+1/2})).

    ``g`` is a seeded sum of the first four Fourier modes, normalized to
    unit max amplitude.  Use as the ``scheme`` of a scalar driver, which
    binds ``rule(grid)`` once; binding checks the base scheme on the grid.
    """

    base: FluxScheme
    equation: str
    amplitude: float
    seed: int
    c: float = 1.0

    def perturbation(self, grid):
        """g at the faces x_{j+1/2}, j = 0..N-1, of ``grid``."""
        rng = np.random.default_rng(self.seed)
        k = np.arange(1, 5)
        amps = rng.uniform(-1.0, 1.0, size=k.size)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=k.size)
        x_face = grid.cell_edges()[1:]
        g = np.sin(2.0 * np.pi * np.outer(x_face, k) / grid.length
                   + phases) @ amps
        return g / np.abs(g).max()

    def rule(self, grid):
        """The perturbed flux ``rule(vals, lf_ratio)`` on ``grid``, as
        ``schemes.flux_rule_1d`` binds one."""
        base = flux_rule_1d(self.base, grid, self.equation, self.c)
        scale = 1.0 + self.amplitude * self.perturbation(grid)
        return lambda vals, lf_ratio: base(vals, lf_ratio) * scale
