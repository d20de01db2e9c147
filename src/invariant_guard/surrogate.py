"""Seeded perturbed-flux surrogates standing in for learned solvers.

The perturbation is multiplicative on interface fluxes and smooth in j
(band-limited), so mass conservation survives and only the nonlinear
invariants are stressed.  Amplitude 0 reduces to the base scheme exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import FvField1D
from .schemes import FluxScheme, numerical_flux_1d


@dataclass
class SurrogateFluxRule:
    """f_{j+1/2} -> f_{j+1/2} * (1 + amplitude * g(x_{j+1/2})).

    ``g`` is a seeded sum of the first four Fourier modes, normalized to
    unit max amplitude.  Use as the ``scheme`` callable of a scalar driver.
    """

    base: FluxScheme
    equation: str
    amplitude: float
    seed: int
    c: float = 1.0
    _cache: dict = field(default_factory=dict, repr=False)

    def perturbation(self, grid):
        key = (grid.n_cells, grid.length)
        if key not in self._cache:
            rng = np.random.default_rng(self.seed)
            k = np.arange(1, 5)
            amps = rng.uniform(-1.0, 1.0, size=k.size)
            phases = rng.uniform(0.0, 2.0 * np.pi, size=k.size)
            x_face = grid.cell_edges()[1:]  # x_{j+1/2}, j = 0..N-1
            g = np.sin(2.0 * np.pi * np.outer(x_face, k) / grid.length
                       + phases) @ amps
            self._cache[key] = g / np.abs(g).max()
        return self._cache[key]

    def __call__(self, u: FvField1D, dt):
        f = numerical_flux_1d(self.base, u, self.equation, c=self.c,
                              lf_ratio=u.grid.dx / (2.0 * dt))
        if self.amplitude == 0.0:
            return f
        return f * (1.0 + self.amplitude * self.perturbation(u.grid))
