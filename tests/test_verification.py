"""Every row over the linear corrector table can fail.

An identity corrector misses every random target, so it must fail the
case's exactness row at the rate check.  A corrector that scales its true
output by 1 + 1e-9 moves an update it should pass through, so it must fail
the case's no-op row, bitwise or not.
"""

import numpy as np
import pytest

from invariant_guard.schemes import BoundaryFluxes2D
from invariant_guard.verification import CASES, default_correctors

NOOP_CASES = [case for case in CASES if case.noop_name]


def _identity(update, state, *targets):
    return update, None


def _scaled(corrector):
    def scaled(update, state, *targets):
        out, report = corrector(update, state, *targets)
        if isinstance(out, BoundaryFluxes2D):
            return BoundaryFluxes2D(out.fx * (1 + 1e-9), out.fy * (1 + 1e-9)), report
        return out * (1 + 1e-9), report
    return scaled


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.exact_name)
def test_identity_corrector_fails_the_exactness_row(case):
    fns = dict(default_correctors(), **{case.key: _identity})
    with pytest.raises(AssertionError, match="!= target"):
        case.check_exactness(np.random.default_rng(0), fns, 4)


@pytest.mark.parametrize("case", NOOP_CASES, ids=lambda case: case.noop_name)
def test_scaled_corrector_fails_the_noop_row(case):
    fns = default_correctors()
    fns[case.key] = _scaled(fns[case.key])
    with pytest.raises(AssertionError, match="no-op moved"):
        case.check_noop(np.random.default_rng(0), fns, 4)

