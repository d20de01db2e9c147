import numpy as np
import pytest

from invariant_guard.core import (DgField, EulerState1D, FvField1D,
                                  SpectralField, UniformGrid1D, UniformGrid2D,
                                  bracket, coarse_grain, coarse_grain_2d,
                                  shift, volume_mean, FvField2D)
from invariant_guard.errors import NonFiniteState


@pytest.mark.parametrize("n", [1, 2, 3, 32])
@pytest.mark.parametrize("k", [-1, 1])
def test_shift_is_roll_bitwise(n, k):
    rng = np.random.default_rng(n)
    cases = [(rng.normal(size=n), 0)]
    cases += [(rng.normal(size=(n, n + 1)), axis) for axis in (0, 1)]
    cases += [(rng.normal(size=(n + 1, n)), axis) for axis in (0, 1)]
    for a, axis in cases:
        a.flat[0] = -0.0
        out = shift(a, k, axis)
        ref = np.roll(a, -k, axis)
        assert out.shape == ref.shape and out.tobytes() == ref.tobytes()


def test_shift_reads_the_stencil_neighbour():
    u = np.arange(5.0)
    assert list(shift(u, 1)) == [1, 2, 3, 4, 0]     # u_{j+1}
    assert list(shift(u, -1)) == [4, 0, 1, 2, 3]    # u_{j-1}
    a = np.arange(6.0).reshape(2, 3)
    assert shift(a, 1, 1).tolist() == [[1, 2, 0], [4, 5, 3]]


def test_bracket_hand_cases():
    assert bracket([1, 1], [1, 1], [0.5, 0.5]) == 1.0
    assert bracket([1, -1], [1, 1], [0.5, 0.5]) == 0.0
    # 2*4*0.1 + 3*5*0.2 = 0.8 + 3.0
    assert bracket([2, 3], [4, 5], [0.1, 0.2]) == pytest.approx(3.8, rel=1e-14)


def test_bracket_shape_mismatch():
    with pytest.raises(ValueError):
        bracket([1, 2], [1, 2, 3], [1, 1])


def test_bracket_bilinear_symmetric_positive():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = rng.integers(2, 40)
        a, b, c = rng.normal(size=(3, n))
        vol = rng.uniform(0.1, 2.0, size=n)
        al, be = rng.normal(size=2)
        lhs = bracket(al * a + be * b, c, vol)
        rhs = al * bracket(a, c, vol) + be * bracket(b, c, vol)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
        assert bracket(a, b, vol) == pytest.approx(bracket(b, a, vol), rel=1e-14)
        assert bracket(a, a, vol) >= 0.0
    assert bracket(np.zeros(5), np.zeros(5), np.ones(5)) == 0.0


def test_volume_mean_is_bracket_ratio():
    rng = np.random.default_rng(3)
    a = rng.normal(size=16)
    vol = rng.uniform(0.5, 1.5, size=16)
    ones = np.ones(16)
    assert volume_mean(a, vol) == pytest.approx(
        bracket(a, ones, vol) / bracket(ones, ones, vol), rel=1e-15)


def test_volume_mean_total_is_kept_per_shape_and_volume():
    # <1|1> is summed once per (shape, scalar volume): two grids of one N
    # and different dx, or of one dx and different N, each get their own
    # total, and an array of volumes is summed on every call
    rng = np.random.default_rng(12)
    grids = [UniformGrid1D(32, 1.0), UniformGrid1D(32, 3.0),
             UniformGrid1D(64, 2.0)]
    for _ in range(2):     # the second pass reads the totals kept
        for g in grids:
            a = rng.normal(size=g.n_cells)
            ones = np.ones(g.n_cells)
            assert volume_mean(a, g.dx) == \
                bracket(a, ones, g.dx) / bracket(ones, ones, g.dx)
    a = rng.normal(size=16)
    for scale in (1.0, 2.5):
        vol = scale * rng.uniform(0.5, 1.5, size=16)
        assert volume_mean(a, vol) == float(np.sum(a * vol)) / float(np.sum(vol))


@pytest.mark.parametrize("shape", [(7,), (64,), (513,), (16, 16), (31, 3)])
@pytest.mark.parametrize("scale", [1.0, 0.37])
def test_bracket_and_volume_mean_keep_the_sum_forms_bits(shape, scale):
    # the reductions take no shortcut that moves a bit: bracket is
    # np.sum(a * b * vol) and volume_mean the ratio of the two brackets
    # with an array of ones
    rng = np.random.default_rng(sum(shape))
    a, b = rng.normal(size=shape), rng.normal(size=shape)
    ones = np.ones(shape)
    for vol in (scale / shape[0], scale * 1.3, rng.uniform(0.5, 1.5, shape)):
        assert bracket(a, b, vol) == float(np.sum(a * b * vol))
        assert volume_mean(a, vol) == float(np.sum(a * ones * vol)) \
            / float(np.sum(ones * ones * vol))


def test_coarse_grain_examples():
    g = UniformGrid1D(4, 4.0)
    out = coarse_grain(FvField1D(g, [1.0, 1.0, 1.0, 1.0]), 2)
    assert np.allclose(out.values, [1.0, 1.0])
    out = coarse_grain(FvField1D(g, [0.0, 2.0, 4.0, 6.0]), 2)
    assert np.allclose(out.values, [1.0, 5.0])


def test_coarse_grain_preserves_mass():
    rng = np.random.default_rng(5)
    g = UniformGrid1D(24, 3.0)
    f = FvField1D(g, rng.normal(size=24))
    mass = np.sum(f.values * g.dx)
    out = coarse_grain(f, 4)
    assert np.sum(out.values * out.grid.dx) == pytest.approx(
        mass, rel=1e-14, abs=1e-15)


def test_coarse_grain_composes():
    rng = np.random.default_rng(6)
    g = UniformGrid1D(48, 2.0)
    f = FvField1D(g, rng.normal(size=48))
    once = coarse_grain(coarse_grain(f, 2), 3)
    direct = coarse_grain(f, 6)
    assert np.allclose(once.values, direct.values, rtol=1e-14)


def test_coarse_grain_rejects_non_divisible():
    g = UniformGrid1D(6, 1.0)
    with pytest.raises(ValueError):
        coarse_grain(FvField1D(g, np.zeros(6)), 4)


def test_coarse_grain_2d_mass():
    rng = np.random.default_rng(7)
    g = UniformGrid2D(8, 8, 1.0, 2.0)
    f = FvField2D(g, rng.normal(size=(8, 8)))
    out = coarse_grain_2d(f, 2)
    assert np.sum(out.values) * out.grid.cell_volume == pytest.approx(
        np.sum(f.values) * g.cell_volume, rel=1e-13)


def test_grid_volume_invariant():
    g = UniformGrid1D(10, 2.5)
    assert g.dx == 0.25
    assert g.cell_edges()[-1] == pytest.approx(2.5, rel=1e-12)
    with pytest.raises(ValueError):
        UniformGrid1D(1, 1.0)


def test_fields_reject_non_finite():
    g = UniformGrid1D(4, 1.0)
    with pytest.raises(ValueError):
        FvField1D(g, [1.0, np.nan, 0.0, 0.0])
    with pytest.raises(ValueError):
        DgField(g, np.array([[np.inf]] * 4))


def test_spectral_field_structure():
    f = SpectralField(2.0, np.array([1.0 + 2.0j, 3.0 - 1.0j, 0.5j]))
    # mode-0 imaginary part is dropped on construction
    assert f.coeffs[0] == 1.0 + 0.0j
    assert f.n_modes == 2
    x = np.linspace(0.0, 2.0, 7)
    m = np.arange(1, f.n_modes + 1)
    phase = np.exp(2j * np.pi * np.outer(x, m) / f.length)
    vals = f.coeffs[0].real + 2.0 * (phase @ f.coeffs[1:]).real
    # conjugate symmetry is structural: the real reconstruction from modes
    # m = 0..N matches the explicit sum over m = -N..N
    m = np.arange(-2, 3)
    coeffs = np.concatenate([np.conj(f.coeffs[:0:-1]), f.coeffs])
    direct = np.real(np.exp(2j * np.pi * np.outer(x, m) / 2.0) @ coeffs)
    assert np.allclose(vals, direct, atol=1e-13)


def test_euler_state_roundtrip():
    g = UniformGrid1D(4, 1.0)
    s = EulerState1D.from_primitive(g, np.full(4, 2.0), np.full(4, 0.5),
                                    np.full(4, 3.0), 1.4)
    assert np.allclose(s.pressure(), 3.0)
    assert np.allclose(s.velocity(), 0.5)
    # one conserved row (rho, rho*v, E) per cell
    assert s.u.shape == (4, 3)
    assert np.array_equal(s.u, np.tile([2.0, 1.0, 3.0 / (1.4 - 1.0) + 0.25], (4, 1)))


def test_euler_state_wraps_its_array_without_a_copy():
    g = UniformGrid1D(4, 1.0)
    y = np.tile([1.0, 0.5, 3.0], 4)
    s = EulerState1D(g, y.reshape(4, 3), 1.4)
    assert np.shares_memory(s.u, y)
    for column, comp in enumerate((s.rho, s.mom, s.energy)):
        assert np.shares_memory(comp, y)
        assert np.array_equal(comp, y[column::3])


@pytest.mark.parametrize("u,gamma,error", [
    (np.ones((4, 2)), 1.4, ValueError),
    (np.array([[1.0, 0.0, np.inf]] * 4), 1.4, NonFiniteState),
    (np.tile([1.0, 0.0, 2.5], (4, 1)), 1.0, ValueError)],
    ids=["n_by_2", "non_finite", "gamma_1"])
def test_euler_state_rejects(u, gamma, error):
    with pytest.raises(error):
        EulerState1D(UniformGrid1D(4, 1.0), u, gamma)
