import numpy as np
import pytest

from gaborgrid.errors import InvalidLattice
from gaborgrid.grid import GridLattice, PeriodicGrid
from gaborgrid.lattice import Lattice, PowerWeight, dual_lattice

from conftest import covolume


def cofactor_det_2x2(a):
    return a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]


def test_dual_scalar():
    lat = Lattice(np.array([[2.0]]))
    assert dual_lattice(lat).generator[0, 0] == pytest.approx(0.5)


def test_dual_identity_self_dual():
    lat = Lattice(np.eye(2))
    np.testing.assert_allclose(dual_lattice(lat).generator, np.eye(2))


def test_dual_shear_matches_integrality_brute_force():
    lat = Lattice(np.array([[1.0, 1.0], [0.0, 1.0]]))
    dual = dual_lattice(lat)
    np.testing.assert_allclose(dual.generator, np.array([[1.0, 0.0], [-1.0, 1.0]]), atol=1e-14)
    # Every pairing A k . B j with k, j in {-3..3}^2 is an integer.
    k = np.array([(a, b) for a in range(-3, 4) for b in range(-3, 4)], dtype=float)
    for lam in k @ lat.generator.T:
        for mu in k @ dual.generator.T:
            dot = float(lam @ mu)
            assert abs(dot - round(dot)) < 1e-12


def test_volume_examples():
    # A lattice containing P Z^n leaves P^n / volume points on the torus.
    for generator, grid, volume in (
        (np.array([[2.0]]), PeriodicGrid(1, 8.0, 32), 2.0),
        (np.eye(2), PeriodicGrid(2, 4.0, 16), 1.0),
        (np.array([[1.0, 1.0], [0.0, 1.0]]), PeriodicGrid(2, 4.0, 16), 1.0),
        (np.array([[1.0, 0.5], [0.0, 2.0]]), PeriodicGrid(2, 4.0, 16), 2.0),
    ):
        lat = Lattice(generator)
        assert covolume(lat) == pytest.approx(volume)
        if lat.dim == 2:
            assert volume == abs(cofactor_det_2x2(generator))
        assert GridLattice(lat, grid).count * volume == grid.period ** grid.dim


def test_singular_generator_rejected():
    with pytest.raises(InvalidLattice):
        Lattice(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(InvalidLattice):
        Lattice(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))


def test_volume_product_with_dual_is_one():
    rng = np.random.default_rng(7)
    for _ in range(20):
        gen = rng.standard_normal((2, 2))
        if abs(np.linalg.det(gen)) < 1e-3:
            continue
        lat = Lattice(gen)
        assert covolume(lat) * covolume(dual_lattice(lat)) == pytest.approx(1.0, abs=1e-12)


def test_bidual_unimodular_equivalence():
    rng = np.random.default_rng(11)
    for _ in range(10):
        gen = rng.standard_normal((2, 2)) + 2 * np.eye(2)
        lat = Lattice(gen)
        bidual = dual_lattice(dual_lattice(lat))
        change = np.linalg.solve(lat.generator, bidual.generator)
        np.testing.assert_allclose(change, np.rint(change), atol=1e-10)
        assert abs(abs(np.linalg.det(np.rint(change))) - 1.0) < 1e-10


def test_weight_values():
    assert PowerWeight(0.0)(np.array([3.0, -17.0])) == pytest.approx(1.0)
    assert PowerWeight(2.0)(np.array([3.0, 4.0])) == pytest.approx(36.0)
    assert PowerWeight(-1.0)(np.array([1.0, 0.0, 0.0])) == pytest.approx(0.5)


def test_weight_batch_eval():
    w = PowerWeight(1.5)
    pts = np.array([[0.0, 0.0], [3.0, 4.0]])
    np.testing.assert_allclose(w(pts), [1.0, 6.0 ** 1.5])


@pytest.mark.parametrize("tau", [0.0, 0.5, 2.0])
def test_weight_submultiplicative_nonnegative_exponent(tau):
    rng = np.random.default_rng(3)
    w = PowerWeight(tau)
    x = rng.standard_normal((1000, 3)) * 5
    y = rng.standard_normal((1000, 3)) * 5
    assert np.all(w(x + y) <= w(x) * w(y) * (1 + 1e-12))


@pytest.mark.parametrize("tau", [-0.5, -2.0])
def test_weight_negative_exponent_bound(tau):
    rng = np.random.default_rng(4)
    w = PowerWeight(tau)
    x = rng.standard_normal((1000, 2)) * 5
    y = rng.standard_normal((1000, 2)) * 5
    bound = (1 + np.linalg.norm(y, axis=-1)) ** (-tau) * w(x)
    assert np.all(w(x + y) <= bound * (1 + 1e-12))
