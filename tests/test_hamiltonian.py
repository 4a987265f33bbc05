"""Tests for the KS Hamiltonian: apply vs dense, hermiticity, preconditioner."""

import numpy as np
import pytest

from repro.dft.basis import PlaneWaveBasis
from repro.dft.grid import RealSpaceGrid
from repro.dft.hamiltonian import Hamiltonian
from repro.dft.pseudopotential import NonlocalProjectors, local_potential
from repro.systems import dimer
from tests.oracles.reference import hamiltonian_dense


@pytest.fixture()
def ham():
    grid = RealSpaceGrid([10.0, 10.0, 10.0], [16, 16, 16])
    cfg = dimer("Al", "Si", 4.0, 10.0)
    basis = PlaneWaveBasis(grid, ecut=4.0)
    v = local_potential(grid, cfg)
    nl = NonlocalProjectors(basis, cfg)
    return Hamiltonian(basis, v, nl)


def test_apply_matches_dense(ham):
    psi = ham.basis.random_orbitals(4, seed=0)
    h = hamiltonian_dense(ham)
    np.testing.assert_allclose(ham.apply(psi), h @ psi, atol=1e-10)


def test_apply_delegation_matches_dense_for_vectors_and_blocks(ham):
    """``Hamiltonian.apply`` is the stack-of-one case of the stacked
    ``H·ψ``: 1-D and 2-D input and the preconditioner come back in the single
    operator's own shapes."""
    psi = ham.basis.random_orbitals(5, seed=4)  # two row blocks, one ragged
    h = hamiltonian_dense(ham)
    scale = np.abs(h @ psi).max()
    block = ham.apply(psi)
    assert block.shape == psi.shape
    assert np.abs(block - h @ psi).max() <= 1e-12 * scale
    assert np.array_equal(ham.stack.apply(psi[None])[0], block)
    vec = ham.apply(psi[:, 2])
    assert vec.shape == (ham.basis.npw,)
    assert np.abs(vec - h @ psi[:, 2]).max() <= 1e-12 * scale
    theta = (np.real(np.einsum("gn,gn->n", psi.conj(), block))
             / np.real(np.einsum("gn,gn->n", psi.conj(), psi)))
    resid = block - psi * theta[None, :]
    pre = ham.precondition(resid, psi)
    assert pre.shape == psi.shape
    assert np.array_equal(ham.precondition(resid[:, 2], psi[:, 2]), pre[:, 2])


def test_dense_hermitian(ham):
    h = hamiltonian_dense(ham)
    np.testing.assert_allclose(h, h.conj().T, atol=1e-10)


def test_apply_single_vector(ham):
    psi = ham.basis.random_orbitals(1, seed=1)
    out_block = ham.apply(psi)
    out_vec = ham.apply(psi[:, 0])
    np.testing.assert_allclose(out_vec, out_block[:, 0], atol=1e-12)


def test_apply_linear(ham):
    psi = ham.basis.random_orbitals(2, seed=2)
    a, b = 1.7, -0.3 + 0.9j
    combo = a * psi[:, 0] + b * psi[:, 1]
    np.testing.assert_allclose(
        ham.apply(combo),
        a * ham.apply(psi[:, 0]) + b * ham.apply(psi[:, 1]),
        atol=1e-10,
    )


def test_free_electron_limit():
    """With zero potential the plane waves are exact eigenstates with ε = G²/2."""
    grid = RealSpaceGrid([8.0, 8.0, 8.0], [12, 12, 12])
    basis = PlaneWaveBasis(grid, ecut=4.0)
    ham = Hamiltonian(basis, np.zeros(grid.shape))
    c = np.zeros(basis.npw, dtype=complex)
    c[5] = 1.0
    out = ham.apply(c)
    np.testing.assert_allclose(out, 0.5 * basis.g2[5] * c, atol=1e-12)


def test_constant_potential_shifts_spectrum():
    grid = RealSpaceGrid([8.0, 8.0, 8.0], [12, 12, 12])
    basis = PlaneWaveBasis(grid, ecut=4.0)
    h0 = hamiltonian_dense(Hamiltonian(basis, np.zeros(grid.shape)))
    h1 = hamiltonian_dense(Hamiltonian(basis, np.full(grid.shape, 0.7)))
    e0 = np.linalg.eigvalsh(h0)
    e1 = np.linalg.eigvalsh(h1)
    np.testing.assert_allclose(e1, e0 + 0.7, atol=1e-10)


def test_shape_validation():
    grid = RealSpaceGrid([8.0, 8.0, 8.0], [12, 12, 12])
    basis = PlaneWaveBasis(grid, ecut=4.0)
    with pytest.raises(ValueError):
        Hamiltonian(basis, np.zeros((4, 4, 4)))


def test_preconditioner_damps_high_g(ham):
    """TPA should pass low-G components and damp high-G ones."""
    basis = ham.basis
    psi = np.zeros((basis.npw, 1), dtype=complex)
    psi[np.argmin(basis.g2), 0] = 1.0  # a low-kinetic state
    resid = np.ones((basis.npw, 1), dtype=complex)
    out = ham.precondition(resid, psi)
    hi = np.argmax(basis.g2)
    lo = np.argmin(basis.g2)
    assert np.abs(out[hi, 0]) < np.abs(out[lo, 0])
    assert np.abs(out[lo, 0]) == pytest.approx(1.0, rel=1e-6)


def test_preconditioner_preserves_shape(ham):
    psi = ham.basis.random_orbitals(3)
    r = ham.apply(psi)
    out = ham.precondition(r, psi)
    assert out.shape == r.shape
