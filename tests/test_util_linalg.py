"""Tests for the BLAS2/BLAS3 projector paths and orthonormalization."""

import numpy as np
import pytest
import scipy.linalg

from repro.util.linalg import (
    apply_projectors_blas2,
    apply_projectors_blas3,
    blocked_gram,
    cholesky_orthonormalize,
    lowdin_orthonormalize,
)


def _random_complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.fixture()
def projector_problem(rng):
    npw, nproj, nband = 40, 5, 7
    b = _random_complex(rng, npw, nproj)
    d = rng.normal(size=(nproj, nproj))
    d = d + d.T  # Hermitian coefficients
    psi = _random_complex(rng, npw, nband)
    return b, d, psi


def test_blas2_blas3_agree(projector_problem):
    """The paper's algebraic transformation must be *exact*."""
    b, d, psi = projector_problem
    out2 = apply_projectors_blas2(b, d, psi)
    out3 = apply_projectors_blas3(b, d, psi)
    np.testing.assert_allclose(out2, out3, atol=1e-12)


def test_blas3_linear_in_psi(projector_problem):
    b, d, psi = projector_problem
    out = apply_projectors_blas3(b, d, 2.0 * psi)
    np.testing.assert_allclose(out, 2.0 * apply_projectors_blas3(b, d, psi))


def test_blas3_hermitian_operator(projector_problem):
    """B D B^H with Hermitian D is a Hermitian operator."""
    b, d, psi = projector_problem
    op = b @ d @ b.conj().T
    np.testing.assert_allclose(op, op.conj().T, atol=1e-12)


def test_blocked_gram_matches_direct(rng):
    psi = _random_complex(rng, 101, 6)
    s_direct = psi.conj().T @ psi
    for block in (1, 7, 64, 200):
        np.testing.assert_allclose(blocked_gram(psi, block), s_direct, atol=1e-10)


def test_blocked_gram_with_weights(rng):
    psi = _random_complex(rng, 50, 4)
    w = rng.random(50)
    expected = psi.conj().T @ (w[:, None] * psi)
    np.testing.assert_allclose(blocked_gram(psi, 16, weights=w), expected, atol=1e-10)


def test_cholesky_orthonormalize(rng):
    psi = _random_complex(rng, 60, 8)
    q = cholesky_orthonormalize(psi)
    np.testing.assert_allclose(q.conj().T @ q, np.eye(8), atol=1e-13)
    # the NumPy form (inverse of the small factor, one GEMM) against the
    # triangular solve it replaced — SciPy is the oracle, not a dependency
    l = np.linalg.cholesky(psi.conj().T @ psi)
    assert np.linalg.cond(l) < 10
    ref = scipy.linalg.solve_triangular(l, psi.conj().T, lower=True).conj().T
    np.testing.assert_allclose(q, ref, rtol=0, atol=1e-12 * np.abs(ref).max())


def test_cholesky_preserves_span(rng):
    psi = _random_complex(rng, 30, 4)
    q = cholesky_orthonormalize(psi)
    # projection of original columns onto span(q) reproduces them
    proj = q @ (q.conj().T @ psi)
    np.testing.assert_allclose(proj, psi, atol=1e-9)


def test_lowdin_orthonormalize(rng):
    psi = _random_complex(rng, 60, 8)
    q = lowdin_orthonormalize(psi)
    np.testing.assert_allclose(q.conj().T @ q, np.eye(8), atol=1e-9)


def test_cholesky_falls_back_on_degenerate_input(rng):
    psi = _random_complex(rng, 40, 3)
    psi[:, 2] = psi[:, 0] + 1e-14 * psi[:, 1]  # numerically dependent columns
    q = cholesky_orthonormalize(psi)
    assert np.all(np.isfinite(q))
    # the Cholesky factorization refuses this block: it is the Löwdin result
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(psi.conj().T @ psi)
    assert np.array_equal(q, lowdin_orthonormalize(psi))


def test_orthonormalize_already_orthonormal_is_identity(rng):
    psi = _random_complex(rng, 50, 5)
    q, _ = np.linalg.qr(psi)
    q2 = cholesky_orthonormalize(q)
    np.testing.assert_allclose(q2, q, atol=1e-10)
