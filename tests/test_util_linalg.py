"""Tests for the BLAS2 projector reference against the Eq. 5 operator
(``NonlocalProjectors.apply``) and for orthonormalization."""

import numpy as np
import pytest
import scipy.linalg

from repro.util.linalg import cholesky_orthonormalize, lowdin_orthonormalize
from tests.builders import ArrayProjectors
from tests.oracles.reference import apply_projectors_blas2, projectors_dense


def _random_complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.fixture()
def projector_problem(rng):
    npw, nproj, nband = 40, 5, 7
    b = _random_complex(rng, npw, nproj)
    d = rng.normal(size=nproj)  # real diagonal couplings D_I
    psi = _random_complex(rng, npw, nband)
    return b, d, psi


def test_blas2_blas3_agree(projector_problem):
    """The paper's algebraic transformation must be *exact*: the band-by-
    band Eq. 4 and the operator every H·ψ runs."""
    b, d, psi = projector_problem
    out2 = apply_projectors_blas2(b, np.diag(d), psi)
    out3 = ArrayProjectors(b, d).apply(psi)
    np.testing.assert_allclose(out2, out3, atol=1e-12)


def test_blas3_linear_in_psi(projector_problem):
    b, d, psi = projector_problem
    vnl = ArrayProjectors(b, d)
    out = vnl.apply(2.0 * psi)
    np.testing.assert_allclose(out, 2.0 * vnl.apply(psi))


def test_blas3_hermitian_operator(projector_problem):
    """B D B^H with real diagonal D is a Hermitian operator."""
    b, d, psi = projector_problem
    op = projectors_dense(ArrayProjectors(b, d))
    np.testing.assert_allclose(op, op.conj().T, atol=1e-12)


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
