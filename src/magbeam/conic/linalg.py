"""Dense linear algebra for the conic solver: LAPACK entry points and PSD
eigen utilities for real symmetric and complex Hermitian matrices.

``cholesky``, ``eigvalsh``, ``eigh``, ``svd`` and ``solve`` call the LAPACK
gufuncs behind ``numpy.linalg`` directly, which pick their float64 or
complex128 loop from the input's dtype (faster than naming it in a
``signature``), and give the same arrays as their ``numpy.linalg`` namesakes.
They skip the wrappers' dtype coercion and shape checks, which cost more
than the LAPACK call itself on the kernel's 5 x 5 blocks: the input must be
a float64 or complex128 array of (stacked) square matrices.  As in NumPy, a
LAPACK failure raises :class:`numpy.linalg.LinAlgError` and no floating-point
warning is issued.  Each call sets an error state built once at import, the
one ``np.errstate`` would build per call, in NumPy's per-thread context
variable and resets it after; its ufunc buffer size, which changes no
result, is the one at import.
"""

import math

import numpy as np
from numpy._core.umath import _extobj_contextvar, _make_extobj
from numpy.linalg import LinAlgError, _umath_linalg


def _error_state(message):
    def raise_linalg_error(err, flag):
        raise LinAlgError(message)
    # the gufuncs flag a failed factorization as an invalid operation; as in
    # numpy.linalg, that raises, and underflow and the like stay silent
    return _make_extobj(call=raise_linalg_error, invalid="call",
                        over="ignore", divide="ignore", under="ignore")


_NOT_POSITIVE_DEFINITE = _error_state("Matrix is not positive definite")
_SINGULAR = _error_state("Singular matrix")
_EIGENVALUES_NOT_CONVERGED = _error_state("Eigenvalues did not converge")
_SVD_NOT_CONVERGED = _error_state("SVD did not converge")


def cholesky(a):
    """Lower Cholesky factor of a matrix or of each matrix of a stack."""
    token = _extobj_contextvar.set(_NOT_POSITIVE_DEFINITE)
    try:
        return _umath_linalg.cholesky_lo(a)
    finally:
        _extobj_contextvar.reset(token)


def eigvalsh(a):
    """Ascending eigenvalues of a Hermitian matrix or stack, from its lower triangle."""
    token = _extobj_contextvar.set(_EIGENVALUES_NOT_CONVERGED)
    try:
        return _umath_linalg.eigvalsh_lo(a)
    finally:
        _extobj_contextvar.reset(token)


def eigh(a):
    """``(eigenvalues, eigenvectors)`` of a Hermitian matrix or stack, eigenvalues
    ascending, from its lower triangle."""
    token = _extobj_contextvar.set(_EIGENVALUES_NOT_CONVERGED)
    try:
        return _umath_linalg.eigh_lo(a)
    finally:
        _extobj_contextvar.reset(token)


def svd(a):
    """Full ``(u, s, vh)`` of a square matrix or stack, s descending."""
    token = _extobj_contextvar.set(_SVD_NOT_CONVERGED)
    try:
        return _umath_linalg.svd_f(a)
    finally:
        _extobj_contextvar.reset(token)


def solve(a, b):
    """x with a x = b, for a square matrix a and a vector b (one LU solve)."""
    token = _extobj_contextvar.set(_SINGULAR)
    try:
        return _umath_linalg.solve1(a, b)
    finally:
        _extobj_contextvar.reset(token)


def frobenius_norm(a):
    """|a|_F summed as ``np.linalg.norm(a)`` sums it, so equal to it bit for bit:
    a real array's dot with itself, a complex one's real parts' dot plus its
    imaginary parts'."""
    a = a.ravel(order="K")
    if a.dtype.kind == "c":
        return math.sqrt(a.real.dot(a.real) + a.imag.dot(a.imag))
    if a.dtype.kind != "f":
        a = a.astype(float)
    return math.sqrt(a.dot(a))


def psd_eigendecomposition(x):
    """Eigendecomposition of a (near-)Hermitian PSD matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues sorted in
    descending order and eigenvectors in matching columns, so that
    ``x ~= v @ diag(w) @ v.conj().T``.  Rejects inputs whose Hermitian
    deviation exceeds 1e-8 relative to the matrix norm.
    """
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError("expected a square matrix")
    x_h = x.conj().T
    if frobenius_norm(x - x_h) > 1e-8 * frobenius_norm(x):
        raise ValueError("matrix is not Hermitian within tolerance")
    w, v = eigh((x + x_h) / 2.0)
    return w[::-1].copy(), v[:, ::-1].copy()


def numerical_rank(eigenvalues, rel_tol=1e-6):
    """Count of eigenvalues exceeding ``rel_tol`` times the largest one.

    Input must be sorted descending (as returned by
    :func:`psd_eigendecomposition`); the rank of an all-zero spectrum is 0.
    """
    w = np.asarray(eigenvalues, dtype=float)
    if w.size == 0:
        return 0
    largest = w[0]
    if largest <= 0.0:
        return 0
    return int(np.count_nonzero(w > rel_tol * largest))
