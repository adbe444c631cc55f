"""Eigen utilities for real symmetric and complex Hermitian PSD matrices."""

import numpy as np


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
    if np.linalg.norm(x - x.conj().T) > 1e-8 * np.linalg.norm(x):
        raise ValueError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh((x + x.conj().T) / 2.0)
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

