"""Dense complex linear algebra on 2^n x 2^n operators, n <= 10 (the
sweep's qubit limit, so dim <= 1024).

Matrix exponentials go through the Hermitian eigendecomposition; at these
dimensions that is both exact enough and simpler than scaling-and-squaring.
"""

from __future__ import annotations

import numpy as np

HERMITICITY_RTOL = 1e-12


def max_abs(a: np.ndarray) -> float:
    return float(np.max(np.abs(a))) if a.size else 0.0


def is_hermitian(a: np.ndarray) -> bool:
    scale = max(max_abs(a), 1e-300)
    return max_abs(a - a.conj().T) <= HERMITICITY_RTOL * scale


def is_skew_hermitian(a: np.ndarray) -> bool:
    """A = -A^dagger to HERMITICITY_RTOL; for an (S, dim, dim) stack, every matrix is."""
    a = np.asarray(a)
    if a.size == 0:
        return True
    scale = np.maximum(np.abs(a).max(axis=(-2, -1)), 1e-300)
    return bool(np.all(np.abs(a + _adjoint(a)).max(axis=(-2, -1)) <= HERMITICITY_RTOL * scale))


def _adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return np.swapaxes(a.conj(), -1, -2)


def _check_square(a: np.ndarray) -> np.ndarray:
    """a as complex; one square matrix or a stack of them."""
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise ValueError(f"expected square matrix, got shape {a.shape}")
    return a


def _check_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")


def matvec(m: np.ndarray, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """m @ v for one vector, or draw by draw for an (S, dim) stack of them;
    written into ``out`` when given.

    ``m`` is one matrix or an (S, dim, dim) stack.  One vector goes through
    ``np.dot``, which calls the same matrix-vector BLAS routine (gemv) as
    ``@`` with less call overhead; its ``out`` must be a C-contiguous complex
    vector.  For a stack, the trailing unit axis makes numpy's stacked matmul
    call that routine slice by slice, so every slice keeps the single
    product's bits; ``out`` gets the same axis and may be any (S, dim) view.
    """
    if v.ndim == 1:
        return np.dot(m, v, out=out)
    return np.matmul(m, v[..., None], out=None if out is None else out[..., None])[..., 0]


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """AB - BA."""
    a = _check_square(a)
    b = _check_square(b)
    _check_same_dim(a, b)
    return a @ b - b @ a


def hermitian_eig(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and eigenvectors of a Hermitian matrix."""
    a = _check_square(a)
    if not is_hermitian(a):
        raise ValueError("hermitian_eig requires a Hermitian matrix")
    vals, vecs = np.linalg.eigh(a)
    return vals[::-1].copy(), vecs[:, ::-1].copy()


def expm_skew(x: np.ndarray, t=1.0) -> np.ndarray:
    """Unitary exp(t X) for a skew-Hermitian matrix X, via the eigensolver of iX.

    An (S, dim, dim) stack of X with S times t (or one) gives S unitaries,
    each with the bits of its own call: the eigensolver and the products run
    slice by slice.
    """
    x = _check_square(x)
    if not is_skew_hermitian(x):
        raise ValueError("expm_skew requires a skew-Hermitian matrix")
    h = 1j * x  # Hermitian
    vals, vecs = np.linalg.eigh(h)
    t = np.asarray(t, dtype=float)[..., None]
    return (vecs * np.exp(-1j * t * vals)[..., None, :]) @ _adjoint(vecs)


def op_norm(a: np.ndarray):
    """Largest singular value; an array of one per matrix for a stack."""
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        return 0.0
    norms = np.linalg.norm(a, 2, axis=(-2, -1))
    return float(norms) if a.ndim == 2 else norms
