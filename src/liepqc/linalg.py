"""Dense complex linear algebra on small (<= 64x64) operators.

Matrix exponentials go through the Hermitian eigendecomposition; at these
dimensions that is both exact enough and simpler than scaling-and-squaring.
"""

from __future__ import annotations

import numpy as np

HERMITICITY_RTOL = 1e-12


def max_abs(a: np.ndarray) -> float:
    return float(np.max(np.abs(a))) if a.size else 0.0


def is_hermitian(a: np.ndarray, rtol: float = HERMITICITY_RTOL) -> bool:
    scale = max(max_abs(a), 1e-300)
    return max_abs(a - a.conj().T) <= rtol * scale


def is_skew_hermitian(a: np.ndarray, rtol: float = HERMITICITY_RTOL) -> bool:
    scale = max(max_abs(a), 1e-300)
    return max_abs(a + a.conj().T) <= rtol * scale


def _check_square(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected square matrix, got shape {a.shape}")
    return a


def _check_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")


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


def expm_skew(x: np.ndarray, t: float = 1.0) -> np.ndarray:
    """Unitary exp(t X) for a skew-Hermitian matrix X, via the eigensolver of iX."""
    x = _check_square(x)
    if not is_skew_hermitian(x):
        raise ValueError("expm_skew requires a skew-Hermitian matrix")
    h = 1j * x  # Hermitian
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(-1j * t * vals)) @ vecs.conj().T


def op_norm(a: np.ndarray) -> float:
    """Largest singular value."""
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))
