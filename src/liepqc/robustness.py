"""Perturbation stability of matrix exponentials.

The bound checked here: for skew-Hermitian X and perturbation dX,
``||exp((X+dX)t) - exp(Xt)||_op <= t * exp(t ||X||_op) * ||dX||_op``.
For skew-Hermitian inputs the exponentials are unitary and the sharper
``t * ||dX||_op`` holds as well; both sides are recorded per trial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import expm_skew, op_norm, is_skew_hermitian
from .util import rng_from


@dataclass
class PerturbationTrial:
    t: float
    lhs: float
    rhs: float
    margin: float
    unitary_rhs: float   # sharper bound t * ||dX||, valid for unitary flows


def perturbation_bound_check(x: np.ndarray, delta_x: np.ndarray, t: float) -> PerturbationTrial:
    """Evaluate both sides of the exponential perturbation bound."""
    if t <= 0:
        raise ValueError("t must be positive")
    x = np.asarray(x, dtype=complex)
    delta_x = np.asarray(delta_x, dtype=complex)
    if not is_skew_hermitian(x) or not is_skew_hermitian(delta_x):
        raise ValueError("perturbation bound check expects skew-Hermitian inputs")
    lhs = op_norm(expm_skew(x + delta_x, t) - expm_skew(x, t))
    dx_norm = op_norm(delta_x)
    rhs = t * float(np.exp(t * op_norm(x))) * dx_norm
    return PerturbationTrial(
        t=t,
        lhs=lhs,
        rhs=rhs,
        margin=rhs - lhs,
        unitary_rhs=t * dx_norm,
    )


def random_skew(n_qubits: int, rng: np.random.Generator, hs_norm: float = 1.0) -> np.ndarray:
    """Skew-Hermitian GUE draw with the requested HS norm."""
    dim = 2 ** n_qubits
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = 0.5 * (g + g.conj().T)
    h *= hs_norm / np.linalg.norm(h)
    return -1j * h


def trial_batch(
    n_qubits: int, n_trials: int, seed: int, t_max: float = 2.0
) -> list[PerturbationTrial]:
    """Seeded batch of random (X, dX, t) bound evaluations."""
    trials = []
    for k in range(n_trials):
        rng = rng_from(seed, "perturbation", k)
        x = random_skew(n_qubits, rng, hs_norm=rng.uniform(0.2, 2.0))
        dx = random_skew(n_qubits, rng, hs_norm=rng.uniform(0.001, 0.2))
        t = rng.uniform(1e-3, t_max)
        trials.append(perturbation_bound_check(x, dx, t))
    return trials
