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
from .util import rng_from, stack_size


@dataclass
class PerturbationTrial:
    t: float
    lhs: float
    rhs: float
    margin: float
    unitary_rhs: float   # sharper bound t * ||dX||, valid for unitary flows


def perturbation_bound_check(
    x: np.ndarray, delta_x: np.ndarray, t
) -> PerturbationTrial | list[PerturbationTrial]:
    """Evaluate both sides of the exponential perturbation bound.

    ``x`` and ``delta_x`` may also be (S, dim, dim) stacks with S times
    ``t``; a list of S trials then comes back, each equal to the trial of its
    own call.  Every matrix must be skew-Hermitian and every t positive.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ValueError("t must be positive")
    x = np.asarray(x, dtype=complex)
    delta_x = np.asarray(delta_x, dtype=complex)
    if not is_skew_hermitian(x) or not is_skew_hermitian(delta_x):
        raise ValueError("perturbation bound check expects skew-Hermitian inputs")
    lhs = op_norm(expm_skew(x + delta_x, t) - expm_skew(x, t))
    dx_norm = op_norm(delta_x)
    rhs = t * np.exp(t * op_norm(x)) * dx_norm
    columns = [np.ravel(c) for c in (t, lhs, rhs, rhs - lhs, t * dx_norm)]
    trials = [PerturbationTrial(*map(float, row)) for row in zip(*columns)]
    return trials if x.ndim == 3 else trials[0]


def random_skew(n_qubits: int, rng: np.random.Generator, hs_norm: float = 1.0) -> np.ndarray:
    """Skew-Hermitian GUE draw with the requested HS norm."""
    dim = 2 ** n_qubits
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = 0.5 * (g + g.conj().T)
    h *= hs_norm / np.linalg.norm(h)
    return -1j * h


def _trial_draw(n_qubits: int, seed: int, k: int) -> tuple[np.ndarray, np.ndarray, float]:
    """(X, dX, t) of trial k, from its own stream."""
    rng = rng_from(seed, "perturbation", k)
    x = random_skew(n_qubits, rng, hs_norm=rng.uniform(0.2, 2.0))
    dx = random_skew(n_qubits, rng, hs_norm=rng.uniform(0.001, 0.2))
    return x, dx, rng.uniform(1e-3, 2.0)


def trial_batch(n_qubits: int, n_trials: int, seed: int) -> list[PerturbationTrial]:
    """Seeded batch of random (X, dX, t) bound evaluations, t in [1e-3, 2).

    Trials are checked a stack of at most ``stack_size(2^n)`` at a time.
    """
    size = stack_size(2 ** n_qubits)
    trials = []
    for start in range(0, n_trials, size):
        draws = [_trial_draw(n_qubits, seed, k) for k in range(start, min(start + size, n_trials))]
        xs, dxs, ts = zip(*draws)
        trials += perturbation_bound_check(np.stack(xs), np.stack(dxs), ts)
    return trials
