"""Perturbation stability of matrix exponentials and coherent-noise sweeps.

The bound checked here: for skew-Hermitian X and perturbation dX,
``||exp((X+dX)t) - exp(Xt)||_op <= t * exp(t ||X||_op) * ||dX||_op``.
For skew-Hermitian inputs the exponentials are unitary and the sharper
``t * ||dX||_op`` holds as well; both sides are recorded per trial.

The noise model is a static Hermitian offset on every generator (coherent
error): H_k -> H_k + eps * R_k with R_k drawn from the Gaussian unitary
ensemble and normalized to unit HS norm.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .circuits import CircuitSpec, ParamSlot, FixedGate
from .geometry import SamplingSpec
from .linalg import expm_skew, op_norm, is_skew_hermitian
from .trainability import LossSpec, gradient_variance, gradient_descent
from .util import rng_from


@dataclass
class PerturbationTrial:
    x: np.ndarray
    delta_x: np.ndarray
    t: float
    lhs: float
    rhs: float
    margin: float
    unitary_rhs: float   # sharper bound t * ||dX||, valid for unitary flows

    def to_row(self) -> list[float]:
        return [
            op_norm(self.x),
            op_norm(self.delta_x),
            self.t,
            self.lhs,
            self.rhs,
            self.margin,
        ]


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
        x=x,
        delta_x=delta_x,
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


def trials_to_csv(path: str | Path, trials: list[PerturbationTrial]) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x_norm", "dx_norm", "t", "lhs", "rhs", "margin"])
        for tr in trials:
            writer.writerow([repr(float(v)) for v in tr.to_row()])


# ---------------------------------------------------------------------------
# Coherent generator noise
# ---------------------------------------------------------------------------


def perturb_generators(circuit: CircuitSpec, noise_scale: float, seed: int) -> CircuitSpec:
    """Offset every trainable generator by eps times a unit-HS-norm GUE draw."""
    if noise_scale == 0.0:
        return circuit
    ops: list[ParamSlot | FixedGate] = []
    k = 0
    for op in circuit.ops:
        if isinstance(op, ParamSlot):
            rng = rng_from(seed, "generator_noise", k)
            noise = 1j * random_skew(circuit.n_qubits, rng, hs_norm=1.0)  # Hermitian
            ops.append(ParamSlot(op.dense_generator() + noise_scale * noise))
            k += 1
        else:
            ops.append(op)
    return CircuitSpec(
        circuit.n_qubits,
        ops,
        initial_state=circuit.initial_state,
        family=circuit.family + "+noise",
        depth=circuit.depth,
    )


def perturbed_sweep(
    circuit: CircuitSpec,
    noise_scale: float,
    sampling: SamplingSpec,
    loss: LossSpec | None = None,
    opt_steps: int = 25,
    opt_rate: float = 0.1,
    seed: int = 0,
) -> dict:
    """Re-measure geometry and trainability under coherent generator noise.

    Returns baseline and perturbed values of d_eff, rank, mean gradient
    variance and final optimization loss, plus their differences.
    """
    if noise_scale < 0:
        raise ValueError("noise_scale must be >= 0")
    loss = loss or LossSpec()

    def measure(c: CircuitSpec) -> dict:
        var = gradient_variance(c, loss, sampling)
        theta0 = rng_from(seed, "perturbed_opt").uniform(0, 2 * np.pi, c.num_params)
        _, losses = gradient_descent(c, loss, theta0, opt_steps, opt_rate)
        return {
            "d_eff": var.metric.d_eff,
            "rank": var.metric.rank,
            "var_grad_mean": var.mean_component_variance,
            "loss_final": float(losses[-1]),
        }

    base = measure(circuit)
    noisy = measure(perturb_generators(circuit, noise_scale, seed))
    degradation = {key: noisy[key] - base[key] for key in base}
    return {
        "noise_scale": noise_scale,
        "seed": seed,
        "baseline": base,
        "perturbed": noisy,
        "degradation": degradation,
    }
