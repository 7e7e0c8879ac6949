"""Losses, exact gradients, SVD gradient decomposition, and variance statistics.

Two loss families are provided: the expectation of a Hermitian observable
(default: Z on the first qubit) and the transverse-field Ising energy
H = -J * sum Z_i Z_{i+1} - h * sum X_i on an open chain, the variational
eigensolver target.

For an expectation loss the gradient is grad_k = 2 Re <d_k psi| O |psi>.
The global-phase component of the partials cancels there, so projected and
unprojected frames give the same gradient; the Jacobian used for the SVD
decomposition stacks real and imaginary parts of the *projected* partials so
that J^T J reproduces the Fubini-Study metric exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .pauli import PauliSum
from .geometry import SamplingSpec, MetricReport, draw_frames, frame_metric, metric_report
from .linalg import matvec
from .util import pairwise_mean


# ---------------------------------------------------------------------------
# Loss definitions
# ---------------------------------------------------------------------------


def tfim_hamiltonian(n_qubits: int, coupling: float = 1.0, fieldstrength: float = 1.0) -> PauliSum:
    """Open-chain transverse-field Ising Hamiltonian -J sum ZZ - h sum X."""
    terms: dict[str, complex] = {}

    def word(positions: dict[int, str]) -> str:
        return "".join(positions.get(q, "I") for q in range(n_qubits))

    for q in range(n_qubits - 1):
        terms[word({q: "Z", q + 1: "Z"})] = -coupling
    for q in range(n_qubits):
        w = word({q: "X"})
        terms[w] = terms.get(w, 0) - fieldstrength
    return PauliSum(n_qubits, terms)


@dataclass
class LossSpec:
    """Loss over the final state.

    kind='observable_expectation' measures Z on the first qubit;
    kind='vqe_tfim' measures the TFIM energy with couplings
    ``tfim_params = (J, h)``.
    """

    kind: str = "observable_expectation"
    tfim_params: tuple[float, float] = (1.0, 1.0)
    # no loss takes a custom observable; bench/layertrace.py still reads this
    observable: ClassVar[None] = None

    def __post_init__(self):
        if self.kind not in ("observable_expectation", "vqe_tfim"):
            raise ValueError(f"unknown loss kind {self.kind!r}")

    def observable_dense(self, n_qubits: int) -> np.ndarray:
        if self.kind == "vqe_tfim":
            return tfim_hamiltonian(n_qubits, *self.tfim_params).dense()
        letters = "Z" + "I" * (n_qubits - 1)
        return PauliSum.from_letters(n_qubits, letters).dense()

    def to_json(self) -> dict:
        data: dict = {"kind": self.kind}
        if self.kind == "vqe_tfim":
            data["tfim_params"] = list(self.tfim_params)
        return data


def ground_energy(loss: LossSpec, n_qubits: int) -> float:
    """Smallest eigenvalue of the loss observable (exact diagonalization)."""
    vals = np.linalg.eigvalsh(loss.observable_dense(n_qubits))
    return float(vals[0])


# ---------------------------------------------------------------------------
# Loss and gradient
# ---------------------------------------------------------------------------


def loss_and_gradient(circuit, theta: np.ndarray, loss: LossSpec) -> tuple[float, np.ndarray]:
    """Exact loss value and analytic gradient (matches finite differences)."""
    return _observable_loss_and_gradient(circuit, theta, loss.observable_dense(circuit.n_qubits))


def _observable_loss_and_gradient(
    circuit, theta: np.ndarray, obs: np.ndarray
) -> tuple[float, np.ndarray]:
    """:func:`loss_and_gradient` for an already resolved dense observable;
    the loss and the gradient share one product O|psi>."""
    frame = circuit.tangent_frame(theta)
    o_state = matvec(obs, frame.state)
    return float(np.real(frame.state.conj() @ o_state)), _frame_gradient(frame, o_state)


def _expectation(state: np.ndarray, obs: np.ndarray) -> float:
    """<state| O |state> for a Hermitian dense observable."""
    return float(np.real(state.conj() @ (obs @ state)))


def _frame_gradient(frame, o_state: np.ndarray) -> np.ndarray:
    """grad_k = 2 Re <d_k psi| O |psi> from an evaluated tangent frame and
    ``o_state`` = O|psi>, or one gradient per draw of a stacked frame."""
    partials_h = np.swapaxes(frame.partials.conj(), -1, -2)
    return 2.0 * np.real(matvec(partials_h, o_state))


@dataclass
class JacobianDecomposition:
    """SVD of the real Jacobian plus the loss cogradient at the state.

    J stacks Re and Im of the projected partials (2*dim x L), J = U S V^T.
    The gradient reconstructs as sum_i s_i <df, u_i> v_i and satisfies the
    Parseval identity ||grad||^2 = sum_i (s_i <df, u_i>)^2.
    """

    singular_values: np.ndarray
    left: np.ndarray             # 2*dim x r_full, state-side vectors
    right: np.ndarray            # L x r_full, parameter-side vectors
    r: int
    df: np.ndarray               # real cogradient, length 2*dim

    def reconstruct_gradient(self) -> np.ndarray:
        coeffs = self.singular_values * (self.left.T @ self.df)
        return self.right @ coeffs

    def gradient_norm_sq(self) -> float:
        coeffs = self.singular_values * (self.left.T @ self.df)
        return float(np.sum(coeffs ** 2))


RANK_SV_REL_TOL = 1e-12


def real_jacobian(frame) -> np.ndarray:
    return np.vstack([np.real(frame.projected), np.imag(frame.projected)])


def svd_chain_rule(circuit, theta: np.ndarray, loss: LossSpec) -> JacobianDecomposition:
    obs = loss.observable_dense(circuit.n_qubits)
    frame = circuit.tangent_frame(theta)
    jac = real_jacobian(frame)
    u, s, vt = np.linalg.svd(jac, full_matrices=False)
    r = int(np.sum(s > RANK_SV_REL_TOL * s[0])) if s.size and s[0] > 0 else 0
    opsi = obs @ frame.state
    df = np.concatenate([2.0 * np.real(opsi), 2.0 * np.imag(opsi)])
    return JacobianDecomposition(
        singular_values=s, left=u, right=vt.T, r=r, df=df
    )


# ---------------------------------------------------------------------------
# Gradient variance
# ---------------------------------------------------------------------------


@dataclass
class VarianceReport:
    """Componentwise gradient variance over seeded parameter draws.

    ``metric`` is the empirical metric over the same draws.
    """

    per_component_variance: np.ndarray
    mean_component_variance: float
    first_component_variance: float
    n_samples: int
    seed: int
    product_var_deff: float
    metric: MetricReport


def gradient_variance(circuit, loss: LossSpec, sampling: SamplingSpec) -> VarianceReport:
    """Sample variance of the gradient, paired with the empirical metric.

    One tangent frame per draw yields both the pointwise metric and the
    gradient, so the variance and the effective dimension describe the same
    parameter distribution.  Draws are evaluated in stacks
    (:func:`~liepqc.geometry.draw_frames`), each with the bits of its own
    frame.  Reductions are pairwise and per-sample streams are keyed by
    index: results do not depend on evaluation order.
    """
    if sampling.n_samples < 2:
        raise ValueError("variance estimation needs n_samples >= 2")
    num = circuit.num_params
    obs = loss.observable_dense(circuit.n_qubits)
    grads = np.empty((sampling.n_samples, num))
    metrics = np.empty((sampling.n_samples, num, num))
    for chunk, frames in draw_frames(circuit, sampling, range(sampling.n_samples)):
        metrics[chunk] = frame_metric(frames)
        grads[chunk] = _frame_gradient(frames, matvec(obs, frames.state))
    metric = metric_report(pairwise_mean(metrics), sampling)
    centered = grads - pairwise_mean(grads)
    factor = sampling.n_samples / (sampling.n_samples - 1)
    per_component = factor * pairwise_mean(centered ** 2)
    mean_var = float(pairwise_mean(per_component))
    return VarianceReport(
        per_component_variance=per_component,
        mean_component_variance=mean_var,
        first_component_variance=float(per_component[0]),
        n_samples=sampling.n_samples,
        seed=sampling.seed,
        product_var_deff=mean_var * metric.d_eff,
        metric=metric,
    )


# ---------------------------------------------------------------------------
# Scaling-law fits
# ---------------------------------------------------------------------------


@dataclass
class ScalingFit:
    """Least-squares fit of log-variance against d_eff or log n.

    model='exp_in_deff': log Var = intercept - rate * d_eff.
    model='poly_in_n':   log Var = intercept - rate * log n.
    """

    model: str
    rate: float
    intercept: float
    r_squared: float
    n_used: int
    n_dropped: int

    def to_json(self) -> dict:
        return {
            "model": self.model,
            "rate": self.rate,
            "intercept": self.intercept,
            "r_squared": self.r_squared,
            "n_used": self.n_used,
            "n_dropped": self.n_dropped,
        }


def fit_scaling(records: list[tuple[float, float, float]], model: str) -> ScalingFit:
    """Fit the decay rate from (n, d_eff, variance) records.

    Non-positive variances cannot enter a log fit; they are dropped and
    counted, never clamped.
    """
    if model not in ("exp_in_deff", "poly_in_n"):
        raise ValueError(f"unknown scaling model {model!r}")
    usable = [(n, d, v) for (n, d, v) in records if v > 0]
    dropped = len(records) - len(usable)
    if len(usable) < 3:
        raise ValueError("need at least 3 records with positive variance")
    y = np.log([v for _, _, v in usable])
    if model == "exp_in_deff":
        x = np.array([d for _, d, _ in usable])
    else:
        x = np.log([n for n, _, _ in usable])
    design = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    pred = design @ coef
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return ScalingFit(
        model=model,
        rate=-slope,
        intercept=intercept,
        r_squared=r2,
        n_used=len(usable),
        n_dropped=dropped,
    )


# ---------------------------------------------------------------------------
# Plain gradient descent (short-budget optimization runs)
# ---------------------------------------------------------------------------


def gradient_descent(
    circuit,
    loss: LossSpec,
    theta0: np.ndarray,
    steps: int,
    rate: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-rate descent; returns (final theta, loss trajectory incl. start)."""
    obs = loss.observable_dense(circuit.n_qubits)
    theta = np.asarray(theta0, dtype=float).copy()
    losses = np.empty(steps + 1)
    for k in range(steps):
        value, grad = _observable_loss_and_gradient(circuit, theta, obs)
        losses[k] = value
        theta = theta - rate * grad
    losses[steps] = _expectation(circuit.evolve(theta), obs)
    return theta, losses
