"""Exponential perturbation bound."""

import numpy as np
import pytest

from liepqc.circuits import CircuitSpec, ParamSlot, build_ansatz, dense_to_pauli_sum
from liepqc.pauli import PauliSum
from liepqc.robustness import perturbation_bound_check, random_skew, trial_batch
from liepqc.util import rng_from

Z = PauliSum.from_letters(1, "Z").dense()
X = PauliSum.from_letters(1, "X").dense()


def test_zero_perturbation():
    trial = perturbation_bound_check(-1j * Z, np.zeros((2, 2)), 1.0)
    assert trial.lhs == pytest.approx(0.0, abs=1e-14)
    assert trial.rhs == pytest.approx(0.0, abs=1e-14)


def test_small_pauli_perturbation_derived():
    # X = -iZ, dX = -0.01iX, t = 1: lhs below both bound forms
    trial = perturbation_bound_check(-1j * Z, -0.01j * X, 1.0)
    assert trial.lhs <= 0.01 * np.e + 1e-12
    assert trial.lhs <= trial.unitary_rhs + 1e-12     # sharper unitary bound
    assert trial.rhs == pytest.approx(0.01 * np.e, rel=1e-10)
    assert trial.margin >= -1e-9


def test_bound_check_rejects_bad_inputs():
    with pytest.raises(ValueError):
        perturbation_bound_check(Z, -0.01j * X, 1.0)      # not skew
    with pytest.raises(ValueError):
        perturbation_bound_check(-1j * Z, -0.01j * X, 0.0)  # t must be positive


def test_trial_batch_margins_nonnegative():
    for n in (1, 2, 3):
        trials = trial_batch(n, 80, seed=99 + n)
        worst = min(t.margin for t in trials)
        assert worst >= -1e-9
        # unitary flows also satisfy the exponential-free bound
        assert all(t.lhs <= t.unitary_rhs + 1e-9 for t in trials)


def test_random_skew_normalization():
    rng = rng_from(0, "skewtest")
    x = random_skew(2, rng, hs_norm=1.0)
    assert np.linalg.norm(x) == pytest.approx(1.0)
    assert np.max(np.abs(x + x.conj().T)) < 1e-12


def test_loss_deviation_within_bound_implied_estimate():
    # per-gate exponential bounds chain into a loss-deviation estimate:
    # |loss' - loss| <= 2 ||O|| * sum_k ||exp(-i(H_k+eps R_k)t_k) - exp(-i H_k t_k)||
    # with R_k a Hermitian GUE draw of unit HS norm (coherent generator noise)
    from liepqc.linalg import op_norm
    from liepqc.trainability import LossSpec, loss_and_gradient

    eps = 0.05
    base = build_ansatz("full_hea", 3, 1)
    ops = []
    for i, op in enumerate(base.ops):
        if isinstance(op, ParamSlot):
            noise = dense_to_pauli_sum(1j * random_skew(3, rng_from(21, "generator_noise", i)), 3)
            op = ParamSlot(op.generator + eps * noise)
        ops.append(op)
    noisy = CircuitSpec(3, ops)
    loss = LossSpec()
    obs_norm = op_norm(loss.observable_dense(3))
    rng = rng_from(0, "bound_vs_loss")
    for _ in range(5):
        theta = rng.uniform(0, 2 * np.pi, base.num_params)
        v_base, _ = loss_and_gradient(base, theta, loss)
        v_noisy, _ = loss_and_gradient(noisy, theta, loss)
        budget = 0.0
        k = 0
        for op_base, op_noisy in zip(base.ops, noisy.ops):
            if isinstance(op_base, ParamSlot):
                x = -1j * op_base.generator.dense()
                dx = -1j * (op_noisy.generator - op_base.generator).dense()
                t = abs(theta[k]) + 1e-12
                budget += perturbation_bound_check(x, dx, t).rhs
                k += 1
        assert abs(v_noisy - v_base) <= 2.0 * obs_norm * budget + 1e-12
