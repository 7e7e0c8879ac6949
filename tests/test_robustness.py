"""Exponential perturbation bound and coherent generator-noise sweeps."""

import numpy as np
import pytest

from liepqc.circuits import build_ansatz
from liepqc.geometry import SamplingSpec
from liepqc.pauli import PauliString
from liepqc.robustness import (
    perturb_generators,
    perturbation_bound_check,
    perturbed_sweep,
    random_skew,
    trial_batch,
    trials_to_csv,
)
from liepqc.util import rng_from

Z = PauliString(1, "Z").dense()
X = PauliString(1, "X").dense()


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


def test_trials_csv(tmp_path):
    trials = trial_batch(1, 5, seed=1)
    path = tmp_path / "trials.csv"
    trials_to_csv(path, trials)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x_norm,dx_norm,t,lhs,rhs,margin"
    assert len(lines) == 6


def test_random_skew_normalization():
    rng = rng_from(0, "skewtest")
    x = random_skew(2, rng, hs_norm=1.0)
    assert np.linalg.norm(x) == pytest.approx(1.0)
    assert np.max(np.abs(x + x.conj().T)) < 1e-12


def test_perturb_generators_zero_scale_is_identity():
    c = build_ansatz("full_hea", 2, 1)
    assert perturb_generators(c, 0.0, seed=1) is c


def test_perturbed_sweep_zero_noise_zero_degradation():
    c = build_ansatz("full_hea", 2, 1)
    rec = perturbed_sweep(c, 0.0, SamplingSpec(n_samples=10, seed=3), opt_steps=5)
    for value in rec["degradation"].values():
        assert value == 0.0


def test_perturbed_sweep_continuity_in_noise():
    c = build_ansatz("full_hea", 2, 1)
    samp = SamplingSpec(n_samples=10, seed=4)
    drift = []
    for eps in (1e-2, 1e-3, 1e-4):
        rec = perturbed_sweep(c, eps, samp, opt_steps=0, seed=11)
        drift.append(abs(rec["degradation"]["d_eff"]))
    assert drift[2] < drift[0] + 1e-12
    assert drift[2] < 1e-3


def test_perturbed_sweep_side_by_side_records():
    # structured vs full model degradation at equal noise, both recorded
    from liepqc.lie import apply_lie_trunc, lie_closure

    base = build_ansatz("full_hea", 3, 1)
    lie_model, _, _ = apply_lie_trunc(base, lie_closure(base.skew_generators()))
    samp = SamplingSpec(n_samples=8, seed=5)
    rec_full = perturbed_sweep(base, 0.05, samp, opt_steps=5, seed=6)
    rec_lie = perturbed_sweep(lie_model, 0.05, samp, opt_steps=5, seed=6)
    for rec in (rec_full, rec_lie):
        assert set(rec["degradation"]) == {"d_eff", "rank", "var_grad_mean", "loss_final"}
        assert np.isfinite(rec["perturbed"]["loss_final"])


def test_perturbed_sweep_rejects_negative_noise():
    c = build_ansatz("full_hea", 2, 1)
    with pytest.raises(ValueError):
        perturbed_sweep(c, -0.1, SamplingSpec(n_samples=5, seed=1))


def test_loss_deviation_within_bound_implied_estimate():
    # per-gate exponential bounds chain into a loss-deviation estimate:
    # |loss' - loss| <= 2 ||O|| * sum_k ||exp(-i(H_k+eps R_k)t_k) - exp(-i H_k t_k)||
    from liepqc.circuits import ParamSlot
    from liepqc.linalg import op_norm
    from liepqc.trainability import LossSpec, loss_and_gradient

    eps = 0.05
    base = build_ansatz("full_hea", 3, 1)
    noisy = perturb_generators(base, eps, seed=21)
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
                x = -1j * op_base.dense_generator()
                dx = -1j * (op_noisy.dense_generator() - op_base.dense_generator())
                t = abs(theta[k]) + 1e-12
                budget += perturbation_bound_check(x, dx, t).rhs
                k += 1
        assert abs(v_noisy - v_base) <= 2.0 * obs_norm * budget + 1e-12
