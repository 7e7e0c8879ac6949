"""Losses, gradients, SVD decomposition, variance statistics, scaling fits."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import liepqc.trainability as trainability_mod
from liepqc.circuits import CircuitSpec, ParamSlot, build_ansatz
from liepqc.geometry import SamplingSpec, empirical_metric, fs_metric_at
from liepqc.pauli import PauliSum
from liepqc.trainability import (
    LossSpec,
    fit_scaling,
    gradient_descent,
    gradient_variance,
    ground_energy,
    loss_and_gradient,
    real_jacobian,
    svd_chain_rule,
    tfim_hamiltonian,
)
from liepqc.util import rng_from


def slot(n, letters, coeff=1.0):
    return ParamSlot(PauliSum.from_letters(n, letters, coeff))


def one_x_circuit():
    return CircuitSpec(1, [slot(1, "X")])


# ---------------------------------------------------------------------------
# losses and gradients
# ---------------------------------------------------------------------------


def test_single_qubit_analytic_loss():
    # <0| RX(t)^dag Z RX(t) |0> = cos(2t), derivative -2 sin(2t)
    c = one_x_circuit()
    loss = LossSpec()
    for theta in (0.0, 0.3, np.pi / 4, 1.9):
        value, grad = loss_and_gradient(c, np.array([theta]), loss)
        assert value == pytest.approx(np.cos(2 * theta), abs=1e-12)
        assert grad[0] == pytest.approx(-2 * np.sin(2 * theta), abs=1e-12)
    _, grad = loss_and_gradient(c, np.array([np.pi / 4]), loss)
    assert grad[0] == pytest.approx(-2.0, abs=1e-12)


def test_stationary_point_zero_gradient():
    # Z-generator slot on a Z eigenstate: loss constant, gradient zero
    c = CircuitSpec(1, [slot(1, "Z")])
    _, grad = loss_and_gradient(c, np.array([0.9]), LossSpec())
    np.testing.assert_allclose(grad, [0.0], atol=1e-14)


def test_gradient_matches_finite_differences_both_losses():
    rng = np.random.default_rng(41)
    h = 1e-5
    for kind in ("observable_expectation", "vqe_tfim"):
        loss = LossSpec(kind=kind)
        for _ in range(10):
            c = build_ansatz("full_hea", 2, 1)
            theta = rng.uniform(0, 2 * np.pi, c.num_params)
            value, grad = loss_and_gradient(c, theta, loss)
            fd = np.empty_like(grad)
            for k in range(theta.size):
                tp, tm = theta.copy(), theta.copy()
                tp[k] += h
                tm[k] -= h
                fd[k] = (loss_and_gradient(c, tp, loss)[0]
                         - loss_and_gradient(c, tm, loss)[0]) / (2 * h)
            scale = max(np.linalg.norm(grad), 1e-2)
            assert np.linalg.norm(grad - fd) / scale <= 1e-6


def test_tfim_hamiltonian_structure():
    h = tfim_hamiltonian(3, 1.0, 1.0)
    assert h.terms == {
        "ZZI": -1.0, "IZZ": -1.0, "XII": -1.0, "IXI": -1.0, "IIX": -1.0,
    }


def test_vqe_variational_bound():
    loss = LossSpec(kind="vqe_tfim")
    rng = np.random.default_rng(42)
    for n in (2, 3, 4):
        c = build_ansatz("full_hea", n, 1)
        e0 = ground_energy(loss, n)
        for _ in range(10):
            theta = rng.uniform(0, 2 * np.pi, c.num_params)
            value, _ = loss_and_gradient(c, theta, loss)
            assert value >= e0 - 1e-9


def test_unknown_loss_kind():
    with pytest.raises(ValueError):
        LossSpec(kind="hinge")


# ---------------------------------------------------------------------------
# SVD chain rule
# ---------------------------------------------------------------------------


def test_svd_single_slot():
    c = one_x_circuit()
    dec = svd_chain_rule(c, np.array([0.4]), LossSpec())
    assert dec.r == 1
    assert dec.singular_values[0] == pytest.approx(1.0, abs=1e-12)
    # sigma_1 = sqrt(g_11) on the one-slot circuit
    g = fs_metric_at(c, np.array([0.4]))
    assert dec.singular_values[0] ** 2 == pytest.approx(g[0, 0], abs=1e-12)


def test_svd_duplicated_slot_rank_one():
    c = CircuitSpec(1, [slot(1, "X"), slot(1, "X")])
    dec = svd_chain_rule(c, np.array([0.2, 1.0]), LossSpec())
    assert dec.r == 1


def test_svd_zero_gradient_reconstruction():
    c = CircuitSpec(1, [slot(1, "Z")])
    dec = svd_chain_rule(c, np.array([0.5]), LossSpec())
    np.testing.assert_allclose(dec.reconstruct_gradient(), [0.0], atol=1e-12)


def test_svd_identities_random_circuits():
    rng = np.random.default_rng(43)
    for _ in range(15):
        c = build_ansatz("full_hea", 2, 2)
        theta = rng.uniform(0, 2 * np.pi, c.num_params)
        loss = LossSpec() if rng.random() < 0.5 else LossSpec(kind="vqe_tfim")
        dec = svd_chain_rule(c, theta, loss)
        _, grad = loss_and_gradient(c, theta, loss)
        np.testing.assert_allclose(dec.reconstruct_gradient(), grad, atol=1e-10)
        assert dec.gradient_norm_sq() == pytest.approx(float(grad @ grad), abs=1e-10)
        # metric consistency g = J^T J
        frame = c.tangent_frame(theta)
        jac = real_jacobian(frame)
        np.testing.assert_allclose(jac.T @ jac, fs_metric_at(c, theta), atol=1e-10)
        assert dec.r <= min(2 * c.dim, c.num_params)


# ---------------------------------------------------------------------------
# gradient variance
# ---------------------------------------------------------------------------


def test_variance_analytic_single_slot():
    # Var(-2 sin 2t) over uniform t: second moment 2, mean 0
    c = one_x_circuit()
    samp = SamplingSpec(n_samples=2000, seed=77)
    rep = gradient_variance(c, LossSpec(), samp)
    assert rep.mean_component_variance == pytest.approx(2.0, abs=0.15)


def test_variance_constant_loss_is_zero():
    # RZ slots only phase |00>, so the Z_0 loss is 1 at every draw
    c = CircuitSpec(2, [slot(2, "ZI"), slot(2, "IZ")])
    rep = gradient_variance(c, LossSpec(), SamplingSpec(n_samples=20, seed=1))
    np.testing.assert_allclose(rep.per_component_variance, 0.0, atol=1e-20)
    assert rep.product_var_deff == pytest.approx(0.0)


@st.composite
def _fill_orders(draw):
    n_samples = draw(st.integers(2, 12))
    return draw(st.integers(0, 2 ** 32 - 1)), draw(st.permutations(range(n_samples)))


@settings(max_examples=15, deadline=None)
@given(_fill_orders())
def test_variance_bytes_ignore_fill_order_property(case):
    # the draw loop runs over a permutation of the sample indices
    seed, order = case
    c = build_ansatz("full_hea", 2, 2)
    sampling = SamplingSpec(n_samples=len(order), seed=seed)
    in_order = gradient_variance(c, LossSpec(), sampling)

    def permuted_range(n):
        assert n == len(order)
        return list(order)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trainability_mod, "range", permuted_range, raising=False)
        permuted = gradient_variance(c, LossSpec(), sampling)
    assert permuted.per_component_variance.tobytes() == in_order.per_component_variance.tobytes()
    assert permuted.metric.metric.tobytes() == in_order.metric.metric.tobytes()
    assert permuted.product_var_deff == in_order.product_var_deff


def test_variance_requires_two_samples():
    c = one_x_circuit()
    with pytest.raises(ValueError):
        gradient_variance(c, LossSpec(), SamplingSpec(n_samples=1, seed=0))


def test_variance_deterministic_across_runs():
    c = build_ansatz("full_hea", 2, 1)
    samp = SamplingSpec(n_samples=30, seed=5)
    a = gradient_variance(c, LossSpec(), samp)
    b = gradient_variance(c, LossSpec(), samp)
    assert np.array_equal(a.per_component_variance, b.per_component_variance)
    assert a.product_var_deff == b.product_var_deff


def test_variance_product_pairs_with_metric():
    c = build_ansatz("full_hea", 2, 1)
    samp = SamplingSpec(n_samples=25, seed=9)
    metric = empirical_metric(c, samp)
    rep = gradient_variance(c, LossSpec(), samp)
    np.testing.assert_array_equal(rep.metric.metric, metric.metric)
    assert rep.product_var_deff == pytest.approx(
        rep.mean_component_variance * metric.d_eff, rel=1e-12
    )


# ---------------------------------------------------------------------------
# scaling fits
# ---------------------------------------------------------------------------


def test_fit_exponential_exact():
    records = [(n, float(d), float(np.exp(-d))) for n, d in zip(range(2, 7), [2, 4, 6, 8, 10])]
    fit = fit_scaling(records, "exp_in_deff")
    assert fit.rate == pytest.approx(1.0, abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_polynomial_exact():
    records = [(n, 0.0, float(n) ** -2) for n in range(2, 7)]
    fit = fit_scaling(records, "poly_in_n")
    assert fit.rate == pytest.approx(2.0, abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_drops_nonpositive_variances():
    records = [(2, 1.0, 0.5), (3, 2.0, 0.25), (4, 3.0, 0.125), (5, 4.0, 0.0)]
    fit = fit_scaling(records, "exp_in_deff")
    assert fit.n_dropped == 1
    assert fit.n_used == 3


def test_fit_needs_three_positive_records():
    with pytest.raises(ValueError):
        fit_scaling([(2, 1.0, 0.5), (3, 2.0, 0.0), (4, 3.0, -1.0)], "exp_in_deff")


def test_fit_unknown_model():
    with pytest.raises(ValueError):
        fit_scaling([(2, 1.0, 0.5)] * 3, "sqrt_in_n")


def test_fit_on_sweep_style_records():
    # decaying but noisy variance: positive rate, finite r^2
    rng = np.random.default_rng(44)
    records = [(n, 1.8 * n, float(np.exp(-0.4 * n) * rng.uniform(0.9, 1.1)))
               for n in range(2, 7)]
    fit = fit_scaling(records, "poly_in_n")
    assert fit.rate > 0
    assert 0.0 <= fit.r_squared <= 1.0


# ---------------------------------------------------------------------------
# gradient descent
# ---------------------------------------------------------------------------


def test_descent_trajectory_shape_and_progress():
    c = build_ansatz("full_hea", 2, 1)
    loss = LossSpec(kind="vqe_tfim")
    theta0 = rng_from(1, "opt").uniform(0, 2 * np.pi, c.num_params)
    theta, traj = gradient_descent(c, loss, theta0, 20, 0.1)
    assert traj.shape == (21,)
    assert traj[-1] < traj[0]
    assert theta.shape == theta0.shape


def test_descent_zero_steps():
    c = one_x_circuit()
    theta0 = np.array([0.3])
    _, traj = gradient_descent(c, LossSpec(), theta0, 0, 0.1)
    assert traj.shape == (1,)
    assert traj[0] == pytest.approx(np.cos(0.6))
