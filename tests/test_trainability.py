"""Losses, gradients, SVD decomposition, variance statistics, gradient descent."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import liepqc.trainability as trainability_mod
from liepqc.circuits import CircuitSpec, ParamSlot, build_ansatz
from liepqc.geometry import SamplingSpec, empirical_metric, fs_metric_at
from liepqc.pauli import PauliSum
from liepqc.trainability import (
    LossSpec,
    gradient_descent,
    gradient_variance,
    ground_energy,
    loss_and_gradient,
    real_jacobian,
    svd_chain_rule,
    tfim_hamiltonian,
)
from liepqc.util import pairwise_mean, rng_from, stack_size


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
    assert h.terms == PauliSum(3, {
        "ZZI": -1.0, "IZZ": -1.0, "XII": -1.0, "IXI": -1.0, "IIX": -1.0,
    }).terms


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
    # the draws are stacked and filled in a permutation of the sample indices,
    # so each draw sits at another position of its stack
    seed, order = case
    c = build_ansatz("full_hea", 2, 2)
    sampling = SamplingSpec(n_samples=len(order), seed=seed)
    in_order = gradient_variance(c, LossSpec(), sampling)
    calls = []

    def permuted_frames(circuit, spec):
        # draw_frames's stacks, filled in ``order``
        calls.append(spec.n_samples)
        size = stack_size(circuit.dim)
        for start in range(0, len(order), size):
            chunk = order[start:start + size]
            thetas = np.stack([spec.draw(circuit.num_params, s) for s in chunk])
            yield chunk, circuit.tangent_frame(thetas)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trainability_mod, "draw_frames", permuted_frames)
        permuted = gradient_variance(c, LossSpec(), sampling)
    assert calls == [len(order)]
    assert permuted.per_component_variance.tobytes() == in_order.per_component_variance.tobytes()
    assert permuted.metric.metric.tobytes() == in_order.metric.metric.tobytes()
    assert permuted.product_var_deff == in_order.product_var_deff


def test_variance_stacks_match_per_draw_frames():
    # n = 6 evaluates its draws in stacks of 8, so 10 draws take two stacks
    c = build_ansatz("full_hea", 6, 1)
    sampling = SamplingSpec(n_samples=10, seed=3)
    rep = gradient_variance(c, LossSpec(), sampling)
    thetas = [sampling.draw(c.num_params, s) for s in range(10)]
    grads = np.stack([loss_and_gradient(c, theta, LossSpec())[1] for theta in thetas])
    centered = grads - pairwise_mean(grads)
    want = (10 / 9) * pairwise_mean(centered ** 2)
    assert rep.per_component_variance.tobytes() == want.tobytes()
    metrics = np.stack([fs_metric_at(c, theta) for theta in thetas])
    assert rep.metric.metric.tobytes() == pairwise_mean(metrics).tobytes()


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
# gradient descent
# ---------------------------------------------------------------------------


def test_descent_trajectory_shape_and_progress():
    c = build_ansatz("full_hea", 2, 1)
    loss = LossSpec(kind="vqe_tfim")
    theta0 = rng_from(1, "opt").uniform(0, 2 * np.pi, c.num_params)
    theta, traj, _ = gradient_descent(c, loss, theta0, 20, 0.1)
    assert traj.shape == (21,)
    assert traj[-1] < traj[0]
    assert theta.shape == theta0.shape


def test_descent_zero_steps():
    c = one_x_circuit()
    theta0 = np.array([0.3])
    _, traj, _ = gradient_descent(c, LossSpec(), theta0, 0, 0.1)
    assert traj.shape == (1,)
    assert traj[0] == pytest.approx(np.cos(0.6))


def test_a_diverging_descent_raises_at_its_step():
    # a rate of 1e308 overflows theta within the five steps
    c = build_ansatz("full_hea", 2, 1)
    theta0 = rng_from(3, "theta0").uniform(0.0, 2.0 * np.pi, c.num_params)
    with pytest.raises(FloatingPointError, match=r"^descent step [0-4] of 5 diverged: overflow"):
        gradient_descent(c, LossSpec(), theta0, 5, 1e308)


def plain_descent(circuit, loss, theta0, steps, rate):
    """The oracle: one frame per step, every step, no repeat detection."""
    theta = np.asarray(theta0, dtype=float).copy()
    losses = np.empty(steps + 1)
    for k in range(steps):
        losses[k], grad = loss_and_gradient(circuit, theta, loss)
        theta = theta - rate * grad
    state = circuit.evolve(theta)
    losses[steps] = np.real(state.conj() @ (loss.observable_dense(circuit.n_qubits) @ state))
    return theta, losses


def assert_plain_descent_bytes(circuit, loss, theta0, steps, rate, got=None):
    """``got`` (or a fresh ``gradient_descent``) has the oracle's theta and
    trajectory bit for bit; returns its cycle."""
    theta, losses, cycle = got or gradient_descent(circuit, loss, theta0, steps, rate)
    want_theta, want_losses = plain_descent(circuit, loss, theta0, steps, rate)
    assert theta.tobytes() == want_theta.tobytes()
    assert losses.tobytes() == want_losses.tobytes()
    return cycle


def counting_steps(monkeypatch) -> list:
    """Patch the descent's step to list the bytes of each theta it evaluates."""
    real_step = trainability_mod._observable_loss_and_gradient
    thetas = []

    def counting(circuit, theta, obs):
        thetas.append(theta.tobytes())
        return real_step(circuit, theta, obs)

    monkeypatch.setattr(trainability_mod, "_observable_loss_and_gradient", counting)
    return thetas


def test_default_grid_descents_match_the_plain_loop_bytes(monkeypatch):
    # every descent of the default sweeps of master seeds 14-16, against the
    # oracle; a record's frames count the frames evaluated, and the cells
    # cover a fixed point, periods 2 and 3 and a descent that never repeats
    import liepqc.sweep as sweep_mod

    evaluated = counting_steps(monkeypatch)
    descents = []

    def recording(circuit, loss, theta0, steps, rate):
        before = len(evaluated)
        got = gradient_descent(circuit, loss, theta0, steps, rate)
        descents.append(((circuit, loss, theta0, steps, rate), got, len(evaluated) - before))
        return got

    monkeypatch.setattr(sweep_mod, "gradient_descent", recording)
    periods = set()
    for master_seed in (14, 15, 16):
        descents.clear()
        config = sweep_mod.SweepConfig(master_seed=master_seed, workers=1)
        records, errors = sweep_mod.run_sweep(config, write_files=False)
        assert not errors and len(descents) == len(records) == 15
        # descents run largest n first; records are sorted by n, methods in order
        descents.sort(key=lambda d: d[0][0].n_qubits)
        for record, (args, got, frames) in zip(records, descents):
            cycle = assert_plain_descent_bytes(*args, got=got)
            assert frames == (sum(cycle) if cycle else config.opt_steps)
            assert record.frames == config.sampling.n_samples + frames
            assert record.descent_cycle == (list(cycle) if cycle else None)
            assert record.loss_trajectory == got[1].tolist()
            periods.add(cycle and cycle[1])
        if master_seed == 14:
            assert sum(frames for _, _, frames in descents) == 834    # of 1500
    assert {None, 1, 2, 3} <= periods


def test_a_zero_gradient_descent_evaluates_one_frame(monkeypatch):
    # a Z rotation leaves |0> and <Z> alone: theta_1 is theta_0
    c = CircuitSpec(1, [slot(1, "Z")])
    theta0 = np.array([0.3])
    evaluated = counting_steps(monkeypatch)
    got = gradient_descent(c, LossSpec(), theta0, 100, 0.1)
    assert evaluated == [theta0.tobytes()]
    assert assert_plain_descent_bytes(c, LossSpec(), theta0, 100, 0.1, got=got) == (0, 1)


def test_descent_tells_minus_zero_from_zero(monkeypatch):
    # -0.0 - 0.1 * -0.0 is +0.0, equal in value but not in bits, so step 1
    # revisits nothing; step 2 repeats step 1
    def step(circuit, theta, obs):
        return float(np.copysign(1.0, theta[0])), np.array([-0.0])

    monkeypatch.setattr(trainability_mod, "_observable_loss_and_gradient", step)
    c, theta0 = one_x_circuit(), np.array([-0.0])
    theta, losses, cycle = gradient_descent(c, LossSpec(), theta0, 5, 0.1)
    assert cycle == (1, 1)
    assert theta.tobytes() == np.array([0.0]).tobytes()
    assert losses[:5].tolist() == [-1.0, 1.0, 1.0, 1.0, 1.0]
    assert_plain_descent_bytes(c, LossSpec(), theta0, 5, 0.1)


@st.composite
def _descents(draw):
    n = draw(st.integers(1, 2))
    word = st.text(alphabet="IXYZ", min_size=n, max_size=n)
    words = draw(st.lists(word, min_size=1, max_size=4))
    # zeros of either sign and stationary angles as well as any angle
    angle = st.one_of(
        st.sampled_from([0.0, -0.0, np.pi / 2, np.pi]), st.floats(-2 * np.pi, 2 * np.pi)
    )
    theta0 = np.array([draw(angle) for _ in words])
    loss = draw(st.sampled_from([LossSpec(), LossSpec(kind="vqe_tfim", tfim_params=(1.0, 0.5))]))
    steps = draw(st.integers(0, 40))
    rate = draw(st.sampled_from([0.05, 0.1, 0.5, 1.0]))
    return CircuitSpec(n, [slot(n, w) for w in words]), loss, theta0, steps, rate


@settings(max_examples=60, deadline=None)
@given(_descents())
def test_descent_bytes_match_the_plain_loop_property(case):
    cycle = assert_plain_descent_bytes(*case)
    steps = case[3]
    assert cycle is None or (cycle[1] >= 1 and sum(cycle) < steps)
