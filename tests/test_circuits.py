"""Circuit evolution, exact derivatives, ansatz construction, serialization."""

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

from liepqc.circuits import (
    CircuitSpec,
    FixedGate,
    ParamSlot,
    build_ansatz,
    check_nondegeneracy,
    circuit_from_json,
    circuit_to_json,
    cz_ring_matrix,
)
from liepqc.lie import apply_lie_trunc, apply_random_trunc, lie_closure
from liepqc.pauli import PauliString, PauliSum, all_strings


def slot(n, letters, coeff=1.0):
    return ParamSlot(PauliSum.from_letters(n, letters, coeff))


def random_circuit(rng, n, n_slots):
    pool = [w for w in all_strings(n) if set(w) != {"I"}]
    picks = rng.choice(len(pool), size=min(n_slots, len(pool)), replace=False)
    return CircuitSpec(n, [slot(n, pool[i]) for i in picks])


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------


def test_evolve_identity_at_zero():
    c = CircuitSpec(1, [slot(1, "X")])
    np.testing.assert_allclose(c.evolve(np.zeros(1)), [1, 0], atol=1e-15)


def test_evolve_pauli_rotation():
    c = CircuitSpec(1, [slot(1, "X")])
    np.testing.assert_allclose(c.evolve([np.pi / 2]), [0, -1j], atol=1e-12)


def test_evolve_derived_dense_product():
    # oracle: explicit 4x4 matrix product with an independent expm
    c = CircuitSpec(2, [slot(2, "ZI"), slot(2, "XX")])
    theta = np.array([0.3, 0.7])
    u = scipy_expm(-1j * 0.7 * PauliString(2, "XX").dense()) @ scipy_expm(
        -1j * 0.3 * PauliString(2, "ZI").dense()
    )
    psi0 = np.array([1, 0, 0, 0], dtype=complex)
    np.testing.assert_allclose(c.evolve(theta), u @ psi0, atol=1e-12)


def test_evolve_theta_length_mismatch():
    c = CircuitSpec(1, [slot(1, "X")])
    with pytest.raises(ValueError):
        c.evolve(np.zeros(2))


def test_initial_state_must_be_normalized():
    with pytest.raises(ValueError):
        CircuitSpec(1, [slot(1, "X")], initial_state=np.array([1.0, 1.0]))


def test_norm_preservation_property():
    rng = np.random.default_rng(10)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        c = random_circuit(rng, n, int(rng.integers(1, 6)))
        theta = rng.uniform(0, 2 * np.pi, c.num_params)
        assert abs(np.linalg.norm(c.evolve(theta)) - 1.0) < 1e-10


def test_slot_order_sensitivity():
    # non-commuting generators: permuting slots changes the state
    a = CircuitSpec(1, [slot(1, "X"), slot(1, "Z")])
    b = CircuitSpec(1, [slot(1, "Z"), slot(1, "X")])
    theta = np.array([0.4, 0.9])
    assert np.linalg.norm(a.evolve(theta) - b.evolve(theta)) > 1e-3


# ---------------------------------------------------------------------------
# partials
# ---------------------------------------------------------------------------


def test_partials_single_slot():
    c = CircuitSpec(1, [slot(1, "X")])
    frame = c.tangent_frame(np.zeros(1))
    np.testing.assert_allclose(frame.partials[:, 0], [0, -1j], atol=1e-14)


def test_partials_derived_product_rule_oracle():
    # oracle: differentiate the explicit matrix product term by term
    c = CircuitSpec(2, [slot(2, "ZI"), slot(2, "XX")])
    theta = np.array([0.3, 0.7])
    zi = PauliString(2, "ZI").dense()
    xx = PauliString(2, "XX").dense()
    u1 = scipy_expm(-1j * theta[0] * zi)
    u2 = scipy_expm(-1j * theta[1] * xx)
    psi0 = np.array([1, 0, 0, 0], dtype=complex)
    want = np.stack([u2 @ (-1j * zi) @ u1 @ psi0, (-1j * xx) @ u2 @ u1 @ psi0], axis=1)
    frame = c.tangent_frame(theta)
    np.testing.assert_allclose(frame.partials, want, atol=1e-10)


def test_partials_match_finite_differences():
    rng = np.random.default_rng(11)
    h = 1e-5
    for _ in range(50):
        n = int(rng.integers(1, 4))
        c = random_circuit(rng, n, int(rng.integers(2, 6)))
        theta = rng.uniform(0, 2 * np.pi, c.num_params)
        frame = c.tangent_frame(theta)
        for k in range(c.num_params):
            tp, tm = theta.copy(), theta.copy()
            tp[k] += h
            tm[k] -= h
            fd = (c.evolve(tp) - c.evolve(tm)) / (2 * h)
            denom = max(np.linalg.norm(frame.partials[:, k]), 1e-2)
            assert np.linalg.norm(fd - frame.partials[:, k]) / denom <= 1e-6


def test_phase_projection_orthogonality():
    rng = np.random.default_rng(12)
    for _ in range(20):
        c = random_circuit(rng, 2, 4)
        theta = rng.uniform(0, 2 * np.pi, 4)
        frame = c.tangent_frame(theta)
        overlaps = frame.state.conj() @ frame.projected
        assert np.max(np.abs(overlaps)) < 1e-10


def test_partials_with_interleaved_fixed_gates():
    n = 2
    ops = [slot(n, "YI"), FixedGate(cz_ring_matrix(n), "cz"), slot(n, "XI")]
    c = CircuitSpec(n, ops)
    theta = np.array([0.8, 1.3])
    frame = c.tangent_frame(theta)
    h = 1e-5
    for k in range(2):
        tp, tm = theta.copy(), theta.copy()
        tp[k] += h
        tm[k] -= h
        fd = (c.evolve(tp) - c.evolve(tm)) / (2 * h)
        assert np.linalg.norm(fd - frame.partials[:, k]) < 1e-8


# ---------------------------------------------------------------------------
# nondegeneracy
# ---------------------------------------------------------------------------


def test_nondegeneracy_stabilizer_direction():
    c = CircuitSpec(1, [slot(1, "Z")])
    ok, witness = check_nondegeneracy(c)
    assert not ok and witness is None


def test_nondegeneracy_moving_direction():
    c = CircuitSpec(1, [slot(1, "X")])
    ok, witness = check_nondegeneracy(c)
    assert ok and witness == 0


def test_nondegeneracy_second_slot_witness():
    c = CircuitSpec(2, [slot(2, "ZI"), slot(2, "IX")])
    ok, witness = check_nondegeneracy(c)
    assert ok and witness == 1


# ---------------------------------------------------------------------------
# ansatz construction
# ---------------------------------------------------------------------------


def test_full_hea_layout_n2():
    c = build_ansatz("full_hea", 2, 1)
    assert c.num_params == 4
    labels = [op.generator_text() for op in c.param_slots]
    assert labels == ["YI", "IY", "ZI", "IZ"]
    fixed = [op for op in c.ops if isinstance(op, FixedGate)]
    assert len(fixed) == 1


def test_full_hea_param_count_n6_depth2():
    assert build_ansatz("full_hea", 6, 2).num_params == 24


def test_full_hea_span_dimension_derived():
    # oracle: rank of the HS Gram matrix of the distinct generators
    c = build_ansatz("full_hea", 3, 1)
    gens = [s.dense_generator() for s in c.param_slots]
    gram = np.array([[np.trace(a.conj().T @ b).real for b in gens] for a in gens])
    assert np.linalg.matrix_rank(gram, tol=1e-10) == 6
    assert c.num_params == 6


def test_cz_ring_edges():
    # n=2 has the single chain edge; n=3 closes the ring
    cz2 = cz_ring_matrix(2)
    assert np.allclose(np.diag(cz2), [1, 1, 1, -1])
    cz3 = cz_ring_matrix(3)
    # |111> picks up three -1 factors, |110> one
    assert np.diag(cz3)[7] == -1
    assert np.diag(cz3)[6] == -1


def test_unknown_family():
    with pytest.raises(ValueError):
        build_ansatz("mystery", 2, 1)


def test_derived_families_build():
    base = build_ansatz("full_hea", 2, 1)
    rt, _, _ = apply_random_trunc(base, keep=2, seed=0)
    assert rt.family == "random_trunc"
    assert rt.num_params == 4          # slot count unchanged
    lt, _, _ = apply_lie_trunc(base, lie_closure(base.skew_generators()))
    assert lt.family == "lie_trunc"
    assert lt.num_params == 4          # span dimension at n=2


def test_fixed_gate_must_be_unitary():
    with pytest.raises(ValueError):
        FixedGate(np.ones((2, 2)))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_circuit_json_round_trip():
    c = build_ansatz("full_hea", 2, 1)
    data = circuit_to_json(c)
    back = circuit_from_json(data)
    theta = np.array([0.1, 0.2, 0.3, 0.4])
    np.testing.assert_allclose(back.evolve(theta), c.evolve(theta), atol=1e-12)
    assert data["slots"][0] == {"kind": "param", "pauli": "YI"}


def test_circuit_json_dense_generator():
    gen = PauliSum(1, {"X": 0.6, "Z": 0.8}).dense()
    c = CircuitSpec(1, [ParamSlot(gen)])
    back = circuit_from_json(circuit_to_json(c))
    theta = np.array([0.5])
    np.testing.assert_allclose(back.evolve(theta), c.evolve(theta), atol=1e-12)


def test_polynomial_depth_budget():
    from liepqc.circuits import polynomial_depth_ok

    assert polynomial_depth_ok(build_ansatz("full_hea", 3, 2))       # 12 <= 4*9
    assert not polynomial_depth_ok(build_ansatz("full_hea", 2, 5), coeff=1.0, power=1)
