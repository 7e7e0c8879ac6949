"""Circuit evolution, exact derivatives, ansatz construction, serialization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm as scipy_expm

from liepqc.circuits import (
    CircuitSpec,
    FixedGate,
    ParamSlot,
    TangentFrame,
    build_ansatz,
    circuit_from_json,
    circuit_to_json,
    cz_ring_matrix,
)
from liepqc.lie import apply_lie_trunc, apply_random_trunc, lie_closure
from liepqc.pauli import PauliSum, all_strings
from liepqc.util import complex_to_json


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
    u = scipy_expm(-1j * 0.7 * PauliSum.from_letters(2, "XX").dense()) @ scipy_expm(
        -1j * 0.3 * PauliSum.from_letters(2, "ZI").dense()
    )
    psi0 = np.array([1, 0, 0, 0], dtype=complex)
    np.testing.assert_allclose(c.evolve(theta), u @ psi0, atol=1e-12)


def test_evolve_theta_length_mismatch():
    c = CircuitSpec(1, [slot(1, "X")])
    with pytest.raises(ValueError):
        c.evolve(np.zeros(2))
    with pytest.raises(ValueError):
        c.evolve(np.zeros((2, 1)))         # only tangent_frame takes a stack


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
    zi = PauliSum.from_letters(2, "ZI").dense()
    xx = PauliSum.from_letters(2, "XX").dense()
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


@st.composite
def _string_circuits(draw):
    n = draw(st.integers(1, 3))
    word = st.text(alphabet="IXYZ", min_size=n, max_size=n)
    words = draw(st.lists(word, min_size=1, max_size=6))
    angles = st.floats(0.0, 2 * np.pi)
    theta = np.array([draw(angles) for _ in words])
    return CircuitSpec(n, [slot(n, w) for w in words]), theta


@settings(max_examples=40, deadline=None)
@given(_string_circuits())
def test_partials_match_finite_differences_property(case):
    # criterion 5's bound: 1e-6 relative, the scale floored at 1e-2
    c, theta = case
    h = 1e-5
    frame = c.tangent_frame(theta)
    for k in range(c.num_params):
        tp, tm = theta.copy(), theta.copy()
        tp[k] += h
        tm[k] -= h
        fd = (c.evolve(tp) - c.evolve(tm)) / (2 * h)
        scale = max(np.linalg.norm(frame.partials[:, k]), np.linalg.norm(fd), 1e-2)
        assert np.linalg.norm(fd - frame.partials[:, k]) / scale <= 1e-6


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
# frame against the dense suffix-product oracle
# ---------------------------------------------------------------------------


def suffix_product_frame(c, theta):
    """The frame as a dense suffix-unitary pass: every op a BLAS product.

    A single-string slot applies its dense Pauli matrix ``p`` as
    ``cos * I - i sin * p`` (the matrix) or ``p @ state``; other slots and
    fixed gates use their own dense arithmetic.
    """
    def string_form(op):
        if not isinstance(op, ParamSlot):
            return None
        single = op.generator.single_string()
        if single is None or single[1].imag != 0.0:
            return None
        letters, coeff = single
        return float(coeff.real), PauliSum.from_letters(c.n_qubits, letters).dense()

    thetas, k = [], 0
    for op in c.ops:
        thetas.append(theta[k] if isinstance(op, ParamSlot) else None)
        k += isinstance(op, ParamSlot)
    states = [c.initial_state]
    for op, t in zip(c.ops, thetas):
        form = string_form(op)
        if form is not None:
            coeff, p = form
            states.append(np.cos(coeff * t) * states[-1] - 1j * np.sin(coeff * t) * (p @ states[-1]))
        elif isinstance(op, ParamSlot):
            states.append(op.apply(t, states[-1]))
        else:
            states.append(op.matrix_value @ states[-1])
    suffixes = [None] * len(c.ops)
    acc = np.eye(c.dim, dtype=complex)
    for i in range(len(c.ops) - 1, -1, -1):
        suffixes[i] = acc
        op, t, form = c.ops[i], thetas[i], string_form(c.ops[i])
        if form is not None:
            coeff, p = form
            acc = acc @ (np.cos(coeff * t) * np.eye(c.dim) - 1j * np.sin(coeff * t) * p)
        elif isinstance(op, ParamSlot):
            acc = acc @ op.matrix(t)
        else:
            acc = acc @ op.matrix_value
    partials = np.empty((c.dim, c.num_params), dtype=complex)
    k = 0
    for i, op in enumerate(c.ops):
        if isinstance(op, ParamSlot):
            form = string_form(op)
            if form is not None:
                gen_col = -1j * form[0] * (form[1] @ states[i + 1])
            else:
                gen_col = op.apply_generator(states[i + 1])
            partials[:, k] = suffixes[i] @ gen_col
            k += 1
    return TangentFrame(states[-1], partials)


def frame_models():
    """full_hea at n = 2..6, depths 1 to 3, with its two truncated models."""
    for n in range(2, 7):
        for depth in (1, 2, 3):
            base = build_ansatz("full_hea", n, depth)
            yield base
            yield apply_lie_trunc(base, lie_closure(base.skew_generators()))[0]
            yield apply_random_trunc(base, keep=n, seed=depth)[0]


def test_frame_bytes_match_suffix_product_oracle():
    rng = np.random.default_rng(21)
    for c in frame_models():
        for theta in (rng.uniform(-np.pi, np.pi, c.num_params), np.zeros(c.num_params)):
            got, want = c.tangent_frame(theta), suffix_product_frame(c, theta)
            for field in ("state", "partials", "projected"):
                assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), (
                    c.family, c.n_qubits, c.depth, field
                )
            assert c.evolve(theta).tobytes() == got.state.tobytes()


def random_unitary(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_frame_dense_paths_match_suffix_product_oracle():
    # a slot on all 64 strings, multi-string sums and non-diagonal fixed gates
    rng = np.random.default_rng(22)
    n = 3
    dense_gen = PauliSum(n, {w: rng.normal() / 4 for w in all_strings(n)})
    multi = PauliSum(n, {"XYI": 0.7, "IZZ": -0.4, "YII": 0.2})
    for last in (slot(n, "IXI"), FixedGate(random_unitary(rng, 8), "u"),
                 FixedGate(cz_ring_matrix(n), "cz")):
        ops = [
            slot(n, "YII"), ParamSlot(dense_gen), FixedGate(cz_ring_matrix(n), "cz"),
            ParamSlot(multi), FixedGate(random_unitary(rng, 8), "u"), slot(n, "ZZI", 0.5),
            last,
        ]
        c = CircuitSpec(n, ops)
        theta = rng.uniform(-np.pi, np.pi, c.num_params)
        got, want = c.tangent_frame(theta), suffix_product_frame(c, theta)
        for field in ("state", "partials", "projected"):
            np.testing.assert_allclose(getattr(got, field), getattr(want, field), atol=1e-12)


def _json_circuit(rng):
    """Three qubits from a document: a "matrix" slot for a multi-string sum,
    a non-sign fixed gate, and string slots around a CZ ring."""
    n = 3
    h = PauliSum(n, {"XYI": 0.7, "IZZ": -0.4, "YII": 0.2}).dense()
    return circuit_from_json({"n_qubits": n, "slots": [
        {"kind": "param", "pauli": "YII"},
        {"kind": "param", "matrix": complex_to_json(h)},
        {"kind": "fixed", "matrix": complex_to_json(random_unitary(rng, 8)), "label": "u"},
        {"kind": "param", "pauli": "IZX"},
        {"kind": "fixed", "matrix": complex_to_json(cz_ring_matrix(n)), "label": "cz"},
        {"kind": "param", "pauli": "XXI"},
    ]})


def test_stacked_frames_match_single_frames_bytes():
    rng = np.random.default_rng(23)
    for c in [*frame_models(), _json_circuit(rng)]:
        thetas = rng.uniform(-np.pi, 2 * np.pi, (5, c.num_params))
        thetas[2] = 0.0
        singles = [c.tangent_frame(theta) for theta in thetas]
        for lo, hi in ((0, 5), (3, 4), (1, 4)):
            stacked = c.tangent_frame(thetas[lo:hi])
            for s in range(lo, hi):
                for field in ("state", "partials", "projected"):
                    got = getattr(stacked, field)[s - lo]
                    assert got.tobytes() == getattr(singles[s], field).tobytes(), (
                        c.family, c.n_qubits, c.depth, field, s, (lo, hi)
                    )


def test_tangent_frame_rejects_bad_theta_shapes():
    c = CircuitSpec(1, [slot(1, "X")])
    for theta in (np.zeros(2), np.zeros((3, 2)), np.zeros((2, 1, 1)), 0.5):
        with pytest.raises(ValueError):
            c.tangent_frame(theta)


def test_string_slot_gather_bytes_match_dense_product():
    # basis states put exact zeros under every phase, where signs of zero differ
    for n in (1, 2):
        dim = 2 ** n
        states = [np.eye(dim, dtype=complex)[0], -np.eye(dim, dtype=complex)[-1],
                  1j * np.eye(dim, dtype=complex)[1]]
        for letters in all_strings(n):
            s = slot(n, letters, 0.5)
            p = PauliSum.from_letters(n, letters).dense()
            for psi in states:
                assert s.apply_generator(psi).tobytes() == (-1j * 0.5 * (p @ psi)).tobytes()
                for t in (0.7, -2.5):
                    want = np.cos(0.5 * t) * psi - 1j * np.sin(0.5 * t) * (p @ psi)
                    assert s.apply(t, psi).tobytes() == want.tobytes()


def test_sign_gate_detection():
    for n in (2, 3, 5):
        gate = FixedGate(cz_ring_matrix(n), "cz")
        assert gate.signs is not None
        assert np.array_equal(gate.signs, np.diag(cz_ring_matrix(n)))
    assert FixedGate(np.diag([1, 1j])).signs is None
    assert FixedGate(np.array([[0, 1], [1, 0]])).signs is None


# ---------------------------------------------------------------------------
# ansatz construction
# ---------------------------------------------------------------------------


def test_full_hea_repeats_one_layer_of_ops():
    # every layer holds the same objects: 2n slots and, for n >= 2, one CZ ring
    for n in (1, 2, 4):
        distinct = 2 * n + (n >= 2)
        for depth in (1, 2, 3):
            c = build_ansatz("full_hea", n, depth)
            assert len(c.ops) == depth * distinct
            assert len({id(op) for op in c.ops}) == distinct


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
    gens = [s.generator.dense() for s in c.param_slots]
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
    # a +-1 diagonal skips the dense U^H U product; every other gate pays it
    for bad in (np.ones((2, 2)), np.diag([1, 2]), np.eye(2, 4), np.eye(3), np.eye(1)):
        with pytest.raises(ValueError):
            FixedGate(bad)
    for n in (2, 3, 5):
        FixedGate(cz_ring_matrix(n))
    FixedGate(np.diag([1, 1j]))


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


def _matrix_slot_document():
    """One qubit: a "matrix" param slot for 0.6 X + 0.8 Z, then a "pauli" Z slot."""
    h = 0.6 * PauliSum.from_letters(1, "X").dense() + 0.8 * PauliSum.from_letters(1, "Z").dense()
    return h, {
        "n_qubits": 1,
        "slots": [{"kind": "param", "matrix": complex_to_json(h)},
                  {"kind": "param", "pauli": "Z"}],
    }


def test_circuit_json_matrix_slot_loads_as_pauli_sum():
    h, data = _matrix_slot_document()
    c = circuit_from_json(data)
    gen = c.param_slots[0].generator
    assert gen.terms == pytest.approx(PauliSum(1, {"X": 0.6, "Z": 0.8}).terms)
    theta = np.array([0.5, 0.0])
    want = scipy_expm(-0.5j * h) @ np.array([1, 0], dtype=complex)
    np.testing.assert_allclose(c.evolve(theta), want, atol=1e-12)


def test_circuit_json_matrix_slot_rejects_bad_matrices():
    for matrix in (np.array([[0, 1], [0, 0]]), np.eye(4)):   # not Hermitian; wrong shape
        data = {"n_qubits": 1, "slots": [{"kind": "param", "matrix": complex_to_json(matrix)}]}
        with pytest.raises(ValueError):
            circuit_from_json(data)


def test_circuit_json_matrix_slot_round_trip():
    _, data = _matrix_slot_document()
    parent = circuit_from_json(data)
    data_back = circuit_to_json(parent)
    assert data_back["slots"][0]["kind"] == "param" and "pauli" in data_back["slots"][0]
    back = circuit_from_json(data_back)
    assert back.param_slots[0].generator.terms == parent.param_slots[0].generator.terms
    theta = np.array([0.5, -1.1])
    assert back.evolve(theta).tobytes() == parent.evolve(theta).tobytes()
    assert lie_closure(back.skew_generators()).dim == lie_closure(parent.skew_generators()).dim


def test_slot_generator_must_be_a_hermitian_pauli_sum():
    with pytest.raises(TypeError):
        ParamSlot(np.diag([1.0, -1.0]))
    with pytest.raises(ValueError):
        ParamSlot(PauliSum.from_letters(1, "X", 1j))
