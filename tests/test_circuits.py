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
    _as_blas_sum,
    _one_term_product,
    build_ansatz,
    circuit_from_json,
    circuit_to_json,
    cz_ring_matrix,
)
from liepqc.lie import apply_lie_trunc, apply_random_trunc, lie_closure
from liepqc.linalg import matvec
from liepqc.pauli import PauliSum, all_strings
from liepqc.util import complex_to_json


def slot(n, letters, coeff=1.0):
    return ParamSlot(PauliSum.from_letters(n, letters, coeff))


def slot_trig(op, t):
    """A slot's (theta, cos, 1j * sin) arguments, as a frame takes them."""
    return t, np.cos(op.coeff * t), 1j * np.sin(op.coeff * t)


def dense_diag(values):
    """diag(values) as a dense matrix, or a stack of them for (S, dim)."""
    out = np.zeros((*values.shape, values.shape[-1]), dtype=complex)
    idx = np.arange(values.shape[-1])
    out[..., idx, idx] = values
    return out


def dense_rotation(op, t):
    """The slot's backward rotation as a dense matrix, a diagonal one spread out."""
    m = op.rotation(*slot_trig(op, t))
    return dense_diag(m) if op.diagonal else m


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
            states.append(op.apply(states[-1], *slot_trig(op, t)))
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
            acc = acc @ op.rotation(*slot_trig(op, t))
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
    """full_hea at n = 2..6, depths 1 to 3, and at n = 7, depth 1, with its
    two truncated models."""
    for n, depths in [*((n, (1, 2, 3)) for n in range(2, 7)), (7, (1,))]:
        for depth in depths:
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


@st.composite
def _diagonal_circuits(draw):
    """Unit-coefficient string slots (Z-only strings among them) mixed with
    +-1 diagonal gates and CZ rings, and an (S, L) stack of angles that
    includes 0 and +-pi: up to six qubits and eight rows, the variance
    stage's stack at n = 6."""
    n = draw(st.integers(1, 6))
    z_word = st.text(alphabet="IZ", min_size=n, max_size=n)
    xy_word = st.text(alphabet="IXYZ", min_size=n, max_size=n).filter(
        lambda w: "X" in w or "Y" in w
    )
    kinds = ["z", "xy", "signs"] + (["cz"] if n >= 2 else [])
    ops = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=8)):
        if kind == "z":
            ops.append(slot(n, draw(z_word)))
        elif kind == "xy":
            ops.append(slot(n, draw(xy_word)))
        elif kind == "signs":
            signs = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=2 ** n, max_size=2 ** n))
            ops.append(FixedGate(np.diag(np.array(signs, dtype=complex)), "signs"))
        else:
            ops.append(FixedGate(cz_ring_matrix(n), "cz"))
    if not any(isinstance(op, ParamSlot) for op in ops):
        ops.append(slot(n, draw(z_word)))
    c = CircuitSpec(n, ops)
    angle = st.one_of(
        st.sampled_from([0.0, -0.0, np.pi, -np.pi, np.pi / 2]), st.floats(-2 * np.pi, 2 * np.pi)
    )
    rows = draw(st.integers(1, 8))
    thetas = np.array([[draw(angle) for _ in range(c.num_params)] for _ in range(rows)])
    return c, thetas


@settings(max_examples=80, deadline=None)
@given(_diagonal_circuits())
def test_diagonal_products_match_suffix_product_oracle_bytes(case):
    # the backward pass's entrywise products (a diagonal acc, a diagonal
    # rotation or sign gate) against the all-BLAS oracle, one point and stacked
    c, thetas = case
    stacked = c.tangent_frame(thetas)
    for s, theta in enumerate(thetas):
        want = suffix_product_frame(c, theta)
        single = c.tangent_frame(theta)
        for field in ("state", "partials", "projected"):
            assert getattr(single, field).tobytes() == getattr(want, field).tobytes(), field
            assert getattr(stacked, field)[s].tobytes() == getattr(want, field).tobytes(), field


def _one_term_inputs(rng, shape):
    """Complex entries with exact zeros of both signs, +-1 and +-1j mixed in."""
    z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    special = np.array([0.0, -0.0, 1.0, -1.0])
    for part in (z.real, z.imag):
        mask = rng.random(shape) < 0.3
        part[mask] = rng.choice(special, size=int(mask.sum()))
    return z


def _diagonal_factors(rng, dim):
    """Diagonals the backward pass multiplies by: random ones with special
    entries, a +-1+0j sign vector, and a Z-string rotation at angle 0 and pi."""
    n = int(np.log2(dim))
    z_slot = slot(n, "Z" * n)
    yield _one_term_inputs(rng, dim)
    yield rng.choice([1.0, -1.0], size=dim) + 0j
    for t in (0.0, np.pi):
        yield z_slot.rotation(*slot_trig(z_slot, t))


def test_one_term_product_bytes_match_blas():
    # the rule behind every entrywise product of the backward pass:
    # re = (ar*br + 0) - (ai*bi + 0), im = (ar*bi + 0) + (ai*br + 0), each
    # product rounded; BLAS sums a one-term entry that way from dim 4 up
    rng = np.random.default_rng(41)
    for n in range(2, 9):
        dim = 2 ** n
        for diag in _diagonal_factors(rng, dim):
            full = _one_term_inputs(rng, (dim, dim))
            vec = _one_term_inputs(rng, dim)
            d = np.diag(diag)
            assert _one_term_product(diag[:, None], full).tobytes() == (d @ full).tobytes(), dim
            assert _one_term_product(full, diag[None, :]).tobytes() == (full @ d).tobytes(), dim
            assert _one_term_product(diag, vec).tobytes() == (d @ vec).tobytes(), dim
            assert _one_term_product(diag, diag).tobytes() == (d @ d).diagonal().tobytes(), dim
        # stacked: numpy's matmul runs BLAS slice by slice
        diags = _one_term_inputs(rng, (3, dim))
        fulls = _one_term_inputs(rng, (3, dim, dim))
        vecs = _one_term_inputs(rng, (3, dim))
        ds = np.zeros((3, dim, dim), dtype=complex)
        ds[:, np.arange(dim), np.arange(dim)] = diags
        assert _one_term_product(diags[..., None], fulls).tobytes() == (ds @ fulls).tobytes()
        assert _one_term_product(fulls, diags[:, None, :]).tobytes() == (fulls @ ds).tobytes()
        assert _one_term_product(diags, vecs).tobytes() == matvec(ds, vecs).tobytes()
        # numpy's complex * rounds otherwise, so a BLAS that did the same would
        # fail here and not only in the CSV pin
        a, b = rng.normal(size=(2, dim)) + 1j * rng.normal(size=(2, dim))
        full = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        assert (a[:, None] * full).tobytes() != (np.diag(a) @ full).tobytes(), dim
        assert (a[:, None] * full).tobytes() != _one_term_product(a[:, None], full).tobytes()
        assert (a * b).tobytes() != _one_term_product(a, b).tobytes(), dim


def frame_trig(op, t):
    """A slot's (theta, cos, 1j * sin) as a frame's backward pass takes them:
    cos complex, 0-d arrays for one angle and (S, 1) columns for a stack."""
    t = np.asarray(t, dtype=float)
    return t, np.cos(op.coeff * t).astype(complex), 1j * np.sin(op.coeff * t)


def test_backward_product_forms_match_blas_bytes():
    # each cheaper exact form the backward pass takes against the BLAS
    # product it stands for, d = 4 ... 256, one point and stacks of 3, with
    # exact zeros of both signs, +-1 and +-1j entries.  A Z-string rotation's
    # entries are complex, so numpy's fused * against them fails and the
    # split into cos and -1j * sin * P's phases is what holds.  A sign
    # vector's and an X/Y-string rotation's entries are each purely real or
    # purely imaginary, so * against them rounds each product once as BLAS
    # does; there the final +0 is what the bare product fails on, and a
    # diagonal acc times an X/Y rotation is written on the rotation's support
    rng = np.random.default_rng(44)
    for n in range(2, 9):
        dim = 2 ** n
        gate = FixedGate(np.diag(rng.choice([1.0, -1.0], dim) + 0j), "signs")
        z_slot, xy_slot = slot(n, "Z" * (n - 1) + "I", -0.5), slot(n, "Y" + "Z" * (n - 1))
        for batch in ((), (3,)):
            acc = _one_term_inputs(rng, (*batch, dim, dim))
            diag = _one_term_inputs(rng, (*batch, dim))
            angles = rng.uniform(-np.pi, np.pi, (*batch, 1)) if batch else 0.7
            stacked = bool(batch)

            want = acc @ gate.matrix_value
            assert gate._absorb(acc, False)[0].tobytes() == want.tobytes(), dim
            assert (acc * gate.signs).tobytes() != want.tobytes(), dim
            want = (dense_diag(diag) @ gate.matrix_value).diagonal(axis1=-2, axis2=-1)
            assert gate._absorb(diag, True)[0].tobytes() == want.tobytes(), dim

            for op in (z_slot, xy_slot):
                trig = frame_trig(op, angles)
                rot = dense_rotation(op, angles)
                vec = rot.diagonal(axis1=-2, axis2=-1)
                # a diagonal acc keeps one nonzero term per entry against any rotation
                want = dense_diag(diag) @ rot
                got, got_diagonal = op._absorb(diag, True, stacked, *trig)
                if got_diagonal:
                    want = want.diagonal(axis1=-2, axis2=-1)
                    assert (diag * vec).tobytes() != want.tobytes(), dim
                else:
                    assert (diag[..., :, None] * rot).tobytes() != want.tobytes(), dim
                assert got.tobytes() == want.tobytes(), (dim, op.diagonal, batch)
            want = acc @ dense_rotation(z_slot, angles)
            got, _ = z_slot._absorb(acc, False, stacked, *frame_trig(z_slot, angles))
            assert got.tobytes() == want.tobytes(), (dim, batch)
            vec = dense_rotation(z_slot, angles).diagonal(axis1=-2, axis2=-1)
            assert (acc * vec[..., None, :]).tobytes() != want.tobytes(), dim
            # an X/Y rotation times a dense acc stays a BLAS product; its
            # matrix matches the dense expression once zeros are +0
            got = _as_blas_sum(xy_slot.rotation(*frame_trig(xy_slot, angles)))
            expr = np.cos(angles)[..., None] * np.eye(dim) - 1j * np.sin(angles)[..., None] * (
                PauliSum.from_letters(n, "Y" + "Z" * (n - 1)).dense()
            )
            assert got.tobytes() == _as_blas_sum(expr).tobytes(), dim


def test_matvec_dot_bytes_match_matmul():
    # one-point matvec goes through np.dot: the gemv of @, with less call
    # overhead; also for the gradient's conjugate-transposed (L, dim) view
    rng = np.random.default_rng(45)
    for n in range(2, 9):
        dim = 2 ** n
        for width in (dim, 3 * n):
            m = _one_term_inputs(rng, (dim, width))
            u, v = _one_term_inputs(rng, width), _one_term_inputs(rng, dim)
            assert matvec(m, u).tobytes() == (m @ u).tobytes(), (dim, width)
            mh = np.swapaxes(m.conj(), -1, -2)
            assert matvec(mh, v).tobytes() == (mh @ v).tobytes(), (dim, width)
            # numpy's fused complex * with its pairwise sum rounds otherwise
            assert (mh * v).sum(axis=-1).tobytes() != matvec(mh, v).tobytes(), (dim, width)
        ms = _one_term_inputs(rng, (3, dim, dim))
        vs = _one_term_inputs(rng, (3, dim))
        assert matvec(ms, vs).tobytes() == np.stack([m @ v for m, v in zip(ms, vs)]).tobytes()


def test_one_qubit_frames_keep_blas_products():
    # at dim 2 OpenBLAS rounds a one-term product on another path, so a
    # one-qubit circuit takes no entrywise product: no diagonal slot, no sign gate
    assert not slot(1, "Z").diagonal
    assert FixedGate(np.diag([1.0, -1.0])).signs is None
    assert slot(2, "ZZ").diagonal and slot(2, "IZ").diagonal
    assert not slot(2, "XZ").diagonal and not slot(3, "IYI").diagonal
    # two trailing Z rotations make a product of two general complex
    # diagonals, where the two roundings part in most draws
    c = CircuitSpec(1, [slot(1, w) for w in "YXZZ"])
    for theta in np.random.default_rng(43).uniform(-np.pi, np.pi, (20, 4)):
        got, want = c.tangent_frame(theta), suffix_product_frame(c, theta)
        assert got.partials.tobytes() == want.partials.tobytes()


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
                    assert s.apply(psi, *slot_trig(s, t)).tobytes() == want.tobytes()


def test_string_slot_matrix_bytes_match_dense_expression():
    # the old dense build, cos * I - 1j * sin * P, is the oracle.  Its zeros
    # carry either sign, and the new build may differ from it only in those
    # signs: every product that reads the matrix sums from +0, which is what
    # _as_blas_sum gives, and the frame oracle tests check those products' bytes
    rng = np.random.default_rng(31)
    angles = np.concatenate([
        [0.0, -0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi], rng.uniform(-7.0, 7.0, 6),
    ])
    stack = angles.reshape(-1, 1)
    for n in (1, 2, 3):
        eye = np.eye(2 ** n)
        for letters in all_strings(n):
            p = PauliSum.from_letters(n, letters).dense()
            for coeff in (1.0, -0.5, 2.0):
                s = slot(n, letters, coeff)
                for t in angles:
                    want = _as_blas_sum(np.cos(coeff * t) * eye - 1j * np.sin(coeff * t) * p)
                    got = _as_blas_sum(dense_rotation(s, t))
                    assert got.tobytes() == want.tobytes(), (letters, coeff, t)
                want = _as_blas_sum(
                    np.cos(coeff * stack[..., None]) * eye - 1j * np.sin(coeff * stack[..., None]) * p
                )
                got = _as_blas_sum(dense_rotation(s, stack))
                assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_string_slot_holds_no_dense_matrix():
    # a single-string slot keeps O(dim) arrays: its gather and its support
    def arrays(value):
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, (tuple, list)):
            for item in value:
                yield from arrays(item)

    for n in (1, 3, 5):
        dim = 2 ** n
        for letters in ("Z" * n, "X" + "I" * (n - 1), "Y" * n):
            held = list(arrays(list(vars(slot(n, letters, -0.5)).values())))
            assert held and max(a.size for a in held) <= 2 * dim, (letters, [a.shape for a in held])


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
