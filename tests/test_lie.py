"""Closure engine, structured and random truncation, reduced models."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liepqc.circuits import CircuitSpec, ParamSlot, build_ansatz, circuit_to_json
from liepqc.lie import (
    apply_lie_trunc,
    apply_random_trunc,
    lie_closure,
    lie_trunc,
    random_trunc,
    truncated_circuit,
)
from liepqc.linalg import expm_skew
from liepqc.pauli import PauliSum, all_strings
from liepqc.verify import brute_force_closure_dim


def skew(n, letters, c=1.0):
    return PauliSum.from_letters(n, letters, 1j * c)


# ---------------------------------------------------------------------------
# lie_closure
# ---------------------------------------------------------------------------


def test_closure_abelian_single_generator():
    basis = lie_closure([skew(1, "X")])
    assert basis.dim == 1
    assert basis.closure_defect == 0.0
    assert basis.converged


def test_closure_su2():
    basis = lie_closure([skew(1, "X"), skew(1, "Z")])
    assert basis.dim == 3
    assert basis.depth_tags == [0, 0, 1]
    assert basis.closure_defect == 0.0


def test_closure_derived_oracle_case():
    # {iZ1, iZ2, iX1X2}: dimension fixed by the dense brute-force oracle
    gens = [skew(2, "ZI"), skew(2, "IZ"), skew(2, "XX")]
    basis = lie_closure(gens)
    oracle = brute_force_closure_dim([g.dense() for g in gens])
    assert basis.dim == oracle
    assert basis.closure_defect == 0.0


def test_closure_orthonormal_within_tolerance():
    gens = [skew(2, "ZI"), skew(2, "IZ"), skew(2, "XX")]
    basis = lie_closure(gens)
    for i, a in enumerate(basis.elements):
        for j, b in enumerate(basis.elements):
            target = 1.0 if i == j else 0.0
            assert abs(a.hs_inner(b) - target) <= 1e-8


def test_closure_idempotence():
    basis = lie_closure([skew(1, "X"), skew(1, "Z")])
    again = lie_closure(basis.elements)
    assert again.dim == basis.dim


@st.composite
def _skew_string_sets(draw):
    n = draw(st.integers(1, 3))
    words = st.text(alphabet="IXYZ", min_size=n, max_size=n).filter(lambda w: set(w) != {"I"})
    letters = draw(st.lists(words, min_size=1, max_size=4, unique=True))
    sign, size = st.sampled_from([-1.0, 1.0]), st.floats(0.1, 2.0)
    return [skew(n, w, draw(sign) * draw(size)) for w in letters]


@settings(max_examples=40, deadline=None)
@given(_skew_string_sets())
def test_closure_idempotence_property(gens):
    basis = lie_closure(gens)
    assert lie_closure(basis.elements).dim == basis.dim


def test_closure_dimension_invariant_under_remixing():
    rng = np.random.default_rng(21)
    gens = [skew(2, "ZI"), skew(2, "IZ"), skew(2, "XX")]
    base_dim = lie_closure(gens).dim
    for _ in range(5):
        while True:
            m = rng.standard_normal((3, 3))
            if abs(np.linalg.det(m)) > 0.1:
                break
        mixed = []
        for row in m:
            acc = PauliSum(2)
            for coeff, g in zip(row, gens):
                acc = acc + float(coeff) * g
            mixed.append(acc)
        assert lie_closure(mixed).dim == base_dim


def test_closure_cap_flags_defect():
    # su(2) capped at 2 elements: not converged, bracket residual reported
    basis = lie_closure([skew(1, "X"), skew(1, "Z")], max_dim=2)
    assert basis.dim == 2
    assert not basis.converged
    assert basis.closure_defect > 0.1


def test_closure_closed_at_its_own_cap_is_converged():
    # su(2) fills a cap of 3 exactly: nothing lies outside, so nothing is cut off
    for gens in ([skew(1, "X"), skew(1, "Y"), skew(1, "Z")], [skew(1, "X"), skew(1, "Y")]):
        basis = lie_closure(gens, max_dim=3)
        assert basis.dim == 3
        assert basis.converged
        assert basis.closure_defect == 0.0


def test_closure_requires_skew():
    with pytest.raises(ValueError):
        lie_closure([PauliSum.from_letters(1, "X", 1.0)])


def test_closure_rejects_a_cap_below_one():
    for cap in (0, -1):
        with pytest.raises(ValueError):
            lie_closure([skew(1, "X"), skew(1, "Z")], max_dim=cap)


def test_closure_rejects_a_cap_below_the_span():
    # X and Z span two directions, which a cap of one cannot report
    with pytest.raises(ValueError, match="above max_dim 1"):
        lie_closure([skew(1, "X"), skew(1, "Z")], max_dim=1)


def test_closure_rejects_a_span_that_underflows():
    # |c|^2 underflows to 0, so the generator's HS norm is 0: an empty span,
    # which raises like an empty generator list instead of dim 0, converged
    with pytest.raises(ValueError):
        lie_closure([PauliSum(1, {"X": 1.585e-301j})])
    with pytest.raises(ValueError):
        lie_closure([])


def test_closure_matches_oracle_on_random_sets():
    rng = np.random.default_rng(22)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        pool = [w for w in all_strings(n) if set(w) != {"I"}]
        count = int(rng.integers(2, min(4, len(pool)) + 1))
        picks = rng.choice(len(pool), size=count, replace=False)
        gens = [skew(n, pool[i]) for i in picks]
        assert lie_closure(gens).dim == brute_force_closure_dim([g.dense() for g in gens])


# ---------------------------------------------------------------------------
# lie_trunc
# ---------------------------------------------------------------------------


def test_lie_trunc_identity_when_span_closed():
    # commuting generators: closure is the span, truncation changes nothing
    gens = [skew(2, "ZI"), skew(2, "IZ")]
    closure = lie_closure(gens)
    trunc, report = lie_trunc(closure, gens)
    assert report.truncated_dim == report.original_dim == 2
    assert report.closure_defect_after == 0.0
    assert report.span_preserved


def test_lie_trunc_su2_budget_three():
    gens = [skew(1, "X"), skew(1, "Z")]
    closure = lie_closure(gens)
    trunc, report = lie_trunc(closure, gens, depth_cap=1, dim_budget=3)
    assert trunc.dim == 3
    assert report.kept_depths == {0: 2, 1: 1}
    assert report.closure_defect_after == pytest.approx(0.0, abs=1e-12)


def test_lie_trunc_budget_below_span_raises():
    gens = [skew(1, "X"), skew(1, "Z")]
    closure = lie_closure(gens)
    with pytest.raises(ValueError):
        lie_trunc(closure, gens, dim_budget=1)


def test_lie_trunc_always_span_preserved():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(2, 4))
        pool = [w for w in all_strings(n) if set(w) != {"I"}]
        picks = rng.choice(len(pool), size=3, replace=False)
        gens = [skew(n, pool[i]) for i in picks]
        closure = lie_closure(gens)
        trunc, report = lie_trunc(closure, gens, depth_cap=2,
                                  dim_budget=min(closure.dim, 5))
        assert report.span_preserved
        # every generator lies in the selected span
        for g in gens:
            r = g
            for _ in range(2):
                for b in trunc.elements:
                    r = r - b.hs_inner(r) * b
            assert r.hs_norm() <= 1e-9


# ---------------------------------------------------------------------------
# random_trunc
# ---------------------------------------------------------------------------


def test_random_trunc_keep_all_degenerate_case():
    gens = [skew(2, "ZI"), skew(2, "IZ"), skew(2, "XX")]
    basis, report = random_trunc(gens, keep=3, seed=0)
    assert basis.dim == 3
    assert report.span_preserved


def test_random_trunc_collapses_span():
    gens = [skew(2, "ZI"), skew(2, "IZ"), skew(2, "XX")]
    basis, report = random_trunc(gens, keep=2, seed=5)
    assert basis.dim == 2
    assert not report.span_preserved


def test_random_trunc_keep_out_of_range():
    gens = [skew(2, "ZI"), skew(2, "IZ")]
    with pytest.raises(ValueError):
        random_trunc(gens, keep=3, seed=0)


def test_random_trunc_seed_deterministic():
    gens = [skew(2, w) for w in ("ZI", "IZ", "XX", "YI", "IX")]
    a, _ = random_trunc(gens, keep=2, seed=9)
    b, _ = random_trunc(gens, keep=2, seed=9)
    assert [e.to_text() for e in a.elements] == [e.to_text() for e in b.elements]


def test_random_trunc_rank_bound_any_theta():
    # reassigned circuit's metric rank never exceeds the kept direction count
    from liepqc.geometry import fs_metric_at, metric_rank

    rng = np.random.default_rng(24)
    base = build_ansatz("full_hea", 3, 1)
    for seed in range(5):
        model, _, _ = apply_random_trunc(base, keep=2, seed=seed)
        for _ in range(4):
            theta = rng.uniform(0, 2 * np.pi, model.num_params)
            g = fs_metric_at(model, theta)
            assert metric_rank(np.linalg.eigvalsh(g)[::-1], 1e-8) <= 2


def test_reassignment_preserves_slot_count():
    base = build_ansatz("full_hea", 4, 2)
    model, basis, report = apply_random_trunc(base, keep=2, seed=3)
    assert model.num_params == base.num_params
    assert report.truncated_dim == 2


# ---------------------------------------------------------------------------
# truncated models
# ---------------------------------------------------------------------------


def _single_exp_state(model, c):
    """exp(sum_j c_j (-i H_j)) |psi0> over the model's slot generators."""
    skew = sum(cj * (-1j) * slot.generator.dense() for cj, slot in zip(c, model.param_slots))
    return expm_skew(skew) @ model.initial_state


def test_truncated_circuit_single_element_forms_agree():
    basis = lie_closure([skew(1, "X")])
    prod = truncated_circuit(basis)
    c = np.array([0.73])
    np.testing.assert_allclose(prod.evolve(c), _single_exp_state(prod, c), atol=1e-10)


def test_truncated_circuit_zero_params_give_initial_state():
    basis = lie_closure([skew(2, "XI"), skew(2, "IY")])
    model = truncated_circuit(basis)
    psi = model.evolve(np.zeros(model.num_params))
    want = np.zeros(4, dtype=complex)
    want[0] = 1.0
    np.testing.assert_allclose(psi, want, atol=1e-12)


def test_truncated_forms_first_order_agreement():
    # Baker-Campbell-Hausdorff: product and single-exponential forms differ at
    # second order in ||c||
    basis = lie_closure([skew(1, "X"), skew(1, "Y")], max_dim=2)
    prod = truncated_circuit(basis)
    rng = np.random.default_rng(25)
    for _ in range(5):
        c = rng.standard_normal(2)
        c *= 1e-3 / np.linalg.norm(c)
        gap = np.linalg.norm(prod.evolve(c) - _single_exp_state(prod, c))
        assert gap <= 5.0 * np.linalg.norm(c) ** 2


def test_truncated_circuit_empty_basis_raises():
    basis = lie_closure([skew(1, "X")])
    basis.elements = []
    basis.depth_tags = []
    with pytest.raises(ValueError):
        truncated_circuit(basis)


def test_adjoint_proxy_is_lazy_pairwise_bracket_maximum():
    gens = build_ansatz("full_hea", 2, 1).skew_generators()
    closure = lie_closure(gens)
    trunc, _ = lie_trunc(closure, gens, depth_cap=1, dim_budget=5)
    for basis in (closure, trunc):
        assert "adjoint_proxy" not in vars(basis)
        want = max(
            a.commutator(b).hs_norm()
            for i, a in enumerate(basis.elements)
            for b in basis.elements[i + 1:]
        )
        assert basis.adjoint_proxy == want
        assert basis.to_json()["adjoint_proxy"] == want


def test_lie_trunc_model_slots_recover_unit_strings():
    # span-preserving truncation of the HEA returns plain Pauli rotations
    base = build_ansatz("full_hea", 2, 2)
    model, basis, report = apply_lie_trunc(base, lie_closure(base.skew_generators()))
    texts = sorted(op.generator_text() for op in model.param_slots)
    assert texts == ["IY", "IZ", "YI", "ZI"]
    assert report.truncated_dim == 4


# ---------------------------------------------------------------------------
# Text outputs, pinned byte for byte
# ---------------------------------------------------------------------------


def _multi_string_circuit():
    rng = np.random.default_rng(5)
    words = [("ZZI", "XII"), ("IZZ", "IXI"), ("IIX", "ZIZ"), ("XII", "IXI", "IIX")]
    return CircuitSpec(
        3, [ParamSlot(PauliSum(3, {w: float(rng.normal()) for w in ws})) for ws in words]
    )


# sha256 of the JSON that `liepqc closure` and `liepqc truncate --mode lie` /
# `--mode random` (keep 2, seed 0) print; a change of term order, of a signed
# zero or of a last bit in any element shows here
PINNED_TEXT = {
    "full_hea_n2": (
        "cd91d0f54382a2ab2de80a515d3e1ecc39a7fa05bff15734d40d025ffd46482b",
        "1125c2d43b3ea90f67bd89135fd097b7bdd56728c23eb512a97788e17ef77627",
        "85228c97413ad1d8da9939ebb81222a8981877ca629a5897085855cf0d305529",
    ),
    "full_hea_n3": (
        "a911d1233c8efc5e03282457d416116d70ca7b1aeb69f951f58ffe7994b1bbb2",
        "a0c4cd79b76b54865b373e3a9b33df0468971951f0f11c37ce33b3097e68cb14",
        "9baf962a291906d10b16f71e03fb82de6277c404a85023f62be824213b704130",
    ),
    "full_hea_n4": (
        "197b95f79ac943fb9b19fefd094bbf8b3a0c059e625ab0d1cb00074b59db53d4",
        "8f98c459f5570af2f9cef2e116dcc0aa1575f2e57e5a26fb4d69bdd948942527",
        "c6de96931d5624f39487dce92589850b73cd1039c1b65c1e82b2a77123ca1423",
    ),
    "multi_string_n3": (
        "7cee5a837f57959216778bee9810acc416a19e9d8f204a47adda92948cd9dcf3",
        "d69777b0aad5243f05b81e3f449614a39db2be4ccbf0a588024631b7ae483115",
        "22521e5ee42dc1aceec9d83e78e08ebf6bfae37570e75f94768e7809d09ea146",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_TEXT))
def test_closure_and_truncation_json_bytes_are_pinned(name):
    circuit = _multi_string_circuit() if name.startswith("multi") else build_ansatz(
        "full_hea", int(name[-1]), 2
    )
    closure = lie_closure(circuit.skew_generators())
    texts = [json.dumps(closure.to_json(), indent=2)]
    for model, basis, report in (
        apply_lie_trunc(circuit, closure),
        apply_random_trunc(circuit, keep=2, seed=0),
    ):
        doc = {"basis": basis.to_json(), "report": report.to_json(), "model": circuit_to_json(model)}
        texts.append(json.dumps(doc, indent=2))
    assert tuple(hashlib.sha256(t.encode()).hexdigest() for t in texts) == PINNED_TEXT[name]
