"""Exact Pauli algebra: products, phases, dense faithfulness, serialization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liepqc.circuits import ParamSlot
from liepqc.pauli import PauliSum, all_strings


def word(letters, coeff=1.0):
    return PauliSum.from_letters(len(letters), letters, coeff)


def test_product_xy_is_iz():
    assert (word("X") * word("Y")).terms == {"Z": 1j}


def test_product_involution():
    assert (word("X") * word("X")).terms == {"I": 1.0}


def test_product_disjoint_supports():
    assert (word("XI") * word("IY")).terms == {"XY": 1.0}


def test_product_qubit_mismatch_raises():
    with pytest.raises(ValueError):
        word("X") * word("XY")


def test_dense_faithful_random_pairs():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        pool = all_strings(n)
        ca, cb = complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())
        a = word(pool[rng.integers(len(pool))], ca)
        b = word(pool[rng.integers(len(pool))], cb)
        err = np.max(np.abs((a * b).dense() - a.dense() @ b.dense()))
        assert err <= 1e-12 * max(1.0, abs(ca) * abs(cb))


def _words(n: int):
    return st.text(alphabet="IXYZ", min_size=n, max_size=n)


@st.composite
def _string_pairs(draw):
    n = draw(st.integers(1, 3))
    coefficients = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)
    return tuple((draw(_words(n)), draw(coefficients)) for _ in range(2))


@settings(max_examples=60, deadline=None)
@given(_string_pairs())
def test_product_matches_dense_property(pair):
    (wa, ca), (wb, cb) = pair
    a, b = word(wa, ca), word(wb, cb)
    err = np.max(np.abs((a * b).dense() - a.dense() @ b.dense()))
    assert err <= 1e-12 * max(1.0, abs(ca) * abs(cb))


@st.composite
def _skew_triples(draw):
    n = draw(st.integers(1, 3))
    sums = []
    for _ in range(3):
        words = draw(st.lists(_words(n), min_size=1, max_size=4, unique=True))
        coeffs = draw(st.lists(st.floats(-2.0, 2.0), min_size=len(words), max_size=len(words)))
        sums.append(PauliSum(n, {w: 1j * c for w, c in zip(words, coeffs)}))
    return tuple(sums)


@settings(max_examples=40, deadline=None)
@given(_skew_triples())
def test_jacobi_identity_property(triple):
    a, b, c = triple
    resid = (
        a.commutator(b).commutator(c)
        + b.commutator(c).commutator(a)
        + c.commutator(a).commutator(b)
    )
    l1 = [sum(abs(v) for v in s.terms.values()) for s in triple]
    worst = max((abs(v) for v in resid.terms.values()), default=0.0)
    assert worst <= 1e-12 * (1.0 + l1[0] * l1[1] * l1[2])


def test_product_associative():
    rng = np.random.default_rng(8)
    pool = all_strings(3)
    for _ in range(50):
        a, b, c = (word(pool[rng.integers(len(pool))]) for _ in range(3))
        assert ((a * b) * c).terms == (a * (b * c)).terms


def test_unit_string_dense_props():
    for letters in ("X", "YZ", "XIZ"):
        m = word(letters).dense()
        assert np.allclose(m, m.conj().T)                       # Hermitian
        assert np.allclose(m @ m.conj().T, np.eye(m.shape[0]))  # unitary
        assert abs(np.trace(m)) < 1e-14                         # traceless
    ident = word("II").dense()
    assert np.trace(ident) == 4.0


class TestPauliSum:
    def test_hs_inner_exact(self):
        x = PauliSum.from_letters(3, "XII")
        z = PauliSum.from_letters(3, "ZII")
        assert x.hs_inner(x) == 8.0           # 2^3
        assert x.hs_inner(z) == 0.0
        assert PauliSum(3).hs_inner(z) == 0.0

    def test_hermiticity_flags(self):
        h = PauliSum(2, {"XI": 1.0, "ZZ": -0.5})
        assert h.is_hermitian() and not h.is_skew_hermitian()
        s = 1j * h
        assert s.is_skew_hermitian() and not s.is_hermitian()

    def test_commutator_matches_dense(self):
        rng = np.random.default_rng(3)
        pool = all_strings(2)
        for _ in range(30):
            a = PauliSum(2, {pool[rng.integers(16)]: complex(rng.normal(), rng.normal()),
                             pool[rng.integers(16)]: complex(rng.normal(), rng.normal())})
            b = PauliSum(2, {pool[rng.integers(16)]: complex(rng.normal(), rng.normal())})
            got = a.commutator(b).dense()
            want = a.dense() @ b.dense() - b.dense() @ a.dense()
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_operator_product_matches_dense(self):
        a = PauliSum(2, {"XY": 0.5, "ZI": 1.0})
        b = PauliSum(2, {"YY": -1.0, "IZ": 2.0})
        np.testing.assert_allclose((a * b).dense(), a.dense() @ b.dense(), atol=1e-14)

    def test_text_round_trip(self):
        s = PauliSum(3, {"XIZ": 1.0, "YYI": 0.25 + 0.5j})
        parsed = PauliSum.from_text(3, s.to_text())
        assert parsed.terms == pytest.approx(s.terms)

    def test_text_format_example(self):
        assert PauliSum.from_letters(3, "XIZ").to_text() == "1.0*XIZ"

    def test_single_string_detection(self):
        assert PauliSum.from_letters(2, "XY", 2.0).single_string() == ("XY", 2.0)
        assert PauliSum(2, {"XY": 1.0, "ZI": 1.0}).single_string() is None

    def test_qubit_mismatch_raises(self):
        with pytest.raises(ValueError):
            PauliSum.from_letters(2, "XY") + PauliSum.from_letters(3, "XYZ")


def test_rotation_dense_identity_at_zero():
    rotation = ParamSlot(PauliSum.from_letters(2, "XZ"))
    np.testing.assert_allclose(rotation.matrix(0.0), np.eye(4), atol=1e-15)


def test_rotation_dense_matches_series():
    theta = 0.37
    p = word("YX").dense()
    got = ParamSlot(PauliSum.from_letters(2, "YX")).matrix(theta)
    want = np.cos(theta) * np.eye(4) - 1j * np.sin(theta) * p
    np.testing.assert_allclose(got, want, atol=1e-15)
