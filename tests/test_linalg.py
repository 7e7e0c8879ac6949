"""Dense operator helpers (commutators, eigensolves, exponentials) and the
Hilbert-Schmidt Gram-Schmidt the closure runs on Pauli sums."""

import numpy as np
import pytest

from liepqc.circuits import ParamSlot
from liepqc.lie import orthonormalize_sums
from liepqc.linalg import (
    commutator,
    expm_skew,
    hermitian_eig,
    is_hermitian,
    is_skew_hermitian,
    op_norm,
)
from liepqc.pauli import PauliSum, all_strings

X = PauliSum.from_letters(1, "X").dense()
Y = PauliSum.from_letters(1, "Y").dense()
Z = PauliSum.from_letters(1, "Z").dense()


def _random_skew(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (g - g.conj().T)


def test_commutator_su2():
    np.testing.assert_allclose(commutator(X, Y), 2j * Z, atol=1e-15)


def test_commutator_derived_two_qubit():
    # oracle: expand both operator orders densely
    xx = PauliSum.from_letters(2, "XX").dense()
    zi = PauliSum.from_letters(2, "ZI").dense()
    want = xx @ zi - zi @ xx
    got = commutator(xx, zi)
    np.testing.assert_allclose(got, want, atol=1e-15)
    np.testing.assert_allclose(got, -2j * PauliSum.from_letters(2, "YX").dense(), atol=1e-15)


def test_commutator_antisymmetry():
    rng = np.random.default_rng(0)
    a = _random_skew(rng, 4)
    np.testing.assert_allclose(commutator(a, a), np.zeros((4, 4)), atol=1e-15)


def test_commutator_dim_mismatch():
    with pytest.raises(ValueError):
        commutator(X, PauliSum.from_letters(2, "XX").dense())


def test_commutator_preserves_skew():
    rng = np.random.default_rng(1)
    a, b = _random_skew(rng, 8), _random_skew(rng, 8)
    assert is_skew_hermitian(commutator(a, b))


def test_jacobi_identity():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a, b, c = (_random_skew(rng, 4) for _ in range(3))
        resid = (commutator(commutator(a, b), c)
                 + commutator(commutator(b, c), a)
                 + commutator(commutator(c, a), b))
        assert np.max(np.abs(resid)) < 1e-10


def test_hermitian_eig_trivial():
    vals, _ = hermitian_eig(Z)
    np.testing.assert_allclose(vals, [1.0, -1.0])
    vals, _ = hermitian_eig(np.eye(4))
    np.testing.assert_allclose(vals, np.ones(4))


def test_hermitian_eig_derived_case():
    h = PauliSum.from_letters(2, "XX").dense() + PauliSum.from_letters(2, "ZI").dense()
    oracle = np.sort(np.linalg.eigvalsh(h))[::-1]
    vals, vecs = hermitian_eig(h)
    np.testing.assert_allclose(vals, oracle, atol=1e-12)
    root2 = np.sqrt(2.0)
    np.testing.assert_allclose(vals, [root2, root2, -root2, -root2], atol=1e-12)
    recon = (vecs * vals) @ vecs.conj().T
    assert np.linalg.norm(recon - h) / np.linalg.norm(h) < 1e-10


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eig(1j * X)


def test_expm_skew_pauli_rotation():
    # exp(-i (pi/2) X) |0> = -i |1>
    u = expm_skew(-1j * X, np.pi / 2)
    state = u @ np.array([1, 0], dtype=complex)
    np.testing.assert_allclose(state, [0, -1j], atol=1e-12)


def test_expm_skew_zero():
    np.testing.assert_allclose(expm_skew(np.zeros((4, 4)), 1.0), np.eye(4), atol=1e-15)


def test_expm_skew_diagonal_derived():
    # exp(-i (pi/3) Z@Z)|00> = e^{-i pi/3}|00>, same through the eigensolver
    # and the closed-form Pauli rotation of a circuit slot
    zz = PauliSum.from_letters(2, "ZZ")
    psi0 = np.array([1, 0, 0, 0], dtype=complex)
    fast = ParamSlot(zz).apply(np.pi / 3, psi0)
    eig = expm_skew(-1j * zz.dense(), np.pi / 3) @ psi0
    np.testing.assert_allclose(fast, eig, atol=1e-12)
    np.testing.assert_allclose(fast[0], np.exp(-1j * np.pi / 3), atol=1e-12)


def test_expm_fast_path_matches_eig_path():
    # closed form cos(ct) I - i sin(ct) P of a string slot against exp(-i t cP)
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        pool = [w for w in all_strings(n) if set(w) != {"I"}]
        h = PauliSum.from_letters(n, pool[rng.integers(len(pool))], rng.uniform(0.1, 2.0))
        t = rng.uniform(0.1, 2.0)
        np.testing.assert_allclose(
            ParamSlot(h).matrix(t), expm_skew(-1j * h.dense(), t), atol=1e-10
        )


def test_expm_unitary_and_inverse():
    rng = np.random.default_rng(6)
    for _ in range(20):
        x = _random_skew(rng, 8)
        t = rng.uniform(0.1, 2.0)
        u = expm_skew(x, t)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(8), atol=1e-10)
        np.testing.assert_allclose(u @ expm_skew(x, -t), np.eye(8), atol=1e-10)


def test_expm_rejects_non_skew():
    with pytest.raises(ValueError):
        expm_skew(X, 1.0)


def test_op_norm_values():
    assert op_norm(PauliSum.from_letters(2, "XY").dense()) == pytest.approx(1.0)
    assert op_norm(3.0 * np.eye(4)) == pytest.approx(3.0)
    # oracle: largest singular value from the full SVD
    m = X + Z
    oracle = float(np.linalg.svd(m, compute_uv=False)[0])
    assert op_norm(m) == pytest.approx(oracle)
    assert op_norm(m) == pytest.approx(np.sqrt(2.0))


def _skew_sum(terms):
    return PauliSum(1, {k: 1j * v for k, v in terms.items()})


def _random_skew_sum(rng, n):
    return PauliSum(n, {w: 1j * rng.standard_normal() for w in all_strings(n)[1:]})


class TestGramSchmidt:
    def test_collinear_inputs(self):
        basis, residuals = orthonormalize_sums([_skew_sum({"X": 1}), _skew_sum({"X": 2})], 1e-10)
        assert len(basis) == 1
        assert residuals[1] < 1e-12

    def test_orthogonal_inputs(self):
        basis, _ = orthonormalize_sums([_skew_sum({"X": 1}), _skew_sum({"Y": 1})], 1e-10)
        assert len(basis) == 2
        for b in basis:
            assert b.hs_norm() == pytest.approx(1.0)

    def test_derived_residual(self):
        # second input i(X+Y)/sqrt(2): projection leaves iY/sqrt(2), norm 1
        r = 1 / np.sqrt(2.0)
        v2 = _skew_sum({"X": r, "Y": r})
        basis, residuals = orthonormalize_sums([_skew_sum({"X": 1}), v2], 1e-10)
        assert len(basis) == 2
        assert residuals[1] == pytest.approx(_skew_sum({"Y": 1}).hs_norm() * r)
        assert residuals[1] == pytest.approx(1.0)

    def test_orthonormality_property(self):
        rng = np.random.default_rng(9)
        sums = [_random_skew_sum(rng, 2) for _ in range(6)]
        basis, _ = orthonormalize_sums(sums, 1e-10)
        for i, bi in enumerate(basis):
            for j, bj in enumerate(basis):
                target = 1.0 if i == j else 0.0
                assert abs(bi.hs_inner(bj) - target) <= 1e-8

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            orthonormalize_sums([_skew_sum({"X": 1})], 0.0)


def test_hermiticity_checks():
    assert is_hermitian(X) and not is_skew_hermitian(X)
    assert is_skew_hermitian(1j * X) and not is_hermitian(1j * X)
