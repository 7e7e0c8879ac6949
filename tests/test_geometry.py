"""Metric evaluation, spectra, effective dimension, rank, conditioning."""

import numpy as np
import pytest

from liepqc.circuits import CircuitSpec, ParamSlot, build_ansatz
from liepqc.geometry import (
    SamplingSpec,
    condition_number,
    effective_dimension,
    empirical_metric,
    fs_metric_at,
    metric_rank,
    read_spectrum_csv,
    write_spectrum_csv,
)
from liepqc.pauli import PauliSum, all_strings


def slot(n, letters, coeff=1.0):
    return ParamSlot(PauliSum.from_letters(n, letters, coeff))


def fd_metric(circuit, theta, h=1e-5):
    """Finite-difference oracle for the pullback metric."""
    L = circuit.num_params
    cols = []
    for k in range(L):
        tp, tm = theta.copy(), theta.copy()
        tp[k] += h
        tm[k] -= h
        cols.append((circuit.evolve(tp) - circuit.evolve(tm)) / (2 * h))
    psi = circuit.evolve(theta)
    g = np.empty((L, L))
    for i in range(L):
        for j in range(L):
            term = cols[i].conj() @ cols[j] - (cols[i].conj() @ psi) * (psi.conj() @ cols[j])
            g[i, j] = term.real
    return 0.5 * (g + g.T)


# ---------------------------------------------------------------------------
# pointwise metric
# ---------------------------------------------------------------------------


def test_metric_single_x_slot_is_one():
    c = CircuitSpec(1, [slot(1, "X")])
    for theta in (0.0, 0.4, 2.1):
        np.testing.assert_allclose(fs_metric_at(c, np.array([theta])), [[1.0]], atol=1e-12)


def test_metric_duplicated_slots_rank_one():
    c = CircuitSpec(1, [slot(1, "X"), slot(1, "X")])
    theta = np.array([0.3, 1.1])
    g = fs_metric_at(c, theta)
    np.testing.assert_allclose(g, [[1.0, 1.0], [1.0, 1.0]], atol=1e-12)
    np.testing.assert_allclose(g, fd_metric(c, theta), atol=1e-6)
    assert metric_rank(np.linalg.eigvalsh(g)[::-1], 1e-8) == 1


def test_metric_stabilizer_direction_is_zero():
    c = CircuitSpec(1, [slot(1, "Z")])
    np.testing.assert_allclose(fs_metric_at(c, np.array([0.7])), [[0.0]], atol=1e-14)


def test_metric_matches_fd_oracle_random():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        pool = [w for w in all_strings(n) if set(w) != {"I"}]
        picks = rng.choice(len(pool), size=min(4, len(pool)), replace=False)
        c = CircuitSpec(n, [slot(n, pool[i]) for i in picks])
        theta = rng.uniform(0, 2 * np.pi, c.num_params)
        np.testing.assert_allclose(fs_metric_at(c, theta), fd_metric(c, theta), atol=1e-6)


def test_metric_symmetric_psd():
    rng = np.random.default_rng(32)
    c = build_ansatz("full_hea", 3, 2)
    for _ in range(10):
        theta = rng.uniform(0, 2 * np.pi, c.num_params)
        g = fs_metric_at(c, theta)
        assert np.max(np.abs(g - g.T)) < 1e-10
        assert np.min(np.linalg.eigvalsh(g)) > -1e-10


def test_metric_global_phase_invariance():
    c = build_ansatz("full_hea", 2, 1)
    theta = np.array([0.2, 0.5, 1.0, 1.4])
    g = fs_metric_at(c, theta)
    shifted = CircuitSpec(2, c.ops, initial_state=np.exp(0.73j) * c.initial_state)
    np.testing.assert_allclose(fs_metric_at(shifted, theta), g, atol=1e-10)


def test_metric_reparameterization_covariance():
    # doubling a generator scales its metric row and column by 2 at matched points
    c1 = CircuitSpec(1, [slot(1, "X"), slot(1, "Z")])
    c2 = CircuitSpec(1, [slot(1, "X", 2.0), slot(1, "Z")])
    theta = np.array([0.8, 0.3])
    matched = np.array([0.4, 0.3])      # first angle halved: same circuit point
    g1 = fs_metric_at(c1, theta)
    g2 = fs_metric_at(c2, matched)
    assert g2[0, 0] == pytest.approx(4.0 * g1[0, 0], abs=1e-10)
    assert g2[0, 1] == pytest.approx(2.0 * g1[0, 1], abs=1e-10)
    assert g2[1, 1] == pytest.approx(g1[1, 1], abs=1e-10)


# ---------------------------------------------------------------------------
# empirical metric
# ---------------------------------------------------------------------------


def test_empirical_single_sample_reduces_to_pointwise():
    c = build_ansatz("full_hea", 2, 1)
    samp = SamplingSpec(n_samples=1, seed=4)
    rep = empirical_metric(c, samp)
    theta = samp.draw(c.num_params, 0)
    np.testing.assert_allclose(rep.metric, fs_metric_at(c, theta), atol=1e-14)


def test_empirical_bit_identical_reruns():
    c = build_ansatz("full_hea", 2, 1)
    samp = SamplingSpec(n_samples=50, seed=7)
    a = empirical_metric(c, samp)
    b = empirical_metric(c, samp)
    assert a.d_eff == b.d_eff
    assert np.array_equal(a.metric, b.metric)


def test_empirical_gaussian_small_sigma_converges_to_center():
    c = build_ansatz("full_hea", 2, 1)
    target = fs_metric_at(c, np.zeros(c.num_params))
    samp = SamplingSpec(distribution="gaussian", n_samples=20, seed=3, sigma=1e-4)
    rep = empirical_metric(c, samp)
    assert np.max(np.abs(rep.metric - target)) < 1e-3


def test_sampling_validation():
    with pytest.raises(ValueError):
        SamplingSpec(n_samples=0)
    with pytest.raises(ValueError):
        SamplingSpec(distribution="cauchy")


def test_rank_bound_random_circuits():
    # distinct-string circuits: empirical rank never exceeds the span dimension
    rng = np.random.default_rng(33)
    for _ in range(20):
        n = int(rng.integers(2, 4))
        pool = [w for w in all_strings(n) if set(w) != {"I"}]
        count = int(rng.integers(3, 7))
        picks = rng.choice(len(pool), size=count, replace=False)
        c = CircuitSpec(n, [slot(n, pool[i]) for i in picks])
        rep = empirical_metric(c, SamplingSpec(n_samples=5, seed=int(rng.integers(1 << 30))))
        assert rep.rank <= count
        assert rep.d_eff <= rep.rank + 1e-9


def test_repeated_generators_can_exceed_span_rank():
    # exact product-rule derivatives: a repeated generator interleaved with a
    # non-commuting one makes the *averaged* metric rank exceed the span
    c = CircuitSpec(1, [slot(1, "X"), slot(1, "Z"), slot(1, "X")])
    rep = empirical_metric(c, SamplingSpec(n_samples=60, seed=2))
    assert rep.rank == 3          # span{X, Z} is only 2-dimensional


# ---------------------------------------------------------------------------
# spectral functionals (of a descending spectrum)
# ---------------------------------------------------------------------------


def test_effective_dimension_flat_spectrum():
    assert effective_dimension(np.ones(5)) == pytest.approx(5.0)


def test_effective_dimension_single_mode():
    assert effective_dimension(np.array([1.0, 0, 0, 0])) == pytest.approx(1.0)


def test_effective_dimension_collapsed_pair():
    assert effective_dimension(np.array([1.0, 1.0, 0.0, 0.0, 0.0])) == pytest.approx(2.0)


def test_effective_dimension_zero_metric():
    assert effective_dimension(np.zeros(3)) == 0.0


def test_metric_rank_cases():
    assert metric_rank(np.zeros(4), 1e-8) == 0
    assert metric_rank(np.array([1.0, 1e-12, 0]), 1e-8) == 1
    with pytest.raises(ValueError):
        metric_rank(np.ones(2), 2.0)


def test_condition_number_cases():
    assert condition_number(np.ones(3), 3) == pytest.approx(1.0)
    assert condition_number(np.array([4.0, 1.0]), 2) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        condition_number(np.zeros(2), 0)


def test_condition_number_matches_eigensolver_oracle():
    c = build_ansatz("full_hea", 3, 1)
    rep = empirical_metric(c, SamplingSpec(n_samples=50, seed=12))
    oracle = np.sort(np.linalg.eigvalsh(rep.metric))[::-1]
    want = oracle[0] / oracle[rep.rank - 1]
    assert rep.kappa == pytest.approx(want, rel=1e-8)


def test_spectrum_csv_round_trip(tmp_path):
    ev = np.array([2.5, 1.0, 1e-12])
    path = tmp_path / "spectrum_full_2.csv"
    write_spectrum_csv(path, ev)
    np.testing.assert_allclose(read_spectrum_csv(path), ev)
    header = path.read_text().splitlines()[0]
    assert header == "index,eigenvalue"
