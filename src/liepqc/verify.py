"""One-command verification: acceptance checks plus module invariant spot checks.

Each check returns a dict {name, passed, margin, detail}.  Margins are signed
distances to the failure boundary (positive = pass with room).  The module
also houses the brute-force closure oracle used to cross-check the
Gram-Schmidt closure engine: it expands brackets exhaustively with dense
matrix arithmetic and tracks rank in the real Pauli-coefficient space of the
skew algebra, an entirely separate code path from the production closure.

``verify_suite`` runs three sweeps of its config, two of them side by side
with the checks that need no sweep (see its docstring).  Criteria 2, 3 and 4
read the shared sweep's records and criterion 10 compares the sweeps.
Called on their own without records, criteria 3, 4 and 10 run the sweeps
themselves and criterion 2 runs its one cell through ``sweep.run_cell``.
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import ProcessPoolExecutor
from functools import cache

import numpy as np

from . import linalg
from .circuits import CircuitSpec, ParamSlot, build_ansatz
from .geometry import SamplingSpec, empirical_metric, fs_metric_at, metric_rank
from .lie import lie_closure, orthonormalize_sums
from .pauli import PauliSum, all_strings
from .robustness import trial_batch
from .sweep import SweepConfig, run_cell, run_sweep, records_csv_text
from .trainability import (
    LossSpec,
    _expectation,
    gradient_descent,
    ground_energy,
    loss_and_gradient,
    real_jacobian,
    svd_chain_rule,
)
from .util import _one_blas_thread, rng_from


# ---------------------------------------------------------------------------
# Brute-force closure oracle (dense, coefficient-space rank tracking)
# ---------------------------------------------------------------------------


# the one-qubit Pauli matrices, for an oracle that shares no code with the engine
SINGLE_QUBIT = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@cache
def _conjugate_string_table(n_qubits: int) -> np.ndarray:
    """(4^n, dim, dim) read-only stack of conj(P) for every string, in
    ``all_strings`` order, built with ``kron`` apart from the closure engine."""
    mats = []
    for letters in all_strings(n_qubits):
        m = np.array([[1.0]], dtype=complex)
        for ch in letters:
            m = np.kron(m, SINGLE_QUBIT[ch])
        mats.append(m.conj())
    table = np.stack(mats)
    table.flags.writeable = False
    return table


def brute_force_closure_dim(generators: list[np.ndarray]) -> int:
    """Dimension of the bracket closure by exhaustive dense expansion.

    Every operator is expanded against the full Pauli-string table at once,
    Tr(P^dagger op) being the sum of conj(P) * op over all entries;
    linear independence is tracked by orthonormal projection of the real
    coefficient vectors, a residual norm above 1e-10 counting as new.  All
    pairs of the current spanning set are bracketed until a round adds
    nothing, for at most 64 rounds.
    """
    n_qubits = int(np.log2(generators[0].shape[0]))
    table = _conjugate_string_table(n_qubits)
    dim = 2 ** n_qubits

    def coeff_vector(op: np.ndarray) -> np.ndarray:
        # op is skew-Hermitian: op = sum_P c_P (i P) with real c_P
        return np.imag((table * op).sum(axis=(1, 2)) / dim)

    ortho: list[np.ndarray] = []
    ops: list[np.ndarray] = []

    def admit(op: np.ndarray) -> bool:
        v = coeff_vector(op)
        for _ in range(2):
            for b in ortho:
                v = v - (b @ v) * b
        norm = np.linalg.norm(v)
        if norm > 1e-10:
            ortho.append(v / norm)
            ops.append(op)
            return True
        return False

    for g in generators:
        admit(np.asarray(g, dtype=complex))

    for _ in range(64):
        grew = False
        current = list(ops)
        for i in range(len(current)):
            for j in range(i + 1, len(current)):
                br = current[i] @ current[j] - current[j] @ current[i]
                if admit(br):
                    grew = True
        if not grew:
            break
    return len(ortho)


# ---------------------------------------------------------------------------
# Random inputs shared by several checks
# ---------------------------------------------------------------------------


def random_string_circuit(
    n_qubits: int, rng: np.random.Generator, min_slots: int = 3, max_slots: int = 8
) -> CircuitSpec:
    """Circuit of distinct random Pauli-string rotation slots (no fixed gates)."""
    pool = [w for w in all_strings(n_qubits) if set(w) != {"I"}]
    n_slots = int(rng.integers(min_slots, min(max_slots, len(pool)) + 1))
    chosen = rng.choice(len(pool), size=n_slots, replace=False)
    slots = [ParamSlot(PauliSum.from_letters(n_qubits, pool[i])) for i in chosen]
    return CircuitSpec(n_qubits, slots)


def random_skew_sums(
    n_qubits: int, count: int, rng: np.random.Generator
) -> list[PauliSum]:
    pool = [w for w in all_strings(n_qubits) if set(w) != {"I"}]
    chosen = rng.choice(len(pool), size=count, replace=False)
    return [PauliSum.from_letters(n_qubits, pool[i], 1j) for i in chosen]


def _check(name: str, passed: bool, margin: float, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "margin": float(margin), "detail": detail}


# ---------------------------------------------------------------------------
# Acceptance checks
# ---------------------------------------------------------------------------


def check_span_rank_bound(n_circuits: int = 100, seed: int = 2024) -> dict:
    """Empirical metric rank never exceeds the generator span dimension.

    Circuits use distinct Pauli-string generators; with repeated generators
    interleaved between non-commuting slots the exact product-rule derivative
    can push the averaged rank above the span, so distinctness is part of the
    sampled hypothesis here.
    """
    violations = 0
    worst_gap = None
    for k in range(n_circuits):
        rng = rng_from(seed, "span_rank", k)
        n = int(rng.integers(2, 4))
        circuit = random_string_circuit(n, rng)
        span_dim = circuit.num_params  # distinct unit strings are orthogonal
        rep = empirical_metric(circuit, SamplingSpec(n_samples=5, seed=seed + k))
        gap = span_dim - rep.rank
        worst_gap = gap if worst_gap is None else min(worst_gap, gap)
        if rep.rank > span_dim:
            violations += 1
    return _check(
        "span_rank_bound",
        violations == 0,
        float(worst_gap),
        f"{n_circuits} circuits, violations={violations}, min(span-rank)={worst_gap}",
    )


def check_random_collapse(config: SweepConfig | None = None, records=None) -> dict:
    """Keep-2 random truncation at n=6 collapses to rank 2 with d_eff near 2.

    Rank and d_eff are read from the ``(6, "random_trunc")`` record of
    ``config``'s sweep when ``records`` holds one; otherwise ``run_cell``
    runs that cell of ``config``, so the check reads the same whether or not
    the sweep covers n = 6.
    """
    config = config or SweepConfig()
    cell = next(
        (r for r in records or () if (r.n, r.method) == (6, "random_trunc")), None
    )
    if cell is None:
        base = build_ansatz("full_hea", 6, config.depth)
        cell = run_cell(config, 6, "random_trunc", base, lie_closure(base.skew_generators()))
    rank, d_eff = cell.rank, cell.d_eff
    rank_ok = rank == 2
    deff_ok = 1.5 <= d_eff <= 2.0 + 1e-9
    margin = min(d_eff - 1.5, 2.0 + 1e-9 - d_eff) if rank_ok else -1.0
    return _check(
        "random_trunc_collapse",
        rank_ok and deff_ok,
        margin,
        f"rank={rank} (want 2), d_eff={d_eff:.4f} (want [1.5, 2.0])",
    )


def check_span_preservation(records=None, config: SweepConfig | None = None) -> dict:
    """rank(lie_trunc) equals rank(full) at every n, stable across thresholds.

    Ranks are read from the metric spectra stored in the sweep records of
    ``config`` (its sampling distribution and sigma included); a missing or
    failed ``full`` or ``lie_trunc`` cell fails the check.
    """
    config = config or SweepConfig()
    if records is None:
        records, _ = run_sweep(config, write_files=False)
    spectra = {(r.n, r.method): np.array(r.eigenvalues) for r in records}
    missing = [
        (n, method)
        for n in config.qubit_range
        for method in ("full", "lie_trunc")
        if (n, method) not in spectra
    ]
    if missing:
        return _check("span_preservation_rank_match", False, -1.0,
                      f"missing records: {missing}")
    mismatches = []
    for n in config.qubit_range:
        for tol in (1e-6, 1e-8, 1e-10):
            rf = metric_rank(spectra[(n, "full")], tol)
            rl = metric_rank(spectra[(n, "lie_trunc")], tol)
            if rf != rl:
                mismatches.append((n, tol, rf, rl))
    return _check(
        "span_preservation_rank_match",
        not mismatches,
        0.0 if mismatches else 1.0,
        "all ranks match across rel_tol {1e-6,1e-8,1e-10}" if not mismatches
        else f"mismatches: {mismatches}",
    )


def check_scaling_signature(records=None, config: SweepConfig | None = None) -> dict:
    """Var*d_eff stays flat for lie_trunc while the full variance swings more."""
    if records is None:
        config = config or SweepConfig()
        records, _ = run_sweep(config, write_files=False)
    lie = sorted((r for r in records if r.method == "lie_trunc"), key=lambda r: r.n)
    full = sorted((r for r in records if r.method == "full"), key=lambda r: r.n)
    lie_prods = [r.product_var_deff for r in lie if r.product_var_deff > 0]
    full_vars = [r.var_grad_mean for r in full if r.var_grad_mean > 0]
    if len(lie_prods) < 2 or len(full_vars) < 2:
        return _check("scaling_law_signature", False, -1.0, "not enough positive records")
    lie_ratio = max(lie_prods) / min(lie_prods)
    full_ratio = max(full_vars) / min(full_vars)
    passed = lie_ratio <= 10.0 and full_ratio > lie_ratio
    return _check(
        "scaling_law_signature",
        passed,
        min(10.0 - lie_ratio, full_ratio - lie_ratio),
        f"lie product max/min={lie_ratio:.3f} (<=10), full var max/min={full_ratio:.3f}",
    )


def check_gradient_exactness(n_cases: int = 50, seed: int = 515) -> dict:
    """Analytic gradients match central finite differences to 1e-6 relative."""
    h = 1e-5
    worst = 0.0
    for k in range(n_cases):
        rng = rng_from(seed, "gradexact", k)
        n = int(rng.integers(1, 4))
        circuit = random_string_circuit(n, rng, min_slots=2, max_slots=6)
        loss = LossSpec() if k % 2 == 0 else LossSpec(kind="vqe_tfim")
        theta = rng.uniform(0, 2 * np.pi, circuit.num_params)
        _, grad = loss_and_gradient(circuit, theta, loss)
        obs = loss.observable_dense(n)
        fd = np.empty_like(grad)
        for i in range(theta.size):
            tp, tm = theta.copy(), theta.copy()
            tp[i] += h
            tm[i] -= h
            fd[i] = (
                _expectation(circuit.evolve(tp), obs)
                - _expectation(circuit.evolve(tm), obs)
            ) / (2 * h)
        # floor the scale so stationary points compare absolutely, not 0/0
        scale = max(np.linalg.norm(grad), np.linalg.norm(fd), 1e-2)
        worst = max(worst, float(np.linalg.norm(grad - fd) / scale))
    return _check(
        "gradient_exactness",
        worst <= 1e-6,
        1e-6 - worst,
        f"{n_cases} cases, worst relative error {worst:.2e}",
    )


def check_metric_consistency(n_cases: int = 25, seed: int = 626) -> dict:
    """g = J^T J, Parseval identity, PSD spectrum, global-phase invariance."""
    worst = 0.0
    for k in range(n_cases):
        rng = rng_from(seed, "metriccons", k)
        n = int(rng.integers(1, 4))
        circuit = random_string_circuit(n, rng, min_slots=2, max_slots=6)
        theta = rng.uniform(0, 2 * np.pi, circuit.num_params)
        loss = LossSpec() if k % 2 == 0 else LossSpec(kind="vqe_tfim")

        frame = circuit.tangent_frame(theta)
        jac = real_jacobian(frame)
        g = fs_metric_at(circuit, theta)
        worst = max(worst, float(np.max(np.abs(jac.T @ jac - g))))

        dec = svd_chain_rule(circuit, theta, loss)
        _, grad = loss_and_gradient(circuit, theta, loss)
        worst = max(worst, float(np.max(np.abs(dec.reconstruct_gradient() - grad))))
        worst = max(worst, abs(dec.gradient_norm_sq() - float(grad @ grad)))

        worst = max(worst, max(0.0, -float(np.min(np.linalg.eigvalsh(g)))))

        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        shifted = CircuitSpec(
            circuit.n_qubits,
            circuit.ops,
            initial_state=phase * circuit.initial_state,
        )
        worst = max(worst, float(np.max(np.abs(fs_metric_at(shifted, theta) - g))))
    return _check(
        "metric_consistency",
        worst <= 1e-10,
        1e-10 - worst,
        f"{n_cases} cases, worst deviation {worst:.2e}",
    )


def check_closure_oracle(n_sets: int = 30, seed: int = 737) -> dict:
    """Gram-Schmidt closure dimension equals the dense brute-force oracle."""
    mismatches = 0
    for k in range(n_sets):
        rng = rng_from(seed, "closure", k)
        n = int(rng.integers(1, 4))
        count = int(rng.integers(2, min(5, 4 ** n)))
        gens = random_skew_sums(n, count, rng)
        produced = lie_closure(gens).dim
        oracle = brute_force_closure_dim([g.dense() for g in gens])
        if produced != oracle:
            mismatches += 1
    return _check(
        "closure_oracle_equivalence",
        mismatches == 0,
        float(-mismatches) if mismatches else 1.0,
        f"{n_sets} generator sets, mismatches={mismatches}",
    )


def check_perturbation_bound(n_trials: int = 1000, seed: int = 848) -> dict:
    """rhs - lhs >= -1e-9 over random perturbation trials at n in {1,2,3}."""
    min_margin = np.inf
    per_n = n_trials // 3
    for n in (1, 2, 3):
        trials = trial_batch(n, per_n + (n_trials - 3 * per_n if n == 3 else 0), seed + n)
        min_margin = min(min_margin, min(t.margin for t in trials))
    return _check(
        "perturbation_bound",
        min_margin >= -1e-9,
        float(min_margin + 1e-9),
        f"{n_trials} trials, min margin {min_margin:.3e}",
    )


def check_vqe_sanity(config: SweepConfig | None = None, seed: int = 42) -> dict:
    """TFIM loss respects the variational bound; descent makes early progress."""
    config = config or SweepConfig()
    loss = LossSpec(kind="vqe_tfim")
    bound_ok = True
    worst_gap = np.inf
    for n in range(2, 7):
        circuit = build_ansatz("full_hea", n, config.depth)
        e0 = ground_energy(loss, n)
        obs = loss.observable_dense(n)
        sampling = SamplingSpec(n_samples=20, seed=seed + n)
        for s in range(sampling.n_samples):
            theta = sampling.draw(circuit.num_params, s)
            value = _expectation(circuit.evolve(theta), obs)
            worst_gap = min(worst_gap, value - e0)
            if value < e0 - 1e-9:
                bound_ok = False

    circuit3 = build_ansatz("full_hea", 3, config.depth)
    descending = 0
    for s in range(10):
        theta0 = rng_from(seed, "vqe_descent", s).uniform(0, 2 * np.pi, circuit3.num_params)
        _, traj = gradient_descent(circuit3, loss, theta0, 10, config.opt_rate)
        if all(traj[k + 1] < traj[k] for k in range(10)):
            descending += 1
    passed = bound_ok and descending >= 9
    return _check(
        "vqe_sanity",
        passed,
        float(min(worst_gap, descending - 9)),
        f"variational gap >= {worst_gap:.3e}, monotone descent {descending}/10 seeds",
    )


def _timed_sweep(config: SweepConfig) -> tuple[list, list[dict], float]:
    """(records, errors, seconds) of one sweep of ``config``, no files written."""
    start = time.perf_counter()
    records, errors = run_sweep(config, write_files=False)
    return records, errors, time.perf_counter() - start


def check_determinism_and_budget(
    config: SweepConfig | None = None,
    first_run: tuple[list, list[dict], float] | None = None,
    second_run: tuple[list, list[dict], float] | None = None,
) -> dict:
    """Identical CSV across repeat runs and worker counts, within time budget.

    ``first_run`` and ``second_run`` are sweeps of ``config`` already made,
    as (records, errors, seconds); they count as the first two of the three
    runs, their errors and their seconds included.  The check runs each one
    it is not given, on one worker, then a ``workers=2`` sweep.
    """
    config = config or SweepConfig()
    serial = dataclasses.replace(config, workers=1)
    rec1, err1, elapsed = first_run if first_run is not None else _timed_sweep(serial)
    rec2, err2, seconds2 = second_run if second_run is not None else _timed_sweep(serial)
    rec3, err3, seconds3 = _timed_sweep(dataclasses.replace(config, workers=2))
    elapsed += seconds2 + seconds3
    identical = records_csv_text(rec1) == records_csv_text(rec2) == records_csv_text(rec3)
    n_errors = len(err1) + len(err2) + len(err3)
    within_budget = elapsed < 600.0
    return _check(
        "determinism_and_budget",
        identical and n_errors == 0 and within_budget,
        600.0 - elapsed,
        f"identical={identical}, errors={n_errors}, three sweeps in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# Module-invariant spot checks (smaller, fast)
# ---------------------------------------------------------------------------


def check_pauli_algebra(seed: int = 11) -> dict:
    """Dense faithfulness of the operator product the closure brackets with."""
    worst = 0.0
    for k in range(200):
        rng = rng_from(seed, "pauli", k)
        n = int(rng.integers(1, 5))
        pool = all_strings(n)
        a = PauliSum.from_letters(n, pool[rng.integers(len(pool))],
                                  complex(rng.normal(), rng.normal()))
        b = PauliSum.from_letters(n, pool[rng.integers(len(pool))],
                                  complex(rng.normal(), rng.normal()))
        worst = max(worst, float(np.max(np.abs((a * b).dense() - a.dense() @ b.dense()))))
    return _check("pauli_dense_faithful", worst <= 1e-12, 1e-12 - worst,
                  f"200 pairs, worst {worst:.2e}")


def check_jacobi_identity(seed: int = 12) -> dict:
    worst = 0.0
    for k in range(25):
        rng = rng_from(seed, "jacobi", k)
        n = int(rng.integers(1, 3))
        dim = 2 ** n
        mats = []
        for _ in range(3):
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            mats.append(0.5 * (g - g.conj().T))
        a, b, c = mats
        resid = (
            linalg.commutator(linalg.commutator(a, b), c)
            + linalg.commutator(linalg.commutator(b, c), a)
            + linalg.commutator(linalg.commutator(c, a), b)
        )
        worst = max(worst, linalg.max_abs(resid))
    return _check("jacobi_identity", worst <= 1e-10, 1e-10 - worst,
                  f"25 random triples, worst {worst:.2e}")


def check_expm_inverse(seed: int = 13) -> dict:
    worst = 0.0
    for k in range(25):
        rng = rng_from(seed, "expminv", k)
        n = int(rng.integers(1, 4))
        dim = 2 ** n
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        x = 0.5 * (g - g.conj().T)
        t = rng.uniform(0.1, 2.0)
        u = linalg.expm_skew(x, t) @ linalg.expm_skew(x, -t)
        worst = max(worst, linalg.max_abs(u - np.eye(dim)))
    return _check("expm_skew_inverse", worst <= 1e-10, 1e-10 - worst,
                  f"25 random (X, t), worst {worst:.2e}")


def check_gram_schmidt(seed: int = 14) -> dict:
    """The closure's Gram-Schmidt returns an HS-orthonormal basis."""
    worst = 0.0
    for k in range(20):
        rng = rng_from(seed, "gs", k)
        n = int(rng.integers(1, 3))
        pool = [w for w in all_strings(n) if set(w) != {"I"}]
        sums = []
        for _ in range(int(rng.integers(2, 6))):
            picks = rng.choice(len(pool), size=int(rng.integers(1, len(pool) + 1)), replace=False)
            sums.append(PauliSum(n, {pool[i]: 1j * rng.standard_normal() for i in picks}))
        tol = 1e-10 * max(v.hs_norm() for v in sums)
        basis, _ = orthonormalize_sums(sums, tol)
        for i in range(len(basis)):
            for j in range(len(basis)):
                val = basis[i].hs_inner(basis[j])
                worst = max(worst, abs(val - (1.0 if i == j else 0.0)))
    return _check("gram_schmidt_orthonormal", worst <= 1e-8, 1e-8 - worst,
                  f"20 random sets, worst deviation {worst:.2e}")


def check_norm_preservation(seed: int = 15) -> dict:
    worst = 0.0
    for k in range(100):
        rng = rng_from(seed, "norm", k)
        n = int(rng.integers(1, 4))
        circuit = random_string_circuit(n, rng, min_slots=2, max_slots=6)
        theta = rng.uniform(0, 2 * np.pi, circuit.num_params)
        worst = max(worst, abs(np.linalg.norm(circuit.evolve(theta)) - 1.0))
    return _check("evolve_norm_preservation", worst <= 1e-10, 1e-10 - worst,
                  f"100 random (circuit, theta), worst drift {worst:.2e}")


def check_closure_idempotence(seed: int = 16) -> dict:
    stable = True
    for k in range(10):
        rng = rng_from(seed, "idem", k)
        n = int(rng.integers(1, 4))
        gens = random_skew_sums(n, int(rng.integers(2, 4)), rng)
        basis = lie_closure(gens)
        again = lie_closure(basis.elements)
        if again.dim != basis.dim:
            stable = False
    return _check("closure_idempotence", stable, 1.0 if stable else -1.0,
                  "closure(closure) adds no elements" if stable else "dimension changed")


ACCEPTANCE_CHECKS = [
    ("1 span-rank bound", check_span_rank_bound),
    ("2 random truncation collapse", check_random_collapse),
    ("3 span preservation", check_span_preservation),
    ("4 scaling-law signature", check_scaling_signature),
    ("5 gradient exactness", check_gradient_exactness),
    ("6 metric consistency", check_metric_consistency),
    ("7 closure oracle equivalence", check_closure_oracle),
    ("8 perturbation bound", check_perturbation_bound),
    ("9 vqe sanity", check_vqe_sanity),
    ("10 determinism and budget", check_determinism_and_budget),
]

INVARIANT_CHECKS = [
    check_pauli_algebra,
    check_jacobi_identity,
    check_expm_inverse,
    check_gram_schmidt,
    check_norm_preservation,
    check_closure_idempotence,
]


def _timed_check(fn, kwargs: dict) -> dict:
    """``fn(**kwargs)`` with its ``seconds``, timed in the process that runs it."""
    start = time.perf_counter()
    result = fn(**kwargs)
    result["seconds"] = time.perf_counter() - start
    return result


def verify_suite(config: SweepConfig | None = None, include_invariants: bool = True) -> dict:
    """Run every acceptance check (and invariant spot checks); returns a report.

    Phase 1 runs on a two-process pool: two serial sweeps of ``config``
    (the shared sweep and criterion 10's repeat) go first, as the longest
    tasks, then every check that needs no sweep.  Phase 2 runs here after
    the pool has closed: criteria 2, 3 and 4 read the shared sweep's records
    and criterion 10 compares both serial sweeps with its ``workers=2`` run,
    whose own pool is therefore never nested in another.  A check that
    raises raises out of this function.

    Each check dict gains its ``label`` and its ``seconds``, measured in the
    process that ran it; checks keep their list order.  The report gives the
    shared sweep's time as ``shared_sweep_s`` and the suite's as ``wall_s``.
    """
    start = time.perf_counter()
    config = config or SweepConfig()
    serial = dataclasses.replace(config, workers=1)
    runs = list(ACCEPTANCE_CHECKS)
    if include_invariants:
        runs += [(None, fn) for fn in INVARIANT_CHECKS]
    after_sweep = {
        check_random_collapse,
        check_span_preservation,
        check_scaling_signature,
        check_determinism_and_budget,
    }
    with ProcessPoolExecutor(max_workers=2, initializer=_one_blas_thread) as pool:
        sweeps = [pool.submit(_timed_sweep, serial) for _ in range(2)]
        pooled = {
            i: pool.submit(_timed_check, fn, {"config": config} if fn is check_vqe_sanity else {})
            for i, (_, fn) in enumerate(runs) if fn not in after_sweep
        }
        shared, repeat = (f.result() for f in sweeps)
        results = {i: f.result() for i, f in pooled.items()}
    records = shared[0]
    kwargs = {
        check_random_collapse: {"config": config, "records": records},
        check_span_preservation: {"records": records, "config": config},
        check_scaling_signature: {"records": records},
        check_determinism_and_budget: {"config": config, "first_run": shared, "second_run": repeat},
    }
    checks = []
    for i, (label, fn) in enumerate(runs):
        result = results[i] if i in results else _timed_check(fn, kwargs[fn])
        result["label"] = label or result["name"]
        checks.append(result)
    return {
        "passed": all(c["passed"] for c in checks),
        "shared_sweep_s": shared[2],
        "wall_s": time.perf_counter() - start,
        "checks": checks,
    }
