"""One-command verification: acceptance checks plus module invariant spot checks.

Each check returns a dict {name, passed, margin, detail}.  Margins are signed
distances to the failure boundary (positive = pass with room).  The module
also houses the brute-force closure oracle used to cross-check the
Gram-Schmidt closure engine: it expands brackets exhaustively with dense
matrix arithmetic and tracks rank in the real Pauli-coefficient space of the
skew algebra, an entirely separate code path from the production closure.

Ten randomized checks (criteria 1 and 5-7 and six invariants) are each one
per-case error function run by ``_worst_case``, which draws case k from its
own stream, keeps the worst error and compares it with the tolerance.  Each
check's seed and case count are constants: the margins it reports are
pinned.

``verify_suite`` runs three sweeps of its config, two of them side by side
with the checks that need no sweep on ``util.run_tasks``'s pool, which the
third, criterion 10's ``workers=2`` sweep, reuses (see its docstring).
Criteria 2, 3 and 4 read the shared sweep's records and
criterion 10 compares the sweeps; only criterion 10's ``workers=2`` run and
criterion 2's one-cell sweep, when n = 6 is not swept, are started by a
check.  Every sweep runs through ``sweep.run_sweep``.
"""

from __future__ import annotations

import dataclasses
import time
from functools import cache

import numpy as np

from . import linalg
from .circuits import CircuitSpec, ParamSlot, build_ansatz
from .geometry import SamplingSpec, empirical_metric, fs_metric_at, metric_rank
from .lie import lie_closure, orthonormalize_sums
from .pauli import PauliSum, all_strings
from .robustness import trial_batch
from .sweep import ConfigError, SweepConfig, run_sweep, records_csv_text
from .trainability import (
    LossSpec,
    _expectation,
    gradient_descent,
    ground_energy,
    loss_and_gradient,
    real_jacobian,
    svd_chain_rule,
)
from .util import rng_from, run_tasks


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


def _non_identity_strings(n_qubits: int) -> list[str]:
    return [w for w in all_strings(n_qubits) if set(w) != {"I"}]


def random_string_circuit(
    n_qubits: int, rng: np.random.Generator, min_slots: int = 3, max_slots: int = 8
) -> CircuitSpec:
    """Circuit of distinct random Pauli-string rotation slots (no fixed gates)."""
    pool = _non_identity_strings(n_qubits)
    n_slots = int(rng.integers(min_slots, min(max_slots, len(pool)) + 1))
    chosen = rng.choice(len(pool), size=n_slots, replace=False)
    slots = [ParamSlot(PauliSum.from_letters(n_qubits, pool[i])) for i in chosen]
    return CircuitSpec(n_qubits, slots)


def random_skew_sums(
    n_qubits: int, count: int, rng: np.random.Generator
) -> list[PauliSum]:
    pool = _non_identity_strings(n_qubits)
    chosen = rng.choice(len(pool), size=count, replace=False)
    return [PauliSum.from_letters(n_qubits, pool[i], 1j) for i in chosen]


def _random_point(rng: np.random.Generator) -> tuple[CircuitSpec, np.ndarray]:
    """A circuit of 2 to 6 string slots on 1 to 3 qubits, and a uniform point."""
    circuit = random_string_circuit(int(rng.integers(1, 4)), rng, min_slots=2, max_slots=6)
    return circuit, rng.uniform(0, 2 * np.pi, circuit.num_params)


def _random_skew(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (g - g.conj().T)


# case k of criteria 5 and 6 measures the Z_0 loss at even k, the TFIM energy at odd k
_LOSSES = (LossSpec(), LossSpec(kind="vqe_tfim"))


def _check(name: str, passed: bool, margin: float, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "margin": float(margin), "detail": detail}


def _worst_case(
    name: str, case_error, n_cases: int, seed: int, tag: str, tol: float, detail: str
) -> dict:
    """Check that the largest ``case_error(rng, k)`` over cases k < ``n_cases``
    is at most ``tol``; case k draws from ``rng_from(seed, tag, k)``.

    The margin is ``tol - worst``.  A NaN error makes the worst NaN, which
    fails.  ``detail`` is formatted with the case count ``n``, ``worst`` and
    the number of ``failing`` cases.
    """
    errors = np.array([case_error(rng_from(seed, tag, k), k) for k in range(n_cases)], float)
    worst = float(np.max(errors))
    failing = int(np.count_nonzero(~(errors <= tol)))
    return _check(name, worst <= tol, tol - worst,
                  detail.format(n=n_cases, worst=worst, failing=failing))


# ---------------------------------------------------------------------------
# Acceptance checks
# ---------------------------------------------------------------------------


def check_span_rank_bound() -> dict:
    """Empirical metric rank never exceeds the generator span dimension.

    Circuits use distinct Pauli-string generators; with repeated generators
    interleaved between non-commuting slots the exact product-rule derivative
    can push the averaged rank above the span, so distinctness is part of the
    sampled hypothesis here.
    """
    return _worst_case("span_rank_bound", _span_excess, 100, 2024, "span_rank", 0.0,
                       "{n} circuits, violations={failing}, max(rank-span)={worst:g}")


def _span_excess(rng: np.random.Generator, k: int) -> int:
    circuit = random_string_circuit(int(rng.integers(2, 4)), rng)
    # circuit k's draws are seeded with the check's seed plus k
    rep = empirical_metric(circuit, SamplingSpec(n_samples=5, seed=2024 + k))
    return rep.rank - circuit.num_params  # distinct unit strings are orthogonal


def check_random_collapse(config: SweepConfig | None = None, records=None) -> dict:
    """Keep-2 random truncation at n=6 collapses to rank 2 with d_eff near 2.

    Rank and d_eff are read from the ``(6, "random_trunc")`` record of
    ``config``'s sweep when ``records`` holds one; otherwise a sweep of that
    one cell of ``config`` runs, so the check reads the same whether or not
    the sweep covers n = 6.  That sweep skips the descent (``opt_steps=0``),
    which the check never reads; a failed cell, or one that ``config``
    cannot configure, fails the check.
    """
    config = config or SweepConfig()
    cell = next(
        (r for r in records or () if (r.n, r.method) == (6, "random_trunc")), None
    )
    if cell is None:
        try:
            swept, errors = run_sweep(dataclasses.replace(
                config, qubit_range=[6], methods=["random_trunc"], opt_steps=0, workers=1,
            ), write_files=False)
        except ConfigError as exc:  # such as a random_keep above 12
            errors = [{"error": f"ConfigError: {exc}"}]
        if errors:
            return _check("random_trunc_collapse", False, -1.0,
                          f"n=6 random_trunc cell failed: {errors[0]['error']}")
        cell = swept[0]
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


def check_span_preservation(records, config: SweepConfig | None = None) -> dict:
    """rank(lie_trunc) equals rank(full) at every n, stable across thresholds.

    Ranks are read from the metric spectra stored in the sweep records of
    ``config`` (its sampling distribution and sigma included); a missing or
    failed ``full`` or ``lie_trunc`` cell fails the check.
    """
    config = config or SweepConfig()
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


def check_scaling_signature(records) -> dict:
    """Var*d_eff stays flat for lie_trunc while the full variance swings more."""
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


def check_gradient_exactness() -> dict:
    """Analytic gradients match central finite differences to 1e-6 relative."""
    return _worst_case("gradient_exactness", _gradient_error, 50, 515, "gradexact",
                       1e-6, "{n} cases, worst relative error {worst:.2e}")


def _gradient_error(rng: np.random.Generator, k: int) -> float:
    h = 1e-5
    circuit, theta = _random_point(rng)
    loss = _LOSSES[k % 2]
    _, grad = loss_and_gradient(circuit, theta, loss)
    obs = loss.observable_dense(circuit.n_qubits)
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
    return float(np.linalg.norm(grad - fd) / scale)


def check_metric_consistency() -> dict:
    """g = J^T J, Parseval identity, PSD spectrum, global-phase invariance."""
    return _worst_case("metric_consistency", _metric_deviation, 25, 626, "metriccons",
                       1e-10, "{n} cases, worst deviation {worst:.2e}")


def _metric_deviation(rng: np.random.Generator, k: int) -> float:
    circuit, theta = _random_point(rng)
    loss = _LOSSES[k % 2]
    jac = real_jacobian(circuit.tangent_frame(theta))
    g = fs_metric_at(circuit, theta)
    dec = svd_chain_rule(circuit, theta, loss)
    _, grad = loss_and_gradient(circuit, theta, loss)
    phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
    shifted = CircuitSpec(
        circuit.n_qubits,
        circuit.ops,
        initial_state=phase * circuit.initial_state,
    )
    return np.max([
        np.max(np.abs(jac.T @ jac - g)),
        np.max(np.abs(dec.reconstruct_gradient() - grad)),
        abs(dec.gradient_norm_sq() - float(grad @ grad)),
        -np.min(np.linalg.eigvalsh(g)),
        np.max(np.abs(fs_metric_at(shifted, theta) - g)),
    ])


def check_closure_oracle() -> dict:
    """Gram-Schmidt closure dimension equals the dense brute-force oracle."""
    return _worst_case("closure_oracle_equivalence", _oracle_mismatch, 30, 737, "closure",
                       0.0, "{n} generator sets, mismatches={failing}")


def _oracle_mismatch(rng: np.random.Generator, k: int) -> int:
    """+1 when the closure's dimension differs from the oracle's, else -1."""
    n = int(rng.integers(1, 4))
    gens = random_skew_sums(n, int(rng.integers(2, min(5, 4 ** n))), rng)
    return 1 if lie_closure(gens).dim != brute_force_closure_dim([g.dense() for g in gens]) else -1


def check_perturbation_bound() -> dict:
    """rhs - lhs >= -1e-9 over 1000 random perturbation trials at n in {1,2,3}."""
    min_margin = np.inf
    for n, count in ((1, 333), (2, 333), (3, 334)):
        trials = trial_batch(n, count, 848 + n)
        min_margin = min(min_margin, min(t.margin for t in trials))
    return _check(
        "perturbation_bound",
        min_margin >= -1e-9,
        float(min_margin + 1e-9),
        f"1000 trials, min margin {min_margin:.3e}",
    )


def check_vqe_sanity(config: SweepConfig | None = None) -> dict:
    """TFIM loss respects the variational bound; descent makes early progress."""
    config = config or SweepConfig()
    loss = LossSpec(kind="vqe_tfim")
    bound_ok = True
    worst_gap = np.inf
    for n in range(2, 7):
        circuit = build_ansatz("full_hea", n, config.depth)
        e0 = ground_energy(loss, n)
        obs = loss.observable_dense(n)
        sampling = SamplingSpec(n_samples=20, seed=42 + n)
        for s in range(sampling.n_samples):
            theta = sampling.draw(circuit.num_params, s)
            value = _expectation(circuit.evolve(theta), obs)
            worst_gap = min(worst_gap, value - e0)
            if value < e0 - 1e-9:
                bound_ok = False

    circuit3 = build_ansatz("full_hea", 3, config.depth)
    descending = 0
    for s in range(10):
        theta0 = rng_from(42, "vqe_descent", s).uniform(0, 2 * np.pi, circuit3.num_params)
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
    *,
    first_run: tuple[list, list[dict], float],
    second_run: tuple[list, list[dict], float],
) -> dict:
    """Identical CSV across repeat runs and worker counts, within time budget.

    ``first_run`` and ``second_run`` are sweeps of ``config`` already made,
    as (records, errors, seconds); they count as the first two of the three
    runs, their errors and their seconds included.  The check runs the
    third, a ``workers=2`` sweep.
    """
    config = config or SweepConfig()
    rec1, err1, elapsed = first_run
    rec2, err2, seconds2 = second_run
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


def check_pauli_algebra() -> dict:
    """Dense faithfulness of the operator product the closure brackets with."""
    return _worst_case("pauli_dense_faithful", _product_error, 200, 11, "pauli",
                       1e-12, "{n} pairs, worst {worst:.2e}")


def _product_error(rng: np.random.Generator, k: int) -> float:
    n = int(rng.integers(1, 5))
    pool = all_strings(n)
    a = PauliSum.from_letters(n, pool[rng.integers(len(pool))],
                              complex(rng.normal(), rng.normal()))
    b = PauliSum.from_letters(n, pool[rng.integers(len(pool))],
                              complex(rng.normal(), rng.normal()))
    return float(np.max(np.abs((a * b).dense() - a.dense() @ b.dense())))


def check_jacobi_identity() -> dict:
    return _worst_case("jacobi_identity", _jacobi_residual, 25, 12, "jacobi",
                       1e-10, "{n} random triples, worst {worst:.2e}")


def _jacobi_residual(rng: np.random.Generator, k: int) -> float:
    dim = 2 ** int(rng.integers(1, 3))
    a, b, c = (_random_skew(rng, dim) for _ in range(3))
    resid = (
        linalg.commutator(linalg.commutator(a, b), c)
        + linalg.commutator(linalg.commutator(b, c), a)
        + linalg.commutator(linalg.commutator(c, a), b)
    )
    return linalg.max_abs(resid)


def check_expm_inverse() -> dict:
    return _worst_case("expm_skew_inverse", _expm_inverse_error, 25, 13, "expminv",
                       1e-10, "{n} random (X, t), worst {worst:.2e}")


def _expm_inverse_error(rng: np.random.Generator, k: int) -> float:
    dim = 2 ** int(rng.integers(1, 4))
    x = _random_skew(rng, dim)
    t = rng.uniform(0.1, 2.0)
    return linalg.max_abs(linalg.expm_skew(x, t) @ linalg.expm_skew(x, -t) - np.eye(dim))


def check_gram_schmidt() -> dict:
    """The closure's Gram-Schmidt returns an HS-orthonormal basis."""
    return _worst_case("gram_schmidt_orthonormal", _orthonormality_error, 20, 14, "gs",
                       1e-8, "{n} random sets, worst deviation {worst:.2e}")


def _orthonormality_error(rng: np.random.Generator, k: int) -> float:
    n = int(rng.integers(1, 3))
    pool = _non_identity_strings(n)
    sums = []
    for _ in range(int(rng.integers(2, 6))):
        picks = rng.choice(len(pool), size=int(rng.integers(1, len(pool) + 1)), replace=False)
        sums.append(PauliSum(n, {pool[i]: 1j * rng.standard_normal() for i in picks}))
    basis, _ = orthonormalize_sums(sums, 1e-10 * max(v.hs_norm() for v in sums))
    return np.max([
        abs(basis[i].hs_inner(basis[j]) - (1.0 if i == j else 0.0))
        for i in range(len(basis)) for j in range(len(basis))
    ])


def check_norm_preservation() -> dict:
    return _worst_case("evolve_norm_preservation", _norm_drift, 100, 15, "norm",
                       1e-10, "{n} random (circuit, theta), worst drift {worst:.2e}")


def _norm_drift(rng: np.random.Generator, k: int) -> float:
    circuit, theta = _random_point(rng)
    return abs(np.linalg.norm(circuit.evolve(theta)) - 1.0)


def check_closure_idempotence() -> dict:
    return _worst_case("closure_idempotence", _closure_change, 10, 16, "idem",
                       0.0, "{n} closures, {failing} changed dimension when closed again")


def _closure_change(rng: np.random.Generator, k: int) -> int:
    """+1 when closing a closure's elements changes its dimension, else -1."""
    n = int(rng.integers(1, 4))
    basis = lie_closure(random_skew_sums(n, int(rng.integers(2, 4)), rng))
    return 1 if lie_closure(basis.elements).dim != basis.dim else -1


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


def _call(task: tuple):
    """``fn(*args)`` for a task ``(fn, args)``."""
    fn, args = task
    return fn(*args)


def verify_suite(config: SweepConfig | None = None, include_invariants: bool = True) -> dict:
    """Run every acceptance check (and invariant spot checks); returns a report.

    Phase 1 is one task list that ``util.run_tasks`` runs on two processes:
    two serial sweeps of ``config`` (the shared sweep and criterion 10's
    repeat) go first, as the longest tasks, then every check that needs no
    sweep.  Phase 2 runs here once phase 1's tasks have returned: criteria
    2, 3 and 4 read the shared sweep's records and criterion 10 compares
    both serial sweeps with its ``workers=2`` run, which runs on phase 1's
    pool of two, kept up by ``util.run_tasks``, and never nests a pool in
    another.  A later suite in this process reuses that pool too.  A check
    that raises raises out of this function; in phase 1, the first failing
    task in list order raises.

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
    pooled = [(i, fn) for i, (_, fn) in enumerate(runs) if fn not in after_sweep]
    tasks = [(_timed_sweep, (serial,))] * 2 + [
        (_timed_check, (fn, {"config": config} if fn is check_vqe_sanity else {}))
        for _, fn in pooled
    ]
    shared, repeat, *outcomes = run_tasks(_call, tasks, 2)
    results = {i: result for (i, _), result in zip(pooled, outcomes)}
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
