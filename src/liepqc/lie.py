"""Dynamical Lie algebra closure and structured / random generator truncation.

The closure works on exact Pauli-sum operators: brackets of string
combinations stay string combinations with symbolically tracked phases, and
Hilbert-Schmidt inner products reduce to coefficient arithmetic.  Rank
decisions near the tolerance boundary therefore do not inherit dense
floating-point noise.

Basis elements are skew-Hermitian and HS-orthonormal.  Each carries a bracket
depth: 0 for the orthonormalized generator span, and 1 + max(parent depths)
for elements admitted from commutators.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .pauli import PauliSum
from .circuits import CircuitSpec, ParamSlot, FixedGate
from .util import rng_from


# ---------------------------------------------------------------------------
# Data types
# ---------------------------------------------------------------------------


@dataclass
class LieBasis:
    """HS-orthonormal skew-Hermitian basis with closure diagnostics.

    closure_defect is the largest HS norm of any pairwise bracket's component
    outside the span (0 means the span is a genuine subalgebra).
    adjoint_proxy is the largest pairwise bracket HS norm, a cheap stand-in
    for the adjoint spectral radius of the selection; it costs O(dim^2)
    brackets and is computed on first read.
    """

    dim_hilbert: int
    elements: list[PauliSum]
    depth_tags: list[int]
    closure_defect: float
    converged: bool = True

    @property
    def dim(self) -> int:
        return len(self.elements)

    @cached_property
    def adjoint_proxy(self) -> float:
        worst = 0.0
        for i in range(len(self.elements)):
            for j in range(i + 1, len(self.elements)):
                worst = max(worst, self.elements[i].commutator(self.elements[j]).hs_norm())
        return worst

    @property
    def n_qubits(self) -> int:
        return int(np.log2(self.dim_hilbert))

    def to_json(self) -> dict:
        return {
            "dim_hilbert": self.dim_hilbert,
            "elements": [e.to_text() for e in self.elements],
            "depth_tags": list(self.depth_tags),
            "closure_defect": self.closure_defect,
            "adjoint_proxy": self.adjoint_proxy,
            "converged": self.converged,
        }


@dataclass
class TruncationReport:
    original_dim: int
    truncated_dim: int
    kept_depths: dict[int, int]
    closure_defect_before: float
    closure_defect_after: float
    span_preserved: bool

    def to_json(self) -> dict:
        """The fields in order, ``kept_depths`` keyed by ``str`` and sorted."""
        kept = {str(k): v for k, v in sorted(self.kept_depths.items())}
        return {**asdict(self), "kept_depths": kept}


# ---------------------------------------------------------------------------
# Exact Gram-Schmidt on Pauli sums
# ---------------------------------------------------------------------------


def _holders(basis: list[PauliSum]) -> dict[int, list[int]]:
    """Each Pauli string of a basis, mapped to the positions that hold it."""
    holders: dict[int, list[int]] = {}
    for position, element in enumerate(basis):
        _hold(holders, element, position)
    return holders


def _hold(holders: dict[int, list[int]], element: PauliSum, position: int) -> None:
    """Record the strings of the basis element at ``position``."""
    for key in element.terms:
        holders.setdefault(key, []).append(position)


def _project_residual(
    x: PauliSum, basis: list[PauliSum], holders: dict[int, list[int]]
) -> PauliSum:
    """Two-pass projection of x off the span of an orthonormal basis.

    Only an element that shares a string with the running residual ``r``
    can overlap it, so each pass visits just those, in basis order; the
    others, and any visited element with zero overlap, are skipped, since
    subtracting ``0 * b``, the empty sum, would leave ``r`` as it is.  A
    subtraction brings in the strings of the element subtracted, and with
    them the later elements that hold them.  ``holders`` is
    ``_holders(basis)``.
    """
    r = x
    for _ in range(2):
        queued = {i for key in r.terms for i in holders.get(key, ())}
        queue = sorted(queued)
        while queue:
            i = heapq.heappop(queue)
            b = basis[i]
            overlap = b.hs_inner(r)
            if overlap != 0:
                r = r - overlap * b
                for key in b.terms:
                    for j in holders[key]:
                        if j > i and j not in queued:
                            queued.add(j)
                            heapq.heappush(queue, j)
    return r.prune()


def orthonormalize_sums(
    vectors: list[PauliSum], tol: float
) -> tuple[list[PauliSum], dict[int, float]]:
    """HS-orthonormalize Pauli sums with two-pass reorthogonalization.

    Returns the accepted basis and a map input index -> residual HS norm after
    projection onto the previously accepted span; residuals at or below
    ``tol`` are rejected as linearly dependent.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    basis: list[PauliSum] = []
    holders: dict[int, list[int]] = {}
    residuals: dict[int, float] = {}
    for idx, v in enumerate(vectors):
        r = _project_residual(v, basis, holders)
        norm = r.hs_norm()
        residuals[idx] = norm
        if norm > tol:
            basis.append((1.0 / norm) * r)
            _hold(holders, basis[-1], len(basis) - 1)
    return basis, residuals


def _default_tol(generators: list[PauliSum]) -> float:
    scale = max((g.hs_norm() for g in generators), default=0.0)
    return 1e-10 * max(scale, 1e-300)


# ---------------------------------------------------------------------------
# Closure
# ---------------------------------------------------------------------------


def lie_closure(generators: list[PauliSum], max_dim: int | None = None) -> LieBasis:
    """Bracket-closure of a skew-Hermitian generator set, breadth first.

    Starting from the orthonormalized generator span (depth 0), every pair
    (existing element, newest-layer element) is bracketed; residuals outside
    the current span with HS norm above 1e-10 times the largest generator
    norm join the basis at depth 1 + max(parent depths).  Iteration stops at
    closure or when such a residual would take the basis past ``max_dim``;
    hitting the cap is flagged, not an error, and the reported
    closure_defect is then the largest remaining residual.  A basis that
    fills the cap and is closed there is converged.  A generator set whose
    span is empty at that tolerance (a coefficient whose square underflows,
    say) is a ValueError, like an empty list, a ``max_dim`` below 1 or a span
    larger than ``max_dim``.
    """
    if not generators:
        raise ValueError("need at least one generator")
    if max_dim is not None and max_dim < 1:
        raise ValueError(f"max_dim must be >= 1, got {max_dim}")
    n_qubits = generators[0].n_qubits
    for g in generators:
        if not g.is_skew_hermitian():
            raise ValueError("closure generators must be skew-Hermitian")
    tol = _default_tol(generators)
    full_dim = 4 ** n_qubits
    if max_dim is None:
        max_dim = full_dim
    max_dim = min(max_dim, full_dim)

    basis, _ = orthonormalize_sums(generators, tol)
    if not basis:
        raise ValueError("generators span no direction above the closure tolerance")
    if len(basis) > max_dim:
        raise ValueError(f"the generators span {len(basis)} directions, above max_dim {max_dim}")
    holders = _holders(basis)
    depths = [0] * len(basis)
    newest = list(range(len(basis)))
    capped = False

    while newest and not capped:
        added: list[int] = []
        for j in newest:
            for i in range(len(basis)):
                if i == j:
                    continue
                br = basis[i].commutator(basis[j]).prune()
                r = _project_residual(br, basis, holders)
                norm = r.hs_norm()
                if norm > tol:
                    if len(basis) >= max_dim:
                        capped = True
                        break
                    basis.append((1.0 / norm) * r)
                    _hold(holders, basis[-1], len(basis) - 1)
                    depths.append(1 + max(depths[i], depths[j]))
                    added.append(len(basis) - 1)
            if capped:
                break
        newest = added

    defect = 0.0 if not capped else _closure_defect(basis)
    return LieBasis(
        dim_hilbert=2 ** n_qubits,
        elements=basis,
        depth_tags=depths,
        closure_defect=defect,
        converged=not capped,
    )


def _closure_defect(basis: list[PauliSum]) -> float:
    holders = _holders(basis)
    worst = 0.0
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            br = basis[i].commutator(basis[j]).prune()
            r = _project_residual(br, basis, holders)
            worst = max(worst, r.hs_norm())
    return worst


# ---------------------------------------------------------------------------
# Structured truncation
# ---------------------------------------------------------------------------


def lie_trunc(
    closure: LieBasis,
    generators: list[PauliSum],
    depth_cap: int = 1,
    dim_budget: int | None = None,
) -> tuple[LieBasis, TruncationReport]:
    """Span-preserving reduction of a closure basis.

    The generator span (depth-0 elements) is always kept in full.  Remaining
    budget admits deeper-bracket elements greedily, smallest adjoint-proxy
    contribution first, where a candidate's contribution is its largest
    bracket HS norm against the already-selected set.  Depth is capped at
    ``depth_cap``.  The selection need not be bracket-closed: the residual
    closure defect is measured and reported rather than forced to zero.

    ``closure`` must be ``lie_closure(generators)``: its depth-0 elements are
    the orthonormalized generator span.
    """
    if depth_cap < 0:
        raise ValueError(f"depth_cap must be >= 0, got {depth_cap}")
    tol = _default_tol(generators)
    selected = [el for el, d in zip(closure.elements, closure.depth_tags) if d == 0]
    sel_depths = [0] * len(selected)
    span_dim = len(selected)
    if dim_budget is None:
        dim_budget = span_dim
    if dim_budget < span_dim:
        raise ValueError(
            f"dim_budget {dim_budget} is below the generator span dimension {span_dim}"
        )

    candidates = [
        (idx, el)
        for idx, el in enumerate(closure.elements)
        if 0 < closure.depth_tags[idx] <= depth_cap
    ]
    while candidates and len(selected) < dim_budget:
        scored = []
        for pos, (idx, el) in enumerate(candidates):
            contribution = max(
                (el.commutator(s).hs_norm() for s in selected), default=0.0
            )
            scored.append((contribution, closure.depth_tags[idx], pos))
        scored.sort()
        _, _, best_pos = scored[0]
        idx, el = candidates.pop(best_pos)
        selected.append(el)
        sel_depths.append(closure.depth_tags[idx])

    return _truncation(closure.dim_hilbert, selected, sel_depths, tol,
                       original_dim=closure.dim, defect_before=closure.closure_defect,
                       span_preserved=True)


def _truncation(
    dim_hilbert: int,
    elements: list[PauliSum],
    depths: list[int],
    tol: float,
    *,
    original_dim: int,
    defect_before: float,
    span_preserved: bool,
) -> tuple[LieBasis, TruncationReport]:
    """The kept elements as a basis, with the report on what was cut from
    ``original_dim``; both carry the kept set's measured closure defect."""
    defect = _closure_defect(elements)
    report = TruncationReport(
        original_dim=original_dim,
        truncated_dim=len(elements),
        kept_depths=dict(Counter(depths)),
        closure_defect_before=defect_before,
        closure_defect_after=defect,
        span_preserved=span_preserved,
    )
    basis = LieBasis(
        dim_hilbert=dim_hilbert,
        elements=elements,
        depth_tags=depths,
        closure_defect=defect,
        converged=defect <= tol,
    )
    return basis, report


# ---------------------------------------------------------------------------
# Random truncation
# ---------------------------------------------------------------------------


def random_trunc(
    generators: list[PauliSum], keep: int, seed: int
) -> tuple[LieBasis, TruncationReport]:
    """Keep a uniform random subset of generator directions, ignoring structure.

    The directions are the generators that the span's Gram-Schmidt pass
    admits, in input order: a generator inside the span of those before it
    (a collinear duplicate, or a sum such as i(X+Y) after iX and iY) is not
    one.  ``keep`` therefore lies in [1, span dimension].  Sampling is over
    these directions, without replacement, seeded.  The returned basis spans
    only the kept directions; span_preserved is False whenever keep is below
    the span dimension.
    """
    tol = _default_tol(generators)
    span, residuals = orthonormalize_sums(generators, tol)
    directions = [g for i, g in enumerate(generators) if residuals[i] > tol]
    if not 1 <= keep <= len(directions):
        raise ValueError(
            f"keep={keep} out of range for a generator span of dimension {len(directions)}"
        )
    rng = rng_from(seed, "random_trunc")
    chosen = sorted(rng.choice(len(directions), size=keep, replace=False).tolist())
    kept = [directions[i] for i in chosen]

    basis, _ = orthonormalize_sums(kept, tol)
    return _truncation(2 ** generators[0].n_qubits, basis, [0] * len(basis), tol,
                       original_dim=len(span), defect_before=0.0,
                       span_preserved=len(basis) >= len(span))


# ---------------------------------------------------------------------------
# Truncated circuit models
# ---------------------------------------------------------------------------


def _pauli_scale_generators(basis: LieBasis) -> list[PauliSum]:
    """Hermitian generators at Pauli normalization (HS norm 2^{n/2}).

    Basis elements are HS-orthonormal, which makes a bare Pauli string carry
    coefficient 2^{-n/2}; rescaling restores unit-coefficient strings so the
    model's parameters stay angle-like and comparable across qubit counts.
    """
    root_dim = float(np.sqrt(basis.dim_hilbert))
    gens = []
    for el in basis.elements:
        h = (-1j) * el           # Hermitian counterpart of the skew element
        h = (root_dim / h.hs_norm()) * h
        gens.append(h.prune())
    return gens


def truncated_circuit(
    basis: LieBasis, initial_state: np.ndarray | None = None
) -> CircuitSpec:
    """The ``lie_trunc`` model reachable from a truncated basis.

    One rotation slot per basis element, |psi(c)> = prod_j exp(-i c_j H_j)
    |psi0>, at the Pauli-scale generator normalization, with exact
    derivatives from the circuit machinery.
    """
    if basis.dim == 0:
        raise ValueError("cannot build a model from an empty basis")
    slots = [ParamSlot(h) for h in _pauli_scale_generators(basis)]
    return CircuitSpec(basis.n_qubits, slots, initial_state=initial_state, family="lie_trunc")


# ---------------------------------------------------------------------------
# Circuit-level drivers
# ---------------------------------------------------------------------------


def reassign_slots(circuit: CircuitSpec, kept: list[PauliSum]) -> CircuitSpec:
    """Overwrite each trainable slot's generator round-robin from a kept set.

    One slot is built per kept generator and reused at every position it
    takes, so the model holds ``len(kept)`` distinct slot objects.  Fixed
    gates and the parameter count are untouched; only the span of the
    generator set collapses.
    """
    if not kept:
        raise ValueError("kept generator set is empty")
    slots = [ParamSlot(h) for h in kept]
    ops: list[ParamSlot | FixedGate] = []
    k = 0
    for op in circuit.ops:
        if isinstance(op, ParamSlot):
            ops.append(slots[k % len(slots)])
            k += 1
        else:
            ops.append(op)
    return CircuitSpec(
        circuit.n_qubits,
        ops,
        initial_state=circuit.initial_state,
        family="random_trunc",
        depth=circuit.depth,
    )


def apply_random_trunc(
    circuit: CircuitSpec, keep: int, seed: int
) -> tuple[CircuitSpec, LieBasis, TruncationReport]:
    """Random truncation of a circuit's generator set, keeping its layout."""
    gens = circuit.skew_generators()
    basis, report = random_trunc(gens, keep, seed)
    reduced = reassign_slots(circuit, _pauli_scale_generators(basis))
    return reduced, basis, report


def apply_lie_trunc(
    circuit: CircuitSpec,
    closure: LieBasis,
    depth_cap: int = 1,
    dim_budget: int | None = None,
) -> tuple[CircuitSpec, LieBasis, TruncationReport]:
    """Structured truncation + product-form model for a circuit.

    ``closure`` is ``lie_closure(circuit.skew_generators())``, derived once by
    the caller and shared with whatever else reads the algebra.
    """
    gens = circuit.skew_generators()
    trunc, report = lie_trunc(closure, gens, depth_cap=depth_cap, dim_budget=dim_budget)
    model = truncated_circuit(trunc, initial_state=circuit.initial_state)
    return model, trunc, report
