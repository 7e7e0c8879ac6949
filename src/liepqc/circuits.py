"""Parameterized circuits, statevector evolution, and exact parameter derivatives.

A circuit is an ordered list of operations applied left to right onto the
initial state: the first op acts first.  Parameterized slots implement
``exp(-i * theta_k * H_k)`` for a Hermitian generator ``H_k`` (no half-angle
factor); fixed gates are arbitrary unitaries such as entangler layers.

Derivatives use the exact product rule: ``d_k psi`` inserts ``-i H_k`` at slot
k between the prefix and suffix of the gate product.  A forward pass stores
the state after every op.  A backward pass carries ``acc``, the product of
the ops after the current one, starting from the last op's matrix; each
slot's column ``d_k psi = acc @ (-i H_k psi_k)`` is taken on the way, so no
list of suffix unitaries is kept.  The simplified form ``-i H_k U`` that is
sometimes quoted for commuting generators is deliberately not used: the
metric and gradients here must match finite differences for arbitrary
non-commuting slot sequences.  A frame takes the cosine and sine of every
slot angle in one call each (:meth:`CircuitSpec._trig`), and both passes
read them.

The frame matches, bit for bit, the plain suffix-product frame that the
tests keep as an oracle, in which every op is a dense BLAS product.  Three
input properties let it skip most of those products:

* A slot whose generator is one Pauli string applies it to a state as a
  gather: an index permutation times a phase vector.  It keeps no dense
  matrix.  Its backward rotation ``cos * I - 1j * sin * P``, with that
  expression's per-entry arithmetic, is a vector for a Z-only string and
  otherwise is written on its O(d) support, the diagonal plus (r, cols[r]),
  with every other entry +0.
* A fixed gate that is diagonal with +-1 entries (the CZ ring) multiplies
  states by its sign vector.
* A product in which one factor is diagonal has one nonzero term per entry.
  The backward pass computes it entrywise with :func:`_one_term_product`,
  which rounds such an entry as OpenBLAS does.  This covers a diagonal
  ``acc``, carried as a vector from the last op while the CZ rings and
  Z-string rotations at the end of the circuit keep it diagonal, and a
  dense ``acc`` times a sign gate or a Z-string rotation, which scales its
  columns in O(d^2).  The first other op turns the vector into a dense
  ``acc`` by scaling that op's rows.  A product with two nonzero terms per
  entry, a dense ``acc`` times an X/Y-string rotation, a dense fixed gate
  or a multi-string slot, stays a BLAS product: its bits depend on how BLAS
  fuses the terms, which numpy cannot express.

Each of these differs from the dense product at most in the sign of a zero,
and BLAS sums start from +0 (see :func:`_as_blas_sum`).  At dim 2 OpenBLAS
rounds one-term products another way, so a one-qubit circuit keeps every
backward product dense.

``tangent_frame`` also takes an (S, L) stack of parameter points and runs
both passes on all S at once: the states become (S, dim) and ``acc`` an
(S, dim) or (S, dim, dim) stack.  Each point keeps the bits of its own
frame, because every step does the single frame's arithmetic slice by slice
and nothing reduces across the stack.  Elementwise ufuncs, the cosine and
sine of a row of angles among them, compute each entry as they compute it
for one point; numpy's stacked matmul calls the single product's BLAS
routine once per slice, gemm for matrix products and gemv for
matrix-vector products (see :func:`~liepqc.linalg.matvec`).  The
stacked-frame tests check this byte for byte.  One point keeps its scalar
angles, which is the faster path for the descent's one point per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .pauli import PauliSum, string_action
from .linalg import hermitian_eig, matvec

NORM_TOL = 1e-10


def _as_blas_sum(x: np.ndarray) -> np.ndarray:
    """x with each -0 turned into +0; every other bit is kept.

    A BLAS product sums from +0, so an entry whose terms are all zero comes
    out as +0, where the single product that replaces the sum can give -0.
    """
    return x + 0.0


def _one_term_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b entrywise (broadcast), with the bits of a BLAS product whose
    entries each have one nonzero term, such as diag(a) @ B or A @ diag(b).

    OpenBLAS keeps the real products of a complex term in accumulators that
    start from +0 and joins them at the end: re = (ar*br + 0) - (ai*bi + 0)
    and im = (ar*bi + 0) + (ai*br + 0), each product rounded on its own.
    numpy's complex ``*`` fuses one product into the other's sum.  Against a
    purely real or purely imaginary factor, though, one of the two products
    is an exact zero, so fused or not it gives each product rounded once:
    ``a * b.real`` and ``(a * b.imag) * 1j`` are the two halves, and the sum
    and the final +0 give the accumulators' bits.  At dim 2 OpenBLAS takes
    another path, which this does not reproduce.
    """
    out = a * b.real
    half = a * b.imag
    half *= 1j
    out += half
    out += 0.0
    return out


# ---------------------------------------------------------------------------
# Circuit operations
# ---------------------------------------------------------------------------


class ParamSlot:
    """One trainable rotation exp(-i theta H) with a Hermitian Pauli-sum generator H.

    A frame takes ``cos`` and ``i_sin`` = 1j * sin of every slot's
    ``coeff * theta`` at once (:meth:`CircuitSpec._trig`); a single-string
    slot reads those, and a multi-string slot reads ``theta`` through its
    eigendecomposition.  ``coeff`` is a single-string generator's real
    coefficient, 1.0 for any other.  ``diagonal`` marks a Z-only string on
    two or more qubits, whose backward rotation is a vector.
    """

    def __init__(self, generator: PauliSum, label: str | None = None):
        if not isinstance(generator, PauliSum):
            raise TypeError("slot generator must be a PauliSum")
        if not generator.is_hermitian():
            raise ValueError("slot generator must be Hermitian")
        self.generator = generator
        self.n_qubits = generator.n_qubits
        self.label = label
        self.coeff = 1.0
        self.diagonal = False
        self._eig_cache = None
        terms = list(generator.terms.items())
        if len(terms) == 1 and terms[0][1].imag == 0.0:
            key, coeff = terms[0]
            cols, phases = string_action(key, self.n_qubits)
            self.coeff = float(coeff.real)
            self._gather = (cols, phases)
            dim = len(cols)
            rows = np.arange(dim)
            # a Z-only string fixes every index, a string with an X or Y none;
            # at dim 2 the rotation stays dense (see _one_term_product)
            self.diagonal = dim > 2 and not (cols != rows).any()
            if not self.diagonal:
                # P[r, cols[r]] = phases[r]: the rotation's support is the
                # diagonal plus, when cols moves r, (r, cols[r]); kept as flat
                # indices with the identity's and P's entries there
                moved = rows[cols != rows]
                self._support = (
                    np.concatenate([rows * (dim + 1), moved * dim + cols[moved]]),
                    np.concatenate([np.ones(dim), np.zeros(len(moved))]),
                    np.concatenate([np.where(cols == rows, phases, 0), phases[moved]]),
                )
        else:
            self._dense_h = generator.dense()
            self._eig_cache = hermitian_eig(self._dense_h)

    def rotation(self, theta, cos, i_sin) -> np.ndarray:
        """exp(-i theta H) for the backward pass; ``cos`` and ``i_sin`` are
        cos and 1j * sin of ``coeff * theta``, all three scalars or (S, 1)
        columns for S angles.

        A :attr:`diagonal` slot gives the diagonal, (*S, dim); any other slot
        the dense (*S, dim, dim) matrix.
        """
        if self._eig_cache is not None:
            vals, vecs = self._eig_cache
            return (vecs * np.exp(-1j * theta * vals)[..., None, :]) @ vecs.conj().T
        if self.diagonal:           # P is its phase vector
            return cos - i_sin * self._gather[1]
        support, eye_nz, p_nz = self._support
        # cos * I - 1j * sin * P on its support; its other entries are zeros,
        # some -0, where +0 gives the same bits in every product that reads
        # them, since those sum from +0
        values = cos * eye_nz - i_sin * p_nz
        batch = values.shape[:-1]
        dim = len(self._gather[0])
        out = np.zeros((*batch, dim * dim), dtype=complex)
        if batch:
            out[:, support] = values
        else:
            out[support] = values
        return out.reshape(*batch, dim, dim)

    def apply(self, state: np.ndarray, theta, cos, i_sin) -> np.ndarray:
        """exp(-i theta H) |state>, with ``cos`` and ``i_sin`` as in :meth:`rotation`;
        (S, 1) columns act on an (S, dim) stack of states."""
        if self._eig_cache is None:
            return cos * state - i_sin * self._string_apply(state)
        vals, vecs = self._eig_cache
        return matvec(vecs, np.exp(-1j * theta * vals) * matvec(vecs.conj().T, state))

    def apply_generator(self, state: np.ndarray) -> np.ndarray:
        """-i H |state>, for one state or an (S, dim) stack."""
        if self._eig_cache is None:
            return -1j * self.coeff * self._string_apply(state)
        return -1j * matvec(self._dense_h, state)

    def _string_apply(self, state: np.ndarray) -> np.ndarray:
        """P |state> for the slot's unit Pauli string P, as a gather."""
        cols, phases = self._gather
        return _as_blas_sum(phases * state.take(cols, axis=-1))

    def generator_text(self) -> str:
        single = self.generator.single_string()
        if single is not None and single[1] == 1.0:
            return single[0]
        return self.generator.to_text()


class FixedGate:
    """A non-trainable unitary inserted between slots."""

    def __init__(self, matrix: np.ndarray, label: str = "fixed"):
        matrix = np.asarray(matrix, dtype=complex)
        dim = matrix.shape[0] if matrix.ndim == 2 else 0
        if dim < 2 or dim & (dim - 1) or matrix.shape != (dim, dim):
            raise ValueError(f"fixed gate must be 2^n x 2^n with n >= 1, got shape {matrix.shape}")
        diag = np.diagonal(matrix)
        is_sign = (
            np.count_nonzero(matrix) == dim
            and not diag.imag.any()
            and bool(np.all(np.abs(diag.real) == 1.0))
        )
        # a diagonal +-1 gate (such as the CZ ring) is unitary as it stands and
        # acts as a sign vector; any other gate pays the dense U^H U check
        if not is_sign:
            err = np.max(np.abs(matrix.conj().T @ matrix - np.eye(dim)))
            if err > NORM_TOL:
                raise ValueError(f"fixed gate is not unitary (deviation {err:.2e})")
        self.matrix_value = matrix
        self.label = label
        self.n_qubits = int(np.log2(dim))
        # a sign vector is multiplied entrywise, which BLAS rounds the same
        # way except at dim 2 (see _one_term_product)
        self.signs: np.ndarray | None = diag.copy() if is_sign and dim > 2 else None

    def apply(self, state: np.ndarray) -> np.ndarray:
        if self.signs is not None:
            return _as_blas_sum(self.signs * state)
        return matvec(self.matrix_value, state)


@dataclass
class TangentFrame:
    """State plus all parameter derivatives at one parameter point.

    ``projected`` removes the global-phase component of each column:
    <psi | projected_k> = 0, which is the tangent space of the projective
    state manifold.  Gradients do not need it, so it is computed when first
    read.  The frame of an (S, L) stack of points carries a leading axis of
    S on every field.
    """

    state: np.ndarray
    partials: np.ndarray         # dim x L, column k = d_k psi

    @cached_property
    def projected(self) -> np.ndarray:
        """dim x L, the partials with the phase direction removed."""
        overlaps = (self.state.conj()[..., None, :] @ self.partials)[..., 0, :]
        return self.partials - self.state[..., :, None] * overlaps[..., None, :]


# ---------------------------------------------------------------------------
# CircuitSpec
# ---------------------------------------------------------------------------


class CircuitSpec:
    """Ordered gate sequence with trainable Pauli-generator slots.

    Treat instances as immutable after construction; evolution and derivative
    evaluation are pure and safe to call concurrently.
    """

    def __init__(
        self,
        n_qubits: int,
        ops: list[ParamSlot | FixedGate],
        initial_state: np.ndarray | None = None,
        family: str = "custom",
        depth: int = 0,
    ):
        if n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        self.n_qubits = n_qubits
        self.dim = 2 ** n_qubits
        for op in ops:
            if op.n_qubits != n_qubits:
                raise ValueError("op qubit count does not match circuit")
        self.ops = list(ops)
        if initial_state is None:
            initial_state = np.zeros(self.dim, dtype=complex)
            initial_state[0] = 1.0
        initial_state = np.asarray(initial_state, dtype=complex)
        if initial_state.shape != (self.dim,):
            raise ValueError("initial state has wrong dimension")
        if abs(np.linalg.norm(initial_state) - 1.0) > NORM_TOL:
            raise ValueError("initial state is not normalized")
        self.initial_state = initial_state
        self.family = family
        self.depth = depth
        self.param_slots = [op for op in self.ops if isinstance(op, ParamSlot)]
        self._coeffs = np.array([slot.coeff for slot in self.param_slots])

    @property
    def num_params(self) -> int:
        return len(self.param_slots)

    def skew_generators(self) -> list[PauliSum]:
        """i*H_k for all slots, as exact Pauli sums."""
        return [1j * slot.generator for slot in self.param_slots]

    def _check_theta(self, theta: np.ndarray, stacked: bool = False) -> np.ndarray:
        """theta as floats, of shape (L,), or (S, L) where ``stacked``."""
        theta = np.asarray(theta, dtype=float)
        if theta.ndim not in ((1, 2) if stacked else (1,)) or theta.shape[-1] != self.num_params:
            expected = f"({self.num_params},)" + (f" or (S, {self.num_params})" if stacked else "")
            raise ValueError(f"theta has shape {theta.shape}, circuit expects {expected}")
        return theta

    def _trig(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Slot k's angle and cos and 1j * sin of its ``coeff * theta``, each
        computed in one call for all slots: indexed by k, scalars for one point
        and (S, 1) columns for an (S, L) stack."""
        scaled = self._coeffs * theta
        trig = theta, np.cos(scaled), 1j * np.sin(scaled)
        return trig if theta.ndim == 1 else tuple(a.T[..., None] for a in trig)

    def _forward(self, trig, batch: tuple[int, ...]) -> np.ndarray:
        """The initial state and the state after each op, (n_ops + 1, *batch, dim)."""
        theta, cos, i_sin = trig
        states = np.empty((len(self.ops) + 1, *batch, self.dim), dtype=complex)
        states[0] = self.initial_state
        k = 0
        for i, op in enumerate(self.ops):
            if isinstance(op, ParamSlot):
                states[i + 1] = op.apply(states[i], theta[k], cos[k], i_sin[k])
                k += 1
            else:
                states[i + 1] = op.apply(states[i])
        return states

    def evolve(self, theta: np.ndarray) -> np.ndarray:
        return self._forward(self._trig(self._check_theta(theta)), ())[-1]

    def tangent_frame(self, theta: np.ndarray) -> TangentFrame:
        """Frame at one parameter point, or at each row of an (S, L) stack.

        A stack gives a frame whose fields carry a leading axis of S draws;
        each draw has the bits of its own single-point frame.
        """
        theta = self._check_theta(theta, stacked=True)
        n_ops = len(self.ops)
        batch = theta.shape[:-1]
        trig = self._trig(theta)
        states = self._forward(trig, batch)
        angle, cos, i_sin = trig

        # backward pass: acc is the product of the ops after op i, None while
        # that is the identity, a (*batch, dim) diagonal while it is one, then
        # dense; a slot's column is taken before acc absorbs it
        partials = np.empty((*batch, self.dim, self.num_params), dtype=complex)
        acc, acc_diagonal = None, False
        k = self.num_params
        for i in range(n_ops - 1, -1, -1):
            op = self.ops[i]
            if isinstance(op, ParamSlot):
                k -= 1
                col = op.apply_generator(states[i + 1])
                if acc is None:
                    partials[..., k] = _as_blas_sum(col)
                elif acc_diagonal:
                    partials[..., k] = _one_term_product(acc, col)
                else:
                    partials[..., k] = matvec(acc, col)
                if k == 0:
                    break           # the ops before the first slot enter no column
                m, diagonal = op.rotation(angle[k], cos[k], i_sin[k]), op.diagonal
            elif op.signs is not None:
                m, diagonal = op.signs, True
            else:
                m, diagonal = op.matrix_value, False
            if acc is None:
                acc, acc_diagonal = _as_blas_sum(m), diagonal
            elif diagonal:          # scale acc's columns; a diagonal acc stays one
                acc = _one_term_product(acc, m if acc_diagonal else m[..., None, :])
            elif acc_diagonal:      # scale m's rows; acc is dense from here
                acc, acc_diagonal = _one_term_product(acc[..., :, None], m), False
            else:
                acc = acc @ m
        return TangentFrame(states[n_ops], partials)


# ---------------------------------------------------------------------------
# Ansatz construction
# ---------------------------------------------------------------------------


def cz_ring_matrix(n_qubits: int) -> np.ndarray:
    """Diagonal unitary applying CZ on every ring edge (chain closure only for n >= 3)."""
    dim = 2 ** n_qubits
    idx = np.arange(dim)
    bits = (idx[:, None] >> (n_qubits - 1 - np.arange(n_qubits))) & 1
    edges = [(i, i + 1) for i in range(n_qubits - 1)]
    if n_qubits >= 3:
        edges.append((n_qubits - 1, 0))
    sign = np.ones(dim)
    for a, b in edges:
        sign *= np.where((bits[:, a] == 1) & (bits[:, b] == 1), -1.0, 1.0)
    return np.diag(sign.astype(complex))


def _single_letter(n_qubits: int, qubit: int, letter: str) -> PauliSum:
    letters = "".join(letter if q == qubit else "I" for q in range(n_qubits))
    return PauliSum.from_letters(n_qubits, letters)


def build_ansatz(family: str, n_qubits: int, depth: int) -> CircuitSpec:
    """Construct a named ansatz family.

    ``full_hea``: per layer, one R_Y slot and one R_Z slot per qubit followed
    by a fixed CZ ring, repeated ``depth`` times (L = 2 * n * depth).  One
    layer's ops are built once and every layer holds the same objects, which
    is safe because ops are immutable: the circuit has 2n + 1 distinct ops (2n
    at n = 1) at every depth.  The truncated models derived from it are built
    by ``lie.apply_lie_trunc`` and ``lie.apply_random_trunc``.
    """
    if n_qubits < 1 or depth < 1:
        raise ValueError("n_qubits and depth must be >= 1")
    if family == "full_hea":
        layer: list[ParamSlot | FixedGate] = [
            ParamSlot(_single_letter(n_qubits, q, letter), label=f"R{letter}{q}")
            for letter in "YZ"
            for q in range(n_qubits)
        ]
        if n_qubits >= 2:
            layer.append(FixedGate(cz_ring_matrix(n_qubits), label="cz_ring"))
        return CircuitSpec(n_qubits, layer * depth, family="full_hea", depth=depth)
    raise ValueError(f"unknown ansatz family {family!r}")


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def circuit_to_json(circuit: CircuitSpec) -> dict:
    from .util import complex_to_json

    slots = []
    for op in circuit.ops:
        if isinstance(op, ParamSlot):
            slots.append({"kind": "param", "pauli": op.generator_text()})
        else:
            slots.append(
                {"kind": "fixed", "matrix": complex_to_json(op.matrix_value), "label": op.label}
            )
    return {
        "n_qubits": circuit.n_qubits,
        "slots": slots,
        "initial_state": complex_to_json(circuit.initial_state),
        "family": circuit.family,
        "depth": circuit.depth,
    }


def circuit_from_json(data: dict) -> CircuitSpec:
    from .util import complex_from_json

    n = int(data["n_qubits"])
    ops: list[ParamSlot | FixedGate] = []
    for slot in data["slots"]:
        if not isinstance(slot, dict):
            raise ValueError(f"slot must be an object, got {slot!r}")
        kind = slot.get("kind")
        if kind == "param":
            if "pauli" in slot:
                ops.append(ParamSlot(PauliSum.from_text(n, slot["pauli"])))
            else:
                matrix = complex_from_json(slot["matrix"])
                ops.append(ParamSlot(PauliSum.from_dense(n, matrix)))
        elif kind == "fixed":
            ops.append(FixedGate(complex_from_json(slot["matrix"]), slot.get("label", "fixed")))
        else:
            raise ValueError(f"unknown slot kind {kind!r}")
    initial = complex_from_json(data["initial_state"]) if "initial_state" in data else None
    return CircuitSpec(
        n,
        ops,
        initial_state=initial,
        family=data.get("family", "custom"),
        depth=int(data.get("depth", 0)),
    )
