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
  matrix.  Its backward rotation ``cos * I - 1j * sin * P`` is ``cos`` on
  the diagonal and ``1j * sin * -P``'s entries at (r, cols[r]): a vector
  for a Z-only string, and otherwise written on that O(d) support with
  every other entry +0.  Its generator column is one gather times
  ``-1j * coeff * P``'s entries, taken when the slot is built.
* A fixed gate that is diagonal with +-1 entries (the CZ ring) multiplies
  states by its sign vector.
* A product in which one factor is diagonal has one nonzero term per entry,
  which the backward pass computes entrywise with OpenBLAS's rounding (see
  :func:`_one_term_product`).  This covers a diagonal ``acc``, carried as a
  vector from the last op while the CZ rings and Z-string rotations at the
  end of the circuit keep it diagonal, and a dense ``acc`` times a sign
  gate or a Z-string rotation, which scales its columns in O(d^2).  Each
  takes the cheapest form with those bits:

  - times a sign vector, a purely real factor, numpy's ``*`` rounds each
    product once as BLAS does, and a final +0 gives BLAS's zeros;
  - times a Z-string rotation, whose real part is exactly ``cos`` and whose
    imaginary part is ``-sin`` times P's real phases, it is ``acc * cos +
    acc * (1j * sin * -P)`` and +0, with no rotation vector built;
  - a diagonal ``acc`` meeting an X/Y-string rotation, whose entries are
    each purely real or purely imaginary as well, becomes dense on that
    rotation's support: ``acc * cos`` on the diagonal, ``acc`` times the
    off-diagonal entries at (r, cols[r]), each with +0;
  - a diagonal ``acc`` times a general complex factor (a generator column,
    a dense gate's or a multi-string slot's rows) splits that factor into
    its real and imaginary parts (:func:`_one_term_product`).

  A product with two nonzero terms per entry, a dense ``acc`` times an
  X/Y-string rotation, a dense fixed gate or a multi-string slot, stays a
  BLAS product: its bits depend on how BLAS fuses the terms, which numpy
  cannot express.

Each of these differs from the dense product at most in the sign of a zero,
and BLAS sums start from +0 (see :func:`_as_blas_sum`); ``acc`` itself may
hold zeros of either sign, since every product that reads it sums from +0
or ends with +0.  At dim 2 OpenBLAS rounds one-term products another way,
so a one-qubit circuit keeps every backward product dense.

Per op the passes keep numpy calls few, since at n <= 6 their overhead, not
their arithmetic, is most of a frame: each op writes its state in place,
slot k's cos and 1j * sin are complex 0-d arrays (:meth:`CircuitSpec._trig`),
and +0 is a complex 0-d array too, which numpy applies as fast as an array
operand where a Python scalar costs a conversion per call.

``tangent_frame`` also takes an (S, L) stack of parameter points and runs
both passes on all S at once: the states become (S, dim) and ``acc`` an
(S, dim) or (S, dim, dim) stack.  Each point keeps the bits of its own
frame, because every step does the single frame's arithmetic slice by slice
and nothing reduces across the stack.  Elementwise ufuncs, the cosine and
sine of a row of angles among them, compute each entry as they compute it
for one point; numpy's stacked matmul calls the single product's BLAS
routine once per slice, gemm for matrix products and gemv for
matrix-vector products (see :func:`~liepqc.linalg.matvec`).  The
stacked-frame tests check this byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .pauli import PauliSum, string_action
from .linalg import hermitian_eig, matvec

NORM_TOL = 1e-10


# +0 and 1j as complex 0-d arrays: numpy adds or multiplies them with the
# speed of an array operand, where a Python scalar costs a conversion per call
_ZERO = np.zeros((), dtype=complex)
_I = np.array(1j)
_ZERO.flags.writeable = _I.flags.writeable = False


def _as_blas_sum(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """x with each -0 turned into +0; every other bit is kept.  Written into
    ``out`` when given.

    A BLAS product sums from +0, so an entry whose terms are all zero comes
    out as +0, where the single product that replaces the sum can give -0.
    """
    return np.add(x, _ZERO, out=out)


def _one_term_product(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a * b entrywise (broadcast), with the bits of a BLAS product whose
    entries each have one nonzero term, such as diag(a) @ B or A @ diag(b);
    written into ``out`` when given.

    OpenBLAS keeps the real products of a complex term in accumulators that
    start from +0 and joins them at the end: re = (ar*br + 0) - (ai*bi + 0)
    and im = (ar*bi + 0) + (ai*br + 0), each product rounded on its own.
    numpy's complex ``*`` fuses one product into the other's sum.  Against a
    purely real or purely imaginary factor, though, one of the two products
    is an exact zero, so fused or not it gives each product rounded once:
    ``a * b.real`` and ``(a * b.imag) * 1j`` are the two halves, and the sum
    and the final +0 give the accumulators' bits.  The same holds for any
    split of ``b`` into a purely real and a purely imaginary part, which is
    how the backward pass scales by a sign vector or a Z-string rotation
    (:func:`_pure_product`).  At dim 2 OpenBLAS takes another path, which
    this does not reproduce.
    """
    out = np.multiply(a, b.real, out=out)
    half = a * b.imag
    half *= _I
    out += half
    out += _ZERO
    return out


def _pure_product(a: np.ndarray, *parts: np.ndarray) -> np.ndarray:
    """:func:`_one_term_product` of ``a`` and the sum of ``parts``: complex
    factors each purely real or purely imaginary, at most one of each kind.
    numpy's ``*`` against such a factor rounds each product once, so this
    is the plain products, their sum and +0."""
    out = a * parts[0]
    for part in parts[1:]:
        out += a * part
    out += _ZERO
    return out


def _into(value: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """value, copied into ``out`` when that is given."""
    if out is None:
        return value
    out[...] = value
    return out


def _times_dense(acc, acc_diagonal: bool, m: np.ndarray) -> np.ndarray:
    """acc @ m for a dense m: m itself while acc is the identity (None),
    m's rows scaled by a diagonal acc, else a BLAS product."""
    if acc is None:
        return m
    if acc_diagonal:
        return _one_term_product(acc[..., :, None], m)
    return acc @ m


# ---------------------------------------------------------------------------
# Circuit operations
# ---------------------------------------------------------------------------


class ParamSlot:
    """One trainable rotation exp(-i theta H) with a Hermitian Pauli-sum generator H.

    A frame takes ``cos`` and ``i_sin`` = 1j * sin of every slot's
    ``coeff * theta`` at once (:meth:`CircuitSpec._trig`); a single-string
    slot reads those, and a multi-string slot reads ``theta`` through its
    eigendecomposition.  ``coeff`` is a single-string generator's real
    coefficient, 1.0 for any other.  ``moves`` marks a string with an X or
    Y, which moves every index; ``diagonal`` a Z-only string on two or more
    qubits, whose backward rotation is a vector.
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
        self.moves = False
        self.diagonal = False
        self._eig_cache = None
        terms = list(generator.terms.items())
        if len(terms) == 1 and terms[0][1].imag == 0.0:
            key, coeff = terms[0]
            cols, phases = string_action(key, self.n_qubits)
            self.coeff = float(coeff.real)
            dim = len(cols)
            rows = np.arange(dim)
            # a Z-only string fixes every index and needs no gather; at dim 2
            # its rotation stays dense (see _one_term_product)
            self.moves = bool((cols != rows).any())
            self.diagonal = not self.moves and dim > 2
            self._gather = (cols if self.moves else None, phases)
            # the entries of -P, which times i_sin are the rotation's off its
            # diagonal, and of -i * coeff * P, the generator column's
            self._neg_phases = -phases
            self._gen_phases = phases * (-1j * self.coeff)
            # flat indices of (r, r) and (r, cols[r]) in a dense matrix
            self._support = (rows * (dim + 1), rows * dim + cols)
        else:
            self._dense_h = generator.dense()
            self._eig_cache = hermitian_eig(self._dense_h)

    def rotation(self, theta, cos, i_sin) -> np.ndarray:
        """exp(-i theta H) for the backward pass; ``cos`` and ``i_sin`` are
        cos and 1j * sin of ``coeff * theta``, all three scalars or (S, 1)
        columns for S angles.

        A :attr:`diagonal` slot gives the diagonal, (*S, dim); any other slot
        the dense (*S, dim, dim) matrix.  A string's rotation cos * I -
        i_sin * P is written as ``cos`` on the diagonal and ``i_sin * -P``
        at (r, cols[r]), summed where those meet (a Z-only string); its
        entries differ from that expression's at most in the sign of a zero,
        which every product that reads them sums away.
        """
        if self._eig_cache is not None:
            vals, vecs = self._eig_cache
            return (vecs * np.exp(-1j * theta * vals)[..., None, :]) @ vecs.conj().T
        off = i_sin * self._neg_phases
        if self.moves:
            return self._on_support(cos, off)
        diag = cos + off            # P is diagonal
        return diag if self.diagonal else self._on_support(diag)

    def _on_support(self, diag, off=None) -> np.ndarray:
        """The dense (*S, dim, dim) matrix with ``diag`` at (r, r), ``off``
        at (r, cols[r]) and +0 elsewhere; the last of them given is
        (*S, dim), and the other broadcasts to it."""
        at_diag, at_off = self._support
        values = diag if off is None else off
        batch, dim = values.shape[:-1], values.shape[-1]
        out = np.zeros((*batch, dim * dim), dtype=complex)
        if batch:
            out[:, at_diag] = diag
            if off is not None:
                out[:, at_off] = off
        else:
            out[at_diag] = diag
            if off is not None:
                out[at_off] = off
        return out.reshape(*batch, dim, dim)

    def _absorb(self, acc, acc_diagonal: bool, batched: bool, theta, cos, i_sin):
        """acc @ exp(-i theta H) for the backward pass (acc None is the
        identity), and whether it is a diagonal; see :meth:`CircuitSpec.tangent_frame`."""
        if acc is None:
            return self.rotation(theta, cos, i_sin), self.diagonal
        if self.diagonal:
            # cos + off is a purely real plus a purely imaginary factor; a
            # stack of dense accs takes them as (S, 1, 1) and (S, 1, dim)
            off = i_sin * self._neg_phases
            if batched and not acc_diagonal:
                cos, off = cos[..., None, :], off[..., None, :]
            return _pure_product(acc, cos, off), acc_diagonal
        if acc_diagonal and self.moves:
            # diag(acc) @ rotation has the rotation's support: acc * cos on
            # the diagonal, acc * off at (r, cols[r])
            off = i_sin * self._neg_phases
            return self._on_support(_pure_product(acc, cos), _pure_product(acc, off)), False
        return _times_dense(acc, acc_diagonal, self.rotation(theta, cos, i_sin)), False

    def apply(self, state: np.ndarray, theta, cos, i_sin, out: np.ndarray | None = None) -> np.ndarray:
        """exp(-i theta H) |state>, with ``cos`` and ``i_sin`` as in :meth:`rotation`;
        (S, 1) columns act on an (S, dim) stack of states.  Written into
        ``out`` when given."""
        if self._eig_cache is None:
            term = self._string_apply(state)
            term *= i_sin
            out = np.multiply(state, cos, out=out)
            out -= term
            return out
        vals, vecs = self._eig_cache
        return _into(matvec(vecs, np.exp(-1j * theta * vals) * matvec(vecs.conj().T, state)), out)

    def apply_generator(self, state: np.ndarray) -> np.ndarray:
        """-i H |state>, for one state or an (S, dim) stack."""
        if self._eig_cache is None:
            return -1j * self.coeff * self._string_apply(state)
        return -1j * matvec(self._dense_h, state)

    def _column(self, state: np.ndarray) -> np.ndarray:
        """-i H |state> as the backward pass takes it: a string slot's gather
        times -i * coeff * P's entries.  That differs from
        :meth:`apply_generator` at most in the sign of a zero, which every
        product the column enters sums away."""
        if self._eig_cache is not None:
            return self.apply_generator(state)
        cols = self._gather[0]
        return (state if cols is None else state.take(cols, axis=-1)) * self._gen_phases

    def _string_apply(self, state: np.ndarray) -> np.ndarray:
        """P |state> for the slot's unit Pauli string P, as a gather; a new array."""
        cols, phases = self._gather
        if cols is None:
            out = state * phases
        else:
            out = state.take(cols, axis=-1)
            out *= phases
        out += _ZERO
        return out

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

    def apply(self, state: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """U |state>, for one state or an (S, dim) stack; written into ``out``
        when given."""
        if self.signs is None:
            return _into(matvec(self.matrix_value, state), out)
        out = np.multiply(self.signs, state, out=out)
        out += _ZERO
        return out

    def _absorb(self, acc, acc_diagonal: bool):
        """acc @ U for the backward pass (acc None is the identity), and
        whether it is a diagonal; a sign vector scales acc's columns."""
        if self.signs is None:
            return _times_dense(acc, acc_diagonal, self.matrix_value), False
        if acc is None:
            return self.signs, True
        return _pure_product(acc, self.signs), acc_diagonal


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
        """Slot k's angle, and cos and 1j * sin of its ``coeff * theta`` as
        complex numbers, each computed in one call for all slots.

        Index them as ``[k, ...]``: for one point that gives 0-d arrays,
        which numpy multiplies into a state at the cost of an array operand
        (a Python or numpy scalar costs a conversion per call); for an (S, L)
        stack it gives (S, 1) columns.  A real cos as a complex number with
        imaginary part +0 scales a complex entry as the real one does.
        """
        scaled = self._coeffs * theta
        trig = theta, np.cos(scaled).astype(complex), 1j * np.sin(scaled)
        return trig if theta.ndim == 1 else tuple(a.T[..., None] for a in trig)

    def _forward(self, trig, batch: tuple[int, ...]) -> np.ndarray:
        """The initial state and the state after each op, (n_ops + 1, *batch, dim);
        each op writes its output in place."""
        theta, cos, i_sin = trig
        states = np.empty((len(self.ops) + 1, *batch, self.dim), dtype=complex)
        states[0] = self.initial_state
        k = 0
        for i, op in enumerate(self.ops):
            if isinstance(op, ParamSlot):
                op.apply(states[i], theta[k], cos[k, ...], i_sin[k, ...], out=states[i + 1])
                k += 1
            else:
                op.apply(states[i], out=states[i + 1])
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
        # dense; a slot's column is taken before acc absorbs it.  Every
        # product that reads acc sums from +0 or ends with +0, so acc's zeros
        # may carry either sign; acc is never written in place
        partials = np.empty((*batch, self.dim, self.num_params), dtype=complex)
        columns = partials.transpose(-1, *range(len(batch) + 1))   # [k] is partials[..., k]
        acc, acc_diagonal, batched = None, False, bool(batch)
        k = self.num_params
        for i in range(n_ops - 1, -1, -1):
            op = self.ops[i]
            if isinstance(op, ParamSlot):
                k -= 1
                col = op._column(states[i + 1])
                if acc is None:
                    _as_blas_sum(col, out=columns[k])
                elif acc_diagonal:
                    _one_term_product(acc, col, out=columns[k])
                else:
                    columns[k] = matvec(acc, col)
                if k == 0:
                    break           # the ops before the first slot enter no column
                acc, acc_diagonal = op._absorb(
                    acc, acc_diagonal, batched, angle[k], cos[k, ...], i_sin[k, ...]
                )
            else:
                acc, acc_diagonal = op._absorb(acc, acc_diagonal)
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
