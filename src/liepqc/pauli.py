"""Exact Pauli-string operator algebra.

Conventions
-----------
* A Pauli string is written with qubit 0 leftmost: ``"XIZ"`` acts with X on
  qubit 0, identity on qubit 1, Z on qubit 2.
* Dense materialization uses the same order, ``kron(op(q0), op(q1), ...)``,
  so qubit 0 is the most significant bit of the computational-basis index and
  ``|0...0>`` has index 0.
* Products track the phase symbolically (always one of +-1, +-i times the
  coefficient product), so commutators and Hilbert-Schmidt inner products of
  string combinations are exact up to float rounding of the coefficients.

Operators built from several strings are held as :class:`PauliSum`, a sparse
map letters -> complex coefficient.  Since distinct unit strings are
HS-orthogonal with squared norm 2^n, inner products reduce to coefficient
arithmetic and never require densifying.  Hermitian sums have real
coefficients, skew-Hermitian sums purely imaginary ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PAULI_LETTERS = "IXYZ"

_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)

SINGLE_QUBIT = {"I": _I, "X": _X, "Y": _Y, "Z": _Z}

# single-qubit products: (a, b) -> (phase, letter) with a·b = phase * letter
_PRODUCT = {
    ("I", "I"): (1, "I"), ("I", "X"): (1, "X"), ("I", "Y"): (1, "Y"), ("I", "Z"): (1, "Z"),
    ("X", "I"): (1, "X"), ("X", "X"): (1, "I"), ("X", "Y"): (1j, "Z"), ("X", "Z"): (-1j, "Y"),
    ("Y", "I"): (1, "Y"), ("Y", "X"): (-1j, "Z"), ("Y", "Y"): (1, "I"), ("Y", "Z"): (1j, "X"),
    ("Z", "I"): (1, "Z"), ("Z", "X"): (1j, "Y"), ("Z", "Y"): (-1j, "X"), ("Z", "Z"): (1, "I"),
}


def _check_letters(letters: str) -> None:
    bad = set(letters) - set(PAULI_LETTERS)
    if bad:
        raise ValueError(f"invalid Pauli letters {sorted(bad)} in {letters!r}")


@dataclass(frozen=True)
class PauliString:
    """One Pauli word with a complex coefficient."""

    n_qubits: int
    letters: str
    coefficient: complex = 1.0

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        if len(self.letters) != self.n_qubits:
            raise ValueError(
                f"letters {self.letters!r} has length {len(self.letters)}, "
                f"expected {self.n_qubits}"
            )
        _check_letters(self.letters)

    def dense(self) -> np.ndarray:
        mat = np.array([[self.coefficient]], dtype=complex)
        for ch in self.letters:
            mat = np.kron(mat, SINGLE_QUBIT[ch])
        return mat

    def to_text(self) -> str:
        return f"{_format_coeff(self.coefficient)}*{self.letters}"


def pauli_product(a: PauliString, b: PauliString) -> PauliString:
    """Exact product of two Pauli strings.

    The result is a single string whose coefficient is the product of the
    input coefficients times a tracked phase in {+-1, +-i}.
    """
    if a.n_qubits != b.n_qubits:
        raise ValueError(f"qubit count mismatch: {a.n_qubits} vs {b.n_qubits}")
    phase = 1 + 0j
    letters = []
    for ca, cb in zip(a.letters, b.letters):
        ph, cc = _PRODUCT[(ca, cb)]
        phase *= ph
        letters.append(cc)
    return PauliString(a.n_qubits, "".join(letters), phase * a.coefficient * b.coefficient)


def _format_coeff(c: complex) -> str:
    if c.imag == 0.0:
        return repr(float(c.real))
    return f"({c.real}{c.imag:+}j)"


def _parse_coeff(text: str) -> complex:
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    return complex(text)


class PauliSum:
    """Sparse complex combination of Pauli strings on a fixed qubit count.

    Instances are treated as immutable values; arithmetic returns new sums.
    """

    __slots__ = ("n_qubits", "terms")

    def __init__(self, n_qubits: int, terms: dict[str, complex] | None = None):
        if n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        self.n_qubits = n_qubits
        clean: dict[str, complex] = {}
        for letters, coeff in (terms or {}).items():
            if len(letters) != n_qubits:
                raise ValueError(f"term {letters!r} has wrong length for n={n_qubits}")
            _check_letters(letters)
            if coeff != 0:
                clean[letters] = complex(coeff)
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_letters(cls, n_qubits: int, letters: str, coeff: complex = 1.0) -> "PauliSum":
        return cls(n_qubits, {letters: coeff})

    @classmethod
    def zero(cls, n_qubits: int) -> "PauliSum":
        return cls(n_qubits, {})

    @classmethod
    def from_text(cls, n_qubits: int, text: str) -> "PauliSum":
        """Parse ``"1.0*XIZ + (0.25+0.5j)*YII"`` style text.

        Terms are split on '+' outside parentheses, so complex coefficients
        keep their inner sign.
        """
        chunks: list[str] = []
        depth = 0
        current: list[str] = []
        for ch in text:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            if ch == "+" and depth == 0:
                chunks.append("".join(current))
                current = []
            else:
                current.append(ch)
        chunks.append("".join(current))

        terms: dict[str, complex] = {}
        for chunk in chunks:
            chunk = chunk.strip()
            if not chunk:
                continue
            coeff_text, _, letters = chunk.rpartition("*")
            letters = letters.strip()
            coeff = _parse_coeff(coeff_text) if coeff_text else 1.0
            terms[letters] = terms.get(letters, 0) + coeff
        return cls(n_qubits, terms)

    # -- arithmetic ---------------------------------------------------------

    def _like(self, terms: dict[str, complex]) -> "PauliSum":
        return PauliSum(self.n_qubits, terms)

    def __add__(self, other: "PauliSum") -> "PauliSum":
        self._check_compatible(other)
        terms = dict(self.terms)
        for k, v in other.terms.items():
            terms[k] = terms.get(k, 0) + v
        return self._like(terms)

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (-1.0) * other

    def __rmul__(self, scalar: complex) -> "PauliSum":
        return self._like({k: scalar * v for k, v in self.terms.items()})

    def __mul__(self, other):
        """Operator product (PauliSum) or scalar product (number)."""
        if isinstance(other, PauliSum):
            self._check_compatible(other)
            terms: dict[str, complex] = {}
            for la, ca in self.terms.items():
                for lb, cb in other.terms.items():
                    prod = pauli_product(
                        PauliString(self.n_qubits, la, ca),
                        PauliString(self.n_qubits, lb, cb),
                    )
                    terms[prod.letters] = terms.get(prod.letters, 0) + prod.coefficient
            return self._like(terms)
        return self._like({k: other * v for k, v in self.terms.items()})

    def __neg__(self) -> "PauliSum":
        return (-1.0) * self

    def commutator(self, other: "PauliSum") -> "PauliSum":
        return self * other - other * self

    # -- Hilbert-Schmidt geometry (exact via string orthogonality) ----------

    def hs_inner(self, other: "PauliSum") -> complex:
        """Tr(A^dagger B), exact: distinct strings are orthogonal with norm^2 2^n."""
        self._check_compatible(other)
        dim = 2 ** self.n_qubits
        a, b = self.terms, other.terms
        keys = a.keys() if len(a) <= len(b) else b.keys()
        return dim * sum(a[k].conjugate() * b[k] for k in keys if k in a and k in b)

    def hs_norm(self) -> float:
        dim = 2 ** self.n_qubits
        return float(np.sqrt(dim * sum(abs(v) ** 2 for v in self.terms.values())))

    def prune(self, rel_tol: float = 1e-16) -> "PauliSum":
        """Drop coefficients tiny relative to the largest one (numerical dust)."""
        if not self.terms:
            return self
        top = max(abs(v) for v in self.terms.values())
        return self._like({k: v for k, v in self.terms.items() if abs(v) > rel_tol * top})

    # -- structure queries --------------------------------------------------

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        scale = max((abs(v) for v in self.terms.values()), default=0.0)
        return all(abs(v.imag) <= tol * max(scale, 1e-300) for v in self.terms.values())

    def is_skew_hermitian(self, tol: float = 1e-12) -> bool:
        scale = max((abs(v) for v in self.terms.values()), default=0.0)
        return all(abs(v.real) <= tol * max(scale, 1e-300) for v in self.terms.values())

    def single_string(self) -> PauliString | None:
        """The unique term if this sum is a single string, else None."""
        if len(self.terms) != 1:
            return None
        letters, coeff = next(iter(self.terms.items()))
        return PauliString(self.n_qubits, letters, coeff)

    # -- materialization / serialization ------------------------------------

    def dense(self) -> np.ndarray:
        dim = 2 ** self.n_qubits
        out = np.zeros((dim, dim), dtype=complex)
        for letters, coeff in self.terms.items():
            out += PauliString(self.n_qubits, letters, coeff).dense()
        return out

    def to_text(self) -> str:
        if not self.terms:
            return "0.0*" + "I" * self.n_qubits
        parts = [
            PauliString(self.n_qubits, letters, coeff).to_text()
            for letters, coeff in sorted(self.terms.items())
        ]
        return " + ".join(parts)

    def _check_compatible(self, other: "PauliSum") -> None:
        if self.n_qubits != other.n_qubits:
            raise ValueError(
                f"qubit count mismatch: {self.n_qubits} vs {other.n_qubits}"
            )

    def __repr__(self) -> str:
        return f"PauliSum({self.n_qubits}, {self.to_text()!r})"


def all_strings(n_qubits: int) -> list[str]:
    """All 4^n Pauli words in lexicographic-by-position order."""
    words = [""]
    for _ in range(n_qubits):
        words = [w + ch for w in words for ch in PAULI_LETTERS]
    return words
