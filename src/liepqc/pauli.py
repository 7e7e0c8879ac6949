"""Exact Pauli-string operator algebra on packed integer keys.

A Pauli string on n qubits is stored as the integer key ``(x << n) | z`` of
two n-bit masks, with qubit 0 as the top bit of each.  The key stands for
i^{|x&z|} X^x Z^z, where |.| counts set bits, so a qubit with x = z = 1
carries i X Z = Y.  Qubit 0 is also the top bit of a computational-basis
index, so ``|0...0>`` has index 0 and row r of a string's matrix holds its
one entry at column r ^ x.  A product of two strings is i^k times a string,
with k counted from the bits of their symplectic form (Aaronson & Gottesman
2004, quant-ph/0406196), so commutators and Hilbert-Schmidt inner products
are exact up to float rounding of the coefficients.

Every operator is a :class:`PauliSum`, a sparse map key -> complex
coefficient; one Pauli string is a sum with one term.  Hermitian sums have
real coefficients, skew-Hermitian sums imaginary ones.  Letter words, with
qubit 0 leftmost (``"XIZ"`` is X on qubit 0 and Z on qubit 2), appear only
where text goes in or out: the ``PauliSum(n, {letters: c})`` constructor,
``from_letters``, ``from_text``, ``to_text`` and ``single_string``.
"""

from __future__ import annotations

import cmath

import numpy as np

from .linalg import HERMITICITY_RTOL

PAULI_LETTERS = "IXYZ"

# i^k for k = 0..3, with every zero part +0 (Python's -1j has a -0 real part)
_PHASES = np.array([1, 1j, -1, -1j]) + 0.0
_PHASE_VALUES = tuple(_PHASES.tolist())

_X_BITS = str.maketrans("IXYZ", "0110")
_Z_BITS = str.maketrans("IXYZ", "0011")


def _key(letters: str, n_qubits: int) -> int:
    if len(letters) != n_qubits or not set(letters) <= set(PAULI_LETTERS):
        raise ValueError(f"term {letters!r} is not {n_qubits} letters from {PAULI_LETTERS}")
    x = int(letters.translate(_X_BITS), 2)
    return (x << n_qubits) | int(letters.translate(_Z_BITS), 2)


def _letters(key: int, n_qubits: int) -> str:
    x, z = key >> n_qubits, key & ((1 << n_qubits) - 1)
    return "".join("IZXY"[2 * (x >> s & 1) + (z >> s & 1)] for s in range(n_qubits - 1, -1, -1))


def _product(ka: int, kb: int, n_qubits: int) -> tuple[int, int]:
    """(k, key) with string ka times string kb = i^k times string key."""
    mask = (1 << n_qubits) - 1
    xa, za, xb, zb = ka >> n_qubits, ka & mask, kb >> n_qubits, kb & mask
    # X^xa Z^za X^xb Z^zb = (-1)^{|za&xb|} X^(xa^xb) Z^(za^zb)
    k = (
        (xa & za).bit_count() + (xb & zb).bit_count() + 2 * (za & xb).bit_count()
        - ((xa ^ xb) & (za ^ zb)).bit_count()
    )
    return k % 4, ka ^ kb


def string_action(key: int, n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """The string's matrix as (cols, phases): row r holds phases[r] at cols[r].

    So P|v> is ``phases * v[cols]``; X^x Z^z has sign (-1)^{|c&z|} at c = r ^ x.
    """
    x, z = key >> n_qubits, key & ((1 << n_qubits) - 1)
    cols = np.arange(1 << n_qubits) ^ x
    return cols, _PHASES[((x & z).bit_count() + 2 * np.bitwise_count(cols & z)) % 4]


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

    ``terms`` maps each string's key to its nonzero coefficient.  Instances
    are treated as immutable values; arithmetic returns new sums.
    """

    __slots__ = ("n_qubits", "terms")

    def __init__(self, n_qubits: int, terms: dict[str, complex] | None = None):
        if n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        self.n_qubits = n_qubits
        keyed = {_key(letters, n_qubits): coeff for letters, coeff in (terms or {}).items()}
        self.terms = {k: complex(v) for k, v in keyed.items() if v != 0}

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_letters(cls, n_qubits: int, letters: str, coeff: complex = 1.0) -> "PauliSum":
        return cls(n_qubits, {letters: coeff})

    @classmethod
    def from_text(cls, n_qubits: int, text: str) -> "PauliSum":
        """Parse ``"1.0*XIZ + (0.25+0.5j)*YII"`` style text.

        Terms are split on '+' outside parentheses, so complex coefficients
        keep their inner sign.  A coefficient that is not finite, or a sum of
        them that overflows, is a ValueError.
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
            if not cmath.isfinite(terms[letters]):
                raise ValueError(f"term {chunk!r} gives a non-finite coefficient")
        return cls(n_qubits, terms)

    @classmethod
    def from_dense(cls, n_qubits: int, matrix: np.ndarray) -> "PauliSum":
        """Expand a dense operator in Pauli strings, in ``all_strings`` order.

        Each coefficient is Tr(P^dagger M) / 2^n, whose diagonal entry r is
        conj(P[c, r]) M[c, r] at c = cols[r], summed as ``np.trace`` sums it.
        A NaN or infinite entry is a ValueError.
        """
        dim = 2 ** n_qubits
        if matrix.shape != (dim, dim):
            raise ValueError(f"matrix has shape {matrix.shape}, expected {(dim, dim)}")
        if not np.isfinite(matrix).all():   # a NaN coefficient would be dropped as zero
            raise ValueError("matrix has a non-finite entry")
        rows = np.arange(dim)
        terms: dict[int, complex] = {}
        for letters in all_strings(n_qubits):
            key = _key(letters, n_qubits)
            cols, phases = string_action(key, n_qubits)
            coeff = complex(np.sum(phases[cols].conj() * matrix[cols, rows])) / dim
            if abs(coeff) > 1e-14:
                terms[key] = coeff
        return cls(n_qubits)._like(terms)

    # -- arithmetic ---------------------------------------------------------

    def _like(self, terms: dict[int, complex]) -> "PauliSum":
        """A sum on the same qubits; the keys are taken as valid, zeros dropped."""
        out = object.__new__(PauliSum)
        out.n_qubits = self.n_qubits
        out.terms = {k: complex(v) for k, v in terms.items() if v != 0}
        return out

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
            n = self.n_qubits
            terms: dict[int, complex] = {}
            for ka, ca in self.terms.items():
                for kb, cb in other.terms.items():
                    k, key = _product(ka, kb, n)
                    terms[key] = terms.get(key, 0) + _PHASE_VALUES[k] * ca * cb
            return self._like(terms)
        return self._like({k: other * v for k, v in self.terms.items()})

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

    def prune(self) -> "PauliSum":
        """Drop coefficients at most 1e-16 times the largest one (numerical dust)."""
        if not self.terms:
            return self
        top = max(abs(v) for v in self.terms.values())
        return self._like({k: v for k, v in self.terms.items() if abs(v) > 1e-16 * top})

    # -- structure queries --------------------------------------------------

    def is_hermitian(self) -> bool:
        scale = max((abs(v) for v in self.terms.values()), default=0.0)
        tol = HERMITICITY_RTOL * max(scale, 1e-300)
        return all(abs(v.imag) <= tol for v in self.terms.values())

    def is_skew_hermitian(self) -> bool:
        scale = max((abs(v) for v in self.terms.values()), default=0.0)
        tol = HERMITICITY_RTOL * max(scale, 1e-300)
        return all(abs(v.real) <= tol for v in self.terms.values())

    def single_string(self) -> tuple[str, complex] | None:
        """(letters, coefficient) of the sum's only term, or None for other sums."""
        if len(self.terms) != 1:
            return None
        (key, coeff), = self.terms.items()
        return _letters(key, self.n_qubits), coeff

    # -- materialization / serialization ------------------------------------

    def dense(self) -> np.ndarray:
        dim = 2 ** self.n_qubits
        rows = np.arange(dim)
        out = np.zeros((dim, dim), dtype=complex)
        for key, coeff in self.terms.items():
            cols, phases = string_action(key, self.n_qubits)
            out[rows, cols] += coeff * phases
        return out

    def to_text(self) -> str:
        if not self.terms:
            return "0.0*" + "I" * self.n_qubits
        words = sorted((_letters(k, self.n_qubits), c) for k, c in self.terms.items())
        return " + ".join(f"{_format_coeff(coeff)}*{letters}" for letters, coeff in words)

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
