"""Words, group rings, and the adjoint representation of SL2/PSL2.

Group elements are freely reduced words in abstract generators indexed
0, 1, 2, ...  Group-ring elements are integer combinations of words.
The Lie algebra side fixes a basis of sl_2 orthonormal for the bilinear
form B(A, B) = 4 Trace(AB); expressing conjugation X -> g X g^{-1} in
that basis gives the adjoint matrix of a group element, which is what
the twisted chain complexes are built from.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .errors import DimensionMismatchError
from .linalg import DEFAULT_TOL


# ---------------------------------------------------------------------------
# words and presentations
# ---------------------------------------------------------------------------

def _reduce_letters(pairs):
    """Freely reduce a sequence of (generator, exponent) pairs."""
    out = []
    for gen, exp in pairs:
        if exp == 0:
            continue
        if out and out[-1][0] == gen:
            merged = out[-1][1] + exp
            out.pop()
            if merged != 0:
                out.append((gen, merged))
        else:
            out.append((gen, exp))
    return tuple(out)


@dataclass(frozen=True)
class Word:
    """A freely reduced word; the empty word is the identity."""

    letters: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        for gen, exp in self.letters:
            if gen < 0:
                raise ValueError(f"negative generator index {gen}")
            if exp == 0:
                raise ValueError("zero exponent in word")
        for (g1, _), (g2, _) in zip(self.letters, self.letters[1:]):
            if g1 == g2:
                raise ValueError("word is not freely reduced")

    @classmethod
    def from_letters(cls, pairs: Iterable[tuple[int, int]]) -> "Word":
        return cls(_reduce_letters(pairs))

    @classmethod
    def generator(cls, index: int, exponent: int = 1) -> "Word":
        return cls.from_letters([(index, exponent)])

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def max_generator(self) -> int:
        """Largest generator index used, or -1 for the identity."""
        return max((g for g, _ in self.letters), default=-1)

    def inverse(self) -> "Word":
        return Word(tuple((g, -e) for g, e in reversed(self.letters)))

    def __mul__(self, other: "Word") -> "Word":
        return Word(_reduce_letters(self.letters + other.letters))

    def __pow__(self, n: int) -> "Word":
        if n == 0:
            return Word()
        base = self if n > 0 else self.inverse()
        out = base
        for _ in range(abs(n) - 1):
            out = out * base
        return out

    def __repr__(self):
        if not self.letters:
            return "Word()"
        body = ".".join(f"g{g}^{e}" if e != 1 else f"g{g}" for g, e in self.letters)
        return f"Word<{body}>"


IDENTITY_WORD = Word()


@dataclass(frozen=True)
class GroupPresentation:
    """Finitely presented group: generator count plus relator words."""

    generator_count: int
    relators: tuple[Word, ...] = ()

    def __post_init__(self):
        if self.generator_count < 0:
            raise ValueError("generator count must be nonnegative")
        for rel in self.relators:
            if rel.max_generator() >= self.generator_count:
                raise ValueError(
                    f"relator {rel} uses generator outside 0..{self.generator_count - 1}"
                )

    @classmethod
    def free(cls, generator_count: int) -> "GroupPresentation":
        return cls(generator_count, ())


# ---------------------------------------------------------------------------
# the integral group ring of a free group
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupRingElement:
    """Finite integer combination of words; no zero coefficients stored."""

    terms: tuple[tuple[Word, int], ...] = ()

    @classmethod
    def from_terms(cls, terms) -> "GroupRingElement":
        acc: dict[Word, int] = {}
        for word, coeff in terms:
            acc[word] = acc.get(word, 0) + coeff
        cleaned = tuple(sorted(
            ((w, c) for w, c in acc.items() if c != 0),
            key=lambda t: (len(t[0].letters), t[0].letters),
        ))
        return cls(cleaned)

    @classmethod
    def zero(cls) -> "GroupRingElement":
        return cls()

    @classmethod
    def one(cls) -> "GroupRingElement":
        return cls.from_terms([(IDENTITY_WORD, 1)])

    @classmethod
    def from_word(cls, word: Word, coeff: int = 1) -> "GroupRingElement":
        return cls.from_terms([(word, coeff)])

    @classmethod
    def gen(cls, index: int) -> "GroupRingElement":
        return cls.from_word(Word.generator(index))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient_sum(self) -> int:
        """Image under the augmentation ring map (every word -> 1)."""
        return sum(c for _, c in self.terms)

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        return GroupRingElement.from_terms(self.terms + other.terms)

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement(tuple((w, -c) for w, c in self.terms))

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        return self + (-other)

    def __mul__(self, other) -> "GroupRingElement":
        if isinstance(other, int):
            return GroupRingElement.from_terms((w, c * other) for w, c in self.terms)
        return GroupRingElement.from_terms(
            (w1 * w2, c1 * c2) for w1, c1 in self.terms for w2, c2 in other.terms
        )

    def __rmul__(self, other: int) -> "GroupRingElement":
        return self * other

    def right_word_multiple(self, word: Word) -> "GroupRingElement":
        return GroupRingElement.from_terms((w * word, c) for w, c in self.terms)

    def left_word_multiple(self, word: Word) -> "GroupRingElement":
        return GroupRingElement.from_terms((word * w, c) for w, c in self.terms)


@dataclass(frozen=True)
class GroupRingMatrix:
    """Dense matrix over the group ring; encodes one lifted boundary map."""

    rows: int
    cols: int
    entries: tuple[tuple[GroupRingElement, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise DimensionMismatchError(
                f"entry grid does not match declared shape {self.rows}x{self.cols}"
            )

    @classmethod
    def from_rows(cls, rows_of_entries) -> "GroupRingMatrix":
        grid = tuple(tuple(row) for row in rows_of_entries)
        nrows = len(grid)
        ncols = len(grid[0]) if nrows else 0
        return cls(nrows, ncols, grid)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "GroupRingMatrix":
        zero = GroupRingElement.zero()
        return cls(rows, cols, tuple(tuple(zero for _ in range(cols)) for _ in range(rows)))

    def entry(self, i: int, j: int) -> GroupRingElement:
        return self.entries[i][j]

    def max_generator(self) -> int:
        gens = [w.max_generator() for row in self.entries for e in row for w, _ in e.terms]
        return max(gens, default=-1)

    def column_right_multiplied(self, j: int, word: Word) -> "GroupRingMatrix":
        grid = [list(row) for row in self.entries]
        for i in range(self.rows):
            grid[i][j] = grid[i][j].right_word_multiple(word)
        return GroupRingMatrix.from_rows(grid)

    def row_left_multiplied(self, i: int, word: Word) -> "GroupRingMatrix":
        grid = [list(row) for row in self.entries]
        grid[i] = [e.left_word_multiple(word) for e in grid[i]]
        return GroupRingMatrix.from_rows(grid)

    def augmented(self) -> np.ndarray:
        """Integer matrix of coefficient sums (untwisted boundary map)."""
        return np.array(
            [[e.coefficient_sum() for e in row] for row in self.entries], dtype=float
        ).reshape(self.rows, self.cols)


# ---------------------------------------------------------------------------
# sl_n with the form B(A, B) = 4 Tr(AB)
# ---------------------------------------------------------------------------

def killing_form(a: np.ndarray, b: np.ndarray) -> complex:
    """The bilinear form 4 Trace(ab) on square matrices of equal size."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    if a.shape != b.shape:
        raise DimensionMismatchError(f"size mismatch: {a.shape} vs {b.shape}")
    return complex(4.0 * np.trace(a @ b))


@dataclass(frozen=True, eq=False)
class LieAlgebraBasis:
    """A B-orthonormal basis of traceless n x n matrices."""

    n: int
    vectors: tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return self.n * self.n - 1


def _build_sl2_basis() -> LieAlgebraBasis:
    e = np.array([[0, 1], [0, 0]], dtype=complex)
    f = np.array([[0, 0], [1, 0]], dtype=complex)
    h = np.array([[1, 0], [0, -1]], dtype=complex)
    s = 2.0 * np.sqrt(2.0)
    vectors = (h / s, (e + f) / s, (e - f) / (s * 1j))
    for v in vectors:
        v.setflags(write=False)
    return LieAlgebraBasis(2, vectors)


_SL2_BASIS = _build_sl2_basis()


def orthonormal_sl2_basis() -> LieAlgebraBasis:
    """The fixed B-orthonormal basis of sl_2 used throughout the library."""
    return _SL2_BASIS


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------

class Target(str, enum.Enum):
    SL = "SL"
    PSL = "PSL"


@dataclass(frozen=True, eq=False)
class Representation:
    """Generator images in SL_n (PSL_n images are SL_n matrices mod sign)."""

    target: Target
    n: int
    images: tuple[np.ndarray, ...]

    def __post_init__(self):
        for img in self.images:
            if img.shape != (self.n, self.n):
                raise DimensionMismatchError(
                    f"generator image has shape {img.shape}, expected {(self.n, self.n)}"
                )

    @classmethod
    def from_images(cls, images, target: Target = Target.SL) -> "Representation":
        mats = tuple(np.asarray(m, dtype=complex) for m in images)
        n = mats[0].shape[0] if mats else 2
        return cls(Target(target), n, mats)

    @classmethod
    def trivial(cls, generator_count: int, n: int = 2,
                target: Target = Target.SL) -> "Representation":
        return cls(Target(target), n, tuple(np.eye(n, dtype=complex)
                                            for _ in range(generator_count)))

    @property
    def generator_count(self) -> int:
        return len(self.images)

    def determinant_residuals(self) -> list[float]:
        return [abs(np.linalg.det(m) - 1.0) for m in self.images]

    def conjugated(self, g0: np.ndarray) -> "Representation":
        g0inv = np.linalg.inv(g0)
        return Representation(self.target, self.n,
                              tuple(g0 @ m @ g0inv for m in self.images))


def _word_images(rep: Representation, words) -> np.ndarray:
    """Images of a sequence of words under the representation, stacked (W, n, n).

    Each distinct letter's power is taken once: one stacked
    ``matrix_power`` per exponent, which is ``matrix_power`` of each
    image bit for bit.  Words are padded on the left with the identity
    to a common length; every image starts as the identity and is
    multiplied on the right by one letter position of all words at
    once.  The identity times itself is the identity exactly, so each
    image is the product ``evaluate_word`` forms, bit for bit.
    """
    length = max((len(w.letters) for w in words), default=0)
    slots: dict[tuple[int, int], int] = {}
    positions = [[0] * len(words) for _ in range(length)]
    for i, word in enumerate(words):
        for k, letter in enumerate(word.letters, start=length - len(word.letters)):
            positions[k][i] = slots.setdefault(letter, len(slots) + 1)
    by_exponent: dict[int, list[tuple[int, int]]] = {}
    for (gen, exp), slot in slots.items():
        if gen >= rep.generator_count:
            raise IndexError(
                f"word uses generator {gen} but representation has "
                f"{rep.generator_count} images"
            )
        by_exponent.setdefault(exp, []).append((gen, slot))
    powers = np.empty((len(slots) + 1, rep.n, rep.n), dtype=complex)
    powers[0] = np.eye(rep.n)
    for exp, pairs in by_exponent.items():
        gens, where = zip(*pairs)
        stacked = np.array([rep.images[g] for g in gens])
        powers[list(where)] = np.linalg.matrix_power(stacked, exp)
    images = powers[[0] * len(words)]
    for factors in positions:
        images = images @ powers[factors]
    return images


def evaluate_word(rep: Representation, word: Word) -> np.ndarray:
    """Image of a word under the representation; empty word -> identity.

    The one-word case of ``_word_images``: the product of the letters'
    powers from the left, starting at the identity.
    """
    return _word_images(rep, [word])[0]


def adjoint_matrices(rep: Representation, basis: LieAlgebraBasis, words) -> np.ndarray:
    """Adjoint matrices of a sequence of words, stacked (W, d, d).

    Block w is the matrix of X -> g X g^{-1} in the orthonormal basis, g
    the image of ``words[w]``: entry (i, j) is B(a_i, g a_j g^{-1}), and
    the block has determinant 1.  The images come from ``_word_images``
    and are inverted with one stacked ``inv``; one stacked conjugation
    and one stacked trace give every entry of every block.  Each block
    is the matrix ``killing_form`` gives entry by entry, bit for bit.
    Overflow is left silent: it yields non-finite entries, which ``twist``
    rejects with a stage error.
    """
    d = basis.dim
    if not words:
        return np.zeros((0, d, d), dtype=complex)
    g = _word_images(rep, words)
    a = np.array(basis.vectors)
    with np.errstate(over="ignore", invalid="ignore"):
        conj = g[:, None] @ a @ np.linalg.inv(g)[:, None]
        return 4.0 * np.trace(a[:, None] @ conj[:, None, :], axis1=-2, axis2=-1)


def adjoint_matrix(rep: Representation, basis: LieAlgebraBasis, word: Word) -> np.ndarray:
    """Matrix of X -> g X g^{-1} in the orthonormal basis, g the word image.

    The one-word case of ``adjoint_matrices``; the result always has
    determinant 1.
    """
    return adjoint_matrices(rep, basis, [word])[0]


class RelatorCheck(NamedTuple):
    ok: bool
    residuals: list[float]


def check_representation(pres: GroupPresentation, rep: Representation,
                         tol: float = DEFAULT_TOL) -> RelatorCheck:
    """Check every relator maps to the identity (SL) or to +-identity (PSL).

    Residuals are operator-norm distances, one per relator; for PSL the
    distance to the nearer of +-identity is used.
    """
    if pres.generator_count != rep.generator_count:
        raise DimensionMismatchError(
            f"presentation has {pres.generator_count} generators, "
            f"representation has {rep.generator_count} images"
        )
    eye = np.eye(rep.n)
    residuals = []
    for rel in pres.relators:
        img = evaluate_word(rep, rel)
        dist = np.linalg.norm(img - eye, 2)
        if rep.target is Target.PSL:
            dist = min(dist, np.linalg.norm(img + eye, 2))
        residuals.append(float(dist))
    return RelatorCheck(all(r <= tol for r in residuals), residuals)
