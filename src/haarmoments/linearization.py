"""Reduction of polynomial operator norms to linear-pencil norms.

A matrix-coefficient polynomial over the free group is normed in three
moves: a self-adjoint doubling that preserves the norm, a square-root
pencil turning a shifted polynomial into ``P* P`` with ``P`` of half the
degree, and a recovery of the extreme eigenvalues from two shifted
norms.  The terminal linear pencils go to a tree-based norm oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .freegroup import MatrixPencil, ReducedWord, astar_norm_lower, enumerate_ball, star
from .symcore import require_dense

#: Weyl power handed to the default linear-pencil norm oracle.
DEFAULT_ORACLE_POWER = 256
#: Eigenvalues of the shifted root matrix below this abort the square root.
POSITIVITY_FLOOR = -1e-10
#: Slack allowed when checking shift data for 1-Lipschitz consistency.
LIPSCHITZ_SLACK = 1e-6

PencilNormOracle = Callable[[MatrixPencil], float]


def word_inverse(word: ReducedWord) -> ReducedWord:
    letters = tuple(star(c, word.d) for c in reversed(word.letters))
    return ReducedWord(word.d, letters)


def word_concat(left: ReducedWord, right: ReducedWord) -> ReducedWord:
    """Product of two reduced words, cancelling at the seam."""
    result = right
    for color in reversed(left.letters):
        result = result.extend_front(color)
    return result


@dataclass(frozen=True)
class GroupPolynomial:
    """Finitely supported map from reduced words to matrix coefficients.

    Coefficients share one (possibly rectangular) shape; the polynomial
    reads ``sum_g a_g (x) lambda(g)``.  ``support`` and ``degree`` are read
    off the coefficients once, at construction, so a coefficient must not
    be changed in place afterwards.
    """

    d: int
    coefficients: Mapping[ReducedWord, np.ndarray]
    _support: tuple[ReducedWord, ...] = field(init=False, compare=False, repr=False)
    _degree: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        normalized = {}
        shape = None
        for word, coeff in self.coefficients.items():
            if word.d != self.d:
                raise ValueError("word generator count differs from polynomial")
            matrix = np.asarray(coeff, dtype=complex)
            if matrix.ndim != 2:
                raise ValueError("coefficients must be matrices")
            if shape is None:
                shape = matrix.shape
            elif matrix.shape != shape:
                raise ValueError("coefficients must share one shape")
            normalized[word] = matrix
        object.__setattr__(self, "coefficients", normalized)
        support = tuple(
            sorted(
                (w for w, a in normalized.items() if np.any(a)),
                key=lambda w: (len(w.letters), w.letters),
            )
        )
        object.__setattr__(self, "_support", support)
        object.__setattr__(self, "_degree", max((len(w.letters) for w in support), default=0))

    @property
    def support(self) -> tuple[ReducedWord, ...]:
        """Words with a nonzero coefficient, shortest first, then by letters."""
        return self._support

    @property
    def coeff_shape(self) -> tuple[int, int]:
        for coeff in self.coefficients.values():
            return coeff.shape
        return (0, 0)

    @property
    def degree(self) -> int:
        return self._degree

    @property
    def is_selfadjoint(self) -> bool:
        rows, cols = self.coeff_shape
        if rows != cols:
            return False
        for word in self.support:
            mirror = self.coefficient(word_inverse(word))
            own = self.coefficient(word)
            if not np.allclose(mirror, own.conj().T, rtol=0, atol=1e-12):
                return False
        return True

    def coefficient(self, word: ReducedWord) -> np.ndarray:
        found = self.coefficients.get(word)
        if found is not None:
            return found
        return np.zeros(self.coeff_shape, dtype=complex)

    def scaled(self, factor: complex) -> "GroupPolynomial":
        return GroupPolynomial(
            self.d, {w: factor * a for w, a in self.coefficients.items()}
        )


@dataclass(frozen=True)
class SymmetricSupport:
    """A finite inverse-closed set of reduced words."""

    words: tuple[ReducedWord, ...]

    def __post_init__(self) -> None:
        if len(set(self.words)) != len(self.words):
            raise ValueError("support words must be distinct")
        present = set(self.words)
        for word in self.words:
            if word_inverse(word) not in present:
                raise ValueError("support is not closed under inverses")

    def __len__(self) -> int:
        return len(self.words)


def symmetric_ball(d: int, radius: int) -> SymmetricSupport:
    return SymmetricSupport(tuple(enumerate_ball(d, radius)))


def evaluate_with_unitaries(
    poly: GroupPolynomial, unitaries: Sequence[np.ndarray]
) -> np.ndarray:
    """Substitute concrete unitaries for the generators."""
    if len(unitaries) != poly.d:
        raise ValueError("need one unitary per generator")
    n = unitaries[0].shape[0]
    rows, cols = poly.coeff_shape
    require_dense(rows * n * cols * n, "the evaluated polynomial")
    result = np.zeros((rows * n, cols * n), dtype=complex)
    for word, coeff in poly.coefficients.items():
        image = np.eye(n, dtype=complex)
        for color in word.letters:
            factor = unitaries[color] if color < poly.d else unitaries[color - poly.d].conj().T
            image = image @ factor
        result += np.kron(coeff, image)
    return result


def selfadjoint_embed(poly: GroupPolynomial) -> GroupPolynomial:
    """Self-adjoint doubling with the same norm in every evaluation.

    The coefficient of ``g`` becomes ``[[0, a_g], [a_{g^-1}^dagger, 0]]``,
    so the doubled polynomial evaluates to ``[[0, M], [M*, 0]]``.
    """
    rows, cols = poly.coeff_shape
    words = set(poly.coefficients)
    words.update(word_inverse(w) for w in poly.coefficients)
    doubled = {}
    for word in words:
        block = np.zeros((rows + cols, rows + cols), dtype=complex)
        block[:rows, rows:] = poly.coefficient(word)
        block[rows:, :rows] = poly.coefficient(word_inverse(word)).conj().T
        doubled[word] = block
    return GroupPolynomial(poly.d, doubled)


def norm_from_shifts(shift_norms: Mapping[float, float]) -> float:
    """Extreme-eigenvalue magnitude recovered from shifted norms.

    Expects a dominating pair ``+x0, -x0`` among the shifts; rejects
    data that fails the 1-Lipschitz dependence of ``|x.1 + P|`` on x.
    """
    if not shift_norms:
        raise ValueError("no shift data")
    items = sorted(shift_norms.items())
    for (x1, n1), (x2, n2) in zip(items, items[1:]):
        if abs(n2 - n1) > abs(x2 - x1) + LIPSCHITZ_SLACK:
            raise ValueError(
                f"shift data is not 1-Lipschitz between x={x1} and x={x2}"
            )
    paired = [x for x in shift_norms if x > 0 and -x in shift_norms]
    if not paired:
        raise ValueError("need a symmetric pair of shifts +x0, -x0")
    x0 = max(paired)
    lam_max = shift_norms[x0] - x0
    lam_min = x0 - shift_norms[-x0]
    return max(abs(lam_max), abs(lam_min))


class SqrtPencilResult(NamedTuple):
    pencil: GroupPolynomial
    shift: float
    effective_shift: float


def _product_table(
    words: Sequence[ReducedWord],
) -> tuple[dict[tuple[int, ...], int], np.ndarray]:
    """Distinct reduced products ``g_i^-1 g_j`` and the ``(m, m)`` index into them.

    Products are letter tuples, numbered in order of first appearance, row
    by row.  With ``l`` letters shared at the front of ``g`` and ``h``, the
    product is ``inverse(g)[:len(g) - l] + h[l:]``.
    """
    letters = [w.letters for w in words]
    position: dict[tuple[int, ...], int] = {}
    index = np.empty((len(words), len(words)), dtype=np.intp)
    for i, g in enumerate(letters):
        g_inv = tuple(star(c, words[i].d) for c in reversed(g))
        row = []
        for h in letters:
            common = 0
            for a, b in zip(g, h):
                if a != b:
                    break
                common += 1
            product = g_inv[:len(g_inv) - common] + h[common:]
            row.append(position.setdefault(product, len(position)))
        index[i] = row
    return position, index


def sqrt_pencil(
    poly: GroupPolynomial,
    support: SymmetricSupport,
    shift: Optional[float] = None,
) -> SqrtPencilResult:
    """Half-degree root: ``P* P = Q + c.|G|.1`` coefficient by coefficient.

    The divided coefficient matrix over ``G x G`` is shifted into strict
    positivity (``c = 1.1 |Q~| + 1`` unless a shift is imposed) and its
    Hermitian square root is cut into the columns of ``P``.
    """
    if not poly.coefficients:
        raise ValueError("square-root pencil needs at least one coefficient")
    if not poly.is_selfadjoint:
        raise ValueError("square-root pencil needs a self-adjoint polynomial")
    r = poly.coeff_shape[0]
    require_dense((len(support) * r) ** 2, "the divided coefficient matrix")
    position, index = _product_table(support.words)
    d = support.words[0].d if support.words else None
    stack = np.zeros((len(position), r, r), dtype=complex)
    for word in poly.support:
        if word.d != d or word.letters not in position:
            raise ValueError("polynomial support reaches outside the product set")
        # Added onto zeros, so a -0.0 entry is stored as +0.0, as any sum stores it.
        stack[position[word.letters]] += poly.coefficients[word]
    multiplicity = np.bincount(index.ravel())
    size = len(support)
    divided = (
        (stack / multiplicity[:, None, None])[index]
        .transpose(0, 2, 1, 3)
        .reshape(size * r, size * r)
    )
    if shift is None:
        shift = 1.1 * float(np.linalg.norm(divided, 2)) + 1.0
    shifted = divided + shift * np.eye(size * r)
    eigenvalues, vectors = np.linalg.eigh((shifted + shifted.conj().T) / 2)
    if eigenvalues.min() < POSITIVITY_FLOOR:
        raise ValueError(
            f"shifted coefficient matrix is not positive "
            f"(eigenvalue {eigenvalues.min():.3e})"
        )
    root = (vectors * np.sqrt(np.clip(eigenvalues, 0.0, None))) @ vectors.conj().T
    coefficients = {
        word: root[:, i * r:(i + 1) * r] for i, word in enumerate(support.words)
    }
    return SqrtPencilResult(
        pencil=GroupPolynomial(poly.d, coefficients),
        shift=shift,
        effective_shift=shift * size,
    )


def adjoint_product(poly: GroupPolynomial) -> tuple[dict[tuple[int, ...], int], np.ndarray]:
    """``P* P`` as ``{letters of g^-1 h: row}`` and a ``(products, c, c)`` stack.

    The blocks ``a_g^H a_h`` come from one Gram matrix of the side-by-side
    coefficients and are summed per product ``g^-1 h`` in ``(g, h)`` order.
    """
    words = tuple(poly.coefficients)
    cols = poly.coeff_shape[1]
    if not words:
        return {}, np.zeros((0, cols, cols), dtype=complex)
    position, index = _product_table(words)
    stacked = np.hstack([poly.coefficients[w] for w in words])
    m = len(words)
    blocks = (stacked.conj().T @ stacked).reshape(m, cols, m, cols).transpose(0, 2, 1, 3)
    sums = np.zeros((len(position), cols, cols), dtype=complex)
    np.add.at(sums, index, blocks)
    return position, sums


def sqrt_identity_residual(result: SqrtPencilResult, poly: GroupPolynomial) -> float:
    """Largest coefficient deviation of ``P* P`` from the shifted target.

    A word of ``poly`` outside the product table deviates by its whole target.
    """
    position, deviation = adjoint_product(result.pencil)
    identity = ReducedWord.identity(poly.d)
    shift = result.effective_shift * np.eye(poly.coeff_shape[0])
    targets = {**poly.coefficients, identity: poly.coefficient(identity) + shift}
    outside = []
    for word, target in targets.items():
        row = position.get(word.letters)
        if row is None:
            outside.append(target)
        else:
            deviation[row] -= target
    gaps = [np.abs(gap).max() for gap in (deviation, *outside) if gap.size]
    return float(max(gaps, default=0.0))


def as_matrix_pencil(poly: GroupPolynomial) -> MatrixPencil:
    """View a degree-one self-adjoint polynomial as a linear pencil."""
    if poly.degree > 1:
        raise ValueError("polynomial has degree above one")
    rows, cols = poly.coeff_shape
    if rows != cols:
        raise ValueError("linear pencil needs square coefficients")
    a0 = poly.coefficient(ReducedWord.identity(poly.d))
    a = tuple(
        poly.coefficient(ReducedWord(poly.d, (color,)))
        for color in range(2 * poly.d)
    )
    return MatrixPencil(d=poly.d, coeff_dim=rows, a0=a0, a=a)


def default_pencil_oracle(pencil: MatrixPencil) -> float:
    return astar_norm_lower(pencil, DEFAULT_ORACLE_POWER)


def poly_norm(
    poly: GroupPolynomial, oracle: PencilNormOracle = default_pencil_oracle
) -> float:
    """Free operator norm of a polynomial, by degree-halving recursion.

    Degree zero is normed exactly and degree one is handed to the
    oracle; higher degrees are shifted into a square of half degree,
    whose norm is taken recursively, and the shift is removed through
    the two-sided norm recovery.
    """
    support = poly.support
    if not support:
        return 0.0
    degree = poly.degree
    if degree == 0:
        return float(np.linalg.norm(poly.coefficient(support[0]), 2))
    working = poly if poly.is_selfadjoint else selfadjoint_embed(poly)
    if degree <= 1:
        return oracle(as_matrix_pencil(working))
    ball = symmetric_ball(poly.d, math.ceil(degree / 2))
    plus = sqrt_pencil(working, ball)
    minus = sqrt_pencil(working.scaled(-1.0), ball, shift=plus.shift)
    x0 = plus.effective_shift
    norm_plus = poly_norm(plus.pencil, oracle) ** 2
    norm_minus = poly_norm(minus.pencil, oracle) ** 2
    return norm_from_shifts({x0: norm_plus, -x0: norm_minus})
