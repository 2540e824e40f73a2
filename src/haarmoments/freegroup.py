"""Free-group words, matrix pencils, and Cayley-tree spectral estimators.

Letters are colors ``0..2d-1`` with involution ``star(i) = (i + d) % (2d)``;
colors ``0..d-1`` are the generators and ``d..2d-1`` their inverses.  A
pencil ``a0 (x) 1 + sum_i a_i (x) left-translation(g_i)`` acts on the
Cayley tree; this module computes the non-backtracking growth rate
``rho_k``, Weyl-type lower bounds on the operator norm, Dirichlet ball
compressions, the ball's spectral edges, and truncated resolvent entries
at the root.  One Schur elimination of ``mu - A`` serves the last two: it
sweeps one ``(2d, r, r)`` stack of subtree pivots per level (the
matrix-valued tree fixed point of Lehner, Amer. J. Math. 121, 1999,
iterated from the leaves), and ``mu`` lies above the spectrum exactly
when every pivot is positive definite.  The ball edges bisect on that
certificate; the resolvent accepts a shift only under it, run on the
negated pencil for shifts below the spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .symcore import CapacityError

#: Cap on enumerable non-backtracking products in ``rho_k``.
MAX_RHO_PRODUCTS = 10**9
#: Cap on the moment length (twice the Weyl power) in ``astar_norm_lower``.
MAX_MOMENT_LENGTH = 4096
#: Cap on the dimension of a materialized (dense) ball compression.
MAX_BALL_DIM = 20_000
#: Entry-stability tolerance for adaptive resolvent truncation.
RESOLVENT_TOL = 1e-8
#: Truncation radius of the first resolvent sweep; each later sweep doubles it.
RESOLVENT_START_RADIUS = 32
#: Largest truncation radius tried before giving up on a resolvent query.
MAX_RESOLVENT_RADIUS = 16_384


def star(color: int, d: int) -> int:
    """The inverse color: ``star(i) = i + d`` modulo ``2d``."""
    return (color + d) % (2 * d)


@dataclass(frozen=True)
class ReducedWord:
    """A reduced word in the free group on ``d`` generators.

    ``letters[0]`` is the outermost letter: the word is
    ``g_{letters[0]} g_{letters[1]} ...``, and the empty tuple is the
    identity (the tree root).
    """

    d: int
    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("need at least one generator")
        object.__setattr__(self, "letters", tuple(self.letters))
        for letter in self.letters:
            if not 0 <= letter < 2 * self.d:
                raise ValueError(f"letter {letter} outside 0..{2 * self.d - 1}")
        for a, b in zip(self.letters, self.letters[1:]):
            if b == star(a, self.d):
                raise ValueError(f"word is not reduced at ({a}, {b})")

    @classmethod
    def identity(cls, d: int) -> "ReducedWord":
        return cls(d, ())

    @property
    def length(self) -> int:
        return len(self.letters)

    def extend_front(self, color: int) -> "ReducedWord":
        """Left-multiply by ``g_color``, reducing a cancellation."""
        if not 0 <= color < 2 * self.d:
            raise ValueError(f"letter {color} outside 0..{2 * self.d - 1}")
        if self.letters and self.letters[0] == star(color, self.d):
            return ReducedWord(self.d, self.letters[1:])
        return ReducedWord(self.d, (color,) + self.letters)


def enumerate_ball(d: int, radius: int) -> tuple[ReducedWord, ...]:
    """All reduced words of length at most ``radius``.

    Ordered by length, then lexicographically by letters.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    words = [ReducedWord.identity(d)]
    current: list[tuple[int, ...]] = [()]
    for _ in range(radius):
        grown = [
            (color,) + letters
            for color in range(2 * d)
            for letters in current
            if not letters or letters[0] != star(color, d)
        ]
        grown.sort()
        words.extend(ReducedWord(d, letters) for letters in grown)
        current = grown
    return tuple(words)


@dataclass(frozen=True, eq=False)
class MatrixPencil:
    """Coefficients of ``a0 (x) 1 + sum_i a_i (x) translation(g_i)``."""

    d: int
    coeff_dim: int
    a0: np.ndarray
    a: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("need at least one generator")
        r = self.coeff_dim
        if r < 1:
            raise ValueError("coefficient dimension must be positive")
        a0 = np.array(self.a0, dtype=complex)
        if a0.shape != (r, r):
            raise ValueError(f"a0 must be {r} x {r}, got {a0.shape}")
        if len(self.a) != 2 * self.d:
            raise ValueError(f"need {2 * self.d} generator coefficients")
        family = []
        for i, coeff in enumerate(self.a):
            matrix = np.array(coeff, dtype=complex)
            if matrix.shape != (r, r):
                raise ValueError(f"a[{i}] must be {r} x {r}, got {matrix.shape}")
            family.append(matrix)
        object.__setattr__(self, "a0", a0)
        object.__setattr__(self, "a", tuple(family))

    @classmethod
    def from_scalars(
        cls, d: int, a0: complex, weights: Sequence[complex]
    ) -> "MatrixPencil":
        return cls(
            d=d,
            coeff_dim=1,
            a0=np.array([[a0]], dtype=complex),
            a=tuple(np.array([[w]], dtype=complex) for w in weights),
        )

    @property
    def is_selfadjoint(self) -> bool:
        if not np.allclose(self.a0, self.a0.conj().T, rtol=0, atol=1e-12):
            return False
        return all(
            np.allclose(
                self.a[star(i, self.d)], self.a[i].conj().T, rtol=0, atol=1e-12
            )
            for i in range(2 * self.d)
        )

    @property
    def coefficient_scale(self) -> float:
        """``||a0|| + sum_i ||a_i||``, an upper bound for the operator norm."""
        norms = [np.linalg.norm(self.a0, 2)]
        norms.extend(np.linalg.norm(coeff, 2) for coeff in self.a)
        return float(sum(norms))

    def negated(self) -> "MatrixPencil":
        return MatrixPencil(
            d=self.d,
            coeff_dim=self.coeff_dim,
            a0=-self.a0,
            a=tuple(-coeff for coeff in self.a),
        )


def _require_selfadjoint(pencil: MatrixPencil) -> None:
    if not pencil.is_selfadjoint:
        raise ValueError("operation requires a self-adjoint pencil")


def rho_k(pencil: MatrixPencil, k: int) -> float:
    """The level-``k`` estimate of the non-backtracking growth rate.

    Returns ``((2d-1) max_i lambda_max(sum_w M_w^* M_w))^(1/(2k))`` where
    ``w`` runs over non-backtracking color sequences of length ``k``
    starting at ``i`` and ``M_w`` multiplies the pencil coefficients along
    ``w``.  The sum is accumulated by a transfer recursion over the final
    color, which reproduces the word-by-word enumeration exactly.
    """
    if k < 1:
        raise ValueError("k must be positive")
    d = pencil.d
    colors = 2 * d
    if (2 * d - 1) ** (k - 1) * colors > MAX_RHO_PRODUCTS:
        raise CapacityError(
            f"{(2 * d - 1) ** (k - 1) * colors} non-backtracking products "
            f"exceed the cap {MAX_RHO_PRODUCTS}"
        )
    best = 0.0
    for start in range(colors):
        by_end = [np.zeros((pencil.coeff_dim,) * 2, dtype=complex) for _ in range(colors)]
        by_end[start] = pencil.a[start].conj().T @ pencil.a[start]
        for _ in range(k - 1):
            fresh = []
            for nxt in range(colors):
                inner = sum(
                    by_end[c] for c in range(colors) if c != star(nxt, d)
                )
                fresh.append(pencil.a[nxt].conj().T @ inner @ pencil.a[nxt])
            by_end = fresh
        gram = sum(by_end)
        gram = (gram + gram.conj().T) / 2
        top = float(np.linalg.eigvalsh(gram)[-1])
        best = max(best, top)
    return ((2 * d - 1) * max(best, 0.0)) ** (1 / (2 * k))


def _feeds(d: int) -> np.ndarray:
    """``feeds[t, l]``: subtree type ``t < 2d`` branches into every color
    ``l != star(t)``; the root, type ``2d``, into every color."""
    colors = 2 * d
    feeds = np.ones((colors + 1, colors), dtype=bool)
    feeds[np.arange(colors), [star(j, d) for j in range(colors)]] = False
    return feeds


def _scaled_return_table(pencil: MatrixPencil, length: int) -> np.ndarray:
    """Root return moments of the pencil rescaled by its coefficient scale.

    Entry ``m`` is the root block of the ``m``-th power of the scaled
    operator, computed by last-excursion convolution over subtree types,
    the root being the last type.
    """
    r = pencil.coeff_dim
    colors = 2 * pencil.d
    scale = pencil.coefficient_scale
    sub = np.zeros((colors + 1, length + 1, r, r), dtype=complex)
    sub[:, 0] = np.eye(r)
    if scale == 0.0:
        return sub[colors]
    feeds = _feeds(pencil.d)
    b0 = pencil.a0 / scale
    b = [coeff / scale for coeff in pencil.a]
    sub_right = np.zeros((colors, length + 1, r, r), dtype=complex)
    for c in range(colors):
        sub_right[c, 0] = b[c]
    for m in range(1, length + 1):
        for t in range(colors + 1):
            acc = b0 @ sub[t, m - 1]
            if m >= 2:
                tail = sub[t, m - 2 :: -1][: m - 1]
                for c in np.flatnonzero(feeds[t]):
                    conv = np.einsum("mij,mjk->ik", sub_right[c, : m - 1], tail)
                    acc += b[star(c, pencil.d)] @ conv
            sub[t, m] = acc
            if t < colors:
                sub_right[t, m] = acc @ b[t]
    return sub[colors]


def root_return_moments(pencil: MatrixPencil, length: int) -> np.ndarray:
    """``(A^m)_{oo}`` blocks for ``m = 0..length`` on the infinite tree."""
    if length < 0:
        raise ValueError("length must be nonnegative")
    if length > MAX_MOMENT_LENGTH:
        raise CapacityError(f"moment length capped at {MAX_MOMENT_LENGTH}")
    scale = pencil.coefficient_scale
    table = _scaled_return_table(pencil, length)
    powers = scale ** np.arange(length + 1)
    return table * powers[:, None, None]


def astar_norm_lower(pencil: MatrixPencil, m: int, seed: int = 0) -> float:
    """Weyl lower bound ``max_phi ||A^m (phi (x) delta_o)||^(1/m)``.

    Trial vectors are the canonical coefficient basis plus one seeded
    random unit vector.  The bound is monotone nondecreasing in ``m`` and
    converges to the operator norm from below.
    """
    _require_selfadjoint(pencil)
    if m < 1:
        raise ValueError("m must be positive")
    if 2 * m > MAX_MOMENT_LENGTH:
        raise CapacityError(f"moment length capped at {MAX_MOMENT_LENGTH}")
    scale = pencil.coefficient_scale
    if scale == 0.0:
        return 0.0
    block = _scaled_return_table(pencil, 2 * m)[2 * m]
    r = pencil.coeff_dim
    trials = [np.eye(r, dtype=complex)[:, j] for j in range(r)]
    rng = np.random.default_rng(seed)
    random_trial = rng.standard_normal(r) + 1j * rng.standard_normal(r)
    trials.append(random_trial / np.linalg.norm(random_trial))
    best = 0.0
    for phi in trials:
        value = float(np.real(phi.conj() @ block @ phi))
        best = max(best, value)
    return scale * best ** (1 / (2 * m))


@dataclass(frozen=True, eq=False)
class TreeBallOperator:
    """Compression of the pencil operator to a ball of reduced words."""

    radius: int
    basis: tuple[ReducedWord, ...]
    matrix: np.ndarray
    coeff_dim: int

    @property
    def dimension(self) -> int:
        return self.coeff_dim * len(self.basis)

    def norm(self) -> float:
        return float(np.linalg.norm(self.matrix, 2))


def build_tree_ball(pencil: MatrixPencil, radius: int) -> TreeBallOperator:
    """Materialize the dense ball compression, capped at ``MAX_BALL_DIM``."""
    r = pencil.coeff_dim
    words, shell = 1, 2 * pencil.d
    for _ in range(radius):
        words += shell
        shell *= 2 * pencil.d - 1
        if r * words > MAX_BALL_DIM:
            raise CapacityError(
                f"the radius-{radius} ball exceeds the dimension cap {MAX_BALL_DIM}"
            )
    basis = enumerate_ball(pencil.d, radius)
    index = {word.letters: pos for pos, word in enumerate(basis)}
    matrix = np.zeros((r * len(basis),) * 2, dtype=complex)
    for col, word in enumerate(basis):
        cols = slice(col * r, (col + 1) * r)
        matrix[cols, cols] = pencil.a0
        for color in range(2 * pencil.d):
            row = index.get(word.extend_front(color).letters)
            if row is not None:
                matrix[row * r : (row + 1) * r, cols] = pencil.a[color]
    return TreeBallOperator(radius=radius, basis=basis, matrix=matrix, coeff_dim=r)


def _positive_definite_inverse(pivots: np.ndarray) -> np.ndarray | None:
    """Inverses of the hermitized pivot stack, ``None`` unless all are positive definite."""
    hermitized = (pivots + pivots.conj().swapaxes(-1, -2)) / 2
    try:
        np.linalg.cholesky(hermitized)
    except np.linalg.LinAlgError:
        return None
    return np.linalg.inv(hermitized)


def _schur_recursion(
    pencil: MatrixPencil,
    mu: float,
    depth: int,
    sub: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None] | None:
    """Leaf-to-root Schur elimination of ``mu - A`` on the radius-``depth`` ball.

    Each level subtracts the branch terms ``a_{l*} G_l a_l`` (one batched
    product) from the bare pivot in ascending color ``l`` wherever ``_feeds``
    allows, then inverts the whole stack in one call, or returns ``None``
    as soon as a pivot is not positive definite, which is exactly when
    ``mu`` is not above the ball's spectrum.  Returns the inverted root
    pivot and the ``(2d, r, r)`` stack of inverted subtree pivots (``None``
    at depth 0); passing that stack back as ``sub`` continues the sweep
    ``depth`` levels.
    """
    colors = 2 * pencil.d
    feeds = _feeds(pencil.d)
    a = np.stack(pencil.a)
    a_star = a[[star(l, pencil.d) for l in range(colors)]]
    bare = mu * np.eye(pencil.coeff_dim) - pencil.a0
    for level in range(depth + 1):
        types = feeds[:colors] if level < depth else feeds[colors:]
        pivots = np.repeat(bare[None], len(types), axis=0)
        if sub is not None:
            terms = a_star @ sub @ a
            for l in range(colors):
                pivots[types[:, l]] -= terms[l]
        inverses = _positive_definite_inverse(pivots)
        if inverses is None:
            return None
        if level < depth:
            sub = inverses
    return inverses[0], sub


def _ball_top(pencil: MatrixPencil, radius: int, tol: float) -> float:
    """Top of the ball spectrum by bisection on the shift ``mu``.

    ``mu`` lies above the spectrum exactly when every Schur pivot of
    ``mu - A_ball`` is positive definite.  The bisection also stops once
    ``lo`` and ``hi`` are adjacent floats, so any ``tol >= 0`` terminates.
    """
    scale = pencil.coefficient_scale
    lo, hi = -scale - 1.0, scale + 1.0
    mid = (lo + hi) / 2
    while hi - lo > tol and lo < mid < hi:
        if _schur_recursion(pencil, mid, radius) is not None:
            hi = mid
        else:
            lo = mid
        mid = (lo + hi) / 2
    return mid


def ball_spectrum_bounds(
    pencil: MatrixPencil, radius: int, tol: float = 1e-9
) -> tuple[float, float]:
    """Extreme eigenvalues of the ball compression, without materializing it.

    Bisection on the shift with a positive-definiteness test per level;
    both values lie inside the hull of the infinite operator's spectrum,
    and they converge to its edges as the radius grows.
    """
    _require_selfadjoint(pencil)
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    top = _ball_top(pencil, radius, tol)
    bottom = -_ball_top(pencil.negated(), radius, tol)
    return bottom, top


def _converged_sweep(
    pencil: MatrixPencil, mu: float, targets: Sequence[ReducedWord]
) -> tuple[dict[ReducedWord, np.ndarray], MatrixPencil, np.ndarray]:
    """Stable resolvent entries at ``mu``, the pencil swept, its subtree pivot inverses.

    ``mu`` above every eigenvalue of ``a0`` is swept as given; below them,
    as ``-mu`` on the negated pencil, whose entries are negated back.  Any
    other ``mu`` lies inside the spectrum's hull, because ``a0`` is a
    compression of ``A``.  The sweep continues across radius doublings
    until every requested entry moves by less than ``RESOLVENT_TOL``, and
    refuses ``mu`` at the first pivot that is not definite.
    """
    _require_selfadjoint(pencil)
    for word in targets:
        if word.d != pencil.d:
            raise ValueError("target word over a different generator count")
        if word.length > 1:
            raise ValueError("resolvent targets must have length <= 1")
    a0_eigenvalues = np.linalg.eigvalsh(pencil.a0)
    if mu > a0_eigenvalues[-1]:
        side, shift, sign = pencil, mu, 1
    elif mu < a0_eigenvalues[0]:
        side, shift, sign = pencil.negated(), -mu, -1
    else:
        raise ValueError(
            f"mu={mu} lies inside the spectrum's hull: it is within the "
            "eigenvalue range of a0"
        )
    sub = previous = None
    radius = 0
    while radius < MAX_RESOLVENT_RADIUS:
        step = radius or RESOLVENT_START_RADIUS
        eliminated = _schur_recursion(side, shift, step, sub)
        if eliminated is None:
            raise ValueError(
                f"mu={mu} lies inside the spectrum's hull: a Schur pivot on "
                f"the radius-{radius + step} ball is not definite"
            )
        root, sub = eliminated
        radius += step
        current = {
            word: root if word.length == 0
            else root @ side.a[star(word.letters[0], side.d)] @ sub[word.letters[0]]
            for word in targets
        }
        if previous is not None and max(
            (float(np.max(np.abs(current[w] - previous[w]))) for w in targets),
            default=0.0,
        ) < RESOLVENT_TOL:
            return {word: sign * block for word, block in current.items()}, side, sub
        previous = current
    raise ValueError(
        f"resolvent entries did not stabilize to {RESOLVENT_TOL} by radius "
        f"{MAX_RESOLVENT_RADIUS}"
    )


def resolvent_entries(
    pencil: MatrixPencil, mu: float, targets: Sequence[ReducedWord]
) -> Mapping[ReducedWord, np.ndarray]:
    """Resolvent blocks ``G_{o, w}(mu)`` for target words of length <= 1.

    Dirichlet truncation on a ball whose radius starts at
    ``RESOLVENT_START_RADIUS`` and doubles, up to ``MAX_RESOLVENT_RADIUS``,
    until every requested entry moves by less than ``RESOLVENT_TOL``.
    ``mu`` is accepted only when every Schur pivot of ``mu - A`` (of
    ``A - mu`` below the spectrum) is positive definite, which certifies
    that it lies outside the spectrum's hull; otherwise ``ValueError``.
    """
    return _converged_sweep(pencil, mu, targets)[0]


def hat_weights(pencil: MatrixPencil, mu: float) -> tuple[np.ndarray, ...]:
    """Companion non-backtracking weights ``G_oo^{-1} G_{o g_c}`` at ``mu``.

    Since ``G_{o g_c} = G_oo a_{c*} G^(c)``, with ``G^(c)`` the inverted
    pivot of the subtree behind ``g_c``, each weight is ``a_{c*} G^(c)``,
    read off the converged sweep of :func:`resolvent_entries` (on the
    negated pencil below the spectrum, where both factors change sign).
    """
    d = pencil.d
    targets = [ReducedWord.identity(d)] + [ReducedWord(d, (c,)) for c in range(2 * d)]
    _, side, sub = _converged_sweep(pencil, mu, targets)
    return tuple(side.a[star(c, d)] @ sub[c] for c in range(2 * d))
