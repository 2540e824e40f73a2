"""Exact Weingarten calculus for Haar unitary and orthogonal matrices.

Tables are exact over arbitrary-precision rationals: unitary by characters,
orthogonal by the Gram solve.  The unitary value ``Wg(sigma, n)`` is a sum
over the irreducible characters of S_k (Murnaghan-Nakayama characters and
hook-content dimensions, Collins & Sniady, CMP 2006), one term per partition
of k.  The orthogonal ``[Wg_O(p, q, n)]`` over pair partitions inverts
``[n^(blocks of p v q)]`` by a centralized solve with one unknown per coset
type.  Every value of two pairings is looked up by ``symcore.loop_type``.
The monomial expansion of Wg in powers of ``1/n``, with coefficients
counting constrained transposition factorizations, is implemented
independently and serves as a cross-check rather than as the definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, isqrt

from .symcore import (
    BAR,
    DOT,
    MAX_SYMMETRIC_DEGREE,
    CapacityError,
    EpsilonSequence,
    PairPartition,
    Permutation,
    all_permutations,
    cycle_type,
    delta_matchings,
    delta_pairs,
    enumerate_pair_partitions,
    first_appearance,
    loop_type,
    transposition_distance,
)

#: Largest total transposition count |sigma| + l that hurwitz_count will explore.
MAX_HURWITZ_DEPTH = 16
#: Largest even degree for orthogonal tables and moments: orth_moment sums
#: over all (k-1)!!^2 pairs of pair partitions (105^2 at the cap, 945^2 at 10).
MAX_ORTHOGONAL_DEGREE = 8


class UnsupportedRegimeError(ValueError):
    """Raised outside the regime where a quantity is well defined or convergent."""


def integer_partitions(k: int) -> list[tuple[int, ...]]:
    """All partitions of k, parts descending: the cycle types of S_k."""

    def rec(remaining: int, largest: int) -> list[tuple[int, ...]]:
        if remaining == 0:
            return [()]
        out = []
        for part in range(min(remaining, largest), 0, -1):
            out.extend((part,) + tail for tail in rec(remaining - part, part))
        return out

    return rec(k, k)


@lru_cache(maxsize=None)
def _character(shape: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """The irreducible character ``chi^shape`` of S_k at cycle type ``mu``.

    Murnaghan-Nakayama on beta-sets: the beads of ``shape`` sit at
    ``shape_i + l - i``, and a rim hook of length ``r = mu_1`` is a bead moved
    from ``b`` to a free place ``b - r``, of sign ``(-1)^(beads passed)``.
    """
    if not mu:
        return 1
    r, rest = mu[0], mu[1:]
    top = len(shape) - 1
    beads = [part + top - i for i, part in enumerate(shape)]
    total = 0
    for b in beads:
        if b < r or b - r in beads:
            continue
        passed = sum(1 for c in beads if b - r < c < b)
        moved = sorted((b - r if c == b else c for c in beads), reverse=True)
        smaller = tuple(c - top + i for i, c in enumerate(moved))
        total += (-1) ** passed * _character(tuple(p for p in smaller if p), rest)
    return total


def _hook_content_product(shape: tuple[int, ...], n: int) -> int:
    """``prod over cells of hook * (n + content)``.

    With ``f = k!/prod(hooks)`` and ``s(1^n) = prod((n + content)/hook)``,
    the character weight ``f^2 / (k!^2 s(1^n))`` of ``shape`` is one over
    this product.  Contents are at least ``1 - len(shape)``, so it is
    nonzero whenever ``n >= len(shape)``.
    """
    columns = [sum(1 for part in shape if part > j) for j in range(shape[0])]
    product = 1
    for i, part in enumerate(shape):
        for j in range(part):
            product *= (part - j + columns[j] - i - 1) * (n + j - i)
    return product


def _solve_fraction_free(matrix: list[list[int]], rhs: list[int]) -> list[Fraction]:
    """Solve an integer linear system exactly by fraction-free elimination.

    Bareiss one-step elimination keeps every intermediate entry an integer
    (each division is exact); back substitution then produces rationals.
    """
    size = len(matrix)
    aug = [row[:] + [b] for row, b in zip(matrix, rhs)]
    previous_pivot = 1
    for col in range(size):
        pivot_row = next((r for r in range(col, size) if aug[r][col] != 0), None)
        if pivot_row is None:
            raise UnsupportedRegimeError("singular system: Gram matrix is not invertible")
        if pivot_row != col:
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        for r in range(col + 1, size):
            row = aug[r]
            factor = row[col]
            for c in range(col + 1, size + 1):
                value = pivot * row[c] - factor * aug[col][c]
                row[c] = value // previous_pivot
            row[col] = 0
        previous_pivot = pivot
    solution = [Fraction(0)] * size
    for r in range(size - 1, -1, -1):
        acc = Fraction(aug[r][size])
        for c in range(r + 1, size):
            acc -= aug[r][c] * solution[c]
        solution[r] = acc / aug[r][r]
    return solution


@dataclass(frozen=True)
class WeingartenTable:
    """Exact unitary Weingarten values at fixed degree and dimension.

    ``values`` maps each cycle type of S_k to ``Wg(sigma, n)`` for any
    ``sigma`` of that type; centrality makes this well defined.
    """

    k: int
    n: int
    values: dict[tuple[int, ...], Fraction]

    def value(self, sigma: Permutation) -> Fraction:
        return self.values[cycle_type(sigma)]


@lru_cache(maxsize=None)
def wg_exact(k: int, n: int) -> WeingartenTable:
    """Exact Weingarten table for degree ``k`` and dimension ``n``, by characters.

    ``Wg(sigma, n) = (1/k!^2) sum_lambda (f^lambda)^2 chi^lambda(sigma) /
    s_lambda(1^n)`` over the partitions ``lambda`` of k, with exact
    Murnaghan-Nakayama characters, hook-length dimensions ``f^lambda`` and
    hook-content values ``s_lambda(1^n)``: one rational sum per cycle type.
    The Gram identity ``sum_tau n^(cycles(sigma tau^-1)) Wg(tau, n) =
    [sigma = id]`` is the independent check, in the tests and ``selftest``.

    Raises
    ------
    UnsupportedRegimeError
        When ``k > n``, where the Weingarten function is not uniquely defined.
    CapacityError
        When ``k`` exceeds the symmetric-group degree cap.
    """
    if k < 1:
        raise ValueError("degree must be positive")
    if k > MAX_SYMMETRIC_DEGREE:
        raise CapacityError(
            f"unitary Weingarten tables are capped at k = {MAX_SYMMETRIC_DEGREE}"
        )
    if k > n:
        raise UnsupportedRegimeError(
            f"Weingarten values are uniquely defined only for k <= n; got k={k}, n={n}"
        )
    shapes = integer_partitions(k)
    products = [_hook_content_product(shape, n) for shape in shapes]
    values = {
        mu: sum(
            Fraction(_character(shape, mu), product)
            for shape, product in zip(shapes, products)
        )
        for mu in shapes
    }
    return WeingartenTable(k=k, n=n, values=values)


@dataclass(frozen=True)
class HurwitzCount:
    """Number of constrained transposition factorizations of a permutation.

    ``count`` factorizations of ``sigma`` into ``|sigma| + l`` transpositions
    ``(i_p, j_p)`` with ``i_p < j_p`` and ``j_p <= j_{p+1}``.  Only even
    excess ``l`` admits solutions.
    """

    sigma: Permutation
    l: int
    count: int

    def __post_init__(self) -> None:
        if self.l % 2 == 1 and self.count != 0:
            raise ValueError("odd excess length cannot have factorizations")


@lru_cache(maxsize=None)
def _hurwitz_rec(images: tuple[int, ...], length: int, j_min: int) -> int:
    if length == 0:
        return int(images == tuple(range(1, len(images) + 1)))
    k = len(images)
    total = 0
    for j in range(j_min, k + 1):
        for i in range(1, j):
            # Multiply by the transposition (i j) on the left and recurse;
            # the j-sequence stays non-decreasing by construction.
            swapped = list(images)
            swapped[i - 1], swapped[j - 1] = swapped[j - 1], swapped[i - 1]
            total += _hurwitz_rec(tuple(swapped), length - 1, j)
    return total


def hurwitz_count(sigma: Permutation, l: int) -> int:
    """Count ordered factorizations of ``sigma`` into ``|sigma| + l`` transpositions.

    The factorizations obey ``i_p < j_p`` within each transposition and
    ``j_p <= j_{p+1}`` across consecutive ones.  Odd ``l`` gives 0 by parity.
    """
    if l < 0:
        raise ValueError("excess length must be nonnegative")
    distance = transposition_distance(sigma)
    if l + distance > MAX_HURWITZ_DEPTH:
        raise CapacityError(
            f"factorization length {l + distance} exceeds the depth cap"
            f" {MAX_HURWITZ_DEPTH}"
        )
    if l % 2 == 1:
        return 0
    return _hurwitz_rec(sigma.images, distance + l, 1)


@dataclass(frozen=True)
class SeriesEstimate:
    """Partial sum of the Weingarten monomial expansion with a rigorous tail.

    The expansion at degree k is
    ``Wg(sigma, n) = (-1)^|sigma| n^(-k-|sigma|) sum_g count(sigma, 2g) n^(-2g)``,
    and the true value differs from ``value`` by at most ``tail``.
    """

    sigma: Permutation
    n: int
    g_max: int
    value: Fraction
    tail: Fraction
    counts: tuple[HurwitzCount, ...]


def wg_series(sigma: Permutation, n: int, g_max: int) -> SeriesEstimate:
    """Truncated monomial expansion of Wg(sigma, n) with a geometric tail bound.

    The tail majorizes every dropped term via
    ``count(sigma, 2g) <= 4^|sigma| (6 k^(7/2))^g`` and sums the resulting
    geometric series exactly (the irrational ratio is rounded up to the next
    integer over ``n^2``).

    Raises
    ------
    UnsupportedRegimeError
        When ``n < k`` or ``6 k^(7/2) >= n^2``, where the series is not
        convergent or the geometric majorant diverges.
    """
    k = sigma.k
    if g_max < 0:
        raise ValueError("g_max must be nonnegative")
    if n < k:
        raise UnsupportedRegimeError(f"series converges only for n >= k; got k={k}, n={n}")
    if 36 * k**7 >= n**4:
        raise UnsupportedRegimeError(
            f"geometric majorant requires 6 k^(7/2) < n^2; got k={k}, n={n}"
        )
    distance = transposition_distance(sigma)
    counts = tuple(
        HurwitzCount(sigma=sigma, l=2 * g, count=hurwitz_count(sigma, 2 * g))
        for g in range(g_max + 1)
    )
    prefactor = Fraction((-1) ** distance, n ** (k + distance))
    partial = prefactor * sum(Fraction(record.count, n**record.l) for record in counts)
    if k == 1:
        # S_1 has no transpositions, so the g = 0 term is the whole series.
        tail = Fraction(0)
    else:
        ratio_numerator = isqrt(36 * k**7) + 1
        ratio = Fraction(ratio_numerator, n**2)
        if ratio >= 1:
            raise UnsupportedRegimeError(
                f"integer-rounded series ratio reaches 1 at k={k}, n={n}"
            )
        tail = (
            Fraction(4**distance, n ** (k + distance))
            * ratio ** (g_max + 1)
            / (1 - ratio)
        )
    return SeriesEstimate(sigma=sigma, n=n, g_max=g_max, value=partial, tail=tail, counts=counts)


@dataclass(frozen=True)
class HurwitzBoundReport:
    """Outcome of checking the two-sided factorization-count bounds."""

    k: int
    g: int
    checked: int
    violations: tuple[Permutation, ...]

    @property
    def all_pass(self) -> bool:
        return not self.violations


def check_hurwitz_bounds(k: int, g: int) -> HurwitzBoundReport:
    """Verify ``(k-1)^g P0 <= P(sigma, 2g) <= (6 k^(7/2))^g P0`` over all of S_k.

    ``P0`` is the minimal-length count ``P(sigma, 0)``.  Comparisons against
    the irrational upper constant are done exactly by squaring.  The check
    is report-only; violations are collected, not raised.
    """
    if k > 5 or g > 3:
        raise CapacityError("bound check is capped at k <= 5, g <= 3")
    violations = []
    checked = 0
    for sigma in all_permutations(k):
        checked += 1
        base = hurwitz_count(sigma, 0)
        count = hurwitz_count(sigma, 2 * g)
        lower_ok = (k - 1) ** g * base <= count
        # count <= (6 k^(7/2))^g base  <=>  count^2 <= (36 k^7)^g base^2
        upper_ok = count**2 <= (36 * k**7) ** g * base**2
        if not (lower_ok and upper_ok):
            violations.append(sigma)
    return HurwitzBoundReport(k=k, g=g, checked=checked, violations=tuple(violations))


def haar_moment(
    x: tuple[int, ...],
    y: tuple[int, ...],
    x2: tuple[int, ...],
    y2: tuple[int, ...],
    n: int,
) -> Fraction:
    """Exact mixed Haar moment ``E(prod_l U_{x_l y_l} conj(U)_{x2_l y2_l})``.

    The signed moment of ``x + x2`` and ``y + y2`` under k dots then k bars.
    """
    k = len(x)
    if not (len(y) == len(x2) == len(y2) == k):
        raise ValueError("all four index tuples must have the same length")
    return haar_moment_signed(x + x2, y + y2, EpsilonSequence((DOT,) * k + (BAR,) * k), n)


def haar_moment_signed(
    x: tuple[int, ...],
    y: tuple[int, ...],
    eps: EpsilonSequence,
    n: int,
) -> Fraction:
    """Exact value of ``E(prod_i U^{eps_i}_{x_i y_i})``.

    Dots are plain entries, bars conjugated ones.  Unbalanced sign sequences
    integrate to zero by the phase invariance of the Haar measure.  The
    moment is invariant under ``U -> PUQ`` for permutation matrices ``P``
    and ``Q``, so it is computed once per relabelling class: rows and
    columns are renumbered in order of first appearance and the value is
    memoised on that canonical key.
    """
    if len(x) != eps.k or len(y) != eps.k:
        raise ValueError("index tuples must match the sign sequence's length")
    if not eps.is_balanced():
        return Fraction(0)
    return _haar_moment_signed(first_appearance(x), first_appearance(y), eps, n)


@lru_cache(maxsize=None)
def _haar_moment_signed(
    x: tuple[int, ...], y: tuple[int, ...], eps: EpsilonSequence, n: int
) -> Fraction:
    """``sum_{p,q} delta_p(x) delta_q(y) Wg(p, q, n)`` over dot-to-bar matchings,
    ``Wg`` read off the loop type of ``p`` and ``q``."""
    if eps.k == 0:
        return Fraction(1)
    table = wg_exact(eps.k // 2, n)
    cols = [q.pairing.pairs for q in delta_matchings(eps, y)]
    total = Fraction(0)
    for p in delta_matchings(eps, x):
        for q in cols:
            total += table.values[loop_type(p.pairing.pairs + q)]
    return total


def coset_type(p: PairPartition, q: PairPartition) -> tuple[int, ...]:
    """Joint relabeling invariant of two pair partitions: their loop type."""
    return loop_type(p.pairs + q.pairs)


@dataclass(frozen=True)
class OrthWeingartenTable:
    """Exact orthogonal Weingarten values at fixed even degree and dimension.

    ``values`` maps the coset type of a pair ``(p, q)`` of pair partitions to
    ``Wg_O(p, q, n)``; the value depends on the pair only through that
    relabeling invariant.
    """

    k: int
    n: int
    values: dict[tuple[int, ...], Fraction]

    def value(self, p: PairPartition, q: PairPartition) -> Fraction:
        return self.values[coset_type(p, q)]


@lru_cache(maxsize=None)
def wg_orth_exact(k: int, n: int) -> OrthWeingartenTable:
    """Exact orthogonal Weingarten table by the centralized Gram solve.

    With ``base`` the first pair partition, ``sum_r n^(blocks of p v r)
    Wg_O(r, base, n)`` is 1 when ``p`` is the base and 0 otherwise.  It is
    solved with one row per coset type of ``(p, base)``, ``p`` its first
    partition, and one unknown per coset type of ``(r, base)``.  The Gram
    matrix commutes with the relabelings of the ground set, so the full
    inverse is constant on coset types, and a nonzero kernel always holds a
    type-constant vector: this system is singular exactly when the full one is.

    Raises
    ------
    UnsupportedRegimeError
        When ``n < 1``, which is no dimension, or when the Gram matrix is
        singular (it is invertible whenever n >= k).
    CapacityError
        When ``k`` exceeds the orthogonal degree cap.
    """
    if k % 2 != 0 or k < 2:
        raise ValueError("degree must be a positive even integer")
    if k > MAX_ORTHOGONAL_DEGREE:
        raise CapacityError(
            f"orthogonal Weingarten tables are capped at k = {MAX_ORTHOGONAL_DEGREE}"
        )
    if n < 1:
        raise UnsupportedRegimeError(f"the dimension must be at least 1; got n={n}")
    partitions = enumerate_pair_partitions(k)
    base = partitions[0]
    types = [coset_type(r, base) for r in partitions]
    first: dict[tuple[int, ...], PairPartition] = {}
    for r, key in zip(partitions, types):
        first.setdefault(key, r)
    column = {key: c for c, key in enumerate(first)}
    matrix = [[0] * len(first) for _ in first]
    for row, p in zip(matrix, first.values()):
        for r, key in zip(partitions, types):
            row[column[key]] += n ** len(coset_type(p, r))
    rhs = [int(p == base) for p in first.values()]
    values = dict(zip(first, _solve_fraction_free(matrix, rhs)))
    return OrthWeingartenTable(k=k, n=n, values=values)


def orth_moment(x: tuple[int, ...], y: tuple[int, ...], n: int) -> Fraction:
    """Exact Haar-orthogonal moment ``E(prod_i O_{x_i y_i})``.

    Zero for odd length; otherwise a double sum over pair partitions with
    delta factors on rows and columns and orthogonal Weingarten weights.
    """
    if len(x) != len(y):
        raise ValueError("index tuples must have the same length")
    if n < 1:
        raise UnsupportedRegimeError(f"the dimension must be at least 1; got n={n}")
    k = len(x)
    if k % 2 == 1:
        return Fraction(0)
    if k == 0:
        return Fraction(1)
    table = wg_orth_exact(k, n)
    partitions = enumerate_pair_partitions(k)
    total = Fraction(0)
    for p in partitions:
        if not delta_pairs(p, x):
            continue
        for q in partitions:
            if delta_pairs(q, y):
                total += table.value(p, q)
    return total


def catalan(m: int) -> int:
    """The m-th Catalan number."""
    return comb(2 * m, m) // (m + 1)
