"""Exact Weingarten calculus for Haar unitary and orthogonal matrices.

The Weingarten function is realized by exact Gram-matrix inversion over
arbitrary-precision rationals: ``[Wg(pq^-1, n)]`` over S_k inverts
``[n^(cycles of pq^-1)]``, and ``[Wg_O(p, q, n)]`` over pair partitions
inverts ``[n^(blocks of p v q)]``.  One centralized solve serves both groups
with one unknown per cycle type or coset type.  The monomial expansion of Wg
in powers of ``1/n``, with coefficients counting constrained transposition
factorizations, is implemented independently and serves as a cross-check
rather than as the definition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, isqrt
from typing import Callable, Hashable, Sequence

from .symcore import (
    MAX_SYMMETRIC_DEGREE,
    CapacityError,
    EpsilonSequence,
    PairPartition,
    Permutation,
    SetPartition,
    all_permutations,
    cycle_type,
    delta_pairs,
    enumerate_pair_partitions,
    join,
    transposition_distance,
)

#: Largest total transposition count |sigma| + l that hurwitz_count will explore.
MAX_HURWITZ_DEPTH = 16
#: Largest even degree for orthogonal tables and moments: orth_moment sums
#: over all (k-1)!!^2 pairs of pair partitions (105^2 at the cap, 945^2 at 10).
MAX_ORTHOGONAL_DEGREE = 8


class UnsupportedRegimeError(ValueError):
    """Raised outside the regime where a quantity is well defined or convergent."""


def _integer_partitions(k: int) -> list[tuple[int, ...]]:
    """All partitions of k, parts descending: the cycle types of S_k."""

    def rec(remaining: int, largest: int) -> list[tuple[int, ...]]:
        if remaining == 0:
            return [()]
        out = []
        for part in range(min(remaining, largest), 0, -1):
            out.extend((part,) + tail for tail in rec(remaining - part, part))
        return out

    return rec(k, k)


def _cycle_count_of_composition(outer: tuple[int, ...], inner_inverse: tuple[int, ...]) -> int:
    """Number of cycles of l -> outer[inner_inverse[l-1]-1], without materializing it."""
    k = len(outer)
    seen = [False] * k
    cycles = 0
    for start in range(k):
        if seen[start]:
            continue
        cycles += 1
        l = start
        while not seen[l]:
            seen[l] = True
            l = outer[inner_inverse[l] - 1] - 1
    return cycles


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

    def value_of_product(self, p: Permutation, q: Permutation) -> Fraction:
        """Wg(p q^-1, n), the coefficient attached to the pair (p, q)."""
        return self.value(p.compose(q.invert()))


def _central_gram_solve(
    elements: Sequence, type_of: Callable, overlap: Callable[..., int], n: int
) -> dict[Hashable, Fraction]:
    """The Weingarten column of the base ``elements[0]``, one unknown per type.

    Solves ``sum_t n^overlap(rep, t) W[type_of(t)] = [rep is the base]`` with
    one row per type, ``rep`` its first element.  The Gram matrix commutes
    with the group acting on ``elements``, so the full inverse is constant on
    types, and a nonzero kernel always holds a type-constant vector: this
    system is singular exactly when the full one is.
    """
    types = [type_of(element) for element in elements]
    first: dict[Hashable, object] = {}
    for element, key in zip(elements, types):
        first.setdefault(key, element)
    column = {key: c for c, key in enumerate(first)}
    matrix = [[0] * len(first) for _ in first]
    for row, rep in zip(matrix, first.values()):
        for element, key in zip(elements, types):
            row[column[key]] += n ** overlap(rep, element)
    rhs = [int(rep == elements[0]) for rep in first.values()]
    return dict(zip(first, _solve_fraction_free(matrix, rhs)))


@lru_cache(maxsize=None)
def wg_exact(k: int, n: int) -> WeingartenTable:
    """Exact Weingarten table for degree ``k`` and dimension ``n``.

    Solves the centralized Gram system: for each cycle type with first
    representative ``sigma``, ``sum_tau n^(cycles(sigma tau^-1)) Wg(tau, n)``
    is 1 when ``sigma`` is the identity and 0 otherwise.

    Raises
    ------
    UnsupportedRegimeError
        When ``k > n``, where the Weingarten function is not uniquely defined.
    CapacityError
        When ``k`` exceeds the S_k enumeration cap.
    """
    if k < 1:
        raise ValueError("degree must be positive")
    if k > MAX_SYMMETRIC_DEGREE:
        raise CapacityError(
            f"the Gram solve walks S_{k}; it is capped at k = {MAX_SYMMETRIC_DEGREE}"
        )
    if k > n:
        raise UnsupportedRegimeError(
            f"Weingarten values are uniquely defined only for k <= n; got k={k}, n={n}"
        )
    # Summing over tau^-1 instead of tau keeps each cycle type and turns the
    # overlap into cycles(sigma tau), so the one-line images need no inverse.
    values = _central_gram_solve(
        list(itertools.permutations(range(1, k + 1))),
        lambda images: cycle_type(Permutation(images)),
        _cycle_count_of_composition,
        n,
    )
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


def _delta_survivors(x: tuple[int, ...], x2: tuple[int, ...]) -> list[Permutation]:
    """Permutations p with delta_p(x, x2) = 1, i.e. x_l = x2_{p(l)} for all l."""
    k = len(x)
    positions: dict[int, list[int]] = {}
    for l, value in enumerate(x2, start=1):
        positions.setdefault(value, []).append(l)
    survivors: list[Permutation] = []

    def rec(l: int, images: list[int], used: set[int]) -> None:
        if l > k:
            survivors.append(Permutation(tuple(images)))
            return
        for target in positions.get(x[l - 1], ()):
            if target not in used:
                images.append(target)
                used.add(target)
                rec(l + 1, images, used)
                used.remove(target)
                images.pop()

    rec(1, [], set())
    return survivors


def haar_moment(
    x: tuple[int, ...],
    y: tuple[int, ...],
    x2: tuple[int, ...],
    y2: tuple[int, ...],
    n: int,
) -> Fraction:
    """Exact mixed Haar moment ``E(prod_l U_{x_l y_l} conj(U)_{x2_l y2_l})``.

    Assembled as ``sum_{p,q} delta_p(x, x2) delta_q(y, y2) Wg(p q^-1, n)``;
    only the permutations surviving each delta factor are enumerated.
    """
    k = len(x)
    if not (len(y) == len(x2) == len(y2) == k):
        raise ValueError("all four index tuples must have the same length")
    if k == 0:
        return Fraction(1)
    table = wg_exact(k, n)
    row_survivors = _delta_survivors(x, x2)
    col_survivors = _delta_survivors(y, y2)
    total = Fraction(0)
    for p in row_survivors:
        for q in col_survivors:
            total += table.value_of_product(p, q)
    return total


def haar_moment_signed(
    x: tuple[int, ...],
    y: tuple[int, ...],
    eps: EpsilonSequence,
    n: int,
) -> Fraction:
    """Exact value of ``E(prod_i U^{eps_i}_{x_i y_i})``.

    Dots are plain entries, bars conjugated ones.  Unbalanced sign sequences
    integrate to zero by the phase invariance of the Haar measure.
    """
    if len(x) != eps.k or len(y) != eps.k:
        raise ValueError("index tuples must match the sign sequence's length")
    if not eps.is_balanced():
        return Fraction(0)
    dots, bars = eps.dots(), eps.bars()
    return haar_moment(
        tuple(x[l - 1] for l in dots),
        tuple(y[l - 1] for l in dots),
        tuple(x[l - 1] for l in bars),
        tuple(y[l - 1] for l in bars),
        n,
    )


def coset_type(p: PairPartition, q: PairPartition) -> tuple[int, ...]:
    """Joint relabeling invariant of two pair partitions.

    The blocks of the join all have even sizes ``2 m_1 >= 2 m_2 >= ...``;
    the coset type is ``(m_1, m_2, ...)``.
    """
    joined = join(p.as_set_partition(), q.as_set_partition())
    return tuple(sorted((len(block) // 2 for block in joined.blocks), reverse=True))


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

    The same solve as :func:`wg_exact`, over pair partitions: with ``base``
    the first pair partition, ``sum_r n^(blocks of p v r) Wg_O(r, base, n)``
    is 1 when ``p`` is the base and 0 otherwise, one equation and one
    unknown per coset type of ``(r, base)``.

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
    values = _central_gram_solve(
        partitions,
        lambda r: coset_type(r, base),
        lambda p, r: len(coset_type(p, r)),
        n,
    )
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
