"""Centered Weingarten calculus for products of mean-zero brackets.

A bracket moment is the expectation of a product of centered blocks, each
block a product of Haar-unitary entries.  Its Weingarten expansion replaces
the plain function by a generalized one indexed by the block partition; the
generalized function is built here by inclusion and exclusion over subsets
of blocks, expanded combinatorially through restricted transposition
factorizations, and bounded by the decay estimate that powers all later
Gaussian-domination checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import Callable, Iterable, Iterator

from .symcore import (
    CapacityError,
    EpsilonMatching,
    EpsilonSequence,
    Permutation,
    SetPartition,
    delta_matchings,
    loop_type,
    transposition_distance,
)
from .weingarten import (
    MAX_HURWITZ_DEPTH,
    UnsupportedRegimeError,
    haar_moment_signed,
    orth_moment,
    wg_exact,
)

#: Largest number of brackets the inclusion-exclusion sum will expand (2^T terms).
MAX_BRACKET_BLOCKS = 8
#: Decimal digits of the rational lower bounds on ``k^(7/2)`` and ``k^(7/4)``.
ROOT_DIGITS = 24


@dataclass(frozen=True)
class BracketMomentSpec:
    """One centered moment ``E(prod_t [ prod_{i in pi_t} U^{eps_i}_{x_i y_i} ])``.

    ``pi`` groups the k factor positions into brackets; ``eps`` marks which
    factors are conjugated; ``x`` and ``y`` carry the row and column indices.
    """

    pi: SetPartition
    eps: EpsilonSequence
    x: tuple[int, ...]
    y: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", tuple(self.x))
        object.__setattr__(self, "y", tuple(self.y))
        k = self.pi.k
        if k % 2 != 0:
            raise ValueError("bracket moments are defined for even degree")
        if self.eps.k != k or len(self.x) != k or len(self.y) != k:
            raise ValueError("pi, eps, x, y must share the same ground set size")

    @property
    def k(self) -> int:
        return self.pi.k

    @property
    def block_count(self) -> int:
        return len(self.pi.blocks)


@dataclass(frozen=True)
class CenteredWgValue:
    """A generalized Weingarten value together with its decay exponent."""

    p: EpsilonMatching
    q: EpsilonMatching
    value: Fraction
    restricted_block_count: int


def matching_permutation(p: EpsilonMatching, q: EpsilonMatching) -> Permutation:
    """The bijection ``q^-1 p`` on dot positions, relabeled in increasing order."""
    if p.epsilon != q.epsilon:
        raise ValueError("matchings must share the same sign sequence")
    dots = p.epsilon.dots()
    index = {d: i for i, d in enumerate(dots, start=1)}
    return Permutation(tuple(index[q.dot_of(p.bar_of(d))] for d in dots))


def matching_weingarten(p: EpsilonMatching, q: EpsilonMatching, n: int) -> Fraction:
    """Plain Weingarten value Wg(p, q, n) of a pair of matchings."""
    if p.epsilon != q.epsilon:
        raise ValueError("matchings must share the same sign sequence")
    return wg_exact(p.epsilon.k // 2, n).values[loop_type(p.pairing.pairs + q.pairing.pairs)]


def _leaves_invariant(pieces: Iterable[Iterable[int]], block: frozenset) -> bool:
    """True when every piece is inside ``block`` or disjoint from it."""
    return all(block.issuperset(piece) or block.isdisjoint(piece) for piece in pieces)


def _validate_bracket_inputs(
    pi: SetPartition, p: EpsilonMatching, q: EpsilonMatching
) -> None:
    if p.epsilon != q.epsilon:
        raise ValueError("matchings must share the same sign sequence")
    if pi.k != p.epsilon.k:
        raise ValueError("partition and matchings must share the ground set")


@lru_cache(maxsize=None)
def _inclusion_exclusion_plan(
    blocks: tuple[frozenset, ...]
) -> tuple[tuple[int, tuple[int, ...], tuple[tuple[int, ...], ...]], ...]:
    """``(sign, sorted union of A, sorted blocks outside A)`` for every subset
    ``A`` of the blocks, in ``itertools.combinations`` order by size."""
    block_count = len(blocks)
    plan = []
    for size in range(block_count + 1):
        sign = (-1) ** (block_count - size)
        for subset in itertools.combinations(range(block_count), size):
            merged = tuple(sorted(itertools.chain.from_iterable(blocks[t] for t in subset)))
            rest = tuple(
                tuple(sorted(block)) for t, block in enumerate(blocks) if t not in subset
            )
            plan.append((sign, merged, rest))
    return tuple(plan)


def _inclusion_exclusion(
    blocks: tuple[frozenset, ...], sub_moment: Callable[[tuple[int, ...]], Fraction]
) -> Fraction:
    """``sum_A (-1)^(T-|A|) m(union of A) prod_{t not in A} m(B_t)``.

    ``A`` runs over subsets of the ``T`` blocks and ``m`` is ``sub_moment``
    evaluated on sorted positions; the empty product ``m(())`` is 1 and is
    never asked for.  A term stops at its first zero factor.  The subsets
    and their sorted positions are planned once per block tuple.
    """
    if len(blocks) > MAX_BRACKET_BLOCKS:
        raise CapacityError(
            f"inclusion-exclusion over 2^T subsets is capped at T = {MAX_BRACKET_BLOCKS}"
        )
    total = Fraction(0)
    for sign, merged, rest in _inclusion_exclusion_plan(blocks):
        term = sub_moment(merged) if merged else Fraction(1)
        if term == 0:
            continue
        for positions in rest:
            term *= sub_moment(positions)
            if term == 0:
                break
        total += sign * term
    return total


@lru_cache(maxsize=None)
def wg_bracket(
    pi: SetPartition, p: EpsilonMatching, q: EpsilonMatching, n: int
) -> Fraction:
    """The generalized Weingarten function Wg[pi](p, q, n).

    Inclusion-exclusion over subsets of blocks, whose sub-moment on a union
    ``S`` of blocks is the plain Weingarten value of the pairs of ``p`` and
    ``q`` inside ``S`` when both matchings leave ``S`` invariant, and 0
    otherwise.  Memoised on its (hashable) arguments.
    """
    _validate_bracket_inputs(pi, p, q)
    k = pi.k
    if k // 2 > n:
        raise UnsupportedRegimeError(
            f"Weingarten factors need k/2 <= n; got k={k}, n={n}"
        )
    pairs = p.pairing.pairs + q.pairing.pairs

    def sub_moment(positions: tuple[int, ...]) -> Fraction:
        block = frozenset(positions)
        if not _leaves_invariant(pairs, block):
            return Fraction(0)
        inside = [pair for pair in pairs if pair[0] in block]
        return wg_exact(len(positions) // 2, n).values[loop_type(inside)]

    return _inclusion_exclusion(pi.blocks, sub_moment)


def restricted_block_count(
    pi: SetPartition, p: EpsilonMatching, q: EpsilonMatching
) -> int:
    """Number of blocks of ``pi`` that are unions of blocks of ``p v q``.

    A block is such a union exactly when both matchings leave it invariant.
    """
    _validate_bracket_inputs(pi, p, q)
    pairs = p.pairing.pairs + q.pairing.pairs
    return sum(1 for block in pi.blocks if _leaves_invariant(pairs, block))


def centered_wg_value(
    pi: SetPartition, p: EpsilonMatching, q: EpsilonMatching, n: int
) -> CenteredWgValue:
    return CenteredWgValue(
        p=p,
        q=q,
        value=wg_bracket(pi, p, q, n),
        restricted_block_count=restricted_block_count(pi, p, q),
    )


def bracket_expansion(spec: BracketMomentSpec, n: int) -> Fraction:
    """Centered moment by direct inclusion-exclusion over bracket subsets.

    ``E([X_1]...[X_T]) = sum_A (-1)^(T-|A|) E(prod_{t in A} X_t)
    prod_{t not in A} E(X_t)``, every expectation a plain signed Haar moment.
    """

    def sub_moment(positions: tuple[int, ...]) -> Fraction:
        return haar_moment_signed(
            tuple(spec.x[l - 1] for l in positions),
            tuple(spec.y[l - 1] for l in positions),
            EpsilonSequence(tuple(spec.eps.signs[l - 1] for l in positions)),
            n,
        )

    return _inclusion_exclusion(spec.pi.blocks, sub_moment)


def centered_moment(spec: BracketMomentSpec, n: int) -> Fraction:
    """Exact value of the bracket moment described by ``spec``.

    Balanced sign sequences go through the matching sum
    ``sum_{p,q} delta_p(x) delta_q(y) Wg[pi](p, q, n)``.  An unbalanced one
    gives 0, as in :func:`haar_moment_signed`: every term of the bracket
    expansion then has an unbalanced factor.
    """
    if not spec.eps.is_balanced():
        return Fraction(0)
    if spec.k // 2 > n:
        raise UnsupportedRegimeError(
            f"matching sum needs k/2 <= n; got k={spec.k}, n={n}"
        )
    p_survivors = delta_matchings(spec.eps, spec.x)
    q_survivors = delta_matchings(spec.eps, spec.y)
    total = Fraction(0)
    for p in p_survivors:
        for q in q_survivors:
            total += wg_bracket(spec.pi, p, q, n)
    return total


def _factorization_solutions(
    images: tuple[int, ...], length: int, j_min: int
) -> Iterator[tuple[tuple[int, int], ...]]:
    """All constrained transposition sequences multiplying to the permutation.

    Mirrors the counting recursion of :func:`haarmoments.weingarten.
    hurwitz_count` but yields the sequences themselves; branches that cannot
    reach the identity in the remaining length are pruned by the
    transposition distance.
    """
    k = len(images)
    identity = tuple(range(1, k + 1))
    if length == 0:
        if images == identity:
            yield ()
        return
    distance = transposition_distance(Permutation(images))
    if distance > length:
        return
    for j in range(j_min, k + 1):
        for i in range(1, j):
            swapped = list(images)
            swapped[i - 1], swapped[j - 1] = swapped[j - 1], swapped[i - 1]
            for tail in _factorization_solutions(tuple(swapped), length - 1, j):
                yield ((i, j),) + tail


def restricted_hurwitz_count(
    pi: SetPartition, p: EpsilonMatching, q: EpsilonMatching, l: int
) -> int:
    """Count factorizations of ``p q^-1`` restricted to no single block of pi.

    Transpositions act on the dot positions with their inherited order.  A
    solution is excluded when some block of ``pi`` is left invariant by
    ``p``, by ``q``, and by every transposition.
    """
    _validate_bracket_inputs(pi, p, q)
    if l < 0:
        raise ValueError("excess length must be nonnegative")
    sigma = matching_permutation(p, q)
    length = transposition_distance(sigma) + l
    if length > MAX_HURWITZ_DEPTH:
        raise CapacityError(
            f"factorization length {length} exceeds the depth cap {MAX_HURWITZ_DEPTH}"
        )
    dots = p.epsilon.dots()
    pairs = p.pairing.pairs + q.pairing.pairs
    invariant_under_both = [
        block for block in pi.blocks if _leaves_invariant(pairs, block)
    ]
    count = 0
    for solution in _factorization_solutions(sigma.images, length, 1):
        relabeled = [(dots[i - 1], dots[j - 1]) for i, j in solution]
        confined = any(
            _leaves_invariant(relabeled, block) for block in invariant_under_both
        )
        if not confined:
            count += 1
    return count


@dataclass(frozen=True)
class CenteredEstimateReport:
    """Outcome of the decay-estimate check for one (pi, p, q, n) instance."""

    k: int
    n: int
    value: CenteredWgValue
    bound: Fraction
    passes: bool


def _root_lower(x: int, degree: int) -> Fraction:
    """``x ** (1/degree)`` floored to ``ROOT_DIGITS`` decimals, for degree 2 or 4."""
    scale = 10**ROOT_DIGITS
    root = isqrt(x * scale**degree)
    return Fraction(root if degree == 2 else isqrt(root), scale)


def check_centered_estimate(
    pi: SetPartition, p: EpsilonMatching, q: EpsilonMatching, n: int
) -> CenteredEstimateReport:
    """Check ``|Wg[pi](p,q,n)|`` against its decay bound, exactly.

    The bound is ``(1 + 3 k^(7/2) n^-2) n^(-k/2-|s|) 4^|s| (k^(7/4) n^-1)^r``
    with ``s = p q^-1`` and ``r`` the restricted block count.  The irrational
    powers of k are replaced by rational lower bounds, which only makes the
    check stricter.  Report-only: failures are flagged, not raised.
    """
    _validate_bracket_inputs(pi, p, q)
    k = pi.k
    if 4 * k**7 > n**4:
        raise UnsupportedRegimeError(
            f"estimate requires 2 k^(7/2) <= n^2; got k={k}, n={n}"
        )
    record = centered_wg_value(pi, p, q, n)
    distance = transposition_distance(matching_permutation(p, q))
    k_7_2 = _root_lower(k**7, 2)
    k_7_4 = _root_lower(k**7, 4)
    bound = (
        (1 + 3 * k_7_2 / n**2)
        * Fraction(4**distance, n ** (k // 2 + distance))
        * (k_7_4 / n) ** record.restricted_block_count
    )
    return CenteredEstimateReport(
        k=k, n=n, value=record, bound=bound, passes=abs(record.value) <= bound
    )


def centered_moment_orth(
    pi: SetPartition, x: tuple[int, ...], y: tuple[int, ...], n: int
) -> Fraction:
    """Centered moment of bracketed Haar-orthogonal entry products.

    Evaluated by the bracket expansion with plain orthogonal moments; odd
    sub-products vanish on their own.
    """
    k = pi.k
    if k % 2 != 0:
        raise ValueError("bracket moments are defined for even degree")
    if len(x) != k or len(y) != k:
        raise ValueError("index tuples must match the partition's ground set")

    def sub_moment(positions: tuple[int, ...]) -> Fraction:
        return orth_moment(
            tuple(x[l - 1] for l in positions),
            tuple(y[l - 1] for l in positions),
            n,
        )

    return _inclusion_exclusion(pi.blocks, sub_moment)
