"""Complex Wick calculus and the Gaussian-domination comparison harness.

Moments of products of complex Gaussians are permanents of covariance
matrices; centered (bracketed) products restrict the pairing sum to
matchings that cross every block.  The comparison checks bound exact
Haar-unitary moments (left-hand sides, kept rational) by shifted Gaussian
moments (right-hand sides, floats): the warmup inequality, its bracketed
refinement, and the multiplicity-based bound with a uniform constant.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Hashable, Mapping, Optional, Sequence

from .centered_wg import BracketMomentSpec, centered_moment
from .symcore import (
    BAR,
    DOT,
    CapacityError,
    EpsilonSequence,
    SetPartition,
    first_appearance,
)
from .weingarten import haar_moment_signed

#: Largest number of unbarred factors for the permanent sum (m! growth).
MAX_WICK_FACTORS = 8
#: Universal constant c in the multiplicity-based moment bound of ``check_cor_wg2``.
WG2_CONSTANT = 8.0
#: Relative slack absorbing double-precision rounding in float comparisons.
COMPARISON_SLACK = 1e-9

Covariance = Callable[[Hashable, Hashable], complex]


def _as_covariance(cov: Covariance | Mapping) -> Covariance:
    if callable(cov):
        return cov
    return lambda g, h: cov.get((g, h), 0)


def entry_covariance(g: Hashable, h: Hashable) -> complex:
    """Covariance of independent standard complex Gaussian matrix entries."""
    return 1 if g == h else 0


def wick_complex(
    cov: Covariance | Mapping,
    g_indices: Sequence[Hashable],
    h_indices: Sequence[Hashable],
) -> complex:
    """Wick moment ``E(g_1 ... g_m conj(h_1) ... conj(h_m'))``.

    Equals the permanent of the covariance matrix ``E(g_l conj(h_m))``;
    unbalanced factor counts give 0.
    """
    cov = _as_covariance(cov)
    m = len(g_indices)
    if m != len(h_indices):
        return 0
    if m == 0:
        return 1
    if m > MAX_WICK_FACTORS:
        raise CapacityError(f"permanent sum is capped at {MAX_WICK_FACTORS} factors")
    matrix = [[cov(g, h) for h in h_indices] for g in g_indices]
    total = 0
    for perm in itertools.permutations(range(m)):
        term = 1
        for l in range(m):
            term *= matrix[l][perm[l]]
            if term == 0:
                break
        total += term
    return total


def wick_centered(
    pi: SetPartition,
    cov: Covariance | Mapping,
    factors: Sequence[tuple[Hashable, str]],
) -> complex:
    """Centered Wick moment ``E([...][...])`` of bracketed Gaussian products.

    ``factors[i]`` is ``(label, sign)`` for position ``i+1``; ``pi`` groups
    positions into brackets.  Only matchings of dots to bars that cross
    every block (at least one pair with exactly one endpoint in the block)
    survive the centering.
    """
    cov = _as_covariance(cov)
    if len(factors) != pi.k:
        raise ValueError("factor list must match the partition's ground set")
    dots = [i for i, (_, sign) in enumerate(factors, start=1) if sign == DOT]
    bars = [i for i, (_, sign) in enumerate(factors, start=1) if sign == BAR]
    if len(dots) != len(bars):
        return 0
    if len(dots) > MAX_WICK_FACTORS:
        raise CapacityError(f"pairing sum is capped at {MAX_WICK_FACTORS} pairs")
    if not dots:
        return 1 if not pi.blocks else 0

    total = 0
    for assigned in itertools.permutations(bars):
        pairs = list(zip(dots, assigned))
        crosses_all = all(
            any((a in block) != (b in block) for a, b in pairs)
            for block in pi.blocks
        )
        if not crosses_all:
            continue
        term = 1
        for a, b in pairs:
            term *= cov(factors[a - 1][0], factors[b - 1][0])
            if term == 0:
                break
        total += term
    return total


@dataclass(frozen=True)
class PathStatistics:
    """Multiplicity statistics of an index sequence relative to a partition."""

    e1: int
    b: int
    m4: int
    even: bool


@lru_cache(maxsize=None)
def path_statistics(
    x: tuple[int, ...], y: tuple[int, ...], pi: SetPartition
) -> PathStatistics:
    """Count multiplicity-one pairs, isolated blocks, and high multiplicities.

    A pair is the value ``(x_i, y_i)``; its multiplicity is the number of
    positions carrying it.  A block is isolated when none of its pairs
    occurs outside the block.  The sequence is even when every row index
    has an even number of left arms and every column index an even number
    of right arms.  Memoised on its (hashable) arguments; the statistics do
    not depend on the signs or the shift, so one call serves every spec that
    shares ``x``, ``y`` and ``pi``.
    """
    if len(x) != len(y) or len(x) != pi.k:
        raise ValueError("index tuples must match the partition's ground set")
    pairs = list(zip(x, y))
    multiplicity: dict[tuple[int, int], int] = {}
    for pair in pairs:
        multiplicity[pair] = multiplicity.get(pair, 0) + 1
    e1 = sum(1 for count in multiplicity.values() if count == 1)
    m4 = sum(count for count in multiplicity.values() if count >= 4)
    isolated = 0
    for block in pi.blocks:
        outside = [pairs[i - 1] for i in range(1, pi.k + 1) if i not in block]
        if all(pairs[i - 1] not in outside for i in block):
            isolated += 1
    left_arms: dict[int, int] = {}
    right_arms: dict[int, int] = {}
    for value in x:
        left_arms[value] = left_arms.get(value, 0) + 1
    for value in y:
        right_arms[value] = right_arms.get(value, 0) + 1
    even = all(count % 2 == 0 for count in left_arms.values()) and all(
        count % 2 == 0 for count in right_arms.values()
    )
    return PathStatistics(e1=e1, b=isolated, m4=m4, even=even)


@dataclass(frozen=True)
class GaussianMomentSpec:
    """A (possibly bracketed) product of shifted Gaussian entries."""

    x: tuple[int, ...]
    y: tuple[int, ...]
    eps: EpsilonSequence
    shift: float
    pi: Optional[SetPartition] = None

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y) or len(self.x) != self.eps.k:
            raise ValueError("x, y, eps must share one length")
        if self.pi is not None and self.pi.k != self.eps.k:
            raise ValueError("partition must live on the same ground set")
        if self.shift < 0:
            raise ValueError("shift must be nonnegative")


def gaussian_shifted_moment(spec: GaussianMomentSpec) -> float:
    """E of the shifted product described by ``spec``, in double precision.

    With a partition this is ``E(prod_t ([prod_{i in pi_t} G^{eps_i}] +
    shift))``, expanded over subsets of brackets into centered Wick terms.
    Without one it is ``E(prod_i (G^{eps_i}_{x_i y_i} + shift))``, the same
    expansion over singleton brackets, since an entry has mean zero; that
    case is capped at 12 positions.

    The entry covariance only tests the labels ``(x_i, y_i)`` for equality,
    so the value is computed once per relabelling class: the labels are
    renumbered in order of first appearance and the value is memoised on
    that canonical key.
    """
    labels = first_appearance(zip(spec.x, spec.y))
    return _gaussian_shifted_moment(labels, spec.eps, spec.shift, spec.pi)


# Typed, so that an int shift and an equal float one, whose powers can round
# differently, never share an entry.
@lru_cache(maxsize=None, typed=True)
def _gaussian_shifted_moment(
    labels: tuple[Hashable, ...],
    eps: EpsilonSequence,
    shift: float,
    pi: Optional[SetPartition],
) -> float:
    if pi is None:
        if eps.k > 12:
            raise CapacityError("subset expansion is capped at 12 positions")
        pi = SetPartition.singletons(eps.k)
    blocks = pi.blocks
    block_count = len(blocks)
    total = 0.0
    for size in range(block_count + 1):
        for chosen in itertools.combinations(range(block_count), size):
            positions = sorted(
                itertools.chain.from_iterable(blocks[t] for t in chosen)
            )
            relabel = {pos: i for i, pos in enumerate(positions, start=1)}
            sub_blocks = tuple(
                frozenset(relabel[pos] for pos in blocks[t]) for t in chosen
            )
            sub_pi = (
                SetPartition(sub_blocks)
                if positions
                else SetPartition(())
            )
            factors = [
                (labels[pos - 1], eps.signs[pos - 1]) for pos in positions
            ]
            term = wick_centered(sub_pi, entry_covariance, factors)
            if term:
                total += complex(term).real * shift ** (block_count - size)
    return total


@dataclass(frozen=True)
class ComparisonReport:
    """One Gaussian-domination comparison: exact unitary LHS vs float RHS."""

    check: str
    k: int
    n: int
    lhs_exact: Optional[Fraction]
    lhs: float
    rhs: float
    margin: float
    passes: Optional[bool]
    skipped: bool = False
    reason: str = ""
    even: Optional[bool] = None
    vanishing_ok: Optional[bool] = None


def _skip(check: str, k: int, n: int, reason: str) -> ComparisonReport:
    return ComparisonReport(
        check=check,
        k=k,
        n=n,
        lhs_exact=None,
        lhs=float("nan"),
        rhs=float("nan"),
        margin=float("nan"),
        passes=None,
        skipped=True,
        reason=reason,
    )


def _float_leq(lhs: float, rhs: float) -> bool:
    return lhs <= rhs + COMPARISON_SLACK * max(1.0, abs(rhs))


def _report(
    check: str, k: int, n: int, lhs_exact: Fraction, rhs: float, even: bool,
    vanishing_ok: Optional[bool],
) -> ComparisonReport:
    """A finished comparison: it passes when ``lhs <= rhs`` up to the slack
    and the vanishing claim, where one is checked, holds."""
    lhs = float(lhs_exact)
    return ComparisonReport(
        check=check, k=k, n=n, lhs_exact=lhs_exact, lhs=lhs, rhs=rhs, margin=rhs - lhs,
        passes=_float_leq(lhs, rhs) and vanishing_ok is not False,
        even=even, vanishing_ok=vanishing_ok,
    )


def check_warmup(
    x: tuple[int, ...], y: tuple[int, ...], eps: EpsilonSequence, n: int
) -> ComparisonReport:
    """Compare a scaled Haar moment with its shifted Gaussian majorant.

    Verifies ``n^(k/2) |E prod U^eps| <= (1 + 3 k^(7/2) n^-2) E prod (G^eps
    + k n^(-1/4))`` and, for non-even ``(x, y)``, that the left side is
    exactly zero.  Out-of-regime inputs produce a skipped report.
    """
    k = eps.k
    if len(x) != k or len(y) != k:
        raise ValueError("index tuples must match the sign sequence")
    if k % 2 != 0:
        return _skip("warmup", k, n, "k must be even")
    if n < 4 or 4 * k**7 > n**4:
        return _skip("warmup", k, n, "requires n >= 4 and 2 k^(7/2) <= n^2")
    moment = haar_moment_signed(x, y, eps, n)
    lhs_exact = abs(moment) * n ** (k // 2)
    stats = path_statistics(x, y, SetPartition.singletons(k))
    vanishing_ok = stats.even or moment == 0
    shift = k * n**-0.25
    rhs_raw = gaussian_shifted_moment(
        GaussianMomentSpec(x=x, y=y, eps=eps, shift=shift)
    )
    rhs = (1 + 3 * k**3.5 / n**2) * rhs_raw
    return _report("warmup", k, n, lhs_exact, rhs, stats.even, vanishing_ok)


def bracket_shift(k: int, max_block: int, n: int, mixed_blocks: bool) -> float:
    """The shift used by the bracketed comparison.

    ``2 k^l n^(-1/4)`` in general, improving to ``n^(-1/2)`` when every
    block carries both a dot and a bar.
    """
    exponent = -0.5 if mixed_blocks else -0.25
    return 2 * k**max_block * n**exponent


def check_with_brackets(spec: BracketMomentSpec, n: int) -> ComparisonReport:
    """Compare a scaled centered moment with its bracketed Gaussian majorant.

    Verifies ``n^(k/2) |centered moment| <= (1 + delta) E prod ([Gaussian
    bracket] + eta)`` with ``delta = 3 k^(7/2) n^-2`` and the shift from
    :func:`bracket_shift`, plus the even-sequence vanishing claim.
    """
    k = spec.k
    if n < 4 or 4 * k**7 > n**4:
        return _skip("with-brackets", k, n, "requires n >= 4 and 2 k^(7/2) <= n^2")
    moment = centered_moment(spec, n)
    lhs_exact = abs(moment) * n ** (k // 2)
    stats = path_statistics(spec.x, spec.y, spec.pi)
    vanishing_ok = stats.even or moment == 0
    max_block = max(len(block) for block in spec.pi.blocks)
    mixed = all(
        any(spec.eps.signs[i - 1] == DOT for i in block)
        and any(spec.eps.signs[i - 1] == BAR for i in block)
        for block in spec.pi.blocks
    )
    shift = bracket_shift(k, max_block, n, mixed)
    rhs_raw = gaussian_shifted_moment(
        GaussianMomentSpec(x=spec.x, y=spec.y, eps=spec.eps, shift=shift, pi=spec.pi)
    )
    rhs = (1 + 3 * k**3.5 / n**2) * rhs_raw
    return _report("with-brackets", k, n, lhs_exact, rhs, stats.even, vanishing_ok)


def check_cor_wg2(spec: BracketMomentSpec, n: int) -> ComparisonReport:
    """Check the multiplicity-based moment bound on a centered moment.

    Verifies ``|centered moment| <= c n^(-k/2) eta^(b + e1/q) k^(m4/2)``
    with ``eta = c k^(q/2) n^(-1/8)`` and the statistics from
    :func:`path_statistics`.  Requires equal block sizes ``q`` with
    ``k^(q+1) <= n^(1/4)``.
    """
    k = spec.k
    block_count = spec.block_count
    q, remainder = divmod(k, block_count)
    if remainder != 0 or any(len(block) != q for block in spec.pi.blocks):
        return _skip("cor-wg2", k, n, "blocks must all have size q = k/T")
    if k ** (4 * (q + 1)) > n:
        return _skip("cor-wg2", k, n, "requires k^(q+1) <= n^(1/4)")
    moment = centered_moment(spec, n)
    lhs_exact = abs(moment)
    stats = path_statistics(spec.x, spec.y, spec.pi)
    eta = WG2_CONSTANT * k ** (q / 2) * n**-0.125
    rhs = (
        WG2_CONSTANT
        * float(n) ** (-k / 2)
        * eta ** (stats.b + stats.e1 / q)
        * k ** (stats.m4 / 2)
    )
    return _report("cor-wg2", k, n, lhs_exact, rhs, stats.even, vanishing_ok=None)
