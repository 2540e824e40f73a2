"""Exact combinatorics of permutations and partitions.

Everything downstream (Weingarten sums, Wick sums, matching expansions) is
indexed by the value types defined here: permutations of ``{1, ..., k}`` in
one-line notation, pair partitions in canonical pair order, set partitions,
and sign sequences over dots and bars.  All types are immutable and
hashable, so they can be used as dictionary keys and shared freely between
threads.  ``require_dense`` holds every dense array to one budget, ``MAX_DENSE_ENTRIES``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Hashable, Iterable, Iterator

#: Sign marking an unconjugated position in an epsilon sequence.
DOT = "."
#: Sign marking a conjugated position in an epsilon sequence.
BAR = "-"

#: Largest k for which enumerate_pair_partitions will run ((k-1)!! growth).
MAX_PAIR_ENUMERATION = 12
#: Largest degree for which all_permutations will enumerate S_k (k! growth).
MAX_SYMMETRIC_DEGREE = 8
#: Largest k for which enumerate_set_partitions will run (Bell-number growth).
MAX_SET_PARTITION_ENUMERATION = 10
#: Most entries any dense array may have: a complex 4096 x 4096 matrix, 268 MB.
MAX_DENSE_ENTRIES = 4096**2


class CapacityError(ValueError):
    """Raised when an enumeration or a dense array would exceed the size caps."""


def require_dense(entries: int, what: str) -> None:
    """Refuse, before it is built, a dense array of more than ``MAX_DENSE_ENTRIES``."""
    if entries > MAX_DENSE_ENTRIES:
        raise CapacityError(f"{what} needs {entries} entries, over the budget {MAX_DENSE_ENTRIES}")


@dataclass(frozen=True, order=True)
class Permutation:
    """A permutation of ``{1, ..., k}`` in one-line notation.

    ``images[l-1]`` is the image of ``l``.  The representation is canonical,
    so two permutations are equal exactly when they act identically.
    """

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "images", tuple(self.images))
        k = len(self.images)
        if sorted(self.images) != list(range(1, k + 1)):
            raise ValueError(f"not a bijection of {{1..{k}}}: {self.images}")

    @classmethod
    def identity(cls, k: int) -> "Permutation":
        return cls(tuple(range(1, k + 1)))

    @classmethod
    def from_cycles(cls, k: int, cycles: Iterable[Iterable[int]]) -> "Permutation":
        """Build a permutation of ``{1..k}`` from disjoint cycles.

        Elements not mentioned in any cycle are fixed points.
        """
        images = list(range(1, k + 1))
        for cycle in cycles:
            cycle = list(cycle)
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                images[a - 1] = b
        return cls(tuple(images))

    @property
    def k(self) -> int:
        return len(self.images)

    def __call__(self, l: int) -> int:
        return self.images[l - 1]

    def compose(self, other: "Permutation") -> "Permutation":
        """Return ``self after other``: ``(self.compose(other))(l) = self(other(l))``."""
        if self.k != other.k:
            raise ValueError("degree mismatch")
        return Permutation(tuple(self.images[j - 1] for j in other.images))

    def invert(self) -> "Permutation":
        inverse = [0] * self.k
        for l, image in enumerate(self.images, start=1):
            inverse[image - 1] = l
        return Permutation(tuple(inverse))

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles, each starting at its smallest element."""
        seen = [False] * self.k
        out = []
        for start in range(1, self.k + 1):
            if seen[start - 1]:
                continue
            cycle = []
            l = start
            while not seen[l - 1]:
                seen[l - 1] = True
                cycle.append(l)
                l = self(l)
            out.append(tuple(cycle))
        return out


def cycle_type(sigma: Permutation) -> tuple[int, ...]:
    """Cycle type of ``sigma`` as a partition of k (parts sorted descending)."""
    return tuple(sorted((len(c) for c in sigma.cycles()), reverse=True))


def cycle_count(sigma: Permutation) -> int:
    """Number of disjoint cycles, fixed points included."""
    return len(sigma.cycles())


def transposition_distance(sigma: Permutation) -> int:
    """Minimal number of transpositions whose product is ``sigma``.

    Equals ``k`` minus the number of cycles of ``sigma``.
    """
    return sigma.k - cycle_count(sigma)


def permutation_from_cycle_type(ct: Iterable[int]) -> Permutation:
    """Canonical representative of a conjugacy class.

    The parts of ``ct`` become consecutive cycles ``(1..m1)(m1+1..m1+m2)...``
    on ``{1..sum(ct)}``.
    """
    parts = list(ct)
    k = sum(parts)
    cycles = []
    start = 1
    for part in parts:
        cycles.append(range(start, start + part))
        start += part
    return Permutation.from_cycles(k, cycles)


def all_permutations(k: int) -> list[Permutation]:
    """All of S_k in lexicographic one-line order.  Capped at k <= 8."""
    if k > MAX_SYMMETRIC_DEGREE:
        raise CapacityError(
            f"S_{k} has {k}! elements; enumeration is capped at k = {MAX_SYMMETRIC_DEGREE}"
        )
    return [Permutation(images) for images in itertools.permutations(range(1, k + 1))]


@dataclass(frozen=True)
class PairPartition:
    """A perfect matching of ``{1, ..., k}`` for even ``k``.

    Stored canonically: within each pair the smaller element comes first,
    and pairs are sorted by their smaller element.  Equality is therefore
    structural.
    """

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        canonical = tuple(sorted(tuple(sorted(pair)) for pair in self.pairs))
        object.__setattr__(self, "pairs", canonical)
        elements = [l for pair in canonical for l in pair]
        k = len(elements)
        if sorted(elements) != list(range(1, k + 1)):
            raise ValueError(f"pairs do not partition {{1..{k}}}: {canonical}")

    @property
    def k(self) -> int:
        return 2 * len(self.pairs)

    def partner(self, l: int) -> int:
        for a, b in self.pairs:
            if a == l:
                return b
            if b == l:
                return a
        raise KeyError(l)

    def as_set_partition(self) -> "SetPartition":
        return SetPartition(self.pairs)


def enumerate_pair_partitions(k: int) -> list[PairPartition]:
    """All pair partitions of ``{1..k}``: (k-1)!! of them for even k.

    Odd ``k`` admits no perfect matching, so the list is empty.  Even ``k``
    beyond the enumeration cap raises :class:`CapacityError`.
    """
    if k % 2 == 1:
        return []
    if k > MAX_PAIR_ENUMERATION:
        raise CapacityError(
            f"(k-1)!! pair partitions at k = {k}; enumeration is capped at"
            f" k = {MAX_PAIR_ENUMERATION}"
        )

    def rec(free: tuple[int, ...]) -> Iterator[tuple[tuple[int, int], ...]]:
        if not free:
            yield ()
            return
        first, rest = free[0], free[1:]
        for i, other in enumerate(rest):
            remaining = rest[:i] + rest[i + 1 :]
            for tail in rec(remaining):
                yield ((first, other),) + tail

    return [PairPartition(pairs) for pairs in rec(tuple(range(1, k + 1)))]


@dataclass(frozen=True)
class SetPartition:
    """A partition of ``{1, ..., k}`` into disjoint nonempty blocks.

    Blocks are stored as frozensets sorted by their minimum, so equality is
    structural.
    """

    blocks: tuple[frozenset[int], ...]
    _k: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        canonical = tuple(sorted((frozenset(b) for b in self.blocks), key=min))
        object.__setattr__(self, "blocks", canonical)
        elements = sorted(l for block in canonical for l in block)
        k = len(elements)
        if elements != list(range(1, k + 1)):
            raise ValueError(f"blocks do not partition {{1..{k}}}: {canonical}")
        object.__setattr__(self, "_k", k)

    @classmethod
    def singletons(cls, k: int) -> "SetPartition":
        return cls(tuple(frozenset([l]) for l in range(1, k + 1)))

    @property
    def k(self) -> int:
        return self._k

    def is_coarser_than(self, other: "SetPartition") -> bool:
        """True when every block of ``other`` sits inside a block of self."""
        return all(
            any(block <= mine for mine in self.blocks) for block in other.blocks
        )


def enumerate_set_partitions(k: int) -> list[SetPartition]:
    """All B_k (Bell number) set partitions of ``{1..k}``, each partition of
    ``{1..k-1}`` extended by ``{k}`` and then by ``k`` joining each block.

    ``k`` beyond the enumeration cap raises :class:`CapacityError`.
    """
    if k > MAX_SET_PARTITION_ENUMERATION:
        raise CapacityError(
            f"B_k set partitions at k = {k}; enumeration is capped at"
            f" k = {MAX_SET_PARTITION_ENUMERATION}"
        )
    if k == 0:
        return [SetPartition(())]
    out = []
    for smaller in enumerate_set_partitions(k - 1):
        blocks = smaller.blocks
        out.append(SetPartition(blocks + (frozenset([k]),)))
        for i, block in enumerate(blocks):
            out.append(SetPartition(blocks[:i] + (block | {k},) + blocks[i + 1 :]))
    return out


def join(p: SetPartition, q: SetPartition) -> SetPartition:
    """Join (coarsest common refinement's dual): finest partition coarser than both."""
    if p.k != q.k:
        raise ValueError(f"ground sets differ: {p.k} vs {q.k}")
    parent = list(range(p.k + 1))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int) -> None:
        parent[find(a)] = find(b)

    for partition in (p, q):
        for block in partition.blocks:
            anchor = min(block)
            for l in block:
                union(l, anchor)
    merged: dict[int, set[int]] = {}
    for l in range(1, p.k + 1):
        merged.setdefault(find(l), set()).add(l)
    return SetPartition(tuple(frozenset(b) for b in merged.values()))


def loop_type(pairs: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """Half the sizes of the loops that ``pairs`` close, largest first.

    The pairs of two perfect matchings p and q of one set close it into even
    loops, walked from each point to the other end of its other pair.  For
    dot-to-bar matchings this is the cycle type of ``q^-1 p`` on the dots,
    for pair partitions their coset type: the key of every Weingarten table
    lookup from pairings.
    """
    links: dict[int, list[int]] = {}
    for a, b in pairs:
        links.setdefault(a, []).append(b)
        links.setdefault(b, []).append(a)
    halves = []
    while links:
        start, (here, _) = links.popitem()
        previous, size = start, 1
        while here != start:
            a, b = links.pop(here)
            previous, here = here, (b if a == previous else a)
            size += 1
        halves.append(size // 2)
    return tuple(sorted(halves, reverse=True))


@dataclass(frozen=True)
class EpsilonSequence:
    """A sequence of signs over dots and bars, marking conjugated factors."""

    signs: tuple[str, ...]
    _dots: tuple[int, ...] = field(init=False, compare=False, repr=False)
    _bars: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        signs = tuple(self.signs)
        dots = tuple(l for l, s in enumerate(signs, start=1) if s == DOT)
        bars = tuple(l for l, s in enumerate(signs, start=1) if s == BAR)
        if len(dots) + len(bars) != len(signs):
            bad = [s for s in signs if s not in (DOT, BAR)]
            raise ValueError(f"signs must be DOT or BAR, got {bad}")
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "_dots", dots)
        object.__setattr__(self, "_bars", bars)

    @classmethod
    def from_string(cls, text: str) -> "EpsilonSequence":
        return cls(tuple(text))

    @property
    def k(self) -> int:
        return len(self.signs)

    def dots(self) -> tuple[int, ...]:
        """Positions carrying a dot, in increasing order (1-based)."""
        return self._dots

    def bars(self) -> tuple[int, ...]:
        return self._bars

    def is_balanced(self) -> bool:
        return len(self._dots) == len(self._bars)


@dataclass(frozen=True)
class EpsilonMatching:
    """A pair partition whose every pair joins a dot position to a bar position.

    Equivalently a bijection from the dot positions of ``epsilon`` to its bar
    positions; :meth:`bar_of` exposes that view.
    """

    epsilon: EpsilonSequence
    pairing: PairPartition
    _dot_to_bar: dict[int, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.pairing.k != self.epsilon.k:
            raise ValueError("pairing and sign sequence have different lengths")
        mapping: dict[int, int] = {}
        signs = self.epsilon.signs
        for a, b in self.pairing.pairs:
            if {signs[a - 1], signs[b - 1]} != {DOT, BAR}:
                raise ValueError(f"pair {(a, b)} does not join a dot to a bar")
            dot, bar = (a, b) if signs[a - 1] == DOT else (b, a)
            mapping[dot] = bar
        object.__setattr__(self, "_dot_to_bar", mapping)

    def bar_of(self, dot: int) -> int:
        return self._dot_to_bar[dot]

    def dot_of(self, bar: int) -> int:
        return self.pairing.partner(bar)


def epsilon_matchings(eps: EpsilonSequence) -> list[EpsilonMatching]:
    """All dot-to-bar matchings of ``eps``: (k/2)! of them, none if unbalanced.

    Enumerated once per sign sequence, as the :func:`delta_matchings` of a
    constant label; every call returns a fresh list.
    """
    return list(_epsilon_matchings(eps))


@lru_cache(maxsize=None)
def _epsilon_matchings(eps: EpsilonSequence) -> tuple[EpsilonMatching, ...]:
    if eps.is_balanced() and eps.k > MAX_PAIR_ENUMERATION:
        raise CapacityError(
            f"(k/2)! matchings at k = {eps.k}; enumeration is capped at"
            f" k = {MAX_PAIR_ENUMERATION}"
        )
    return delta_matchings.__wrapped__(eps, (0,) * eps.k)


@lru_cache(maxsize=None)
def delta_matchings(eps: EpsilonSequence, x: tuple[int, ...]) -> tuple[EpsilonMatching, ...]:
    """The matchings of :func:`epsilon_matchings` that join only equal labels of ``x``.

    Those with ``delta_pairs(m.pairing, x) = 1``, in the same order.  Bars
    are chosen for the dots in turn, so only survivors are built; memoised
    per ``(eps, x)``.  Capped at k/2 = ``MAX_SYMMETRIC_DEGREE``, as S_{k/2}.
    """
    if len(x) != eps.k:
        raise ValueError("index tuple must match the sign sequence's length")
    if not eps.is_balanced():
        return ()
    if eps.k // 2 > MAX_SYMMETRIC_DEGREE:
        raise CapacityError(
            f"dot-to-bar matchings at k = {eps.k} are capped at k/2 = {MAX_SYMMETRIC_DEGREE}"
        )
    partial = [((), eps.bars())]
    for dot in eps.dots():
        partial = [
            (chosen + ((dot, bar),), free[:i] + free[i + 1 :])
            for chosen, free in partial
            for i, bar in enumerate(free)
            if x[dot - 1] == x[bar - 1]
        ]
    return tuple(EpsilonMatching(eps, PairPartition(chosen)) for chosen, _ in partial)


def first_appearance(labels: Iterable[Hashable]) -> tuple[int, ...]:
    """``labels`` renumbered 1, 2, ... in order of first appearance.

    Two label sequences have the same renumbering exactly when a bijection
    of labels carries one onto the other.
    """
    numbers: dict[Hashable, int] = {}
    return tuple(numbers.setdefault(label, len(numbers) + 1) for label in labels)


def delta_perm(sigma: Permutation, x: tuple[int, ...], y: tuple[int, ...]) -> int:
    """1 if ``x_l = y_{sigma(l)}`` for every l, else 0."""
    if len(x) != sigma.k or len(y) != sigma.k:
        raise ValueError("index tuples must have the permutation's degree")
    return int(all(x[l - 1] == y[sigma(l) - 1] for l in range(1, sigma.k + 1)))


def delta_pairs(p: PairPartition, x: tuple[int, ...]) -> int:
    """1 if ``x`` is constant on every pair of ``p``, else 0."""
    if len(x) != p.k:
        raise ValueError("index tuple must have the pair partition's size")
    return int(all(x[a - 1] == x[b - 1] for a, b in p.pairs))
