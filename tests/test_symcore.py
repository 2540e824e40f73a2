import itertools
import random

import pytest
from hypothesis import given, strategies as st

from haarmoments import symcore
from haarmoments.symcore import (
    BAR,
    DOT,
    MAX_DENSE_ENTRIES,
    CapacityError,
    EpsilonMatching,
    EpsilonSequence,
    PairPartition,
    Permutation,
    SetPartition,
    all_permutations,
    cycle_type,
    delta_matchings,
    delta_pairs,
    delta_perm,
    enumerate_pair_partitions,
    enumerate_set_partitions,
    epsilon_matchings,
    join,
    loop_type,
    permutation_from_cycle_type,
    require_dense,
    transposition_distance,
)


def test_cycle_type_identity():
    assert cycle_type(Permutation.identity(3)) == (1, 1, 1)


def test_cycle_type_transposition():
    assert cycle_type(Permutation((2, 1))) == (2,)


def test_cycle_type_full_cycle():
    assert cycle_type(Permutation.from_cycles(3, [(1, 2, 3)])) == (3,)


def test_transposition_distance_examples():
    assert transposition_distance(Permutation.identity(4)) == 0
    assert transposition_distance(Permutation((2, 1))) == 1
    assert transposition_distance(Permutation.from_cycles(3, [(1, 2, 3)])) == 2


def test_distance_parity_matches_sign_parity():
    # Parity of the minimal transposition count is the permutation's sign.
    for k in range(1, 7):
        for sigma in all_permutations(k):
            inversions = sum(
                1
                for i in range(1, k + 1)
                for j in range(i + 1, k + 1)
                if sigma(i) > sigma(j)
            )
            assert transposition_distance(sigma) % 2 == inversions % 2


def test_compose_invert_roundtrip():
    rng = random.Random(7)
    for _ in range(20):
        images = list(range(1, 7))
        rng.shuffle(images)
        sigma = Permutation(tuple(images))
        assert sigma.compose(sigma.invert()) == Permutation.identity(6)
        assert sigma.invert().compose(sigma) == Permutation.identity(6)


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))


def test_permutation_from_cycle_type_representative():
    rep = permutation_from_cycle_type((3, 2, 1))
    assert cycle_type(rep) == (3, 2, 1)
    assert rep.k == 6


def test_pair_partition_counts():
    assert enumerate_pair_partitions(2) == [PairPartition(((1, 2),))]
    for k, expected in [(2, 1), (4, 3), (6, 15), (8, 105)]:
        partitions = enumerate_pair_partitions(k)
        assert len(partitions) == expected
        assert len(set(partitions)) == expected


def test_pair_partition_odd_is_empty():
    assert enumerate_pair_partitions(3) == []
    assert enumerate_pair_partitions(5) == []


def test_pair_partition_cap():
    with pytest.raises(CapacityError):
        enumerate_pair_partitions(14)


def test_set_partition_bell_counts():
    assert enumerate_set_partitions(0) == [SetPartition(())]
    for k, bell in enumerate([1, 1, 2, 5, 15, 52]):
        partitions = enumerate_set_partitions(k)
        assert len(partitions) == bell
        assert len(set(partitions)) == bell
        assert all(pi.k == k for pi in partitions)


def test_set_partition_cap():
    with pytest.raises(CapacityError):
        enumerate_set_partitions(11)


def test_symmetric_group_cap():
    with pytest.raises(CapacityError):
        all_permutations(9)


@given(st.one_of(st.integers(0, 2 * MAX_DENSE_ENTRIES),
                st.integers(MAX_DENSE_ENTRIES - 2, MAX_DENSE_ENTRIES + 2)))
def test_require_dense_admits_exactly_the_budget(entries):
    assert MAX_DENSE_ENTRIES == 4096**2
    if entries <= 4096**2:
        require_dense(entries, "an array")
    else:
        with pytest.raises(CapacityError, match=f"an array needs {entries} entries"):
            require_dense(entries, "an array")


def test_pair_partition_canonical_order():
    p = PairPartition(((4, 1), (3, 2)))
    assert p.pairs == ((1, 4), (2, 3))
    assert p.partner(3) == 2


def test_epsilon_matchings_counts():
    assert len(epsilon_matchings(EpsilonSequence((DOT, BAR)))) == 1
    assert epsilon_matchings(EpsilonSequence((DOT, DOT))) == []
    assert len(epsilon_matchings(EpsilonSequence((DOT, DOT, BAR, BAR)))) == 2


def test_epsilon_matchings_cache_survives_caller_mutation():
    eps = EpsilonSequence.from_string(".-.-")
    full = tuple(epsilon_matchings(eps))
    assert len(full) == 2
    first = epsilon_matchings(eps)
    first.append(first[0])
    assert tuple(epsilon_matchings(eps)) == full
    second = epsilon_matchings(eps)
    second.clear()
    assert tuple(epsilon_matchings(eps)) == full
    assert epsilon_matchings(EpsilonSequence.from_string("..")) == []


def test_epsilon_matchings_memo_equals_fresh_enumeration():
    for k in range(0, 9, 2):
        for signs in itertools.product((DOT, BAR), repeat=k):
            eps = EpsilonSequence(signs)
            if eps.is_balanced():
                fresh = list(symcore._epsilon_matchings.__wrapped__(eps))
                assert epsilon_matchings(eps) == fresh
                assert epsilon_matchings(EpsilonSequence(signs)) == fresh


def test_cached_invariants_leave_equality_hash_and_repr_alone():
    eps = EpsilonSequence.from_string(".--.")
    assert (eps.dots(), eps.bars(), eps.is_balanced()) == ((1, 4), (2, 3), True)
    assert repr(eps) == "EpsilonSequence(signs=('.', '-', '-', '.'))"
    assert hash(eps) == hash(EpsilonSequence(tuple(".--."))) and eps == EpsilonSequence(".--.")
    pi = SetPartition((frozenset({2, 3}), frozenset({1})))
    assert pi.k == 3
    assert repr(pi) == "SetPartition(blocks=(frozenset({1}), frozenset({2, 3})))"
    assert pi == SetPartition((frozenset({1}), frozenset({2, 3})))
    assert hash(pi) == hash(SetPartition((frozenset({1}), frozenset({3, 2}))))


def test_epsilon_matching_is_dot_to_bar():
    eps = EpsilonSequence.from_string(".-.-")
    for matching in epsilon_matchings(eps):
        for dot in eps.dots():
            assert eps.signs[matching.bar_of(dot) - 1] == BAR
    with pytest.raises(ValueError):
        EpsilonMatching(eps, PairPartition(((1, 3), (2, 4))))


def _random_partition(rng, k):
    labels = [rng.randrange(4) for _ in range(k)]
    blocks: dict[int, set[int]] = {}
    for l, lab in enumerate(labels, start=1):
        blocks.setdefault(lab, set()).add(l)
    return SetPartition(tuple(frozenset(b) for b in blocks.values()))


def test_join_examples():
    p = SetPartition((frozenset({1, 2}), frozenset({3, 4})))
    q = SetPartition((frozenset({2, 3}), frozenset({1, 4})))
    assert join(p, q) == SetPartition((frozenset({1, 2, 3, 4}),))
    assert join(p, p) == p
    assert join(p, SetPartition.singletons(4)) == p


def test_join_commutative_associative_idempotent():
    rng = random.Random(11)
    for _ in range(25):
        p = _random_partition(rng, 8)
        q = _random_partition(rng, 8)
        r = _random_partition(rng, 8)
        assert join(p, q) == join(q, p)
        assert join(join(p, q), r) == join(p, join(q, r))
        assert join(p, p) == p
        assert join(p, q).is_coarser_than(p)
        assert join(p, q).is_coarser_than(q)


def test_join_rejects_mismatched_ground_sets():
    with pytest.raises(ValueError):
        join(SetPartition.singletons(3), SetPartition.singletons(4))


def test_delta_perm_examples():
    ident = Permutation.identity(2)
    swap = Permutation((2, 1))
    assert delta_perm(ident, (1, 2), (1, 2)) == 1
    assert delta_perm(swap, (1, 2), (2, 1)) == 1
    assert delta_perm(ident, (1, 2), (2, 1)) == 0


def test_delta_perm_inverse_symmetry():
    rng = random.Random(3)
    for _ in range(50):
        images = list(range(1, 5))
        rng.shuffle(images)
        sigma = Permutation(tuple(images))
        x = tuple(rng.randrange(1, 3) for _ in range(4))
        y = tuple(rng.randrange(1, 3) for _ in range(4))
        assert delta_perm(sigma, x, y) == delta_perm(sigma.invert(), y, x)


def test_delta_perm_length_mismatch():
    with pytest.raises(ValueError):
        delta_perm(Permutation.identity(2), (1,), (1, 2))


@st.composite
def _two_pair_partitions(draw):
    k = 2 * draw(st.integers(1, 6))
    pairs = []
    for _ in range(2):
        order = draw(st.permutations(range(1, k + 1)))
        pairs.append(PairPartition(tuple(zip(order[::2], order[1::2]))))
    return pairs


@given(partitions=_two_pair_partitions())
def test_loop_type_is_the_join_coset_type(partitions):
    p, q = partitions
    joined = join(p.as_set_partition(), q.as_set_partition())
    halves = sorted((len(block) // 2 for block in joined.blocks), reverse=True)
    assert loop_type(p.pairs + q.pairs) == tuple(halves)
    assert loop_type(q.pairs + p.pairs) == tuple(halves)


def test_loop_type_small_cases():
    assert loop_type(()) == ()
    assert loop_type(((1, 2), (1, 2))) == (1,)
    assert loop_type(((1, 2), (3, 4), (1, 4), (3, 2))) == (2,)
    assert loop_type(((5, 9), (7, 8), (5, 9), (8, 7))) == (1, 1)


@st.composite
def _signs_and_labels(draw):
    half = draw(st.integers(0, 4))
    signs = draw(st.permutations((DOT,) * half + (BAR,) * half + (DOT,) * draw(st.integers(0, 1))))
    labels = tuple(draw(st.lists(st.integers(1, 3), min_size=len(signs), max_size=len(signs))))
    return EpsilonSequence(tuple(signs)), labels


@given(case=_signs_and_labels())
def test_delta_matchings_filter_epsilon_matchings(case):
    eps, x = case
    expected = tuple(m for m in epsilon_matchings(eps) if delta_pairs(m.pairing, x))
    assert delta_matchings(eps, x) == expected
    assert delta_matchings.__wrapped__(eps, x) == expected


def test_delta_matchings_caps_and_checks():
    assert len(delta_matchings(EpsilonSequence.from_string("." * 8 + "-" * 8), (1,) * 16)) == 40320
    with pytest.raises(CapacityError):
        delta_matchings(EpsilonSequence.from_string("." * 9 + "-" * 9), (1,) * 18)
    with pytest.raises(ValueError):
        delta_matchings(EpsilonSequence.from_string(".-"), (1,))
