import random

import pytest

from haarmoments.symcore import (
    BAR,
    DOT,
    CapacityError,
    EpsilonMatching,
    EpsilonSequence,
    PairPartition,
    Permutation,
    SetPartition,
    all_permutations,
    cycle_type,
    delta_perm,
    enumerate_pair_partitions,
    enumerate_set_partitions,
    epsilon_matchings,
    join,
    permutation_from_cycle_type,
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


def test_pair_partition_canonical_order():
    p = PairPartition(((4, 1), (3, 2)))
    assert p.pairs == ((1, 4), (2, 3))
    assert p.partner(3) == 2


def test_epsilon_matchings_counts():
    assert len(epsilon_matchings(EpsilonSequence((DOT, BAR)))) == 1
    assert epsilon_matchings(EpsilonSequence((DOT, DOT))) == []
    assert len(epsilon_matchings(EpsilonSequence((DOT, DOT, BAR, BAR)))) == 2


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
