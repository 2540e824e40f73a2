import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from haarmoments import centered_wg
from haarmoments.centered_wg import (
    BracketMomentSpec,
    bracket_expansion,
    centered_moment,
    centered_moment_orth,
    centered_wg_value,
    check_centered_estimate,
    matching_permutation,
    matching_weingarten,
    restricted_block_count,
    restricted_hurwitz_count,
    wg_bracket,
)
from haarmoments.symcore import (
    BAR,
    DOT,
    CapacityError,
    EpsilonMatching,
    EpsilonSequence,
    PairPartition,
    SetPartition,
    epsilon_matchings,
    transposition_distance,
)
from haarmoments.weingarten import UnsupportedRegimeError

EPS4 = EpsilonSequence.from_string(".-.-")
PI_22 = SetPartition((frozenset({1, 2}), frozenset({3, 4})))
PI_4 = SetPartition((frozenset({1, 2, 3, 4}),))


def _matching(eps, pairs):
    target = PairPartition(pairs)
    for m in epsilon_matchings(eps):
        if m.pairing == target:
            return m
    raise AssertionError(f"no matching with pairing {pairs}")


def _set_partitions(k):
    if k == 0:
        return [()]
    smaller = _set_partitions(k - 1)
    out = []
    for blocks in smaller:
        for i in range(len(blocks)):
            out.append(blocks[:i] + (blocks[i] | {k},) + blocks[i + 1 :])
        out.append(blocks + (frozenset({k}),))
    return out


def all_set_partitions(k):
    return [SetPartition(blocks) for blocks in _set_partitions(k)]


P_ID = _matching(EPS4, ((1, 2), (3, 4)))
P_CROSS = _matching(EPS4, ((1, 4), (2, 3)))


def test_matching_permutation_and_weingarten():
    assert matching_permutation(P_ID, P_ID).images == (1, 2)
    sigma = matching_permutation(P_ID, P_CROSS)
    assert transposition_distance(sigma) == 1
    assert matching_weingarten(P_ID, P_ID, 5) == Fraction(1, 24)
    assert matching_weingarten(P_ID, P_CROSS, 5) == Fraction(-1, 120)


def test_wg_bracket_single_block_vanishes():
    eps2 = EpsilonSequence.from_string(".-")
    (m,) = epsilon_matchings(eps2)
    pi = SetPartition((frozenset({1, 2}),))
    for n in (2, 5):
        assert wg_bracket(pi, m, m, n) == 0


def test_wg_bracket_nonrespecting_pair_reduces_to_plain():
    # When p or q does not leave pi invariant, only the fully merged subset
    # survives the inclusion-exclusion.
    for n in (3, 6, 10):
        assert wg_bracket(PI_22, P_ID, P_CROSS, n) == matching_weingarten(
            P_ID, P_CROSS, n
        )
        assert wg_bracket(PI_22, P_CROSS, P_ID, n) == matching_weingarten(
            P_CROSS, P_ID, n
        )


def test_wg_bracket_two_blocks_identity_matchings():
    for n in (2, 3, 7, 12):
        assert wg_bracket(PI_22, P_ID, P_ID, n) == Fraction(1, n**2 * (n**2 - 1))


def _leaves(pairing, block):
    return all(set(pair) <= block or not set(pair) & block for pair in pairing.pairs)


def _restrict(m, block):
    """The matching ``m`` on the positions of an invariant ``block``, relabeled."""
    positions = sorted(block)
    label = {l: i for i, l in enumerate(positions, start=1)}
    eps = EpsilonSequence(tuple(m.epsilon.signs[l - 1] for l in positions))
    pairs = tuple(
        (label[a], label[b]) for a, b in m.pairing.pairs if a in block
    )
    return EpsilonMatching(eps, PairPartition(pairs))


def _two_block_closed_form(pi, p, q, n):
    """Wg[pi] for pi = {B1, B2}: Wg(p, q) minus Wg(p_B1, q_B1) Wg(p_B2, q_B2)
    when both matchings leave B1 invariant."""
    value = matching_weingarten(p, q, n)
    first, second = pi.blocks
    if _leaves(p.pairing, first) and _leaves(q.pairing, first):
        value -= matching_weingarten(
            _restrict(p, first), _restrict(q, first), n
        ) * matching_weingarten(_restrict(p, second), _restrict(q, second), n)
    return value


def test_wg_bracket_matches_two_block_closed_form():
    for k in (4, 6):
        partitions = [pi for pi in all_set_partitions(k) if len(pi.blocks) == 2]
        sequences = [
            EpsilonSequence(signs)
            for signs in sorted(set(itertools.permutations([DOT, BAR] * (k // 2))))
        ]
        for n in (3, 4, 6):
            for pi in partitions:
                for eps in sequences:
                    matchings = epsilon_matchings(eps)
                    for p in matchings:
                        for q in matchings:
                            assert wg_bracket(pi, p, q, n) == _two_block_closed_form(
                                pi, p, q, n
                            )


def test_empty_ground_set_is_the_empty_product():
    empty = SetPartition(())
    eps = EpsilonSequence(())
    (m,) = epsilon_matchings(eps)
    spec = BracketMomentSpec(pi=empty, eps=eps, x=(), y=())
    for n in (1, 4):
        assert wg_bracket(empty, m, m, n) == 1
        assert bracket_expansion(spec, n) == 1
        assert centered_moment_orth(empty, (), (), n) == 1


def test_wg_bracket_regime_guard():
    with pytest.raises(UnsupportedRegimeError):
        wg_bracket(PI_22, P_ID, P_ID, 1)


def test_centered_moment_single_bracket_is_zero():
    spec = BracketMomentSpec(
        pi=PI_4, eps=EPS4, x=(1, 1, 2, 2), y=(1, 1, 2, 2)
    )
    assert centered_moment(spec, 5) == 0


def test_centered_moment_product_of_two_brackets():
    for n in (3, 5, 9):
        spec = BracketMomentSpec(pi=PI_22, eps=EPS4, x=(1, 1, 2, 2), y=(1, 1, 2, 2))
        assert centered_moment(spec, n) == Fraction(1, n**2 * (n**2 - 1))


def test_centered_moment_repeated_entry():
    for n in (3, 5, 9):
        spec = BracketMomentSpec(pi=PI_22, eps=EPS4, x=(1, 1, 1, 1), y=(1, 1, 1, 1))
        assert centered_moment(spec, n) == Fraction(2, n * (n + 1)) - Fraction(
            1, n**2
        )


def test_centered_moment_unbalanced_sequence():
    spec = BracketMomentSpec(
        pi=PI_22,
        eps=EpsilonSequence.from_string("..-."),
        x=(1, 1, 2, 2),
        y=(1, 1, 2, 2),
    )
    assert centered_moment(spec, 5) == bracket_expansion(spec, 5)
    assert centered_moment(spec, 5) == 0


def test_centered_moment_matches_expansion_everywhere():
    # The matching-sum evaluation and the direct bracket expansion must agree
    # exactly for every partition of a 4-element ground set.
    index_pairs = [
        ((1, 1, 2, 2), (1, 1, 2, 2)),
        ((1, 2, 1, 2), (1, 2, 1, 2)),
        ((1, 1, 1, 1), (1, 2, 1, 2)),
    ]
    for pi in all_set_partitions(4):
        for n in range(4, 11):
            for x, y in index_pairs:
                spec = BracketMomentSpec(pi=pi, eps=EPS4, x=x, y=y)
                assert centered_moment(spec, n) == bracket_expansion(spec, n)


@st.composite
def balanced_specs(draw):
    k = draw(st.sampled_from([2, 4]))
    signs = draw(st.permutations([DOT, BAR] * (k // 2)))
    indices = st.tuples(*[st.integers(1, 3)] * k)
    return BracketMomentSpec(
        pi=draw(st.sampled_from(all_set_partitions(k))),
        eps=EpsilonSequence(tuple(signs)),
        x=draw(indices),
        y=draw(indices),
    )


@settings(max_examples=40, deadline=None, derandomize=True)
@given(spec=balanced_specs(), n=st.integers(2, 6))
def test_centered_routes_agree_on_random_specs(spec, n):
    assert centered_moment(spec, n) == bracket_expansion(spec, n)


def test_bracket_cap_refuses_before_any_moment(monkeypatch):
    def refuse(*args):
        raise AssertionError("a sub-moment was evaluated")

    monkeypatch.setattr(centered_wg, "haar_moment_signed", refuse)
    monkeypatch.setattr(centered_wg, "orth_moment", refuse)
    monkeypatch.setattr(centered_wg, "wg_exact", refuse)
    pairs = tuple((2 * t + 1, 2 * t + 2) for t in range(9))
    nine_pairs = SetPartition(tuple(frozenset(pair) for pair in pairs))
    eps = EpsilonSequence.from_string(".-" * 9)
    ones = (1,) * 18
    spec = BracketMomentSpec(pi=nine_pairs, eps=eps, x=ones, y=ones)
    with pytest.raises(CapacityError):
        bracket_expansion(spec, 20)
    with pytest.raises(CapacityError):
        centered_moment_orth(nine_pairs, ones, ones, 20)
    p = EpsilonMatching(eps, PairPartition(pairs))
    with pytest.raises(CapacityError):
        wg_bracket(nine_pairs, p, p, 20)


def test_restricted_block_count_cases():
    assert restricted_block_count(PI_22, P_ID, P_ID) == 2
    assert restricted_block_count(PI_22, P_ID, P_CROSS) == 0
    assert restricted_block_count(PI_4, P_ID, P_ID) == 1
    singletons_paired = SetPartition(
        (frozenset({1, 2}), frozenset({3}), frozenset({4}))
    )
    assert restricted_block_count(singletons_paired, P_ID, P_ID) == 1


def test_restricted_hurwitz_single_block_always_empty():
    for l in (0, 2, 4):
        assert restricted_hurwitz_count(PI_4, P_ID, P_ID, l) == 0
        assert restricted_hurwitz_count(PI_4, P_ID, P_CROSS, l) == 0


def test_restricted_hurwitz_respecting_needs_extra_transpositions():
    # Both blocks are invariant under p = q, so the minimal factorization is
    # confined and at least r = 2 extra transpositions are required.
    assert restricted_hurwitz_count(PI_22, P_ID, P_ID, 0) == 0
    assert restricted_hurwitz_count(PI_22, P_ID, P_ID, 2) == 1
    assert restricted_hurwitz_count(PI_22, P_ID, P_ID, 4) == 1


def test_restricted_hurwitz_odd_excess_is_zero():
    assert restricted_hurwitz_count(PI_22, P_ID, P_ID, 1) == 0
    assert restricted_hurwitz_count(PI_22, P_ID, P_CROSS, 1) == 0


def test_restricted_hurwitz_matches_series_coefficients():
    # Extract the first two series coefficients of Wg[pi] at two large n and
    # compare with the direct counts.
    for p, q in [(P_ID, P_ID), (P_ID, P_CROSS), (P_CROSS, P_CROSS)]:
        sigma = matching_permutation(p, q)
        distance = transposition_distance(sigma)
        c0 = restricted_hurwitz_count(PI_22, p, q, 0)
        c1 = restricted_hurwitz_count(PI_22, p, q, 2)
        for n in (10**4, 10**5):
            scaled = (-1) ** distance * wg_bracket(PI_22, p, q, n) * n ** (
                2 + distance
            )
            assert scaled >= 0
            extracted0 = round(scaled)
            extracted1 = round((scaled - extracted0) * n**2)
            assert extracted0 == c0
            assert extracted1 == c1


def test_series_partial_sums_bracket_exact_value():
    # All expansion terms share one sign, so truncations plus the geometric
    # tail (at dot degree k/2) enclose the exact generalized value.
    n = 32
    # Dropped counts obey |P[pi](2g)| <= 4^|s| (6 (k/2)^(7/2))^g; the ratio
    # rounds 6 * 2^(7/2) up to the next integer over n^2.
    ratio = Fraction(68, n**2)
    matchings = epsilon_matchings(EPS4)
    for pi in all_set_partitions(4):
        for p in matchings:
            for q in matchings:
                sigma = matching_permutation(p, q)
                distance = transposition_distance(sigma)
                value = wg_bracket(pi, p, q, n)
                assert (-1) ** distance * value >= 0
                partial = Fraction(0)
                for g in range(3):
                    partial += Fraction(
                        restricted_hurwitz_count(pi, p, q, 2 * g), n ** (2 * g)
                    )
                partial *= Fraction(1, n ** (2 + distance))
                tail = (
                    Fraction(4**distance, n ** (2 + distance))
                    * ratio**3
                    / (1 - ratio)
                )
                assert abs(abs(value) - partial) <= tail


def test_check_centered_estimate_all_k4_instances():
    matchings = epsilon_matchings(EPS4)
    for n in (32, 64):
        for pi in all_set_partitions(4):
            for p in matchings:
                for q in matchings:
                    report = check_centered_estimate(pi, p, q, n)
                    assert report.passes
                    assert report.value.restricted_block_count == (
                        restricted_block_count(pi, p, q)
                    )


def test_check_centered_estimate_regime_guard():
    with pytest.raises(UnsupportedRegimeError):
        check_centered_estimate(PI_22, P_ID, P_ID, 8)


def test_centered_value_decay_exponent():
    # For blocks that are unions of p v q blocks the rescaled value decays
    # like n^(-r); doubling n must shrink it by at least 2^(-r + 1/2),
    # checked exactly as ratio^2 <= 2^(1 - 2r).
    record32 = centered_wg_value(PI_22, P_ID, P_ID, 32)
    record64 = centered_wg_value(PI_22, P_ID, P_ID, 64)
    r = record32.restricted_block_count
    assert r == 2
    ratio = (abs(record64.value) * 64**2) / (abs(record32.value) * 32**2)
    assert ratio**2 <= Fraction(2) ** (1 - 2 * r)


def test_centered_value_decay_exponent_three_blocks():
    eps6 = EpsilonSequence.from_string(".-.-.-")
    pi = SetPartition((frozenset({1, 2}), frozenset({3, 4}), frozenset({5, 6})))
    p = _matching(eps6, ((1, 2), (3, 4), (5, 6)))
    assert restricted_block_count(pi, p, p) == 3
    ratio = (abs(wg_bracket(pi, p, p, 64)) * 64**3) / (
        abs(wg_bracket(pi, p, p, 32)) * 32**3
    )
    assert ratio**2 <= Fraction(2) ** (1 - 2 * 3)


def test_centered_moment_orth_examples():
    pi = PI_22
    assert centered_moment_orth(pi, (1, 1, 2, 2), (1, 1, 2, 2), 4) == Fraction(
        5, 72
    ) - Fraction(1, 16)
    assert centered_moment_orth(pi, (1, 1, 1, 1), (1, 1, 1, 1), 4) == Fraction(
        1, 8
    ) - Fraction(1, 16)
    assert centered_moment_orth(PI_4, (1, 1, 2, 2), (1, 1, 2, 2), 4) == 0
