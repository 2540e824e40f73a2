"""Wick moments, path statistics, and the Gaussian comparison checks."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from haarmoments import wick
from haarmoments.centered_wg import BracketMomentSpec
from haarmoments.symcore import (
    BAR,
    DOT,
    CapacityError,
    EpsilonSequence,
    SetPartition,
    enumerate_set_partitions,
    first_appearance,
)
from haarmoments.wick import (
    ComparisonReport,
    GaussianMomentSpec,
    bracket_shift,
    check_cor_wg2,
    check_warmup,
    check_with_brackets,
    entry_covariance,
    gaussian_shifted_moment,
    path_statistics,
    wick_centered,
    wick_complex,
)

EPS2 = EpsilonSequence.from_string(".-")
EPS4 = EpsilonSequence.from_string(".-.-")


def table_covariance(g, h):
    """Deterministic small-integer covariance used for exact identities."""
    return ((3 * g + h) % 3) - 1


def all_set_partitions(k):
    if k == 0:
        yield SetPartition(())
        return
    for smaller in all_set_partitions(k - 1):
        blocks = smaller.blocks
        for i in range(len(blocks)):
            enlarged = blocks[:i] + (blocks[i] | {k},) + blocks[i + 1 :]
            yield SetPartition(enlarged)
        yield SetPartition(blocks + (frozenset([k]),))


def plain_wick(cov, factors, positions):
    g = [factors[i - 1][0] for i in positions if factors[i - 1][1] == DOT]
    h = [factors[i - 1][0] for i in positions if factors[i - 1][1] == BAR]
    return wick_complex(cov, g, h)


def prodbracket_oracle(pi, cov, factors):
    """Inclusion-exclusion expansion of a product of centered factors."""
    blocks = pi.blocks
    count = len(blocks)
    total = 0
    for size in range(count + 1):
        for chosen in itertools.combinations(range(count), size):
            inside = plain_wick(
                cov,
                factors,
                sorted(itertools.chain.from_iterable(blocks[t] for t in chosen)),
            )
            rest = 1
            for t in range(count):
                if t not in chosen:
                    rest *= plain_wick(cov, factors, sorted(blocks[t]))
            total += (-1) ** (count - size) * inside * rest
    return total


class TestWickComplex:
    def test_single_pair(self):
        assert wick_complex(entry_covariance, ["z"], ["z"]) == 1

    def test_absolute_moments_are_factorials(self):
        expected = 1
        for m in range(1, 6):
            expected *= m
            value = wick_complex(entry_covariance, ["z"] * m, ["z"] * m)
            assert value == expected

    def test_unbalanced_is_zero(self):
        assert wick_complex(entry_covariance, ["z", "z"], ["z"]) == 0
        assert wick_complex(entry_covariance, [], ["z"]) == 0

    def test_empty_product_is_one(self):
        assert wick_complex(entry_covariance, [], []) == 1

    def test_distinct_labels(self):
        assert wick_complex(entry_covariance, ["a"], ["b"]) == 0
        assert wick_complex(entry_covariance, ["a", "b"], ["a", "b"]) == 1
        assert wick_complex(entry_covariance, ["a", "b"], ["b", "a"]) == 1

    def test_mapping_covariance(self):
        cov = {("a", "b"): 2, ("a", "a"): 1}
        assert wick_complex(cov, ["a"], ["b"]) == 2
        assert wick_complex(cov, ["a", "a"], ["a", "b"]) == 4

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            wick_complex(entry_covariance, ["z"] * 9, ["z"] * 9)


class TestWickCentered:
    def test_single_block_vanishes(self):
        pi = SetPartition((frozenset([1, 2]),))
        factors = [("g", DOT), ("g", BAR)]
        assert wick_centered(pi, entry_covariance, factors) == 0

    def test_two_identical_brackets(self):
        pi = SetPartition((frozenset([1, 2]), frozenset([3, 4])))
        factors = [("g", DOT), ("g", BAR), ("g", DOT), ("g", BAR)]
        assert wick_centered(pi, entry_covariance, factors) == 1

    def test_independent_brackets_vanish(self):
        pi = SetPartition((frozenset([1, 2]), frozenset([3, 4])))
        factors = [("a", DOT), ("a", BAR), ("b", DOT), ("b", BAR)]
        assert wick_centered(pi, entry_covariance, factors) == 0

    def test_singleton_blocks_reduce_to_plain_wick(self):
        pi = SetPartition.singletons(2)
        factors = [("g", DOT), ("g", BAR)]
        assert wick_centered(pi, entry_covariance, factors) == 1

    def test_unbalanced_is_zero(self):
        pi = SetPartition.singletons(2)
        factors = [("g", DOT), ("g", DOT)]
        assert wick_centered(pi, entry_covariance, factors) == 0

    @pytest.mark.parametrize("signs", [".-.-", "..--"])
    def test_matches_inclusion_exclusion_on_four(self, signs):
        labels = [1, 2, 1, 3]
        factors = list(zip(labels, signs))
        for pi in all_set_partitions(4):
            direct = wick_centered(pi, table_covariance, factors)
            oracle = prodbracket_oracle(pi, table_covariance, factors)
            assert direct == oracle, pi

    def test_matches_inclusion_exclusion_on_six(self):
        signs = ".-.-.-"
        labels = [1, 2, 2, 1, 3, 1]
        factors = list(zip(labels, signs))
        for pi in all_set_partitions(6):
            direct = wick_centered(pi, table_covariance, factors)
            oracle = prodbracket_oracle(pi, table_covariance, factors)
            assert direct == oracle, pi


class TestPathStatistics:
    def test_even_detection(self):
        stats = path_statistics((1, 1), (2, 2), SetPartition.singletons(2))
        assert stats.even
        stats = path_statistics((1, 2), (1, 2), SetPartition.singletons(2))
        assert not stats.even

    def test_isolated_blocks(self):
        pi = SetPartition((frozenset([1, 2]), frozenset([3, 4])))
        stats = path_statistics((1, 1, 2, 2), (1, 1, 3, 3), pi)
        assert stats.b == 2
        assert stats.e1 == 0
        assert stats.m4 == 0

    def test_shared_pair_breaks_isolation(self):
        pi = SetPartition((frozenset([1, 2]), frozenset([3, 4])))
        stats = path_statistics((1, 1, 1, 2), (1, 1, 1, 2), pi)
        assert stats.b == 0

    def test_single_isolated_block_among_three(self):
        pi = SetPartition(
            (frozenset([1, 2]), frozenset([3, 4]), frozenset([5, 6]))
        )
        x = (5, 5, 1, 1, 1, 1)
        y = (5, 5, 1, 2, 1, 2)
        stats = path_statistics(x, y, pi)
        assert stats.b == 1

    def test_multiplicity_four(self):
        stats = path_statistics((1, 1, 1, 1), (1, 1, 1, 1), SetPartition.singletons(4))
        assert stats.m4 == 4
        assert stats.e1 == 0
        assert stats.b == 0

    def test_multiplicity_one_count(self):
        pi = SetPartition((frozenset([1, 2]), frozenset([3, 4])))
        stats = path_statistics((1, 1, 2, 3), (1, 1, 2, 3), pi)
        assert stats.e1 == 2
        assert stats.b == 2

    def test_m4_is_zero_or_at_least_four(self):
        import random

        rng = random.Random(20260816)
        for _ in range(200):
            k = rng.choice([2, 4, 6])
            x = tuple(rng.randint(1, 3) for _ in range(k))
            y = tuple(rng.randint(1, 3) for _ in range(k))
            stats = path_statistics(x, y, SetPartition.singletons(k))
            assert stats.m4 == 0 or stats.m4 >= 4

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            path_statistics((1, 2), (1,), SetPartition.singletons(2))

    def test_memo_matches_fresh_counts_and_keeps_refusing(self):
        indices = list(itertools.product((1, 2), repeat=4))
        for pi in enumerate_set_partitions(4):
            for x in indices:
                for y in indices:
                    fresh = path_statistics.__wrapped__(x, y, pi)
                    assert path_statistics(x, y, pi) == fresh
                    assert path_statistics(x, y, pi) == fresh
        for _ in range(2):
            with pytest.raises(ValueError):
                path_statistics((1, 2), (1,), SetPartition.singletons(2))


class TestGaussianShiftedMoment:
    def test_zero_shift_plain(self):
        spec = GaussianMomentSpec(x=(1, 1), y=(1, 1), eps=EPS2, shift=0.0)
        assert gaussian_shifted_moment(spec) == 1.0

    def test_zero_shift_single_bracket(self):
        pi = SetPartition((frozenset([1, 2]),))
        spec = GaussianMomentSpec(x=(1, 1), y=(1, 1), eps=EPS2, shift=0.0, pi=pi)
        assert gaussian_shifted_moment(spec) == 0.0

    def test_shift_only_term_survives_single_bracket(self):
        pi = SetPartition((frozenset([1, 2]),))
        spec = GaussianMomentSpec(x=(1, 1), y=(1, 1), eps=EPS2, shift=0.5, pi=pi)
        assert gaussian_shifted_moment(spec) == pytest.approx(0.5)

    def test_plain_shift_expansion(self):
        spec = GaussianMomentSpec(x=(1, 1), y=(1, 1), eps=EPS2, shift=1.0)
        assert gaussian_shifted_moment(spec) == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianMomentSpec(x=(1,), y=(1, 1), eps=EPS2, shift=0.0)
        with pytest.raises(ValueError):
            GaussianMomentSpec(x=(1, 1), y=(1, 1), eps=EPS2, shift=-1.0)
        with pytest.raises(ValueError):
            GaussianMomentSpec(
                x=(1, 1),
                y=(1, 1),
                eps=EPS2,
                shift=0.0,
                pi=SetPartition.singletons(4),
            )

    def test_unbracketed_expansion_is_capped_at_twelve_positions(self):
        spec = GaussianMomentSpec(
            x=(1,) * 13, y=(1,) * 13, eps=EpsilonSequence((DOT,) * 13), shift=0.5
        )
        with pytest.raises(CapacityError, match="capped at 12 positions"):
            gaussian_shifted_moment(spec)


def unbracketed_reference(labels, eps, shift):
    """``E(prod_i (G^{eps_i} + shift))`` over subsets of positions, each
    subset's term a plain Wick permanent."""
    k = eps.k
    total = 0.0
    for size in range(k + 1):
        for subset in itertools.combinations(range(1, k + 1), size):
            g = [labels[i - 1] for i in subset if eps.signs[i - 1] == DOT]
            h = [labels[i - 1] for i in subset if eps.signs[i - 1] == BAR]
            term = wick_complex(entry_covariance, g, h)
            if term:
                total += complex(term).real * shift ** (k - size)
    return total


def test_unbracketed_moment_matches_the_plain_subset_expansion():
    # Singleton brackets centre nothing, as an entry has mean zero, so the
    # bracketed loop must give the plain expansion's floats bit for bit.
    for k in range(1, 5):
        patterns = [
            p for p in itertools.product(range(1, k + 1), repeat=k)
            if first_appearance(p) == p
        ]
        for signs in itertools.product((DOT, BAR), repeat=k):
            eps = EpsilonSequence(signs)
            for pattern in patterns:
                for shift in (0.0, 0.37, 1, 4 * 16**-0.25):
                    spec = GaussianMomentSpec(x=pattern, y=pattern, eps=eps, shift=shift)
                    expected = unbracketed_reference(tuple(zip(pattern, pattern)), eps, shift)
                    assert gaussian_shifted_moment(spec).hex() == expected.hex(), spec


@st.composite
def shifted_moment_specs(draw):
    """Specs with k <= 6, labels from a range wider than k, with and without pi."""
    k = draw(st.integers(1, 6))
    labels = st.lists(st.integers(1, k + 2), min_size=k, max_size=k)
    signs = draw(st.lists(st.sampled_from((DOT, BAR)), min_size=k, max_size=k))
    pi = None
    if draw(st.booleans()):
        groups: dict[int, set[int]] = {}
        owners = draw(st.lists(st.integers(0, 2), min_size=k, max_size=k))
        for position, group in enumerate(owners, start=1):
            groups.setdefault(group, set()).add(position)
        pi = SetPartition(tuple(frozenset(b) for b in groups.values()))
    shift = draw(st.floats(0.0, 4.0, allow_nan=False))
    return GaussianMomentSpec(
        x=tuple(draw(labels)), y=tuple(draw(labels)), eps=EpsilonSequence(tuple(signs)),
        shift=shift, pi=pi,
    )


def uncached_shifted_moment(spec):
    return wick._gaussian_shifted_moment.__wrapped__(
        tuple(zip(spec.x, spec.y)), spec.eps, spec.shift, spec.pi
    )


class TestShiftedMomentCache:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(spec=shifted_moment_specs())
    def test_cached_value_is_bit_identical(self, spec):
        assert gaussian_shifted_moment(spec).hex() == uncached_shifted_moment(spec).hex()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(spec=shifted_moment_specs(), data=st.data())
    def test_invariant_under_row_and_column_bijections(self, spec, data):
        labels = list(range(1, spec.eps.k + 3))
        rows = dict(zip(labels, data.draw(st.permutations(labels))))
        cols = dict(zip(labels, data.draw(st.permutations(labels))))
        moved = GaussianMomentSpec(
            x=tuple(rows[a] for a in spec.x), y=tuple(cols[b] for b in spec.y),
            eps=spec.eps, shift=spec.shift, pi=spec.pi,
        )
        assert uncached_shifted_moment(moved).hex() == uncached_shifted_moment(spec).hex()
        assert gaussian_shifted_moment(moved).hex() == gaussian_shifted_moment(spec).hex()


class TestCheckWarmup:
    def test_closed_form_instance(self):
        report = check_warmup((1, 1), (1, 1), EPS2, 16)
        assert report.lhs_exact == 1
        assert report.even
        assert report.passes
        expected_rhs = (1 + 3 * 2**3.5 / 256) * 2.0
        assert report.rhs == pytest.approx(expected_rhs)

    def test_non_even_vanishes(self):
        report = check_warmup((1, 2), (1, 1), EPS2, 16)
        assert not report.even
        assert report.lhs_exact == 0
        assert report.vanishing_ok
        assert report.passes

    def test_odd_length_skips(self):
        report = check_warmup((1,), (1,), EpsilonSequence.from_string("."), 16)
        assert report.skipped
        assert report.passes is None

    def test_out_of_regime_skips(self):
        assert check_warmup((1, 1), (1, 1), EPS2, 3).skipped
        eps = EpsilonSequence.from_string(".-.-")
        assert check_warmup((1,) * 4, (1,) * 4, eps, 8).skipped

    def test_boundary_regime_is_supported(self):
        report = check_warmup((1,) * 4, (1,) * 4, EPS4, 16)
        assert not report.skipped
        assert report.passes

    def test_exhaustive_small_indices(self):
        for x in itertools.product((1, 2), repeat=4):
            for y in itertools.product((1, 2), repeat=4):
                report = check_warmup(x, y, EPS4, 16)
                assert report.passes, (x, y)

    def test_unbalanced_signs_pass_trivially(self):
        eps = EpsilonSequence.from_string("..")
        report = check_warmup((1, 1), (1, 1), eps, 16)
        assert report.lhs_exact == 0
        assert report.passes


class TestCheckWithBrackets:
    def test_shift_values(self):
        assert bracket_shift(4, 2, 16, False) == pytest.approx(16.0)
        assert bracket_shift(4, 2, 16, True) == pytest.approx(8.0)

    def test_single_bracket_instance(self):
        pi = SetPartition((frozenset([1, 2]),))
        spec = BracketMomentSpec(pi=pi, eps=EPS2, x=(1, 1), y=(1, 1))
        report = check_with_brackets(spec, 16)
        assert report.lhs_exact == 0
        assert report.passes

    def test_paired_brackets_instance(self):
        pi = SetPartition((frozenset([1, 2]), frozenset([3, 4])))
        spec = BracketMomentSpec(pi=pi, eps=EPS4, x=(1, 1, 1, 1), y=(1, 1, 1, 1))
        report = check_with_brackets(spec, 32)
        assert report.lhs_exact > 0
        assert report.passes

    def test_out_of_regime_skips(self):
        pi = SetPartition((frozenset([1, 2]), frozenset([3, 4])))
        spec = BracketMomentSpec(pi=pi, eps=EPS4, x=(1,) * 4, y=(1,) * 4)
        assert check_with_brackets(spec, 8).skipped

    def test_exhaustive_partitions_and_indices(self):
        partitions = [
            SetPartition((frozenset([1, 2]), frozenset([3, 4]))),
            SetPartition((frozenset([1, 3]), frozenset([2, 4]))),
            SetPartition((frozenset([1, 2, 3, 4]),)),
        ]
        for pi in partitions:
            for x in itertools.product((1, 2), repeat=4):
                for y in itertools.product((1, 2), repeat=4):
                    spec = BracketMomentSpec(pi=pi, eps=EPS4, x=x, y=y)
                    report = check_with_brackets(spec, 32)
                    assert report.passes, (pi, x, y)
                    assert report.vanishing_ok, (pi, x, y)


class TestCheckCorWg2:
    N4 = 4**12

    def test_isolated_pair_blocks(self):
        pi = SetPartition((frozenset([1, 2]), frozenset([3, 4])))
        spec = BracketMomentSpec(pi=pi, eps=EPS4, x=(1, 1, 2, 2), y=(1, 1, 2, 2))
        report = check_cor_wg2(spec, self.N4)
        n = self.N4
        assert report.lhs_exact == Fraction(1, n**2 * (n**2 - 1))
        assert report.passes
        eta = 8 * 4.0 * n**-0.125
        assert report.rhs == pytest.approx(8 * float(n) ** -2 * eta**2)

    def test_multiplicity_one_exponent(self):
        pi = SetPartition((frozenset([1, 2]), frozenset([3, 4])))
        spec = BracketMomentSpec(pi=pi, eps=EPS4, x=(1, 1, 2, 3), y=(1, 1, 2, 3))
        report = check_cor_wg2(spec, self.N4)
        assert report.lhs_exact == 0
        assert not report.even
        assert report.passes

    def test_unbalanced_signs_vanish(self):
        pi = SetPartition((frozenset([1, 2]), frozenset([3, 4])))
        eps = EpsilonSequence.from_string("...-")
        spec = BracketMomentSpec(pi=pi, eps=eps, x=(1, 1, 2, 2), y=(1, 1, 2, 2))
        report = check_cor_wg2(spec, self.N4)
        assert report.lhs_exact == 0
        assert report.passes

    def test_uneven_blocks_skip(self):
        pi = SetPartition((frozenset([1]), frozenset([2, 3, 4])))
        spec = BracketMomentSpec(pi=pi, eps=EPS4, x=(1, 1, 2, 2), y=(1, 1, 2, 2))
        assert check_cor_wg2(spec, self.N4).skipped

    def test_small_dimension_skips(self):
        pi = SetPartition((frozenset([1, 2]), frozenset([3, 4])))
        spec = BracketMomentSpec(pi=pi, eps=EPS4, x=(1, 1, 2, 2), y=(1, 1, 2, 2))
        assert check_cor_wg2(spec, self.N4 - 1).skipped

    def test_report_shape(self):
        pi = SetPartition((frozenset([1, 2]), frozenset([3, 4])))
        spec = BracketMomentSpec(pi=pi, eps=EPS4, x=(1, 2, 1, 2), y=(2, 1, 2, 1))
        report = check_cor_wg2(spec, self.N4)
        assert isinstance(report, ComparisonReport)
        assert report.check == "cor-wg2"
        assert report.margin == pytest.approx(report.rhs - report.lhs)
