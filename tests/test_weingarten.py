from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from haarmoments.symcore import (
    CapacityError,
    EpsilonSequence,
    PairPartition,
    Permutation,
    all_permutations,
    cycle_type,
    delta_pairs,
    enumerate_pair_partitions,
    permutation_from_cycle_type,
    transposition_distance,
)
from haarmoments.weingarten import (
    UnsupportedRegimeError,
    catalan,
    check_hurwitz_bounds,
    coset_type,
    haar_moment,
    haar_moment_signed,
    hurwitz_count,
    orth_moment,
    wg_exact,
    wg_orth_exact,
    wg_series,
)

ID1 = Permutation.identity(1)
ID2 = Permutation.identity(2)
SWAP = Permutation((2, 1))


def test_wg_degree_one():
    for n in (1, 2, 5, 9):
        assert wg_exact(1, n).value(ID1) == Fraction(1, n)


def test_wg_degree_two_closed_forms():
    # Hand-inverted 2x2 Gram matrix [[n^2, n], [n, n^2]].
    for n in (2, 3, 5, 8):
        table = wg_exact(2, n)
        assert table.value(ID2) == Fraction(1, n**2 - 1)
        assert table.value(SWAP) == Fraction(-1, n * (n**2 - 1))
    assert wg_exact(2, 2).value(ID2) == Fraction(1, 3)
    assert wg_exact(2, 2).value(SWAP) == Fraction(-1, 6)


def test_wg_rejects_k_above_n():
    with pytest.raises(UnsupportedRegimeError):
        wg_exact(3, 2)


def test_wg_capacity():
    with pytest.raises(CapacityError):
        wg_exact(9, 9)


def test_wg_gram_inverse_identity():
    for k in (1, 2, 3, 4):
        group = all_permutations(k)
        for n in range(k, 9):
            table = wg_exact(k, n)
            gram = [
                [n ** (k - transposition_distance(p.compose(q.invert()))) for q in group]
                for p in group
            ]
            wg = [[table.value_of_product(p, q) for q in group] for p in group]
            size = len(group)
            for i in range(size):
                for j in range(size):
                    entry = sum(gram[i][m] * wg[m][j] for m in range(size))
                    assert entry == (1 if i == j else 0)


@st.composite
def _degree_dimension_permutation(draw):
    k = draw(st.integers(1, 6))
    n = draw(st.integers(k, 10))
    images = draw(st.permutations(range(1, k + 1)))
    return k, n, Permutation(tuple(images))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=_degree_dimension_permutation())
def test_wg_orthogonality_property(case):
    # sum_tau Wg(sigma tau^-1, n) n^#(tau) = [sigma = e], one row of Wg * Gram = 1.
    k, n, sigma = case
    table = wg_exact(k, n)
    total = sum(
        table.value(sigma.compose(tau.invert())) * n ** len(tau.cycles())
        for tau in all_permutations(k)
    )
    assert total == (1 if sigma == Permutation.identity(k) else 0)


def test_wg_centrality():
    table = wg_exact(4, 6)
    for ct in [(2, 1, 1), (2, 2), (3, 1), (4,)]:
        values = {
            table.value(sigma)
            for sigma in all_permutations(4)
            if cycle_type(sigma) == ct
        }
        assert len(values) == 1


def test_hurwitz_minimal_counts():
    assert hurwitz_count(ID2, 0) == 1
    assert hurwitz_count(permutation_from_cycle_type((3,)), 0) == 2
    assert hurwitz_count(ID2, 2) == 1
    assert hurwitz_count(ID2, 1) == 0


def test_hurwitz_catalan_product():
    # Minimal factorization counts are products of Catalan numbers over cycles.
    for k in range(1, 7):
        for sigma in all_permutations(k):
            expected = 1
            for part in cycle_type(sigma):
                expected *= catalan(part - 1)
            assert hurwitz_count(sigma, 0) == expected


def test_hurwitz_depth_cap():
    with pytest.raises(CapacityError):
        hurwitz_count(ID2, 18)


def test_series_degree_one_is_exact():
    for g_max in (0, 2, 5):
        estimate = wg_series(ID1, 7, g_max)
        assert estimate.value == Fraction(1, 7)
        assert estimate.tail == 0


def test_series_identity_two_partial_sum():
    estimate = wg_series(ID2, 16, 3)
    expected = Fraction(1, 256) * (
        1 + Fraction(1, 256) + Fraction(1, 256**2) + Fraction(1, 256**3)
    )
    assert estimate.value == expected
    exact = wg_exact(2, 16).value(ID2)
    assert abs(exact - estimate.value) <= estimate.tail
    assert estimate.tail < Fraction(1, 255)


def test_series_transposition_within_tail():
    estimate = wg_series(SWAP, 16, 3)
    exact = wg_exact(2, 16).value(SWAP)
    assert estimate.value < 0
    assert abs(exact - estimate.value) <= estimate.tail


def test_series_brackets_exact_value_for_small_degrees():
    # The series plus rigorous tail must bracket the Gram-inversion value.
    # The smallest admissible n per degree (6 k^(7/2) < n^2) plus one larger.
    for k, n in [(2, 9), (2, 16), (3, 17), (3, 24), (4, 28), (4, 32)]:
        table = wg_exact(k, n)
        for ct in {cycle_type(s) for s in all_permutations(k)}:
            sigma = permutation_from_cycle_type(ct)
            estimate = wg_series(sigma, n, 2)
            assert abs(table.value(sigma) - estimate.value) <= estimate.tail


def test_series_divergence_rejected():
    with pytest.raises(UnsupportedRegimeError):
        wg_series(Permutation.identity(3), 2, 1)
    with pytest.raises(UnsupportedRegimeError):
        # n >= k but the geometric majorant ratio exceeds 1.
        wg_series(Permutation.identity(3), 12, 1)


def test_hurwitz_bound_report():
    for k, g in [(2, 1), (3, 1), (1, 2), (4, 1), (3, 2)]:
        report = check_hurwitz_bounds(k, g)
        assert report.all_pass
        assert report.checked == len(all_permutations(k))
    with pytest.raises(CapacityError):
        check_hurwitz_bounds(6, 1)


def test_moment_fourth_power_of_corner_entry():
    for n in (2, 4, 7):
        assert haar_moment((1, 1), (1, 1), (1, 1), (1, 1), n) == Fraction(
            2, n * (n + 1)
        )


def test_moment_distinct_diagonal_entries():
    for n in (2, 4, 7):
        assert haar_moment((1, 2), (1, 2), (1, 2), (1, 2), n) == Fraction(1, n**2 - 1)


def test_moment_shared_row():
    for n in (2, 4, 7):
        assert haar_moment((1, 1), (1, 2), (1, 1), (1, 2), n) == Fraction(
            1, n * (n + 1)
        )


def test_moment_unpaired_index_vanishes():
    # A row index appearing only among the plain factors forces zero.
    assert haar_moment((1,), (1,), (2,), (1,), 3) == 0


def test_signed_moment_unbalanced_is_zero():
    eps = EpsilonSequence.from_string("..")
    assert haar_moment_signed((1, 1), (1, 1), eps, 4) == 0


def test_signed_moment_reduces_to_plain():
    assert haar_moment_signed((1, 1), (1, 1), EpsilonSequence.from_string(".-"), 5) == Fraction(1, 5)
    assert haar_moment_signed(
        (1, 2, 1, 2), (1, 2, 1, 2), EpsilonSequence.from_string("..--"), 5
    ) == Fraction(1, 24)


def test_orth_degree_two():
    for n in (1, 3, 6):
        table = wg_orth_exact(2, n)
        assert table.value(PairPartition(((1, 2),)), PairPartition(((1, 2),))) == Fraction(1, n)
        assert orth_moment((1, 1), (1, 1), n) == Fraction(1, n)


def test_orth_degree_four_moments():
    n = 4
    assert orth_moment((1, 1, 1, 1), (1, 1, 1, 1), n) == Fraction(3, n * (n + 2))
    assert orth_moment((1, 1, 2, 2), (1, 1, 2, 2), n) == Fraction(
        n + 1, n * (n - 1) * (n + 2)
    )


def test_orth_gram_inverse_identity():
    for k, n in [(2, 3), (4, 4), (4, 6), (6, 6)]:
        partitions = enumerate_pair_partitions(k)
        table = wg_orth_exact(k, n)
        gram = [
            [n ** len(coset_type(p, q)) for q in partitions] for p in partitions
        ]
        # n^(#blocks of join): each join block of size 2m contributes one part.
        for i, p in enumerate(partitions):
            for j, q in enumerate(partitions):
                entry = sum(
                    gram[i][m] * table.value(partitions[m], q)
                    for m in range(len(partitions))
                )
                assert entry == (1 if i == j else 0)


def _is_singular(matrix):
    """Rank test by plain Gaussian elimination over the rationals."""
    rows = [[Fraction(entry) for entry in row] for row in matrix]
    size = len(rows)
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col] != 0), None)
        if pivot is None:
            return True
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(col + 1, size):
            factor = rows[r][col] / rows[col][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return False


def test_orth_singular_regime_matches_full_gram():
    for k in (2, 4, 6):
        partitions = enumerate_pair_partitions(k)
        blocks = [[len(coset_type(p, q)) for q in partitions] for p in partitions]
        for n in range(1, k + 1):
            singular = _is_singular([[n**b for b in row] for row in blocks])
            if singular:
                with pytest.raises(UnsupportedRegimeError):
                    wg_orth_exact(k, n)
            else:
                wg_orth_exact(k, n)


def test_orth_degree_eight_column_identity():
    # sum_r n^(#blocks(p v r)) Wg_O(r, base, n) = [p = base] for all 105 matchings p.
    partitions = enumerate_pair_partitions(8)
    base = partitions[0]
    blocks = [[len(coset_type(p, r)) for r in partitions] for p in partitions]
    for n in (4, 8):
        table = wg_orth_exact(8, n)
        column = [table.value(r, base) for r in partitions]
        for i, row in enumerate(blocks):
            entry = sum(n**b * value for b, value in zip(row, column))
            assert entry == (1 if i == 0 else 0)


@pytest.mark.parametrize("n", [0, -1, -3])
def test_orth_nonpositive_dimension_refused(n):
    for k in (2, 6):
        with pytest.raises(UnsupportedRegimeError, match="at least 1"):
            wg_orth_exact(k, n)
    for length in (0, 1, 2):
        with pytest.raises(UnsupportedRegimeError):
            orth_moment((1,) * length, (1,) * length, n)


def test_orth_moment_odd_degree_zero():
    assert orth_moment((1,), (1,), 3) == 0
    assert orth_moment((1, 1, 1), (1, 1, 1), 3) == 0


def test_orth_capacity():
    with pytest.raises(CapacityError):
        wg_orth_exact(10, 12)


def _sample_haar_batch(rng, n, batch):
    z = (
        rng.standard_normal((batch, n, n)) + 1j * rng.standard_normal((batch, n, n))
    ) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=1, axis2=2)
    return q * (diag / np.abs(diag))[:, None, :]


@pytest.mark.slow
def test_moment_matches_monte_carlo():
    # 10^6 Haar draws at n = 5; each sampled moment must sit within four
    # standard errors of the exact rational value.
    n = 5
    rng = np.random.default_rng(20240817)
    draws = 1_000_000
    batch = 50_000
    trackers = {
        "k2_abs4": [],
        "k2_diag": [],
        "k3_diag": [],
    }
    for _ in range(draws // batch):
        u = _sample_haar_batch(rng, n, batch)
        trackers["k2_abs4"].append(np.abs(u[:, 0, 0]) ** 4)
        trackers["k2_diag"].append(
            (u[:, 0, 0] * u[:, 1, 1] * np.conj(u[:, 0, 0]) * np.conj(u[:, 1, 1])).real
        )
        trackers["k3_diag"].append(
            (
                u[:, 0, 0]
                * u[:, 1, 1]
                * u[:, 2, 2]
                * np.conj(u[:, 0, 0] * u[:, 1, 1] * u[:, 2, 2])
            ).real
        )
    exact = {
        "k2_abs4": haar_moment((1, 1), (1, 1), (1, 1), (1, 1), n),
        "k2_diag": haar_moment((1, 2), (1, 2), (1, 2), (1, 2), n),
        "k3_diag": haar_moment((1, 2, 3), (1, 2, 3), (1, 2, 3), (1, 2, 3), n),
    }
    for key, chunks in trackers.items():
        samples = np.concatenate(chunks)
        mean = samples.mean()
        stderr = samples.std(ddof=1) / np.sqrt(samples.size)
        assert abs(mean - float(exact[key])) <= 4 * stderr


@pytest.mark.slow
def test_orth_moment_matches_monte_carlo():
    n = 4
    rng = np.random.default_rng(912)
    draws = 400_000
    batch = 50_000
    quartic = []
    cross = []
    for _ in range(draws // batch):
        z = rng.standard_normal((batch, n, n))
        q, r = np.linalg.qr(z)
        diag = np.diagonal(r, axis1=1, axis2=2)
        o = q * np.sign(diag)[:, None, :]
        quartic.append(o[:, 0, 0] ** 4)
        cross.append(o[:, 0, 0] ** 2 * o[:, 1, 1] ** 2)
    for samples, exact in [
        (np.concatenate(quartic), orth_moment((1, 1, 1, 1), (1, 1, 1, 1), n)),
        (np.concatenate(cross), orth_moment((1, 1, 2, 2), (1, 1, 2, 2), n)),
    ]:
        stderr = samples.std(ddof=1) / np.sqrt(samples.size)
        assert abs(samples.mean() - float(exact)) <= 4 * stderr


def test_envelope_upper_bound_on_wg():
    # |Wg(sigma, n)| <= (1 + 24 k^(7/2) n^-2) n^(-k-|sigma|) 4^|sigma|
    # whenever 12 k^(7/2) <= n^2, checked exactly by squaring.
    cases = [(1, 4), (2, 12), (2, 16), (3, 24), (3, 32), (4, 40), (4, 64)]
    for k, n in cases:
        assert 144 * k**7 <= n**4
        table = wg_exact(k, n)
        for ct, value in table.values.items():
            distance = k - len(ct)
            envelope = Fraction(4**distance, n ** (k + distance))
            excess = abs(value) - envelope
            if excess <= 0:
                continue
            # excess <= envelope 24 k^(7/2) / n^2, squared to stay rational
            lhs = (excess * n**2) ** 2
            rhs = envelope**2 * 576 * k**7
            assert lhs <= rhs


def test_delta_pairs_consistency():
    p = PairPartition(((1, 2), (3, 4)))
    assert delta_pairs(p, (5, 5, 2, 2)) == 1
    assert delta_pairs(p, (5, 4, 2, 2)) == 0
