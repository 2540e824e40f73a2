"""Words, pencils, tree-ball estimators, and resolvent entries."""

import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from haarmoments import freegroup
from haarmoments.freegroup import (
    MAX_BALL_DIM,
    MAX_RESOLVENT_RADIUS,
    RESOLVENT_START_RADIUS,
    RESOLVENT_TOL,
    MatrixPencil,
    ReducedWord,
    TreeBallOperator,
    _schur_recursion,
    astar_norm_lower,
    ball_spectrum_bounds,
    build_tree_ball,
    enumerate_ball,
    hat_weights,
    resolvent_entries,
    rho_k,
    root_return_moments,
    star,
)
from haarmoments.symcore import CapacityError


def uniform_pencil(d, weight=1.0, a0=0.0):
    return MatrixPencil.from_scalars(d, a0, [weight] * (2 * d))


def random_selfadjoint_pencil(rng, d, r):
    a0 = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    a0 = (a0 + a0.conj().T) / 2
    generators = [
        rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
        for _ in range(d)
    ]
    family = generators + [g.conj().T for g in generators]
    return MatrixPencil(d=d, coeff_dim=r, a0=a0, a=tuple(family))


# Reference route: the per-color Schur recursion with a from-scratch radius
# doubling, as it stood before the stacked sweep; kept as a test oracle.


def reference_pd_inverse(pivot):
    hermitized = (pivot + pivot.conj().T) / 2
    try:
        np.linalg.cholesky(hermitized)
    except np.linalg.LinAlgError:
        return None
    return np.linalg.inv(hermitized)


def reference_schur(pencil, mu, depth):
    d = pencil.d
    bare = mu * np.eye(pencil.coeff_dim) - pencil.a0

    def pivot_inverse(excluded, sub):
        pivot = bare
        for l, block in enumerate(sub):
            if l != excluded:
                pivot = pivot - pencil.a[star(l, d)] @ block @ pencil.a[l]
        return reference_pd_inverse(pivot)

    sub = []
    for _ in range(depth):
        fresh = []
        for j in range(2 * d):
            inverse = pivot_inverse(star(j, d), sub)
            if inverse is None:
                return None
            fresh.append(inverse)
        sub = fresh
    root = pivot_inverse(None, sub)
    return None if root is None else (root, sub)


def reference_ball_top(pencil, radius, tol):
    scale = pencil.coefficient_scale
    lo, hi = -scale - 1.0, scale + 1.0
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if reference_schur(pencil, mid, radius) is not None:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def reference_ball_bounds(pencil, radius, tol=1e-9):
    top = reference_ball_top(pencil, radius, tol)
    return -reference_ball_top(pencil.negated(), radius, tol), top


def reference_resolvent(pencil, mu, targets):
    # The side is the one whose bare root pivot is positive definite; below
    # the spectrum the negated pencil runs at -mu and the entries flip sign.
    if reference_schur(pencil, mu, 0) is not None:
        side, shift, sign = pencil, mu, 1
    elif reference_schur(pencil.negated(), -mu, 0) is not None:
        side, shift, sign = pencil.negated(), -mu, -1
    else:
        raise ValueError("a0 pivot not definite on either side")

    def entries_at(depth):
        eliminated = reference_schur(side, shift, depth)
        if eliminated is None:
            raise ValueError("pivot not definite")
        root, sub = eliminated
        return {
            word: sign * (root if word.length == 0
            else root @ side.a[star(word.letters[0], side.d)] @ sub[word.letters[0]])
            for word in targets
        }

    previous = entries_at(RESOLVENT_START_RADIUS)
    depth = RESOLVENT_START_RADIUS
    while 2 * depth <= MAX_RESOLVENT_RADIUS:
        depth *= 2
        current = entries_at(depth)
        delta = max(float(np.max(np.abs(current[w] - previous[w]))) for w in targets)
        if delta < RESOLVENT_TOL:
            return current
        previous = current
    raise ValueError("did not stabilize")


def reference_hat(pencil, mu):
    identity = ReducedWord.identity(pencil.d)
    neighbors = [ReducedWord(pencil.d, (c,)) for c in range(2 * pencil.d)]
    entries = reference_resolvent(pencil, mu, [identity] + neighbors)
    root_inverse = np.linalg.inv(entries[identity])
    return tuple(root_inverse @ entries[w] for w in neighbors)


def outcome(compute):
    """The computed arrays, or None when the call refuses with ValueError."""
    try:
        return compute()
    except ValueError:
        return None


def assert_same_outcome(got, want):
    assert (got is None) == (want is None)
    if want is not None:
        for g, w in zip(got, want, strict=True):
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12)


class TestReducedWord:
    def test_identity(self):
        word = ReducedWord.identity(2)
        assert word.length == 0
        assert word.letters == ()

    def test_rejects_cancellation(self):
        with pytest.raises(ValueError):
            ReducedWord(2, (0, 2))
        with pytest.raises(ValueError):
            ReducedWord(1, (1, 0))

    def test_rejects_bad_letters(self):
        with pytest.raises(ValueError):
            ReducedWord(2, (4,))

    def test_star_involution(self):
        for d in (1, 2, 3):
            for color in range(2 * d):
                assert star(star(color, d), d) == color
                assert star(color, d) != color

    def test_extend_front_reduces(self):
        word = ReducedWord(2, (0, 1))
        grown = word.extend_front(3)
        assert grown.letters == (3, 0, 1)
        cancelled = grown.extend_front(1)
        assert cancelled.letters == (0, 1)

    def test_extend_front_inverse_roundtrip(self):
        word = ReducedWord(2, (2, 1, 0))
        for color in range(4):
            assert word.extend_front(color).extend_front(star(color, 2)) == word


class TestEnumerateBall:
    def test_sizes(self):
        assert len(enumerate_ball(1, 3)) == 7
        assert len(enumerate_ball(2, 2)) == 17
        assert len(enumerate_ball(2, 3)) == 53

    def test_order_by_length_then_lex(self):
        ball = enumerate_ball(2, 2)
        keys = [(w.length, w.letters) for w in ball]
        assert keys == sorted(keys)

    def test_all_reduced_and_distinct(self):
        ball = enumerate_ball(2, 4)
        assert len({w.letters for w in ball}) == len(ball)


class TestMatrixPencil:
    def test_selfadjoint_detection(self):
        assert uniform_pencil(2).is_selfadjoint
        skew = MatrixPencil.from_scalars(1, 0.0, [1.0, 2.0])
        assert not skew.is_selfadjoint
        shifted = MatrixPencil.from_scalars(1, 1j, [1.0, 1.0])
        assert not shifted.is_selfadjoint

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            MatrixPencil(d=1, coeff_dim=2, a0=np.zeros((2, 2)), a=(np.zeros((2, 2)),))
        with pytest.raises(ValueError):
            MatrixPencil(
                d=1,
                coeff_dim=2,
                a0=np.zeros((1, 1)),
                a=(np.zeros((2, 2)), np.zeros((2, 2))),
            )

    def test_coefficient_scale(self):
        pencil = uniform_pencil(2, weight=0.5, a0=1.0)
        assert pencil.coefficient_scale == pytest.approx(3.0)


class TestRhoK:
    def test_uniform_closed_form(self):
        pencil = uniform_pencil(2)
        for k in range(1, 7):
            assert rho_k(pencil, k) == pytest.approx(math.sqrt(3), abs=1e-12)

    def test_zero_weights(self):
        pencil = uniform_pencil(2, weight=0.0)
        assert rho_k(pencil, 3) == 0.0

    def test_single_generator(self):
        pencil = uniform_pencil(1)
        for k in (1, 4, 9):
            assert rho_k(pencil, k) == pytest.approx(1.0, abs=1e-12)

    def test_scaled_closed_form(self):
        pencil = uniform_pencil(3, weight=0.5)
        assert rho_k(pencil, 4) == pytest.approx(math.sqrt(5) * 0.5, abs=1e-12)

    def test_matches_word_enumeration(self):
        rng = np.random.default_rng(7)
        pencil = random_selfadjoint_pencil(rng, d=2, r=2)
        k = 3
        best = 0.0
        for start in range(4):
            gram = np.zeros((2, 2), dtype=complex)
            for word in itertools.product(range(4), repeat=k):
                if word[0] != start:
                    continue
                if any(b == star(a, 2) for a, b in zip(word, word[1:])):
                    continue
                product = np.eye(2, dtype=complex)
                for color in word:
                    product = product @ pencil.a[color]
                gram += product.conj().T @ product
            top = float(np.linalg.eigvalsh((gram + gram.conj().T) / 2)[-1])
            best = max(best, top)
        expected = (3 * best) ** (1 / (2 * k))
        assert rho_k(pencil, k) == pytest.approx(expected, abs=1e-10)

    def test_three_generators_order_twelve(self):
        pencil = uniform_pencil(3)
        assert rho_k(pencil, 12) == pytest.approx(math.sqrt(5), abs=1e-12)

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            rho_k(uniform_pencil(2), 19)

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            rho_k(uniform_pencil(2), 0)


class TestRootReturnMoments:
    def test_integer_line(self):
        moments = root_return_moments(uniform_pencil(1), 8)
        values = [int(round(m[0, 0].real)) for m in moments]
        assert values == [1, 0, 2, 0, 6, 0, 20, 0, 70]

    def test_four_regular_tree(self):
        moments = root_return_moments(uniform_pencil(2), 6)
        values = [int(round(m[0, 0].real)) for m in moments]
        assert values == [1, 0, 4, 0, 28, 0, 232]

    def test_central_trinomials_with_diagonal(self):
        moments = root_return_moments(uniform_pencil(1, a0=1.0), 5)
        values = [int(round(m[0, 0].real)) for m in moments]
        assert values == [1, 1, 3, 7, 19, 51]

    @pytest.mark.parametrize("d", [1, 2])
    def test_matches_ball_powers_for_matrix_pencil(self, d):
        rng = np.random.default_rng(11)
        pencil = random_selfadjoint_pencil(rng, d=d, r=2)
        length = 6
        ball = build_tree_ball(pencil, length)
        moments = root_return_moments(pencil, length)
        columns = np.eye(ball.dimension, 2, dtype=complex)
        for m in range(length + 1):
            assert np.allclose(columns[:2], moments[m], atol=1e-10)
            columns = ball.matrix @ columns


class TestAstarNormLower:
    def test_diagonal_only(self):
        pencil = MatrixPencil.from_scalars(2, -2.5, [0.0] * 4)
        assert astar_norm_lower(pencil, 5) == pytest.approx(2.5, abs=1e-12)

    def test_zero_pencil(self):
        assert astar_norm_lower(uniform_pencil(2, weight=0.0), 4) == 0.0

    def test_integer_line_approaches_two(self):
        value = astar_norm_lower(uniform_pencil(1), 256)
        assert value == pytest.approx(1.9869744685836324, abs=1e-6)

    def test_free_group_weyl_value(self):
        value = astar_norm_lower(uniform_pencil(2), 16)
        assert value == pytest.approx(3.0662466535684256, abs=1e-6)

    def test_monotone_in_m(self):
        pencil = uniform_pencil(2)
        values = [astar_norm_lower(pencil, m) for m in (2, 4, 8, 16)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_below_ball_norm(self):
        pencil = uniform_pencil(2)
        assert astar_norm_lower(pencil, 2) <= build_tree_ball(pencil, 3).norm() + 1e-9
        line = uniform_pencil(1)
        assert astar_norm_lower(line, 8) <= build_tree_ball(line, 10).norm() + 1e-9

    def test_requires_selfadjoint(self):
        skew = MatrixPencil.from_scalars(1, 0.0, [1.0, 2.0])
        with pytest.raises(ValueError):
            astar_norm_lower(skew, 4)

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            astar_norm_lower(uniform_pencil(1), 3000)


class TestTreeBallOperator:
    def test_hermitian_for_selfadjoint_pencil(self):
        ball = build_tree_ball(uniform_pencil(2), 3)
        assert isinstance(ball, TreeBallOperator)
        assert np.allclose(ball.matrix, ball.matrix.conj().T)

    def test_norm_monotone_in_radius(self):
        pencil = uniform_pencil(2)
        norms = [build_tree_ball(pencil, radius).norm() for radius in range(1, 5)]
        assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))
        assert norms[-1] <= 2 * math.sqrt(3) + 1e-12

    def test_path_graph_norm(self):
        ball = build_tree_ball(uniform_pencil(1), 5)
        expected = 2 * math.cos(math.pi / 12)
        assert ball.norm() == pytest.approx(expected, abs=1e-10)

    def test_dimension_cap_refuses_before_building(self, monkeypatch):
        class Enumerated(Exception):
            pass

        def enumerated(d, radius):
            raise Enumerated

        monkeypatch.setattr(freegroup, "enumerate_ball", enumerated)
        # 39,365 words at d = 2, radius 9: refused before any word is listed.
        with pytest.raises(CapacityError):
            build_tree_ball(uniform_pencil(2), 9)
        # r = 4 on the line: 4 (2R + 1) words' worth is 19,996 at R = 2499,
        # inside the cap, and 20,004 at R = 2500, beyond it.
        zero = np.zeros((4, 4))
        pencil = MatrixPencil(d=1, coeff_dim=4, a0=zero, a=(zero, zero))
        assert 4 * (2 * 2499 + 1) <= MAX_BALL_DIM < 4 * (2 * 2500 + 1)
        with pytest.raises(Enumerated):
            build_tree_ball(pencil, 2499)
        with pytest.raises(CapacityError):
            build_tree_ball(pencil, 2500)


class TestBallSpectrumBounds:
    def test_integer_line_edges(self):
        lo, hi = ball_spectrum_bounds(uniform_pencil(1), 100, tol=1e-9)
        expected = 2 * math.cos(math.pi / 202)
        assert hi == pytest.approx(expected, abs=1e-6)
        assert lo == pytest.approx(-expected, abs=1e-6)

    def test_shifted_line_is_asymmetric(self):
        lo, hi = ball_spectrum_bounds(uniform_pencil(1, a0=1.0), 60, tol=1e-9)
        edge = 2 * math.cos(math.pi / 122)
        assert hi == pytest.approx(1 + edge, abs=1e-6)
        assert lo == pytest.approx(1 - edge, abs=1e-6)

    @pytest.mark.parametrize("radius", [0, 1, 2, 4])
    def test_matches_dense_ball(self, radius):
        rng = np.random.default_rng(3)
        pencil = random_selfadjoint_pencil(rng, d=2, r=2)
        ball = build_tree_ball(pencil, radius)
        spectrum = np.linalg.eigvalsh(ball.matrix)
        lo, hi = ball_spectrum_bounds(pencil, radius, tol=1e-9)
        assert hi == pytest.approx(float(spectrum[-1]), abs=1e-7)
        assert lo == pytest.approx(float(spectrum[0]), abs=1e-7)

    def test_zero_tolerance_terminates(self):
        lo, hi = ball_spectrum_bounds(uniform_pencil(1), 3, tol=0.0)
        expected = 2 * math.cos(math.pi / 8)
        assert hi == pytest.approx(expected, abs=1e-14)
        assert lo == pytest.approx(-expected, abs=1e-14)

    def test_free_group_edge_estimate(self):
        _, hi = ball_spectrum_bounds(uniform_pencil(2), 20, tol=1e-9)
        assert hi == pytest.approx(3.431735, abs=1e-4)
        assert hi <= 2 * math.sqrt(3) + 1e-9


class TestResolventEntries:
    def test_integer_line_root_entry(self):
        pencil = uniform_pencil(1)
        root = ReducedWord.identity(1)
        entries = resolvent_entries(pencil, 3.0, [root])
        assert entries[root][0, 0].real == pytest.approx(1 / math.sqrt(5), abs=1e-7)

    def test_integer_line_neighbor_entry(self):
        pencil = uniform_pencil(1)
        neighbor = ReducedWord(1, (0,))
        expected = (1 / math.sqrt(5)) * (3 - math.sqrt(5)) / 2
        entries = resolvent_entries(pencil, 3.0, [neighbor])
        assert entries[neighbor][0, 0].real == pytest.approx(expected, abs=1e-7)

    def test_below_the_spectrum_runs_on_the_negated_pencil(self):
        # a0 = 3 puts the line's spectrum at [1, 5]; mu = 0 lies below it,
        # where G_oo = -1/sqrt(3^2 - 4).
        pencil = uniform_pencil(1, a0=3.0)
        root = ReducedWord.identity(1)
        entries = resolvent_entries(pencil, 0.0, [root])
        assert entries[root][0, 0].real == pytest.approx(-1 / math.sqrt(5), abs=1e-7)

    def test_accepts_shift_above_asymmetric_spectrum(self):
        pencil = random_selfadjoint_pencil(np.random.default_rng(4013), 1, 3)
        lo, hi = ball_spectrum_bounds(pencil, 12)
        mu = hi + 0.3
        # The top edge sits far closer to 0 than the bottom one, so mu is
        # below every norm estimate and yet above the spectrum.
        assert mu < astar_norm_lower(pencil, 12) < -lo
        root = ReducedWord.identity(1)
        got = resolvent_entries(pencil, mu, [root])[root]
        ball = build_tree_ball(pencil, 60)
        dense = np.linalg.inv(mu * np.eye(ball.dimension) - ball.matrix)[:3, :3]
        np.testing.assert_allclose(got, dense, atol=1e-9)
        np.testing.assert_allclose(got, reference_resolvent(pencil, mu, [root])[root],
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("mu", [3.3, 3.45, -3.3])
    def test_shift_inside_the_spectrum_refused_at_once(self, mu):
        # 2 sqrt(3) ~ 3.464 is the norm of the uniform two-generator pencil.
        start = time.perf_counter()
        with pytest.raises(ValueError, match="inside the spectrum"):
            resolvent_entries(uniform_pencil(2), mu, [ReducedWord.identity(2)])
        assert time.perf_counter() - start < 0.05

    def test_zero_operator(self):
        pencil = uniform_pencil(1, weight=0.0)
        root = ReducedWord.identity(1)
        entries = resolvent_entries(pencil, 1.0, [root])
        assert entries[root][0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_free_group_values_and_symmetry(self):
        pencil = uniform_pencil(2)
        root = ReducedWord.identity(2)
        neighbors = [ReducedWord(2, (color,)) for color in range(4)]
        entries = resolvent_entries(pencil, 4.0, [root] + neighbors)
        assert entries[root][0, 0].real == pytest.approx(3 / 8, abs=1e-7)
        values = [entries[w][0, 0].real for w in neighbors]
        for value in values:
            assert value == pytest.approx(1 / 8, abs=1e-7)
        assert max(values) - min(values) < 1e-9

    def test_inside_hull_rejected(self):
        with pytest.raises(ValueError, match="inside the spectrum"):
            resolvent_entries(uniform_pencil(1), 1.5, [ReducedWord.identity(1)])

    def test_long_target_rejected(self):
        with pytest.raises(ValueError):
            resolvent_entries(uniform_pencil(2), 4.0, [ReducedWord(2, (0, 1))])

    def test_requires_selfadjoint(self):
        skew = MatrixPencil.from_scalars(1, 0.0, [1.0, 2.0])
        with pytest.raises(ValueError):
            resolvent_entries(skew, 4.0, [ReducedWord.identity(1)])


class TestHatWeights:
    def test_zero_weights(self):
        pencil = uniform_pencil(1, weight=0.0)
        for hat in hat_weights(pencil, 1.0):
            assert np.allclose(hat, 0.0)

    def test_integer_line_fixed_point(self):
        hats = hat_weights(uniform_pencil(1), 3.0)
        expected = (3 - math.sqrt(5)) / 2
        for hat in hats:
            assert hat[0, 0].real == pytest.approx(expected, abs=1e-7)

    def test_free_group_uniform_value(self):
        hats = hat_weights(uniform_pencil(2), 4.0)
        values = [hat[0, 0].real for hat in hats]
        for value in values:
            assert value == pytest.approx(1 / 3, abs=1e-7)
            assert 0 < value <= 1 / 3 + 1e-9

    def test_outside_hull_weights_contract(self):
        rng = np.random.default_rng(20260816)
        for d, r in ((1, 2), (2, 1), (2, 3)):
            pencil = random_selfadjoint_pencil(rng, d, r)
            lo, hi = ball_spectrum_bounds(pencil, 12, tol=1e-7)
            mu = 1.05 * max(abs(lo), abs(hi)) + 0.1
            hats = hat_weights(pencil, mu)
            hat_pencil = MatrixPencil(
                d=d, coeff_dim=r, a0=np.zeros((r, r)), a=hats
            )
            assert rho_k(hat_pencil, 10) < 1.0, (d, r)


class TestStackedSweepMatchesReference:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 2),
        r=st.integers(1, 3),
        depth=st.integers(0, 8),
        place=st.sampled_from(["above", "below", "inside"]),
        frac=st.floats(-0.95, 0.95),
    )
    def test_agrees_and_refuses_alike(self, seed, d, r, depth, place, frac):
        pencil = random_selfadjoint_pencil(np.random.default_rng(seed), d, r)
        lo, hi = reference_ball_bounds(pencil, depth)
        assert_same_outcome(ball_spectrum_bounds(pencil, depth), (lo, hi))
        scale = pencil.coefficient_scale
        mu = {
            "above": scale + 0.1 + abs(frac),
            "below": -(scale + 0.1 + abs(frac)),
            "inside": (lo + hi) / 2 + frac * (hi - lo) / 2,
        }[place]
        got = _schur_recursion(pencil, mu, depth)
        want = reference_schur(pencil, mu, depth)
        assert_same_outcome(
            None if got is None else (got[0], *([] if got[1] is None else got[1])),
            None if want is None else (want[0], *want[1]),
        )
        words = [ReducedWord.identity(d)] + [ReducedWord(d, (c,)) for c in range(2 * d)]
        got = outcome(lambda: resolvent_entries(pencil, mu, words))
        want = outcome(lambda: reference_resolvent(pencil, mu, words))
        assert_same_outcome(
            None if got is None else [got[w] for w in words],
            None if want is None else [want[w] for w in words],
        )
        assert_same_outcome(
            outcome(lambda: hat_weights(pencil, mu)),
            outcome(lambda: reference_hat(pencil, mu)),
        )
