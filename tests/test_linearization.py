"""Tests for square-root pencils and the norm recursion on group polynomials."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from haarmoments import linearization
from haarmoments.freegroup import MatrixPencil, ReducedWord, ball_spectrum_bounds, enumerate_ball
from haarmoments.haarmodel import model_rng, sample_haar_unitary
from haarmoments.symcore import CapacityError
from haarmoments.linearization import (
    GroupPolynomial,
    SymmetricSupport,
    _product_table,
    adjoint_product,
    as_matrix_pencil,
    evaluate_with_unitaries,
    norm_from_shifts,
    poly_norm,
    selfadjoint_embed,
    sqrt_identity_residual,
    sqrt_pencil,
    symmetric_ball,
    word_concat,
    word_inverse,
)


def word(d, *letters):
    return ReducedWord(d, tuple(letters))


def scalar_poly(d, entries):
    """Build a polynomial with 1x1 coefficients from a {letters: value} map."""
    coeffs = {word(d, *ls): np.array([[v]], dtype=complex) for ls, v in entries.items()}
    return GroupPolynomial(d, coeffs)


def sharp_oracle(pencil):
    lo, hi = ball_spectrum_bounds(pencil, 300)
    return max(abs(lo), abs(hi))


def random_selfadjoint_poly(d, words, size, rng):
    """Random self-adjoint polynomial supported on ``words`` and their inverses."""
    coeffs = {}
    for w in words:
        block = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        inverse = word_inverse(w)
        if inverse == w:
            block = (block + block.conj().T) / 2.0
            coeffs[w] = coeffs.get(w, 0) + block
        else:
            coeffs[w] = coeffs.get(w, 0) + block
            coeffs[inverse] = coeffs.get(inverse, 0) + block.conj().T
    return GroupPolynomial(d, coeffs)


class TestWordHelpers:
    def test_inverse_reverses_and_stars(self):
        assert word_inverse(word(2, 0, 1)) == word(2, 3, 2)

    def test_inverse_of_identity(self):
        assert word_inverse(word(2)) == word(2)

    def test_inverse_is_involution(self):
        w = word(3, 0, 4, 2, 1)
        assert word_inverse(word_inverse(w)) == w

    def test_concat_reduces_cancellation(self):
        g = word(2, 0)
        assert word_concat(g, word_inverse(g)) == word(2)
        assert word_concat(word(2, 0, 1), word(2, 3, 0)) == word(2, 0, 0)

    def test_concat_is_associative(self):
        u, v, w = word(2, 0, 1), word(2, 3, 2), word(2, 1, 1)
        assert word_concat(word_concat(u, v), w) == word_concat(u, word_concat(v, w))


@st.composite
def _word_sets(draw):
    """A generator count, an inverse-closed word set and an arbitrary one."""
    d = draw(st.integers(1, 3))
    ball = enumerate_ball(d, draw(st.integers(0, 3)))
    picked = draw(st.lists(st.sampled_from(ball), max_size=12, unique=True))
    closed = tuple(dict.fromkeys(w for g in picked for w in (g, word_inverse(g))))
    loose = draw(st.lists(st.sampled_from(ball), min_size=1, max_size=12, unique=True))
    return d, closed, tuple(loose)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=_word_sets())
def test_product_table_matches_word_concat(case):
    d, closed, loose = case
    SymmetricSupport(closed)
    for words in (closed, loose):
        position, index = _product_table(words)
        products = [ReducedWord(d, letters) for letters in position]
        assert index.shape == (len(words), len(words))
        pairs = Counter()
        for i, g in enumerate(words):
            for j, h in enumerate(words):
                expected = word_concat(word_inverse(g), h)
                assert products[index[i, j]] == expected
                pairs[expected] += 1
        multiplicity = np.bincount(index.ravel(), minlength=len(products))
        assert dict(zip(products, multiplicity.tolist())) == pairs


class TestGroupPolynomial:
    def test_mismatched_coefficient_shapes_rejected(self):
        coeffs = {word(1): np.eye(2), word(1, 0): np.eye(3)}
        with pytest.raises(ValueError, match="shape"):
            GroupPolynomial(1, coeffs)

    def test_word_rank_must_match(self):
        with pytest.raises(ValueError, match="generator count"):
            GroupPolynomial(2, {word(1, 0): np.eye(2)})

    def test_support_drops_zero_blocks_and_sorts(self):
        poly = scalar_poly(2, {(0,): 1.0, (): 0.0, (1,): 2.0})
        assert poly.support == (word(2, 0), word(2, 1))
        assert poly.degree == 1

    def test_support_cache_leaves_equality_hash_and_repr_alone(self):
        poly = scalar_poly(2, {(0,): 1.0, (1,): 0.0, (0, 0): 2.0})
        assert poly.support is poly.support
        assert poly.support == (word(2, 0), word(2, 0, 0))
        assert poly.degree == 2
        assert poly == GroupPolynomial(2, dict(poly.coefficients))
        assert poly != GroupPolynomial(2, {word(2, 0): poly.coefficients[word(2, 0)]})
        assert repr(poly) == f"GroupPolynomial(d=2, coefficients={poly.coefficients!r})"
        with pytest.raises(TypeError, match="unhashable"):
            hash(poly)

    def test_coefficient_defaults_to_zeros(self):
        poly = scalar_poly(1, {(0,): 1.0})
        assert np.array_equal(poly.coefficient(word(1)), np.zeros((1, 1)))

    def test_is_selfadjoint(self):
        assert scalar_poly(1, {(0,): 2.0, (1,): 2.0}).is_selfadjoint
        assert not scalar_poly(1, {(0,): 2.0}).is_selfadjoint
        rectangular = GroupPolynomial(1, {word(1): np.ones((1, 2))})
        assert not rectangular.is_selfadjoint

    def test_scaled(self):
        poly = scalar_poly(1, {(0,): 1.5})
        assert poly.scaled(-2.0).coefficient(word(1, 0))[0, 0] == -3.0


class TestSymmetricSupport:
    def test_ball_is_symmetric_and_sized(self):
        ball = symmetric_ball(2, 1)
        assert len(ball) == 5
        ball2 = symmetric_ball(2, 2)
        assert len(ball2) == 1 + 4 + 4 * 3

    def test_rejects_asymmetric_set(self):
        with pytest.raises(ValueError, match="inverse"):
            SymmetricSupport((word(2), word(2, 0)))

    def test_rejects_duplicates(self):
        g = word(1, 0)
        with pytest.raises(ValueError, match="distinct"):
            SymmetricSupport((g, word_inverse(g), g, word_inverse(g)))


class TestEvaluateWithUnitaries:
    def test_identity_word_gives_kron_with_identity(self):
        block = np.array([[1.0, 2.0], [3.0, 4.0]])
        poly = GroupPolynomial(1, {word(1): block})
        out = evaluate_with_unitaries(poly, [np.eye(3)])
        assert np.allclose(out, np.kron(block, np.eye(3)))

    def test_letters_multiply_left_to_right(self):
        rng = model_rng(3)
        u = [sample_haar_unitary(3, rng) for _ in range(2)]
        poly = scalar_poly(2, {(0, 1): 1.0, (2,): 1.0})
        out = evaluate_with_unitaries(poly, u)
        expected = u[0] @ u[1] + u[0].conj().T
        assert np.allclose(out, expected, atol=1e-12)

    def test_wrong_unitary_count_rejected(self):
        poly = scalar_poly(2, {(0,): 1.0})
        with pytest.raises(ValueError, match="unitary per generator"):
            evaluate_with_unitaries(poly, [np.eye(2)])

    def test_dense_budget_boundary(self, stub_step):
        poly = scalar_poly(1, {(0,): 1.0})
        built = stub_step(np, "zeros")
        for n, reached in ((4096, built), (4097, CapacityError)):
            with pytest.raises(reached):
                evaluate_with_unitaries(poly, [np.broadcast_to(0j, (n, n))])


class TestSelfadjointEmbed:
    def test_result_is_selfadjoint(self):
        poly = GroupPolynomial(1, {word(1, 0): np.ones((1, 2))})
        assert selfadjoint_embed(poly).is_selfadjoint

    def test_scalar_constant_doubles_into_offdiagonal(self):
        embedded = selfadjoint_embed(scalar_poly(1, {(): 2.0}))
        assert np.array_equal(
            embedded.coefficient(word(1)), np.array([[0.0, 2.0], [2.0, 0.0]])
        )

    def test_embedding_preserves_evaluated_norm(self):
        rng = model_rng(11)
        u = [sample_haar_unitary(4, rng) for _ in range(2)]
        coeffs = {
            word(2, 0, 1): rng.standard_normal((2, 3)),
            word(2, 2): rng.standard_normal((2, 3)),
        }
        poly = GroupPolynomial(2, coeffs)
        direct = np.linalg.norm(evaluate_with_unitaries(poly, u), 2)
        embedded = np.linalg.norm(evaluate_with_unitaries(selfadjoint_embed(poly), u), 2)
        assert embedded == pytest.approx(direct, abs=1e-12)


class TestNormFromShifts:
    def test_recovers_extreme_eigenvalues(self):
        assert norm_from_shifts({10.0: 13.0, -10.0: 11.0}) == pytest.approx(3.0)
        assert norm_from_shifts({10.0: 12.0, -10.0: 15.0}) == pytest.approx(5.0)

    def test_zero_operator(self):
        assert norm_from_shifts({10.0: 10.0, -10.0: 10.0}) == pytest.approx(0.0)

    def test_requires_matched_pair(self):
        with pytest.raises(ValueError, match="pair"):
            norm_from_shifts({10.0: 13.0, -9.0: 11.0})

    def test_rejects_lipschitz_violation(self):
        with pytest.raises(ValueError, match="Lipschitz"):
            norm_from_shifts({0.0: 0.0, 1.0: 5.0, -1.0: 0.5})


class TestSqrtPencil:
    def test_dense_budget_boundary(self, stub_step):
        poly = GroupPolynomial(2, {word(2): np.eye(2)})
        built = stub_step(linearization, "_product_table")
        # Degree 12 at r = 2: the radius-6 ball's 1457 words give 2914^2
        # entries, within budget; the radius-7 ball is refused as it is listed.
        with pytest.raises(built):
            sqrt_pencil(poly, symmetric_ball(2, 6))
        with pytest.raises(CapacityError, match="a ball of 4373 words"):
            symmetric_ball(2, 7)
        # On the line at r = 2, 2047 words fill 4094 rows and 2049 words 4098.
        line = GroupPolynomial(1, {word(1): np.eye(2)})
        with pytest.raises(built):
            sqrt_pencil(line, symmetric_ball(1, 1023))
        with pytest.raises(CapacityError, match="divided coefficient matrix"):
            sqrt_pencil(line, symmetric_ball(1, 1024))

    def test_trivial_polynomial_on_identity_support(self):
        poly = scalar_poly(1, {(): 0.0})
        result = sqrt_pencil(poly, SymmetricSupport((word(1),)))
        assert result.shift == pytest.approx(1.0)
        assert result.effective_shift == pytest.approx(1.0)
        assert np.allclose(result.pencil.coefficient(word(1)), np.eye(1))
        assert sqrt_identity_residual(result, poly) == pytest.approx(0.0, abs=1e-14)

    def test_adjacency_polynomial_on_line(self):
        poly = scalar_poly(1, {(0,): 1.0, (1,): 1.0})
        result = sqrt_pencil(poly, symmetric_ball(1, 1))
        assert result.shift == pytest.approx(1.1 * math.sqrt(0.5) + 1.0)
        assert result.effective_shift == pytest.approx(3 * result.shift)
        assert sqrt_identity_residual(result, poly) < 1e-8
        assert result.pencil.coeff_shape == (3, 1)

    def test_matrix_coefficients(self):
        rng = np.random.default_rng(5)
        poly = random_selfadjoint_poly(1, [word(1), word(1, 0)], 2, rng)
        result = sqrt_pencil(poly, symmetric_ball(1, 1))
        assert sqrt_identity_residual(result, poly) < 1e-8

    def test_residual_small_on_random_instances(self):
        rng = np.random.default_rng(77)
        supports = [symmetric_ball(1, 1), symmetric_ball(2, 1), symmetric_ball(1, 2)]
        for trial in range(50):
            support = supports[trial % len(supports)]
            d = support.words[0].d if support.words else 1
            product_words = {
                word_concat(word_inverse(g), h) for g in support.words for h in support.words
            }
            depth = max(len(w.letters) for w in support.words)
            chosen = rng.choice(len(support.words), size=2, replace=False)
            sampled = [support.words[int(i)] for i in chosen]
            sampled += [w for w in product_words if len(w.letters) == 2 * depth][:1]
            size = int(rng.integers(1, 4))
            poly = random_selfadjoint_poly(d, sampled, size, rng)
            result = sqrt_pencil(poly, support)
            assert sqrt_identity_residual(result, poly) < 1e-8

    def test_support_too_small_rejected(self):
        poly = scalar_poly(1, {(0, 0, 0): 1.0, (1, 1, 1): 1.0})
        with pytest.raises(ValueError, match="outside the product set"):
            sqrt_pencil(poly, symmetric_ball(1, 1))

    def test_empty_polynomial_rejected(self):
        with pytest.raises(ValueError, match="at least one coefficient"):
            sqrt_pencil(GroupPolynomial(1, {}), symmetric_ball(1, 1))

    def test_non_selfadjoint_rejected(self):
        with pytest.raises(ValueError, match="self-adjoint"):
            sqrt_pencil(scalar_poly(1, {(0,): 1.0}), symmetric_ball(1, 1))

    def test_insufficient_shift_rejected(self):
        poly = scalar_poly(1, {(0,): 1.0, (1,): 1.0})
        with pytest.raises(ValueError, match="not positive"):
            sqrt_pencil(poly, symmetric_ball(1, 1), shift=-5.0)


def reference_sqrt_pencil(poly, support, shift=None):
    """Shift and pencil columns with the divided matrix filled pair by pair."""
    pairs = [
        (i, j, word_concat(word_inverse(g), h))
        for i, g in enumerate(support.words)
        for j, h in enumerate(support.words)
    ]
    multiplicity = Counter(w for _, _, w in pairs)
    r = poly.coeff_shape[0]
    size = len(support)
    divided = np.zeros((size * r, size * r), dtype=complex)
    for i, j, w in pairs:
        coeff = poly.coefficients.get(w)
        if coeff is not None and np.any(coeff):
            divided[i * r:(i + 1) * r, j * r:(j + 1) * r] += coeff / multiplicity[w]
    if shift is None:
        shift = 1.1 * float(np.linalg.norm(divided, 2)) + 1.0
    shifted = divided + shift * np.eye(size * r)
    eigenvalues, vectors = np.linalg.eigh((shifted + shifted.conj().T) / 2)
    root = (vectors * np.sqrt(np.clip(eigenvalues, 0.0, None))) @ vectors.conj().T
    return shift, [root[:, i * r:(i + 1) * r] for i in range(size)]


class TestSqrtPencilAssembly:
    @pytest.mark.parametrize("d,radius,size", [(1, 1, 1), (2, 1, 2), (1, 2, 3), (2, 2, 2)])
    def test_matches_pair_loop_bit_for_bit(self, d, radius, size):
        rng = np.random.default_rng(100 + 10 * d + radius)
        support = symmetric_ball(d, radius)
        ball = enumerate_ball(d, 2 * radius)
        chosen = rng.choice(len(ball), size=4, replace=False)
        poly = random_selfadjoint_poly(d, [ball[int(k)] for k in chosen], size, rng)
        # Diagonal blocks leave zero entries, which the negation turns into -0.0.
        diagonal = np.diag(rng.standard_normal(size)).astype(complex)
        poly = GroupPolynomial(d, {
            **poly.coefficients,
            word(d, 0): poly.coefficient(word(d, 0)) + diagonal,
            word(d, d): poly.coefficient(word(d, d)) + diagonal,
        })
        plus = sqrt_pencil(poly, support)
        cases = ((poly, None), (poly.scaled(-1.0), None), (poly.scaled(-1.0), plus.shift))
        for target, shift in cases:
            result = sqrt_pencil(target, support, shift=shift)
            expected_shift, columns = reference_sqrt_pencil(target, support, shift)
            assert np.array_equal(result.shift, expected_shift)
            for w, column in zip(support.words, columns):
                assert np.array_equal(result.pencil.coefficients[w], column)

    def test_empty_and_foreign_supports_rejected(self):
        poly = scalar_poly(1, {(): 1.0})
        for support in (SymmetricSupport(()), symmetric_ball(2, 1)):
            with pytest.raises(ValueError, match="outside the product set"):
                sqrt_pencil(poly, support)


def pairwise_adjoint_product(poly):
    products = {}
    for g, a in poly.coefficients.items():
        for h, b in poly.coefficients.items():
            w = word_concat(word_inverse(g), h)
            products[w] = products.get(w, 0) + a.conj().T @ b
    return products


def table_view(d, position, stack):
    """The product table of ``adjoint_product`` as a ``{word: block}`` dict."""
    return {ReducedWord(d, letters): stack[row] for letters, row in position.items()}


class TestAdjointProduct:
    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (3, 2), (2, 3)])
    def test_matches_pairwise_products(self, shape):
        rng = np.random.default_rng(sum(shape))
        ball = enumerate_ball(2, 2)
        chosen = [ball[int(k)] for k in rng.choice(len(ball), size=7, replace=False)]
        coeffs = {
            w: rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for w in chosen
        }
        coeffs[chosen[0]] = np.zeros(shape)
        poly = GroupPolynomial(2, coeffs)
        position, stack = adjoint_product(poly)
        assert sorted(position.values()) == list(range(len(stack)))
        expansion = table_view(2, position, stack)
        reference = pairwise_adjoint_product(poly)
        assert set(expansion) == set(reference)
        scale = max(float(np.abs(m).max()) for m in reference.values())
        for w, m in reference.items():
            assert expansion[w].shape == (shape[1], shape[1])
            assert np.abs(expansion[w] - m).max() <= 1e-12 * scale

    def test_empty_polynomial(self):
        position, stack = adjoint_product(GroupPolynomial(2, {}))
        assert position == {}
        assert stack.shape == (0, 0, 0)

    def test_single_word_gives_identity(self):
        poly = GroupPolynomial(1, {word(1, 0): np.array([[2.0]])})
        position, stack = adjoint_product(poly)
        assert position == {(): 0}
        assert stack[0, 0, 0] == pytest.approx(4.0)

    def test_matches_evaluated_product(self):
        rng = model_rng(23)
        u = [sample_haar_unitary(4, rng) for _ in range(2)]
        poly = random_selfadjoint_poly(2, [word(2, 0), word(2, 1, 0)], 2, np.random.default_rng(3))
        product = GroupPolynomial(2, table_view(2, *adjoint_product(poly)))
        lhs = evaluate_with_unitaries(product, u)
        mat = evaluate_with_unitaries(poly, u)
        assert np.allclose(lhs, mat.conj().T @ mat, atol=1e-10)


def reference_residual(result, poly):
    """The residual word by word, over a dict view of the product table."""
    expansion = GroupPolynomial(poly.d, table_view(poly.d, *adjoint_product(result.pencil)))
    identity = ReducedWord.identity(poly.d)
    words = set(expansion.support) | set(poly.support) | {identity}
    residual = 0.0
    for w in words:
        target = poly.coefficient(w).astype(complex)
        if w == identity:
            target = target + result.effective_shift * np.eye(poly.coeff_shape[0])
        gap = np.abs(expansion.coefficient(w) - target)
        if gap.size:
            residual = max(residual, float(gap.max()))
    return residual


@st.composite
def _residual_cases(draw):
    """A square-root pencil and a target that zeroes, drops and adds words.

    A dropped word leaves its product row unnamed by the target, and the
    added word lies outside the table: every product of the radius-R
    ball has length at most 2R.
    """
    d = draw(st.integers(1, 2))
    radius = draw(st.integers(0, 2))
    size = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ball = enumerate_ball(d, 2 * radius)
    picked = draw(st.lists(st.sampled_from(ball), min_size=1, max_size=4, unique=True))
    poly = random_selfadjoint_poly(d, picked, size, rng)
    result = sqrt_pencil(poly, symmetric_ball(d, radius))
    coeffs = dict(poly.coefficients)
    for dropped in draw(st.lists(st.sampled_from(ball), max_size=2)):
        coeffs.pop(dropped, None)
    if draw(st.booleans()):
        coeffs.pop(word(d), None)
    coeffs[draw(st.sampled_from(ball))] = np.zeros((size, size))
    if draw(st.booleans()):
        coeffs[word(d, *[0] * (2 * radius + 1))] = rng.standard_normal((size, size)) + 0j
    return result, GroupPolynomial(d, coeffs)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=_residual_cases())
def test_residual_matches_word_loop_bit_for_bit(case):
    result, poly = case
    residual = sqrt_identity_residual(result, poly)
    assert type(residual) is float
    assert residual == reference_residual(result, poly)


class TestAsMatrixPencil:
    def test_roundtrip_fields(self):
        poly = scalar_poly(2, {(): 0.5, (0,): 1.0, (3,): 2.0})
        pencil = as_matrix_pencil(poly)
        assert pencil.d == 2
        assert pencil.a0[0, 0] == pytest.approx(0.5)
        assert pencil.a[0][0, 0] == pytest.approx(1.0)
        assert pencil.a[3][0, 0] == pytest.approx(2.0)

    def test_degree_two_rejected(self):
        with pytest.raises(ValueError, match="degree"):
            as_matrix_pencil(scalar_poly(1, {(0, 0): 1.0}))

    def test_rectangular_rejected(self):
        poly = GroupPolynomial(1, {word(1, 0): np.ones((1, 2))})
        with pytest.raises(ValueError, match="square"):
            as_matrix_pencil(poly)


class TestPolyNorm:
    def test_empty_polynomial(self):
        assert poly_norm(GroupPolynomial(1, {})) == 0.0

    def test_constant_is_exact(self):
        assert poly_norm(scalar_poly(1, {(): -2.5})) == 2.5
        diag = GroupPolynomial(1, {word(1): np.diag([1.0, -4.0]).astype(complex)})
        assert poly_norm(diag) == 4.0

    def test_linear_selfadjoint_defers_to_oracle(self):
        poly = scalar_poly(2, {(0,): 1.0, (2,): 1.0, (1,): 0.5, (3,): 0.5})
        direct = sharp_oracle(as_matrix_pencil(poly))
        assert poly_norm(poly, oracle=sharp_oracle) == direct

    def test_single_generator_plus_inverse(self):
        value = poly_norm(scalar_poly(1, {(0,): 1.0, (1,): 1.0}))
        assert value == pytest.approx(1.9869744685836324, abs=1e-9)
        assert abs(value - 2.0) < 0.05

    def test_free_generator_sum(self):
        poly = scalar_poly(2, {(0,): 1.0, (1,): 1.0, (2,): 1.0, (3,): 1.0})
        value = poly_norm(poly)
        assert value == pytest.approx(3.411641469881806, abs=1e-9)
        assert abs(value - 2 * math.sqrt(3)) < 0.1

    def test_degree_two_through_recursion(self):
        poly = scalar_poly(1, {(0, 0): 1.0, (1, 1): 1.0})
        value = poly_norm(poly, oracle=sharp_oracle)
        assert abs(value - 2.0) < 5e-3

    def test_rectangular_degree_two_matches_circle_supremum(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((1, 2))
        b = rng.standard_normal((1, 2))
        poly = GroupPolynomial(1, {word(1, 0, 0): a, word(1, 0): b})
        thetas = np.linspace(0.0, 2.0 * np.pi, 4001)
        supremum = max(
            np.linalg.norm(a * np.exp(2j * t) + b * np.exp(1j * t), 2) for t in thetas
        )
        assert poly_norm(poly, oracle=sharp_oracle) == pytest.approx(supremum, abs=1e-3)

    def test_homogeneity_through_recursion(self):
        base = scalar_poly(1, {(0, 0): 1.0, (1, 1): 1.0})
        reference = poly_norm(base, oracle=sharp_oracle)
        for alpha in (2.0, -3.0):
            scaled = poly_norm(base.scaled(alpha), oracle=sharp_oracle)
            assert scaled == pytest.approx(abs(alpha) * reference, abs=1e-6)

    def test_homogeneity_linear_is_exact(self):
        base = scalar_poly(1, {(0,): 1.0, (1,): 1.0})
        assert poly_norm(base.scaled(2.0)) == pytest.approx(2.0 * poly_norm(base), abs=1e-12)
