"""End-to-end acceptance checks, one test per shipped guarantee.

The suite mixes exact rational identities, bound verification on
exhaustive small grids, and seeded statistical runs at desk scale.
Each test prints a single pass/fail line under ``pytest -v``; seeds
and tolerances are pinned so reruns are reproducible.
"""

import itertools
import math
import statistics
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from haarmoments.centered_wg import (
    BracketMomentSpec,
    bracket_expansion,
    centered_moment,
    centered_moment_orth,
)
from haarmoments.freegroup import (
    MatrixPencil,
    ReducedWord,
    ball_spectrum_bounds,
    hat_weights,
    resolvent_entries,
    rho_k,
)
from haarmoments.haarmodel import (
    ModelConfig,
    astar_norm_estimate,
    bracket_nb_operator,
    build_instance,
    freeness_experiment,
    model_rng,
)
from haarmoments.linearization import (
    GroupPolynomial,
    poly_norm,
    sqrt_identity_residual,
    sqrt_pencil,
    symmetric_ball,
    word_concat,
    word_inverse,
)
from haarmoments.nonbacktracking import spectral_radius, verify_spectral_mapping
from haarmoments.symcore import (
    BAR,
    DOT,
    EpsilonSequence,
    Permutation,
    SetPartition,
    all_permutations,
    cycle_count,
    cycle_type,
)
from haarmoments.weingarten import (
    UnsupportedRegimeError,
    catalan,
    check_hurwitz_bounds,
    haar_moment,
    hurwitz_count,
    orth_moment,
    wg_exact,
    wg_series,
)
from haarmoments.wick import WG2_CONSTANT, check_cor_wg2, check_warmup, check_with_brackets

FREE_NORM = 2 * math.sqrt(3)


def uniform_pencil(d):
    """Scalar pencil with weight one on every generator and its inverse."""
    return MatrixPencil.from_scalars(d, 0.0, tuple(1.0 for _ in range(2 * d)))


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


def balanced_epsilons(k):
    return [
        EpsilonSequence(signs)
        for signs in itertools.product((DOT, BAR), repeat=k)
        if EpsilonSequence(signs).is_balanced()
    ]


def index_tuples(k):
    return list(itertools.product((1, 2), repeat=k))


def equal_block_partitions(k, q):
    """All partitions of ``{1..k}`` into blocks of size exactly ``q``."""
    if k == 0:
        return [()]
    out = []
    rest = list(range(2, k + 1))
    for tail in itertools.combinations(rest, q - 1):
        block = frozenset((1,) + tail)
        remaining = [v for v in rest if v not in tail]
        inverse = {i + 1: v for i, v in enumerate(remaining)}
        for sub in equal_block_partitions(len(remaining), q):
            mapped = tuple(frozenset(inverse[e] for e in b) for b in sub)
            out.append((block,) + mapped)
    return out


def random_selfadjoint_poly(d, words, size, rng):
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


def test_01_gram_inverse_relation_is_exact():
    """sum_tau n^cycles(sigma tau^-1) Wg(tau) = [sigma = id], k <= 4, n in k..8."""
    start = time.perf_counter()
    for k in range(1, 5):
        perms = all_permutations(k)
        identity = Permutation.identity(k)
        for n in range(k, 9):
            table = wg_exact(k, n)
            for sigma in perms:
                total = sum(
                    Fraction(n) ** cycle_count(sigma.compose(tau.invert()))
                    * table.value(tau)
                    for tau in perms
                )
                assert total == (1 if sigma == identity else 0)
    assert time.perf_counter() - start < 10.0


def test_02_known_entry_moments_exact_and_monte_carlo():
    """Three closed-form entry moments for n in 2..8, then a seeded
    million-sample Monte Carlo at n=4 within four standard errors."""
    start = time.perf_counter()
    for n in range(2, 9):
        assert haar_moment((1, 1), (1, 1), (1, 1), (1, 1), n) == Fraction(2, n * (n + 1))
        assert haar_moment((1, 2), (1, 2), (1, 2), (1, 2), n) == Fraction(1, n * n - 1)
        assert haar_moment((1, 1), (1, 2), (1, 1), (1, 2), n) == Fraction(1, n * (n + 1))

    n = 4
    exact = {
        "m4": float(Fraction(2, n * (n + 1))),
        "diag": float(Fraction(1, n * n - 1)),
        "row": float(Fraction(1, n * (n + 1))),
    }
    chunk, chunks = 50_000, 20
    total = chunk * chunks
    sums = {key: 0.0 for key in exact}
    squares = {key: 0.0 for key in exact}
    rng = model_rng(0)
    for _ in range(chunks):
        ginibre = rng.standard_normal((chunk, n, n)) + 1j * rng.standard_normal(
            (chunk, n, n)
        )
        q, r = np.linalg.qr(ginibre / np.sqrt(2))
        phases = np.diagonal(r, axis1=1, axis2=2)
        u = q * (phases / np.abs(phases))[:, None, :]
        samples = {
            "m4": np.abs(u[:, 0, 0]) ** 4,
            "diag": np.abs(u[:, 0, 0]) ** 2 * np.abs(u[:, 1, 1]) ** 2,
            "row": np.abs(u[:, 0, 0]) ** 2 * np.abs(u[:, 0, 1]) ** 2,
        }
        for key, values in samples.items():
            sums[key] += float(values.sum())
            squares[key] += float((values**2).sum())
    for key, target in exact.items():
        mean = sums[key] / total
        variance = squares[key] / total - mean**2
        stderr = math.sqrt(variance / total)
        assert abs(mean - target) <= 4 * stderr
    assert time.perf_counter() - start < 120.0


def test_03_minimal_factorization_counts_and_growth_bounds():
    """Minimal factorization counts are products of Catalan numbers for
    k <= 6; the per-level growth bounds hold for k <= 5, g <= 3."""
    start = time.perf_counter()
    for k in range(1, 7):
        for sigma in all_permutations(k):
            expected = math.prod(catalan(m - 1) for m in cycle_type(sigma))
            assert hurwitz_count(sigma, 0) == expected
    for k in range(1, 6):
        for g in range(4):
            report = check_hurwitz_bounds(k, g)
            assert report.checked > 0
            assert report.all_pass
    assert time.perf_counter() - start < 60.0


def test_04_series_truncations_match_exact_values_within_tail():
    """Truncated expansions agree with exact Weingarten values inside the
    reported geometric tail; cells outside the convergence regime refuse
    to evaluate, and the nearest in-regime dimensions stand in for them."""
    for n in (12, 16):
        for k in (1, 2):
            table = wg_exact(k, n)
            for sigma in all_permutations(k):
                for g in range(7):
                    estimate = wg_series(sigma, n, g)
                    assert abs(estimate.value - table.value(sigma)) <= estimate.tail
        for k in (3, 4):
            for sigma in all_permutations(k):
                with pytest.raises(UnsupportedRegimeError):
                    wg_series(sigma, n, 6)
    for k, n in ((3, 17), (4, 28)):
        table = wg_exact(k, n)
        for sigma in all_permutations(k):
            for g in range(7):
                estimate = wg_series(sigma, n, g)
                assert abs(estimate.value - table.value(sigma)) <= estimate.tail


def test_05_centered_moments_match_bracket_expansions():
    """Matching-sum centered moments equal inclusion-exclusion expansions
    for every partition of four, balanced signs, indices in {1,2}, n in 4..8."""
    start = time.perf_counter()
    partitions = list(all_set_partitions(4))
    epsilons = balanced_epsilons(4)
    indices = index_tuples(4)
    for n in range(4, 9):
        for pi in partitions:
            for eps in epsilons:
                for x in indices:
                    for y in indices:
                        spec = BracketMomentSpec(pi=pi, eps=eps, x=x, y=y)
                        assert centered_moment(spec, n) == bracket_expansion(spec, n)
    assert time.perf_counter() - start < 120.0


def test_06_gaussian_comparison_checks_pass_exhaustively():
    """Warmup and bracketed comparisons hold on their full grids at
    n in {16, 32}, and the exact side vanishes on every non-even case."""
    for n in (16, 32):
        for k in (2, 4):
            indices = index_tuples(k)
            for signs in itertools.product((DOT, BAR), repeat=k):
                eps = EpsilonSequence(signs)
                for x in indices:
                    for y in indices:
                        report = check_warmup(x, y, eps, n)
                        assert not report.skipped
                        assert report.passes
                        assert report.vanishing_ok
                        if not report.even:
                            assert report.lhs_exact == 0
            for pi in all_set_partitions(k):
                for eps in balanced_epsilons(k):
                    for x in indices:
                        for y in indices:
                            spec = BracketMomentSpec(pi=pi, eps=eps, x=x, y=y)
                            report = check_with_brackets(spec, n)
                            assert not report.skipped
                            assert report.passes
                            assert report.vanishing_ok
                            if not report.even:
                                assert report.lhs_exact == 0


def test_07_single_constant_bounds_all_equal_block_shapes():
    """The centered-moment bound holds with the one constant c = 8 across
    every equal-block shape with k = qT <= 6 and q in {1, 2}, each at the
    smallest dimension inside the k^(4(q+1)) <= n regime.  The largest
    shape keeps the full partition and sign grids but pins y = x."""
    assert WG2_CONSTANT == 8.0
    grid = [
        (1, 2, "full"),
        (1, 4, "full"),
        (1, 6, "full"),
        (2, 2, "full"),
        (2, 4, "full"),
        (2, 6, "diagonal"),
    ]
    for q, k, mode in grid:
        n = k ** (4 * (q + 1))
        partitions = [SetPartition(p) for p in equal_block_partitions(k, q)]
        indices = index_tuples(k)
        for pi in partitions:
            for eps in balanced_epsilons(k):
                for x in indices:
                    ys = [x] if mode == "diagonal" else indices
                    for y in ys:
                        spec = BracketMomentSpec(pi=pi, eps=eps, x=x, y=y)
                        report = check_cor_wg2(spec, n)
                        assert not report.skipped
                        assert report.passes


def test_08_eigenvalue_companion_mapping_round_trip():
    """Thirty random weight families, both operator sides: every spectrum
    point lands on a near-kernel of the companion, and a separated grid
    scan reports no spurious detections."""
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    for _ in range(30):
        ell = int(rng.choice([2, 4]))
        r = int(rng.integers(1, 4))
        weights = [
            rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
            for _ in range(ell)
        ]
        for side in ("right", "left"):
            report = verify_spectral_mapping(weights, side)
            assert report.all_pass
    assert time.perf_counter() - start < 120.0


def test_09_growth_rate_closed_form_for_uniform_weights():
    """rho_k equals sqrt(2d - 1) to 1e-12 for d in {1,2,3} and k <= 12."""
    for d in (1, 2, 3):
        pencil = uniform_pencil(d)
        target = math.sqrt(2 * d - 1)
        for k in range(1, 13):
            assert abs(rho_k(pencil, k) - target) <= 1e-12


def test_10_tree_norm_and_lattice_resolvent_values():
    """The radius-20 ball compression of the uniform two-generator pencil
    reaches within 0.15 of 2 sqrt(3), and the integer-lattice resolvent at
    mu = 3 returns 1/sqrt(5) to 1e-6."""
    _, top = ball_spectrum_bounds(uniform_pencil(2), 20)
    assert 0 <= FREE_NORM - top <= 0.15

    line = uniform_pencil(1)
    root = ReducedWord(d=1, letters=())
    entries = resolvent_entries(line, 3.0, [root])
    value = complex(entries[root][0, 0])
    assert abs(value - 1 / math.sqrt(5)) <= 1e-6


def test_11_hat_weight_contraction_below_threshold():
    """Twenty random self-adjoint pencils (d <= 2, coefficients up to 3x3):
    the hat-weight pencil taken just above the norm estimate contracts,
    rho_10 < 1."""
    rng = np.random.default_rng(0)
    for _ in range(20):
        d = int(rng.integers(1, 3))
        r = int(rng.integers(1, 4))
        raw = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
        a0 = (raw + raw.conj().T) / 2.0
        front = [
            rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
            for _ in range(d)
        ]
        family = tuple(front) + tuple(m.conj().T for m in front)
        pencil = MatrixPencil(d=d, coeff_dim=r, a0=a0, a=family)
        mu = 1.05 * astar_norm_estimate(pencil) + 0.1
        hat = hat_weights(pencil, mu)
        hat_pencil = MatrixPencil(
            d=d, coeff_dim=r, a0=np.zeros((r, r), dtype=complex), a=hat
        )
        assert rho_k(hat_pencil, 10) < 1.0


@pytest.mark.slow
def test_12_restricted_norms_approach_free_value():
    """Median deviation of restricted norms from 2 sqrt(3), five seeded
    trials per dimension: decreasing in n for one tensor leg (and below
    0.25 at n=400) and decreasing for one leg on each side."""
    start = time.perf_counter()
    pencil = uniform_pencil(2)

    def medians(dims, q_minus, q_plus):
        configs = [
            ModelConfig(
                n=n, d=2, q_minus=q_minus, q_plus=q_plus,
                coeff_dim=1, pencil=pencil, seed=0,
            )
            for n in dims
        ]
        table = freeness_experiment(configs, trials=5)
        grouped = {}
        for row in table.rows:
            grouped.setdefault(row.n, []).append(abs(row.restricted_norm - FREE_NORM))
        return [statistics.median(grouped[n]) for n in dims]

    one_sided = medians((100, 200, 400), 0, 1)
    assert one_sided[0] > one_sided[1] > one_sided[2]
    assert one_sided[2] < 0.25

    two_sided = medians((20, 30, 40), 1, 1)
    assert two_sided[0] > two_sided[1] > two_sided[2]
    assert time.perf_counter() - start < 900.0


@pytest.mark.slow
def test_13_power_norm_bound_at_desk_scale():
    """Ten seeded trials at n=100: the spectral radius of the bracket
    non-backtracking operator, lim ||B^l||^(1/l), should clear the tree
    growth rate sqrt(3) + 0.25 in at least nine of ten.

    The theorem bounds the spectral radius, not a fixed power norm: the
    free limit's own ||B_*^12||^(1/12) already exceeds sqrt(3) + 0.25, so a
    fixed-power target fails more often as n grows.
    """
    pencil = uniform_pencil(2)
    cfg = ModelConfig(
        n=100, d=2, q_minus=0, q_plus=1, coeff_dim=1, pencil=pencil, seed=0,
    )
    bound = rho_k(pencil, 10) + 0.25
    radii = [
        spectral_radius(bracket_nb_operator(build_instance(replace(cfg, seed=0 ^ trial))))
        for trial in range(10)
    ]
    assert sum(radius > bound for radius in radii) / len(radii) <= 0.1


def test_14_square_root_residuals_and_generator_norm():
    """Fifty random square-root pencils reproduce their shifted targets to
    1e-8, and the norm of one generator plus its inverse lands at 2 within
    0.05."""
    rng = np.random.default_rng(0)
    supports = [symmetric_ball(1, 1), symmetric_ball(2, 1), symmetric_ball(1, 2)]
    for trial in range(50):
        support = supports[trial % len(supports)]
        d = support.words[0].d
        product_words = {
            word_concat(word_inverse(g), h)
            for g in support.words
            for h in support.words
        }
        depth = max(len(w.letters) for w in support.words)
        chosen = rng.choice(len(support.words), size=2, replace=False)
        sampled = [support.words[int(i)] for i in chosen]
        sampled += [w for w in product_words if len(w.letters) == 2 * depth][:1]
        size = int(rng.integers(1, 4))
        poly = random_selfadjoint_poly(d, sampled, size, rng)
        result = sqrt_pencil(poly, support)
        assert sqrt_identity_residual(result, poly) <= 1e-8

    generator = GroupPolynomial(
        1, {ReducedWord(1, (0,)): [[1.0]], ReducedWord(1, (1,)): [[1.0]]}
    )
    assert abs(poly_norm(generator) - 2.0) <= 0.05


def test_15_orthogonal_moments_and_centered_reconstruction():
    """Closed-form fourth moments of orthogonal entries, odd vanishing,
    single brackets centering to zero, and the bracket-to-plain
    reconstruction identity over every partition of four at n = 4."""
    for n in range(4, 9):
        assert orth_moment((1, 1, 1, 1), (1, 1, 1, 1), n) == Fraction(3, n * (n + 2))
        assert orth_moment((1, 1, 2, 2), (1, 1, 2, 2), n) == Fraction(
            n + 1, n * (n - 1) * (n + 2)
        )
    assert orth_moment((1, 1, 1, 1), (1, 1, 1, 1), 4) == Fraction(3, 24)
    assert orth_moment((1, 1, 2, 2), (1, 1, 2, 2), 4) == Fraction(5, 72)
    assert orth_moment((1, 1, 1), (1, 1, 1), 4) == 0

    n = 4
    indices = index_tuples(4)
    single = SetPartition((frozenset({1, 2, 3, 4}),))
    for x in indices:
        for y in indices:
            assert centered_moment_orth(single, x, y, n) == 0

    def restricted(values, positions):
        return tuple(values[p - 1] for p in positions)

    for pi in all_set_partitions(4):
        blocks = pi.blocks
        spots = range(len(blocks))
        for x in indices:
            for y in indices:
                plain = orth_moment(x, y, n)
                recon = Fraction(0)
                for size in range(len(blocks) + 1):
                    for subset in itertools.combinations(spots, size):
                        positions = sorted(
                            itertools.chain.from_iterable(blocks[t] for t in subset)
                        )
                        if len(positions) % 2:
                            # Odd-degree brackets vanish: every expansion
                            # term carries an odd plain factor.
                            continue
                        if positions:
                            relabel = {p: i + 1 for i, p in enumerate(positions)}
                            sub_pi = SetPartition(
                                tuple(
                                    frozenset(relabel[e] for e in blocks[t])
                                    for t in subset
                                )
                            )
                            term = centered_moment_orth(
                                sub_pi,
                                restricted(x, positions),
                                restricted(y, positions),
                                n,
                            )
                        else:
                            term = Fraction(1)
                        if term == 0:
                            continue
                        for t in spots:
                            if t not in subset:
                                spots_t = sorted(blocks[t])
                                term *= orth_moment(
                                    restricted(x, spots_t), restricted(y, spots_t), n
                                )
                        recon += term
                assert recon == plain
