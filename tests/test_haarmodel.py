"""Haar sampling, tensor model assembly, restricted norms, experiments."""

import math
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from haarmoments import haarmodel
from haarmoments.freegroup import MatrixPencil, astar_norm_lower
from haarmoments.haarmodel import (
    ModelConfig,
    PowerIterationError,
    TensorModelInstance,
    astar_norm_estimate,
    bracket_nb_operator,
    build_instance,
    build_projector,
    freeness_experiment,
    model_rng,
    nb_norm_check,
    restricted_norm,
    sample_haar_unitary,
)
from haarmoments.symcore import MAX_DENSE_ENTRIES, CapacityError
from haarmoments.weingarten import UnsupportedRegimeError, haar_moment, haar_moment_signed
from haarmoments.symcore import BAR, DOT, EpsilonSequence


def scalar_pencil(d, a0, weights):
    return MatrixPencil.from_scalars(d, a0, weights)


def free_pencil(d=2):
    return scalar_pencil(d, 0.0, [1.0] * (2 * d))


def config(n, d=2, q_minus=0, q_plus=1, pencil=None, seed=20260816, r=1):
    if pencil is None:
        pencil = free_pencil(d)
    return ModelConfig(
        n=n, d=d, q_minus=q_minus, q_plus=q_plus,
        coeff_dim=r, pencil=pencil, seed=seed,
    )


def kron_images(inst):
    """The tensor images ``V_i`` and their adjoints, formed by ``np.kron``."""
    cfg = inst.config
    images = [
        reduce(np.kron, [u.conj()] * cfg.q_minus + [u] * cfg.q_plus)
        for u in inst.unitaries
    ]
    return images + [image.conj().T for image in images]


def kron_matrix(inst):
    """The model operator formed densely, independently of the apply methods."""
    cfg = inst.config
    matrix = np.kron(cfg.pencil.a0, np.eye(cfg.tensor_dimension))
    for coeff, image in zip(cfg.pencil.a, kron_images(inst)):
        matrix = matrix + np.kron(coeff, image)
    return matrix


def kron_restricted(inst):
    """The dense model compressed to the complement of the invariant part."""
    cfg = inst.config
    projector = build_projector(cfg.n, cfg.q_minus, cfg.q_plus)
    complement = np.eye(cfg.total_dimension) - np.kron(np.eye(cfg.coeff_dim), projector)
    return complement @ kron_matrix(inst) @ complement


def applied_matrix(apply, dimension):
    """A matrix-free operator materialized column by column."""
    return np.column_stack([apply(e) for e in np.eye(dimension, dtype=complex)])


class TestSampleHaarUnitary:
    def test_unitary_to_tolerance(self):
        rng = model_rng(11)
        for n in (1, 2, 5, 9):
            u = sample_haar_unitary(n, rng)
            assert np.abs(u.conj().T @ u - np.eye(n)).max() < 1e-12

    def test_dimension_one_is_a_phase(self):
        rng = model_rng(3)
        u = sample_haar_unitary(1, rng)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_same_seed_same_matrix(self):
        first = sample_haar_unitary(6, model_rng(44))
        second = sample_haar_unitary(6, model_rng(44))
        assert np.array_equal(first, second)

    def test_rejects_empty_dimension(self):
        with pytest.raises(ValueError):
            sample_haar_unitary(0, model_rng(1))

    @pytest.mark.slow
    def test_trace_moments(self):
        rng = model_rng(202608)
        n, samples = 4, 100_000
        traces = np.empty(samples, dtype=complex)
        for i in range(samples):
            traces[i] = np.trace(sample_haar_unitary(n, rng))
        mean = traces.mean()
        se = traces.std() / np.sqrt(samples)
        assert abs(mean) < 4 * se
        squares = np.abs(traces) ** 2
        se2 = squares.std() / np.sqrt(samples)
        assert abs(squares.mean() - 1.0) < 4 * se2

    @pytest.mark.slow
    def test_left_translation_invariance(self):
        rng = model_rng(55)
        n, samples = 3, 40_000
        fixed = sample_haar_unitary(n, rng)
        entries = np.empty(samples, dtype=complex)
        for i in range(samples):
            entries[i] = (fixed @ sample_haar_unitary(n, rng))[0, 0]
        se = entries.std() / np.sqrt(samples)
        assert abs(entries.mean()) < 4 * se
        squares = np.abs(entries) ** 2
        se2 = squares.std() / np.sqrt(samples)
        assert abs(squares.mean() - 1 / n) < 4 * se2

    @pytest.mark.slow
    def test_entry_monomials_match_weingarten(self):
        rng = model_rng(77)
        n, samples = 5, 150_000
        monomials = {
            "k1": ((1,), (1,), (1,), (1,)),
            "k2_diag": ((1, 2), (1, 2), (1, 2), (1, 2)),
            "k2_row": ((1, 1), (1, 2), (1, 1), (1, 2)),
            "k3": ((1, 2, 3), (1, 2, 3), (1, 2, 3), (1, 2, 3)),
        }
        values = {name: np.empty(samples, dtype=complex) for name in monomials}
        for i in range(samples):
            u = sample_haar_unitary(n, rng)
            for name, (x, y, x2, y2) in monomials.items():
                term = 1.0 + 0j
                for a, b in zip(x, y):
                    term *= u[a - 1, b - 1]
                for a, b in zip(x2, y2):
                    term *= np.conj(u[a - 1, b - 1])
                values[name][i] = term
        for name, (x, y, x2, y2) in monomials.items():
            exact = float(haar_moment(x, y, x2, y2, n))
            sampled = values[name]
            se = sampled.std() / np.sqrt(samples)
            assert abs(sampled.mean() - exact) < 4 * se


class TestBuildProjector:
    def test_unbalanced_is_zero(self):
        projector = build_projector(4, 0, 1)
        assert projector.shape == (4, 4)
        assert np.count_nonzero(projector) == 0

    def test_balanced_rank_one_form(self):
        n = 5
        projector = build_projector(n, 1, 1)
        omega = np.eye(n).reshape(-1) / np.sqrt(n)
        assert np.abs(projector - np.outer(omega, omega)).max() < 1e-14
        assert abs(projector.trace() - 1.0) < 1e-12

    def test_exact_idempotence_small(self):
        projector = build_projector(3, 1, 1)
        assert np.abs(projector @ projector - projector).max() == 0.0

    def test_entries_are_signed_moments(self):
        n = 2
        eps = EpsilonSequence((BAR, DOT))
        projector = build_projector(n, 1, 1)
        for row in range(n * n):
            for col in range(n * n):
                x = (row // n + 1, row % n + 1)
                y = (col // n + 1, col % n + 1)
                exact = haar_moment_signed(x, y, eps, n)
                assert projector[row, col] == float(exact)

    def test_two_leg_balanced_projector(self):
        projector = build_projector(3, 2, 2)
        assert np.abs(projector - projector.conj().T).max() < 1e-12
        assert np.abs(projector @ projector - projector).max() < 1e-12

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            build_projector(70, 1, 1)

    @pytest.mark.parametrize("n, q_minus, q_plus", [(64, 1, 1), (16, 1, 2), (4096, 0, 1)])
    def test_dense_budget_boundary(self, stub_step, n, q_minus, q_plus):
        built = stub_step(haarmodel, "_projector_factors")
        # n^q = 4096 fills the budget of 4096^2 entries; n + 1 does not fit.
        with pytest.raises(built):
            build_projector(n, q_minus, q_plus)
        with pytest.raises(CapacityError, match="dense projector"):
            build_projector(n + 1, q_minus, q_plus)

    def test_regime_guard(self):
        with pytest.raises(UnsupportedRegimeError):
            build_projector(1, 2, 2)


class TestModelConfig:
    def test_properties(self):
        cfg = config(5, q_minus=1, q_plus=1)
        assert cfg.q == 2
        assert cfg.tensor_dimension == 25
        assert cfg.total_dimension == 25

    def test_rejects_zero_legs(self):
        with pytest.raises(ValueError):
            config(4, q_minus=0, q_plus=0)

    def test_rejects_mismatched_pencil(self):
        with pytest.raises(ValueError):
            config(4, d=2, pencil=free_pencil(1))

    def test_rejects_oversized_model(self):
        with pytest.raises(CapacityError):
            config(2000, q_minus=1, q_plus=1)

    def test_haar_unitary_within_dense_budget(self):
        assert config(4096).n == 4096
        # 4097 passes MAX_MODEL_DIM; its unitary of 4097^2 entries does not fit.
        with pytest.raises(CapacityError, match="each Haar unitary"):
            config(4097)


class TestBuildInstance:
    def test_invariants_balanced(self):
        inst = build_instance(config(4, q_minus=1, q_plus=1, seed=5))
        images = kron_images(inst)
        for image in images:
            dim = image.shape[0]
            assert np.abs(image.conj().T @ image - np.eye(dim)).max() < 1e-12
        p = build_projector(4, 1, 1)
        assert np.abs(p - p.conj().T).max() < 1e-10
        assert np.abs(p @ p - p).max() < 1e-10
        brackets = bracket_nb_operator(inst).weights
        for image, bracket in zip(images, brackets):
            assert np.abs(p @ image - image @ p).max() < 1e-10
            assert np.array_equal(bracket, image - p)
        full = np.kron(np.eye(inst.config.coeff_dim), p)
        complement = np.eye(inst.config.total_dimension) - full
        matrix = applied_matrix(inst.apply_a, inst.config.total_dimension)
        assert np.abs(complement @ matrix @ full).max() < 1e-10
        assert np.abs(full @ matrix @ complement).max() < 1e-10

    def test_adjoint_images_paired(self):
        inst = build_instance(config(3, d=2, seed=9))
        brackets = bracket_nb_operator(inst).weights
        for i in range(2):
            assert np.array_equal(brackets[i + 2], brackets[i].conj().T)

    def test_spectrum_single_generator(self):
        pencil = scalar_pencil(1, 0.0, [1.0, 1.0])
        inst = build_instance(config(6, d=1, pencil=pencil, seed=11))
        matrix = applied_matrix(inst.apply_a, 6)
        sym = (matrix + matrix.conj().T) / 2
        assert np.abs(matrix - sym).max() < 1e-10
        eigenvalues = np.sort(np.linalg.eigvalsh(sym))
        angles = np.angle(np.linalg.eigvals(inst.unitaries[0]))
        assert np.abs(eigenvalues - np.sort(2 * np.cos(angles))).max() < 1e-10

    def test_zero_generators_leave_constant_block(self):
        pencil = MatrixPencil(
            d=1,
            coeff_dim=2,
            a0=np.diag([2.0, -1.0]).astype(complex),
            a=(np.zeros((2, 2)), np.zeros((2, 2))),
        )
        inst = build_instance(config(3, d=1, pencil=pencil, r=2, seed=2))
        expected = np.kron(pencil.a0, np.eye(3))
        assert np.abs(applied_matrix(inst.apply_a, 6) - expected).max() == 0.0

    def test_matrix_free_matches_dense(self):
        inst = build_instance(config(4, q_minus=1, q_plus=1, seed=5))
        rng = model_rng(123)
        vector = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        assert np.abs(kron_matrix(inst) @ vector - inst.apply_a(vector)).max() < 1e-12
        assert (
            np.abs(kron_restricted(inst) @ vector - inst.apply_restricted(vector)).max()
            < 1e-12
        )

    def test_matrix_free_adjoint_pairing(self):
        rng = np.random.default_rng(31)
        coeffs = [
            rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            for _ in range(4)
        ]
        a0 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        pencil = MatrixPencil(d=2, coeff_dim=2, a0=a0, a=tuple(coeffs))
        cfg = config(3, d=2, q_minus=1, q_plus=1, pencil=pencil, r=2, seed=8)
        inst = build_instance(cfg)
        dim = cfg.total_dimension
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        w = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        forward = np.vdot(w, inst.apply_a(v))
        backward = np.vdot(inst.apply_a_adjoint(w), v)
        assert abs(forward - backward) < 1e-10

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 4),
        legs=st.sampled_from([(0, 1), (1, 0), (0, 2), (2, 0), (1, 1)]),
        d=st.integers(1, 2),
        r=st.integers(1, 2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_apply_methods_match_kron_route(self, n, legs, d, r, seed):
        rng = np.random.default_rng(seed)

        def draw(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        pencil = MatrixPencil(
            d=d, coeff_dim=r, a0=draw(r, r), a=tuple(draw(r, r) for _ in range(2 * d))
        )
        cfg = config(n, d=d, q_minus=legs[0], q_plus=legs[1], pencil=pencil, r=r, seed=seed)
        inst = build_instance(cfg)
        matrix = kron_matrix(inst)
        vector = draw(cfg.total_dimension)
        assert np.abs(matrix @ vector - inst.apply_a(vector)).max() < 1e-12
        assert np.abs(matrix.conj().T @ vector - inst.apply_a_adjoint(vector)).max() < 1e-12
        assert (
            np.abs(kron_restricted(inst) @ vector - inst.apply_restricted(vector)).max()
            < 1e-12
        )

    def test_same_seed_reproduces_unitaries(self):
        cfg = config(5, seed=77)
        first = build_instance(cfg)
        second = build_instance(cfg)
        for u, v in zip(first.unitaries, second.unitaries):
            assert np.array_equal(u, v)


class TestRestrictedNorm:
    def test_constant_diagonal_block(self):
        pencil = MatrixPencil(
            d=1,
            coeff_dim=2,
            a0=np.diag([2.0, -1.0]).astype(complex),
            a=(np.zeros((2, 2)), np.zeros((2, 2))),
        )
        inst = build_instance(config(4, d=1, pencil=pencil, r=2, seed=3))
        assert restricted_norm(inst) == pytest.approx(2.0, abs=1e-6)

    def test_unbalanced_equals_plain_norm(self):
        inst = build_instance(config(8, seed=21))
        plain = np.linalg.norm(kron_matrix(inst), 2)
        assert restricted_norm(inst) == pytest.approx(plain, abs=1e-6)

    def test_never_exceeds_full_norm(self):
        inst = build_instance(config(5, q_minus=1, q_plus=1, seed=13))
        assert restricted_norm(inst) <= np.linalg.norm(kron_matrix(inst), 2) + 1e-8

    def test_matches_dense_eigensolve(self):
        inst = build_instance(config(5, q_minus=1, q_plus=1, seed=17))
        restricted = kron_restricted(inst)
        sym = (restricted + restricted.conj().T) / 2
        assert np.abs(restricted - sym).max() < 1e-10
        top = np.abs(np.linalg.eigvalsh(sym)).max()
        assert restricted_norm(inst) == pytest.approx(top, abs=1e-6)

    def test_zero_pencil_returns_zero(self):
        pencil = scalar_pencil(2, 0.0, [0.0] * 4)
        inst = build_instance(config(4, pencil=pencil, seed=1))
        assert restricted_norm(inst) == 0.0

    def test_near_degenerate_edges_of_uniform_pencil(self):
        """The top two singular values nearly coincide here; the value is
        the top |eigenvalue| of the dense restricted model."""
        inst = build_instance(config(40, q_minus=1, q_plus=1, seed=3513612260))
        assert abs(restricted_norm(inst) - 3.451483092490507) < 1e-9

    @pytest.mark.parametrize("n", [1, 2])
    def test_dimensions_below_lanczos_reach(self, n):
        pencil = scalar_pencil(1, 0.5, [1.0, 1.0])
        inst = build_instance(config(n, d=1, pencil=pencil))
        expected = np.linalg.norm(kron_matrix(inst), 2)
        assert restricted_norm(inst) == pytest.approx(expected, rel=1e-12)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 4),
        legs=st.sampled_from([(1, 1), (0, 1), (0, 2)]),
        d=st.integers(1, 2),
        r=st.integers(1, 3),
        selfadjoint=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_top_singular_value(self, n, legs, d, r, selfadjoint, seed):
        rng = np.random.default_rng(seed)

        def draw(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        a0 = draw(r, r)
        a = [draw(r, r) for _ in range(2 * d)]
        if selfadjoint:
            a0 = a0 + a0.conj().T
            a = a[:d] + [coeff.conj().T for coeff in a[:d]]
        pencil = MatrixPencil(d=d, coeff_dim=r, a0=a0, a=tuple(a))
        assert pencil.is_selfadjoint == selfadjoint
        cfg = config(n, d=d, q_minus=legs[0], q_plus=legs[1], pencil=pencil, r=r, seed=seed)
        inst = build_instance(cfg)
        top = np.linalg.svd(kron_restricted(inst), compute_uv=False)[0]
        assert top * (1 - 1e-12) <= restricted_norm(inst) <= top * (1 + 1e-12)

    def test_unmet_stopping_rule_raises_at_the_restart_cap(self, monkeypatch):
        """With a zero tolerance the residual rule cannot be met, so the
        solve runs ten restarts per dimension and gives up."""
        monkeypatch.setattr(haarmodel, "NORM_TOL", 0.0)
        inst = build_instance(config(25, seed=4))
        counted = []

        class Counting:
            config = inst.config

            def apply_restricted(self, vector):
                counted.append(1)
                return inst.apply_restricted(vector)

            def apply_restricted_adjoint(self, vector):
                return inst.apply_restricted_adjoint(vector)

        with pytest.raises(PowerIterationError, match="in 250 restarts"):
            restricted_norm(Counting())
        # The first cycle fills the 20-vector basis; each later one adds the
        # 10 vectors past the kept Ritz vectors.
        assert len(counted) == 20 + 249 * 10

    def test_kesten_value_small_scale(self):
        values = []
        for seed in range(3):
            inst = build_instance(config(150, seed=1000 + seed))
            values.append(restricted_norm(inst))
        kesten = 2 * np.sqrt(3)
        lower = astar_norm_lower(free_pencil(), 16)
        for value in values:
            assert value < 4.0 - 0.3
            assert abs(value - kesten) < 0.25
            assert value > lower - 0.01


class TestFreenessExperiment:
    def test_zero_pencil_deviation_identically_zero(self):
        pencil = scalar_pencil(2, 0.0, [0.0] * 4)
        table = freeness_experiment([config(6, pencil=pencil, seed=40)], trials=3)
        assert [row.deviation for row in table.rows] == [0.0, 0.0, 0.0]
        assert [row.restricted_norm for row in table.rows] == [0.0, 0.0, 0.0]

    def test_rows_sorted_and_seed_keyed(self):
        cfgs = [config(12, seed=64), config(6, seed=64)]
        table = freeness_experiment(cfgs, trials=2)
        assert [row.n for row in table.rows] == [6, 6, 12, 12]
        assert [row.trial for row in table.rows] == [0, 1, 0, 1]
        for row in table.rows:
            assert row.seed == 64 ^ row.trial
            assert row.deviation == abs(row.restricted_norm - row.astar_estimate)
            assert row.wall_time_ms >= 0.0
        medians = table.median_deviation_by_n()
        assert sorted(medians) == [6, 12]

    def test_estimate_column_matches_pencil_estimate(self):
        pencil = free_pencil()
        table = freeness_experiment([config(8, pencil=pencil, seed=5)], trials=1)
        assert table.rows[0].astar_estimate == astar_norm_estimate(pencil)

    def test_rejects_empty_trials(self):
        with pytest.raises(ValueError):
            freeness_experiment([config(4)], trials=0)

    @pytest.mark.slow
    def test_median_deviation_shrinks_plain_legs(self):
        cfgs = [config(n, seed=0) for n in (100, 200, 400)]
        medians = freeness_experiment(cfgs, trials=5).median_deviation_by_n()
        assert medians[100] > medians[200] > medians[400]
        assert medians[400] < 0.25

    @pytest.mark.slow
    def test_median_deviation_shrinks_balanced_legs(self):
        cfgs = [config(n, q_minus=1, q_plus=1, seed=0) for n in (20, 30, 40)]
        medians = freeness_experiment(cfgs, trials=5).median_deviation_by_n()
        assert medians[20] > medians[30] > medians[40]


class TestNBNormCheck:
    def test_zero_weights_never_exceed(self):
        pencil = scalar_pencil(2, 0.0, [0.0] * 4)
        table = nb_norm_check(config(5, pencil=pencil, seed=3), (4, 8), trials=2)
        assert table.rho_star == 0.0
        assert all(row.power_norm == 0.0 for row in table.rows)
        assert table.exceedance_by_ell() == {4: 0.0, 8: 0.0}

    def test_power_norms_non_increasing_under_doubling(self):
        table = nb_norm_check(config(30, seed=4), (6, 12, 24), trials=2)
        by_trial = {}
        for row in table.rows:
            by_trial.setdefault(row.trial, {})[row.ell] = row.power_norm
        for values in by_trial.values():
            assert values[6] >= values[12] - 1e-6
            assert values[12] >= values[24] - 1e-6

    def test_rho_star_is_tree_growth_rate(self):
        table = nb_norm_check(config(10, seed=2), (4,), trials=1)
        assert table.rho_star == pytest.approx(np.sqrt(3), abs=1e-9)

    def test_exceedance_accounting(self):
        table = nb_norm_check(config(20, seed=6), (6, 12), trials=3)
        recomputed = {}
        for row in table.rows:
            recomputed.setdefault(row.ell, []).append(row.power_norm)
        bound = table.rho_star + table.epsilon
        for ell, values in recomputed.items():
            expected = sum(v > bound for v in values) / len(values)
            assert table.exceedance_by_ell()[ell] == expected

    def test_capacity_guard(self, stub_step):
        # d = 2 and q = 1: the operator has dimension 4n, one past 4096 here.
        n = math.isqrt(MAX_DENSE_ENTRIES) // 4 + 1
        stub_step(haarmodel, "reduce")
        with pytest.raises(CapacityError):
            nb_norm_check(config(n, seed=1), (4,), trials=1)

    def test_bracket_operator_dense_budget_boundary(self, stub_step):
        built = stub_step(haarmodel, "reduce")

        def instance(n):
            return TensorModelInstance(config(n), (np.eye(1),) * 2, None, None)

        with pytest.raises(built):
            bracket_nb_operator(instance(1024))
        with pytest.raises(CapacityError, match="bracket non-backtracking operator"):
            bracket_nb_operator(instance(1025))

    def test_trial_seeds_recorded(self):
        table = nb_norm_check(config(12, seed=9), (4,), trials=3)
        assert [row.seed for row in table.rows] == [9 ^ 0, 9 ^ 1, 9 ^ 2]

    @pytest.mark.slow
    def test_exceedance_at_desk_scale(self):
        """Nine of ten trials should sit below the growth rate plus 0.25.

        At n=100 the twelfth power still carries most of the operator's
        non-normal transient, so this target is known to be out of reach
        there; the companion assertions record that doubling the power
        once already lands every trial below the same bound.
        """
        table = nb_norm_check(config(100, seed=0), (12, 24), trials=10)
        exceedance = table.exceedance_by_ell()
        assert exceedance[24] <= 0.1
        assert exceedance[12] <= 0.1
