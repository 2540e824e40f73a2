"""Non-backtracking assembly, companion mapping, and spectral radii."""

import numpy as np
import pytest

from haarmoments import nonbacktracking
from haarmoments.freegroup import MatrixPencil
from haarmoments.nonbacktracking import (
    CompanionOperator,
    NBOperator,
    build_b_mu,
    build_companion,
    build_nb,
    power_norm,
    spectral_radius,
    verify_spectral_mapping,
)
from haarmoments.symcore import MAX_DENSE_ENTRIES, CapacityError


def haar_unitary(rng, n):
    ginibre = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    q, r = np.linalg.qr(ginibre / np.sqrt(2))
    phases = np.diag(r)
    return q @ np.diag(phases / np.abs(phases))


def haar_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def tensor_weights(rng, d, r, n):
    """Weights ``a_i (x) V_i`` with unitary images and random coefficients."""
    coeffs = [
        rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
        for _ in range(2 * d)
    ]
    unitaries = [haar_unitary(rng, n) for _ in range(d)]
    images = unitaries + [u.conj().T for u in unitaries]
    return [np.kron(a, v) for a, v in zip(coeffs, images)], coeffs, images


def spectra_match(first, second, tol):
    if len(first) != len(second):
        return False
    return all(np.min(np.abs(second - value)) < tol for value in first)


class TestBuildNb:
    def test_zero_weights(self):
        op = build_nb([np.zeros((2, 2))] * 4)
        assert isinstance(op, NBOperator)
        assert op.dimension == 8
        assert np.count_nonzero(op.matrix) == 0

    def test_dense_budget_boundary(self, stub_step):
        built = stub_step(np, "zeros")
        # l scalar weights give an l x l operator: 4096 fill the budget.
        assert 4096**2 == MAX_DENSE_ENTRIES
        with pytest.raises(built):
            build_nb([np.ones((1, 1))] * 4096)
        with pytest.raises(CapacityError, match="non-backtracking operator"):
            build_nb([np.ones((1, 1))] * 4098)

    def test_two_color_pattern(self):
        op = build_nb([1.0, 1.0])
        assert np.allclose(op.matrix, np.eye(2))
        eigenvalues = sorted(np.linalg.eigvals(op.matrix).real)
        assert eigenvalues == pytest.approx([1.0, 1.0])

    def test_block_pattern_and_sides(self):
        weights = [np.array([[w]]) for w in (1.0, 2.0, 3.0, 4.0)]
        right = build_nb(weights, side="right")
        left = build_nb(weights, side="left")
        assert np.count_nonzero(right.matrix) == 12
        assert right.matrix[0, 1] == 2.0
        assert right.matrix[1, 0] == 1.0
        assert left.matrix[0, 1] == 1.0
        assert left.matrix[1, 0] == 2.0
        assert right.matrix[0, 2] == 0.0
        assert left.matrix[1, 3] == 0.0

    @pytest.mark.parametrize("side", ["right", "left"])
    def test_matrix_blocks_follow_the_rule(self, side):
        rng = np.random.default_rng(5)
        weights = [rng.standard_normal((2, 4)).view(complex) for _ in range(6)]
        matrix = build_nb(weights, side=side).matrix
        for i in range(6):
            for j in range(6):
                block = matrix[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
                if j == (i + 3) % 6:
                    assert not block.any()
                else:
                    assert np.array_equal(block, weights[j if side == "right" else i])

    def test_conjugate_sides_share_spectrum(self):
        rng = np.random.default_rng(1)
        weights = [
            rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            + 3 * np.eye(3)
            for _ in range(4)
        ]
        right = np.linalg.eigvals(build_nb(weights, side="right").matrix)
        left = np.linalg.eigvals(build_nb(weights, side="left").matrix)
        assert spectra_match(right, left, 1e-7)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_nb([np.zeros((2, 2)), np.zeros((3, 3))])
        with pytest.raises(ValueError):
            build_nb([np.zeros((2, 2))] * 3)
        with pytest.raises(ValueError):
            build_nb([np.zeros((2, 3))] * 2)
        with pytest.raises(ValueError):
            build_nb([1.0, 1.0], side="middle")


class TestBuildCompanion:
    def test_zero_weights(self):
        companion = build_companion([np.zeros((2, 2))] * 4, 1.0)
        assert isinstance(companion, CompanionOperator)
        assert np.allclose(companion.matrix, -np.eye(2))
        assert companion.min_singular_value == pytest.approx(1.0)

    def test_scalar_hand_value(self):
        companion = build_companion([1.0, 1.0], 2.0)
        assert companion.matrix[0, 0] == pytest.approx(-1 / 3)

    def test_near_singular_rejected(self):
        with pytest.raises(ValueError, match="color"):
            build_companion([1.0, 1.0], 1.0)
        with pytest.raises(ValueError):
            build_companion([np.zeros((2, 2))] * 4, 0.0)

    def test_zero_tolerance_skips_the_pivot_svd(self, monkeypatch):
        rng = np.random.default_rng(11)
        weights, _, _ = tensor_weights(rng, d=2, r=2, n=2)
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        build_companion(weights, 3.0 + 0.5j, tol=0.0)
        assert calls == []
        build_companion(weights, 3.0 + 0.5j)
        assert len(calls) == len(weights)

    def test_zero_tolerance_matrix_is_unchanged(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            weights, _, _ = tensor_weights(rng, d=1 + seed % 2, r=1 + seed % 3, n=2)
            lam = complex(*rng.standard_normal(2) * 3)
            checked = build_companion(weights, lam, tol=1e-9).matrix
            assert np.array_equal(build_companion(weights, lam, tol=0.0).matrix, checked)

    def test_exactly_singular_pivot_at_zero_tolerance(self):
        with pytest.raises(np.linalg.LinAlgError):
            build_companion([np.zeros((2, 2))] * 4, 0.0, tol=0.0)

    def test_tensor_structure(self):
        rng = np.random.default_rng(5)
        weights, coeffs, images = tensor_weights(rng, d=2, r=2, n=3)
        lam = 7.5 + 0.3j
        companion = build_companion(weights, lam)
        r, n = 2, 3
        expected = -np.eye(r * n, dtype=complex)
        for i in range(4):
            i_star = (i + 2) % 4
            inverse = np.linalg.inv(lam**2 * np.eye(r) - coeffs[i_star] @ coeffs[i])
            expected -= np.kron(coeffs[i] @ inverse @ coeffs[i_star], np.eye(n))
            expected += np.kron(lam * coeffs[i] @ inverse, images[i])
        assert np.allclose(companion.matrix, expected, atol=1e-10)


class TestSpectralRadius:
    def test_zero_operator(self):
        op = build_nb([np.zeros((2, 2))] * 4)
        assert spectral_radius(op) == 0.0
        assert power_norm(op, 3) == 0.0

    def test_scalar_pattern_radius(self):
        op = build_nb([1.0] * 4)
        assert spectral_radius(op) == pytest.approx(3.0, abs=1e-9)

    def test_power_norm_dominates_radius(self):
        rng = np.random.default_rng(2)
        weights = [rng.standard_normal((2, 2)) for _ in range(4)]
        op = build_nb(weights)
        radius = spectral_radius(op)
        for ell in (1, 4, 8):
            assert power_norm(op, ell) >= radius - 1e-9

    def test_conjugation_invariance(self):
        rng = np.random.default_rng(4)
        weights = [
            rng.standard_normal((2, 2)) + 2 * np.eye(2) for _ in range(4)
        ]
        right = spectral_radius(build_nb(weights, side="right"))
        left = spectral_radius(build_nb(weights, side="left"))
        assert right == pytest.approx(left, abs=1e-8)

    def test_doubled_operator_recovers_norm(self):
        rng = np.random.default_rng(8)
        weights = [
            rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            for _ in range(4)
        ]
        op = build_nb(weights)
        dim = op.dimension
        doubled = np.zeros((2 * dim, 2 * dim), dtype=complex)
        doubled[:dim, dim:] = op.matrix
        doubled[dim:, :dim] = op.matrix.conj().T
        top = float(np.linalg.eigvalsh(doubled)[-1])
        assert top == pytest.approx(float(np.linalg.norm(op.matrix, 2)), abs=1e-10)


class TestVerifySpectralMapping:
    def test_zero_weights_report(self):
        report = verify_spectral_mapping([0.0, 0.0])
        assert report.all_pass
        assert report.eigenvalues_checked == 0
        assert report.eigenvalues_skipped == 2
        assert report.grid_points > 0

    def test_random_instances(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            d = 1 + seed % 2
            r = 1 + seed % 3
            n = 2 + seed % 4
            weights, _, _ = tensor_weights(rng, d=d, r=r, n=n)
            report = verify_spectral_mapping(weights)
            assert report.all_pass, seed
            assert report.eigenvalues_checked > 0, seed

    def test_left_variant_agrees(self):
        rng = np.random.default_rng(12)
        weights = [
            rng.standard_normal((2, 2)) + 2 * np.eye(2) for _ in range(4)
        ]
        right = verify_spectral_mapping(weights, side="right")
        left = verify_spectral_mapping(weights, side="left")
        assert right.all_pass and left.all_pass

    def test_one_eigensolve_per_excluded_product(self, monkeypatch):
        # One for sigma(B), one per product b_{i*} b_i; none per point checked.
        calls = []
        eigvals = np.linalg.eigvals

        def counting(matrix):
            calls.append(matrix.shape)
            return eigvals(matrix)

        monkeypatch.setattr(np.linalg, "eigvals", counting)
        rng = np.random.default_rng(4)
        weights = [rng.standard_normal((2, 2)) for _ in range(4)]
        report = verify_spectral_mapping(weights)
        assert report.eigenvalues_checked + report.grid_points > 0
        assert len(calls) == len(weights) + 1

    def test_dimension_cap(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the operator was built before the cap check")

        monkeypatch.setattr(nonbacktracking, "build_nb", refuse)
        with pytest.raises(CapacityError):
            verify_spectral_mapping([np.zeros((751, 751))] * 4)
        with pytest.raises(CapacityError):
            verify_spectral_mapping([np.ones((1, 1))] * 3002)


class TestBuildBMu:
    def test_dense_budget_boundary(self, stub_step):
        pencil = MatrixPencil.from_scalars(1, 0.0, [1.0, 1.0])
        built = stub_step(nonbacktracking, "hat_weights")
        # Two colors of r x n blocks, r = 1: n = 2048 fills the budget.
        for n, reached in ((2048, built), (2049, CapacityError)):
            with pytest.raises(reached):
                build_b_mu(pencil, 3.0, [np.broadcast_to(0j, (n, n))] * 2)

    def test_zero_pencil(self):
        pencil = MatrixPencil.from_scalars(1, 0.0, [0.0, 0.0])
        reps = [np.eye(2), np.eye(2)]
        op = build_b_mu(pencil, 1.0, reps)
        assert np.count_nonzero(op.matrix) == 0
        eigenvalues = np.linalg.eigvals(op.matrix)
        assert np.min(np.abs(eigenvalues - 1)) > 0.5

    def test_contracting_above_norm(self):
        pencil = MatrixPencil.from_scalars(2, 0.0, [1.0] * 4)
        rng = np.random.default_rng(2)
        u1, u2 = haar_unitary(rng, 3), haar_unitary(rng, 3)
        reps = [u1, u2, u1.conj().T, u2.conj().T]
        model = sum(reps)
        mu = float(np.linalg.norm(model, 2)) + 0.5
        op = build_b_mu(pencil, mu, reps)
        eigenvalues = np.linalg.eigvals(op.matrix)
        assert float(np.max(np.abs(eigenvalues))) < 1.0

    def test_determinant_sign_flips_across_eigenvalue(self):
        pencil = MatrixPencil.from_scalars(2, 0.0, [1.0] * 4)
        rng = np.random.default_rng(6)
        o1, o2 = haar_orthogonal(rng, 3), haar_orthogonal(rng, 3)
        reps = [o1, o2, o1.T, o2.T]
        model = o1 + o1.T + o2 + o2.T
        top = float(np.linalg.eigvalsh(model)[-1])
        determinants = []
        for mu in (top - 0.12, top + 0.12):
            op = build_b_mu(pencil, mu, reps)
            eigenvalues = np.linalg.eigvals(op.matrix)
            assert float(np.min(np.abs(eigenvalues - 1))) > 1e-6
            det = np.linalg.det(np.eye(op.dimension) - op.matrix)
            assert abs(det.imag) < 1e-9
            determinants.append(det.real)
        assert determinants[0] * determinants[1] < 0

    def test_rep_count_validated(self):
        pencil = MatrixPencil.from_scalars(2, 0.0, [1.0] * 4)
        with pytest.raises(ValueError):
            build_b_mu(pencil, 4.0, [np.eye(2)] * 3)
