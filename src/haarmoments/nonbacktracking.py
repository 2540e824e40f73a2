"""Finite non-backtracking operators and their companion characterization.

For an even family of weights ``b_0..b_{l-1}``, colors pair up under the
free-group involution ``i* = freegroup.star(i, l/2) = i + l/2 mod l``.
The non-backtracking operator places a weight block at color position
``(i, j)`` whenever ``j != i*`` (the tree recursions' ``branch_mask``): the
right variant uses the column weight ``b_j``, the left variant the row
weight ``b_i``.  A complex number lies in the spectrum exactly when the
companion operator ``A(lambda)`` is singular; this module assembles both,
computes spectral radii by a dense eigensolve, and verifies the mapping
numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .freegroup import MatrixPencil, branch_mask, hat_weights, star
from .symcore import CapacityError, require_dense

#: Dense eigensolve cap for the spectral mapping verification.
MAX_MAPPING_DIM = 3000
#: Near-singularity threshold for the companion's inverted blocks.
COMPANION_SINGULAR_TOL = 1e-9
#: ``verify_spectral_mapping``: a companion counts as singular below this
#: smallest singular value, and as invertible above it.
MAPPING_SINGULAR_TOL = 1e-6
#: ``verify_spectral_mapping``: grid points this close to sigma(B) are skipped.
MAPPING_SEPARATION = 1e-2
#: ``verify_spectral_mapping``: points whose square lies this close to the
#: excluded spectrum, where a pivot ``lambda^2 - b_{i*} b_i`` is singular,
#: are skipped.
MAPPING_EXCLUSION_MARGIN = 1e-3


def _coerce_weights(weights: Sequence) -> tuple[np.ndarray, ...]:
    family = []
    for i, weight in enumerate(weights):
        matrix = np.atleast_2d(np.asarray(weight, dtype=complex))
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"weight {i} is not square: shape {matrix.shape}")
        family.append(matrix)
    if len(family) < 2 or len(family) % 2 != 0:
        raise ValueError("need an even number of at least two weights")
    dim = family[0].shape[0]
    for i, matrix in enumerate(family):
        if matrix.shape[0] != dim:
            raise ValueError(
                f"weight {i} has dimension {matrix.shape[0]}, expected {dim}"
            )
    return tuple(family)


def mapping_family(weights: Sequence) -> tuple[np.ndarray, ...]:
    """The coerced family, refused above ``MAX_MAPPING_DIM`` before any dense eigensolve."""
    family = _coerce_weights(weights)
    if len(family) * family[0].shape[0] > MAX_MAPPING_DIM:
        raise CapacityError(f"dense spectrum capped at dimension {MAX_MAPPING_DIM}")
    return family


@dataclass(frozen=True, eq=False)
class NBOperator:
    """A realized non-backtracking operator with its weight family."""

    ell: int
    weights: tuple[np.ndarray, ...]
    side: str
    matrix: np.ndarray

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class CompanionOperator:
    """The operator ``A(lambda)`` whose kernel detects ``lambda`` in sigma(B)."""

    lam: complex
    matrix: np.ndarray

    @property
    def min_singular_value(self) -> float:
        return float(np.linalg.svd(self.matrix, compute_uv=False)[-1])


def build_nb(weights: Sequence, side: str = "right") -> NBOperator:
    """Assemble the color-major non-backtracking matrix.

    Block ``(i, j)`` holds ``b_j`` (right) or ``b_i`` (left) wherever
    ``branch_mask`` lets ``j`` follow ``i`` (``j != i*``), giving ``l(l-1)``
    nonzero blocks for nonzero weights.
    """
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    family = _coerce_weights(weights)
    ell = len(family)
    dim = family[0].shape[0]
    require_dense((ell * dim) ** 2, "the non-backtracking operator")
    stacked = np.stack(family)
    blocks = stacked.transpose(1, 0, 2)[None] if side == "right" else stacked[:, :, None]
    matrix = np.zeros((ell, dim, ell, dim), dtype=complex)
    np.copyto(matrix, blocks, where=branch_mask(ell // 2)[:ell, None, :, None])
    matrix = matrix.reshape(ell * dim, ell * dim)
    return NBOperator(ell=ell, weights=family, side=side, matrix=matrix)


def build_companion(
    weights: Sequence, lam: complex, tol: float = COMPANION_SINGULAR_TOL
) -> CompanionOperator:
    """Assemble ``A(lambda)`` from the displayed rational formulas.

    ``b_i(lambda) = lambda b_i (lambda^2 - b_{i*} b_i)^{-1}`` and
    ``b_0(lambda) = -1 - sum_i b_i (lambda^2 - b_{i*} b_i)^{-1} b_{i*}``;
    the companion is their sum.  A pivot ``lambda^2 - b_{i*} b_i`` whose
    smallest singular value is at most a positive ``tol`` raises
    ``ValueError``; with ``tol <= 0`` only an exactly singular pivot is
    refused, by ``np.linalg.inv``'s ``LinAlgError``.
    """
    family = _coerce_weights(weights)
    ell = len(family)
    dim = family[0].shape[0]
    eye = np.eye(dim)
    total = -eye.astype(complex)
    for i in range(ell):
        pivot = lam**2 * eye - family[star(i, ell // 2)] @ family[i]
        if tol > 0:
            smallest = float(np.linalg.svd(pivot, compute_uv=False)[-1])
            if smallest <= tol:
                raise ValueError(
                    f"lambda^2 - b_(i*) b_i is near-singular at color {i} "
                    f"(min singular value {smallest:.3e})"
                )
        inverse = np.linalg.inv(pivot)
        total = total - family[i] @ inverse @ family[star(i, ell // 2)]
        total = total + lam * family[i] @ inverse
    return CompanionOperator(lam=lam, matrix=total)


def power_norm(op: NBOperator, ell: int) -> float:
    """``||B^ell||^(1/ell)``, computed on a norm-rescaled power."""
    if ell < 1:
        raise ValueError("power must be positive")
    scale = float(np.linalg.norm(op.matrix, 2))
    if scale == 0.0:
        return 0.0
    powered = np.linalg.matrix_power(op.matrix / scale, ell)
    return scale * float(np.linalg.norm(powered, 2)) ** (1 / ell)


def spectral_radius(op: NBOperator) -> float:
    """Spectral radius ``max |lambda|`` over the dense eigenvalues of ``B``."""
    eigenvalues = np.linalg.eigvals(op.matrix)
    return float(np.max(np.abs(eigenvalues))) if eigenvalues.size else 0.0


@dataclass(frozen=True)
class SpectralMappingReport:
    """Outcome of the eigenvalue-kernel correspondence check."""

    dimension: int
    side: str
    eigenvalues_checked: int
    eigenvalues_skipped: int
    forward_failures: tuple[complex, ...]
    grid_points: int
    converse_failures: tuple[complex, ...]

    @property
    def all_pass(self) -> bool:
        return not self.forward_failures and not self.converse_failures


def verify_spectral_mapping(
    weights: Sequence, side: str = "right"
) -> SpectralMappingReport:
    """Check both directions of the spectral mapping on one weight family.

    Every eigenvalue of B whose square lies farther than
    ``MAPPING_EXCLUSION_MARGIN`` from the excluded spectrum (the
    eigenvalues of the products ``b_{i*} b_i``, computed once) must make
    the companion's smallest singular value fall below
    ``MAPPING_SINGULAR_TOL``; grid points at least as far from the excluded
    spectrum and farther than ``MAPPING_SEPARATION`` from sigma(B) must keep
    it above.
    """
    op = build_nb(mapping_family(weights), side=side)
    spectrum = np.linalg.eigvals(op.matrix)
    ell = op.ell
    excluded = np.concatenate(
        [np.linalg.eigvals(op.weights[star(i, ell // 2)] @ op.weights[i]) for i in range(ell)]
    )

    def is_excluded(lam: complex) -> bool:
        return np.min(np.abs(lam**2 - excluded)) <= MAPPING_EXCLUSION_MARGIN

    forward_failures = []
    checked = 0
    skipped = 0
    for lam in spectrum:
        if is_excluded(lam):
            skipped += 1
            continue
        checked += 1
        companion = build_companion(op.weights, lam, tol=0.0)
        if companion.min_singular_value >= MAPPING_SINGULAR_TOL:
            forward_failures.append(complex(lam))
    radius = max(1.0, float(np.max(np.abs(spectrum))) if spectrum.size else 1.0)
    axis = np.linspace(-1.5 * radius, 1.5 * radius, 7)
    converse_failures = []
    grid_points = 0
    for re in axis:
        for im in axis:
            lam = complex(re, im)
            if spectrum.size and np.min(np.abs(spectrum - lam)) <= MAPPING_SEPARATION:
                continue
            if is_excluded(lam):
                continue
            grid_points += 1
            companion = build_companion(op.weights, lam, tol=0.0)
            if companion.min_singular_value <= MAPPING_SINGULAR_TOL:
                converse_failures.append(lam)
    return SpectralMappingReport(
        dimension=op.dimension,
        side=side,
        eigenvalues_checked=checked,
        eigenvalues_skipped=skipped,
        forward_failures=tuple(forward_failures),
        grid_points=grid_points,
        converse_failures=tuple(converse_failures),
    )


def build_b_mu(
    pencil: MatrixPencil, mu: float, reps: Sequence[np.ndarray]
) -> NBOperator:
    """The shifted non-backtracking operator detecting ``mu`` in sigma(A).

    Weights are ``hat a_j(mu) (x) V_j`` over the ``2d`` colors, with the
    hat family computed from the pencil's tree resolvent.  ``mu`` lies
    outside the spectrum of the realized model exactly when 1 avoids the
    spectrum of the result.
    """
    colors = 2 * pencil.d
    if len(reps) != colors:
        raise ValueError(f"need {colors} representation images, got {len(reps)}")
    require_dense((colors * pencil.coeff_dim * len(reps[0])) ** 2, "the shifted operator")
    hat = hat_weights(pencil, mu)
    weights = [
        np.kron(np.asarray(hat[j], dtype=complex), np.asarray(reps[j], dtype=complex))
        for j in range(colors)
    ]
    return build_nb(weights, side="right")
