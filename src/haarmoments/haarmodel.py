"""Random tensor models built from Haar unitaries, and their experiments.

Each of ``d`` independent Haar unitaries acts through
``V_i = conj(U_i)^(x q_minus) (x) U_i^(x q_plus)`` on ``C^(n^q)``; the
model operator couples pencil coefficients to these images.  The mean of
``V_i`` is the orthogonal projector onto the invariant subspace, computed
from exact Weingarten values rather than sampling.  Model operators are
matrix-free: they act on vectors through the unitaries' tensor legs, and
restricted norms come from a Krylov–Schur Lanczos solve written in numpy.
Experiments compare restricted operator norms with the free limit and
non-backtracking power norms with the tree growth rate.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import reduce
from statistics import median
from typing import Sequence

import numpy as np

from .centered_wg import matching_weingarten
from .freegroup import MatrixPencil, ball_spectrum_bounds, rho_k, star
from .nonbacktracking import NBOperator, build_nb, power_norm
from .symcore import (
    BAR,
    DOT,
    CapacityError,
    EpsilonSequence,
    epsilon_matchings,
    require_dense,
)
from .weingarten import UnsupportedRegimeError

#: Hard cap on the total model dimension.
MAX_MODEL_DIM = 1_000_000
#: Relative tolerance of the Lanczos solve for the top eigenvalue of ``M* M``.
NORM_TOL = 1e-10
#: Lanczos basis size, Ritz vectors kept per restart and restart cap per
#: dimension: ARPACK's defaults for one eigenvalue (``ncv`` = 20,
#: ``maxiter`` = 10 x dimension).
LANCZOS_BASIS = 20
LANCZOS_KEPT = 10
LANCZOS_RESTARTS_PER_DIMENSION = 10
#: Ball radius of ``astar_norm_estimate``: the level-by-level shift test makes
#: it cheap, and it puts the estimate within about 1e-3 of the limit for the
#: small pencils used in experiments.
ASTAR_BALL_RADIUS = 200
#: Word-length order of the tree growth rate ``rho_k`` in ``nb_norm_check``.
NB_RHO_ORDER = 10
#: Margin over the growth rate in ``nb_norm_check``'s exceedance bound.
NB_EPSILON = 0.25

_NORM_SEED_SALT = 0x5EED_0F_0E


class PowerIterationError(RuntimeError):
    """Raised when the restricted-norm eigensolve fails to converge."""


def model_rng(seed: int) -> np.random.Generator:
    """Counter-based generator keyed by a 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=seed & (2**64 - 1)))


def sample_haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """One Haar-distributed unitary.

    Ginibre matrix, QR factorization, then the phase-of-diagonal
    correction that removes the orientation bias of plain QR.
    """
    if n < 1:
        raise ValueError("dimension must be positive")
    ginibre = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    q, r = np.linalg.qr(ginibre / np.sqrt(2))
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def _projector_factors(
    n: int, q_minus: int, q_plus: int
) -> tuple[np.ndarray, np.ndarray]:
    """Indicator rows and Weingarten weights of the mean tensor operator.

    The mean factors through pairings of conjugate and plain legs:
    ``E V = I^T W I`` with one 0/1 row of ``I`` per pairing.  Unbalanced
    legs have no pairings, and the mean is zero.
    """
    q = q_minus + q_plus
    dim = n**q
    if q_minus != q_plus:
        return np.zeros((0, dim)), np.zeros((0, 0))
    if q_minus > n:
        raise UnsupportedRegimeError(
            f"projector needs q/2 = {q_minus} <= n = {n}"
        )
    eps = EpsilonSequence(tuple([BAR] * q_minus + [DOT] * q_plus))
    matchings = epsilon_matchings(eps)
    digits = [(np.arange(dim) // n ** (q - p)) % n for p in range(1, q + 1)]
    indicators = np.ones((len(matchings), dim))
    for row, matching in enumerate(matchings):
        for a, b in matching.pairing.pairs:
            indicators[row] *= digits[a - 1] == digits[b - 1]
    weights = np.array(
        [
            [float(matching_weingarten(p, q_m, n)) for q_m in matchings]
            for p in matchings
        ]
    )
    return indicators, weights


def build_projector(n: int, q_minus: int, q_plus: int) -> np.ndarray:
    """The mean of ``V_i`` as a dense matrix: a projector, or zero.

    Entries are exact signed Haar moments cast to floats; an unbalanced
    leg count gives the zero matrix.
    """
    q = q_minus + q_plus
    if q < 1:
        raise ValueError("need at least one tensor leg")
    require_dense(n ** (2 * q), "the dense projector")
    indicators, weights = _projector_factors(n, q_minus, q_plus)
    return indicators.T @ weights @ indicators


@dataclass(frozen=True)
class ModelConfig:
    """Dimensions, pencil, and seed describing one tensor model."""

    n: int
    d: int
    q_minus: int
    q_plus: int
    coeff_dim: int
    pencil: MatrixPencil
    seed: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.d < 1:
            raise ValueError("n and d must be positive")
        if self.q_minus < 0 or self.q_plus < 0 or self.q < 1:
            raise ValueError("need q_minus + q_plus >= 1")
        if self.pencil.d != self.d:
            raise ValueError("pencil generator count differs from d")
        if self.pencil.coeff_dim != self.coeff_dim:
            raise ValueError("pencil coefficient dimension differs")
        if self.total_dimension > MAX_MODEL_DIM:
            raise CapacityError(
                f"model dimension {self.total_dimension} exceeds {MAX_MODEL_DIM}"
            )
        require_dense(self.n**2, "each Haar unitary")

    @property
    def q(self) -> int:
        return self.q_minus + self.q_plus

    @property
    def tensor_dimension(self) -> int:
        return self.n**self.q

    @property
    def total_dimension(self) -> int:
        return self.coeff_dim * self.tensor_dimension


@dataclass(frozen=True, eq=False)
class TensorModelInstance:
    """One sampled model: unitaries and the factors of the mean projector.

    Operators are matrix-free: the apply methods act on vectors of the
    total dimension through the unitaries' tensor legs and the stacked
    ``(pairings, tensor dimension)`` indicator array of the projector.
    """

    config: ModelConfig
    unitaries: tuple[np.ndarray, ...]
    projector_vectors: np.ndarray
    projector_weights: np.ndarray

    def _apply_image(self, color: int, block: np.ndarray) -> np.ndarray:
        """Apply ``V_color`` to the tensor axis of a (coeff, tensor) block."""
        cfg = self.config
        n, q = cfg.n, cfg.q
        unitary = self.unitaries[color % cfg.d]
        if color >= cfg.d:
            unitary = unitary.conj().T
        shaped = block.reshape((block.shape[0],) + (n,) * q)
        for leg in range(q):
            factor = unitary.conj() if leg < cfg.q_minus else unitary
            shaped = np.moveaxis(
                np.tensordot(factor, shaped, axes=([1], [leg + 1])), 0, leg + 1
            )
        return shaped.reshape(block.shape)

    def _apply_projector(self, block: np.ndarray) -> np.ndarray:
        vectors = self.projector_vectors
        return block @ vectors.T @ self.projector_weights.T @ vectors

    def _apply_pencil(self, vector: np.ndarray, adjoint: bool) -> np.ndarray:
        cfg = self.config
        block = vector.reshape(cfg.coeff_dim, cfg.tensor_dimension)
        a0 = cfg.pencil.a0.conj().T if adjoint else cfg.pencil.a0
        result = a0 @ block
        for color in range(2 * cfg.d):
            if adjoint:
                coeff = cfg.pencil.a[star(color, cfg.d)].conj().T
            else:
                coeff = cfg.pencil.a[color]
            if not np.any(coeff):
                continue
            result += coeff @ self._apply_image(color, block)
        return result.reshape(vector.shape)

    def apply_a(self, vector: np.ndarray) -> np.ndarray:
        return self._apply_pencil(vector, adjoint=False)

    def apply_a_adjoint(self, vector: np.ndarray) -> np.ndarray:
        """Adjoint via conjugated coefficients paired with inverse colors."""
        return self._apply_pencil(vector, adjoint=True)

    def _project_out(self, vector: np.ndarray) -> np.ndarray:
        cfg = self.config
        block = vector.reshape(cfg.coeff_dim, cfg.tensor_dimension)
        return (block - self._apply_projector(block)).reshape(vector.shape)

    def apply_restricted(self, vector: np.ndarray) -> np.ndarray:
        return self._project_out(self.apply_a(self._project_out(vector)))

    def apply_restricted_adjoint(self, vector: np.ndarray) -> np.ndarray:
        return self._project_out(self.apply_a_adjoint(self._project_out(vector)))


def build_instance(cfg: ModelConfig) -> TensorModelInstance:
    """Sample the unitaries and the projector factors of one model."""
    rng = model_rng(cfg.seed)
    unitaries = tuple(sample_haar_unitary(cfg.n, rng) for _ in range(cfg.d))
    vectors, weights = _projector_factors(cfg.n, cfg.q_minus, cfg.q_plus)
    return TensorModelInstance(
        config=cfg,
        unitaries=unitaries,
        projector_vectors=vectors,
        projector_weights=weights,
    )


def _top_eigenvalue(gram, start: np.ndarray) -> float:
    """Top eigenvalue of a Hermitian operator by Krylov–Schur Lanczos.

    Thick-restart Lanczos (Wu & Simon, SIAM J. Matrix Anal. Appl. 22, 2000)
    in Krylov–Schur form (Stewart, SIAM J. Matrix Anal. Appl. 23, 2001),
    with ARPACK's settings for one eigenvalue: a basis of
    ``LANCZOS_BASIS`` vectors, fully re-orthogonalised in two classical
    Gram–Schmidt passes, of which the top ``LANCZOS_KEPT`` Ritz vectors
    are kept at each restart.  It stops on ARPACK's rule, the Ritz
    residual ``beta |y_last|`` at most ``NORM_TOL`` times the Ritz value,
    or at once when the Krylov space is invariant (``beta = 0``, or the
    whole space), where the Ritz value is exact.
    """
    dimension = start.size
    size = min(LANCZOS_BASIS, dimension)
    basis = np.empty((size + 1, dimension), dtype=complex)
    basis[0] = start / np.linalg.norm(start)
    # Only the upper triangle is filled: column j holds the Gram–Schmidt
    # coefficients of the image of basis vector j, the Hermitian
    # projection of the operator (an arrow after a restart).
    projected = np.zeros((size, size), dtype=complex)
    kept = 0
    for _ in range(LANCZOS_RESTARTS_PER_DIMENSION * dimension):
        for j in range(kept, size):
            image = gram(basis[j])
            for _ in range(2):
                coeffs = (basis[: j + 1] @ image.conj()).conj()
                image = image - coeffs @ basis[: j + 1]
                projected[: j + 1, j] += coeffs
            beta = np.linalg.norm(image)
            if beta == 0 or j + 1 == dimension:
                return np.linalg.eigvalsh(projected[: j + 1, : j + 1], UPLO="U")[-1]
            basis[j + 1] = image / beta
        ritz, vectors = np.linalg.eigh(projected, UPLO="U")
        if beta * abs(vectors[-1, -1]) <= NORM_TOL * ritz[-1]:
            return ritz[-1]
        basis[:LANCZOS_KEPT] = vectors[:, -LANCZOS_KEPT:].T @ basis[:size]
        basis[LANCZOS_KEPT] = basis[size]
        projected[:] = 0
        np.fill_diagonal(projected[:LANCZOS_KEPT, :LANCZOS_KEPT], ritz[-LANCZOS_KEPT:])
        kept = LANCZOS_KEPT
    raise PowerIterationError(
        f"restricted norm did not converge in "
        f"{LANCZOS_RESTARTS_PER_DIMENSION * dimension} restarts"
    )


def restricted_norm(inst: TensorModelInstance) -> float:
    """Norm of the model compressed to the complement of the invariant part.

    Krylov–Schur Lanczos for the top eigenvalue of the Hermitian ``M* M``,
    started from a seeded random vector; failure to converge within
    ``LANCZOS_RESTARTS_PER_DIMENSION`` restarts per dimension raises
    :class:`PowerIterationError`.  A zero operator has norm 0.0.
    """
    dimension = inst.config.total_dimension
    rng = model_rng(inst.config.seed ^ _NORM_SEED_SALT)
    start = rng.standard_normal(dimension) + 1j * rng.standard_normal(dimension)
    top = _top_eigenvalue(
        lambda v: inst.apply_restricted_adjoint(inst.apply_restricted(v)), start
    )
    return float(np.sqrt(top))


def astar_norm_estimate(pencil: MatrixPencil) -> float:
    """Norm of the free limit, estimated from ball compression edges.

    The compression is taken at radius ``ASTAR_BALL_RADIUS``.  A pencil
    without generator terms is its own limit and is evaluated exactly.
    """
    if not any(np.any(coeff) for coeff in pencil.a):
        return float(np.linalg.norm(pencil.a0, 2))
    low, high = ball_spectrum_bounds(pencil, ASTAR_BALL_RADIUS)
    return max(abs(low), abs(high))


@dataclass(frozen=True)
class FreenessRow:
    n: int
    trial: int
    seed: int
    restricted_norm: float
    astar_estimate: float
    deviation: float
    wall_time_ms: float


@dataclass(frozen=True)
class FreenessTable:
    rows: tuple[FreenessRow, ...]

    def median_deviation_by_n(self) -> dict[int, float]:
        grouped: dict[int, list[float]] = {}
        for row in self.rows:
            grouped.setdefault(row.n, []).append(row.deviation)
        return {n: median(values) for n, values in sorted(grouped.items())}


def _freeness_row(cfg: ModelConfig, trial: int, estimate: float) -> FreenessRow:
    trial_seed = cfg.seed ^ trial
    started = time.perf_counter()
    inst = build_instance(replace(cfg, seed=trial_seed))
    value = restricted_norm(inst)
    elapsed = (time.perf_counter() - started) * 1000
    return FreenessRow(
        n=cfg.n,
        trial=trial,
        seed=trial_seed,
        restricted_norm=value,
        astar_estimate=estimate,
        deviation=abs(value - estimate),
        wall_time_ms=elapsed,
    )


def freeness_experiment(
    configs: Sequence[ModelConfig], trials: int, threads: int = 1
) -> FreenessTable:
    """Restricted norms against the free-limit estimate, over seeded trials.

    Each trial re-keys the counter-based generator with ``seed XOR trial``
    so trials are independent and bit-reproducible.  ``threads`` sizes a
    worker pool over the (config, trial) grid; it changes wall times only,
    never the numeric columns.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    estimates: dict[int, float] = {}
    jobs = []
    for cfg in configs:
        key = id(cfg.pencil)
        if key not in estimates:
            estimates[key] = astar_norm_estimate(cfg.pencil)
        jobs.extend((cfg, trial, estimates[key]) for trial in range(trials))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        rows = list(pool.map(lambda job: _freeness_row(*job), jobs))
    rows.sort(key=lambda row: (row.n, row.trial))
    return FreenessTable(rows=tuple(rows))


@dataclass(frozen=True)
class NBNormRow:
    trial: int
    seed: int
    ell: int
    power_norm: float


@dataclass(frozen=True)
class NBNormTable:
    rows: tuple[NBNormRow, ...]
    rho_star: float
    epsilon: float

    def exceedance_by_ell(self) -> dict[int, float]:
        grouped: dict[int, list[float]] = {}
        for row in self.rows:
            grouped.setdefault(row.ell, []).append(row.power_norm)
        bound = self.rho_star + self.epsilon
        return {
            ell: sum(1 for value in values if value > bound) / len(values)
            for ell, values in sorted(grouped.items())
        }


def bracket_nb_operator(inst: TensorModelInstance) -> NBOperator:
    """The non-backtracking operator with weights ``a_i (x) [V_i]``.

    The tensor images ``V_i`` and the projector are formed densely here.
    """
    cfg = inst.config
    require_dense((2 * cfg.d * cfg.total_dimension) ** 2, "the bracket non-backtracking operator")
    images = [
        reduce(np.kron, [u.conj()] * cfg.q_minus + [u] * cfg.q_plus)
        for u in inst.unitaries
    ]
    images += [image.conj().T for image in images]
    projector = build_projector(cfg.n, cfg.q_minus, cfg.q_plus)
    weights = [
        np.kron(cfg.pencil.a[color], images[color] - projector)
        for color in range(2 * cfg.d)
    ]
    return build_nb(weights, side="right")


def nb_norm_check(cfg: ModelConfig, ell_values: Sequence[int], trials: int) -> NBNormTable:
    """Power norms of the bracket non-backtracking operator per trial.

    Values are compared against the tree growth rate ``rho_k`` of order
    ``NB_RHO_ORDER`` plus ``NB_EPSILON``; the table reports the exceedance frequency.

    Only the spectral radius ``lim_l ||B^l||^(1/l)`` is bounded by the
    growth rate plus ``NB_EPSILON`` as ``n`` grows. At a fixed ``l`` the
    power norm converges to that of the free limit, whose own
    ``||B_*^l||^(1/l)`` exceeds the growth rate by a polynomial
    prefactor (for the uniform d = 2 pencil it is at least 2.008 at
    ``l = 12`` and 1.987 at ``l = 24``, against sqrt(3) + 0.25 = 1.982,
    from the compression of ``B_*`` to a tree ball). So the
    exceedance at a fixed ``l`` is not expected to vanish as ``n`` grows.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rho_star = rho_k(cfg.pencil, NB_RHO_ORDER)
    rows = []
    for trial in range(trials):
        trial_seed = cfg.seed ^ trial
        inst = build_instance(replace(cfg, seed=trial_seed))
        op = bracket_nb_operator(inst)
        for ell in ell_values:
            rows.append(
                NBNormRow(
                    trial=trial,
                    seed=trial_seed,
                    ell=ell,
                    power_norm=power_norm(op, ell),
                )
            )
    return NBNormTable(rows=tuple(rows), rho_star=rho_star, epsilon=NB_EPSILON)
