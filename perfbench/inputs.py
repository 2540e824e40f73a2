"""Seeded inputs for the benchmark workloads.

Every input file is a pure function of ``(workload seed, pass index)``: the
same pair always writes the same bytes.  The program under test only ever
sees these files and the per-pass ``--seed`` derived here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Free-group rank and tensor legs shared by every generated model.
D = 2
Q_MINUS = Q_PLUS = 1

#: ``tree`` workload: coefficient size of the random pencil, the tiny
#: ``freeness`` dimensions, and the sizes of the NB and polynomial inputs.
TREE_COEFF_DIM = 3
TREE_FREENESS_N = (6, 8)
NB_COLORS = 4
NB_WEIGHT_DIM = 64
LAMBDA_GRID = "0:2:0.01"
POLY_COEFF_DIM = 2
POLY_DEGREE = 8
TREE_TRIALS = 2

#: ``model`` workload: n = 40 (dimension 1600) lies below the dense cap of
#: 4096, so the trial forms the dense operators and then runs power
#: iteration.  One trial per command: with two, the pool threads and
#: OpenBLAS's threads fight over the cores and identical passes vary by a
#: quarter, so the pool is timed per layer instead.  The matrix-free regime
#: (n = 66, dimension 4356) is also probed per layer only: its whole cost is
#: power iteration, whose length varies about threefold between draws.
#:
#: The pencil is the uniform one, ``sum_i (u_i + u_i^*)`` with no constant
#: term.  Its restricted spectrum is symmetric about 0, so the top two
#: singular values come from the two edges and nearly coincide; power
#: iteration is slowest there and on some draws gives up
#: (PowerIterationError, exit 1), which the run counts as a failed command.
MODEL_FREENESS_N = (40,)
MODEL_TRIALS = 1
MODEL_FREE_N = 66


def pass_seed(seed: int, index: int) -> int:
    """The ``--seed`` handed to every command of pass ``index``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint32)[0])


def _rng(seed: int, index: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, index, stream]))


def matrix_json(matrix: np.ndarray) -> list:
    """The CLI's matrix encoding: rows of ``[re, im]`` pairs."""
    arr = np.atleast_2d(np.asarray(matrix, dtype=complex))
    return [[[float(z.real), float(z.imag)] for z in row] for row in arr]


def load_matrix(data: list) -> np.ndarray:
    """Inverse of :func:`matrix_json`."""
    arr = np.array(data, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def read_pencil(path: Path) -> tuple[int, np.ndarray, list[np.ndarray]]:
    """``(d, a0, a)`` of a pencil file."""
    data = json.loads(path.read_text())
    return int(data["d"]), load_matrix(data["a0"]), [load_matrix(m) for m in data["a"]]


def lambda_grid() -> list[float]:
    """The points of LAMBDA_GRID, spaced as the CLI spaces them."""
    lo, hi, step = (float(part) for part in LAMBDA_GRID.split(":"))
    return [lo + i * step for i in range(int((hi - lo) / step + 1e-9) + 1)]


def _ginibre(rng: np.random.Generator, size: int) -> np.ndarray:
    shape = (size, size)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2 * size)


def selfadjoint_pencil(rng: np.random.Generator, d: int, r: int) -> dict:
    """A random pencil with Hermitian ``a0`` and ``a[i + d] = a[i]^*``."""
    h = _ginibre(rng, r)
    a = [_ginibre(rng, r) for _ in range(d)]
    a += [m.conj().T for m in a]
    return {
        "d": d,
        "coeff_dim": r,
        "a0": matrix_json((h + h.conj().T) / 2),
        "a": [matrix_json(m) for m in a],
    }


def uniform_pencil(d: int) -> dict:
    """``sum_i (u_i + u_i^*)``, whose free norm is ``2 sqrt(2d - 1)``."""
    return {
        "d": d,
        "coeff_dim": 1,
        "a0": matrix_json(np.zeros((1, 1))),
        "a": [matrix_json(np.ones((1, 1)))] * (2 * d),
    }


def _random_reduced_word(rng: np.random.Generator, d: int, length: int) -> tuple[int, ...]:
    letters = [int(rng.integers(2 * d))]
    while len(letters) < length:
        color = int(rng.integers(2 * d))
        if color != (letters[-1] + d) % (2 * d):
            letters.append(color)
    return tuple(letters)


def _inverse_word(letters: tuple[int, ...], d: int) -> tuple[int, ...]:
    return tuple((c + d) % (2 * d) for c in reversed(letters))


def selfadjoint_polynomial(rng: np.random.Generator, d: int, r: int, degree: int) -> list:
    """One random word per length ``1..degree`` with its mirrored adjoint."""
    h = _ginibre(rng, r)
    entries = [{"word": [], "matrix": matrix_json(h + h.conj().T)}]
    for length in range(1, degree + 1):
        word = _random_reduced_word(rng, d, length)
        coeff = _ginibre(rng, r)
        entries.append({"word": list(word), "matrix": matrix_json(coeff)})
        entries.append(
            {"word": list(_inverse_word(word, d)), "matrix": matrix_json(coeff.conj().T)}
        )
    return entries


@dataclass(frozen=True)
class PassInputs:
    """Paths and seed of one pass; fields unused by a workload are None."""

    seed: int
    tree_pencil: Path | None = None
    tree_config: Path | None = None
    nb_weights: Path | None = None
    poly: Path | None = None
    model_pencil: Path | None = None
    model_config: Path | None = None


def _write(path: Path, payload: object) -> Path:
    path.write_text(json.dumps(payload, sort_keys=True) + "\n")
    return path


def write_pass_inputs(workload: str, seed: int, index: int, directory: Path) -> PassInputs:
    """Write the input files of one pass into ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    cli_seed = pass_seed(seed, index)
    if workload == "exact":
        return PassInputs(seed=cli_seed)
    if workload == "tree":
        pencil = _write(
            directory / "tree-pencil.json",
            selfadjoint_pencil(_rng(seed, index, 1), D, TREE_COEFF_DIM),
        )
        nb_rng = _rng(seed, index, 2)
        weights = [_ginibre(nb_rng, NB_WEIGHT_DIM) for _ in range(NB_COLORS)]
        return PassInputs(
            seed=cli_seed,
            tree_pencil=pencil,
            tree_config=_write(
                directory / "tree-freeness.json",
                _freeness_config(pencil.name, TREE_FREENESS_N),
            ),
            nb_weights=_write(
                directory / "nb-weights.json",
                {"weights": [matrix_json(w) for w in weights]},
            ),
            poly=_write(
                directory / "poly.json",
                selfadjoint_polynomial(_rng(seed, index, 3), D, POLY_COEFF_DIM, POLY_DEGREE),
            ),
        )
    if workload == "model":
        pencil = _write(directory / "model-pencil.json", uniform_pencil(D))
        return PassInputs(
            seed=cli_seed,
            model_pencil=pencil,
            model_config=_write(
                directory / "model-freeness.json",
                _freeness_config(pencil.name, MODEL_FREENESS_N),
            ),
        )
    raise ValueError(f"unknown workload {workload!r}")


def _freeness_config(pencil_name: str, sizes: tuple[int, ...]) -> dict:
    return {
        "pencil": pencil_name,
        "d": D,
        "q_minus": Q_MINUS,
        "q_plus": Q_PLUS,
        "n": list(sizes),
    }
