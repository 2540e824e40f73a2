"""Command-line front end tying every module into reproducible runs.

Each subcommand parses flags, computes a report, writes it to ``--out``
or stdout, and emits exactly one run manifest: next to the output file
as ``OUT.manifest.json`` when ``--out`` is given, otherwise as a single
JSON line on stderr.  Structured math goes out as JSON with rationals
encoded as ``"numerator/denominator"`` strings; experiment tables go
out as CSV.  Given the same subcommand and seed, payload bytes are
identical across runs on one machine, except for measured wall-time
columns, which are genuinely nondeterministic.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import secrets
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from . import __version__
from .centered_wg import BracketMomentSpec, bracket_expansion, centered_moment
from .freegroup import (
    MatrixPencil,
    ReducedWord,
    astar_norm_lower,
    resolvent_entries,
    rho_k,
)
from .haarmodel import ModelConfig, freeness_experiment
from .linearization import (
    GroupPolynomial,
    poly_norm,
    sqrt_identity_residual,
    sqrt_pencil,
    symmetric_ball,
)
from .nonbacktracking import (
    MAX_MAPPING_DIM,
    _coerce_weights,
    build_companion,
    build_nb,
    verify_spectral_mapping,
)
from .symcore import (
    BAR,
    DOT,
    CapacityError,
    EpsilonSequence,
    all_permutations,
    cycle_type,
    enumerate_set_partitions,
)
from .weingarten import (
    UnsupportedRegimeError,
    _integer_partitions,
    catalan,
    haar_moment,
    hurwitz_count,
    orth_moment,
    wg_exact,
    wg_orth_exact,
)
from .wick import ComparisonReport, check_warmup, check_with_brackets

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2

#: Most points a ``nb-spectrum --lambda-grid`` may request.
MAX_GRID_POINTS = 100_000

#: Residual threshold below which a produced square-root pencil counts as valid.
LINEARIZE_RESIDUAL_TOL = 1e-8

#: Environment variable naming the directory for memoized Weingarten tables.
CACHE_ENV_VAR = "HAARMOMENTS_CACHE"


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility record emitted exactly once alongside each run's data."""

    command: str
    parameters: dict
    seed: int
    version: str
    wall_time_s: float
    output_digest: str


def _fraction_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _type_key(ct: tuple[int, ...]) -> str:
    return ",".join(str(part) for part in ct)


def _finite(value: float) -> Optional[float]:
    return float(value) if math.isfinite(value) else None


def _json_bytes(payload: object) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n").encode()


def _matrix_to_json(matrix: np.ndarray) -> list:
    out = np.array(matrix, dtype=complex)
    return [[[entry.real, entry.imag] for entry in row] for row in out]


def _matrix_from_json(data: object) -> np.ndarray:
    message = "matrix entries must be [re, im] pairs in a rectangular grid"
    try:
        arr = np.array(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(message) from exc
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ValueError(message)
    return arr[:, :, 0] + 1j * arr[:, :, 1]


def _matrices_from_json(data: object, what: str) -> tuple[np.ndarray, ...]:
    if not isinstance(data, list):
        raise ValueError(f"{what} must be a JSON list of matrices")
    return tuple(_matrix_from_json(entry) for entry in data)


def _load_pencil(path: str) -> MatrixPencil:
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError('pencil file must be a JSON object with "d", "coeff_dim" and "a"')
    d, r = data["d"], data["coeff_dim"]
    if type(d) is not int or type(r) is not int:
        raise ValueError('pencil "d" and "coeff_dim" must be integers')
    a0 = _matrix_from_json(data["a0"]) if "a0" in data else np.zeros((r, r), dtype=complex)
    return MatrixPencil(d=d, coeff_dim=r, a0=a0, a=_matrices_from_json(data["a"], 'pencil "a"'))


def _all_epsilons(k: int) -> list[EpsilonSequence]:
    return [EpsilonSequence(signs) for signs in itertools.product((DOT, BAR), repeat=k)]


def _index_tuples(k: int) -> list[tuple[int, ...]]:
    return list(itertools.product((1, 2), repeat=k))


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (payload bytes, exit code)


def _cmd_wg_table(args: argparse.Namespace, seed: int) -> tuple[bytes, int]:
    values = _cached_wg_values(args.k, args.n, args.orthogonal)
    payload = {
        "k": args.k,
        "n": args.n,
        "orthogonal": args.orthogonal,
        "values": values,
    }
    return _json_bytes(payload), EXIT_OK


def _cached_wg_values(k: int, n: int, orthogonal: bool) -> dict[str, str]:
    """Weingarten table as type-key -> rational-string, memoized on disk.

    The cache file name is the content address (k, n, orthogonal); a hit
    skips the Gram solve entirely.  A file that does not hold exactly the
    requested table counts as a miss and is replaced; the replacement is
    written to a temporary file first, so no reader sees a partial table.
    """
    cache_dir = os.environ.get(CACHE_ENV_VAR)
    path = None
    if cache_dir:
        path = Path(cache_dir) / f"wg-{'orth' if orthogonal else 'unit'}-k{k}-n{n}.json"
        values = _read_cached_table(path, k, n, orthogonal)
        if values is not None:
            return values
    table = wg_orth_exact(k, n) if orthogonal else wg_exact(k, n)
    values = {
        _type_key(ct): _fraction_str(value) for ct, value in sorted(table.values.items())
    }
    if path is not None:
        text = json.dumps(
            {"k": k, "n": n, "orthogonal": orthogonal, "values": values},
            indent=2,
            sort_keys=True,
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        handle, temp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(handle, "w") as out:
                out.write(text + "\n")
            os.replace(temp, path)
        finally:
            if os.path.exists(temp):
                os.unlink(temp)
    return values


def _read_cached_table(
    path: Path, k: int, n: int, orthogonal: bool
) -> Optional[dict[str, str]]:
    """The values of a cache file, or None unless its header, its type keys
    and every canonical rational match the requested table."""
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(data, dict) or (
        data.get("k"), data.get("n"), data.get("orthogonal")
    ) != (k, n, orthogonal):
        return None
    values = data.get("values")
    types = _integer_partitions(k // 2 if orthogonal else k)
    if not isinstance(values, dict) or set(values) != {_type_key(ct) for ct in types}:
        return None
    try:
        if all(_fraction_str(Fraction(value)) == value for value in values.values()):
            return values
    except (TypeError, ValueError, ZeroDivisionError):
        pass
    return None


def _cmd_centered_check(args: argparse.Namespace, seed: int) -> tuple[bytes, int]:
    k, n = args.k, args.n
    partitions = enumerate_set_partitions(k)
    balanced = [eps for eps in _all_epsilons(k) if eps.is_balanced()]
    indices = _index_tuples(k)
    cases = 0
    failures = []
    for pi in partitions:
        for eps in balanced:
            for x in indices:
                for y in indices:
                    spec = BracketMomentSpec(pi=pi, eps=eps, x=x, y=y)
                    lhs = centered_moment(spec, n)
                    rhs = bracket_expansion(spec, n)
                    cases += 1
                    if lhs != rhs:
                        failures.append(
                            {
                                "pi": [sorted(block) for block in pi.blocks],
                                "eps": "".join(eps.signs),
                                "x": list(x),
                                "y": list(y),
                                "matching_sum": _fraction_str(lhs),
                                "bracket_expansion": _fraction_str(rhs),
                            }
                        )
    payload = {
        "k": k,
        "n": n,
        "cases": cases,
        "failures": len(failures),
        "pass": not failures,
        "examples": failures[:10],
    }
    return _json_bytes(payload), EXIT_OK if not failures else EXIT_CHECK_FAILURE


def _report_entry(report: ComparisonReport, extra: dict) -> dict:
    entry = {
        "lhs": _finite(report.lhs),
        "rhs": _finite(report.rhs),
        "margin": _finite(report.margin),
        "passes": report.passes,
        "skipped": report.skipped,
        "even": report.even,
    }
    if report.skipped:
        entry["reason"] = report.reason
    if report.lhs_exact is not None:
        entry["lhs_exact"] = _fraction_str(report.lhs_exact)
    entry.update(extra)
    return entry


def _cmd_gauss_compare(args: argparse.Namespace, seed: int) -> tuple[bytes, int]:
    k, n = args.k, args.n
    indices = _index_tuples(k)
    entries = []
    if args.brackets:
        grids = itertools.product(
            enumerate_set_partitions(k),
            [eps for eps in _all_epsilons(k) if eps.is_balanced()],
            indices,
            indices,
        )
        for pi, eps, x, y in grids:
            spec = BracketMomentSpec(pi=pi, eps=eps, x=x, y=y)
            report = check_with_brackets(spec, n)
            entries.append(
                _report_entry(
                    report,
                    {
                        "pi": [sorted(block) for block in pi.blocks],
                        "eps": "".join(eps.signs),
                        "x": list(x),
                        "y": list(y),
                    },
                )
            )
    else:
        for eps, x, y in itertools.product(_all_epsilons(k), indices, indices):
            report = check_warmup(x, y, eps, n)
            entries.append(
                _report_entry(
                    report,
                    {"eps": "".join(eps.signs), "x": list(x), "y": list(y)},
                )
            )
    failures = sum(1 for e in entries if e["passes"] is False and not e["skipped"])
    skipped = sum(1 for e in entries if e["skipped"])
    payload = {
        "check": "with-brackets" if args.brackets else "warmup",
        "k": k,
        "n": n,
        "cases": len(entries),
        "failures": failures,
        "skipped": skipped,
        "pass": failures == 0,
        "entries": entries,
    }
    return _json_bytes(payload), EXIT_OK if failures == 0 else EXIT_CHECK_FAILURE


def _cmd_free_norm(args: argparse.Namespace, seed: int) -> tuple[bytes, int]:
    pencil = _load_pencil(args.pencil)
    estimate = astar_norm_lower(pencil, args.m, seed=seed)
    rho_table = {str(k): rho_k(pencil, k) for k in range(1, args.k_max + 1)}
    payload = {
        "d": pencil.d,
        "coeff_dim": pencil.coeff_dim,
        "m": args.m,
        "lower_estimate": estimate,
        "rho_k": rho_table,
    }
    return _json_bytes(payload), EXIT_OK


def _parse_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("lambda grid must be LO:HI:STEP")
    lo, hi, step = (float(p) for p in parts)
    if not all(math.isfinite(value) for value in (lo, hi, step)):
        raise ValueError("lambda grid needs finite LO, HI and STEP")
    if step <= 0 or hi < lo:
        raise ValueError("lambda grid needs STEP > 0 and HI >= LO")
    span = (hi - lo) / step + 1e-9
    if not span < MAX_GRID_POINTS:
        raise CapacityError(f"lambda grid capped at {MAX_GRID_POINTS} points")
    return [lo + i * step for i in range(int(span) + 1)]


def _cmd_nb_spectrum(args: argparse.Namespace, seed: int) -> tuple[bytes, int]:
    data = json.loads(Path(args.weights).read_text())
    raw = data["weights"] if isinstance(data, dict) else data
    weights = _coerce_weights(_matrices_from_json(raw, "weights"))
    if len(weights) * weights[0].shape[0] > MAX_MAPPING_DIM:
        raise CapacityError(
            f"dense spectrum computation capped at dimension {MAX_MAPPING_DIM}"
        )
    op = build_nb(weights, side=args.side)
    spectrum = sorted(
        np.linalg.eigvals(op.matrix), key=lambda z: (z.real, z.imag)
    )
    grid = []
    for lam in _parse_grid(args.lambda_grid):
        try:
            companion = build_companion(op.weights, lam, tol=0.0)
            smallest = _finite(companion.min_singular_value)
        except (ValueError, np.linalg.LinAlgError):
            smallest = None
        grid.append({"lambda": lam, "min_singular_value": smallest})
    payload = {
        "side": args.side,
        "dimension": op.dimension,
        "spectrum": [[z.real, z.imag] for z in spectrum],
        "grid": grid,
    }
    return _json_bytes(payload), EXIT_OK


def _cmd_freeness(args: argparse.Namespace, seed: int) -> tuple[bytes, int]:
    config_path = Path(args.config)
    config = json.loads(config_path.read_text())
    if not isinstance(config, dict):
        raise ValueError("freeness config must be a JSON object")
    if config.get("seed") is not None and type(config["seed"]) is not int:
        raise ValueError('config "seed" must be an integer')
    if not isinstance(config["pencil"], str):
        raise ValueError('config "pencil" must be a file path string')
    pencil_path = Path(config["pencil"])
    if not pencil_path.is_absolute():
        pencil_path = config_path.parent / pencil_path
    sizes = config["n"]
    d, q_minus, q_plus = (config[key] for key in ("d", "q_minus", "q_plus"))
    if not isinstance(sizes, list) or any(
        type(value) is not int for value in [*sizes, d, q_minus, q_plus]
    ):
        raise ValueError('config "n" must list integers; "d", "q_minus", "q_plus" be integers')
    pencil = _load_pencil(str(pencil_path))
    configs = [
        ModelConfig(
            n=n,
            d=d,
            q_minus=q_minus,
            q_plus=q_plus,
            coeff_dim=pencil.coeff_dim,
            pencil=pencil,
            seed=seed,
        )
        for n in sizes
    ]
    table = freeness_experiment(configs, trials=args.trials, threads=args.threads)
    lines = ["n,trial,seed,restricted_norm,astar_estimate,deviation,wall_time_ms"]
    for row in table.rows:
        lines.append(
            f"{row.n},{row.trial},{row.seed},{row.restricted_norm!r},"
            f"{row.astar_estimate!r},{row.deviation!r},{row.wall_time_ms!r}"
        )
    return ("\n".join(lines) + "\n").encode(), EXIT_OK


def _infer_generator_count(words: Sequence[Sequence[int]]) -> int:
    d = 1
    for letters in words:
        for letter in letters:
            d = max(d, letter // 2 + 1)
    return d


def _cmd_linearize(args: argparse.Namespace, seed: int) -> tuple[bytes, int]:
    data = json.loads(Path(args.poly).read_text())
    if not isinstance(data, list) or not all(isinstance(entry, dict) for entry in data):
        raise ValueError("polynomial file must be a JSON list of {word, matrix}")
    words = [entry["word"] for entry in data]
    if not all(isinstance(word, list) and all(type(l) is int for l in word) for word in words):
        raise ValueError('each "word" must be a JSON list of integer letters')
    inferred = _infer_generator_count(words)
    d = args.d if args.d is not None else inferred
    if d < inferred:
        raise ValueError(f"--d {d} too small for the letters present (need {inferred})")
    coeffs = {}
    for word, entry in zip(words, data):
        w = ReducedWord(d, tuple(word))
        coeffs[w] = coeffs.get(w, 0) + _matrix_from_json(entry["matrix"])
    poly = GroupPolynomial(d, coeffs)
    support = symmetric_ball(d, (poly.degree + 1) // 2)
    result = sqrt_pencil(poly, support)
    residual = sqrt_identity_residual(result, poly)
    payload = {
        "d": d,
        "degree": poly.degree,
        "support_size": len(support),
        "shift": result.shift,
        "effective_shift": result.effective_shift,
        "residual": residual,
        "pencil": [
            {
                "word": list(w.letters),
                "matrix": _matrix_to_json(result.pencil.coefficient(w)),
            }
            for w in result.pencil.support
        ],
    }
    code = EXIT_OK if residual <= LINEARIZE_RESIDUAL_TOL else EXIT_CHECK_FAILURE
    return _json_bytes(payload), code


# ---------------------------------------------------------------------------
# selftest: the fast slice of the acceptance checks, inlined


def _check_wg_closed_forms() -> tuple[bool, str]:
    for n in range(2, 7):
        table = wg_exact(2, n)
        if table.values[(1, 1)] != Fraction(1, n * n - 1):
            return False, f"identity value wrong at n={n}"
        if table.values[(2,)] != Fraction(-1, n * (n * n - 1)):
            return False, f"transposition value wrong at n={n}"
        if wg_exact(1, n).values[(1,)] != Fraction(1, n):
            return False, f"degree-1 value wrong at n={n}"
    return True, "k <= 2 closed forms exact for n in 2..6"


def _check_known_moments() -> tuple[bool, str]:
    for n in range(2, 7):
        checks = [
            (((1, 1), (1, 1), (1, 1), (1, 1)), Fraction(2, n * (n + 1))),
            (((1, 2), (1, 2), (1, 2), (1, 2)), Fraction(1, n * n - 1)),
            (((1, 1), (1, 2), (1, 1), (1, 2)), Fraction(1, n * (n + 1))),
        ]
        for (x, y, x2, y2), expected in checks:
            if haar_moment(x, y, x2, y2, n) != expected:
                return False, f"moment mismatch at n={n}"
    return True, "fourth-moment identities exact for n in 2..6"


def _check_catalan() -> tuple[bool, str]:
    for k in range(1, 5):
        for sigma in all_permutations(k):
            expected = 1
            for part in cycle_type(sigma):
                expected *= catalan(part - 1)
            if hurwitz_count(sigma, 0) != expected:
                return False, f"minimal factorization count wrong at k={k}"
    return True, "minimal factorization counts match Catalan products, k <= 4"


def _check_centered() -> tuple[bool, str]:
    n = 5
    cases = 0
    for pi in enumerate_set_partitions(2):
        for eps in _all_epsilons(2):
            if not eps.is_balanced():
                continue
            for x in _index_tuples(2):
                for y in _index_tuples(2):
                    spec = BracketMomentSpec(pi=pi, eps=eps, x=x, y=y)
                    if centered_moment(spec, n) != bracket_expansion(spec, n):
                        return False, f"route mismatch at x={x}, y={y}"
                    cases += 1
    return True, f"{cases} matching-sum vs inclusion-exclusion cases exact at n={n}"


def _check_warmup_grid() -> tuple[bool, str]:
    n = 16
    cases = 0
    for eps in _all_epsilons(2):
        for x in _index_tuples(2):
            for y in _index_tuples(2):
                report = check_warmup(x, y, eps, n)
                if report.skipped or not report.passes:
                    return False, f"warmup failed at eps={''.join(eps.signs)}"
                cases += 1
    return True, f"{cases} Gaussian-domination cases hold at k=2, n={n}"


def _check_rho() -> tuple[bool, str]:
    for d in (1, 2):
        pencil = MatrixPencil.from_scalars(d, 0.0, [1.0] * (2 * d))
        for k in range(1, 9):
            if abs(rho_k(pencil, k) - math.sqrt(2 * d - 1)) > 1e-12:
                return False, f"growth rate off at d={d}, k={k}"
    return True, "uniform-weight growth rates equal sqrt(2d-1), d <= 2, k <= 8"


def _check_resolvent() -> tuple[bool, str]:
    pencil = MatrixPencil.from_scalars(1, 0.0, [1.0, 1.0])
    root = ReducedWord.identity(1)
    value = resolvent_entries(pencil, 3.0, [root])[root][0, 0]
    if abs(value - 1 / math.sqrt(5)) > 1e-6:
        return False, f"one-generator resolvent off: {value}"
    return True, "one-generator resolvent at mu=3 within 1e-6"


def _check_mapping(rng: np.random.Generator) -> tuple[bool, str]:
    for side in ("right", "left"):
        weights = [
            rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            for _ in range(4)
        ]
        if not verify_spectral_mapping(weights, side=side).all_pass:
            return False, f"spectral mapping failed on side={side}"
    return True, "eigenvalue-kernel correspondence holds on both sides"


def _check_sqrt(rng: np.random.Generator) -> tuple[bool, str]:
    support = symmetric_ball(1, 1)
    g = ReducedWord(1, (0,))
    for trial in range(5):
        block = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        hermitian = rng.standard_normal((2, 2))
        coeffs = {
            ReducedWord.identity(1): (hermitian + hermitian.T) / 2 + 0j,
            g: block,
            ReducedWord(1, (1,)): block.conj().T,
        }
        poly = GroupPolynomial(1, coeffs)
        result = sqrt_pencil(poly, support)
        if sqrt_identity_residual(result, poly) > 1e-8:
            return False, f"square-root residual too large on trial {trial}"
    value = poly_norm(
        GroupPolynomial(
            1, {g: np.eye(1, dtype=complex), ReducedWord(1, (1,)): np.eye(1, dtype=complex)}
        )
    )
    if abs(value - 2.0) > 0.05:
        return False, f"two-cosine norm estimate off: {value}"
    return True, "square-root residuals <= 1e-8; two-cosine norm within 0.05"


def _check_orth() -> tuple[bool, str]:
    n = 4
    if orth_moment((1, 1, 1, 1), (1, 1, 1, 1), n) != Fraction(3, n * (n + 2)):
        return False, "diagonal fourth moment wrong"
    if orth_moment((1, 1, 2, 2), (1, 1, 2, 2), n) != Fraction(
        n + 1, n * (n - 1) * (n + 2)
    ):
        return False, "mixed fourth moment wrong"
    return True, "orthogonal fourth moments exact at n=4"


def _cmd_selftest(args: argparse.Namespace, seed: int) -> tuple[bytes, int]:
    rng = np.random.default_rng(seed)
    checks: list[tuple[str, Callable[[], tuple[bool, str]]]] = [
        ("weingarten-closed-forms", _check_wg_closed_forms),
        ("known-entry-moments", _check_known_moments),
        ("catalan-factorizations", _check_catalan),
        ("centered-consistency", _check_centered),
        ("gaussian-warmup", _check_warmup_grid),
        ("tree-growth-rate", _check_rho),
        ("lattice-resolvent", _check_resolvent),
        ("spectral-mapping", lambda: _check_mapping(rng)),
        ("sqrt-pencil", lambda: _check_sqrt(rng)),
        ("orthogonal-moments", _check_orth),
    ]
    lines = []
    all_ok = True
    for name, fn in checks:
        ok, detail = fn()
        all_ok = all_ok and ok
        lines.append(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
    lines.append("all checks passed" if all_ok else "some checks FAILED")
    payload = ("\n".join(lines) + "\n").encode()
    return payload, EXIT_OK if all_ok else EXIT_CHECK_FAILURE


# ---------------------------------------------------------------------------
# parser and dispatch


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", help="write the report here instead of stdout")
    parser.add_argument(
        "--seed",
        type=int,
        help="RNG seed; omitted, a random seed is drawn and recorded in the manifest",
    )
    parser.add_argument(
        "--threads",
        type=_positive_int,
        default=os.cpu_count() or 1,
        help="worker pool size for parallel subcommands (default: machine parallelism)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="haarmoments",
        description="Exact Haar-moment calculus and random tensor-model experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("wg-table", help="emit an exact Weingarten table as JSON")
    p.add_argument("--k", type=int, required=True, help="moment degree")
    p.add_argument("--n", type=int, required=True, help="matrix dimension")
    p.add_argument("--orthogonal", action="store_true", help="orthogonal-group table")
    p.set_defaults(handler=_cmd_wg_table)

    p = sub.add_parser(
        "centered-check",
        help="verify centered moments against inclusion-exclusion, as JSON",
    )
    p.add_argument("--k", type=int, required=True, choices=(2, 4), help="moment degree")
    p.add_argument("--n", type=int, required=True, help="matrix dimension")
    p.set_defaults(handler=_cmd_centered_check)

    p = sub.add_parser(
        "gauss-compare",
        help="compare Haar moments against shifted Gaussian majorants, as JSON",
    )
    p.add_argument("--k", type=int, required=True, choices=(2, 4), help="moment degree")
    p.add_argument("--n", type=int, required=True, help="matrix dimension")
    p.add_argument(
        "--brackets", action="store_true", help="centered comparison over partitions"
    )
    p.set_defaults(handler=_cmd_gauss_compare)

    p = sub.add_parser(
        "free-norm", help="lower norm estimate and growth-rate table for a pencil"
    )
    p.add_argument("--pencil", required=True, help="pencil JSON file")
    p.add_argument("--m", type=int, required=True, help="moment order for the estimate")
    p.add_argument("--k-max", type=int, default=10, help="largest growth-rate order")
    p.set_defaults(handler=_cmd_free_norm)

    p = sub.add_parser(
        "nb-spectrum",
        help="non-backtracking spectrum and companion singular values, as JSON",
    )
    p.add_argument("--weights", required=True, help="weight family JSON file")
    p.add_argument("--lambda-grid", required=True, help="scan grid as LO:HI:STEP")
    p.add_argument("--side", choices=("right", "left"), default="right")
    p.set_defaults(handler=_cmd_nb_spectrum)

    p = sub.add_parser(
        "freeness", help="restricted-norm convergence experiment, as CSV"
    )
    p.add_argument("--config", required=True, help="experiment config JSON file")
    p.add_argument("--trials", type=int, default=5, help="trials per dimension")
    p.set_defaults(handler=_cmd_freeness)

    p = sub.add_parser(
        "linearize", help="square-root pencil of a self-adjoint polynomial, as JSON"
    )
    p.add_argument("--poly", required=True, help="polynomial JSON file")
    p.add_argument("--d", type=int, help="generator count (default: inferred)")
    p.set_defaults(handler=_cmd_linearize)

    p = sub.add_parser("selftest", help="run the fast subset of the acceptance checks")
    p.set_defaults(handler=_cmd_selftest)

    for sub_parser in sub.choices.values():
        _add_common_flags(sub_parser)
    return parser


def _write_payload(payload: bytes, out: Optional[str]) -> str:
    if out:
        Path(out).write_bytes(payload)
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
    return hashlib.sha256(payload).hexdigest()


def _write_manifest(manifest: RunManifest, out: Optional[str]) -> None:
    if out:
        text = json.dumps(asdict(manifest), indent=2, sort_keys=True) + "\n"
        Path(str(out) + ".manifest.json").write_text(text)
    else:
        sys.stderr.write(json.dumps(asdict(manifest), sort_keys=True) + "\n")


def _config_seed(args: argparse.Namespace) -> Optional[int]:
    """Seed recorded in an experiment config, used when --seed is omitted."""
    if not getattr(args, "config", None):
        return None
    try:
        config = json.loads(Path(args.config).read_text())
    except (OSError, ValueError, json.JSONDecodeError):
        return None
    value = config.get("seed") if isinstance(config, dict) else None
    return value if type(value) is int else None


def dispatch(argv: Sequence[str]) -> int:
    """Parse, run, and report one subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    seed = args.seed
    if seed is None:
        seed = _config_seed(args)
    if seed is None:
        seed = secrets.randbits(63)
    started = time.perf_counter()
    try:
        payload, code = args.handler(args, seed)
    except (
        UnsupportedRegimeError,
        CapacityError,
        ValueError,
        KeyError,
        OSError,
        json.JSONDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    digest = _write_payload(payload, args.out)
    manifest = RunManifest(
        command=args.command,
        parameters={
            key: value
            for key, value in vars(args).items()
            if key not in ("handler", "command", "seed")
        },
        seed=seed,
        version=__version__,
        wall_time_s=time.perf_counter() - started,
        output_digest=digest,
    )
    _write_manifest(manifest, args.out)
    return code


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
