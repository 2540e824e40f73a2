"""Output checks for every benchmarked command.

Each ``check_*`` function returns a list of problems; an empty list means
the output is correct.  Exact rationals are compared with the references
recorded in ``references.json`` at the commit that introduced the
benchmark.  Floats are compared against independent routes (dense
eigen/singular-value solvers, brute-force enumeration, closed forms) within
the tolerances below, which are derived from the program's own solver
tolerances.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np

import inputs

REFERENCES = json.loads((Path(__file__).parent / "references.json").read_text())

#: Ball bounds come from bisection to 1e-9; the midpoint is within half of it.
BISECTION_TOL = 1e-9
#: Power iteration stops once a step changes the norm by at most 1e-8 (times
#: max(1, norm)).  Its estimate never exceeds the top singular value, and
#: what remains below it is about the last step divided by the error's
#: per-step decay, 1 - (s2/s1)^2 or less; the check allows ten times that.
POWER_TOL = 1e-8
POWER_GAP_SAFETY = 10.0
#: Direct dense solvers (eigvals, svd) are backward stable: errors of a few
#: hundred ulps times the dimension.
DENSE_RTOL = 1e-10
#: ``astar_norm_estimate`` uses radius 200, which its docstring puts within
#: about 1e-3 of the free limit for the small pencils used here.
BALL_TRUNCATION_TOL = 2e-3
#: Square-root residual threshold of ``haarmoments linearize``.
LINEARIZE_RESIDUAL_TOL = 1e-8
#: The files the exact workload's ``wg-table`` commands write into their
#: cache directory, by command label.
CACHE_FILES = {"wg_table": "wg-unit-k8-n10.json", "wg_table_orth": "wg-orth-k6-n8.json"}

K4_GRID_CASES = 15 * 6 * 16 * 16


def _fractions(values: dict) -> dict:
    return {key: Fraction(text) for key, text in values.items()}


def _json(payload: bytes) -> dict:
    return json.loads(payload.decode())


def check_manifest(payload: bytes, manifest_path: Path, seed: int) -> list[str]:
    """The manifest names the seed it was given and digests the payload."""
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, ValueError) as exc:
        return [f"manifest unreadable: {exc}"]
    problems = []
    if manifest.get("seed") != seed:
        problems.append(f"manifest seed {manifest.get('seed')} != {seed}")
    if manifest.get("output_digest") != hashlib.sha256(payload).hexdigest():
        problems.append("manifest digest does not match the payload")
    return problems


def check_help(stdout: bytes) -> list[str]:
    return [] if b"usage: haarmoments" in stdout else ["--help printed no usage line"]


def check_wg_table(payload: bytes, reference: str) -> list[str]:
    """Exact table equal, rational by rational, to the recorded reference."""
    ref = REFERENCES[reference]
    data = _json(payload)
    problems = [
        f"{key} {data.get(key)!r} != {ref[key]!r}"
        for key in ("k", "n", "orthogonal")
        if data.get(key) != ref[key]
    ]
    got, want = _fractions(data.get("values", {})), _fractions(ref["values"])
    if got.keys() != want.keys():
        problems.append(f"cycle types {sorted(got)} != {sorted(want)}")
    problems += [f"value at {key}: {got[key]} != {want[key]}" for key in want if got.get(key) != want[key]]
    return problems


def check_cached(cached: bytes, uncached: bytes) -> list[str]:
    return [] if cached == uncached else ["cached wg-table payload differs from the uncached one"]


def cache_stamp(path: Path) -> int | None:
    """Modification time of a cache file in ns, or None when it is missing."""
    return path.stat().st_mtime_ns if path.is_file() else None


def check_cache_hit(written: int | None, after: int | None) -> list[str]:
    """The first command wrote the cache file and the cached command left it
    alone: a command that recomputes the table rewrites the file."""
    if written is None:
        return ["the uncached wg-table command wrote no cache file"]
    if after != written:
        return ["the cached wg-table command rewrote its cache file instead of reading it"]
    return []


def check_centered(payload: bytes) -> list[str]:
    data = _json(payload)
    want = {"k": 4, "n": 6, "cases": K4_GRID_CASES, "failures": 0, "pass": True}
    return [f"{key} {data.get(key)!r} != {value!r}" for key, value in want.items() if data.get(key) != value]


def _lhs_digest(entries: list) -> str:
    text = "\n".join(entry.get("lhs_exact", "") for entry in entries)
    return hashlib.sha256(text.encode()).hexdigest()


def check_gauss(payload: bytes) -> list[str]:
    """Pass with every case counted; exact LHS bit-identical; RHS sum close."""
    ref = REFERENCES["gauss_compare_k4_n16_brackets"]
    data = _json(payload)
    want = {"check": "with-brackets", "k": 4, "n": 16, "cases": K4_GRID_CASES,
            "failures": 0, "skipped": 0, "pass": True}
    problems = [f"{key} {data.get(key)!r} != {value!r}" for key, value in want.items() if data.get(key) != value]
    entries = data.get("entries", [])
    if _lhs_digest(entries) != ref["lhs_exact_sha256"]:
        problems.append("exact left-hand sides differ from the reference")
    rhs_sum = math.fsum(entry.get("rhs") or 0.0 for entry in entries)
    if not math.isclose(rhs_sum, ref["rhs_sum"], rel_tol=DENSE_RTOL):
        problems.append(f"Gaussian right-hand sides sum to {rhs_sum!r}, reference {ref['rhs_sum']!r}")
    return problems


# ---------------------------------------------------------------------------
# tree and model workloads


def _parse_freeness(payload: bytes) -> list[dict]:
    lines = payload.decode().strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _freeness_rows(payload: bytes, sizes: tuple[int, ...], trials: int,
                   seed: int) -> tuple[list[dict], list[str]]:
    rows = _parse_freeness(payload)
    expected = [(n, trial) for n in sizes for trial in range(trials)]
    got = [(int(row["n"]), int(row["trial"])) for row in rows]
    if got != expected:
        return rows, [f"freeness rows {got} != {expected}"]
    problems = []
    for row in rows:
        norm, estimate = float(row["restricted_norm"]), float(row["astar_estimate"])
        if int(row["seed"]) != seed ^ int(row["trial"]):
            problems.append(f"trial seed {row['seed']} != {seed} ^ {row['trial']}")
        if not math.isclose(float(row["deviation"]), abs(norm - estimate), rel_tol=1e-12, abs_tol=1e-15):
            problems.append(f"deviation {row['deviation']} != |{norm} - {estimate}|")
        if not float(row["wall_time_ms"]) > 0:
            problems.append(f"wall time {row['wall_time_ms']} not positive")
    return rows, problems


def _coefficient_scale(pencil_path: Path) -> float:
    """``||a0|| + sum ||a_i||``, an upper bound for the pencil's norm."""
    _, a0, a = inputs.read_pencil(pencil_path)
    return float(np.linalg.norm(a0, 2) + sum(np.linalg.norm(m, 2) for m in a))


def _dense_ball_extremes(pencil_path: Path, radius: int) -> tuple[float, float]:
    """Extreme eigenvalues of the ball compression, built here densely."""
    d, a0, a = inputs.read_pencil(pencil_path)
    words = [()]
    frontier = [()]
    for _ in range(radius):
        frontier = [(c,) + w for w in frontier for c in range(2 * d) if not w or w[0] != (c + d) % (2 * d)]
        words += frontier
    index = {w: i for i, w in enumerate(words)}
    r = a0.shape[0]
    matrix = np.zeros((r * len(words), r * len(words)), dtype=complex)
    for col, w in enumerate(words):
        matrix[col * r:(col + 1) * r, col * r:(col + 1) * r] += a0
        for c in range(2 * d):
            target = w[1:] if w and w[0] == (c + d) % (2 * d) else (c,) + w
            row = index.get(target)
            if row is not None:
                matrix[row * r:(row + 1) * r, col * r:(col + 1) * r] += a[c]
    eigenvalues = np.linalg.eigvalsh((matrix + matrix.conj().T) / 2)
    return float(eigenvalues[0]), float(eigenvalues[-1])


@lru_cache(maxsize=None)
def dense_singular_values(pencil_path: Path, n: int, seed: int) -> np.ndarray:
    """Singular values of the restricted model of one trial, formed densely
    here from the trial's unitaries, drawn as ``build_instance`` draws them.

    With q = (1, 1) colour c < d acts on C^n (x) C^n as conj(U_c) (x) U_c
    and colour c + d as its adjoint.  The invariant part is spanned, in each
    coefficient row, by vec(I) / sqrt(n); the restricted model is
    (1 - E E*) M (1 - E E*) with E the matrix of those vectors.
    """
    from haarmoments.haarmodel import model_rng, sample_haar_unitary

    d, a0, a = inputs.read_pencil(pencil_path)
    rng = model_rng(seed)
    unitaries = [sample_haar_unitary(n, rng) for _ in range(d)]
    images = [np.kron(u.conj(), u) for u in unitaries]
    images += [image.conj().T for image in images]
    matrix = np.kron(a0, np.eye(n * n)) + sum(np.kron(c, image) for c, image in zip(a, images))
    invariant = np.kron(np.eye(a0.shape[0]), np.eye(n).reshape(-1, 1) / np.sqrt(n))
    left = matrix - invariant @ (invariant.conj().T @ matrix)
    restricted = left - (left @ invariant) @ invariant.conj().T
    if np.allclose(restricted, restricted.conj().T, rtol=0.0, atol=DENSE_RTOL):
        # Self-adjoint pencils give a Hermitian model, whose singular values
        # are its eigenvalues' moduli; eigvalsh is about twice as fast.
        return np.sort(np.abs(np.linalg.eigvalsh(restricted)))[::-1]
    return np.linalg.svd(restricted, compute_uv=False)


def power_norm_problem(norm: float, singular_values: np.ndarray) -> str | None:
    """Power iteration may end below the top singular value by what its
    stopping rule allows for this instance's gap, and never above it."""
    top, second = float(singular_values[0]), float(singular_values[1])
    allowed = POWER_GAP_SAFETY * POWER_TOL * max(1.0, top) / (1 - (second / top) ** 2)
    if top * (1 + DENSE_RTOL) >= norm >= top - allowed:
        return None
    return f"norm {norm!r} vs dense top singular value {top!r} (allowed {allowed:.2e} below)"


def _check_freeness(payload: bytes, pencil_path: Path, seed: int, sizes: tuple[int, ...], trials: int,
                    estimate_range: tuple[float, float]) -> list[str]:
    """Norms agree with dense SVDs of the same instances; the free estimate
    lies in ``estimate_range``."""
    rows, problems = _freeness_rows(payload, sizes, trials, seed)
    if problems:
        return problems
    low, high = estimate_range
    for row in rows:
        norm, estimate = float(row["restricted_norm"]), float(row["astar_estimate"])
        problem = power_norm_problem(norm, dense_singular_values(pencil_path, int(row["n"]), int(row["seed"])))
        if problem:
            problems.append(f"n={row['n']} trial {row['trial']}: {problem}")
        if not low <= estimate <= high:
            problems.append(f"free estimate {estimate!r} outside [{low!r}, {high!r}]")
    return problems


def check_tree_freeness(payload: bytes, pencil_path: Path, seed: int) -> list[str]:
    """The free estimate lies between a dense radius-3 ball bound and the
    coefficient scale."""
    low, high = _dense_ball_extremes(pencil_path, 3)
    estimate_range = (max(abs(low), abs(high)) - BISECTION_TOL, _coefficient_scale(pencil_path) + BISECTION_TOL)
    return _check_freeness(payload, pencil_path, seed, inputs.TREE_FREENESS_N, inputs.TREE_TRIALS, estimate_range)


def check_model_freeness(payload: bytes, pencil_path: Path, seed: int) -> list[str]:
    """Uniform pencil: the free estimate is within the ball truncation below
    the exact free limit 2 sqrt(2d - 1)."""
    free_value = 2 * math.sqrt(2 * inputs.D - 1)
    estimate_range = (free_value - BALL_TRUNCATION_TOL, free_value + BISECTION_TOL)
    return _check_freeness(payload, pencil_path, seed, inputs.MODEL_FREENESS_N, inputs.MODEL_TRIALS, estimate_range)


def _brute_force_rho(d: int, a: list[np.ndarray], k: int) -> float:
    """``rho_k`` by enumerating every non-backtracking colour sequence."""
    best = 0.0
    for start in range(2 * d):
        gram = np.zeros_like(a[0])
        for tail in itertools.product(range(2 * d), repeat=k - 1):
            word = (start,) + tail
            if any(b == (c + d) % (2 * d) for c, b in zip(word, word[1:])):
                continue
            product = np.eye(a[0].shape[0], dtype=complex)
            for c in word:
                product = product @ a[c]
            gram = gram + product.conj().T @ product
        best = max(best, float(np.linalg.eigvalsh((gram + gram.conj().T) / 2)[-1]))
    return ((2 * d - 1) * best) ** (1 / (2 * k))


def check_free_norm(payload: bytes, pencil_path: Path, m: int, k_max: int) -> list[str]:
    """Growth rates match brute-force enumeration for k <= 4; the lower
    estimate lies between the dense radius-3 ball bound and the norm bound."""
    data = _json(payload)
    d, _, a = inputs.read_pencil(pencil_path)
    problems = [f"{key} {data.get(key)!r} != {value!r}"
                for key, value in (("d", d), ("coeff_dim", a[0].shape[0]), ("m", m)) if data.get(key) != value]
    rho = data.get("rho_k", {})
    if sorted(rho, key=int) != [str(k) for k in range(1, k_max + 1)]:
        return problems + [f"rho_k orders {sorted(rho)} != 1..{k_max}"]
    for k in range(1, 5):
        reference = _brute_force_rho(d, a, k)
        if not math.isclose(rho[str(k)], reference, rel_tol=DENSE_RTOL):
            problems.append(f"rho_{k} {rho[str(k)]!r} vs enumeration {reference!r}")
    scale = _coefficient_scale(pencil_path)
    estimate = data.get("lower_estimate")
    if not (isinstance(estimate, float) and 0 < estimate <= scale + BISECTION_TOL):
        problems.append(f"lower estimate {estimate!r} outside (0, {scale!r}]")
    return problems


def _nb_matrix(weights: list[np.ndarray]) -> np.ndarray:
    ell, dim = len(weights), weights[0].shape[0]
    matrix = np.zeros((ell * dim, ell * dim), dtype=complex)
    for i in range(ell):
        for j in range(ell):
            if j != (i + ell // 2) % ell:
                matrix[i * dim:(i + 1) * dim, j * dim:(j + 1) * dim] = weights[j]
    return matrix


def _companion_min_sv(weights: list[np.ndarray], lam: float) -> float:
    ell, dim = len(weights), weights[0].shape[0]
    eye = np.eye(dim)
    total = -eye.astype(complex)
    for i in range(ell):
        star = weights[(i + ell // 2) % ell]
        inverse = np.linalg.inv(lam**2 * eye - star @ weights[i])
        total += lam * weights[i] @ inverse - weights[i] @ inverse @ star
    return float(np.linalg.svd(total, compute_uv=False)[-1])


def check_nb_spectrum(payload: bytes, weights_path: Path) -> list[str]:
    """Eigenvalue power sums match traces of an independently built NB
    matrix; three grid points match an independent companion evaluation."""
    data = _json(payload)
    weights = [inputs.load_matrix(w) for w in json.loads(weights_path.read_text())["weights"]]
    matrix = _nb_matrix(weights)
    dim = matrix.shape[0]
    problems = []
    if data.get("dimension") != dim or len(data.get("spectrum", [])) != dim:
        return [f"dimension {data.get('dimension')} / {len(data.get('spectrum', []))} eigenvalues != {dim}"]
    spectrum = np.array([complex(re, im) for re, im in data["spectrum"]])
    norm = float(np.linalg.norm(matrix, 2))
    power = np.eye(dim, dtype=complex)
    for p in (1, 2, 3):
        power = power @ matrix
        trace, power_sum = complex(np.trace(power)), complex(np.sum(spectrum**p))
        if abs(trace - power_sum) > DENSE_RTOL * dim * max(1.0, norm) ** p:
            problems.append(f"sum of eigenvalues^{p} {power_sum!r} != trace {trace!r}")
    grid = data.get("grid", [])
    lambdas = inputs.lambda_grid()
    if [point["lambda"] for point in grid] != lambdas:
        return problems + ["lambda grid differs from the requested one"]
    for index in (1, len(grid) // 2, len(grid) - 1):
        got = grid[index]["min_singular_value"]
        reference = _companion_min_sv(weights, lambdas[index])
        if got is None or abs(got - reference) > 1e-8 * (1 + reference):
            problems.append(f"companion min singular value at {lambdas[index]}: {got!r} vs {reference!r}")
    return problems


def check_linearize(payload: bytes) -> list[str]:
    data = _json(payload)
    support = sum(2 * inputs.D * (2 * inputs.D - 1) ** (r - 1) for r in range(1, inputs.POLY_DEGREE // 2 + 1)) + 1
    want = {"d": inputs.D, "degree": inputs.POLY_DEGREE, "support_size": support}
    problems = [f"{key} {data.get(key)!r} != {value!r}" for key, value in want.items() if data.get(key) != value]
    residual = data.get("residual")
    if not (isinstance(residual, float) and residual <= LINEARIZE_RESIDUAL_TOL):
        problems.append(f"square-root residual {residual!r} > {LINEARIZE_RESIDUAL_TOL}")
    return problems


# ---------------------------------------------------------------------------
# the checker must flag corrupted payloads


def _corrupt_json(payload: bytes, edit) -> bytes:
    data = _json(payload)
    edit(data)
    return json.dumps(data).encode()


def _corrupt_first_value(data: dict) -> None:
    key = sorted(data["values"])[0]
    value = Fraction(data["values"][key])
    data["values"][key] = str(value + Fraction(1, 10**30))


def _wrong_first_norms(payload: bytes, pencil_path: Path) -> dict[str, bytes]:
    """The payload with its first restricted norm set 1e-6 above the top
    singular value, and 5% below it; the deviation column is kept
    consistent so that only the norm itself is wrong."""
    lines = payload.decode().splitlines()
    row = _parse_freeness(payload)[0]
    top = float(dense_singular_values(pencil_path, int(row["n"]), int(row["seed"]))[0])
    wrong = {}
    for label, norm in (("1e-6 above", top * (1 + 1e-6)), ("5% below", top * 0.95)):
        fields = lines[1].split(",")
        fields[3], fields[5] = repr(norm), repr(abs(norm - float(fields[4])))
        wrong[label] = "\n".join([lines[0], ",".join(fields)] + lines[2:]).encode() + b"\n"
    return wrong


def corruption_misses(payloads: dict[str, bytes], context: dict) -> list[str]:
    """Corrupt each available payload slightly; return the checks that
    failed to notice.  ``payloads`` maps command labels to pass-0 output."""
    flagged: dict[str, list[str]] = {}
    if "wg_table" in payloads:
        good = payloads["wg_table"]
        flagged["wg-table value off by 1e-30"] = check_wg_table(
            _corrupt_json(good, _corrupt_first_value), "wg_unit_k8_n10")
        flagged["cached payload with one byte changed"] = check_cached(good.replace(b"/", b"/1", 1), good)
        flagged["cache file rewritten by the cached command"] = check_cache_hit(1, 2)
        flagged["no cache file written"] = check_cache_hit(None, None)
    if "gauss_compare" in payloads:

        def flip(data: dict) -> None:
            data["entries"][-1]["lhs_exact"] = "1/3"

        flagged["gauss-compare exact LHS changed"] = check_gauss(_corrupt_json(payloads["gauss_compare"], flip))
    if "centered_check" in payloads:
        flagged["centered-check with a dropped case"] = check_centered(
            _corrupt_json(payloads["centered_check"], lambda d: d.update(cases=d["cases"] - 1)))
    if "freeness" in payloads:
        check = check_tree_freeness if context["workload"] == "tree" else check_model_freeness
        for label, bad in _wrong_first_norms(payloads["freeness"], context["pencil"]).items():
            flagged[f"{context['workload']} freeness norm {label} the top singular value"] = check(
                bad, context["pencil"], context["seed"])
    if "linearize" in payloads:
        flagged["linearize residual above tolerance"] = check_linearize(
            _corrupt_json(payloads["linearize"], lambda d: d.update(residual=1e-6)))
    return [label for label, problems in flagged.items() if not problems]
