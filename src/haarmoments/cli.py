"""Command-line front end tying every module into reproducible runs.

Each subcommand parses flags, computes a report, writes it to ``--out``
or stdout, and emits exactly one run manifest: next to the output file
as ``OUT.manifest.json`` when ``--out`` is given, otherwise as a single
JSON line on stderr.  Structured math goes out as JSON with rationals
encoded as ``"numerator/denominator"`` strings; experiment tables go
out as CSV.  Given the same subcommand and seed, payload bytes are
identical across runs on one machine, except for measured wall-time
columns, which are genuinely nondeterministic.  Usage, input, regime,
capacity and file errors exit 2, and an eigensolve that does not converge
exits 1, each with one ``error:`` line.

Module level imports only the standard library: each handler imports the
layers it runs, and numpy only if it needs it, so ``--help`` and the exact
subcommands never load numpy.  Every JSON input file is checked by one
declarative helper, ``_require``, which names the file and the key at fault.
Every JSON payload, cache file and manifest file is encoded by ``_json_bytes``
byte for byte as ``json.dumps(indent=2, sort_keys=True, allow_nan=False)``
would encode it.  Every file, ``--out``, its manifest and a cache table, is
written by ``_write_files`` to a new temporary name beside it and renamed over
it, ``--out`` and its manifest both before either rename.
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
import time
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence

from . import __version__

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2

#: Most points a ``nb-spectrum --lambda-grid`` may request.
MAX_GRID_POINTS = 100_000

#: Residual threshold below which a produced square-root pencil counts as valid.
LINEARIZE_RESIDUAL_TOL = 1e-8

#: Environment variable naming the directory for memoized Weingarten tables.
CACHE_ENV_VAR = "HAARMOMENTS_CACHE"


def _fraction_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _type_key(ct: tuple[int, ...]) -> str:
    return ",".join(str(part) for part in ct)


def _finite(value: float) -> Optional[float]:
    return float(value) if math.isfinite(value) else None


def _json_bytes(payload: object) -> bytes:
    """The bytes of ``json.dumps(payload, indent=2, sort_keys=True,
    allow_nan=False) + "\\n"``, for every payload, cache file and manifest file.

    ``json`` falls back to its pure-Python encoder when it indents, which
    makes a chunk per token; this writer builds the same text with a few
    ``str`` operations per container.  Non-finite floats raise ValueError
    and unencodable values TypeError, as in ``json``; so do non-``str``
    keys, which ``json`` would convert.
    """
    text = _JsonText().value(payload, 0)
    text += "\n"  # rebinding frees the first copy before the encode copies
    return text.encode()


def _float_text(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    return float.__repr__(value)


#: Leaf types of a rectangular nest, each with its encoding.  A ``bool`` is
#: not an ``int`` here, so a nest of ``1``s and one of ``True``s never mix.
_LEAF_TEXT = {
    float: float.__repr__,
    int: int.__repr__,
    str: json.encoder.encode_basestring_ascii,
    bool: ("false", "true").__getitem__,
}
_SEQUENCES = frozenset((list, tuple))


def _rectangular(items: Sequence) -> Optional[tuple[tuple[int, ...], type, list]]:
    """``(shape, leaf type, leaves in row-major order)`` when the nonempty
    ``items`` nest lists and tuples to one depth, every level of one nonzero
    length, and the leaves share one exact type of ``_LEAF_TEXT``; else None."""
    shape = (len(items),)
    leaves = items
    kinds = set(map(type, leaves))
    while kinds <= _SEQUENCES:
        sizes = set(map(len, leaves))
        size = sizes.pop()
        if sizes or not size:
            return None
        shape += (size,)
        leaves = list(itertools.chain.from_iterable(leaves))
        kinds = set(map(type, leaves))
    if len(kinds) == 1:
        kind = kinds.pop()
        if kind in _LEAF_TEXT:
            return shape, kind, leaves
    return None


class _JsonText:
    """The JSON text of one payload, as ``json.dumps(indent=2,
    sort_keys=True, allow_nan=False)`` writes it.

    A dict is one ``%`` template, built once per key tuple and depth.  A
    rectangular nest is joined one level at a time, by one template per
    level.  Repeated nests are encoded once: the memo key holds the exact
    leaf type, so ``[1]``, ``[True]`` and ``[1.0]`` never share an entry;
    float nests are not memoised, since ``0.0 == -0.0``.
    """

    def __init__(self) -> None:
        self._templates: dict = {}
        self._memo: dict = {}

    def value(self, value: object, depth: int) -> str:
        """The text of ``value`` at ``depth``, its types tested in json's order."""
        if isinstance(value, str):
            return json.encoder.encode_basestring_ascii(value)
        if value is None:
            return "null"
        if value is True:
            return "true"
        if value is False:
            return "false"
        if isinstance(value, int):
            return int.__repr__(value)
        if isinstance(value, float):
            return _float_text(value)
        if isinstance(value, (list, tuple)):
            return self._list(value, depth)
        if isinstance(value, dict):
            return self._dict(value, depth)
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")

    def _dict(self, dct: dict, depth: int) -> str:
        if not dct:
            return "{}"
        found = self._templates.get((tuple(dct), depth))
        if found is None:
            keys = sorted(dct)
            for key in keys:
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
            inner = "\n" + "  " * (depth + 1)
            fields = [
                inner + json.encoder.encode_basestring_ascii(key).replace("%", "%%") + ": %s"
                for key in keys
            ]
            template = "{" + ",".join(fields) + "\n" + "  " * depth + "}"
            found = self._templates[tuple(dct), depth] = template, keys
        template, keys = found
        return template % tuple([self.value(dct[key], depth + 1) for key in keys])

    def _list(self, items: Sequence, depth: int) -> str:
        if not items:
            return "[]"
        nest = _rectangular(items)
        if nest is None:
            inner = "\n" + "  " * (depth + 1)
            texts = [self.value(item, depth + 1) for item in items]
            # brackets go on the end items, so the one large string is the join
            texts[0] = "[" + inner + texts[0]
            texts[-1] += "\n" + "  " * depth + "]"
            return ("," + inner).join(texts)
        shape, kind, leaves = nest
        key = None if kind is float else (depth, shape, kind, tuple(leaves))
        text = self._memo.get(key)
        if text is not None:
            return text
        if kind is float and not all(map(math.isfinite, leaves)):
            _float_text(next(v for v in leaves if not math.isfinite(v)))  # raises
        texts = list(map(_LEAF_TEXT[kind], leaves))
        for level in reversed(range(len(shape))):
            inner = "\n" + "  " * (depth + level + 1)
            template = "[" + inner + ("," + inner).join(["%s"] * shape[level])
            template += "\n" + "  " * (depth + level) + "]"
            texts = list(map(template.__mod__, zip(*[iter(texts)] * shape[level])))
        if key is not None:
            self._memo[key] = texts[0]
        return texts[0]


_JSON_NAMES = {bool: "true or false", int: "an integer", str: "a string", list: "a JSON list",
               dict: "a JSON object"}


def _require(value, kind, what: str):
    """Return decoded JSON ``value`` if it has ``kind``; else raise ValueError.

    A kind is a JSON type, matched exactly (``true`` and ``2.0`` are not
    ``int``); ``[kind]``, a list of such values; ``{key: kind}``, an object
    with those keys; or ``(kind, None)``, that kind or null, and as an
    object key also absent.  The message names ``what`` and the key at fault.
    """
    if isinstance(kind, tuple):
        return value if value is None else _require(value, kind[0], what)
    if isinstance(kind, dict):
        _require(value, dict, what)
        for key, field in kind.items():
            if key not in value and not isinstance(field, tuple):
                raise ValueError(f'{what} is missing "{key}"')
            _require(value.get(key), field, f'{what} "{key}"')
    elif isinstance(kind, list):
        for item in _require(value, list, what):
            _require(item, kind[0], f"{what} item")
    elif type(value) is not kind:
        raise ValueError(f"{what} must be {_JSON_NAMES[kind]}")
    return value


def _matrix_from_json(data: object):
    import numpy as np
    message = "matrix entries must be [re, im] pairs in a rectangular grid"
    try:
        arr = np.array(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(message) from exc
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ValueError(message)
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")
    return arr[:, :, 0] + 1j * arr[:, :, 1]


def _load_pencil(path: Path):
    import numpy as np
    from .freegroup import MatrixPencil
    data = _require(
        json.loads(path.read_text()),
        {"d": int, "coeff_dim": int, "a": list, "a0": (list, None)},
        "pencil file",
    )
    r = data["coeff_dim"]
    a = tuple(_matrix_from_json(entry) for entry in data["a"])
    a0 = data.get("a0")
    # A zero-strided view, empty below r = 1: nothing sized by the unchecked
    # coeff_dim is allocated before MatrixPencil has checked it and ``a``.
    a0 = np.broadcast_to(0j, (max(r, 0),) * 2) if a0 is None else _matrix_from_json(a0)
    return MatrixPencil(d=data["d"], coeff_dim=r, a0=a0, a=a)


def _all_epsilons(k: int) -> list:
    from .symcore import BAR, DOT, EpsilonSequence
    return [EpsilonSequence(signs) for signs in itertools.product((DOT, BAR), repeat=k)]


def _index_tuples(k: int) -> list[tuple[int, ...]]:
    return list(itertools.product((1, 2), repeat=k))


def _warmup_cases(k: int) -> Iterator:
    """Every degree-``k`` warm-up case ``(eps, x, y)``, by signs, x, then y."""
    indices = _index_tuples(k)
    return itertools.product(_all_epsilons(k), indices, indices)


def _bracket_specs(k: int) -> Iterator:
    """Every degree-``k`` bracket moment, by partition, balanced signs, x, then y."""
    from .centered_wg import BracketMomentSpec
    from .symcore import enumerate_set_partitions
    balanced = [eps for eps in _all_epsilons(k) if eps.is_balanced()]
    indices = _index_tuples(k)
    for pi, eps, x, y in itertools.product(
        enumerate_set_partitions(k), balanced, indices, indices
    ):
        yield BracketMomentSpec(pi=pi, eps=eps, x=x, y=y)


def _spec_fields(spec) -> dict:
    return {
        "pi": [sorted(block) for block in spec.pi.blocks],
        "eps": "".join(spec.eps.signs),
        "x": list(spec.x),
        "y": list(spec.y),
    }


# ---------------------------------------------------------------------------
# subcommand handlers; each imports its own layers and returns
# (payload bytes, exit code)


def _seed(args: argparse.Namespace, fallback: Optional[int] = None) -> int:
    """``--seed``, else ``fallback``, else a random seed; fixed in ``args`` on first use."""
    if args.seed is None:
        args.seed = fallback if fallback is not None else secrets.randbits(63)
    return args.seed


def _cmd_wg_table(args: argparse.Namespace) -> tuple[bytes, int]:
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
    skips building the table, unitary by characters and orthogonal by the
    Gram solve.  A file that does not hold exactly the requested table
    counts as a miss and is replaced through ``_write_files``, so no reader
    sees a partial table.
    """
    cache_dir = os.environ.get(CACHE_ENV_VAR)
    path = None
    if cache_dir:
        path = Path(cache_dir) / f"wg-{'orth' if orthogonal else 'unit'}-k{k}-n{n}.json"
        values = _read_cached_table(path, k, n, orthogonal)
        if values is not None:
            return values
    from .weingarten import wg_exact, wg_orth_exact
    table = wg_orth_exact(k, n) if orthogonal else wg_exact(k, n)
    values = {
        _type_key(ct): _fraction_str(value) for ct, value in sorted(table.values.items())
    }
    if path is not None:
        data = _json_bytes({"k": k, "n": n, "orthogonal": orthogonal, "values": values})
        path.parent.mkdir(parents=True, exist_ok=True)
        _write_files([(path, data)])
    return values


def _read_cached_table(
    path: Path, k: int, n: int, orthogonal: bool
) -> Optional[dict[str, str]]:
    """The values of a cache file, or None unless its header, its type keys
    and every canonical rational match the requested table."""
    try:
        data = _require(
            json.loads(path.read_text()),
            {"k": int, "n": int, "orthogonal": bool, "values": dict},
            "cache file",
        )
    except (OSError, ValueError):
        return None
    if (data["k"], data["n"], data["orthogonal"]) != (k, n, orthogonal):
        return None
    from .weingarten import integer_partitions
    values = data["values"]
    types = integer_partitions(k // 2 if orthogonal else k)
    if set(values) != {_type_key(ct) for ct in types}:
        return None
    try:
        if all(_fraction_str(Fraction(value)) == value for value in values.values()):
            return values
    except (TypeError, ValueError, ZeroDivisionError):
        pass
    return None


def _centered_mismatches(k: int, n: int) -> tuple[int, list[dict]]:
    """Case count, and the cases where the two centered-moment routes differ."""
    from .centered_wg import bracket_expansion, centered_moment
    cases = 0
    failures = []
    for spec in _bracket_specs(k):
        lhs = centered_moment(spec, n)
        rhs = bracket_expansion(spec, n)
        cases += 1
        if lhs != rhs:
            failures.append(
                {
                    **_spec_fields(spec),
                    "matching_sum": _fraction_str(lhs),
                    "bracket_expansion": _fraction_str(rhs),
                }
            )
    return cases, failures


def _cmd_centered_check(args: argparse.Namespace) -> tuple[bytes, int]:
    k, n = args.k, args.n
    cases, failures = _centered_mismatches(k, n)
    payload = {
        "k": k,
        "n": n,
        "cases": cases,
        "failures": len(failures),
        "pass": not failures,
        "examples": failures[:10],
    }
    return _json_bytes(payload), EXIT_OK if not failures else EXIT_CHECK_FAILURE


def _report_entry(report, extra: dict) -> dict:
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


def _cmd_gauss_compare(args: argparse.Namespace) -> tuple[bytes, int]:
    from .wick import check_warmup, check_with_brackets
    k, n = args.k, args.n
    entries = []
    if args.brackets:
        for spec in _bracket_specs(k):
            entries.append(_report_entry(check_with_brackets(spec, n), _spec_fields(spec)))
    else:
        for eps, x, y in _warmup_cases(k):
            fields = {"eps": "".join(eps.signs), "x": list(x), "y": list(y)}
            entries.append(_report_entry(check_warmup(x, y, eps, n), fields))
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


def _cmd_free_norm(args: argparse.Namespace) -> tuple[bytes, int]:
    from .freegroup import astar_norm_lower, rho_k
    pencil = _load_pencil(Path(args.pencil))
    estimate = astar_norm_lower(pencil, args.m, seed=_seed(args))
    # Highest order first, so that an order over the cap is refused at once.
    rho_table = {str(k): rho_k(pencil, k) for k in range(args.k_max, 0, -1)}
    payload = {
        "d": pencil.d,
        "coeff_dim": pencil.coeff_dim,
        "m": args.m,
        "lower_estimate": estimate,
        "rho_k": rho_table,
    }
    return _json_bytes(payload), EXIT_OK


def _parse_grid(text: str) -> list[float]:
    from .symcore import CapacityError
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


def _cmd_nb_spectrum(args: argparse.Namespace) -> tuple[bytes, int]:
    import numpy as np
    from .nonbacktracking import build_companion, build_nb, mapping_family
    lambdas = _parse_grid(args.lambda_grid)
    data = json.loads(Path(args.weights).read_text())
    if isinstance(data, dict):  # {"weights": [...]} or the bare list
        data = _require(data, {"weights": list}, "weights file")["weights"]
    matrices = _require(data, list, "weights file")
    weights = mapping_family([_matrix_from_json(entry) for entry in matrices])
    op = build_nb(weights, side=args.side)
    spectrum = sorted(np.linalg.eigvals(op.matrix), key=lambda z: (z.real, z.imag))
    grid = []
    for lam in lambdas:
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


def _cmd_freeness(args: argparse.Namespace) -> tuple[bytes, int]:
    from .haarmodel import ModelConfig, freeness_experiment
    config_path = Path(args.config)
    config = _require(
        json.loads(config_path.read_text()),
        {
            "n": [int],
            "d": int,
            "q_minus": int,
            "q_plus": int,
            "pencil": str,
            "seed": (int, None),
        },
        "freeness config",
    )
    seed = _seed(args, config.get("seed"))
    pencil = _load_pencil(config_path.parent / config["pencil"])
    configs = [
        ModelConfig(
            n=n,
            d=config["d"],
            q_minus=config["q_minus"],
            q_plus=config["q_plus"],
            coeff_dim=pencil.coeff_dim,
            pencil=pencil,
            seed=seed,
        )
        for n in config["n"]
    ]
    table = freeness_experiment(configs, trials=args.trials, threads=args.threads)
    lines = ["n,trial,seed,restricted_norm,astar_estimate,deviation,wall_time_ms"]
    for row in table.rows:
        lines.append(
            f"{row.n},{row.trial},{row.seed},{row.restricted_norm!r},"
            f"{row.astar_estimate!r},{row.deviation!r},{row.wall_time_ms!r}"
        )
    return ("\n".join(lines) + "\n").encode(), EXIT_OK


def _cmd_linearize(args: argparse.Namespace) -> tuple[bytes, int]:
    import numpy as np
    from .freegroup import ReducedWord
    from .linearization import (
        GroupPolynomial, sqrt_identity_residual, sqrt_pencil, symmetric_ball
    )
    data = _require(
        json.loads(Path(args.poly).read_text()),
        [{"word": [int], "matrix": list}],
        "polynomial file",
    )
    d = args.d
    coeffs = {}
    for entry in data:
        w = ReducedWord(d, tuple(entry["word"]))
        matrix = _matrix_from_json(entry["matrix"])
        if w in coeffs and coeffs[w].shape != matrix.shape:
            raise ValueError("coefficients must share one shape")
        coeffs[w] = coeffs.get(w, 0) + matrix
    poly = GroupPolynomial(d, coeffs)
    support = symmetric_ball(d, (poly.degree + 1) // 2)
    result = sqrt_pencil(poly, support)
    residual = sqrt_identity_residual(result, poly)
    root = result.pencil
    pencil = []
    for w in root.support:
        matrix = root.coefficient(w)
        pencil.append({
            "word": list(w.letters),
            "matrix": np.stack([matrix.real, matrix.imag], -1).tolist(),
        })
    payload = {
        "d": d,
        "degree": poly.degree,
        "support_size": len(support),
        "shift": result.shift,
        "effective_shift": result.effective_shift,
        "residual": residual,
        "pencil": pencil,
    }
    code = EXIT_OK if residual <= LINEARIZE_RESIDUAL_TOL else EXIT_CHECK_FAILURE
    return _json_bytes(payload), code


# ---------------------------------------------------------------------------
# selftest: the fast slice of the acceptance checks, inlined


def _check_wg_closed_forms() -> tuple[bool, str]:
    from .weingarten import wg_exact
    for n in range(2, 7):
        table = wg_exact(2, n)
        if table.values[(1, 1)] != Fraction(1, n * n - 1):
            return False, f"identity value wrong at n={n}"
        if table.values[(2,)] != Fraction(-1, n * (n * n - 1)):
            return False, f"transposition value wrong at n={n}"
        if wg_exact(1, n).values[(1,)] != Fraction(1, n):
            return False, f"degree-1 value wrong at n={n}"
    return True, "k <= 2 closed forms exact for n in 2..6"


def _check_wg_gram_identity() -> tuple[bool, str]:
    """The route ``wg_exact`` does not take: its tables invert the Gram matrix."""
    from .symcore import Permutation, all_permutations, cycle_type
    from .weingarten import wg_exact
    for k in range(1, 5):
        group = all_permutations(k)
        identity = Permutation.identity(k)
        for n in range(k, 7):
            table = wg_exact(k, n)
            for sigma in group:
                total = sum(
                    n ** len(cycle_type(sigma.compose(tau.invert()))) * table.value(tau)
                    for tau in group
                )
                if total != int(sigma == identity):
                    return False, f"Gram identity fails at k={k}, n={n}, sigma={sigma.images}"
    return True, "sum_tau n^cycles(sigma tau^-1) Wg(tau, n) = [sigma = id], k <= 4, n in k..6"


def _check_known_moments() -> tuple[bool, str]:
    from .weingarten import haar_moment
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
    from .symcore import all_permutations, cycle_type
    from .weingarten import catalan, hurwitz_count
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
    cases, failures = _centered_mismatches(2, n)
    if failures:
        return False, f"route mismatch at x={failures[0]['x']}, y={failures[0]['y']}"
    return True, f"{cases} matching-sum vs inclusion-exclusion cases exact at n={n}"


def _check_warmup_grid() -> tuple[bool, str]:
    from .wick import check_warmup
    n = 16
    cases = 0
    for eps, x, y in _warmup_cases(2):
        report = check_warmup(x, y, eps, n)
        if report.skipped or not report.passes:
            return False, f"warmup failed at eps={''.join(eps.signs)}"
        cases += 1
    return True, f"{cases} Gaussian-domination cases hold at k=2, n={n}"


def _check_rho() -> tuple[bool, str]:
    from .freegroup import MatrixPencil, rho_k
    for d in (1, 2):
        pencil = MatrixPencil.from_scalars(d, 0.0, [1.0] * (2 * d))
        for k in range(1, 9):
            if abs(rho_k(pencil, k) - math.sqrt(2 * d - 1)) > 1e-12:
                return False, f"growth rate off at d={d}, k={k}"
    return True, "uniform-weight growth rates equal sqrt(2d-1), d <= 2, k <= 8"


def _check_resolvent() -> tuple[bool, str]:
    from .freegroup import MatrixPencil, ReducedWord, resolvent_entries
    pencil = MatrixPencil.from_scalars(1, 0.0, [1.0, 1.0])
    root = ReducedWord.identity(1)
    value = resolvent_entries(pencil, 3.0, [root])[root][0, 0]
    if abs(value - 1 / math.sqrt(5)) > 1e-6:
        return False, f"one-generator resolvent off: {value}"
    return True, "one-generator resolvent at mu=3 within 1e-6"


def _check_mapping(rng) -> tuple[bool, str]:
    from .nonbacktracking import verify_spectral_mapping
    for side in ("right", "left"):
        weights = [
            rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            for _ in range(4)
        ]
        if not verify_spectral_mapping(weights, side=side).all_pass:
            return False, f"spectral mapping failed on side={side}"
    return True, "eigenvalue-kernel correspondence holds on both sides"


def _check_sqrt(rng) -> tuple[bool, str]:
    import numpy as np
    from .freegroup import ReducedWord
    from .linearization import (
        GroupPolynomial, poly_norm, sqrt_identity_residual, sqrt_pencil, symmetric_ball
    )
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
    from .weingarten import orth_moment
    n = 4
    if orth_moment((1, 1, 1, 1), (1, 1, 1, 1), n) != Fraction(3, n * (n + 2)):
        return False, "diagonal fourth moment wrong"
    if orth_moment((1, 1, 2, 2), (1, 1, 2, 2), n) != Fraction(
        n + 1, n * (n - 1) * (n + 2)
    ):
        return False, "mixed fourth moment wrong"
    return True, "orthogonal fourth moments exact at n=4"


def _cmd_selftest(args: argparse.Namespace) -> tuple[bytes, int]:
    import numpy as np
    rng = np.random.default_rng(_seed(args))
    checks: list[tuple[str, Callable[[], tuple[bool, str]]]] = [
        ("weingarten-closed-forms", _check_wg_closed_forms),
        ("weingarten-gram-identity", _check_wg_gram_identity),
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
    p.add_argument("--n", type=_positive_int, required=True, help="matrix dimension")
    p.add_argument(
        "--brackets", action="store_true", help="centered comparison over partitions"
    )
    p.set_defaults(handler=_cmd_gauss_compare)

    p = sub.add_parser(
        "free-norm", help="lower norm estimate and growth-rate table for a pencil"
    )
    p.add_argument("--pencil", required=True, help="pencil JSON file")
    p.add_argument("--m", type=int, required=True, help="moment order for the estimate")
    p.add_argument("--k-max", type=_positive_int, default=10, help="largest growth-rate order")
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
    p.add_argument("--d", type=int, required=True, help="generator count")
    p.set_defaults(handler=_cmd_linearize)

    p = sub.add_parser("selftest", help="run the fast subset of the acceptance checks")
    p.set_defaults(handler=_cmd_selftest)

    for sub_parser in sub.choices.values():
        _add_common_flags(sub_parser)
    return parser


def _write_files(files: Sequence[tuple[Path, bytes]]) -> None:
    """Write each ``(path, data)`` to a new temporary file beside ``path``, in
    the umask's mode, then rename each over its path: no reader sees a
    partial file, and no path is replaced unless every file was written."""
    pending: list[tuple[Path, Path]] = []
    try:
        for path, data in files:
            temp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
            with open(temp, "xb") as out:
                pending.append((temp, path))
                out.write(data)
        while pending:
            os.replace(*pending[0])
            pending.pop(0)
    except BaseException:
        for temp, _ in pending:
            os.unlink(temp)
        raise


def dispatch(argv: Sequence[str]) -> int:
    """Parse, run, and report one subcommand; returns the process exit code.

    Input, regime and capacity errors are ``ValueError``s and file errors
    ``OSError``s; both exit 2 with the usage line.  An eigensolve that does
    not converge exits 1 with its error line.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        targets = [Path(args.out), Path(args.out + ".manifest.json")] if args.out else []
        if targets and not targets[0].parent.is_dir():
            raise ValueError(f"--out directory {targets[0].parent} does not exist")
        for target in targets:  # so that neither rename lands on a directory or device
            if target.exists() and not target.is_file():
                raise ValueError(f"{target} exists and is not a regular file")
        payload, code = args.handler(args)
        manifest = {
            "command": args.command,
            "parameters": {key: value for key, value in vars(args).items()
                           if key not in ("handler", "command", "seed")},
            "seed": _seed(args),
            "version": __version__,
            "wall_time_s": time.perf_counter() - started,
            "output_digest": hashlib.sha256(payload).hexdigest(),
        }
        if targets:
            _write_files(list(zip(targets, (payload, _json_bytes(manifest)))))
        else:
            sys.stdout.buffer.write(payload)
            sys.stdout.buffer.flush()
            sys.stderr.write(json.dumps(manifest, sort_keys=True) + "\n")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        from .haarmodel import PowerIterationError
        if not isinstance(exc, PowerIterationError):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILURE
    return code


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
