"""Per-layer probes for the traced benchmark run.

Run as ``python3 perfbench/layers.py --group exact|tree|model --seed S
--trace 0|1 --work DIR --out FILE``.  Each group calls the public functions of one
set of layers in a fresh interpreter, bottom-up, on the inputs of pass 0
of the workload with the same name.  With ``--trace 1`` every call is
wrapped in a span (name, start, end, parent, run id, cache label) kept in
memory and written to ``FILE`` when the group ends; with ``--trace 0`` the
same calls run without spans, so the two wall times give the tracing
overhead.  No file inside ``src/`` is changed; one probe rebinds
``centered_wg.haar_moment_signed`` in memory while it runs, to count calls.

A span is labelled ``cold`` when an ``lru_cache`` in the package missed
during it, ``warm`` when it only hit, and ``none`` when it used no cache,
so that cache hits are never read as layer speed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction
from itertools import product
from pathlib import Path
from statistics import median

import numpy as np

import checks
import inputs

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import haarmoments  # noqa: E402
from haarmoments import centered_wg, freegroup, haarmodel, linearization  # noqa: E402
from haarmoments import nonbacktracking, symcore, weingarten, wick  # noqa: E402

#: Every per-layer metric: unit and the end-to-end metric @ workload it
#: should move.  ``run.py`` prints this mapping next to the values.
LAYER_METRICS = {
    "symcore.join.k8_s": ("s", "wg_table_orth_s @ exact"),
    "weingarten.wg_exact.k8_s": ("s", "wg_table_s @ exact"),
    "weingarten.wg_orth_exact.k6_s": ("s", "wg_table_orth_s @ exact"),
    "weingarten.haar_moment_signed.grid_s": ("s", "centered_check_s @ exact"),
    "weingarten.haar_moment_signed.calls": ("count", "centered_check_s @ exact"),
    "centered_wg.centered_moment.grid_s": ("s", "centered_check_s, gauss_compare_s @ exact"),
    "centered_wg.bracket_expansion.grid_s": ("s", "centered_check_s @ exact"),
    "wick.gaussian_shifted_moment.grid_s": ("s", "gauss_compare_s @ exact"),
    "wick.check_with_brackets.grid_s": ("s", "gauss_compare_s @ exact"),
    "freegroup.ball_spectrum_bounds.tree_s": ("s", "freeness_s @ tree"),
    "freegroup.ball_spectrum_bounds.model_s": ("s", "freeness_s @ model"),
    "freegroup.astar_norm_lower_s": ("s", "free_norm_s @ tree"),
    "freegroup.rho_k_s": ("s", "free_norm_s @ tree"),
    "nonbacktracking.build_nb_s": ("s", "nb_spectrum_s @ tree"),
    "nonbacktracking.build_companion.grid_s": ("s", "nb_spectrum_s @ tree"),
    "linearization.sqrt_pencil_s": ("s", "linearize_s @ tree"),
    "linearization.sqrt_identity_residual_s": ("s", "linearize_s @ tree"),
    "haarmodel.sample_haar_unitary_s": ("s", "freeness_s @ model"),
    "haarmodel.build_instance.dense_s": ("s", "freeness_s, peak_rss_mb @ model"),
    "haarmodel.build_instance.dense_peak_mb": ("MB", "peak_rss_mb @ model"),
    "haarmodel.build_instance.free_s": ("s", "freeness_s @ model"),
    "haarmodel.restricted_norm.dense_s": ("s", "freeness_s @ model"),
    "haarmodel.restricted_norm.free_s": ("s", "freeness_s @ model"),
    "haarmodel.restricted_norm.applies.dense": ("count", "freeness_s @ model"),
    "haarmodel.restricted_norm.applies.free": ("count", "freeness_s @ model"),
    "haarmodel.apply_restricted.free_ms": ("ms", "freeness_s @ model"),
    "haarmodel.freeness.serial_s": ("s", "freeness_s @ model; serial side of the pool efficiency"),
    "haarmodel.freeness.pool_s": ("s", "freeness_s @ model; pooled side of the pool efficiency"),
    "trace.overhead_s": ("s", "traced minus untraced wall of this workload's layer group"),
}

#: Metrics read from a span attribute: metric -> (span, attribute).
ATTRIBUTE_METRICS = {
    "weingarten.haar_moment_signed.grid_s": ("centered_wg.bracket_expansion.counted", "inner_s"),
    "weingarten.haar_moment_signed.calls": ("centered_wg.bracket_expansion.counted", "calls"),
    "haarmodel.restricted_norm.applies.dense": ("haarmodel.restricted_norm.dense_s", "applies"),
    "haarmodel.restricted_norm.applies.free": ("haarmodel.restricted_norm.free_s", "applies"),
}

#: The layer grids take every fifth spec of the 23,040-spec k = 4 grid
#: (5 is prime to the 16 index tuples, so every index pattern is sampled).
GRID_STRIDE = 5
EXACT_N = 6
GAUSS_N = 16
BALL_RADIUS = 200
FREE_NORM_M = 400
RHO_K_MAX = 12
APPLY_REPEATS = 15
#: Trials in the serial and pooled ``freeness`` probes; two is the fewest
#: that give the pool something to overlap.
POOL_TRIALS = 2

MODULES = (symcore, weingarten, centered_wg, wick, freegroup, nonbacktracking, haarmodel, linearization)


def _lru_caches() -> list:
    return [obj for module in MODULES for obj in vars(module).values() if hasattr(obj, "cache_info")]


class Tracer:
    """In-memory span recorder; a disabled tracer records nothing."""

    def __init__(self, enabled: bool, run_id: str) -> None:
        self.enabled = enabled
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._caches = _lru_caches()

    def _cache_totals(self) -> tuple[int, int]:
        infos = [cache.cache_info() for cache in self._caches]
        return sum(i.hits for i in infos), sum(i.misses for i in infos)

    @contextmanager
    def span(self, name: str):
        attrs: dict = {}
        if not self.enabled:
            yield attrs
            return
        hits, misses = self._cache_totals()
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append({})
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            self._stack.pop()
            new_hits, new_misses = self._cache_totals()
            label = "cold" if new_misses > misses else "warm" if new_hits > hits else "none"
            self.spans[index] = {"name": name, "start": start, "end": end, "parent": parent,
                                 "run_id": self.run_id, "cache": label, **attrs}


class CountingInstance:
    """Wraps a model instance and counts operator applications (M and M*)."""

    def __init__(self, inst) -> None:
        self.inst = inst
        self.config = inst.config
        self.applies = 0

    def __getattr__(self, name):
        return getattr(self.inst, name)

    def apply_restricted(self, vector):
        self.applies += 1
        return self.inst.apply_restricted(vector)

    def apply_restricted_adjoint(self, vector):
        self.applies += 1
        return self.inst.apply_restricted_adjoint(vector)


def _pencil(path: Path) -> freegroup.MatrixPencil:
    d, a0, a = inputs.read_pencil(path)
    return freegroup.MatrixPencil(d=d, coeff_dim=a0.shape[0], a0=a0, a=tuple(a))


def _set_partitions(k: int) -> list[symcore.SetPartition]:
    parts: list[tuple[frozenset, ...]] = [()]
    for point in range(1, k + 1):
        grown = []
        for blocks in parts:
            grown.append(blocks + (frozenset([point]),))
            grown += [blocks[:i] + (b | {point},) + blocks[i + 1:] for i, b in enumerate(blocks)]
        parts = grown
    return [symcore.SetPartition(blocks) for blocks in parts]


def k4_grid() -> list[centered_wg.BracketMomentSpec]:
    """Every GRID_STRIDE-th spec of the k = 4 grid that the CLI checks."""
    signs = [symcore.EpsilonSequence(s) for s in product((symcore.DOT, symcore.BAR), repeat=4)]
    balanced = [eps for eps in signs if eps.is_balanced()]
    indices = list(product((1, 2), repeat=4))
    specs = product(_set_partitions(4), balanced, indices, indices)
    return [centered_wg.BracketMomentSpec(pi=pi, eps=eps, x=x, y=y)
            for i, (pi, eps, x, y) in enumerate(specs) if i % GRID_STRIDE == 0]


@contextmanager
def counting_calls(module, name: str):
    """Temporarily replace ``module.name`` by a wrapper that counts its calls
    and sums their time; yields the running totals."""
    original = getattr(module, name)
    totals = {"calls": 0, "seconds": 0.0}

    def counted(*args, **kwargs):
        started = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            totals["seconds"] += time.perf_counter() - started
            totals["calls"] += 1

    setattr(module, name, counted)
    try:
        yield totals
    finally:
        setattr(module, name, original)


def group_exact(tracer: Tracer, seed: int, work: Path, problems: list[str]) -> None:
    refs = json.loads((Path(__file__).parent / "references.json").read_text())
    pairings = [p.as_set_partition() for p in symcore.enumerate_pair_partitions(8)]
    with tracer.span("symcore.join.k8_s"):
        blocks = sum(len(symcore.join(p, q).blocks) for p in pairings for q in pairings)
    if blocks != refs["join_k8_total_blocks"]:
        problems.append(f"join block total {blocks} != {refs['join_k8_total_blocks']}")
    for name, call, ref in (
        ("weingarten.wg_exact.k8_s", lambda: weingarten.wg_exact(8, 10), refs["wg_unit_k8_n10"]),
        ("weingarten.wg_orth_exact.k6_s", lambda: weingarten.wg_orth_exact(6, 8), refs["wg_orth_k6_n8"]),
    ):
        with tracer.span(name):
            table = call()
        got = {",".join(map(str, key)): value for key, value in table.values.items()}
        if got != {key: Fraction(text) for key, text in ref["values"].items()}:
            problems.append(f"{name}: table differs from the reference")

    grid = k4_grid()
    with tracer.span("weingarten.wg_exact.k2_n6_warmup"):
        for k in (1, 2):
            weingarten.wg_exact(k, EXACT_N)
    # The signed sub-moments that inclusion-exclusion requests, counted and
    # timed at the name ``centered_wg`` calls them by; then the expansion
    # again without the wrapper.
    with tracer.span("centered_wg.bracket_expansion.counted") as attrs:
        with counting_calls(centered_wg, "haar_moment_signed") as totals:
            counted = [centered_wg.bracket_expansion(spec, EXACT_N) for spec in grid]
        attrs["calls"], attrs["inner_s"] = totals["calls"], totals["seconds"]
    with tracer.span("centered_wg.centered_moment.grid_s"):
        matching = [centered_wg.centered_moment(spec, EXACT_N) for spec in grid]
    with tracer.span("centered_wg.bracket_expansion.grid_s"):
        expanded = [centered_wg.bracket_expansion(spec, EXACT_N) for spec in grid]
    if not matching == expanded == counted:
        problems.append("matching sums and inclusion-exclusion disagree on the k = 4 grid")

    with tracer.span("wick.gaussian_shifted_moment.grid_s"):
        for spec in grid:
            mixed = all(any(spec.eps.signs[i - 1] == symcore.DOT for i in b)
                        and any(spec.eps.signs[i - 1] == symcore.BAR for i in b) for b in spec.pi.blocks)
            shift = wick.bracket_shift(spec.k, max(len(b) for b in spec.pi.blocks), GAUSS_N, mixed)
            wick.gaussian_shifted_moment(
                wick.GaussianMomentSpec(x=spec.x, y=spec.y, eps=spec.eps, shift=shift, pi=spec.pi))
    with tracer.span("wick.check_with_brackets.grid_s"):
        reports = [wick.check_with_brackets(spec, GAUSS_N) for spec in grid]
    if not all(report.passes and not report.skipped for report in reports):
        problems.append("a bracketed Gaussian comparison failed or was skipped")


def group_tree(tracer: Tracer, seed: int, work: Path, problems: list[str]) -> None:
    files = inputs.write_pass_inputs("tree", seed, 0, work)
    pencil = _pencil(files.tree_pencil)
    with tracer.span("freegroup.ball_spectrum_bounds.tree_s"):
        low, high = freegroup.ball_spectrum_bounds(pencil, BALL_RADIUS, tol=1e-9)
    if not -pencil.coefficient_scale <= low <= high <= pencil.coefficient_scale:
        problems.append(f"ball bounds ({low}, {high}) outside the coefficient scale")
    with tracer.span("freegroup.astar_norm_lower_s"):
        lower = freegroup.astar_norm_lower(pencil, FREE_NORM_M, seed=files.seed)
    if not 0 < lower <= pencil.coefficient_scale:
        problems.append(f"lower norm estimate {lower} outside (0, scale]")
    with tracer.span("freegroup.rho_k_s"):
        for k in range(1, RHO_K_MAX + 1):
            freegroup.rho_k(pencil, k)

    weights = [inputs.load_matrix(w) for w in json.loads(files.nb_weights.read_text())["weights"]]
    with tracer.span("nonbacktracking.build_nb_s"):
        op = nonbacktracking.build_nb(weights, side="right")
    with tracer.span("nonbacktracking.build_companion.grid_s"):
        for lam in inputs.lambda_grid():
            nonbacktracking.build_companion(op.weights, lam, tol=0.0).min_singular_value

    d = inputs.D
    poly = linearization.GroupPolynomial(d, {
        freegroup.ReducedWord(d, tuple(entry["word"])): inputs.load_matrix(entry["matrix"])
        for entry in json.loads(files.poly.read_text())
    })
    support = linearization.symmetric_ball(d, (poly.degree + 1) // 2)
    with tracer.span("linearization.sqrt_pencil_s"):
        result = linearization.sqrt_pencil(poly, support)
    with tracer.span("linearization.sqrt_identity_residual_s"):
        residual = linearization.sqrt_identity_residual(result, poly)
    if residual > 1e-8:
        problems.append(f"square-root residual {residual} > 1e-8")


def group_model(tracer: Tracer, seed: int, work: Path, problems: list[str]) -> None:
    files = inputs.write_pass_inputs("model", seed, 0, work)
    pencil = _pencil(files.model_pencil)
    free_value = 2 * np.sqrt(2 * inputs.D - 1)
    norm_bound = 2 * inputs.D

    def config(n: int, trial_seed: int) -> haarmodel.ModelConfig:
        return haarmodel.ModelConfig(n=n, d=inputs.D, q_minus=inputs.Q_MINUS, q_plus=inputs.Q_PLUS,
                                     coeff_dim=1, pencil=pencil, seed=trial_seed)

    def build_and_norm(kind: str, n: int, trial_seed: int):
        with tracer.span(f"haarmodel.build_instance.{kind}_s"):
            inst = haarmodel.build_instance(config(n, trial_seed))
        counted = CountingInstance(inst)
        with tracer.span(f"haarmodel.restricted_norm.{kind}_s") as attrs:
            try:
                value = haarmodel.restricted_norm(counted)
            except haarmodel.PowerIterationError as exc:
                problems.append(f"restricted norm at n={n}, seed {trial_seed}: {exc}")
                value = None
            attrs["applies"] = counted.applies
        return inst, value

    rng = haarmodel.model_rng(files.seed)
    for _ in range(inputs.D):
        with tracer.span("haarmodel.sample_haar_unitary_s"):
            haarmodel.sample_haar_unitary(inputs.MODEL_FREE_N, rng)

    # ``freeness`` over POOL_TRIALS trials at the workload's size, once as
    # its serial equivalent (free-limit estimate, then build and norm per
    # trial) and once through the thread pool with ``nproc`` workers.  The
    # pool may change wall time only, never the numbers.
    configs = [config(n, files.seed) for n in inputs.MODEL_FREENESS_N]
    trials = [(cfg.n, files.seed ^ trial) for cfg in configs for trial in range(POOL_TRIALS)]
    with tracer.span("haarmodel.freeness.serial_s"):
        with tracer.span("freegroup.ball_spectrum_bounds.model_s"):
            low, high = freegroup.ball_spectrum_bounds(pencil, BALL_RADIUS, tol=1e-9)
        serial = [build_and_norm("dense", n, trial_seed)[1] for n, trial_seed in trials]
    if abs(max(abs(low), abs(high)) - free_value) > 2e-3:
        problems.append(f"free estimate ({low}, {high}) not within 2e-3 of {free_value}")
    for (n, trial_seed), value in zip(trials, serial):
        problem = value is not None and checks.power_norm_problem(
            value, checks.dense_singular_values(files.model_pencil, n, trial_seed))
        if problem:
            problems.append(f"restricted norm at n={n}, seed {trial_seed}: {problem}")
    # A trial whose power iteration gave up is already a problem above; the
    # pool would raise on it again.
    if None not in serial:
        with tracer.span("haarmodel.freeness.pool_s"):
            table = haarmodel.freeness_experiment(configs, trials=POOL_TRIALS,
                                                  threads=len(os.sched_getaffinity(0)))
        if [row.restricted_norm for row in table.rows] != serial:
            problems.append("pooled freeness norms differ from the serial ones")

    # One matrix-free instance, above the dense cap; too large to factor
    # densely here, so its norm gets only a band check.
    free, value = build_and_norm("free", inputs.MODEL_FREE_N, files.seed)
    if value is not None and not free_value - 0.25 <= value <= norm_bound + 1e-8:
        problems.append(f"restricted norm {value} at n={free.config.n} outside [{free_value - 0.25}, {norm_bound}]")
    vector = rng.standard_normal(free.config.total_dimension) + 0j
    for _ in range(APPLY_REPEATS):
        with tracer.span("haarmodel.apply_restricted.free_ms"):
            free.apply_restricted_adjoint(free.apply_restricted(vector))


def dense_peak_mb(seed: int, work: Path) -> float:
    """tracemalloc peak of one dense build (tracemalloc sees numpy's
    buffers); measured after the timed group so its bookkeeping slows
    nothing that is timed."""
    files = inputs.write_pass_inputs("model", seed, 0, work)
    cfg = haarmodel.ModelConfig(n=inputs.MODEL_FREENESS_N[0], d=inputs.D, q_minus=inputs.Q_MINUS,
                                q_plus=inputs.Q_PLUS, coeff_dim=1, pencil=_pencil(files.model_pencil),
                                seed=files.seed)
    tracemalloc.start()
    try:
        haarmodel.build_instance(cfg)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


GROUPS = {"exact": group_exact, "tree": group_tree, "model": group_model}


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Median duration per span name (``_ms`` names in milliseconds) and
    the median of each attribute metric."""
    durations: dict[str, list[float]] = {}
    for span in spans:
        durations.setdefault(span["name"], []).append(span["end"] - span["start"])
    metrics = {}
    for name, values in durations.items():
        if name in LAYER_METRICS:
            metrics[name] = median(values) * (1000.0 if name.endswith("_ms") else 1.0)
    for metric, (span_name, attr) in ATTRIBUTE_METRICS.items():
        counts = [span[attr] for span in spans if span["name"] == span_name and attr in span]
        if counts:
            metrics[metric] = median(counts)
    return metrics


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    own = [span["end"] - span["start"] for span in spans]
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--group", choices=sorted(GROUPS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True, help="directory for generated inputs")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if not Path(haarmoments.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported haarmoments from {haarmoments.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    tracer = Tracer(bool(args.trace), run_id=f"{args.group}-{args.seed}")
    problems: list[str] = []
    started = time.perf_counter()
    with tracer.span(f"group.{args.group}"):
        GROUPS[args.group](tracer, args.seed, args.work, problems)
    wall = time.perf_counter() - started
    metrics = layer_metrics(tracer.spans)
    if args.trace and args.group == "model":
        metrics["haarmodel.build_instance.dense_peak_mb"] = dense_peak_mb(args.seed, args.work)
    spans = tracer.spans
    for span, own in zip(spans, self_times(spans)):
        span["self"] = own
    result = {"group": args.group, "wall_s": wall, "problems": problems,
              "metrics": metrics, "spans": spans}
    args.out.write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
