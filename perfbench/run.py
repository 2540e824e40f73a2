"""End-to-end benchmark of the ``haarmoments`` command line.

    python3 perfbench/run.py --workload exact|tree|model --seed S --seconds T --trace 0|1

Run from anywhere inside a source checkout; the package is imported from
the checkout's ``src/`` and never from an installed copy.  With
``--trace 0`` the run repeats the workload's pass (one closed-loop client,
one command at a time, each command a fresh process) while whole passes fit
in ``--seconds``, checks every output, and reports medians over passes.
With ``--trace 1`` it runs the per-layer probes of ``layers.py`` instead.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``README.md`` for what each
workload and metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import inputs  # noqa: E402
from inputs import PassInputs  # noqa: E402

#: Passes stop being started once this much of the run has gone, leaving
#: room for the queued checks (about 1.5 s per pass at most), and any
#: command still running this long after the run started is killed, so that
#: a run always ends within 180 s.
RUN_CAP_S = 110.0
HARD_LIMIT_S = 170.0
STARTED = time.perf_counter()
#: ``--help`` runs at the start of a run, before the first pass.
SETUP_WARM_SAMPLES = 3

WG_TABLE = ("wg-table", "--k", "8", "--n", "10")
WG_TABLE_ORTH = ("wg-table", "--k", "6", "--n", "8", "--orthogonal")
FREE_NORM_M, FREE_NORM_K_MAX = 400, 12


def time_left() -> float:
    return max(1.0, HARD_LIMIT_S - (time.perf_counter() - STARTED))


@dataclass
class Sample:
    label: str
    seconds: float
    max_rss_mb: float
    problems: list[str] = field(default_factory=list)


class Runner:
    """Spawns one CLI command at a time and times it from spawn to exit.

    Output checks that take real time (dense factorizations, enumerations)
    are queued with ``check_later`` and run after the measured passes, so
    that they do not take the place of passes in ``--seconds``.
    """

    def __init__(self, work: Path, threads: int) -> None:
        self.work = work
        self.threads = threads
        env = {k: v for k, v in os.environ.items() if k != "HAARMOMENTS_CACHE"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.env = env
        self.samples: list[Sample] = []
        self.pending: list[tuple[Sample, Callable, tuple]] = []

    def check_later(self, sample: Sample, check: Callable, *args) -> None:
        self.pending.append((sample, check, args))

    def run_checks(self) -> None:
        for sample, check, args in self.pending:
            sample.problems += check(*args)
        self.pending.clear()

    def run(self, label: str, argv: list[str], out: Path | None, seed: int | None,
            cache_dir: Path | None = None) -> tuple[Sample, bytes]:
        """Run ``haarmoments ARGV``; return the sample and the payload bytes.

        Every command gets ``--seed`` and ``--threads`` explicitly and
        writes its payload to ``out``; only the cache pass sees
        ``HAARMOMENTS_CACHE``.
        """
        env = dict(self.env)
        if cache_dir is not None:
            env["HAARMOMENTS_CACHE"] = str(cache_dir)
        args = [sys.executable, "-m", "haarmoments.cli", *argv]
        if seed is not None:
            args += ["--seed", str(seed), "--threads", str(self.threads), "--out", str(out)]
        stdout_path = self.work / f"{label}.stdout"
        stderr_path = self.work / f"{label}.stderr"
        with open(stdout_path, "wb") as stdout, open(stderr_path, "wb") as stderr:
            started = time.perf_counter()
            proc = subprocess.Popen(args, cwd=self.work, env=env, stdout=stdout, stderr=stderr,
                                    stdin=subprocess.DEVNULL)
            timer = threading.Timer(time_left(), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            seconds = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        sample = Sample(label, seconds, usage.ru_maxrss / 1024.0)
        payload = b""
        if proc.returncode != 0:
            tail = stderr_path.read_bytes()[-300:].decode(errors="replace").strip()
            sample.problems.append(f"exit code {proc.returncode}: {tail}")
        elif out is None:
            payload = stdout_path.read_bytes()
        else:
            payload = out.read_bytes()
            sample.problems += checks.check_manifest(payload, Path(f"{out}.manifest.json"), seed)
        self.samples.append(sample)
        return sample, payload


def pass_exact(runner: Runner, seed: int, index: int, directory: Path) -> tuple[dict, dict, PassInputs]:
    """wg-table twice (cold, writing a fresh cache), the two k = 4 grids,
    then both tables again served from that cache."""
    files = inputs.write_pass_inputs("exact", seed, index, directory)
    cache = directory / "wg-cache"
    cache.mkdir()
    times, payloads, stamps = {}, {}, {}
    for label, argv, ref in (("wg_table", WG_TABLE, "wg_unit_k8_n10"),
                             ("wg_table_orth", WG_TABLE_ORTH, "wg_orth_k6_n8")):
        sample, payload = runner.run(label, list(argv), directory / f"{label}.json", files.seed, cache)
        if payload:
            runner.check_later(sample, checks.check_wg_table, payload, ref)
        stamps[label] = checks.cache_stamp(cache / checks.CACHE_FILES[label])
        times[f"{label}_s"], payloads[label] = sample.seconds, payload
    for label, argv, check in (
        ("centered_check", ["centered-check", "--k", "4", "--n", "6"], checks.check_centered),
        ("gauss_compare", ["gauss-compare", "--k", "4", "--n", "16", "--brackets"], checks.check_gauss),
    ):
        sample, payload = runner.run(label, argv, directory / f"{label}.json", files.seed)
        if payload:
            runner.check_later(sample, check, payload)
        times[f"{label}_s"], payloads[label] = sample.seconds, payload
    cached_total = 0.0
    for label, argv in (("wg_table", WG_TABLE), ("wg_table_orth", WG_TABLE_ORTH)):
        sample, payload = runner.run(f"{label}_cached", list(argv), directory / f"{label}_cached.json",
                                     files.seed, cache)
        if payload:
            runner.check_later(sample, checks.check_cached, payload, payloads[label])
        sample.problems += checks.check_cache_hit(stamps[label],
                                                  checks.cache_stamp(cache / checks.CACHE_FILES[label]))
        cached_total += sample.seconds
    times["wg_table_cached_s"] = cached_total
    return times, payloads, files


def pass_tree(runner: Runner, seed: int, index: int, directory: Path) -> tuple[dict, dict, PassInputs]:
    files = inputs.write_pass_inputs("tree", seed, index, directory)
    steps = (
        ("freeness", ["freeness", "--config", str(files.tree_config),
                      "--trials", str(inputs.TREE_TRIALS)],
         lambda p: checks.check_tree_freeness(p, files.tree_pencil, files.seed)),
        ("free_norm", ["free-norm", "--pencil", str(files.tree_pencil), "--m", str(FREE_NORM_M),
                       "--k-max", str(FREE_NORM_K_MAX)],
         lambda p: checks.check_free_norm(p, files.tree_pencil, FREE_NORM_M, FREE_NORM_K_MAX)),
        ("nb_spectrum", ["nb-spectrum", "--weights", str(files.nb_weights),
                         "--lambda-grid", inputs.LAMBDA_GRID],
         lambda p: checks.check_nb_spectrum(p, files.nb_weights)),
        ("linearize", ["linearize", "--poly", str(files.poly), "--d", str(inputs.D)],
         checks.check_linearize),
    )
    return (*_run_steps(runner, steps, directory, files.seed), files)


def pass_model(runner: Runner, seed: int, index: int, directory: Path) -> tuple[dict, dict, PassInputs]:
    files = inputs.write_pass_inputs("model", seed, index, directory)
    steps = (
        ("freeness", ["freeness", "--config", str(files.model_config),
                      "--trials", str(inputs.MODEL_TRIALS)],
         lambda p: checks.check_model_freeness(p, files.model_pencil, files.seed)),
    )
    return (*_run_steps(runner, steps, directory, files.seed), files)


def _run_steps(runner: Runner, steps, directory: Path, seed: int) -> tuple[dict, dict]:
    times, payloads = {}, {}
    for label, argv, check in steps:
        sample, payload = runner.run(label, argv, directory / f"{label}.out", seed)
        if payload:
            runner.check_later(sample, check, payload)
        times[f"{label}_s"], payloads[label] = sample.seconds, payload
    return times, payloads


PASSES = {"exact": pass_exact, "tree": pass_tree, "model": pass_model}


def run_untraced(workload: str, seed: int, seconds: int, work: Path, threads: int) -> dict:
    runner = Runner(work, threads)
    setup = []
    for i in range(SETUP_WARM_SAMPLES):
        sample, out = runner.run(f"setup{i}", ["--help"], None, None)
        sample.problems += checks.check_help(out) if not sample.problems else []
        setup.append(sample.seconds)
    started = time.perf_counter()
    deadline = started + seconds
    durations: list[float] = []
    passes: list[dict] = []
    while True:
        pass_started = time.perf_counter()
        directory = work / f"pass{len(passes)}"
        directory.mkdir()
        sample, out = runner.run(f"setup-pass{len(passes)}", ["--help"], None, None)
        sample.problems += checks.check_help(out) if not sample.problems else []
        setup.append(sample.seconds)
        first = len(runner.samples)
        times, payloads, files = PASSES[workload](runner, seed, len(passes), directory)
        in_pass = runner.samples[first:]
        times["wall_s"] = sum(s.seconds for s in in_pass)
        times["peak_rss_mb"] = max(s.max_rss_mb for s in in_pass)
        if not passes:
            first_payloads, first_files = payloads, files
        passes.append(times)
        now = time.perf_counter()
        durations.append(now - pass_started)
        if now + median(durations) > deadline or now - started > RUN_CAP_S:
            break

    measured = time.perf_counter() - started
    runner.run_checks()
    context = {"workload": workload, "seed": first_files.seed,
               "pencil": first_files.tree_pencil or first_files.model_pencil}
    missed = checks.corruption_misses({k: v for k, v in first_payloads.items() if v}, context)
    stats = {name: [p[name] for p in passes] for name in passes[0]}
    stats["setup_s"] = setup
    failed = [s for s in runner.samples if s.problems]
    return {
        "passes": len(passes),
        "measured_s": measured,
        "stats": stats,
        "attempted": len(runner.samples),
        "failed": len(failed),
        "problems": [f"{s.label}: {p}" for s in failed for p in s.problems]
        + [f"checker did not flag: {label}" for label in missed],
    }


def run_traced(workload: str, seed: int, work: Path) -> dict:
    """Every layer group traced in its own fresh interpreter, then this
    workload's group again untraced; overhead is the wall difference."""
    results, problems = {}, []
    runs = [(group, 1) for group in PASSES] + [(workload, 0)]
    for group, trace in runs:
        out = work / f"layers-{group}-{trace}.json"
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "layers.py"), "--group", group, "--seed", str(seed),
                 "--trace", str(trace), "--work", str(work / f"in-{group}-{trace}"), "--out", str(out)],
                cwd=work, stdin=subprocess.DEVNULL, capture_output=True, timeout=time_left())
        except subprocess.TimeoutExpired:
            problems.append(f"layers {group} (trace {trace}) killed at the run's time limit")
            continue
        if proc.returncode != 0:
            problems.append(f"layers {group} (trace {trace}) exit {proc.returncode}: "
                            + proc.stderr.decode(errors="replace")[-300:])
            continue
        result = json.loads(out.read_text())
        problems += [f"layers {group}: {p}" for p in result["problems"]]
        results[(group, trace)] = result
    metrics = {}
    spans = []
    for group in PASSES:
        result = results.get((group, 1), {"metrics": {}, "spans": []})
        metrics.update(result["metrics"])
        offset = len(spans)
        spans += [{**span, "parent": None if span["parent"] is None else span["parent"] + offset}
                  for span in result["spans"]]
    if (workload, 1) in results and (workload, 0) in results:
        metrics["trace.overhead_s"] = results[(workload, 1)]["wall_s"] - results[(workload, 0)]["wall_s"]
    return {"metrics": metrics, "spans": spans, "problems": problems,
            "attempted": len(runs), "failed": len(runs) - len(results)}


def provenance(threads: int) -> dict:
    """Machine and source facts recorded with every result."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    sources = sorted((SRC / "haarmoments").glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": threads,
        "cli_threads": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "num_threads_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "source_lines": sum(len(p.read_text().splitlines()) for p in sources),
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="haarmoments end-to-end benchmark")
    parser.add_argument("--workload", choices=sorted(PASSES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "haarmoments" / "cli.py").is_file():
        print(f"error: no haarmoments sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    threads = len(os.sched_getaffinity(0))
    WORK_ROOT.mkdir(exist_ok=True)
    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir()
    try:
        if args.trace:
            result = run_traced(args.workload, args.seed, work)
            metrics = result["metrics"]
        else:
            result = run_untraced(args.workload, args.seed, args.seconds, work, threads)
            metrics = {name: median(values) for name, values in result["stats"].items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info = provenance(threads)
    report(args, result, metrics, info)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    for name in missing:
        print(f"METRIC MISSING: {name}")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "provenance": info, "metrics": metrics, **{k: v for k, v in result.items() if k != "metrics"}}
    (WORK_ROOT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))
    correct = not result["problems"] and not missing
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }))
    return 0


def report(args, result: dict, metrics: dict, info: dict) -> None:
    """Human-readable lines; the JSON result line follows them."""
    print(f"provenance: {json.dumps(info, sort_keys=True)}")
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    if args.trace:
        import layers

        print(f"per-layer metrics, workload {args.workload}, seed {args.seed}:")
        for name, (unit, target) in layers.LAYER_METRICS.items():
            value = metrics.get(name)
            shown = "missing" if value is None else f"{value:.6g} {unit}"
            print(f"  {name:44s} {shown:>18s}  -> {target}")
        totals: dict[str, list] = {}
        for span in result["spans"]:
            entry = totals.setdefault(span["name"], [0, 0.0, 0.0, set()])
            entry[0] += 1
            entry[1] += span["end"] - span["start"]
            entry[2] += span["self"]
            entry[3].add(span["cache"])
        print("spans: name, count, total s, self s, cache labels")
        for name, (count, total, own, labels) in totals.items():
            print(f"  {name:44s} {count:4d} {total:10.4f} {own:10.4f}  {','.join(sorted(labels))}")
        return
    print(f"workload {args.workload}, seed {args.seed}: {result['passes']} passes "
          f"in {result['measured_s']:.1f} s, --threads {info['cli_threads']}")
    units = {"peak_rss_mb": "MB"}
    for name, values in result["stats"].items():
        print(f"  {name:20s} {median(values):12.4f} {units.get(name, 's'):3s} (median of {len(values)})")
    print(f"  error_rate           {result['failed']}/{result['attempted']} commands")


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    sys.exit(main(sys.argv[1:]))
