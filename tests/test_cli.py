"""End-to-end tests for the command-line front end, run as subprocesses."""

import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import haarmoments
from haarmoments import cli, haarmodel, linearization, nonbacktracking, weingarten
from haarmoments.symcore import MAX_DENSE_ENTRIES, CapacityError


def run_cli(*argv, env_extra=None, cwd=None):
    env = os.environ.copy()
    env.pop("HAARMOMENTS_CACHE", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "haarmoments.cli", *argv],
        capture_output=True,
        env=env,
        cwd=cwd,
        timeout=600,
    )


def modules_after(argv):
    """Exit code of ``cli.dispatch(argv)`` in a fresh interpreter, and the
    modules that interpreter then holds."""
    src = os.path.dirname(os.path.dirname(haarmoments.__file__))
    env = os.environ.copy()
    env.pop("HAARMOMENTS_CACHE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import json, sys\n"
        "from haarmoments import cli\n"
        f"code = cli.dispatch({list(argv)!r})\n"
        "print(json.dumps([code, sorted(sys.modules)]), file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stderr.splitlines()[-1])


def write_uniform_pencil(path):
    """Uniform scalar weights on two generators and their inverses."""
    entry = [[[1.0, 0.0]]]
    path.write_text(json.dumps({"d": 2, "coeff_dim": 1, "a": [entry] * 4}))
    return path


class TestUsageErrors:
    def test_unknown_flag_exits_two_with_usage(self):
        proc = run_cli("wg-table", "--k", "2", "--n", "5", "--bogus")
        assert proc.returncode == 2
        assert b"usage:" in proc.stderr

    def test_unknown_subcommand_exits_two(self):
        proc = run_cli("frobnicate")
        assert proc.returncode == 2

    def test_missing_required_flag_exits_two(self):
        proc = run_cli("wg-table", "--k", "2")
        assert proc.returncode == 2

    def test_out_of_regime_parameters_exit_two(self):
        proc = run_cli("wg-table", "--k", "3", "--n", "2")
        assert proc.returncode == 2
        assert b"error:" in proc.stderr
        assert b"usage:" in proc.stderr

    @pytest.mark.parametrize("threads", ["0", "-1", "two"])
    def test_threads_must_be_a_positive_int(self, threads):
        proc = run_cli("selftest", "--threads", threads)
        assert proc.returncode == 2
        assert b"--threads" in proc.stderr
        assert proc.stdout == b""

    def test_missing_input_file_exits_two(self, tmp_path):
        proc = run_cli("free-norm", "--pencil", str(tmp_path / "nope.json"), "--m", "4")
        assert proc.returncode == 2


class TestOutputErrors:
    def test_missing_out_directory_refused_before_the_kernel(self, tmp_path, monkeypatch, capsys):
        def kernel_must_not_run(*args):
            raise AssertionError("the Weingarten solve ran before --out was checked")

        monkeypatch.setattr(weingarten, "wg_exact", kernel_must_not_run)
        out = tmp_path / "missing" / "x.json"
        code = cli.dispatch(["wg-table", "--k", "2", "--n", "3", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err and "does not exist" in err
        assert "Traceback" not in err
        assert not out.parent.exists()

    def test_unwritable_out_exits_two(self, tmp_path, capsys):
        code = cli.dispatch(["wg-table", "--k", "2", "--n", "3", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("blocked", ["out-directory", "out-fifo", "manifest-directory"])
    def test_non_regular_target_refused_before_the_kernel(
        self, tmp_path, stub_step, capsys, blocked
    ):
        out = tmp_path / "table.json"
        manifest = tmp_path / "table.json.manifest.json"
        if blocked == "out-fifo":
            os.mkfifo(out)
        else:
            (out if blocked == "out-directory" else manifest).mkdir()
        before = sorted(tmp_path.iterdir())
        stub_step(weingarten, "wg_exact")
        code = cli.dispatch(["wg-table", "--k", "2", "--n", "3", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "is not a regular file" in err.splitlines()[0]
        assert "Traceback" not in err
        assert sorted(tmp_path.iterdir()) == before

    def test_failed_rename_keeps_the_old_payload(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "table.json"
        out.write_bytes(b"old payload")

        def refuse(*args):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        code = cli.dispatch(["wg-table", "--k", "2", "--n", "3", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: rename refused")
        assert out.read_bytes() == b"old payload"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["table.json"]

    @pytest.mark.parametrize("step", ["encode", "write"])
    def test_failed_manifest_keeps_the_old_payload(self, tmp_path, monkeypatch, capsys, step):
        out = tmp_path / "table.json"
        out.write_bytes(b"old payload")
        if step == "encode":
            encode = cli._json_bytes

            def refuse_manifest(data):
                if "output_digest" in data:
                    raise ValueError("manifest refused")
                return encode(data)

            monkeypatch.setattr(cli, "_json_bytes", refuse_manifest)
        else:
            opened = []

            def full_after_one(*args, **kwargs):
                opened.append(args[0])
                if len(opened) == 2:
                    raise OSError("manifest refused")
                return open(*args, **kwargs)

            monkeypatch.setattr(cli, "open", full_after_one, raising=False)
        code = cli.dispatch(["wg-table", "--k", "2", "--n", "3", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: manifest refused")
        assert out.read_bytes() == b"old payload"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["table.json"]

    def test_payload_and_cache_file_take_the_umask_mode(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        monkeypatch.setenv("HAARMOMENTS_CACHE", str(cache))
        out = tmp_path / "table.json"
        previous = os.umask(0o022)
        try:
            code = cli.dispatch(["wg-table", "--k", "3", "--n", "5", "--out", str(out)])
        finally:
            os.umask(previous)
        assert code == 0
        for path in (out, tmp_path / "table.json.manifest.json", cache / "wg-unit-k3-n5.json"):
            assert path.stat().st_mode & 0o777 == 0o644


class TestStartup:
    def test_help_loads_no_scipy(self):
        src = os.path.dirname(os.path.dirname(haarmoments.__file__))
        env = os.environ.copy()
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = (
            "import sys\n"
            "from haarmoments import cli\n"
            "assert cli.dispatch(['--help']) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), file=sys.stderr)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.strip() == b"[]"

    def test_freeness_loads_no_scipy(self, tmp_path):
        write_uniform_pencil(tmp_path / "pencil.json")
        config = tmp_path / "experiment.json"
        config.write_text(json.dumps(
            {"n": [5], "d": 2, "q_minus": 1, "q_plus": 1, "pencil": "pencil.json", "seed": 3}
        ))
        code, modules = modules_after(["freeness", "--config", str(config), "--trials", "1"])
        assert code == 0
        assert "haarmoments.haarmodel" in modules
        assert [m for m in modules if m.split(".")[0] == "scipy"] == []

    def test_help_loads_no_numpy_and_no_layer(self):
        code, modules = modules_after(["--help"])
        assert code == 0
        assert [m for m in modules if m.split(".")[0] in ("numpy", "scipy")] == []
        layers = [m for m in modules if m.startswith("haarmoments.")]
        assert layers == ["haarmoments.cli"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["wg-table", "--k", "2", "--n", "3"],
            ["centered-check", "--k", "2", "--n", "5"],
            ["gauss-compare", "--k", "2", "--n", "16"],
        ],
        ids=["wg-table", "centered-check", "gauss-compare"],
    )
    def test_exact_commands_load_no_numpy(self, argv):
        code, modules = modules_after(argv)
        assert code == 0
        assert [m for m in modules if m.split(".")[0] == "numpy"] == []


class TestMalformedInputFiles:
    ENTRY = [[[1.0, 0.0]]]
    NAN = [[[math.nan, 0.0]]]
    INF = [[[0.0, math.inf]]]

    @pytest.mark.parametrize(
        "command, flag, content, extra",
        [
            ("free-norm", "--pencil", {"d": 2, "coeff_dim": 1, "a": 5}, ["--m", "4"]),
            ("free-norm", "--pencil", [ENTRY] * 4, ["--m", "4"]),
            ("nb-spectrum", "--weights", {"weights": 5}, ["--lambda-grid", "0.5:1.0:0.5"]),
            ("linearize", "--poly", [5], ["--d", "1"]),
            ("linearize", "--poly", [{"word": 3, "matrix": ENTRY}], ["--d", "1"]),
            # At this size numpy refuses the zero a0 at once, so the row fails
            # fast wherever the pencil is allocated before ``a`` is checked.
            ("free-norm", "--pencil", {"d": 1, "coeff_dim": 10**6, "a": []}, ["--m", "4"]),
        ],
        ids=["pencil-a-int", "pencil-top-level-list", "weights-int", "poly-int-entry",
             "poly-int-word", "pencil-huge-coeff-dim"],
    )
    def test_malformed_file_exits_two(self, tmp_path, command, flag, content, extra):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(content))
        proc = run_cli(command, flag, str(path), *extra)
        assert proc.returncode == 2
        assert b"error:" in proc.stderr
        assert b"Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "command, flag, content, extra, message",
        [
            ("free-norm", "--pencil", {"d": 2, "coeff_dim": 1}, ["--m", "4"],
             'pencil file is missing "a"'),
            ("nb-spectrum", "--weights", {"family": [ENTRY] * 4},
             ["--lambda-grid", "0.5:1.0:0.5"], 'weights file is missing "weights"'),
            ("linearize", "--poly", [{"word": [0]}], ["--d", "1"],
             'polynomial file item is missing "matrix"'),
            ("linearize", "--poly", [], ["--d", "1"],
             "square-root pencil needs at least one coefficient"),
            ("linearize", "--poly", [{"word": [-1], "matrix": ENTRY}], ["--d", "1"],
             "letter -1 outside 0..1"),
            ("freeness", "--config",
             {"n": [6], "q_minus": 0, "q_plus": 1, "pencil": "pencil.json"},
             ["--trials", "1"], 'freeness config is missing "d"'),
            ("free-norm", "--pencil", {"d": 2, "coeff_dim": 1, "a": [ENTRY] * 3 + [NAN]},
             ["--m", "4"], "matrix entries must be finite"),
            ("free-norm", "--pencil", {"d": 2, "coeff_dim": 1, "a": [ENTRY] * 4, "a0": INF},
             ["--m", "4"], "matrix entries must be finite"),
            ("nb-spectrum", "--weights", {"weights": [NAN, ENTRY]},
             ["--lambda-grid", "0.5:1.0:0.5"], "matrix entries must be finite"),
            ("nb-spectrum", "--weights", [ENTRY, INF],
             ["--lambda-grid", "0.5:1.0:0.5"], "matrix entries must be finite"),
            ("linearize", "--poly", [{"word": [0], "matrix": NAN}], ["--d", "1"],
             "matrix entries must be finite"),
            ("linearize", "--poly", [{"word": [], "matrix": INF}], ["--d", "1"],
             "matrix entries must be finite"),
            ("linearize", "--poly",
             [{"word": [], "matrix": ENTRY}, {"word": [], "matrix": [[[1.0, 0.0]] * 2] * 2}],
             ["--d", "1"], "coefficients must share one shape"),
            ("free-norm", "--pencil", {"d": 2, "coeff_dim": -3, "a": [ENTRY] * 4},
             ["--m", "4"], "coefficient dimension must be positive"),
        ],
        ids=["pencil-no-a", "weights-no-weights", "poly-no-matrix", "poly-empty",
             "poly-negative-letter", "config-no-d", "pencil-nan", "pencil-infinity",
             "weights-nan", "weights-infinity", "poly-nan", "poly-infinity",
             "poly-duplicate-word-shapes", "pencil-negative-coeff-dim"],
    )
    def test_error_names_the_fault(self, tmp_path, command, flag, content, extra, message):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(content))
        proc = run_cli(command, flag, str(path), *extra)
        assert proc.returncode == 2
        assert b"error: " + message.encode() in proc.stderr
        assert b"Traceback" not in proc.stderr

    def test_freeness_refuses_an_infinite_pencil_entry(self, tmp_path):
        (tmp_path / "pencil.json").write_text(
            json.dumps({"d": 2, "coeff_dim": 1, "a": [self.ENTRY] * 3 + [self.INF]})
        )
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"n": [6], "d": 2, "q_minus": 0, "q_plus": 1, "pencil": "pencil.json"}
        ))
        proc = run_cli("freeness", "--config", str(config), "--trials", "1")
        assert proc.returncode == 2
        assert b"error: matrix entries must be finite" in proc.stderr
        assert b"Traceback" not in proc.stderr


class TestDenseBudget:
    """Inputs whose dense arrays exceed the budget exit 2 before the build,
    which each row replaces with a stub that fails if called."""

    EYE = [[[float(i == j), 0.0] for j in range(64)] for i in range(64)]

    @pytest.mark.parametrize(
        "command, flag, files, extra, step",
        [
            # A radius-20 ball over two generators, refused at 4373 words.
            ("linearize", "--poly", {"poly.json": [{"word": [0] * 40, "matrix": [[[1.0, 0.0]]]},
                                                   {"word": [2] * 40, "matrix": [[[1.0, 0.0]]]}]},
             ["--d", "2"], (linearization, "sqrt_pencil")),
            # Letter 10^6 means d = 500,001: the radius-1 ball has 1,000,003 words.
            ("linearize", "--poly", {"poly.json": [{"word": [10**6], "matrix": [[[1.0, 0.0]]]}]},
             ["--d", "500001"], (linearization, "sqrt_pencil")),
            # r = 64 and length 4096: 5 * 4097 * 64^2 return-moment entries.
            ("free-norm", "--pencil", {"pencil.json": {"d": 2, "coeff_dim": 64, "a": [EYE] * 4}},
             ["--m", "2048"], (np, "zeros")),
            # n = 20,000 passes MAX_MODEL_DIM; its Haar unitary does not fit.
            ("freeness", "--config",
             {"pencil.json": {"d": 2, "coeff_dim": 1, "a": [[[[1.0, 0.0]]]] * 4},
              "config.json": {"n": [20_000], "d": 2, "q_minus": 0, "q_plus": 1,
                              "pencil": "pencil.json"}},
             ["--trials", "1"], (haarmodel, "freeness_experiment")),
        ],
        ids=["linearize-degree-40", "linearize-letter-1e6", "free-norm-r64", "freeness-n20000"],
    )
    def test_refused_before_the_dense_build(
        self, tmp_path, stub_step, capsys, command, flag, files, extra, step
    ):
        for name, content in files.items():
            (tmp_path / name).write_text(json.dumps(content))
        stub_step(*step)
        code = cli.dispatch([command, flag, str(tmp_path / list(files)[-1]), *extra])
        err = capsys.readouterr().err
        assert code == 2
        assert f"over the budget {MAX_DENSE_ENTRIES}" in err.splitlines()[0]
        assert err.startswith("error: ")
        assert "Traceback" not in err


class TestWgTable:
    def test_degree_two_closed_forms_at_n_five(self):
        proc = run_cli("wg-table", "--k", "2", "--n", "5")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["values"]["1,1"] == "1/24"
        assert payload["values"]["2"] == "-1/120"

    def test_degree_above_symmetric_cap_exits_two(self):
        proc = run_cli("wg-table", "--k", "9", "--n", "9")
        assert proc.returncode == 2
        assert b"capped" in proc.stderr

    def test_orthogonal_table(self):
        proc = run_cli("wg-table", "--k", "4", "--n", "4", "--orthogonal")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["orthogonal"] is True
        assert payload["values"]["1,1"] == "5/72"
        assert payload["values"]["2"] == "-1/72"

    @pytest.mark.parametrize("n", ["0", "-1", "-3"])
    def test_orthogonal_nonpositive_dimension_exits_two(self, tmp_path, n):
        cache = tmp_path / "cache"
        proc = run_cli(
            "wg-table", "--k", "2", "--n", n, "--orthogonal",
            env_extra={"HAARMOMENTS_CACHE": str(cache)},
        )
        assert proc.returncode == 2
        assert b"error:" in proc.stderr
        assert proc.stdout == b""
        assert not cache.exists() or not any(cache.iterdir())

    def test_repeat_runs_are_byte_identical(self):
        first = run_cli("wg-table", "--k", "3", "--n", "7", "--seed", "1")
        second = run_cli("wg-table", "--k", "3", "--n", "7", "--seed", "1")
        assert first.stdout == second.stdout

    def test_cache_directory_is_populated_and_reused(self, tmp_path):
        cache = tmp_path / "cache"
        env = {"HAARMOMENTS_CACHE": str(cache)}
        first = run_cli("wg-table", "--k", "3", "--n", "6", env_extra=env)
        assert first.returncode == 0
        cached = cache / "wg-unit-k3-n6.json"
        assert cached.is_file()
        stamp = cached.stat().st_mtime_ns
        second = run_cli("wg-table", "--k", "3", "--n", "6", env_extra=env)
        assert second.stdout == first.stdout
        assert cached.stat().st_mtime_ns == stamp
        assert sorted(path.name for path in cache.iterdir()) == ["wg-unit-k3-n6.json"]

    def test_cold_and_cached_runs_leave_no_temporary_file(self, tmp_path):
        cache = tmp_path / "cache"
        env = {"HAARMOMENTS_CACHE": str(cache)}
        for name in ("cold.json", "cached.json"):
            proc = run_cli("wg-table", "--k", "4", "--n", "6", "--orthogonal",
                           "--out", str(tmp_path / name), env_extra=env)
            assert proc.returncode == 0
        assert (tmp_path / "cold.json").read_bytes() == (tmp_path / "cached.json").read_bytes()
        assert sorted(path.name for path in cache.iterdir()) == ["wg-orth-k4-n6.json"]
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "cache", "cached.json", "cached.json.manifest.json", "cold.json",
            "cold.json.manifest.json",
        ]

    @pytest.mark.parametrize("corrupt", ["garbage", "truncated"])
    def test_bad_cache_file_is_a_miss(self, tmp_path, corrupt):
        cache = tmp_path / "cache"
        env = {"HAARMOMENTS_CACHE": str(cache)}
        fresh = run_cli("wg-table", "--k", "3", "--n", "4", env_extra=env)
        cached = cache / "wg-unit-k3-n4.json"
        valid = cached.read_text()
        if corrupt == "garbage":
            cached.write_text(json.dumps({"values": {"1,1": "garbage"}}))
        else:
            cached.write_text(valid[: len(valid) // 2])
        proc = run_cli("wg-table", "--k", "3", "--n", "4", env_extra=env)
        assert proc.returncode == 0
        assert proc.stdout == fresh.stdout
        assert cached.read_text() == valid


class TestManifest:
    def test_stderr_manifest_without_out(self):
        proc = run_cli("wg-table", "--k", "2", "--n", "5", "--seed", "9")
        manifest = json.loads(proc.stderr)
        assert manifest["command"] == "wg-table"
        assert manifest["seed"] == 9
        assert manifest["parameters"]["k"] == 2
        assert manifest["parameters"]["orthogonal"] is False
        assert "threads" in manifest["parameters"]
        assert manifest["output_digest"] == hashlib.sha256(proc.stdout).hexdigest()
        assert manifest["wall_time_s"] >= 0

    def test_file_manifest_with_out(self, tmp_path):
        out = tmp_path / "table.json"
        proc = run_cli("wg-table", "--k", "2", "--n", "5", "--out", str(out))
        assert proc.returncode == 0
        assert proc.stdout == b""
        assert proc.stderr == b""
        text = (tmp_path / "table.json.manifest.json").read_text()
        manifest = json.loads(text)
        assert manifest["output_digest"] == hashlib.sha256(out.read_bytes()).hexdigest()
        assert text == json.dumps(manifest, indent=2, sort_keys=True) + "\n"

    def test_version_is_package_version(self):
        proc = run_cli("wg-table", "--k", "2", "--n", "5")
        assert json.loads(proc.stderr)["version"] == haarmoments.__version__

    def test_omitted_seed_is_recorded_and_reproducible(self):
        proc = run_cli("wg-table", "--k", "2", "--n", "4")
        manifest = json.loads(proc.stderr)
        replay = run_cli("wg-table", "--k", "2", "--n", "4", "--seed", str(manifest["seed"]))
        assert replay.stdout == proc.stdout


def dumps_bytes(tree):
    """The bytes ``cli._json_bytes`` must reproduce."""
    return (json.dumps(tree, indent=2, sort_keys=True, allow_nan=False) + "\n").encode()


#: Characters that stress key templates and string escapes.
_TRICKY_CHARS = list('%s%d%%"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\ud800\U0001f600')
#: Floats at the edges of ``repr``'s formats: signed zeros, subnormals, the
#: switch to exponents at 1e16 and below 1e-4, and the largest finite value.
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, -1e16,
                9999999999999998.0, 1.0000000000000002e16, 1e-7, 1.0000000000000001e-07,
                1e-4, 9.999999999999999e-05, 1.7976931348623157e308]
#: Subtrees equal under ``==`` that encode differently, to catch a memo keyed
#: on value alone.
_LOOKALIKES = [[1, 0], [True, False], [1.0, 0.0], [1.0, -0.0], (1, 0), [[1, 0]],
               [[True, False]], [[1.0, -0.0]], [[0.0, 0.0]], [[-0.0, 0.0]], ["1", "0"],
               [None, None], [1, True], [[1], [True]], [[1.0], [1]]]

_text = st.text(st.sampled_from(_TRICKY_CHARS) | st.characters(), max_size=6)
_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGE_FLOATS)
_scalars = (
    st.none() | st.booleans() | _floats | _text
    | st.integers() | st.integers(min_value=2**64, max_value=2**200).map(lambda v: v * (-1) ** v)
)


@st.composite
def _nests(draw):
    """Rectangular nests of one leaf type, some then made ragged or mixed."""
    shape = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    leaf = draw(st.sampled_from([_floats, st.integers(), st.booleans(), _text]))

    def build(dims):
        return [build(dims[1:]) for _ in range(dims[0])] if dims else draw(leaf)

    nest = build(shape)
    flaw = draw(st.sampled_from(["none", "ragged", "mixed", "tuple-rows"]))
    if flaw == "tuple-rows":
        return [tuple(row) if isinstance(row, list) else row for row in nest]
    row = nest
    while flaw != "none" and row and isinstance(row[0], list):
        row = row[0]
    if row and flaw == "ragged":
        row.pop()
    elif row and flaw == "mixed":
        row[0] = draw(_scalars)
    return nest


_trees = st.recursive(
    _scalars | _nests() | st.sampled_from(_LOOKALIKES),
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(_text, children, max_size=4)
    ),
    max_leaves=24,
)


class TestJsonWriter:
    """``cli._json_bytes`` against ``json.dumps(indent=2, sort_keys=True)``."""

    @settings(max_examples=400, deadline=None)
    @given(tree=_trees)
    def test_bytes_match_json_dumps(self, tree):
        assert cli._json_bytes(tree) == dumps_bytes(tree)

    @settings(max_examples=100, deadline=None)
    @given(trees=st.lists(st.sampled_from(_LOOKALIKES), max_size=10), key=_text)
    def test_equal_subtrees_of_different_types_stay_apart(self, trees, key):
        tree = {key: trees, "again": [{"x": t} for t in trees]}
        assert cli._json_bytes(tree) == dumps_bytes(tree)

    def test_numpy_float_leaves_encode_as_floats(self):
        tree = {
            "spectrum": [[np.float64(1.5), np.float64(-0.0)], [np.float64(1e16), 2.0]],
            "lone": np.float64(5e-324),
        }
        assert cli._json_bytes(tree) == dumps_bytes(tree)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
    @pytest.mark.parametrize(
        "wrap",
        [lambda v: v, lambda v: {"a": [1, v]}, lambda v: [[0.5, 1.5], [2.5, v]],
         lambda v: [0.5, v]],
        ids=["bare", "mixed-list", "float-nest", "float-row"],
    )
    def test_nonfinite_floats_raise_value_error(self, bad, wrap):
        with pytest.raises(ValueError):
            cli._json_bytes(wrap(bad))

    @pytest.mark.parametrize("tree", [{1: "a"}, {"a": {None: 1}}, [{"b": 1}, {2.0: 1}]])
    def test_non_str_keys_raise_type_error(self, tree):
        with pytest.raises(TypeError):
            cli._json_bytes(tree)

    @pytest.mark.parametrize("leaf", [object(), np.int64(1), {1, 2}])
    def test_unencodable_values_raise_type_error(self, leaf):
        with pytest.raises(TypeError):
            cli._json_bytes({"a": [leaf]})


class TestCenteredCheck:
    def test_degree_two_suite_passes(self):
        proc = run_cli("centered-check", "--k", "2", "--n", "5")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["cases"] == 64
        assert payload["failures"] == 0
        assert payload["pass"] is True

    def test_odd_degree_rejected_as_usage(self):
        proc = run_cli("centered-check", "--k", "3", "--n", "5")
        assert proc.returncode == 2


class TestGaussCompare:
    def test_warmup_grid_passes(self):
        proc = run_cli("gauss-compare", "--k", "2", "--n", "16")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["check"] == "warmup"
        assert payload["cases"] == 64
        assert payload["failures"] == 0
        entry = payload["entries"][0]
        assert {"lhs", "rhs", "margin", "passes", "eps", "x", "y"} <= set(entry)

    @pytest.mark.parametrize("n", ["0", "-3"])
    @pytest.mark.parametrize("brackets", [[], ["--brackets"]], ids=["warmup", "brackets"])
    def test_nonpositive_dimension_exits_two(self, n, brackets, capsys):
        assert cli.dispatch(["gauss-compare", "--k", "2", "--n", n, *brackets]) == 2
        captured = capsys.readouterr()
        assert "--n" in captured.err
        assert captured.out == ""

    def test_small_dimension_is_skipped_with_the_regime_reason(self):
        proc = run_cli("gauss-compare", "--k", "2", "--n", "1", "--brackets")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["skipped"] == payload["cases"] > 0
        assert all(entry["reason"] for entry in payload["entries"])

    def test_bracket_grid_passes(self):
        proc = run_cli("gauss-compare", "--k", "2", "--n", "16", "--brackets")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["check"] == "with-brackets"
        assert payload["cases"] == 64
        assert payload["failures"] == 0
        assert "pi" in payload["entries"][0]


class TestFreeNorm:
    def test_uniform_pencil_report(self, tmp_path):
        pencil = write_uniform_pencil(tmp_path / "pencil.json")
        proc = run_cli(
            "free-norm", "--pencil", str(pencil), "--m", "16", "--k-max", "6",
            "--seed", "0",
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["d"] == 2
        assert payload["lower_estimate"] == pytest.approx(3.0662466535684256, abs=1e-12)
        for value in payload["rho_k"].values():
            assert value == pytest.approx(math.sqrt(3), abs=1e-9)

    @pytest.mark.parametrize("k_max", ["0", "-1"])
    def test_nonpositive_k_max_exits_two(self, tmp_path, k_max, capsys):
        pencil = write_uniform_pencil(tmp_path / "pencil.json")
        argv = ["free-norm", "--pencil", str(pencil), "--m", "4", "--k-max", k_max]
        assert cli.dispatch(argv) == 2
        captured = capsys.readouterr()
        assert "--k-max" in captured.err
        assert captured.out == ""

    def test_order_over_the_cap_refused_before_any_order(self, tmp_path, monkeypatch, capsys):
        from haarmoments import freegroup
        orders = []
        rho_k = freegroup.rho_k

        def recording(pencil, k):
            orders.append(k)
            return rho_k(pencil, k)

        monkeypatch.setattr(freegroup, "rho_k", recording)
        pencil = write_uniform_pencil(tmp_path / "pencil.json")
        k_max = str(freegroup.MAX_RHO_ORDER + 1)
        argv = ["free-norm", "--pencil", str(pencil), "--m", "4", "--k-max", k_max]
        assert cli.dispatch(argv) == 2
        assert "exceeds the cap" in capsys.readouterr().err
        assert orders == [freegroup.MAX_RHO_ORDER + 1]


class TestNbSpectrum:
    def test_scalar_weight_family(self, tmp_path):
        weights = tmp_path / "weights.json"
        entry = [[[0.5, 0.0]]]
        weights.write_text(json.dumps({"weights": [entry] * 4}))
        proc = run_cli(
            "nb-spectrum", "--weights", str(weights), "--lambda-grid", "0.5:2.0:0.5"
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["dimension"] == 4
        assert len(payload["spectrum"]) == 4
        assert [point["lambda"] for point in payload["grid"]] == [0.5, 1.0, 1.5, 2.0]

    def test_singular_grid_point_writes_null(self, tmp_path):
        weights = tmp_path / "weights.json"
        weights.write_text(json.dumps({"weights": [[[[0.0, 0.0]]]] * 4}))
        proc = run_cli("nb-spectrum", "--weights", str(weights), "--lambda-grid=-0.5:0.5:0.5")
        assert proc.returncode == 0, proc.stderr
        grid = json.loads(proc.stdout)["grid"]
        assert [point["lambda"] for point in grid] == [-0.5, 0.0, 0.5]
        assert [point["min_singular_value"] for point in grid] == [1.0, None, 1.0]

    def test_bad_grid_spec_exits_two(self, tmp_path):
        weights = tmp_path / "weights.json"
        weights.write_text(json.dumps({"weights": [[[[0.5, 0.0]]]] * 4}))
        proc = run_cli("nb-spectrum", "--weights", str(weights), "--lambda-grid", "1:2")
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "grid", ["0:inf:1", "nan:1:0.5", "0:1:-inf", "-1e308:1e308:1e-300", "0:200000:1"]
    )
    def test_unbounded_or_oversized_grid_exits_two(self, tmp_path, grid):
        weights = tmp_path / "weights.json"
        weights.write_text(json.dumps({"weights": [[[[0.5, 0.0]]]] * 4}))
        proc = run_cli("nb-spectrum", "--weights", str(weights), f"--lambda-grid={grid}")
        assert proc.returncode == 2
        assert b"error:" in proc.stderr
        assert b"Traceback" not in proc.stderr

    def test_grid_at_the_point_cap_is_accepted(self):
        assert len(cli._parse_grid(f"0:{cli.MAX_GRID_POINTS - 1}:1")) == cli.MAX_GRID_POINTS
        with pytest.raises(CapacityError):
            cli._parse_grid(f"0:{cli.MAX_GRID_POINTS}:1")

    def test_capacity_checked_before_building_the_operator(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the operator was built before the cap check")

        monkeypatch.setattr(nonbacktracking, "build_nb", refuse)
        weights = tmp_path / "weights.json"
        count = nonbacktracking.MAX_MAPPING_DIM + 2
        weights.write_text(json.dumps({"weights": [[[[0.5, 0.0]]]] * count}))
        code = cli.dispatch(
            ["nb-spectrum", "--weights", str(weights), "--lambda-grid", "0:1:0.5"]
        )
        assert code == 2

    def test_grid_parsed_before_building_the_operator(self, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("the operator was built before the grid was parsed")

        monkeypatch.setattr(nonbacktracking, "build_nb", refuse)
        weights = tmp_path / "weights.json"
        weights.write_text(json.dumps({"weights": [[[[0.5, 0.0]]]] * 4}))
        code = cli.dispatch(["nb-spectrum", "--weights", str(weights), "--lambda-grid", "1:2"])
        assert code == 2
        assert "error: lambda grid must be LO:HI:STEP" in capsys.readouterr().err


class TestFreeness:
    def write_config(self, tmp_path, seed=5):
        write_uniform_pencil(tmp_path / "pencil.json")
        config = tmp_path / "experiment.json"
        config.write_text(
            json.dumps(
                {
                    "n": [6, 8],
                    "d": 2,
                    "q_minus": 0,
                    "q_plus": 1,
                    "pencil": "pencil.json",
                    "seed": seed,
                }
            )
        )
        return config

    @pytest.mark.parametrize(
        "key, value",
        [
            ("n", 6),
            ("n", [6, "8"]),
            ("d", 2.0),
            ("q_plus", True),
            ("seed", [1]),
            ("seed", True),
            ("seed", "5"),
            ("pencil", 5),
        ],
    )
    def test_malformed_config_exits_two(self, tmp_path, key, value):
        config = self.write_config(tmp_path)
        data = json.loads(config.read_text())
        data[key] = value
        config.write_text(json.dumps(data))
        proc = run_cli("freeness", "--config", str(config), "--trials", "1")
        assert proc.returncode == 2
        assert b"error:" in proc.stderr
        assert b"Traceback" not in proc.stderr

    def test_top_level_list_config_exits_two(self, tmp_path):
        config = self.write_config(tmp_path)
        config.write_text(json.dumps([json.loads(config.read_text())]))
        proc = run_cli("freeness", "--config", str(config), "--trials", "1")
        assert proc.returncode == 2
        assert b"error:" in proc.stderr
        assert b"Traceback" not in proc.stderr

    def test_csv_shape_and_config_seed(self, tmp_path):
        config = self.write_config(tmp_path, seed=5)
        out = tmp_path / "rows.csv"
        proc = run_cli(
            "freeness", "--config", str(config), "--trials", "2", "--out", str(out)
        )
        assert proc.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,trial,seed,restricted_norm,astar_estimate,deviation,wall_time_ms"
        assert len(lines) == 5
        manifest = json.loads((tmp_path / "rows.csv.manifest.json").read_text())
        assert manifest["seed"] == 5
        first = lines[1].split(",")
        assert first[0] == "6" and first[1] == "0" and first[2] == "5"
        deviation = abs(float(first[3]) - float(first[4]))
        assert float(first[5]) == pytest.approx(deviation, abs=1e-15)

    def test_numeric_columns_reproducible_and_thread_invariant(self, tmp_path):
        config = self.write_config(tmp_path, seed=11)

        def numeric_rows(proc):
            lines = proc.stdout.decode().splitlines()
            return [line.rsplit(",", 1)[0] for line in lines[1:]]

        serial = run_cli("freeness", "--config", str(config), "--trials", "2")
        again = run_cli("freeness", "--config", str(config), "--trials", "2")
        pooled = run_cli(
            "freeness", "--config", str(config), "--trials", "2", "--threads", "2"
        )
        assert serial.returncode == 0
        assert numeric_rows(serial) == numeric_rows(again)
        assert numeric_rows(serial) == numeric_rows(pooled)

    def test_unconverged_eigensolve_exits_one_with_an_error_line(
        self, tmp_path, monkeypatch, capsys
    ):
        def no_convergence(*args, **kwargs):
            raise haarmodel.PowerIterationError("restricted norm did not converge: stub")

        monkeypatch.setattr(haarmodel, "restricted_norm", no_convergence)
        config = self.write_config(tmp_path)
        out = tmp_path / "rows.csv"
        before = sorted(tmp_path.iterdir())
        code = cli.dispatch(["freeness", "--config", str(config), "--trials", "1",
                             "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: restricted norm did not converge: stub\n"
        assert sorted(tmp_path.iterdir()) == before

    def test_flag_seed_overrides_config_seed(self, tmp_path):
        config = self.write_config(tmp_path, seed=5)
        proc = run_cli(
            "freeness", "--config", str(config), "--trials", "1", "--seed", "77"
        )
        manifest = json.loads(proc.stderr)
        assert manifest["seed"] == 77
        first_row = proc.stdout.decode().splitlines()[1]
        assert first_row.split(",")[2] == "77"


class TestLinearize:
    def test_two_cosine_polynomial(self, tmp_path):
        poly = tmp_path / "poly.json"
        poly.write_text(
            json.dumps(
                [
                    {"word": [0], "matrix": [[[1.0, 0.0]]]},
                    {"word": [1], "matrix": [[[1.0, 0.0]]]},
                ]
            )
        )
        proc = run_cli("linearize", "--poly", str(poly), "--d", "1")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["d"] == 1
        assert payload["shift"] == pytest.approx(1.1 * math.sqrt(0.5) + 1.0, abs=1e-12)
        assert payload["effective_shift"] == pytest.approx(3 * payload["shift"], abs=1e-12)
        assert payload["residual"] <= 1e-8
        assert payload["support_size"] == 3

    def test_pencil_matrices_encode_entry_by_entry(self, tmp_path):
        from haarmoments.freegroup import ReducedWord
        from haarmoments.linearization import GroupPolynomial, sqrt_pencil, symmetric_ball

        def entry_pairs(matrix):
            return [[[z.real, z.imag] for z in row] for row in matrix]

        rng = np.random.default_rng(4)
        entries, coeffs = [], {}
        for letters, inverse in (((0,), (2,)), ((1, 0), (2, 3))):
            block = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            for w, m in ((letters, block), (inverse, block.conj().T)):
                coeffs[ReducedWord(2, w)] = m
                entries.append({"word": list(w), "matrix": entry_pairs(m)})
        poly = tmp_path / "poly.json"
        poly.write_text(json.dumps(entries))
        out = tmp_path / "pencil.json"
        assert cli.dispatch(["linearize", "--poly", str(poly), "--d", "2", "--out", str(out)]) == 0
        payload = json.loads(out.read_bytes())
        root = sqrt_pencil(GroupPolynomial(2, coeffs), symmetric_ball(2, 1)).pencil
        expected = [
            {"word": list(w.letters), "matrix": entry_pairs(root.coefficient(w))}
            for w in root.support
        ]
        assert cli._json_bytes(payload["pencil"]) == cli._json_bytes(expected)

    def test_letters_read_under_the_given_generator_count(self, tmp_path):
        # Under d = 3, letter 3 is the inverse of letter 0; under d = 2 it
        # would be the inverse of letter 1.
        poly = tmp_path / "poly.json"
        poly.write_text(json.dumps(
            [{"word": word, "matrix": [[[1.0, 0.0]]]} for word in ([], [0], [3])]
        ))
        proc = run_cli("linearize", "--poly", str(poly), "--d", "3")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["d"] == 3
        assert payload["residual"] <= 1e-8
        inferred = run_cli("linearize", "--poly", str(poly))
        assert inferred.returncode == 2
        assert b"the following arguments are required: --d" in inferred.stderr

    def test_non_selfadjoint_input_exits_two(self, tmp_path):
        poly = tmp_path / "poly.json"
        poly.write_text(json.dumps([{"word": [0], "matrix": [[[1.0, 0.0]]]}]))
        proc = run_cli("linearize", "--poly", str(poly), "--d", "1")
        assert proc.returncode == 2
        assert b"self-adjoint" in proc.stderr


class TestSelftest:
    def test_all_fast_checks_pass(self):
        proc = run_cli("selftest", "--seed", "3")
        assert proc.returncode == 0
        text = proc.stdout.decode()
        assert "all checks passed" in text
        assert "FAIL" not in text
