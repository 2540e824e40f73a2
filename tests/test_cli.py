"""End-to-end tests for the command-line front end, run as subprocesses."""

import hashlib
import json
import math
import os
import subprocess
import sys

import pytest

import haarmoments
from haarmoments import cli
from haarmoments.symcore import CapacityError


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


class TestMalformedInputFiles:
    ENTRY = [[[1.0, 0.0]]]

    @pytest.mark.parametrize(
        "command, flag, content, extra",
        [
            ("free-norm", "--pencil", {"d": 2, "coeff_dim": 1, "a": 5}, ["--m", "4"]),
            ("free-norm", "--pencil", [ENTRY] * 4, ["--m", "4"]),
            ("nb-spectrum", "--weights", {"weights": 5}, ["--lambda-grid", "0.5:1.0:0.5"]),
            ("linearize", "--poly", [5], []),
            ("linearize", "--poly", [{"word": 3, "matrix": ENTRY}], []),
        ],
        ids=["pencil-a-int", "pencil-top-level-list", "weights-int", "poly-int-entry",
             "poly-int-word"],
    )
    def test_malformed_file_exits_two(self, tmp_path, command, flag, content, extra):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(content))
        proc = run_cli(command, flag, str(path), *extra)
        assert proc.returncode == 2
        assert b"error:" in proc.stderr
        assert b"Traceback" not in proc.stderr


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
        manifest = json.loads((tmp_path / "table.json.manifest.json").read_text())
        assert manifest["output_digest"] == hashlib.sha256(out.read_bytes()).hexdigest()

    def test_version_is_package_version(self):
        proc = run_cli("wg-table", "--k", "2", "--n", "5")
        assert json.loads(proc.stderr)["version"] == haarmoments.__version__

    def test_omitted_seed_is_recorded_and_reproducible(self):
        proc = run_cli("wg-table", "--k", "2", "--n", "4")
        manifest = json.loads(proc.stderr)
        replay = run_cli("wg-table", "--k", "2", "--n", "4", "--seed", str(manifest["seed"]))
        assert replay.stdout == proc.stdout


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

        monkeypatch.setattr(cli, "build_nb", refuse)
        weights = tmp_path / "weights.json"
        count = cli.MAX_MAPPING_DIM + 2
        weights.write_text(json.dumps({"weights": [[[[0.5, 0.0]]]] * count}))
        code = cli.dispatch(
            ["nb-spectrum", "--weights", str(weights), "--lambda-grid", "0:1:0.5"]
        )
        assert code == 2


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
        proc = run_cli("linearize", "--poly", str(poly))
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["d"] == 1
        assert payload["shift"] == pytest.approx(1.1 * math.sqrt(0.5) + 1.0, abs=1e-12)
        assert payload["effective_shift"] == pytest.approx(3 * payload["shift"], abs=1e-12)
        assert payload["residual"] <= 1e-8
        assert payload["support_size"] == 3

    def test_non_selfadjoint_input_exits_two(self, tmp_path):
        poly = tmp_path / "poly.json"
        poly.write_text(json.dumps([{"word": [0], "matrix": [[[1.0, 0.0]]]}]))
        proc = run_cli("linearize", "--poly", str(poly))
        assert proc.returncode == 2
        assert b"self-adjoint" in proc.stderr


class TestSelftest:
    def test_all_fast_checks_pass(self):
        proc = run_cli("selftest", "--seed", "3")
        assert proc.returncode == 0
        text = proc.stdout.decode()
        assert "all checks passed" in text
        assert "FAIL" not in text
