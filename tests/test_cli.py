import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from klmoments import cli, evans
from klmoments.cache import PowerSumStore
from klmoments.cli import main
from klmoments.modforms import CoefficientTable, table_to_json
from klmoments.moments import (
    COMPLETED,
    DEFAULT_EXACT_LIMIT,
    METHOD_FLOAT,
    PRECISION_CAP,
    PRECISION_START,
)

GOLDEN = Path(__file__).parent / "data" / "golden_dims.txt"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDims:
    def test_golden_text(self, capsys):
        code, out, _ = run(capsys, "dims")
        assert code == 0
        assert out == GOLDEN.read_text()

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "dims", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "d,good,p=2,p=3,p=5,p=7,p=11,p=13"
        assert lines[8] == "8,2,0,0,good,good,good,good"

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "dims", "--format", "json")
        _, second, _ = run(capsys, "dims", "--format", "json")
        assert first == second


class TestParser:
    @pytest.mark.parametrize("argv", [
        ["sums", "--p", "5", "--nmax", "2"],
        ["evans", "--d", "5", "--pmin", "2", "--pmax", "3"],
    ])
    def test_route_defaults_are_the_library_constants(self, argv):
        args = cli.build_parser().parse_args(argv)
        assert args.exact_limit == DEFAULT_EXACT_LIMIT
        assert args.precision == PRECISION_START
        assert args.precision_cap == PRECISION_CAP

    @pytest.mark.parametrize("argv", [
        ["dims", "--no-cache"],
        ["det", "--d", "7", "--p", "3", "--jobs", "2"],
        ["sums", "--p", "5", "--nmax", "2", "--jobs", "2"],
        ["sums", "--p", "5", "--nmax", "2", "--precision", "128", "--precision-cap", "64"],
        ["evans", "--d", "8", "--pmin", "3", "--pmax", "5", "--exact-limit", "2"],
    ])
    def test_usage_errors(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


class TestSums:
    def test_restricted(self, capsys):
        code, out, _ = run(capsys, "sums", "--p", "3", "--nmax", "2", "--no-cache")
        assert code == 0
        assert "S_1 = 1" in out and "S_2 = 5" in out

    def test_completed(self, capsys):
        code, out, _ = run(
            capsys, "sums", "--p", "3", "--nmax", "2",
            "--convention", "completed", "--no-cache",
        )
        assert code == 0
        assert "S'_1 = 0" in out and "S'_2 = 6" in out

    def test_both_methods_cross_checked(self, capsys):
        code, out, _ = run(
            capsys, "sums", "--p", "13", "--nmax", "4",
            "--method", "both", "--no-cache",
        )
        assert code == 0
        assert "float-congruence" in out and "exact-cyclotomic" in out

    def test_invalid_prime_fails(self, capsys):
        code, out, err = run(capsys, "sums", "--p", "4", "--nmax", "2", "--no-cache")
        assert code != 0
        assert "not prime" in err

    def test_json_error_object(self, capsys):
        code, out, _ = run(
            capsys, "sums", "--p", "4", "--nmax", "2",
            "--format", "json", "--no-cache",
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["error"]["type"] == "ValueError"

    def test_missing_argument_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sums", "--p", "3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("precision", ["0", "-64"])
    def test_precision_below_one_is_usage_error(self, monkeypatch, precision):
        # doubling such a precision never reaches the cap; the stub makes
        # that a fast failure instead of a hang
        def unreachable(*args):
            raise AssertionError("a precision below 1 reached the float path")

        monkeypatch.setattr(evans, "power_sums_float_auto", unreachable)
        with pytest.raises(SystemExit) as exc:
            main(["sums", "--p", "263", "--nmax", "4", "--method", "float",
                  "--no-cache", "--precision", precision])
        assert exc.value.code == 2

    def test_float_table_read_back_not_overwritten(self, capsys, tmp_path):
        base = ("sums", "--p", "13", "--method", "float", "--cache-dir", str(tmp_path))
        code, long_out, _ = run(capsys, *base, "--nmax", "8")
        assert code == 0
        code, short_out, _ = run(capsys, *base, "--nmax", "3")
        assert code == 0
        assert short_out.splitlines() == long_out.splitlines()[:4]
        cached = PowerSumStore(tmp_path).load(13, COMPLETED, METHOD_FLOAT)
        assert sorted(cached.values) == list(range(1, 9))


class TestMoments:
    def test_value(self, capsys):
        code, out, _ = run(capsys, "moments", "--p", "5", "--d", "8", "--no-cache")
        assert code == 0
        assert "m^8_2(5) = 1024" in out


class TestEvans:
    def test_csv_sweep(self, capsys):
        code, out, _ = run(
            capsys, "evans", "--d", "8", "--pmin", "3", "--pmax", "40",
            "--format", "csv", "--no-cache",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "p,m,derived,checks_passed,checks_failed,method"
        assert len(lines) == 11 + 1  # the 11 primes in [3, 40]

    def test_json_deterministic(self, capsys):
        argv = (
            "evans", "--d", "6", "--pmin", "2", "--pmax", "30",
            "--format", "json", "--no-cache",
        )
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second
        doc = json.loads(first)
        assert doc["summary"]["failed"] == 0 and doc["summary"]["errors"] == 0

    def test_cold_and_warm_cache_identical(self, capsys, tmp_path):
        argv = (
            "evans", "--d", "8", "--pmin", "3", "--pmax", "30",
            "--format", "json", "--cache-dir", str(tmp_path),
        )
        code1, cold, _ = run(capsys, *argv)
        assert code1 == 0
        assert list(tmp_path.glob("sums/*.json"))
        code2, warm, _ = run(capsys, *argv)
        assert code2 == 0
        assert cold == warm

    def test_jobs_do_not_change_output_or_cache(self, capsys, tmp_path):
        argv = ("evans", "--d", "5", "--pmin", "2", "--pmax", "40",
                "--exact-limit", "11", "--format", "json")
        outs, caches = [], []
        for jobs in ("1", "2"):
            cache_dir = tmp_path / f"jobs{jobs}"
            code, out, _ = run(capsys, *argv, "--jobs", jobs, "--cache-dir", str(cache_dir))
            assert code == 0
            outs.append(out)
            caches.append({
                path.name: path.read_bytes() for path in (cache_dir / "sums").glob("*.json")
            })
        assert '"method": "girard-float"' in outs[0]
        assert outs[0] == outs[1]
        assert caches[0] == caches[1]
        assert "p37-completed-float-congruence.json" in caches[0]

    def test_reads_float_table_written_by_sums(self, capsys, monkeypatch, tmp_path):
        cache = ("--cache-dir", str(tmp_path))
        code, _, _ = run(capsys, "sums", "--p", "263", "--nmax", "8", "--method", "float", *cache)
        assert code == 0

        def unreachable(*args):
            raise AssertionError("evans recomputed the float table sums stored")

        monkeypatch.setattr(evans, "power_sums_float_auto", unreachable)
        argv = ("evans", "--d", "5", "--pmin", "263", "--pmax", "263")
        code, out, _ = run(capsys, *argv, *cache)
        assert code == 0
        # text output does not name the route, so the exact route must match
        assert out == run(capsys, *argv, "--exact-limit", "263", "--no-cache")[1]

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_is_usage_error(self, jobs):
        with pytest.raises(SystemExit) as exc:
            main(["evans", "--d", "8", "--pmin", "3", "--pmax", "5", "--jobs", jobs])
        assert exc.value.code == 2

    def test_table_flag(self, capsys, tmp_path):
        table = CoefficientTable("d8", 6, 6, 1, {5: -66, 7: 176})
        path = tmp_path / "d8.json"
        path.write_text(table_to_json(table))
        code, out, _ = run(
            capsys, "evans", "--d", "8", "--pmin", "5", "--pmax", "7",
            "--table", str(path), "--no-cache",
        )
        assert code == 0
        assert "table_match=ok" in out


class TestDet:
    def test_values(self, capsys):
        code, out, _ = run(capsys, "det", "--d", "7", "--p", "3", "5", "7")
        assert code == 0
        assert out.splitlines() == [
            "det d=7 p=3: +1",
            "det d=7 p=5: -1",
            "det d=7 p=7: +1",
        ]


class TestEta:
    def test_registry_quotient(self, capsys):
        code, out, _ = run(
            capsys, "eta", "--quotient", "1:2,2:2,3:2,6:2", "--terms", "8",
        )
        assert code == 0
        assert "weight = 4" in out and "leading exponent = 1" in out
        assert "q^2: -2" in out and "q^3: -3" in out


class TestMolien:
    def test_dim_series(self, capsys):
        code, out, _ = run(capsys, "molien", "--dmax", "12")
        assert code == 0
        assert "d=12: 2" in out and "d=2: 0" in out

    def test_frob_series(self, capsys):
        code, out, _ = run(
            capsys, "molien", "--dmax", "8", "--kind", "frob"
        )
        assert code == 0
        assert "d=6: -1" in out and "d=8: 1" in out


class TestTrace:
    def test_odd_integral(self, capsys):
        code, out, _ = run(capsys, "trace", "--d", "3", "--p", "5", "--no-cache")
        assert code == 0
        assert "normalized trace = -1" in out

    def test_odd_rational_mode(self, capsys):
        code, out, _ = run(
            capsys, "trace", "--d", "5", "--p", "17", "--rational", "--no-cache"
        )
        assert code == 0
        assert "normalized trace = -14/17" in out

    def test_odd_strict_failure(self, capsys):
        code, _, err = run(capsys, "trace", "--d", "5", "--p", "17", "--no-cache")
        assert code == 1
        assert "does not divide" in err

    def test_even_record(self, capsys):
        code, out, _ = run(capsys, "trace", "--d", "4", "--p", "5", "--no-cache")
        assert code == 0
        assert "pure part = 0" in out


STARTUP_PROBE = """
import contextlib, io, json, sys
import klmoments.cli
lazy = ("mpmath", "concurrent.futures.process", "numpy")
after_import = [m for m in lazy if m in sys.modules]
with contextlib.redirect_stdout(io.StringIO()):
    code = klmoments.cli.main(["evans", "--d", "6", "--pmin", "2", "--pmax", "31", "--no-cache"])
print(json.dumps([after_import, code, "mpmath" in sys.modules, "numpy" in sys.modules]))
"""


class TestStartup:
    def test_import_and_exact_sweep_skip_mpmath_and_the_pool(self):
        # a fresh interpreter: importing the CLI loads neither mpmath, numpy
        # nor the process pool, and an exact-only --jobs 1 sweep needs
        # neither mpmath nor numpy
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        env.pop("KLMOMENTS_CACHE_DIR", None)
        done = subprocess.run(
            [sys.executable, "-c", STARTUP_PROBE],
            env=env, capture_output=True, text=True, check=True,
        )
        assert json.loads(done.stdout) == [[], 0, False, False]
