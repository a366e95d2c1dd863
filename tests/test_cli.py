import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import klmoments
from klmoments import cli, evans, invariants, modforms
from klmoments.cache import PowerSumStore
from klmoments.cli import main
from klmoments.errors import InputTooLarge
from klmoments.moments import DEFAULT_EXACT_LIMIT, METHOD_EXACT, METHOD_FLOAT, PowerSumTable

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

    @pytest.mark.parametrize("argv", [
        ["dims", "--no-cache"],
        ["det", "--d", "7", "--p", "3", "--jobs", "2"],
        ["sums", "--p", "5", "--nmax", "2", "--jobs", "2"],
        ["sums", "--p", "5", "--nmax", "2", "--precision", "128", "--precision-cap", "64"],
        ["evans", "--d", "8", "--pmin", "3", "--pmax", "5", "--exact-limit", "2"],
        ["evans", "--d", "6", "--pmin", "2", "--pmax", "5", "--table", "t.json"],
        ["evans", "--d", "7", "--pmin", "2", "--pmax", "5", "--table", "t.json"],
        # the coefficient-table import is gone for every degree
        ["evans", "--d", "8", "--pmin", "3", "--pmax", "5", "--table", "t.json"],
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

    def test_both_methods_disagreeing_is_a_json_error(self, capsys, monkeypatch):
        real = evans.power_sums_float_auto

        def corrupted(p, nmax):
            table, bits = real(p, nmax)
            values = {**table.values, 4: table.values[4] + p * p}  # same class mod p^2
            return PowerSumTable(p, table.convention, values, table.method), bits

        monkeypatch.setattr(evans, "power_sums_float_auto", corrupted)
        code, out, _ = run(
            capsys, "sums", "--p", "13", "--nmax", "4",
            "--method", "both", "--format", "json", "--no-cache",
        )
        assert code == 1
        assert json.loads(out)["error"] == {
            "type": "CacheMismatch",
            "message": "S'_4(13): exact-cyclotomic gives 3848 "
            "but float-congruence gives 4017",
        }

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

    @pytest.mark.parametrize("unbuffered", ["1", ""])
    def test_closed_stdout_exits_1_without_a_traceback(self, unbuffered):
        # the pipe's read end is closed before the child starts, so its
        # first write (per line unbuffered, at main's flush otherwise) fails
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONUNBUFFERED": unbuffered}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            child = subprocess.Popen(
                [sys.executable, "-m", "klmoments", "sums", "--p", "7", "--nmax", "4",
                 "--format", "json", "--no-cache"],
                env=env, stdout=write_end, stderr=subprocess.PIPE,
            )
        finally:
            os.close(write_end)
        err = child.stderr.read().decode()
        child.stderr.close()
        assert child.wait() == 1
        assert "Traceback" not in err and "BrokenPipeError" not in err

    @pytest.mark.parametrize("argv", [
        ("sums", "--p", "1000000007", "--nmax", "2", "--method", "float"),
        ("evans", "--d", "5", "--pmin", "1000000007", "--pmax", "1000000007"),
    ], ids=["sums", "evans"])
    def test_prime_above_the_ceiling_is_a_json_error(self, capsys, monkeypatch, argv):
        def started(*args):  # a missing refusal fails here, not out of memory
            raise AssertionError("a table or sieve above the prime ceiling was started")

        monkeypatch.setattr(evans, "power_sums_float_auto", started)
        monkeypatch.setattr(evans, "primes_in_range", started)
        code, out, _ = run(capsys, *argv, "--no-cache", "--format", "json")
        assert code == 1
        error = json.loads(out)["error"]
        assert error["type"] == "PrimeTooLarge"
        assert error["message"].endswith("= 1000000007 is above the prime ceiling 3067833")

    def test_missing_argument_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sums", "--p", "3"])
        assert exc.value.code == 2

    def test_float_table_read_back_not_overwritten(self, capsys, tmp_path):
        base = ("sums", "--p", "13", "--method", "float", "--cache-dir", str(tmp_path))
        code, long_out, _ = run(capsys, *base, "--nmax", "8")
        assert code == 0
        code, short_out, _ = run(capsys, *base, "--nmax", "3")
        assert code == 0
        assert short_out.splitlines() == long_out.splitlines()[:4]
        cached = PowerSumStore(tmp_path).load(13, METHOD_FLOAT)
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


class TestInputCeilings:
    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        # a missing refusal fails here instead of allocating gigabytes
        def started(*args, **kwargs):
            raise AssertionError("work above an input ceiling was started")

        monkeypatch.setattr(modforms, "eta_unit_series", started)
        monkeypatch.setattr(invariants, "dim_m_middle", started)
        monkeypatch.setattr(invariants, "QSeries", started)
        monkeypatch.setattr(evans, "power_sums_exact", started)
        monkeypatch.setattr(evans, "power_sums_float_auto", started)

    @pytest.mark.parametrize("argv, message", [
        (("eta", "--quotient", "1:24", "--terms", "1000000000"),
         "1000000000 terms are above the eta term ceiling 2334221"),
        # a lead of q^-10^7 needs 10^7 + 5 terms for --terms 5
        (("eta", "--quotient", "1:-240000000", "--terms", "5"),
         "10000005 terms are above the eta term ceiling 2334221"),
        # 10^6 + 5 terms pass the term ceiling, but exp(pi sqrt(2 K n / 3))
        # with K = 24*10^6 does not fit the digit budget
        (("eta", "--quotient", "1:-24000000", "--terms", "5"),
         "up to 3638370688666 digits are above the eta digit budget 178956970"),
        (("dims", "--dmax", "100000000"),
         "dmax = 100000000 is above the dims ceiling 766958"),
        (("molien", "--dmax", "1000000000"),
         "dmax = 1000000000 is above the Molien ceiling 1000000"),
        (("molien", "--dmax", "1000000000", "--kind", "frob"),
         "dmax = 1000000000 is above the Molien ceiling 1000000"),
        (("sums", "--p", "257", "--nmax", "20000", "--no-cache"),
         "nmax = 20000 at p = 257 sizes the exact-cyclotomic table at "
         "5654000000000000, above the table ceiling 18253611008"),
        (("moments", "--p", "101", "--d", "3000", "--no-cache"),
         "nmax = 3000 at p = 101 sizes the exact-cyclotomic table at "
         "6135750000000, above the table ceiling 18253611008"),
        (("trace", "--d", "3000", "--p", "101", "--no-cache"),
         "nmax = 3000 at p = 101 sizes the exact-cyclotomic table at "
         "6135750000000, above the table ceiling 18253611008"),
        (("sums", "--p", "3", "--nmax", "100000", "--method", "float", "--no-cache"),
         "nmax = 100000 at p = 3 sizes the float-congruence table at "
         "9000450000000000, above the table ceiling 18253611008"),
    ], ids=["eta", "eta-lead", "eta-digits", "dims", "molien-dim", "molien-frob",
            "sums-nmax", "moments-d", "trace-d", "sums-float"])
    def test_refused_before_any_allocation(self, capsys, argv, message):
        tracemalloc.start()
        try:
            code, out, _ = run(capsys, *argv, "--format", "json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert json.loads(out)["error"] == {"type": "InputTooLarge", "message": message}
        assert peak < 2**20 // 4  # the parser and the error object only

    def test_each_ceiling_itself_is_allowed(self):
        # the work starts at the ceiling and is refused one above it
        eta24 = modforms.EtaQuotient(((1, 24),))
        eta_minus24 = modforms.EtaQuotient(((1, -24),))
        cases = [
            (lambda n: modforms.eta_quotient_series(eta24, n), modforms.ETA_TERMS_CEILING),
            # the most terms of eta^-24 that the digit budget admits
            (lambda n: modforms.eta_quotient_series(eta_minus24, n), 134_175),
            (invariants.dims_table, invariants.DIMS_CEILING),
            (invariants.molien_dim_series, invariants.MOLIEN_CEILING),
            (invariants.molien_frob_series, invariants.MOLIEN_CEILING),
            # the largest nmax of each route at the largest prime below the
            # prime ceiling, 3067829
            (lambda n: evans.MomentEngine().lookup(3067829, n, METHOD_FLOAT), 8),
            (lambda n: evans.MomentEngine().lookup(3067829, n, METHOD_EXACT), 9),
        ]
        for work, ceiling in cases:
            with pytest.raises(AssertionError, match="started"):
                work(ceiling)
            with pytest.raises(InputTooLarge):
                work(ceiling + 1)


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
deferred = ("klmoments.invariants", "fractions", "csv", "hashlib", "logging", "dataclasses", "inspect")
traced = ("evans", "moments", "kloosterman", "cyclotomic", "convolve", "modforms", "cache")
after_import = [
    [m for m in lazy + deferred if m in sys.modules],
    [m for m in traced if "klmoments." + m not in sys.modules],
]
def sweep(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = klmoments.cli.main(["evans", *argv, "--no-cache"])
    return [code, [m for m in lazy + deferred if m in sys.modules]]
exact = sweep("--d", "6", "--pmin", "2", "--pmax", "31", "--format", "json")
float_route = sweep("--d", "5", "--pmin", "258", "--pmax", "270")
def command(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = klmoments.cli.main(list(argv))
    return [code, [m for m in ("dataclasses", "inspect", "fractions", "decimal") if m in sys.modules]]
others = [
    command("dims", "--dmax", "8"),
    command("det", "--d", "5", "--p", "7"),
    command("molien", "--dmax", "8"),
]
print(json.dumps([after_import, exact, float_route, others]))
"""

# Every public name of the package, by the module that defines it; the
# submodules themselves are public names too.
PUBLIC_NAMES = {
    "cyclotomic": [],
    "errors": ["KlmomentsError"],
    "evans": [
        "EvansReport", "MomentEngine", "batch_report", "evans_d5", "evans_d6",
        "evans_d7", "evans_d8", "trace_middle",
    ],
    "ffprime": ["Prime", "double_factorial", "is_prime", "jacobi_symbol"],
    "invariants": [
        "GOOD", "det_character_check", "dim_m_middle", "dim_m_shriek", "dims_table",
        "fuwan_det", "local_inv_inf", "molien_dim_series", "molien_frob_series",
        "swan_sym",
    ],
    "kloosterman": ["kl2_counts"],
    "modforms": [
        "EtaQuotient", "QSeries", "eta_quotient_series", "eta_unit_series",
        "hecke_validate", "prime_coefficients",
    ],
    "moments": [
        "MomentValue", "PowerSumTable", "power_sums_exact", "power_sums_float",
        "power_sums_float_auto", "sym_moment_appendix8", "sym_moment_direct",
        "sym_moment_girard",
    ],
    "convolve": [],
}


class TestStartup:
    def test_import_and_exact_sweep_skip_mpmath_and_the_pool(self):
        # a fresh interpreter: importing the CLI loads neither mpmath, numpy,
        # the process pool, nor the modules only other commands or formats
        # use (invariants, fractions, csv) or only the cache uses (hashlib,
        # logging), but every layer the benchmark tracer wraps; an exact
        # --jobs 1 JSON sweep and a float sweep (263 and 269 lie above the
        # exact limit; its root tables are seeded from integer series) load
        # none of those either; nor does any command, dims included, load
        # dataclasses or inspect; and dims, det and molien, whose series are
        # integer QSeries, load neither fractions nor decimal
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        env.pop("KLMOMENTS_CACHE_DIR", None)
        done = subprocess.run(
            [sys.executable, "-c", STARTUP_PROBE],
            env=env, capture_output=True, text=True, check=True,
        )
        assert json.loads(done.stdout) == [[[], []], [0, []], [0, []], [[0, []]] * 3]

    def test_public_names_resolve_to_their_modules(self):
        expected = sorted([*PUBLIC_NAMES, *(n for ns in PUBLIC_NAMES.values() for n in ns)])
        assert len(expected) == 47
        assert sorted(klmoments.__all__) == expected
        for module_name, names in PUBLIC_NAMES.items():
            module = getattr(klmoments, module_name)
            assert module is sys.modules[f"klmoments.{module_name}"]
            for name in names:
                assert getattr(klmoments, name) is getattr(module, name)
        for name in ("no_such_name", "CycInt", "as_integer", "kl2_value"):
            with pytest.raises(AttributeError):
                getattr(klmoments, name)
