import csv
import importlib.util
import io
import json
import os
import shlex
import signal
import subprocess
import sys
import tracemalloc
from functools import cache
from pathlib import Path

import pytest
from hypothesis import event, given, settings, strategies as st

import klmoments
from klmoments import cli, evans, invariants, modforms, moments
from klmoments.cache import PowerSumStore
from klmoments.cli import main
from klmoments.errors import InputTooLarge
from klmoments.ffprime import Prime
from klmoments.moments import DEFAULT_EXACT_LIMIT, METHOD_EXACT, METHOD_FLOAT, PowerSumTable

GOLDEN = Path(__file__).parent / "data" / "golden_dims.txt"
ROOT = Path(__file__).resolve().parents[1]


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

    def test_renderers_are_deterministic(self, capsys):
        outputs = {}
        for fmt in ("text", "csv", "json"):
            outputs[fmt] = run(capsys, "dims", "--format", fmt)[1]
            assert run(capsys, "dims", "--format", fmt)[1] == outputs[fmt]
        assert outputs["csv"].splitlines()[0] == "d,good,p=2,p=3,p=5,p=7,p=11,p=13"

    @pytest.mark.parametrize("dmax", ["0", "-3"])
    def test_dmax_below_one_is_refused(self, capsys, dmax):
        for fmt in ("text", "csv"):
            assert run(capsys, "dims", "--dmax", dmax, "--format", fmt) == (
                1, "", "error: dmax must be >= 1\n",
            )
        code, out, _ = run(capsys, "dims", "--dmax", dmax, "--format", "json")
        assert code == 1
        assert json.loads(out)["error"] == {
            "type": "ValueError", "message": "dmax must be >= 1",
        }


@cache
def argparse_parser():
    return cli.build_parser()


def benchmark_argvs() -> list[list[str]]:
    """Every command line the benchmark's workloads run, with its cache flag."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    return [
        inv.argv(Path("cache") if inv.cached else None)
        for workload in workloads.WORKLOADS.values()
        for inv in workload.invocations
    ]


def readme_argvs() -> list[list[str]]:
    """The command lines of the README's CLI section."""
    section = (ROOT / "README.md").read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()]


def has_nargs_flag(argv: list[str]) -> bool:
    flags = cli._FLAGS[argv[0]][1]
    return any("nargs" in flags.get(token, {}) for token in argv[1:])


# Tokens that argparse reads in its own ways: negative numbers, empty and
# dash-led values, the end-of-options marker, help and version.
ODD_VALUES = ("", "-x", "--", "-1", "-", " 5", "5 ", "1_0", "x", "1:2", "dim", "csv")
STRAY = ("-h", "--help", "--version", "evans", "7", "--", "--no-such-flag")


@st.composite
def command_lines(draw):
    """A command and tokens drawn from the flag table: its own flags with
    values of their type and choice or just outside them, then flags of any
    command, odd values, --flag=value, abbreviations and stray tokens, in
    any order and repeated."""
    command = draw(st.sampled_from([*cli._FLAGS, "bogus"]))
    own = cli._FLAGS.get(command, ("", {}))[1]
    every = sorted({flag for _, flags in cli._FLAGS.values() for flag in flags})

    def flag_and_value(flag):
        # mostly a value argparse takes, sometimes one just outside
        spec = own[flag]
        if spec.get("action") == "store_true":
            return st.just([flag])
        if "choices" in spec:
            values = st.sampled_from([*(str(c) for c in spec["choices"]), "0", "xml"])
        elif spec.get("type") is int:
            values = st.integers(-3, 400).map(str) | st.just("x")
        else:
            values = st.sampled_from(["c", "1:2,2:-2", "", "-x", "--"])
        return values.map(lambda v: [flag, v])

    value = st.sampled_from(ODD_VALUES) | st.integers(-10**6, 10**6).map(str)
    flag = st.sampled_from(every) | st.sampled_from(list(own) or every)
    noise = st.one_of(
        flag.map(lambda f: [f]),
        st.tuples(flag, value).map(list),
        st.tuples(flag, value).map(lambda fv: ["=".join(fv)]),
        flag.flatmap(
            lambda f: st.integers(3, len(f) - 1).map(lambda k: [f[:k]])
            if len(f) > 3 else st.just([f])
        ),
        st.sampled_from(STRAY).map(lambda t: [t]),
    )
    # a required flag is left out one time in ten, any other one time in two
    groups = [draw(flag_and_value(flag)) for flag in own
              if draw(st.integers(0, 9)) < (9 if own[flag].get("required") else 5)]
    groups += draw(st.lists(noise, max_size=3))
    if own:
        groups += draw(st.lists(st.sampled_from(list(own)).flatmap(flag_and_value), max_size=2))
    groups = draw(st.permutations(groups))
    return [command, *(token for group in groups for token in group)]


class TestParser:
    @pytest.mark.parametrize("argv", [
        ["sums", "--p", "5", "--nmax", "2"],
        ["evans", "--d", "5", "--pmin", "2", "--pmax", "3"],
    ])
    def test_route_defaults_are_the_library_constants(self, argv):
        for parse in (cli._parse_exact, cli.build_parser().parse_args):
            assert parse(argv).exact_limit == DEFAULT_EXACT_LIMIT

    @settings(max_examples=400, deadline=None)
    @given(command_lines())
    def test_exact_parse_is_argparse_or_none(self, argv):
        fast = cli._parse_exact(argv)
        event("exact parse" if fast is not None else "left to argparse")
        if fast is not None:
            assert vars(fast) == vars(argparse_parser().parse_args(argv))

    @pytest.mark.parametrize("argv", [
        *benchmark_argvs(),
        *(argv for argv in readme_argvs() if not has_nargs_flag(argv)),
    ], ids=shlex.join)
    def test_benchmark_and_readme_lines_skip_argparse(self, argv):
        fast = cli._parse_exact(argv)
        assert fast is not None
        assert vars(fast) == vars(argparse_parser().parse_args(argv))

    def test_only_the_readme_nargs_line_is_left_to_argparse(self):
        left = [argv for argv in readme_argvs() if cli._parse_exact(argv) is None]
        assert left == [["det", "--d", "7", "--p", "3", "5", "7"]]

    def test_forms_only_argparse_reads_give_the_same_output(self, capsys):
        full = ("evans", "--d", "6", "--pmin", "2", "--pmax", "31", "--no-cache",
                "--format", "json")
        short = ("evans", "--d=6", "--pmi", "2", "--pmax", "31", "--no-cache",
                 "--format=json")
        assert cli._parse_exact(list(short)) is None
        assert run(capsys, *short) == run(capsys, *full)

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
        *(["eta", "--quotient", "1:24", "--terms", "-3", "--format", fmt]
          for fmt in ("text", "csv", "json")),
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
        real = moments.power_sums_float_auto

        def corrupted(p, nmax):
            table, bits = real(p, nmax)
            values = {**table.values, 4: table.values[4] + p * p}  # same class mod p^2
            return PowerSumTable(p, table.convention, values, table.method), bits

        monkeypatch.setattr(moments, "power_sums_float_auto", corrupted)
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
        # first write (per line unbuffered, at run()'s flush otherwise)
        # fails, whether it prints a table or the JSON error object
        env = {**probe_env(), "PYTHONUNBUFFERED": unbuffered}
        for argv in (("sums", "--p", "7", "--nmax", "4"), ("sums", "--p", "4", "--nmax", "2")):
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                child = subprocess.Popen(
                    [sys.executable, "-m", "klmoments", *argv, "--format", "json", "--no-cache"],
                    env=env, stdout=write_end, stderr=subprocess.PIPE,
                )
            finally:
                os.close(write_end)
            err = child.stderr.read().decode()
            child.stderr.close()
            assert (child.wait(), err) == (1, ""), argv

    @pytest.mark.parametrize("argv", [
        ("sums", "--p", "1000000007", "--nmax", "2", "--method", "float"),
        ("evans", "--d", "5", "--pmin", "1000000007", "--pmax", "1000000007"),
    ], ids=["sums", "evans"])
    def test_prime_above_the_ceiling_is_a_json_error(self, capsys, monkeypatch, argv):
        def started(*args):  # a missing refusal fails here, not out of memory
            raise AssertionError("a table or sieve above the prime ceiling was started")

        monkeypatch.setattr(moments, "power_sums_float_auto", started)
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

    def test_exact_limit_refuses_a_cached_table(self, capsys, tmp_path):
        # the limit is applied before the cache is read: a table that a
        # raised limit stored does not lift the default limit
        argv = ("sums", "--p", "263", "--nmax", "4", "--method", "exact",
                "--format", "json", "--cache-dir", str(tmp_path))
        cold = run(capsys, *argv)
        assert cold[0] == 1
        assert json.loads(cold[1])["error"] == {
            "type": "ExactLimitExceeded",
            "message": "p = 263 above exact-path limit 257",
        }
        assert run(capsys, *argv, "--exact-limit", "263")[0] == 0
        assert PowerSumStore(tmp_path).load(263, METHOD_EXACT) is not None
        assert run(capsys, *argv) == cold

    @pytest.mark.parametrize("nmax", ["0", "-3"])
    def test_warm_cache_refuses_nmax_below_one(self, capsys, tmp_path, nmax):
        # the coverage test of an empty range 1..nmax is vacuously true, so
        # the engine refuses nmax < 1 before its cache is read
        argv = ("sums", "--p", "7", "--format", "json", "--cache-dir", str(tmp_path))
        cold = run(capsys, *argv, "--nmax", nmax)
        assert cold[0] == 1
        assert json.loads(cold[1])["error"] == {
            "type": "ValueError", "message": "nmax must be >= 1",
        }
        assert run(capsys, *argv, "--nmax", "4")[0] == 0
        assert PowerSumStore(tmp_path).load(7, METHOD_EXACT) is not None
        assert run(capsys, *argv, "--nmax", nmax) == cold


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

    @pytest.mark.usefixtures("two_cpus")
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

        monkeypatch.setattr(moments, "power_sums_float_auto", unreachable)
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

    @pytest.mark.parametrize("quotient, terms, lead", [
        ("1:24", "0", 1), ("1:48", "1", 2), ("1:2,2:2,3:2,6:2", "0", 1),
    ])
    def test_lead_above_the_terms(self, capsys, quotient, terms, lead):
        # every coefficient through q^terms is 0, and the order is the quotient's
        code, out, _ = run(capsys, "eta", "--quotient", quotient, "--terms", terms)
        assert code == 0
        assert out.splitlines()[-1].endswith(f"leading exponent = {lead}")
        code, out, _ = run(
            capsys, "eta", "--quotient", quotient, "--terms", terms, "--format", "json",
        )
        doc = json.loads(out)
        assert code == 0 and doc["lead"] == lead
        assert doc["coefficients"] == ["0"] * (int(terms) + 1)

    def test_negative_lead_lists_the_pole(self, capsys):
        # 1/Delta = q^-1 + 24 + 324q + 3200q^2 + ...: the rows start at q^lead
        argv = ("eta", "--quotient", "1:-24", "--terms", "2")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.splitlines()[1:] == ["q^-1: 1", "q^0: 24", "q^1: 324", "q^2: 3200"]
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0
        assert out.splitlines() == [
            "exponent,coefficient", "-1,1", "0,24", "1,324", "2,3200",
        ]
        code, out, _ = run(capsys, *argv, "--format", "json")
        doc = json.loads(out)
        assert code == 0 and doc["lead"] == -1
        assert doc["coefficients"] == ["1", "24", "324", "3200"]

    @pytest.mark.parametrize("quotient, message", [
        ("1:x", "'1:x' is not a divisor:exponent pair"),
        ("1", "'1' is not a divisor:exponent pair"),
        ("1:2,2", "'2' is not a divisor:exponent pair"),
        ("0:24", "eta factor needs a positive divisor"),
    ])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_malformed_quotient_is_a_usage_error(self, capsys, quotient, message, fmt):
        with pytest.raises(SystemExit) as exc:
            main(["eta", "--quotient", quotient, "--terms", "1", "--format", fmt])
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        assert out.err.endswith(f"error: quotient {quotient!r}: {message}\n")


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


# one small run of every command
SMALL_RUNS = [
    ("sums", "--p", "7", "--nmax", "3", "--method", "both", "--no-cache"),
    ("moments", "--p", "5", "--d", "4", "--no-cache"),
    ("evans", "--d", "6", "--pmin", "2", "--pmax", "13", "--no-cache"),
    ("dims", "--dmax", "4"),
    ("det", "--d", "5", "--p", "7", "11"),
    ("eta", "--quotient", "1:-24", "--terms", "3"),
    ("molien", "--dmax", "6", "--kind", "frob"),
    ("trace", "--d", "8", "--p", "3", "--no-cache"),
]


# Values of the types a JSON document holds, Prime among the ints
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.sampled_from([2, 3, 257, 3067829]).map(Prime),
    lambda children: st.lists(children) | st.lists(children).map(tuple)
    | st.dictionaries(st.text(), children),
    max_leaves=40,
)


class TestFormats:
    def test_every_command_is_covered(self):
        assert sorted(argv[0] for argv in SMALL_RUNS) == sorted(cli._COMMANDS) == sorted(cli._FLAGS)

    @settings(max_examples=300, deadline=None)
    @given(JSON_VALUES)
    def test_json_writer_prints_the_bytes_of_json_dumps(self, value):
        assert cli._json(value) == json.dumps(value, sort_keys=True, indent=1)

    @pytest.mark.parametrize("value", [
        1.5, {1: 2}, {"a": 1, 2: 3}, {"a": [{"b": {1, 2}}]}, b"bytes", object(),
    ], ids=["float", "int-key", "mixed-keys", "nested-set", "bytes", "object"])
    def test_json_writer_refuses_other_types(self, value):
        with pytest.raises(TypeError):
            cli._json(value)

    @pytest.mark.parametrize("argv", SMALL_RUNS, ids=lambda argv: argv[0])
    def test_json_output_is_what_json_dumps_prints(self, capsys, argv):
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=1) + "\n"

    @pytest.mark.parametrize("argv", SMALL_RUNS, ids=lambda argv: argv[0])
    def test_csv_rows_fill_the_header_and_json_has_schema_1(self, capsys, argv):
        code, out, _ = run(capsys, *argv, "--format", "csv")
        header, *rows = csv.reader(io.StringIO(out))
        assert code == 0 and rows
        assert all(len(row) == len(header) for row in rows)
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0 and json.loads(out)["schema_version"] == 1


class TestInputCeilings:
    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        # a missing refusal fails here instead of allocating gigabytes
        def started(*args, **kwargs):
            raise AssertionError("work above an input ceiling was started")

        monkeypatch.setattr(modforms, "eta_unit_series", started)
        monkeypatch.setattr(invariants, "dim_m_middle", started)
        monkeypatch.setattr(invariants, "QSeries", started)
        monkeypatch.setattr(moments, "power_sums_exact", started)
        monkeypatch.setattr(moments, "power_sums_float_auto", started)

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
            (lambda n: moments.MomentEngine().lookup(3067829, n, METHOD_FLOAT), 8),
            (lambda n: moments.MomentEngine(3067829).lookup(3067829, n, METHOD_EXACT), 9),
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


# Run in a fresh interpreter with two sweep names, "exact" and "float", in
# the order to run them. The three modules the package binds lazily are
# in sys.modules from the import on, and run only once a sweep reads them;
# json is imported only to print the record, once everything is recorded.
STARTUP_PROBE = """
import contextlib, io, sys, types
import klmoments.cli
lazy = ("mpmath", "concurrent.futures.process", "numpy")
deferred = ("klmoments.invariants", "fractions", "csv", "hashlib", "logging", "dataclasses", "inspect",
            "argparse", "gettext", "locale", "json")
traced = ("evans", "moments", "kloosterman", "cyclotomic", "convolve", "modforms", "cache")
def unrun():
    return [m for m in ("cache", "cyclotomic", "modforms")
            if type(sys.modules["klmoments." + m]) is not types.ModuleType]
after_import = [
    [m for m in lazy + deferred if m in sys.modules],
    [m for m in traced if "klmoments." + m not in sys.modules],
    unrun(),
]
def sweep(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = klmoments.cli.main(["evans", *argv, "--no-cache"])
    return [code, [m for m in lazy + deferred if m in sys.modules], unrun()]
sweeps = {
    "exact": ("--d", "6", "--pmin", "2", "--pmax", "31", "--format", "json"),
    "float": ("--d", "5", "--pmin", "258", "--pmax", "270"),
}
first, second = (sweep(*sweeps[name]) for name in sys.argv[1:3])
def command(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = klmoments.cli.main(list(argv))
    return [code, [m for m in ("dataclasses", "inspect", "fractions", "decimal") if m in sys.modules]]
others = [
    command("dims", "--dmax", "8"),
    command("det", "--d", "5", "--p", "7"),
    command("molien", "--dmax", "8"),
]
import json
print(json.dumps([after_import, first, second, others]))
"""

# Every op of the benchmark's tracer (the file argv[1]) names a module that
# importing the CLI puts in sys.modules, and an attribute of it that
# resolves; the tracer then installs its wrappers.
TRACER_PROBE = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
import klmoments.cli
missing = [module for _, _, module, _ in tracer.OPS if module not in sys.modules]
unresolved = []
for _, _, module, attr in tracer.OPS:
    value = sys.modules[module]
    for name in attr.split("."):
        value = getattr(value, name, None)
    if not callable(value):
        unresolved.append(module + "." + attr)
tracer.Tracer().install()
import json
print(json.dumps([missing, unresolved, len(tracer.OPS)]))
"""

# The CLI's process entry in a fresh interpreter that lets --jobs 2 fork
# its 2 workers on a 1-CPU machine too.
JOBS_PROBE = """
import klmoments.cli, klmoments.evans
klmoments.evans._usable_cpus = lambda: 2
klmoments.cli.run()
"""

# Cached runs, cold then warm, and a warm sums whose exact record is
# cross-checked against its float sibling, in the cache directory argv[1].
CACHED_PROBE = """
import contextlib, io, json, sys
import klmoments.cli
def command(*argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = klmoments.cli.main([*argv, "--cache-dir", sys.argv[1]])
    return [code, out.getvalue()]
evans = [command("evans", "--d", "5", "--pmin", "2", "--pmax", "31") for _ in "cw"]
sums = [command("sums", "--p", "263", "--nmax", "8", "--method", "both",
                "--exact-limit", "263") for _ in "cw"]
print(json.dumps([evans, sums, [m for m in ("hashlib", "_hashlib") if m in sys.modules]]))
"""

# Every public name of the package, by the module that defines it; the
# submodules themselves are public names too.
PUBLIC_NAMES = {
    "cyclotomic": [],
    "errors": ["KlmomentsError"],
    "evans": [
        "EvansReport", "batch_report", "evans_d5", "evans_d6", "evans_d7",
        "evans_d8", "trace_middle",
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
        "MomentEngine", "MomentValue", "PowerSumTable", "power_sums_exact", "power_sums_float",
        "power_sums_float_auto", "sym_moment_appendix8", "sym_moment_direct",
        "sym_moment_girard",
    ],
    "convolve": [],
}


def probe_env() -> dict:
    """The environment of a fresh interpreter that imports this checkout's
    klmoments, with no cache directory set."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    env.pop("KLMOMENTS_CACHE_DIR", None)
    return env


def run_probe(probe: str, *argv: str):
    """The JSON record `probe` prints, run in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", probe, *argv],
        env=probe_env(), capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


class TestStartup:
    def test_import_and_exact_sweep_skip_mpmath_and_the_pool(self):
        # a fresh interpreter: importing the CLI loads neither mpmath, numpy,
        # the process pool, hashlib, json, nor the modules only other commands
        # or formats use (invariants, fractions, csv) or only a corrupt cache
        # entry uses (logging), nor argparse and the gettext and locale it
        # brings, which only help and usage errors need; it binds every layer
        # the benchmark tracer wraps, but runs none of cache, cyclotomic and
        # modforms;
        # an exact --jobs 1 JSON sweep runs modforms only, and a float sweep
        # after it (263 and 269 lie above the exact limit; its root tables are
        # seeded from integer series) runs cyclotomic too: neither loads any
        # of those modules, json included, nor runs cache; nor does any
        # command, dims included, load dataclasses or inspect; and dims, det
        # and molien, whose series are integer QSeries, load neither
        # fractions nor decimal
        assert run_probe(STARTUP_PROBE, "exact", "float") == [
            [[], [], ["cache", "cyclotomic", "modforms"]],
            [0, [], ["cache", "cyclotomic"]],
            [0, [], ["cache"]],
            [[0, []]] * 3,
        ]

    def test_float_sweep_runs_neither_cache_nor_modforms(self):
        # the float sweep first: it runs cyclotomic only, and the exact sweep
        # after it modforms
        after_import, float_route, exact, _ = run_probe(STARTUP_PROBE, "float", "exact")
        assert after_import == [[], [], ["cache", "cyclotomic", "modforms"]]
        assert float_route == [0, [], ["cache", "modforms"]]
        assert exact == [0, [], ["cache"]]

    def test_every_traced_op_resolves_after_importing_the_cli(self):
        missing, unresolved, ops = run_probe(TRACER_PROBE, str(ROOT / "perfbench" / "tracer.py"))
        assert missing == unresolved == [] and ops > 0

    @pytest.mark.parametrize("cached, runs", [
        (False, [("--d", "5", "--pmin", "258", "--pmax", "330")]),
        (True, [("--d", "8", "--pmin", "3", "--pmax", "60"),
                ("--d", "5", "--pmin", "3", "--pmax", "60")]),
    ], ids=["float-no-cache", "cold-d8-then-warm-d5"])
    def test_jobs_2_from_a_cold_interpreter_prints_what_jobs_1_prints(self, tmp_path, cached, runs):
        # cyclotomic first runs in the forked workers; with a cache, the
        # parent runs cache and pickles its store to them
        outs, caches = [], []
        for jobs in ("1", "2"):
            cache_dir = tmp_path / f"jobs{jobs}"
            flags = ["--cache-dir", str(cache_dir)] if cached else ["--no-cache"]
            outs.append([
                subprocess.run(
                    [sys.executable, "-c", JOBS_PROBE, "evans", *argv, *flags,
                     "--format", "json", "--jobs", jobs],
                    env=probe_env(), capture_output=True, check=True,
                ).stdout
                for argv in runs
            ])
            caches.append({
                path.name: path.read_bytes() for path in cache_dir.glob("sums/*.json")
            })
        assert outs[0] == outs[1]
        assert caches[0] == caches[1]
        assert all(b'"errors": 0' in out for out in outs[0])
        assert len(caches[0]) == (16 if cached else 0)  # d = 8 writes the primes 3..59

    def test_cached_runs_load_no_openssl(self, tmp_path):
        # the checksum is CPython's built-in SHA-256, cold, warm, and when a
        # record is cross-checked against its sibling
        evans, sums, loaded = run_probe(CACHED_PROBE, str(tmp_path))
        assert loaded == []
        for cold, warm in (evans, sums):
            assert cold == warm and cold[0] == 0
        names = {path.name for path in (tmp_path / "sums").iterdir()}
        assert {"p263-restricted-exact-cyclotomic.json",
                "p263-completed-float-congruence.json", "p31-restricted-exact-cyclotomic.json"} <= names

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


def entry_argvs() -> list[list[str]]:
    """The README's commands without a cache, a JSON error object, a text
    error, a usage error, help and the version."""
    readme = [
        [*argv, "--no-cache"] if "--no-cache" in cli._FLAGS[argv[0]][1] else argv
        for argv in readme_argvs()
    ]
    return readme + [
        ["sums", "--p", "4", "--nmax", "2", "--format", "json", "--no-cache"],
        ["sums", "--p", "4", "--nmax", "2", "--no-cache"],
        ["evans", "--d", "9", "--pmin", "2", "--pmax", "31", "--no-cache"],
        ["--help"],
        ["--version"],
    ]


class TestProcessEntry:
    @pytest.mark.parametrize("argv", entry_argvs(), ids=" ".join)
    def test_prints_what_main_prints(self, capsys, monkeypatch, tmp_path, argv):
        # buffered, so output that run() did not flush before os._exit is lost
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to it
        env = probe_env()
        env.pop("PYTHONUNBUFFERED", None)
        child = subprocess.run(
            [sys.executable, "-m", "klmoments", *argv],
            env=env, cwd=tmp_path, capture_output=True, timeout=120,
        )
        try:
            code = main(argv)
        except SystemExit as exc:  # help, --version and usage errors
            code = exc.code
        out, err = capsys.readouterr()
        assert (child.returncode, child.stdout, child.stderr.decode()) == (
            code, out.encode(), err,
        )
        assert out or err

    @pytest.mark.parametrize("argv", [
        ("--d", "5", "--pmin", "258", "--pmax", "330", "--no-cache"),
        ("--d", "8", "--pmin", "3", "--pmax", "60", "--cache-dir", "."),
    ], ids=["float-no-cache", "cold-d8-cached"])
    def test_nothing_outlives_the_process(self, tmp_path, argv):
        # the child leads its own process group: once it has exited, no
        # worker of its pool is left in it; and every record it wrote is
        # complete
        child = subprocess.Popen(
            [sys.executable, "-c", JOBS_PROBE, "evans", *argv, "--jobs", "2"],
            env=probe_env(), cwd=tmp_path, stdout=subprocess.DEVNULL, start_new_session=True,
        )
        try:
            code = child.wait(timeout=120)
        finally:
            try:
                os.killpg(child.pid, 0)
            except ProcessLookupError:
                outlived = False
            else:  # kill what outlived the run, so that a failure leaves nothing behind
                outlived = True
                os.killpg(child.pid, signal.SIGKILL)
        assert (code, outlived) == (0, False)
        files = sorted(path.name for path in tmp_path.rglob("*") if path.is_file())
        assert not any(name.endswith(".tmp") for name in files)
        store = PowerSumStore(tmp_path)
        for name in files:
            p, _, method = name.removesuffix(".json")[1:].split("-", 2)
            assert store.load(int(p), method) is not None, name
        assert len(files) == (16 if "--cache-dir" in argv else 0)

    def test_a_corrupt_record_is_reported_and_rewritten(self, tmp_path):
        # logging's last-resort handler writes the warning before run()
        # ends the process
        sweep = [sys.executable, "-m", "klmoments", "evans", "--d", "5", "--pmin", "3",
                 "--pmax", "31", "--cache-dir", str(tmp_path)]
        cold = subprocess.run(sweep, env=probe_env(), capture_output=True, text=True, check=True)
        record = tmp_path / "sums" / "p31-restricted-exact-cyclotomic.json"
        intact = record.read_bytes()
        record.write_bytes(intact[: len(intact) // 2])
        warm = subprocess.run(sweep, env=probe_env(), capture_output=True, text=True, check=True)
        assert warm.stdout == cold.stdout
        assert f"discarding corrupt cache entry {record}" in warm.stderr
        assert record.read_bytes() == intact
        assert PowerSumStore(tmp_path).load(31, METHOD_EXACT) is not None
