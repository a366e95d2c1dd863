"""Command-line interface.

Commands: sums, moments, evans, dims, det, eta, molien, trace.

Output is deterministic: identical inputs and configuration produce
byte-identical output (fixed ordering, no timestamps). Usage errors exit
with status 2; computation failures exit with status 1 and, in JSON mode,
a machine-readable error object on stdout. A well-formed command line is
read from the flag table without importing argparse; argparse parses every
other one and prints every help text and usage error. main() runs a command
line in-process; run(), the process entry, flushes its output and ends the
process without the interpreter's teardown.
"""

from __future__ import annotations

import os
import sys
from functools import partial
from itertools import chain
from types import SimpleNamespace
from typing import NoReturn

try:  # json.encoder's own function, from its C module: a run need not load json
    from _json import encode_basestring_ascii
except ImportError:  # an interpreter built without _json
    from json.encoder import encode_basestring_ascii

from . import __version__, cache, modforms
from .errors import KlmomentsError
from .evans import (
    CSV_HEADER,
    REPORT_SCHEMA_VERSION,
    BatchSummary,
    EvansReport,
    EvenTrace,
    batch_report,
    trace_middle,
)
from .ffprime import Prime
from .moments import (
    COMPLETED,
    DEFAULT_EXACT_LIMIT,
    METHOD_EXACT,
    METHOD_FLOAT,
    RESTRICTED,
    MomentEngine,
    _check_agreement,
)

SCHEMA_VERSION = 1


_ENGINE_FLAGS = {
    "--cache-dir": {"default": None},
    "--no-cache": {"action": "store_true"},
    "--exact-limit": {"type": int, "default": DEFAULT_EXACT_LIMIT},
}
_FORMAT_FLAG = {"--format": {"choices": ("text", "csv", "json"), "default": "text"}}

# Each command's help line and flags, in help order, written once as
# add_argument keyword arguments: build_parser() builds argparse's parser
# from this table, and _parse_exact() parses well-formed command lines by it.
_FLAGS = {
    "sums": ("power sums S_n(p)", {
        "--p": {"type": int, "required": True},
        "--nmax": {"type": int, "required": True},
        "--convention": {"choices": (RESTRICTED, COMPLETED), "default": RESTRICTED},
        "--method": {"choices": ("exact", "float", "both"), "default": "exact"},
        **_ENGINE_FLAGS, **_FORMAT_FLAG,
    }),
    "moments": ("symmetric-power moment m^d_2(p)", {
        "--p": {"type": int, "required": True},
        "--d": {"type": int, "required": True},
        **_ENGINE_FLAGS, **_FORMAT_FLAG,
    }),
    "evans": ("degree-5/6/7/8 identity sweep", {
        "--d": {"type": int, "required": True, "choices": (5, 6, 7, 8)},
        "--pmin": {"type": int, "required": True},
        "--pmax": {"type": int, "required": True},
        "--jobs": {"type": int, "default": 1},
        **_ENGINE_FLAGS, **_FORMAT_FLAG,
    }),
    "dims": ("middle-extension dimension table", {
        "--dmax": {"type": int, "default": 13},
        **_FORMAT_FLAG,
    }),
    "det": ("normalized Frobenius determinant", {
        "--d": {"type": int, "required": True},
        "--p": {"type": int, "nargs": "+", "required": True},
        **_FORMAT_FLAG,
    }),
    "eta": ("eta-quotient q-expansion", {
        "--quotient": {
            "required": True,
            "help": "comma-separated divisor:exponent pairs, e.g. 1:2,2:2,3:2,6:2",
        },
        "--terms": {"type": int, "required": True},
        **_FORMAT_FLAG,
    }),
    "molien": ("invariant-dimension / Frobenius series", {
        "--dmax": {"type": int, "required": True},
        "--kind": {"choices": ("dim", "frob"), "default": "dim"},
        **_FORMAT_FLAG,
    }),
    "trace": ("normalized middle trace of -m^d-1", {
        "--d": {"type": int, "required": True},
        "--p": {"type": int, "required": True},
        "--rational": {
            "action": "store_true",
            "help": "return the exact rational quotient instead of failing "
            "on non-integral traces",
        },
        **_ENGINE_FLAGS, **_FORMAT_FLAG,
    }),
}


def build_parser():
    """The argparse parser of every command. A well-formed command line
    never needs it (_parse_exact); it parses the rest, and prints every
    help text and usage error."""
    import argparse

    top = argparse.ArgumentParser(
        prog="klmoments",
        description="Exact Kloosterman power sums, symmetric-power moments, "
        "and eigenform identity checks.",
    )
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)
    for command, (help_line, flags) in _FLAGS.items():
        p = sub.add_parser(command, help=help_line)
        for flag, kwargs in flags.items():
            p.add_argument(flag, **kwargs)
    return top


def _parse_exact(argv):
    """The namespace argparse gives argv, when argv is a command followed
    only by its own flags, spelled out in full: a switch, or a flag and one
    value that does not start with "-", converts by the flag's type and lies
    in its choices; with every required flag given. None for any other argv
    (help, --version, --flag=value, an abbreviation, an nargs flag, a bad or
    missing value), which build_parser() then parses."""
    if not argv or argv[0] not in _FLAGS:
        return None
    flags = _FLAGS[argv[0]][1]
    given = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        spec = flags.get(flag)
        if spec is None or "nargs" in spec:
            return None
        if spec.get("action") == "store_true":
            given[flag] = True
            continue
        value = next(tokens, "-")
        if value.startswith("-"):
            return None
        try:
            value = spec.get("type", str)(value)
        except (TypeError, ValueError):
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        given[flag] = value
    args = SimpleNamespace(command=argv[0])
    for flag, spec in flags.items():
        if flag in given:
            value = given[flag]
        elif spec.get("required"):
            return None
        elif spec.get("action") == "store_true":
            value = False
        else:
            value = spec.get("default")
        setattr(args, flag[2:].replace("-", "_"), value)
    return args


def _json(value, newline: str = "\n") -> str:
    """value as json.dumps(value, sort_keys=True, indent=1) writes it, when
    newline opens a line at value's own nesting: strings (ASCII-escaped),
    ints and their subclasses, bools, None, lists, tuples, and dicts with
    str keys. Anything else raises TypeError. (indent=1 runs json's
    pure-Python encoder; this writer prints the same bytes in less time.)"""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + " "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([_json(v, inner) for v in value]) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        # a non-str key fails to sort or to encode, either way a TypeError
        items = [encode_basestring_ascii(k) + ": " + _json(value[k], inner)
                 for k in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _render(fmt: str, doc: dict, text_lines, header, rows,
            schema: int = SCHEMA_VERSION) -> str:
    """A command's output in fmt: the JSON document under its schema
    version, the CSV header and rows, or the text lines. Lines and rows
    may be generators: only the format's own one is consumed."""
    if fmt == "json":
        return _json({"schema_version": schema, **doc}) + "\n"
    if fmt == "csv":
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue()
    return "".join(line + "\n" for line in text_lines)


def _emit(fmt: str, doc: dict, text_lines, header, rows) -> None:
    sys.stdout.write(_render(fmt, doc, text_lines, header, rows))


def _engine(args) -> MomentEngine:
    """The moment engine, and its cache store, that the run's flags describe."""
    store = None
    if not args.no_cache:
        store = cache.PowerSumStore(cache.resolve_cache_dir(args.cache_dir))
    return MomentEngine(args.exact_limit, store)


def _cmd_sums(args, engine: MomentEngine) -> int:
    p = Prime(args.p)
    methods = {
        "exact": (METHOD_EXACT,),
        "float": (METHOD_FLOAT,),
        "both": (METHOD_EXACT, METHOD_FLOAT),
    }[args.method]
    tables = [
        engine.lookup(p, args.nmax, method).to_convention(args.convention)
        for method in methods
    ]
    if len(tables) == 2:
        _check_agreement(*tables)
    label = "S" if args.convention == RESTRICTED else "S'"
    lines = []
    for t in tables:
        lines.append(f"p={p} convention={t.convention} method={t.method}")
        lines += (f"{label}_{n} = {t.values[n]}" for n in range(1, args.nmax + 1))
    entries = [(n, t.values[n], t.method) for t in tables for n in range(1, args.nmax + 1)]
    doc = {
        "p": int(p),
        "convention": args.convention,
        "entries": [{"n": n, "value": str(v), "method": m} for n, v, m in entries],
    }
    _emit(args.format, doc, lines, ("n", "value", "method"), entries)
    return 0


def _cmd_moments(args, engine: MomentEngine) -> int:
    mv = engine.moment(Prime(args.p), args.d)
    doc = {"p": args.p, "d": args.d, "value": str(mv.value), "method": mv.method}
    _emit(args.format, doc, [f"m^{args.d}_2({args.p}) = {mv.value}  [{mv.method}]"],
          list(doc), [doc.values()])
    return 0


def _report_line(r: EvansReport) -> str:
    if r.error is not None:
        return f"p={r.p}: ERROR {r.error}"
    marks = " ".join(f"{c.name}={'ok' if c.passed else 'FAIL'}" for c in r.checks)
    return f"p={r.p}: m={r.moment} derived={r.derived} {marks}"


def render_reports(rows: list[EvansReport], summary: BatchSummary, fmt: str) -> str:
    """A sweep's report as `evans` prints it: fmt is text, csv or json."""
    head = (
        f"evans d={summary.d} primes in [{summary.pmin}, {summary.pmax}]: "
        f"{summary.rows} rows, {summary.passed} passed, "
        f"{summary.failed} failed, {summary.errors} errors"
    )
    doc = {"summary": vars(summary), "reports": [r.to_json_dict() for r in rows]}
    return _render(fmt, doc, chain([head], map(_report_line, rows)), CSV_HEADER,
                   (r.csv_row() for r in rows), schema=REPORT_SCHEMA_VERSION)


def _cmd_evans(args, engine: MomentEngine) -> int:
    rows, summary = batch_report(
        args.d, args.pmin, args.pmax, engine=engine, jobs=args.jobs
    )
    sys.stdout.write(render_reports(rows, summary, args.format))
    return 0 if summary.errors == 0 else 1


def _cmd_dims(args) -> int:
    from .invariants import dims_table

    table = dims_table(args.dmax)
    doc = {
        "dmax": table.dmax,
        "good": list(table.good_row),
        "primes": {str(p): [str(v) for v in table.prime_rows[p]] for p in table.primes},
    }
    grid = [
        ("d", range(1, table.dmax + 1)),
        ("good", table.good_row),
        *((f"p={p}", table.prime_rows[p]) for p in table.primes),
    ]
    lines = (label.ljust(6) + "".join(str(v).rjust(6) for v in cells) for label, cells in grid)
    header = ("d", "good", *(f"p={p}" for p in table.primes))
    columns = (table.prime_rows[p] for p in table.primes)
    rows = zip(range(1, table.dmax + 1), table.good_row, *columns)
    _emit(args.format, doc, lines, header, rows)
    return 0


def _cmd_det(args) -> int:
    from .invariants import fuwan_det

    rows = [(p, fuwan_det(args.d, p)) for p in args.p]
    doc = {"d": args.d, "values": [{"p": p, "det": v} for p, v in rows]}
    lines = (f"det d={args.d} p={p}: {v:+d}" for p, v in rows)
    _emit(args.format, doc, lines, ("p", "det"), rows)
    return 0


def _parse_quotient(spec: str) -> modforms.EtaQuotient:
    """The quotient --quotient names; a ValueError for a malformed one."""
    factors = []
    for part in spec.split(","):
        div, _, exp = part.partition(":")
        try:
            factors.append((int(div), int(exp)))
        except ValueError:
            raise ValueError(f"{part!r} is not a divisor:exponent pair") from None
    return modforms.EtaQuotient(tuple(factors))


def _cmd_eta(args, eq: modforms.EtaQuotient) -> int:
    series = modforms.eta_quotient_series(eq, args.terms)
    # the quotient's own order: a series truncated below it is empty
    lead = eq.q_order_times_24 // 24
    # from q^0, or from q^lead when the quotient has a pole at q = 0
    exponents = range(min(0, lead), args.terms + 1)
    coeffs = [series.coefficient(e) for e in exponents]
    head = (
        f"eta quotient {args.quotient}: weight = {eq.weight}, "
        f"leading exponent = {lead}"
    )
    lines = chain([head], (f"q^{e}: {c}" for e, c in zip(exponents, coeffs) if c))
    doc = {
        "quotient": args.quotient,
        "weight": str(eq.weight),
        "lead": lead,
        "coefficients": [str(c) for c in coeffs],
    }
    _emit(args.format, doc, lines, ("exponent", "coefficient"), zip(exponents, coeffs))
    return 0


def _cmd_molien(args) -> int:
    from .invariants import molien_dim_series, molien_frob_series

    series = (
        molien_dim_series(args.dmax)
        if args.kind == "dim"
        else molien_frob_series(args.dmax)
    )
    head = f"{args.kind} series coefficients 0..{args.dmax}:"
    lines = chain([head], (f"d={d}: {c}" for d, c in enumerate(series)))
    doc = {"kind": args.kind, "coefficients": series}
    _emit(args.format, doc, lines, ("d", "coefficient"), enumerate(series))
    return 0


def _cmd_trace(args, engine: MomentEngine) -> int:
    result = trace_middle(args.d, args.p, engine, strict=not args.rational)
    if isinstance(result, EvenTrace):
        lines = [
            f"d={args.d} p={args.p}: inertia-invariant trace = {result.value}, "
            f"steinberg blocks = {result.steinberg_blocks} "
            f"(sign sum {result.sign_sum}), pure part = {result.pure_part} "
            f"(dim {result.pure_dim})"
        ]
        doc = {
            "d": args.d, "p": args.p, "value": str(result.value),
            "steinberg_blocks": result.steinberg_blocks,
            "sign_sum": result.sign_sum,
            "pure_part": str(result.pure_part),
            "pure_dim": result.pure_dim,
        }
    else:
        lines = [f"d={args.d} p={args.p}: normalized trace = {result}"]
        doc = {"d": args.d, "p": args.p, "trace": str(result)}
    _emit(args.format, doc, lines, list(doc), [doc.values()])
    return 0


_COMMANDS = {
    "sums": _cmd_sums,
    "moments": _cmd_moments,
    "evans": _cmd_evans,
    "dims": _cmd_dims,
    "det": _cmd_det,
    "eta": _cmd_eta,
    "molien": _cmd_molien,
    "trace": _cmd_trace,
}


def main(argv: list[str] | None = None) -> int:
    """Run the command line argv (sys.argv[1:] by default) in this process,
    and return its exit code: 0, or 1 after a computation failure, which is
    reported on stderr, or in JSON mode by the error object on stdout.
    Help, --version and usage errors raise argparse's SystemExit, and a
    write to a closed stdout raises BrokenPipeError. Output may still sit
    in sys.stdout's buffer on return; run() flushes it."""
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_exact(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    command = _COMMANDS[args.command]
    if hasattr(args, "jobs") and args.jobs < 1:
        build_parser().error("jobs must be >= 1")  # exits 2
    if hasattr(args, "terms") and args.terms < 0:
        build_parser().error("terms must be >= 0")
    if hasattr(args, "quotient"):
        try:
            command = partial(command, eq=_parse_quotient(args.quotient))
        except ValueError as exc:
            build_parser().error(f"quotient {args.quotient!r}: {exc}")
    if hasattr(args, "exact_limit"):  # the command computes through a MomentEngine
        try:
            command = partial(command, engine=_engine(args))
        except ValueError as exc:
            build_parser().error(str(exc))
    try:
        return command(args)
    except BrokenPipeError:  # not a computation failure: the reader has gone
        raise
    except (KlmomentsError, ValueError, OSError) as exc:
        if args.format == "json":
            import json

            print(json.dumps(
                {
                    "schema_version": SCHEMA_VERSION,
                    "error": {"type": type(exc).__name__, "message": str(exc)},
                },
                sort_keys=True,
            ))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> NoReturn:
    """The process entry of `python -m klmoments` and of the installed
    `klmoments` command: main() on sys.argv, sys.stdout and sys.stderr
    flushed, then os._exit with main's code. So the process ends without
    the interpreter's teardown: its last garbage collections, and the
    clearing of every loaded module.

    - os._exit ends the process only when main() returns, or when it
      raises BrokenPipeError. argparse's SystemExit (help, --version, usage
      errors) and any other uncaught exception leave run() and end the
      process the normal way.
    - A closed stdout, whether a write inside main() or the flush finds it,
      and any flush that fails end the process with exit 1 and nothing on
      stderr.
    - Nothing is left unwritten. The flushes empty both streams, and what
      else a run writes is complete before main() returns:
      PowerSumStore.store closes and renames each cache record before it
      returns, batch_report's `with` joins its process pool, and the
      cache's corrupt-entry warning goes through logging's last-resort
      handler, which writes to stderr at once.
    - There is no flag, environment variable or second exit path. Nothing
      happens at import: no atexit hook, no exit. So `import klmoments.cli`,
      and every caller of main(), end with a normal interpreter exit."""
    try:
        code = main()
    except BrokenPipeError:
        code = 1
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:  # the reader has gone, or the device is full
        code = 1
    os._exit(code)


if __name__ == "__main__":
    run()
