"""Command-line interface.

Commands: sums, moments, evans, dims, det, eta, molien, trace.

Output is deterministic: identical inputs and configuration produce
byte-identical output (fixed ordering, no timestamps). Usage errors exit
with status 2; computation failures exit with status 1 and, in JSON mode,
a machine-readable error object on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from itertools import chain

from . import __version__
from .cache import PowerSumStore, resolve_cache_dir
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
from .modforms import EtaQuotient, eta_quotient_series
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


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    """The flags of the MomentEngine and its cache, for commands that use one."""
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument("--exact-limit", type=int, default=DEFAULT_EXACT_LIMIT)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="klmoments",
        description="Exact Kloosterman power sums, symmetric-power moments, "
        "and eigenform identity checks.",
    )
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sums", help="power sums S_n(p)")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--convention", choices=(RESTRICTED, COMPLETED), default=RESTRICTED)
    p.add_argument("--method", choices=("exact", "float", "both"), default="exact")
    _add_engine_flags(p)

    p = sub.add_parser("moments", help="symmetric-power moment m^d_2(p)")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    _add_engine_flags(p)

    p = sub.add_parser("evans", help="degree-5/6/7/8 identity sweep")
    p.add_argument("--d", type=int, required=True, choices=(5, 6, 7, 8))
    p.add_argument("--pmin", type=int, required=True)
    p.add_argument("--pmax", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    _add_engine_flags(p)

    p = sub.add_parser("dims", help="middle-extension dimension table")
    p.add_argument("--dmax", type=int, default=13)

    p = sub.add_parser("det", help="normalized Frobenius determinant")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--p", type=int, nargs="+", required=True)

    p = sub.add_parser("eta", help="eta-quotient q-expansion")
    p.add_argument("--quotient", required=True,
                   help="comma-separated divisor:exponent pairs, e.g. 1:2,2:2,3:2,6:2")
    p.add_argument("--terms", type=int, required=True)

    p = sub.add_parser("molien", help="invariant-dimension / Frobenius series")
    p.add_argument("--dmax", type=int, required=True)
    p.add_argument("--kind", choices=("dim", "frob"), default="dim")

    p = sub.add_parser("trace", help="normalized middle trace of -m^d-1")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--rational", action="store_true",
                   help="return the exact rational quotient instead of failing "
                   "on non-integral traces")
    _add_engine_flags(p)

    for p in sub.choices.values():
        p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    return top


def _render(fmt: str, doc: dict, text_lines, header, rows,
            schema: int = SCHEMA_VERSION) -> str:
    """A command's output in fmt: the JSON document under its schema
    version, the CSV header and rows, or the text lines. Lines and rows
    may be generators: only the format's own one is consumed."""
    if fmt == "json":
        return json.dumps({"schema_version": schema, **doc}, sort_keys=True, indent=1) + "\n"
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
    store = None if args.no_cache else PowerSumStore(resolve_cache_dir(args.cache_dir))
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


def _parse_quotient(spec: str) -> EtaQuotient:
    """The quotient --quotient names; a ValueError for a malformed one."""
    factors = []
    for part in spec.split(","):
        div, _, exp = part.partition(":")
        try:
            factors.append((int(div), int(exp)))
        except ValueError:
            raise ValueError(f"{part!r} is not a divisor:exponent pair") from None
    return EtaQuotient(tuple(factors))


def _cmd_eta(args, eq: EtaQuotient) -> int:
    series = eta_quotient_series(eq, args.terms)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    run = _COMMANDS[args.command]
    if "jobs" in args and args.jobs < 1:
        parser.error("jobs must be >= 1")  # exits 2
    if "terms" in args and args.terms < 0:
        parser.error("terms must be >= 0")
    if "quotient" in args:
        try:
            run = partial(run, eq=_parse_quotient(args.quotient))
        except ValueError as exc:
            parser.error(f"quotient {args.quotient!r}: {exc}")
    if "exact_limit" in args:  # the command computes through a MomentEngine
        try:
            run = partial(run, engine=_engine(args))
        except ValueError as exc:
            parser.error(str(exc))
    try:
        code = run(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:  # the reader has gone: write nothing more
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (KlmomentsError, ValueError, OSError) as exc:
        if args.format == "json":
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


if __name__ == "__main__":
    sys.exit(main())
