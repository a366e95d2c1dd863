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

from . import __version__
from .cache import PowerSumStore, resolve_cache_dir
from .errors import KlmomentsError
from .evans import EvenTrace, batch_report, render_reports, trace_middle
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


def _emit(doc: dict, fmt: str, text_lines: list[str], csv_text: str) -> None:
    if fmt == "json":
        doc = {"schema_version": SCHEMA_VERSION, **doc}
        print(json.dumps(doc, sort_keys=True, indent=1))
    elif fmt == "csv":
        sys.stdout.write(csv_text)
    else:
        for line in text_lines:
            print(line)


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
    csv_lines = ["n,value,method"]
    entries = []
    for t in tables:
        lines.append(f"p={p} convention={t.convention} method={t.method}")
        for n in range(1, args.nmax + 1):
            lines.append(f"{label}_{n} = {t.values[n]}")
            csv_lines.append(f"{n},{t.values[n]},{t.method}")
            entries.append({"n": n, "value": str(t.values[n]), "method": t.method})
    doc = {"p": int(p), "convention": args.convention, "entries": entries}
    _emit(doc, args.format, lines, "\n".join(csv_lines) + "\n")
    return 0


def _cmd_moments(args, engine: MomentEngine) -> int:
    mv = engine.moment(Prime(args.p), args.d)
    doc = {"p": args.p, "d": args.d, "value": str(mv.value), "method": mv.method}
    _emit(doc, args.format,
          [f"m^{args.d}_2({args.p}) = {mv.value}  [{mv.method}]"],
          f"p,d,value,method\n{args.p},{args.d},{mv.value},{mv.method}\n")
    return 0


def _cmd_evans(args, engine: MomentEngine) -> int:
    rows, summary = batch_report(
        args.d, args.pmin, args.pmax, engine=engine, jobs=args.jobs
    )
    sys.stdout.write(render_reports(rows, summary, args.format))
    return 0 if summary.errors == 0 else 1


def _cmd_dims(args) -> int:
    from .invariants import dims_table, render_dims_csv, render_dims_text

    table = dims_table(args.dmax)
    doc = {
        "dmax": table.dmax,
        "good": list(table.good_row),
        "primes": {str(p): [str(v) for v in table.prime_rows[p]] for p in table.primes},
    }
    _emit(doc, args.format, render_dims_text(table).splitlines(), render_dims_csv(table))
    return 0


def _cmd_det(args) -> int:
    from .invariants import fuwan_det

    rows = [(p, fuwan_det(args.d, p)) for p in args.p]
    lines = [f"det d={args.d} p={p}: {v:+d}" for p, v in rows]
    csv_text = "p,det\n" + "".join(f"{p},{v}\n" for p, v in rows)
    doc = {"d": args.d, "values": [{"p": p, "det": v} for p, v in rows]}
    _emit(doc, args.format, lines, csv_text)
    return 0


def _parse_quotient(spec: str) -> EtaQuotient:
    factors = []
    for part in spec.split(","):
        div, _, exp = part.partition(":")
        factors.append((int(div), int(exp)))
    return EtaQuotient(tuple(factors))


def _cmd_eta(args) -> int:
    eq = _parse_quotient(args.quotient)
    series = eta_quotient_series(eq, args.terms)
    # the quotient's own order: a series truncated below it is empty
    lead = eq.q_order_times_24 // 24
    coeffs = [series.coefficient(e) for e in range(0, args.terms + 1)]
    lines = [
        f"eta quotient {args.quotient}: weight = {eq.weight}, "
        f"leading exponent = {lead}"
    ]
    lines += [f"q^{e}: {c}" for e, c in enumerate(coeffs) if c]
    csv_text = "exponent,coefficient\n" + "".join(
        f"{e},{c}\n" for e, c in enumerate(coeffs)
    )
    doc = {
        "quotient": args.quotient,
        "weight": str(eq.weight),
        "lead": lead,
        "coefficients": [str(c) for c in coeffs],
    }
    _emit(doc, args.format, lines, csv_text)
    return 0


def _cmd_molien(args) -> int:
    from .invariants import molien_dim_series, molien_frob_series

    series = (
        molien_dim_series(args.dmax)
        if args.kind == "dim"
        else molien_frob_series(args.dmax)
    )
    lines = [f"{args.kind} series coefficients 0..{args.dmax}:"]
    lines += [f"d={d}: {c}" for d, c in enumerate(series)]
    csv_text = "d,coefficient\n" + "".join(f"{d},{c}\n" for d, c in enumerate(series))
    doc = {"kind": args.kind, "coefficients": series}
    _emit(doc, args.format, lines, csv_text)
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
        csv_text = (
            "d,p,value,steinberg_blocks,sign_sum,pure_part,pure_dim\n"
            f"{args.d},{args.p},{result.value},{result.steinberg_blocks},"
            f"{result.sign_sum},{result.pure_part},{result.pure_dim}\n"
        )
    else:
        lines = [f"d={args.d} p={args.p}: normalized trace = {result}"]
        doc = {"d": args.d, "p": args.p, "trace": str(result)}
        csv_text = f"d,p,trace\n{args.d},{args.p},{result}\n"
    _emit(doc, args.format, lines, csv_text)
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
