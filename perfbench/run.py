"""klmoments benchmark: CLI sweep workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke       # quick self-check on tiny ranges
    python3 perfbench/run.py --baseline    # rewrite perfbench/baseline.json

Run from the root of a klmoments checkout. Each workload runs as fresh
``python -m klmoments ...`` children, one at a time, repeated until
``--seconds`` have passed (at least once). Every child's exit status and
stdout digest are compared with ``perfbench/reference.json``, which
``perfbench/reference.py`` records and proves against independent routes.

``--trace 0`` reports the end-to-end metrics (medians over repetitions):
  sweep_s      wall time of one repetition, first spawn to last exit
  cpu_s        user + system CPU time of the children of one repetition
  setup_s      wall time of a fresh ``python -c "import klmoments.cli"``
  peak_rss_mb  highest max-RSS of any child in one repetition
and prints failed_frac (failed / attempted invocations) beside them. The
three times are rescaled to a fixed reference speed by the probe in
``perfbench/speed.py``; the log also prints their raw medians.

``--trace 1`` alternates untraced repetitions with traced ones, where each
child runs under ``perfbench/tracer.py``, and reports the per-layer metrics
in LAYER_METRICS. Times are medians over traced repetitions; exact counts
must repeat exactly between them. trace.overhead_s is the traced minus the
untraced median rescaled sweep time.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from speed import SpeedProbe
from workloads import (
    SETUP_PROBE,
    SMOKE_WORKLOADS,
    WARMUP,
    WORKLOADS,
    Workload,
    child_env,
    require_checkout,
    run_child,
)

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE = BENCH_DIR / "reference.json"
SETUP_PROBES_BEFORE = 9  # plus one after every repetition

END_TO_END = (
    ("sweep_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# name, unit, better, the end-to-end metric and workload it should move.
LAYER_METRICS = (
    ("cli.import_s", "s", "lower", "setup_s on all; sweep_s on all-degrees-cached"),
    ("evans.rows", "count", "higher", "none: fixed by the workload"),
    ("evans.batch_s", "s", "lower", "sweep_s on all"),
    ("evans.audit_calls", "count", "lower", "sweep_s on d5-large-p, all-degrees-cached"),
    ("evans.audit_s", "s", "lower", "sweep_s on d5-large-p, all-degrees-cached"),
    ("evans.self_s", "s", "lower", "sweep_s on all"),
    ("moments.exact_tables", "count", "lower", "sweep_s on d6-small-p, cold d=8 of all-degrees-cached"),
    ("moments.exact_s", "s", "lower", "sweep_s on d6-small-p, cold d=8 of all-degrees-cached"),
    ("moments.float_tables", "count", "lower", "sweep_s on d5-large-p, warm degrees of all-degrees-cached"),
    ("moments.float_s", "s", "lower", "sweep_s on d5-large-p, warm degrees of all-degrees-cached"),
    ("moments.float_attempts", "count", "lower", "sweep_s on d5-large-p, warm degrees of all-degrees-cached"),
    ("moments.float_useful_ratio", "ratio", "higher", "sweep_s on d5-large-p, warm degrees of all-degrees-cached"),
    ("moments.float_bits_max", "bits", "lower", "sweep_s on d5-large-p, warm degrees of all-degrees-cached"),
    ("moments.girard_calls", "count", "lower", "none: one per row"),
    ("moments.self_s", "s", "lower", "sweep_s on all"),
    ("kloosterman.kl2_calls", "count", "lower", "sweep_s on d6-small-p"),
    ("kloosterman.kl2_s", "s", "lower", "sweep_s on d6-small-p"),
    ("cyclotomic.mul_calls", "count", "lower", "sweep_s on d6-small-p"),
    ("cyclotomic.mul_s", "s", "lower", "sweep_s on d6-small-p"),
    ("cyclotomic.add_calls", "count", "lower", "sweep_s on d6-small-p"),
    ("cyclotomic.add_s", "s", "lower", "sweep_s on d6-small-p"),
    ("cyclotomic.root_tables", "count", "lower", "sweep_s, peak_rss_mb on d5-large-p"),
    ("cyclotomic.root_s", "s", "lower", "sweep_s, peak_rss_mb on d5-large-p"),
    ("cyclotomic.self_s", "s", "lower", "sweep_s on d6-small-p"),
    ("convolve.calls", "count", "lower", "sweep_s on d6-small-p"),
    ("convolve.s", "s", "lower", "sweep_s on d6-small-p"),
    ("convolve.coeff_bits_max", "bits", "lower", "sweep_s on d6-small-p (int64 regime below 63)"),
    ("modforms.eta_s", "s", "lower", "sweep_s on d6-small-p"),
    ("modforms.eta_terms", "count", "lower", "sweep_s on d6-small-p"),
    ("modforms.hecke_s", "s", "lower", "sweep_s on d6-small-p"),
    ("cache.hits", "count", "higher", "sweep_s on all-degrees-cached"),
    ("cache.misses", "count", "lower", "sweep_s on all-degrees-cached"),
    ("cache.stores", "count", "lower", "sweep_s on all-degrees-cached"),
    ("cache.bytes_written", "bytes", "lower", "sweep_s on all-degrees-cached"),
    ("cache.s", "s", "lower", "sweep_s on all-degrees-cached"),
    ("trace.overhead_s", "s", "lower", "none: cost of tracing itself"),
)


def load_reference() -> dict[str, dict]:
    with open(REFERENCE) as fh:
        return json.load(fh)["invocations"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _invocation_metrics(summary: dict) -> dict[str, float]:
    """Additive per-layer values of one traced invocation (plus two maxima)."""
    ops, facts, layers = summary["ops"], summary["facts"], summary["layer_self_s"]
    return {
        "cli.import_s": summary["cli_import_s"],
        "evans.rows": facts["evans.rows"],
        "evans.batch_s": ops["evans.batch"]["total_s"],
        "evans.audit_calls": facts["evans.audit_calls"],
        "evans.audit_s": ops["evans.audit"]["total_s"],
        "evans.self_s": layers["evans"],
        "moments.exact_tables": ops["moments.exact"]["ok"],
        "moments.exact_s": ops["moments.exact"]["total_s"],
        "moments.float_tables": ops["moments.float_auto"]["ok"],
        "moments.float_s": ops["moments.float"]["total_s"],
        "moments.float_attempts": ops["moments.float"]["calls"],
        "moments.float_ok": ops["moments.float"]["ok"],
        "moments.float_bits_max": facts["moments.float_bits_max"],
        "moments.girard_calls": ops["moments.girard"]["calls"],
        "moments.self_s": layers["moments"],
        "kloosterman.kl2_calls": ops["kloosterman.kl2"]["calls"],
        "kloosterman.kl2_s": ops["kloosterman.kl2"]["total_s"],
        "cyclotomic.mul_calls": ops["cyclotomic.mul"]["calls"],
        "cyclotomic.mul_s": ops["cyclotomic.mul"]["self_s"],
        "cyclotomic.add_calls": ops["cyclotomic.add"]["calls"],
        "cyclotomic.add_s": ops["cyclotomic.add"]["total_s"],
        "cyclotomic.root_tables": ops["cyclotomic.root"]["calls"],
        "cyclotomic.root_s": ops["cyclotomic.root"]["total_s"],
        "cyclotomic.self_s": layers["cyclotomic"],
        "convolve.calls": ops["convolve.cyclic"]["calls"] + ops["convolve.ntt"]["calls"],
        "convolve.s": ops["convolve.cyclic"]["total_s"] + ops["convolve.ntt"]["total_s"],
        "convolve.coeff_bits_max": facts["convolve.coeff_bits_max"],
        "modforms.eta_s": ops["modforms.eta"]["total_s"],
        "modforms.eta_terms": facts["modforms.eta_terms"],
        "modforms.hecke_s": ops["modforms.hecke"]["total_s"],
        "cache.hits": ops["cache.get_or_compute"]["calls"] - summary["cache_misses"],
        "cache.misses": summary["cache_misses"],
        "cache.stores": ops["cache.store"]["calls"],
        "cache.bytes_written": facts["cache.bytes_written"],
        "cache.s": layers["cache"],
    }


def layer_metrics(summaries: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (all its invocations)."""
    merged: dict[str, float] = {}
    for summary in summaries:
        for name, value in _invocation_metrics(summary).items():
            if name.endswith("_max"):
                merged[name] = max(merged.get(name, 0), value)
            else:
                merged[name] = merged.get(name, 0) + value
    ok = merged.pop("moments.float_ok")
    attempts = merged["moments.float_attempts"]
    merged["moments.float_useful_ratio"] = ok / attempts if attempts else 0.0
    return merged


@dataclass
class Rep:
    """One repetition: its perf_counter window, raw wall and child CPU time,
    peak RSS and (traced only) the children's trace summaries."""

    window: tuple[float, float]
    sweep_s: float
    cpu_s: float
    peak_rss_mb: float
    summaries: list[dict]


class Run:
    """One benchmark run of one workload: set-up, repetitions, checks."""

    def __init__(self, workload: Workload, root: Path, reference: dict):
        self.order = workload.invocations
        self.reference = reference
        self.env = child_env(root)
        self.work = root / ".perfbench" / workload.name
        self.trace_dir = root / ".perfbench" / "trace" / workload.name
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup: list[float] = []
        self.setup_windows: list[tuple[float, float]] = []
        self.reps = 0
        self.probe = SpeedProbe()

    def __enter__(self) -> "Run":
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.probe.__enter__()
        warm = run_child(["-m", "klmoments", *WARMUP.argv(None)], self.env, self.work)
        if warm.exit_code != 0:
            self.problems.append(f"warm-up exited {warm.exit_code}")
        for _ in range(SETUP_PROBES_BEFORE):
            self.probe_setup()
        return self

    def __exit__(self, *exc) -> None:
        self.probe.__exit__(*exc)
        shutil.rmtree(self.work, ignore_errors=True)

    def probe_setup(self) -> None:
        start = time.perf_counter()
        probe = run_child(list(SETUP_PROBE), self.env, self.work)
        self.setup_windows.append((start, time.perf_counter()))
        if probe.exit_code != 0:
            self.problems.append(f"set-up probe exited {probe.exit_code}")
        self.setup.append(probe.wall_s)

    def repetition(self, traced: bool) -> Rep:
        """Run the workload once."""
        self.reps += 1
        cache = self.work / f"cache-{self.reps}"
        if traced:
            self.trace_dir.mkdir(parents=True, exist_ok=True)
        results, outs = [], []
        start = time.perf_counter()
        for i, inv in enumerate(self.order):
            argv = ["-m", "klmoments", *inv.argv(cache)]
            if traced:
                out = self.trace_dir / f"{i}.json"
                out.unlink(missing_ok=True)
                argv = [str(BENCH_DIR / "tracer.py"), str(out), "--", *inv.argv(cache)]
                outs.append(out)
            results.append(run_child(argv, self.env, self.work))
        end = time.perf_counter()
        shutil.rmtree(cache, ignore_errors=True)
        for inv, res in zip(self.order, results):
            self.check(inv.key, res)
        return Rep(
            (start, end),
            end - start,
            sum(r.cpu_s for r in results),
            max(r.maxrss_mb for r in results),
            [json.loads(out.read_text()) for out in outs],
        )

    def check(self, key: str, res) -> None:
        self.attempted += 1
        ref = self.reference.get(key)
        if ref is None:
            self.failed += 1
            self.problems.append(f"no reference for {key!r}")
        elif res.exit_code != ref["exit_code"] or res.digest != ref["sha256"]:
            self.failed += 1
            self.problems.append(
                f"{key!r}: exit {res.exit_code}, stdout {res.digest[:12]} "
                f"differ from the reference"
            )

    def result(self, metrics: dict) -> dict:
        return {
            "correct": self.failed == 0 and not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def repetitions(run: Run, seconds: float, traced_too: bool = False) -> list[Rep]:
    """Untraced repetitions (alternating with traced ones if ``traced_too``)
    until ``seconds`` have passed, starting none that would end after the
    deadline once two have run (one of each kind if ``traced_too``)."""
    reps: list[Rep] = []
    deadline = time.perf_counter() + seconds
    while True:
        # Alternate which side goes first so drift does not favour one.
        sides = (False, True) if len(reps) % 4 == 0 else (True, False)
        for traced in (sides if traced_too else (False,)):
            reps.append(run.repetition(traced))
        if not traced_too:
            run.probe_setup()
        longest = max(rep.window[1] - rep.window[0] for rep in reps)
        if len(reps) >= 2 and time.perf_counter() + longest * (1 + traced_too) > deadline:
            return reps


def timed_run(workload: Workload, seconds: float, root: Path,
              reference: dict, log=print) -> dict:
    with Run(workload, root, reference) as run:
        reps = repetitions(run, seconds)
    speed = run.probe.factors([rep.window for rep in reps])
    raw = {"sweep_s": [rep.sweep_s for rep in reps],
           "cpu_s": [rep.cpu_s for rep in reps],
           "setup_s": run.setup}
    samples = {
        "sweep_s": [t * f for t, f in zip(raw["sweep_s"], speed)],
        "cpu_s": [t * f for t, f in zip(raw["cpu_s"], speed)],
        "setup_s": [t * f for t, f in zip(run.setup, run.probe.factors(run.setup_windows))],
        "peak_rss_mb": [rep.peak_rss_mb for rep in reps],
    }
    log(f"workload {workload.name}: {run.reps} repetitions, "
        f"{run.attempted} invocations, order {[inv.key for inv in run.order]}, "
        f"{len(run.probe.durations)} speed probes")
    log(f"  speed factors {' '.join(f'{f:.3f}' for f in speed)}")
    metrics = {}
    for name, unit in END_TO_END:
        q1, med, q3 = quartiles(samples[name])
        log(f"  {name:<12} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
            f"n {len(samples[name]):3d}  {unit}")
        if name in raw:
            log(f"  {'  raw':<12} median {statistics.median(raw[name]):10.4f}  "
                f"(before rescaling)")
        metrics[name] = {"value": med, "unit": unit}
    log(f"  {'failed_frac':<12} {run.failed / run.attempted:.4f}  "
        f"({run.failed} of {run.attempted} invocations)")
    for problem in run.problems:
        log(f"  problem: {problem}", file=sys.stderr)
    return run.result(metrics)


def traced_run(workload: Workload, seconds: float, root: Path,
               reference: dict, log=print) -> dict:
    with Run(workload, root, reference) as run:
        all_reps = repetitions(run, seconds, traced_too=True)
    speed = run.probe.factors([rep.window for rep in all_reps])
    traced = [r.sweep_s * f for r, f in zip(all_reps, speed) if r.summaries]
    untraced = [r.sweep_s * f for r, f in zip(all_reps, speed) if not r.summaries]
    reps = [layer_metrics(r.summaries) for r in all_reps if r.summaries]
    metrics = {}
    for name, unit, _, _ in LAYER_METRICS:
        if name == "trace.overhead_s":
            value = statistics.median(traced) - statistics.median(untraced)
        elif unit != "s":  # counts, bits, bytes and their ratio are exact
            value = reps[0][name]
            if any(rep[name] != value for rep in reps):
                run.problems.append(f"{name} differs between traced repetitions")
        else:
            value = statistics.median(rep[name] for rep in reps)
        metrics[name] = {"value": value, "unit": unit}
    log(f"workload {workload.name} traced: {len(reps)} traced and "
        f"{len(untraced)} untraced repetitions")
    for name, metric in metrics.items():
        log(f"  {name:<28} {metric['value']:>14.6g}  {metric['unit']}")
    for problem in run.problems:
        log(f"  problem: {problem}", file=sys.stderr)
    return run.result(metrics)


def quiet(*args, **kwargs) -> None:
    pass


def smoke(root: Path, reference: dict) -> int:
    """Every named metric is emitted and exact counts repeat between runs."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    e2e = {(m["name"], m["unit"]) for m in spec["end_to_end"]}
    layer = {(m["name"], m["unit"]) for m in spec["per_layer"]}
    exact = [m["name"] for m in spec["per_layer"] if m["unit"] != "s"]
    problems = []
    for workload in SMOKE_WORKLOADS.values():
        timed = timed_run(workload, 0, root, reference, quiet)
        first = traced_run(workload, 0, root, reference, quiet)
        second = traced_run(workload, 0, root, reference, quiet)
        for label, res, names in (("timed", timed, e2e), ("traced", first, layer),
                                  ("traced", second, layer)):
            if {(k, v["unit"]) for k, v in res["metrics"].items()} != names:
                problems.append(f"{workload.name} {label}: metric names or units "
                                f"differ from BENCHMARK.json")
            if not res["correct"]:
                problems.append(f"{workload.name} {label}: not correct")
        for name in exact:
            if first["metrics"][name]["value"] != second["metrics"][name]["value"]:
                problems.append(f"{workload.name}: {name} differs between traced runs")
        print(f"smoke {workload.name}: sweep_s {timed['metrics']['sweep_s']['value']:.3f}, "
              f"cyclotomic.mul_calls {first['metrics']['cyclotomic.mul_calls']['value']}, "
              f"moments.float_attempts {first['metrics']['moments.float_attempts']['value']}")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else "smoke: FAILED")
    return 0 if not problems else 1


def baseline(root: Path, reference: dict, seconds: float) -> int:
    """Measure every workload once and write perfbench/baseline.json."""
    env = child_env(root)
    versions = subprocess.run(
        [sys.executable, "-c", "import numpy, mpmath; print(numpy.__version__, mpmath.__version__)"],
        capture_output=True, text=True, env=env, check=True,
    ).stdout.split()
    rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                         cwd=root).stdout.strip() or "unknown"
    doc = {
        "environment": {
            "python": platform.python_version(),
            "numpy": versions[0],
            "mpmath": versions[1],
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "git_rev": rev,
            "seconds_per_run": seconds,
        },
        "workloads": {
            w.name: {"why": w.why,
                     "invocations": [["python", "-m", "klmoments", *inv.argv(Path("<fresh>"))]
                                     for inv in w.invocations]}
            for w in WORKLOADS.values()
        },
        "layer_map": {name: {"unit": unit, "better": better, "moves": moves}
                      for name, unit, better, moves in LAYER_METRICS},
        "results": {},
    }
    for workload in WORKLOADS.values():
        timed = timed_run(workload, seconds, root, reference)
        traced = traced_run(workload, seconds, root, reference)
        doc["results"][workload.name] = {
            "end_to_end": {k: v["value"] for k, v in timed["metrics"].items()},
            "failed_frac": timed["failed"] / timed["attempted"],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    (BENCH_DIR / "baseline.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    # Every workload is a fixed sweep, so each seed gives the same inputs.
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    require_checkout(root)
    reference = load_reference()
    if args.smoke:
        return smoke(root, reference)
    if args.baseline:
        return baseline(root, reference, args.seconds)
    if args.workload is None:
        parser.error("--workload is required")
    run = traced_run if args.trace else timed_run
    result = run(WORKLOADS[args.workload], args.seconds, root, reference)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
