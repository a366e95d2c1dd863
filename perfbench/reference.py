"""Record and prove the reference outputs the benchmark checks against.

    python3 perfbench/reference.py     # from the root of a klmoments checkout

Runs every distinct invocation of the full and smoke workloads once with
``--no-cache``, records its exit status and stdout SHA-256, and runs each
cached workload once more through a fresh cache directory to confirm that
reading the cache gives the same stdout. Before writing
``perfbench/reference.json`` it proves every row by a route independent of
the one the CLI took:

* every degree-6 row must carry a passing ``registry_match`` check, which
  compares with the validated eta-quotient expansion;
* every float-route row must equal ``sym_moment_girard`` over
  ``power_sums_exact(p, d, exact_limit=p)``;
* every other exact-route row must equal ``sym_moment_direct``, the per-a
  eigenvalue recurrence.

This runs outside the timed runs and takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from workloads import (
    COMMON_FLAGS,
    SMOKE_WORKLOADS,
    WORKLOADS,
    child_env,
    require_checkout,
    run_child,
)

BENCH_DIR = Path(__file__).resolve().parent


def prove_rows(doc: dict) -> int:
    """Check every report row of one evans JSON document; return rows proven."""
    from klmoments.moments import (
        RESTRICTED,
        power_sums_exact,
        sym_moment_direct,
        sym_moment_girard,
    )

    rows = doc["reports"]
    if doc["summary"]["errors"] or not rows:
        raise SystemExit(f"reference: error rows or no rows in {doc['summary']}")
    for row in rows:
        d, p, moment = row["d"], row["p"], int(row["moment"])
        if d == 6:
            checks = {c["name"]: c["passed"] for c in row["checks"]}
            if checks.get("registry_match") is not True:
                raise SystemExit(f"reference: d=6 p={p} lacks a passing registry_match")
        if row["method"] == "girard-float":
            table = power_sums_exact(p, max(d, 1), RESTRICTED, exact_limit=p)
            expected = sym_moment_girard(p, d, table).value
        elif d != 6:
            expected = sym_moment_direct(p, d, exact_limit=p).value
        else:
            continue
        if moment != expected:
            raise SystemExit(f"reference: d={d} p={p}: {moment} != {expected}")
    return len(rows)


def main() -> int:
    root = Path.cwd()
    require_checkout(root)
    sys.path.insert(0, str(root / "src"))
    env = child_env(root)
    work = root / ".perfbench" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    invocations = {}
    workloads = [*WORKLOADS.values(), *SMOKE_WORKLOADS.values()]
    for workload in workloads:
        for inv in workload.invocations:
            if inv.key in invocations:
                continue
            argv = ["-m", "klmoments", *inv.args, "--no-cache", *COMMON_FLAGS]
            res = run_child(argv, env, work)
            if res.exit_code != 0:
                raise SystemExit(f"reference: {inv.key} exited {res.exit_code}")
            rows = prove_rows(json.loads(res.stdout))
            invocations[inv.key] = {"exit_code": res.exit_code, "sha256": res.digest,
                                    "rows": rows, "proven": True}
            print(f"{inv.key}: {rows} rows proven, sha256 {res.digest[:12]}")
    for workload in workloads:
        if not any(inv.cached for inv in workload.invocations):
            continue
        cache = work / f"cache-{workload.name}"
        for inv in workload.invocations:
            res = run_child(["-m", "klmoments", *inv.argv(cache)], env, work)
            if (res.exit_code, res.digest) != (0, invocations[inv.key]["sha256"]):
                raise SystemExit(f"reference: cached {inv.key} differs from --no-cache")
        print(f"{workload.name}: cached outputs equal the --no-cache outputs")
    shutil.rmtree(work, ignore_errors=True)
    doc = {
        "about": "exit status and stdout SHA-256 of each invocation, keyed by the "
                 "command without --no-cache/--cache-dir/--jobs/--format; "
                 "recorded and proven by perfbench/reference.py",
        "invocations": invocations,
    }
    (BENCH_DIR / "reference.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
