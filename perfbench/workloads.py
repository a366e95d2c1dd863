"""Workload definitions and the child-process runner shared by the benchmark.

Every workload is a list of ``python -m klmoments evans ...`` invocations
that run one after another, one child at a time, always with ``--jobs 1``
(the default forks one worker per core, which would measure the scheduler)
and either ``--no-cache`` or a fresh cache directory owned by the benchmark.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

CHILD_TIMEOUT_S = 150
COMMON_FLAGS = ("--jobs", "1", "--format", "json")


@dataclass(frozen=True)
class Invocation:
    """One CLI call. ``args`` excludes the shared flags and the cache flag."""

    args: tuple[str, ...]
    cached: bool

    @property
    def key(self) -> str:
        """Reference key: the command without the shared and cache flags
        (stdout must be the same with --no-cache and with a cache dir)."""
        return " ".join(self.args)

    def argv(self, cache_dir: Path | None) -> list[str]:
        cache = ["--cache-dir", str(cache_dir)] if self.cached else ["--no-cache"]
        return [*self.args, *cache, *COMMON_FLAGS]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    invocations: tuple[Invocation, ...]


def _evans(d: int, pmin: int, pmax: int, cached: bool = False) -> Invocation:
    return Invocation(
        ("evans", "--d", str(d), "--pmin", str(pmin), "--pmax", str(pmax)), cached
    )


def _make(scale: str) -> dict[str, Workload]:
    # scale "full" is the benchmark; "smoke" keeps every route on tiny ranges.
    full = scale == "full"
    small = (2, 257) if full else (2, 31)
    large = (258, 330) if full else (258, 264)
    mixed = (2, 280) if full else (250, 264)
    return {
        "d6-small-p": Workload(
            "d6-small-p",
            "every prime takes the exact Z[zeta_p] route (kloosterman, cyclotomic, "
            "convolve) plus the eta-quotient oracle; no float work, no cache I/O",
            (_evans(6, *small),),
        ),
        "d5-large-p": Workload(
            "d5-large-p",
            "every prime is above the exact limit: Fraction-interval float route "
            "plus the seeded audit, and zero CycInt products",
            (_evans(5, *large),),
        ),
        "all-degrees-cached": Workload(
            "all-degrees-cached",
            "degrees 8,7,6,5 over one range sharing a fresh cache dir: d=8 writes "
            "exact tables, the warm degrees read them back; four set-ups",
            tuple(_evans(d, *mixed, cached=True) for d in (8, 7, 6, 5)),
        ),
    }


WORKLOADS = _make("full")
SMOKE_WORKLOADS = _make("smoke")
WARMUP = _evans(6, 2, 3)
SETUP_PROBE = ("-c", "import klmoments.cli")


def require_checkout(root: Path) -> None:
    """Exit with an error unless ``root`` holds the klmoments sources."""
    if not (root / "src" / "klmoments" / "cli.py").is_file():
        sys.exit(f"perfbench: no src/klmoments under {root}; run from a klmoments checkout")


def child_env(root: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("KLMOMENTS_")}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass(frozen=True)
class ChildResult:
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    exit_code: int
    stdout: bytes

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.stdout).hexdigest()


def run_child(argv: list[str], env: dict[str, str], workdir: Path) -> ChildResult:
    """Run ``python <argv>`` in ``workdir`` and return its wall time, its own
    CPU time and max RSS (from wait4), its exit status and its stdout.

    Stdout goes to a file so the child never blocks on a pipe; stderr goes to
    ``workdir/stderr.txt`` for diagnosis.
    """
    out_path = workdir / "stdout.bin"
    with open(out_path, "wb") as out, open(workdir / "stderr.txt", "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], stdout=out, stderr=err, env=env, cwd=workdir
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024,
        proc.returncode,
        out_path.read_bytes(),
    )
