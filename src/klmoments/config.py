"""Run configuration shared by the CLI and the batch pipelines."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .cache import resolve_cache_dir
from .moments import DEFAULT_EXACT_LIMIT, PRECISION_CAP, PRECISION_START

FORMATS = ("text", "csv", "json")


@dataclass(frozen=True)
class RunConfig:
    exact_limit: int = DEFAULT_EXACT_LIMIT
    precision_start: int = PRECISION_START
    precision_cap: int = PRECISION_CAP
    cache_dir: Path | None = None
    fmt: str = "text"
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.exact_limit < 3:
            raise ValueError("exact_limit must be >= 3")
        if self.precision_start < 1:
            raise ValueError("precision must be >= 1")
        if self.precision_start > self.precision_cap:
            raise ValueError("precision start exceeds cap")
        if self.fmt not in FORMATS:
            raise ValueError(f"format must be one of {FORMATS}")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")


def make_config(args) -> RunConfig:
    """Build a RunConfig from parsed CLI arguments."""
    if getattr(args, "no_cache", False):
        cache_dir = None
    else:
        cache_dir = resolve_cache_dir(getattr(args, "cache_dir", None))
    return RunConfig(
        exact_limit=getattr(args, "exact_limit", DEFAULT_EXACT_LIMIT),
        precision_start=getattr(args, "precision", PRECISION_START),
        precision_cap=getattr(args, "precision_cap", PRECISION_CAP),
        cache_dir=cache_dir,
        fmt=getattr(args, "format", "text"),
        jobs=getattr(args, "jobs", 1),
    )
