"""Persistent cache of power-sum tables.

One JSON document per (p, method), in the method's convention: restricted
for exact tables, completed for float tables (the convention their
congruence pins). sums/p{p}-{convention}-{method}.json holds, e.g.:

    {"schema_version": 1, "p": 199, "convention": "completed",
     "method": "float-congruence",
     "entries": [{"n": 1, "value": "0"}, ...],
     "checksum": "<sha256 of the canonical payload>"}

Values are decimal strings so no consumer has to guess integer widths.
The checksum is CPython's built-in SHA-256 (the digest hashlib gives,
without loading OpenSSL). A store encodes the document once and writes it
to a temporary file in the same directory, followed by an atomic rename;
concurrent readers see either the old or the new complete file. A load
opens its file, and the sibling record's, directly: a file that is not
there is a miss, with no stat before the read.
The cache is advisory: unreadable or corrupt entries, and entries that
break the restricted closed forms of S_1..S_4 or the Weil bound
S_n^2 <= (p-1)^2 4^n p^n (moments._check_power_sums), are discarded with
a warning. Disagreement
between a load's exact and float records, or between a recomputed table and
the record it replaces, raises CacheMismatch (moments._check_agreement).
"""

from __future__ import annotations

import json
import os
import tempfile
from functools import cache
from pathlib import Path

from .errors import IdentityFailure
from .moments import (
    COMPLETED,
    METHOD_EXACT,
    METHOD_FLOAT,
    RESTRICTED,
    PowerSumTable,
    _check_agreement,
    _check_power_sums,
)

SCHEMA_VERSION = 1

CONVENTION = {METHOD_EXACT: RESTRICTED, METHOD_FLOAT: COMPLETED}

ENV_CACHE_DIR = "KLMOMENTS_CACHE_DIR"
DEFAULT_CACHE_DIR = ".klmoments-cache"


def resolve_cache_dir(flag_value: str | None = None) -> Path:
    """Cache root: explicit flag wins, then the environment, then local default."""
    if flag_value:
        return Path(flag_value)
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path(DEFAULT_CACHE_DIR)


def _payload(table: PowerSumTable) -> dict:
    entries = [
        {"n": n, "value": str(table.values[n])} for n in sorted(table.values)
    ]
    return {
        "schema_version": SCHEMA_VERSION,
        "p": table.p,
        "convention": table.convention,
        "method": table.method,
        "entries": entries,
    }


@cache
def _sha256():
    """CPython's built-in SHA-256 constructor. It gives hashlib's digest
    without loading OpenSSL; hashlib serves only an interpreter without it."""
    try:
        from _sha2 import sha256  # CPython 3.12 and later
    except ImportError:
        try:
            from _sha256 import sha256  # CPython 3.10 and 3.11
        except ImportError:
            from hashlib import sha256
    return sha256


def _checksum(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return _sha256()(canonical.encode()).hexdigest()


class PowerSumStore:
    """Directory-backed store of power-sum tables."""

    def __init__(self, root: Path | str):
        self.root = Path(root) / "sums"

    def _path(self, p: int, method: str) -> Path:
        return self.root / f"p{p}-{CONVENTION[method]}-{method}.json"

    def store(self, table: PowerSumTable) -> Path:
        """Write table, in its method's convention."""
        payload = _payload(table.to_convention(CONVENTION[table.method]))
        payload["checksum"] = _checksum(payload)
        text = json.dumps(payload, sort_keys=True)
        path = self._path(table.p, table.method)
        try:
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        except FileNotFoundError:  # the first store under this root
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return path

    def load(self, p: int, method: str) -> PowerSumTable | None:
        """Load one table in its method's convention, or None when
        absent/corrupt. Cross-checks the other method's record when present."""
        table = self._load_raw(p, method)
        if table is None:
            return None
        sibling = self._load_raw(p, METHOD_FLOAT if method == METHOD_EXACT else METHOD_EXACT)
        if sibling is not None:
            _check_agreement(table, sibling)
        return table

    def _load_raw(self, p: int, method: str) -> PowerSumTable | None:
        path = self._path(p, method)
        convention = CONVENTION[method]
        try:
            with open(path) as fh:
                doc = json.load(fh)
            if not isinstance(doc, dict):
                raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
            checksum = doc.pop("checksum")
            if doc.get("schema_version") != SCHEMA_VERSION:
                raise ValueError(f"schema_version {doc.get('schema_version')}")
            if checksum != _checksum(doc):
                raise ValueError("checksum mismatch")
            if (doc["p"], doc["convention"], doc["method"]) != (p, convention, method):
                raise ValueError("header does not match file name")
            values = {int(e["n"]): int(e["value"]) for e in doc["entries"]}
            table = PowerSumTable(p, convention, values, method)
            _check_power_sums(p, table.to_convention(RESTRICTED).values)
            return table
        except FileNotFoundError:  # absent: nothing to discard
            return None
        except (
            OSError, ValueError, KeyError, TypeError, json.JSONDecodeError, IdentityFailure
        ) as exc:
            import logging

            logging.getLogger(__name__).warning(
                "discarding corrupt cache entry %s: %s", path, exc
            )
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def get_or_compute(self, p: int, nmax: int, method: str, compute):
        """Cached lookup in the method's convention; `compute` runs on miss
        and its result is stored.

        A cached table is only a hit when it covers n <= nmax. Otherwise the
        recomputed table replaces the record, which it must agree with; so a
        record with a gap fails, and one without is covered.
        """
        cached = self.load(p, method)
        if cached is not None and all(n in cached.values for n in range(1, nmax + 1)):
            return cached
        table = compute().to_convention(CONVENTION[method])
        if cached is not None:
            relabelled = PowerSumTable(p, cached.convention, cached.values, f"cached {cached.method}")
            _check_agreement(relabelled, table)
        self.store(table)
        return table
