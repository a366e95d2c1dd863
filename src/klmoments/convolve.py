"""Exact integer convolution kernels.

All callers need bit-exact results on arbitrary-precision integers. The
fast path runs numpy int64 schoolbook convolution, guarded by an a-priori
bound on every intermediate value; when the bound does not fit, operands
are split into signed base-2**k digits so that each partial convolution is
int64-safe, and the digits are recombined in exact Python integers. An
NTT path (CRT over word-sized primes with power-of-two transforms) agrees
bit-exactly with the schoolbook path. No product calls it: it is kept
only because the benchmark's per-layer trace names it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from .ffprime import is_prime

_INT64_SAFE = 1 << 62


def _abs_stats(v: Sequence[int]) -> tuple[int, int]:
    s = m = 0
    for x in v:
        ax = -x if x < 0 else x
        s += ax
        if ax > m:
            m = ax
    return s, m


def _product_bound(a: Sequence[int], b: Sequence[int]) -> int:
    """Upper bound for |coefficient| of the linear convolution a*b."""
    sa, ma = _abs_stats(a)
    sb, mb = _abs_stats(b)
    return min(sa * mb, sb * ma)


def _convolve_int64(a: Sequence[int], b: Sequence[int]) -> list[int]:
    full = np.convolve(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64))
    return full.tolist()


def _digits(v: Sequence[int], base_bits: int, count: int) -> list[list[int]]:
    """Signed digit expansion: v = sum_i digits[i] << (base_bits * i)."""
    out = [[0] * len(v) for _ in range(count)]
    mask = (1 << base_bits) - 1
    for pos, x in enumerate(v):
        neg = x < 0
        if neg:
            x = -x
        i = 0
        while x:
            out[i][pos] = -(x & mask) if neg else (x & mask)
            x >>= base_bits
            i += 1
    return out


def _convolve_split(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Exact linear convolution via digit splitting; no overflow possible."""
    n = len(a) + len(b) - 1
    # Digit size chosen so p products of two digits stay inside int64.
    base_bits = max(8, (62 - max(len(a), len(b)).bit_length()) // 2)
    _, ma = _abs_stats(a)
    _, mb = _abs_stats(b)
    na = max(1, -(-max(1, ma.bit_length()) // base_bits))
    nb = max(1, -(-max(1, mb.bit_length()) // base_bits))
    da = _digits(a, base_bits, na)
    db = _digits(b, base_bits, nb)
    acc = [0] * n
    for i, ai in enumerate(da):
        for j, bj in enumerate(db):
            part = _convolve_int64(ai, bj)
            shift = base_bits * (i + j)
            for t, c in enumerate(part):
                if c:
                    acc[t] += c << shift
    return acc


def convolve_exact(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Exact linear convolution of two integer sequences."""
    if not a or not b:
        return []
    if _product_bound(a, b) < _INT64_SAFE:
        return _convolve_int64(a, b)
    return _convolve_split(a, b)


def cyclic_convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Exact cyclic convolution modulo X**n - 1 (n = len(a) = len(b))."""
    n = len(a)
    if len(b) != n:
        raise ValueError("cyclic convolution needs equal lengths")
    full = convolve_exact(a, b)
    out = list(full[:n])
    for t in range(n, len(full)):
        out[t - n] += full[t]
    return out


# ---------------------------------------------------------------------------
# Number-theoretic transform path
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _ntt_primes(two_power: int, count: int) -> tuple[tuple[int, int], ...]:
    """First `count` primes q = c * 2**two_power + 1 below 2**26, with a
    primitive root; the 26-bit cap keeps q**2 * length inside int64."""
    found = []
    step = 1 << two_power
    q = (1 << 25) // step * step + 1
    while len(found) < count:
        q += step
        if q >= (1 << 26):
            raise ValueError("not enough NTT primes below 2**26")
        if not is_prime(q):
            continue
        found.append((q, _primitive_root(q)))
    return tuple(found)


def _primitive_root(q: int) -> int:
    fac = []
    m = q - 1
    d = 2
    while d * d <= m:
        if m % d == 0:
            fac.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        fac.append(m)
    for g in range(2, q):
        if all(pow(g, (q - 1) // f, q) != 1 for f in fac):
            return g
    raise ValueError(f"no primitive root for {q}")  # unreachable for prime q


def _ntt(vec: np.ndarray, q: int, root: int, invert: bool) -> np.ndarray:
    """Iterative radix-2 NTT over Z/q on an int64 vector (length power of 2)."""
    n = len(vec)
    a = vec % q
    # bit-reversal permutation
    j = 0
    for i in range(1, n):
        bit = n >> 1
        while j & bit:
            j ^= bit
            bit >>= 1
        j |= bit
        if i < j:
            a[i], a[j] = a[j], a[i]
    length = 2
    while length <= n:
        w = pow(root, (q - 1) // length, q)
        if invert:
            w = pow(w, q - 2, q)
        half = length // 2
        ws = np.empty(half, dtype=np.int64)
        acc = 1
        for i in range(half):
            ws[i] = acc
            acc = acc * w % q
        blocks = a.reshape(n // length, length)
        lo = blocks[:, :half].copy()  # first assignment below would alias it
        hi = blocks[:, half:] * ws % q
        blocks[:, :half] = (lo + hi) % q
        blocks[:, half:] = (lo - hi) % q
        length *= 2
    if invert:
        n_inv = pow(n, q - 2, q)
        a = a * n_inv % q
    return a


def cyclic_convolve_ntt(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Cyclic convolution via CRT'd power-of-two NTTs; bit-exact."""
    n = len(a)
    if len(b) != n:
        raise ValueError("cyclic convolution needs equal lengths")
    # CRT range must cover the signed linear coefficients, |c| <= bound
    bound = 2 * _product_bound(a, b) + 1
    size = 1
    while size < 2 * n - 1:
        size *= 2
    count = max(2, -(-max(1, bound.bit_length()) // 24))
    primes = _ntt_primes(size.bit_length() - 1, count)
    modulus = 1
    for q, _ in primes:
        modulus *= q
    residues = []
    for q, g in primes:
        fa = np.zeros(size, dtype=np.int64)
        fb = np.zeros(size, dtype=np.int64)
        fa[:n] = np.array([x % q for x in a], dtype=np.int64)
        fb[:n] = np.array([x % q for x in b], dtype=np.int64)
        ta = _ntt(fa, q, g, invert=False)
        tb = _ntt(fb, q, g, invert=False)
        residues.append((_ntt(ta * tb % q, q, g, invert=True), q))
    # CRT lift, then fold the linear result into length n
    basis = []
    for r, q in residues:
        m_i = modulus // q
        basis.append((r, m_i * pow(m_i, -1, q)))
    half = modulus // 2
    out = [0] * n
    for t in range(2 * n - 1):
        x = sum(int(r[t]) * c for r, c in basis) % modulus
        if x > half:
            x -= modulus
        out[t % n] += x
    return out
