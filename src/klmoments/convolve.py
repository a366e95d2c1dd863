"""Exact integer convolution by Kronecker substitution.

All callers need bit-exact results on arbitrary-precision integers. A
sequence v is packed into one integer, sum_i v_i * 2**(8*w*i), whose
slots of w bytes hold every coefficient of the product: w is the a-priori
bound of _product_bound plus a sign bit, rounded up to whole bytes. One
big-integer product then carries the whole linear convolution, one
coefficient per slot, and is unpacked again. Signs cost one XOR against
S, the top bit of every slot: two's-complement slot bytes U pack to the
signed value (U ^ S) - S, and a signed product C unpacks from the
two's-complement bytes of (C + S) ^ S. Slots of up to 8 bytes go through
struct at the next size of 1, 2, 4 or 8 bytes, with the sign-extension
bytes dropped or restored by strided byte copies; wider ones through
int.to_bytes per entry.

An NTT path (CRT over word-sized primes with power-of-two transforms)
agrees bit-exactly with the Kronecker path. No product calls it: it is
kept only because the benchmark's per-layer trace names it, and it is the
only code here that loads numpy.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from math import isqrt
from operator import add, mul
from typing import TYPE_CHECKING, Sequence

from .ffprime import is_prime

if TYPE_CHECKING:
    import numpy as np

# struct codes of the signed sizes, in bytes
_STRUCT_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}
# byte -> 0xff when its top bit is set, else 0: a sign-extension byte
_SIGN_FILL = bytes(0xFF if b & 0x80 else 0 for b in range(256))


def _product_bound(a: Sequence[int], b: Sequence[int]) -> int:
    """Upper bound for |coefficient| of the linear convolution a*b.

    By Cauchy-Schwarz, |sum_i a_i b_(k-i)|**2 <= (sum a_i**2)(sum b_j**2).
    """
    sq_a = sum(map(mul, a, a))
    sq_b = sq_a if b is a else sum(map(mul, b, b))
    return isqrt(sq_a * sq_b)


def _sign_bits(count: int, width: int) -> int:
    """The top bit of each of count slots of width bytes."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")


def _pack(v: Sequence[int], width: int, signs: int) -> int:
    """sum_i v_i * 2**(8 * width * i); signs covers at least len(v) slots."""
    if width > 8:
        raw = b"".join(x.to_bytes(width, "little", signed=True) for x in v)
    else:
        size = 1 << (width - 1).bit_length()
        raw = struct.pack(f"<{len(v)}{_STRUCT_CODES[size]}", *v)
        if size > width:  # drop each slot's sign-extension bytes
            narrow = bytearray(len(v) * width)
            for k in range(width):
                narrow[k::width] = raw[k::size]
            raw = narrow
    # slots above len(v) are zero in raw, so their sign bits cancel
    return (int.from_bytes(raw, "little") ^ signs) - signs


def _unpack(c: int, count: int, width: int, signs: int) -> list[int]:
    """The count signed slots of c, least significant first."""
    raw = ((c + signs) ^ signs).to_bytes(count * width, "little")
    if width > 8:
        return [
            int.from_bytes(raw[i : i + width], "little", signed=True)
            for i in range(0, len(raw), width)
        ]
    size = 1 << (width - 1).bit_length()
    if size > width:  # sign-extend each slot to the struct size
        wide = bytearray(count * size)
        for k in range(width):
            wide[k::size] = raw[k::width]
        fill = raw[width - 1 :: width].translate(_SIGN_FILL)
        for k in range(width, size):
            wide[k::size] = fill
        raw = wide
    return list(struct.unpack(f"<{count}{_STRUCT_CODES[size]}", raw))


def convolve_exact(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Exact linear convolution of two integer sequences, as one product."""
    if not a or not b:
        return []
    count = len(a) + len(b) - 1
    bound = _product_bound(a, b)
    if not bound:
        return [0] * count
    # a nonzero bound is at least max|a_i| * max|b_j|, so the operands fit
    width = (bound.bit_length() + 8) // 8  # one more bit for the sign
    signs = _sign_bits(count, width)
    packed = _pack(a, width, signs)
    product = packed * packed if a is b else packed * _pack(b, width, signs)
    return _unpack(product, count, width, signs)


def cyclic_convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Exact cyclic convolution modulo X**n - 1 (n = len(a) = len(b))."""
    n = len(a)
    if len(b) != n:
        raise ValueError("cyclic convolution needs equal lengths")
    full = convolve_exact(a, b)
    # full has 2n - 1 entries; entry n + t folds onto t
    return list(map(add, full, full[n:])) + full[n - 1 : n]


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
    import numpy as np

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
    import numpy as np

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
