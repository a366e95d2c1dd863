"""Exact integer convolution by Kronecker substitution.

All callers need bit-exact results on arbitrary-precision integers. A
sequence v is packed into one integer, sum_i v_i * 2**(8*w*i), whose
slots of w bytes hold every coefficient of the product: w is an a-priori
bound plus a sign bit, rounded up to whole bytes. One big-integer product
then carries the whole convolution, one coefficient per slot, and is
unpacked again. Signs cost one XOR against S, the top bit of every slot:
two's-complement slot bytes U pack to the signed value (U ^ S) - S, and
a signed product C unpacks from the two's-complement bytes of
(C + S) ^ S. Slots of up to 8 bytes go through struct at the next size
of 1, 2, 4 or 8 bytes, with the sign-extension bytes dropped or restored
by strided byte copies; wider ones through int.to_bytes per entry.

This is the one convolution kernel, and the only module that packs. It
has two entry points. convolve_exact (and cyclic_convolve on top of it)
takes the bound of _product_bound for each product, unpacks all the
linear slots and folds a cyclic result as a list: CycInt products, the
float route's correlations and the q-series products go through it.
cyclic_powers forms a whole chain of cyclic powers at one width from a
bound the caller proves, and folds each product as a packed integer
modulo 2**(8 w n) - 1: the exact power sums go through it.
"""

from __future__ import annotations

import struct
from math import isqrt
from operator import add, mul
from typing import Sequence

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


def cyclic_powers(v: Sequence[int], k: int, bound: int) -> list[list[int]]:
    """v^(*1)..v^(*k) (k >= 1), the powers of v under cyclic convolution
    modulo X**n - 1 (n = len(v)).

    bound must be at least |entry| of every one of those powers: it fixes
    one slot width w for the whole chain, so nothing is measured per
    product. X = 2**(8 w) turns X**n - 1 into M = 2**(8 w n) - 1, and a
    packed power is kept as the residue mod M in (-M/2, M/2], which is
    exactly the range of n signed slots. v^(*j) is v^(*(j//2)) times
    v^(*(j - j//2)): the exact product x folds to (x & M) + (x >> 8 w n),
    since 2**(8 w n) = 1 mod M, and one subtraction of M brings it into
    range. Only the cyclic coefficients must fit their slots; the linear
    ones never do. Each power is unpacked once.
    """
    n = len(v)
    width = (bound.bit_length() + 8) // 8  # one more bit for the sign
    signs = _sign_bits(n, width)
    shift = 8 * width * n
    modulus = (1 << shift) - 1
    half = modulus >> 1
    packed = [None, _pack(v, width, signs)]
    powers = [list(v)]
    for j in range(2, k + 1):
        x = packed[j // 2] * packed[j - j // 2]
        x = (x & modulus) + (x >> shift)
        if x > half:
            x -= modulus
        packed.append(x)
        powers.append(_unpack(x, n, width, signs))
    return powers


def cyclic_convolve_ntt(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """cyclic_convolve under a second name. It has no caller: perfbench's
    tracer resolves the name for its convolve.ntt op, and this def is
    deleted together with that op (ROADMAP item 1)."""
    return cyclic_convolve(a, b)
