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

This is the one convolution kernel, and the only module that packs. A
cyclic product modulo X**n - 1 is folded as a packed integer modulo
2**(8 w n) - 1 (_fold) and unpacked into n slots. There are three entry
points. convolve_exact takes the bound of _product_bound and unpacks
every linear slot: the q-series products go through it.
cyclic_convolve takes the same bound and folds: the float route's
correlations, the per-a products of moments.sym_moment_direct and the
tests' CycInt go through it. cyclic_powers forms a whole chain of cyclic
powers at one width from a bound the caller proves, folding each
product: the exact power sums go through it.
"""

from __future__ import annotations

import struct
from math import isqrt
from operator import mul
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


def _fold(x: int, modulus: int) -> int:
    """The residue of x modulo M = modulus = 2**s - 1 in (-M/2, M/2], for
    x the product of two integers in that range.

    As 2**s = 1 mod M, x = (x & M) + (x >> s) mod M. With |x| <= M**2/4,
    x >> s lies in [-M/4 - 1, M/4], so the sum lies in [-M/4 - 1, 5M/4],
    and one subtraction of M when it exceeds M/2 (when its bit s - 1 or a
    higher one is set) lands it in (-M/2, M/2], as M >= 255.

    With X = 2**(8 w), M = X**n - 1 for n slots of w bytes, and the
    residue range is exactly that of n signed slots. A product of two such
    packed operands is then the packed cyclic product modulo X**n - 1,
    provided each cyclic coefficient fits its slot: residues in a range of
    M consecutive integers are unique. The linear coefficients need not fit.
    """
    shift = modulus.bit_length()
    x = (x & modulus) + (x >> shift)
    return x - modulus if x >> (shift - 1) > 0 else x


def _product(
    a: Sequence[int], b: Sequence[int], count: int, cyclic: bool
) -> list[int]:
    """a * b in count slots, as one product at the width of _product_bound;
    cyclic reduces it modulo X**count - 1 by _fold before unpacking."""
    bound = _product_bound(a, b)
    if not bound:
        return [0] * count
    # a nonzero bound is at least max|a_i| * max|b_j|, so the operands fit
    width = (bound.bit_length() + 8) // 8  # one more bit for the sign
    signs = _sign_bits(count, width)
    packed = _pack(a, width, signs)
    product = packed * packed if a is b else packed * _pack(b, width, signs)
    if cyclic:
        product = _fold(product, (1 << 8 * width * count) - 1)
    return _unpack(product, count, width, signs)


def convolve_exact(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Exact linear convolution of two integer sequences, as one product."""
    if not a or not b:
        return []
    return _product(a, b, len(a) + len(b) - 1, cyclic=False)


def cyclic_convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Exact cyclic convolution modulo X**n - 1 (n = len(a) = len(b)).

    Each cyclic coefficient sum_(i+j=k mod n) a_i b_j pairs a with a
    permutation of b, so Cauchy-Schwarz bounds it by _product_bound too.
    """
    n = len(a)
    if len(b) != n:
        raise ValueError("cyclic convolution needs equal lengths")
    return _product(a, b, n, cyclic=True)


def cyclic_powers(v: Sequence[int], k: int, bound: int) -> list[list[int]]:
    """v^(*1)..v^(*k) (k >= 1), the powers of v under cyclic convolution
    modulo X**n - 1 (n = len(v)).

    bound must be at least |entry| of every one of those powers: it fixes
    one slot width w for the whole chain, so nothing is measured per
    product. A packed power is kept as the residue modulo
    M = 2**(8 w n) - 1 that _fold returns; v^(*j) is v^(*(j//2)) times
    v^(*(j - j//2)), folded. Each power is unpacked once.
    """
    n = len(v)
    width = (bound.bit_length() + 8) // 8  # one more bit for the sign
    signs = _sign_bits(n, width)
    modulus = (1 << 8 * width * n) - 1
    packed = [None, _pack(v, width, signs)]
    powers = [list(v)]
    for j in range(2, k + 1):
        packed.append(_fold(packed[j // 2] * packed[j - j // 2], modulus))
        powers.append(_unpack(packed[j], n, width, signs))
    return powers


def cyclic_convolve_ntt(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """cyclic_convolve under a second name. It has no caller: perfbench's
    tracer resolves the name for its convolve.ntt op, and this def is
    deleted together with that op (ROADMAP item 1)."""
    return cyclic_convolve(a, b)
