"""Deterministic arithmetic substrate: the error types, fixed-point amounts,
identifiers, the FNV-1a trace hash, and seeded randomness.

Every monetary quantity in the simulator is a ``FixedAmount``: an integer
count of 1e-9 units. Addition and subtraction are exact; multiplication and
division round half-to-even at the 1e-9 quantum. Powers and ``safe_exp``
are evaluated with the ``decimal`` module at 40 significant digits and then
quantized. ``ln`` and the decaying price ``p0 * e**-x`` are exact integer
kernels: 128-bit fixed point, rounded straight to the quantum, with the
40-digit ``decimal`` expression as their fallback when the fixed-point
value is too close to a rounding boundary to decide; each returns what its
expression returns, bit for bit.
Results are bit-identical across platforms -- no libm involved anywhere.
"""

from __future__ import annotations

import random
from decimal import Context, Decimal, ROUND_HALF_EVEN
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from typing import Iterable, Iterator, Union


class RugsimError(Exception):
    """Base class for all simulator errors."""


class RangeError(RugsimError):
    """A value left the representable fixed-point range."""


class DomainError(RugsimError):
    """An operand outside the mathematical domain of an operation."""


class ParameterError(RugsimError):
    """A parameter violates a declared precondition."""


class StateError(RugsimError):
    """An operation is invalid in the current lifecycle state."""


class DustError(RugsimError):
    """An amount is too small to have any effect at the quantum."""


class IlliquidError(RugsimError):
    """A pool or market lacks the liquidity to serve a request."""


SCALE = 10**9
# Covers +/- 1e18 whole units (raw is a count of 1e-9 quanta).
MAX_RAW = 10**27

# the home chain's reward token, which the supply controller emits and burns
HOME_TOKEN = "R"

# 40 significant digits for intermediate transcendental evaluation,
# comfortably beyond 80-bit extended precision.
_EXT = Context(prec=40, rounding=ROUND_HALF_EVEN)

AmountLike = Union["FixedAmount", int, str, Fraction, Decimal]


def _div_round_half_even(num: int, den: int) -> int:
    """Integer division rounding to nearest, ties to even. den != 0."""
    if den < 0:
        num, den = -num, -den
    q, r = divmod(num, den)
    twice = 2 * r
    if twice > den or (twice == den and q % 2 != 0):
        q += 1
    return q


def _checked(raw: int) -> int:
    """raw, or the RangeError that FixedAmount(raw) would raise: for sums
    kept as raw ints."""
    if abs(raw) > MAX_RAW:
        raise RangeError(f"fixed-point overflow: raw={raw}")
    return raw


class FixedAmount:
    """Signed fixed-point quantity with 9 fractional decimal digits.

    Backed by a plain int of 1e-9 quanta. Overflow past +/-1e18 whole
    units raises ``RangeError`` instead of wrapping.
    """

    __slots__ = ("raw",)

    def __init__(self, raw: int):
        if not isinstance(raw, int):
            raise TypeError(f"raw must be int, got {type(raw).__name__}")
        if abs(raw) > MAX_RAW:
            raise RangeError(f"fixed-point overflow: raw={raw}")
        self.raw = raw

    @classmethod
    def parse(cls, text: str) -> "FixedAmount":
        """A decimal literal, rounded to the nearest quantum."""
        try:
            dec = Decimal(text)
        except Exception:
            raise ParameterError(f"not a decimal literal: {text!r}") from None
        if not dec.is_finite():
            raise ParameterError(f"not a finite decimal literal: {text!r}")
        if dec.adjusted() > 18:
            # at least 1e19 units, past MAX_RAW: refused before a huge exponent
            # builds a huge int (or one too long for the error message's str)
            raise RangeError(f"fixed-point overflow: {text!r}")
        if dec.adjusted() < -10:
            # below a tenth of a quantum: rounds to 0 before a huge exponent
            # builds a huge int
            return FixedAmount(0)
        num, den = dec.as_integer_ratio()
        return FixedAmount(_div_round_half_even(num * SCALE, den))

    def as_fraction(self) -> Fraction:
        return Fraction(self.raw, SCALE)

    def as_decimal(self) -> Decimal:
        return Decimal(self.raw).scaleb(-9)

    # -- exact ops -----------------------------------------------------

    def __add__(self, other: "FixedAmount") -> "FixedAmount":
        return FixedAmount(self.raw + other.raw)

    def __sub__(self, other: "FixedAmount") -> "FixedAmount":
        return FixedAmount(self.raw - other.raw)

    def __neg__(self) -> "FixedAmount":
        return FixedAmount(-self.raw)

    def __abs__(self) -> "FixedAmount":
        return FixedAmount(abs(self.raw))

    # -- rounding ops --------------------------------------------------

    def __mul__(self, other: Union["FixedAmount", int]) -> "FixedAmount":
        if isinstance(other, int):
            return FixedAmount(self.raw * other)
        return FixedAmount(_div_round_half_even(self.raw * other.raw, SCALE))

    __rmul__ = __mul__

    def __truediv__(self, other: Union["FixedAmount", int]) -> "FixedAmount":
        if isinstance(other, int):
            if other == 0:
                raise DomainError("division by zero")
            return FixedAmount(_div_round_half_even(self.raw, other))
        if other.raw == 0:
            raise DomainError("division by zero")
        return FixedAmount(_div_round_half_even(self.raw * SCALE, other.raw))

    # -- comparisons ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FixedAmount) and self.raw == other.raw

    def __lt__(self, other: "FixedAmount") -> bool:
        return self.raw < other.raw

    def __le__(self, other: "FixedAmount") -> bool:
        return self.raw <= other.raw

    def __gt__(self, other: "FixedAmount") -> bool:
        return self.raw > other.raw

    def __ge__(self, other: "FixedAmount") -> bool:
        return self.raw >= other.raw

    def __hash__(self) -> int:
        return hash(("FixedAmount", self.raw))

    def __bool__(self) -> bool:
        return self.raw != 0

    def __float__(self) -> float:
        return self.raw / SCALE

    def __str__(self) -> str:
        sign = "-" if self.raw < 0 else ""
        whole, frac = divmod(abs(self.raw), SCALE)
        if frac == 0:
            return f"{sign}{whole}"
        return f"{sign}{whole}.{frac:09d}".rstrip("0")

    def __repr__(self) -> str:
        return f"FixedAmount('{self}')"


ZERO = FixedAmount(0)
ONE = FixedAmount(SCALE)
QUANTUM = FixedAmount(1)


def quantize(value: AmountLike) -> FixedAmount:
    """Round an exact value to the nearest 1e-9 quantum, ties to even.

    Floats are rejected: they are not exact and would break cross-platform
    determinism. Pass a string, int, Fraction, or Decimal instead.
    """
    if isinstance(value, FixedAmount):
        return value
    if isinstance(value, bool) or isinstance(value, float):
        raise TypeError(f"inexact type {type(value).__name__}; use str/int/Fraction")
    if isinstance(value, int):
        return FixedAmount(value * SCALE)
    if isinstance(value, str):
        return FixedAmount.parse(value)
    if isinstance(value, Decimal):
        value = Fraction(value)
    if isinstance(value, Fraction):
        return FixedAmount(_div_round_half_even(value.numerator * SCALE, value.denominator))
    raise TypeError(f"cannot quantize {type(value).__name__}")


def amt(value: AmountLike) -> FixedAmount:
    """Shorthand constructor, accepted everywhere an amount is expected."""
    return quantize(value)


def _from_context_decimal(d: Decimal) -> FixedAmount:
    raw = int(d.scaleb(9).to_integral_value(rounding=ROUND_HALF_EVEN))
    return FixedAmount(raw)


# -- ln: integer kernel -------------------------------------------------
#
# ln(raw * 1e-9) = e*ln(2) + ln(1 + j/64) + 2*atanh(t), with 2**e and the
# table entry 1 + j/64 chosen so that 0 <= t < 1/129, in fixed point with
# _LN_BITS fractional bits. Ziv's rounding test decides whether the fixed
# point value, within its error bound, rounds to one quantum; otherwise
# the 40-digit decimal expression answers.

_LN_BITS = 128
_LN_ONE = 1 << _LN_BITS
_LN_TABLE_GUARD = 32  # extra bits while the table is summed


def _atanh_inv(m: int, bits: int) -> int:
    """atanh(1/m) * 2**bits for an integer m > 1, low by less than one
    unit per series term."""
    power = (1 << bits) // m
    total = power
    m2 = m * m
    k = 3
    while power:
        power //= m2
        total += power // k
        k += 2
    return total


def _ln_table() -> list[int]:
    """ln(1 + j/64) * 2**_LN_BITS for j = 0..64, each within one unit:
    ln((64+j)/64) is summed from ln((64+i)/(63+i)) = 2*atanh(1/(127+2i))
    with guard bits, then rounded."""
    bits = _LN_BITS + _LN_TABLE_GUARD
    half = 1 << (_LN_TABLE_GUARD - 1)
    table, acc = [0], 0
    for i in range(1, 65):
        acc += 2 * _atanh_inv(127 + 2 * i, bits)
        table.append((acc + half) >> _LN_TABLE_GUARD)
    return table


_LN_TABLE = _ln_table()
_LN2 = _LN_TABLE[64]  # ln(128/64)

# Error bound, in units of 2**-_LN_BITS of 1e-9, between the kernel's scaled
# value and the value the decimal expression rounds last. For 0 < raw <=
# MAX_RAW, 2**-30 < x < 2**60, so |e| <= 60 and the fixed-point ln is off by
# less than 60 (e * ln 2) + 1 (table) + 46 (2 * atanh: < 1.001 for t's
# truncation, < 2 per series term over at most 10 terms, < 1 for the tail)
# < 128 units, i.e. 128 * SCALE once scaled to the quantum. The decimal
# expression rounds ln to 40 digits (< 1e-29 of a quantum, |ln x| < 100)
# and then to the default context's 28 digits in scaleb (< 5e-18 of a
# quantum, |ln x| * 1e9 < 1e11): together below 2**-57 of a quantum.
_LN_MARGIN = 128 * SCALE + (_LN_ONE >> 57)


@lru_cache(maxsize=4096)
def _ln_raw(raw: int) -> int:
    """round(ln(raw * 1e-9) / 1e-9), exactly as the 40-digit decimal
    expression below rounds it, which also serves any raw outside
    (0, MAX_RAW] and any result too close to a half-quantum to decide."""
    if 0 < raw <= MAX_RAW:
        # 2**e * 1e-9 <= raw * 1e-9 < 2**(e+1) * 1e-9, held as num/den
        e = raw.bit_length() - 30
        num, den = (raw, SCALE << e) if e >= 0 else (raw << -e, SCALE)
        if num < den:
            e -= 1
            num <<= 1
        a = num << 6
        j = a // den - 64
        b = (64 + j) * den
        t = ((a - b) << _LN_BITS) // (a + b)
        t2 = (t * t) >> _LN_BITS
        series, power, k = t, t, 3
        while power:
            power = (power * t2) >> _LN_BITS
            series += power // k
            k += 2
        fixed = e * _LN2 + _LN_TABLE[j] + 2 * series
        scaled = fixed * SCALE + (_LN_ONE >> 1)
        rest = scaled & (_LN_ONE - 1)
        if _LN_MARGIN < rest < _LN_ONE - _LN_MARGIN:
            return scaled >> _LN_BITS
    d = _EXT.ln(Decimal(raw).scaleb(-9))
    return int(d.scaleb(9).to_integral_value(rounding=ROUND_HALF_EVEN))


# -- exp: integer kernel ------------------------------------------------
#
# p0 * e**-x = p0 * 2**-k * e**(-j/64) * e**-s, with k = floor(x / ln 2),
# the table entry e**(-j/64) and 0 <= s < 1/64, in the ln kernel's fixed
# point. Ziv's rounding test decides as for ln; otherwise the 40-digit
# decimal expression answers.

def _exp_table() -> list[int]:
    """e**(-j/64) * 2**_LN_BITS for j = 0..44 (j/64 < ln 2), each within
    one unit: powers of the series for e**(-1/64), with guard bits, then
    rounded."""
    bits = _LN_BITS + _LN_TABLE_GUARD
    step = term = 1 << bits
    n = 1
    while term:
        term //= 64 * n
        step += -term if n % 2 else term
        n += 1
    half = 1 << (_LN_TABLE_GUARD - 1)
    table, acc = [], 1 << bits
    for _ in range(45):
        table.append((acc + half) >> _LN_TABLE_GUARD)
        acc = (acc * step) >> bits
    return table


_EXP_TABLE = _exp_table()

# Error bound, in units of 2**-_LN_BITS of 1e-9, between the kernel's scaled
# value v and the value the decimal expression rounds last; the kernel
# decides only for k <= 92 (p0 < 2**90 quanta), so x < 65. The fixed-point
# e**-x is off by less than (k + 1) (x, and k times ln 2) + 1 (table) + 20
# (series) + 1 (product) < 116 units, times p0 * 2**-k <= 2 * v * 2**-128
# after the shift by k: below v * 2**-120, plus 1 for the shift. The
# decimal expression rounds -x (the scam exponent), e**-x and p0 * e**-x to
# 40 digits (relative 5e-40 each; -x's error moves e**-x by x * 5e-40) and
# the product to the default context's 28 digits in scaleb (relative
# 5e-28): together below v * 2**-90. So v * 2**-89 + _EXP_MARGIN covers
# both, with 1 more unit for the truncating shift by 89.
_EXP_MARGIN = 2


def _exp_neg_decimal(p0_raw: int, x_num: int, x_den: int) -> int:
    """round(p0 * e**-x / 1e-9) for x = x_num / x_den, as the 40-digit
    decimal expression gives it: the value of -x rounded to 40 digits is
    the same whether it is computed as -t / tau or as rate * -t."""
    exponent = _EXT.divide(Decimal(-x_num), Decimal(x_den))
    d = _EXT.multiply(Decimal(p0_raw).scaleb(-9), _EXT.exp(exponent))
    return int(d.scaleb(9).to_integral_value(rounding=ROUND_HALF_EVEN))


def _exp_neg_raw(p0_raw: int, x_num: int, x_den: int) -> int:
    """round(p0 * e**-x / 1e-9) for p0 = p0_raw * 1e-9 and x = x_num / x_den,
    exactly as the 40-digit decimal expression rounds it, which also serves
    p0_raw outside (0, MAX_RAW], x < 0 and any result too close to a
    half-quantum to decide."""
    if 0 < p0_raw <= MAX_RAW and x_num >= 0 and x_den > 0:
        if x_num >= x_den << 7:
            return 0  # p0 * e**-x < 2**90 * e**-128 < 2**-94 quanta
        k, r = divmod((x_num << _LN_BITS) // x_den, _LN2)
        if p0_raw.bit_length() + 3 <= k:
            # k <= x / ln 2 + 1: p0 * e**-x < 2**(k-3) * 2**-(k-1) quanta
            return 0
        j = r >> (_LN_BITS - 6)
        s = r - (j << (_LN_BITS - 6))
        series = term = _LN_ONE
        n = 1
        while term:
            term = ((term * s) >> _LN_BITS) // n
            series += -term if n % 2 else term
            n += 1
        scaled = (p0_raw * ((_EXP_TABLE[j] * series) >> _LN_BITS)) >> k
        margin = (scaled >> 89) + _EXP_MARGIN
        rest = (scaled + (_LN_ONE >> 1)) & (_LN_ONE - 1)
        if margin < rest < _LN_ONE - margin:
            return (scaled + (_LN_ONE >> 1)) >> _LN_BITS
    return _exp_neg_decimal(p0_raw, x_num, x_den)


def safe_ln(x: FixedAmount) -> FixedAmount:
    """Natural logarithm, evaluated at 40 digits then quantized.

    Raises DomainError for x <= 0.
    """
    if x.raw <= 0:
        raise DomainError(f"ln domain: x={x} <= 0")
    return FixedAmount(_ln_raw(x.raw))


def safe_exp(x: FixedAmount) -> FixedAmount:
    """e**x, evaluated at 40 digits then quantized; RangeError on overflow."""
    d = _EXT.exp(x.as_decimal())
    if d.adjusted() > 30:  # definitely out of range, skip the big int
        raise RangeError(f"exp overflow: x={x}")
    return _from_context_decimal(d)


def fixed_pow(base: FixedAmount, exponent: FixedAmount) -> FixedAmount:
    """base**exponent for base >= 0, via exp(exponent * ln(base))."""
    if base.raw < 0:
        raise DomainError(f"pow base must be >= 0, got {base}")
    if base.raw == 0:
        if exponent.raw > 0:
            return ZERO
        if exponent.raw == 0:
            return ONE
        raise DomainError("0 ** negative exponent")
    ln_b = _EXT.ln(base.as_decimal())
    d = _EXT.exp(_EXT.multiply(exponent.as_decimal(), ln_b))
    if d.adjusted() > 30:
        raise RangeError(f"pow overflow: {base} ** {exponent}")
    return _from_context_decimal(d)


# -- identifiers --------------------------------------------------------

ChainId = str
TokenId = str
VaultId = str
PoolId = str


# -- trace hash: 64-bit FNV-1a ------------------------------------------

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


# Inputs shorter than _FNV_BULK_MIN bytes take the per-byte loop, which is
# faster there (on CPython 3.11 the two cost the same near 600 bytes).
# Longer ones go to the bulk kernel.  Its Step 1 runs on slices of at most
# _FNV_SLICE bytes, which keeps its temporaries below 300 KB.  Its Step 2
# takes an input of at most _FNV_ONE_ROW bytes as one row (on CPython 3.11,
# rows are faster past that) and cuts a longer one into rows (see
# _fnv1a_row_length), summed in balanced groups of at most _FNV_GROUP rows.
_FNV_BULK_MIN = 640
_FNV_SLICE = 16384
_FNV_ONE_ROW = 10240
_FNV_ROW = 2048
_FNV_GROUP = 64
_FNV_SLOTS = max(_FNV_ONE_ROW, _FNV_ROW)  # 32-bit slots of the longest row


def _every(pattern: bytes, count: int) -> int:
    return int.from_bytes(pattern * count, "big")


# delta-swap steps of an 8x8 bit transpose within every 64-bit word
_TRANSPOSE_STEPS = ((7, _every(b"\x00\xaa", _FNV_SLICE // 2)),
                    (14, _every(b"\x00\x00\xcc\xcc", _FNV_SLICE // 4)),
                    (28, _every(b"\x00\x00\x00\x00\xf0\xf0\xf0\xf0", _FNV_SLICE // 8)))
_LOW8_OF_32 = _every(b"\x00\x00\x00\xff", _FNV_SLOTS)
_BIAS_OF_32 = _every(b"\x00\x00\x80\x00", _FNV_SLOTS)  # 2**15 in every 32-bit slot
_LOW32_OF_64 = _every(b"\x00" * 4 + b"\xff" * 4, _FNV_SLOTS // 2)
_LOW64_OF_128 = _every(b"\x00" * 8 + b"\xff" * 8, _FNV_SLOTS // 4)
_PRIME_SQUARED = FNV_PRIME * FNV_PRIME & _MASK64
# (P**4)**(2**k) mod 2**64: the weights of the fold's levels
_PRIME_FOURTH_POWERS = tuple(pow(FNV_PRIME, 4 << k, 1 << 64)
                             for k in range((_FNV_SLOTS // 4).bit_length()))
# the low byte of a_i * FNV_PRIME is a_i + (a_i << 1) + (a_i << 4)
# + (a_i << 5) + (a_i << 7) mod 256, since FNV_PRIME & 0xFF == 0xB3
_PRIME_LOW_SHIFTS = (1, 4, 5, 7)


def _transpose8(x: int) -> int:
    """Transpose the 8x8 bit matrix of every 64-bit word of ``x`` (Warren,
    Hacker's Delight, 7-3): counting bytes and bits from the most
    significant end, bit j of byte k trades places with bit k of byte j."""
    for shift, mask in _TRANSPOSE_STEPS:
        t = (x ^ (x >> shift)) & mask
        x ^= t ^ (t << shift)
    return x


def _fnv1a_low_bytes(data: bytes, low: int) -> tuple[bytes, int]:
    """Step 1 of ``fnv1a_64`` on 1 to _FNV_SLICE bytes, from l_0 = ``low``:
    b_i & l_i for every byte b_i, and the low byte after the last one."""
    n = len(data)
    size = (n + 7) & ~7  # data padded with zero bytes to whole words
    pad = (size - n) * 8
    words = size >> 3
    # bit plane c of b, l, a and b & l holds bit c of every byte of the
    # slice, the first byte at the plane's most significant bit.  The
    # transpose puts plane c at byte 7 - c of every word.
    planes = _transpose8(int.from_bytes(data, "big") << pad).to_bytes(size, "big")
    ones = (1 << size) - 1
    a: list[int] = []
    carries: list[int] = []  # carried into column c of the sum 0xB3 * a
    b_and_l = bytearray(size)
    for c in range(8):
        b = int.from_bytes(planes[7 - c::8], "big")
        column = [a[c - k] for k in _PRIME_LOW_SHIFTS if k <= c] + carries
        # bit c of l_(i+1) = bit c of a_i ^ the rest of column c at byte i
        d = b
        for term in column:
            d ^= term
        span = 1
        while span < size:  # prefix XOR from the first byte on
            d ^= d >> span
            span <<= 1
        l = d >> 1
        if low >> c & 1:
            l ^= ones
        a.append(l ^ b)
        b_and_l[7 - c::8] = (l & b).to_bytes(words, "big")
        # full adders reduce the column to its sum bit; bit 7 carries nowhere
        column.append(a[c])
        carries = []
        while c < 7 and len(column) > 1:
            x, y = column.pop(), column.pop()
            z = column.pop() if column else 0
            carries.append(x & y | (x ^ y) & z)
            column.append(x ^ y ^ z)
    last = sum((plane >> (size - n) & 1) << c for c, plane in enumerate(a))  # a_(n-1)
    del planes, a  # before the second transpose, which needs the most memory
    b_and_l = (_transpose8(int.from_bytes(b_and_l, "big")) >> pad).to_bytes(n, "big")
    return b_and_l, 0xB3 * last & 0xFF


def _fnv1a_row(data: bytes, b_and_l: bytes) -> int:
    """One row as an int in base 2**32 whose digits, the first byte's on
    top, are d_i = a_i - l_i = b_i - 2*(b_i & l_i); digits may be
    negative."""
    spread = bytearray(4 * len(data))
    spread[3::4] = data
    spread[2::4] = b_and_l
    x = int.from_bytes(spread, "big")  # each slot is b_i + 256*(b_i & l_i)
    return x - ((x >> 8) & _LOW8_OF_32) * 258


def _fnv1a_row_length(n: int) -> int:
    """Step 2's row length K for an n-byte input: n itself up to
    _FNV_ONE_ROW bytes, else the power of two that cuts the input into 17
    to 32 rows, but at most _FNV_ROW."""
    if n <= _FNV_ONE_ROW:
        return n
    return min(_FNV_ROW, 1 << ((n - 1).bit_length() - 5))


def _fnv1a_rows(data: bytes, row: int, low: int) -> Iterator[int]:
    """Every ``row``-byte row of ``data``, from l_0 = ``low``; the rows are
    cut from the end, so the first one may be short."""
    n, data = len(data), memoryview(data)  # rows and slices without copies
    start, end = 0, (n - 1) % row + 1
    while start < n:
        stop = min(n, end + _FNV_SLICE - row)  # Step 1 takes whole rows
        b_and_l, low = _fnv1a_low_bytes(data[start:stop], low)
        base = start
        while start < stop:
            yield _fnv1a_row(data[start:end], b_and_l[start - base:end - base])
            start, end = end, end + row


def _fnv1a_group(rows: Iterable[int], row: int) -> int:
    """Step 2 of ``fnv1a_64`` on Q rows of ``row`` bytes, the first one
    front-padded: a number equal to sum(d_i * P**(m-1-i)) mod 2**64, with
    m = Q * row."""
    most = 63 // (row.bit_length() + 1)  # J, for row = 2**k when Q > 1
    rows = iter(rows)
    moments = [next(rows)]
    for d in rows:  # moments[j] ends as the sum of d_q * C(Q-1-q, j)
        if len(moments) <= most:
            moments.append(0)
        for j in range(len(moments) - 1, 0, -1):
            moments[j] += moments[j - 1]
        moments[0] += d
    # 2**15 added to every digit of moment 0, and 2**31 to every digit of
    # the others, turns each digit into a slot in [0, 2**32).  Then widen to
    # a 128-bit stride whose slot m weighs P**(4m): moment 0 pairs adjacent
    # slots with P and then P**2; moment j > 0 splits into its slots 4m + c
    # and weighs them with u**j * P**c.
    bias = _BIAS_OF_32 >> (_FNV_SLOTS - row) * 32
    s = moments[0] + bias
    y = ((s >> 32) & _LOW32_OF_64) * FNV_PRIME + (s & _LOW32_OF_64)
    w = ((y >> 64) & _LOW64_OF_128) * _PRIME_SQUARED + (y & _LOW64_OF_128)
    added = 1 << 15
    for j, s in enumerate(moments[1:], 1):
        weight = pow(pow(FNV_PRIME, row, 1 << 64) - 1, j, 1 << 64)  # u**j
        added += weight << 31
        s += bias << 16
        even, odd = s & _LOW32_OF_64, (s >> 32) & _LOW32_OF_64
        for part in (even, odd, even >> 64, odd >> 64):
            w += (part & _LOW64_OF_128) * weight
            weight = weight * FNV_PRIME & _MASK64
    w &= _LOW64_OF_128
    level = ((row + 3) // 4 - 1).bit_length()  # 2**level slots hold them all
    while level:  # fold the top half of the slots onto the bottom half
        level -= 1
        half = 128 << level
        w = ((w >> half) * _PRIME_FOURTH_POWERS[level]
             + (w & ((1 << half) - 1))) & _LOW64_OF_128
    # less what the biases added: added * sum(P**r for r < row)
    ones_sum = (pow(FNV_PRIME, row, (FNV_PRIME - 1) << 64) - 1) // (FNV_PRIME - 1)
    return w - added * ones_sum


def fnv1a_64(data: bytes, state: int = FNV_OFFSET) -> int:
    """64-bit FNV-1a of ``data`` from ``state``: the textbook
    ``h = ((h ^ b) * P) mod 2**64`` for each byte b, with P = FNV_PRIME;
    also used for trace fingerprints.

    Inputs of _FNV_BULK_MIN bytes or more are hashed by a kernel with no
    per-byte Python loop.  It rests on one identity.  Let l_i = h_i & 0xFF
    and a_i = l_i ^ b_i.  XOR with a byte changes only the low byte, so
    h_i ^ b_i = h_i + a_i - l_i exactly, and the recurrence unrolls to

        h_n = h_0 * P**n + P * sum(d_i * P**(n-1-i)) mod 2**64,

    with d_i = a_i - l_i = b_i - 2*(b_i & l_i), l_0 = h_0 & 0xFF and
    l_(i+1) = (0xB3 * a_i) & 0xFF, the low byte of P being 0xB3.  Both
    steps compute that formula exactly:

    1. The low bytes, one _FNV_SLICE-byte slice at a time, each slice
       starting from the low byte the one before it ended with.  Bit c of
       l_(i+1) is bit c of a_i XOR a function of the lower bits of a_i (the
       partial products and carries of 0xB3 * a_i), so bit plane c of l is
       a prefix XOR of b ^ that function, computed with log2(n) shift-XORs
       once planes 0..c-1 are known.  An 8x8 bit transpose splits the bytes
       into planes and a second one joins b & l back into bytes.
    2. The sum, by row moments.  Cut the input into Q rows of K bytes, the
       first one front-padded with d = 0, and let d_(q,r) be byte r of
       row q.  For K = 2**k, P**K = 1 + u with u = 0 mod 2**(k+2), as
       P = 3 mod 8; so u**j = 0 mod 2**64 for j > J = 63 // (k+2), and
       (P**K)**e = sum(C(e, j) * u**j for j <= J) mod 2**64.  Hence

           sum = sum_r P**(K-1-r) * sum_j u**j * M_j[r] mod 2**64,
           M_j[r] = sum_q d_(q,r) * C(Q-1-q, j).

       A row is one big int with base-2**32 digits d_(q,r), and M_0..M_J
       are big ints too: per row, M_j += M_(j-1) for j = J down to 1, then
       M_0 += the row, one exact big-int addition each.  An input of at
       most _FNV_ONE_ROW bytes is one row (Q = 1, M_0 = d).  A longer one
       is cut into rows of K = 512, 1024 or _FNV_ROW = 2048 bytes: 17 to
       32 rows up to 64 KiB (J = 5 for K <= 1024, J = 4 for K = 2048), and
       beyond that rows of 2048 bytes, summed in balanced groups of at most
       _FNV_GROUP = 64 rows that are chained by powers of P.  A digit of M_j
       is at most 255 * C(Q, j+1) in size: below 2**31 for Q <= 32 with
       J = 5 and for Q <= 64 with J = 4, and below 2**14 for M_0.  So
       adding 2**31 to every digit of M_j (2**15 for M_0) leaves every
       digit a 32-bit slot in [0, 2**32), and the biases' share, known in
       closed form, is subtracted at the end.  Each group is combined once:
       M_0's adjacent slots are paired with P and then P**2, and M_j's
       slots 4m + c are weighed with u**j * P**c, into a 128-bit stride
       whose slot m weighs P**(4m) and holds less than 2**122.  Every slot
       is masked to 64 bits, and the top half of the slots, multiplied by a
       power of P**4, is added to the bottom half until one slot is left.
       No slot overflows its stride, so each level is exact mod 2**64.  The
       biases added sum(bias_j * u**j) * (P**K - 1) / (P - 1), with P**K
       taken mod (P - 1) * 2**64 so that the division is exact.

    Nothing is dropped but multiples of 2**64, so the result is the
    per-byte loop's, bit for bit, for every input and every state.
    """
    n = len(data)
    if n < _FNV_BULK_MIN:
        h = state
        for byte in data:
            h = ((h ^ byte) * FNV_PRIME) & _MASK64
        return h
    low, row = state & 0xFF, _fnv1a_row_length(n)
    if row == n:
        w = _fnv1a_group([_fnv1a_row(data, _fnv1a_low_bytes(data, low)[0])], n)
    else:
        rows = _fnv1a_rows(data, row, low)
        count = -(-n // row)
        groups = -(-count // _FNV_GROUP)
        w = 0
        for g in range(groups):
            size = (count + g) // groups  # balanced: the sizes add up to count
            w = (w * pow(FNV_PRIME, size * row, 1 << 64)
                 + _fnv1a_group(islice(rows, size), row)) & _MASK64
    return (state * pow(FNV_PRIME, n, 1 << 64) + FNV_PRIME * w) & _MASK64


# -- seeded randomness --------------------------------------------------

class SeededRng:
    """One master seed fanned out into stable, independent substreams.

    Each substream id maps to its own ``random.Random``, so adding a new
    consumer never perturbs the draws of existing ones.
    """

    def __init__(self, seed: int):
        self.seed = seed & 0xFFFFFFFFFFFFFFFF
        self._streams: dict[str, random.Random] = {}

    def stream(self, *labels: object) -> random.Random:
        key = "/".join(str(label) for label in labels)
        rng = self._streams.get(key)
        if rng is None:
            material = self.seed.to_bytes(8, "big") + key.encode("utf-8")
            rng = random.Random(fnv1a_64(material))
            self._streams[key] = rng
        return rng


def fsum(amounts: Iterable[FixedAmount]) -> FixedAmount:
    """Exact sum of fixed amounts (addition never rounds)."""
    total = 0
    for a in amounts:
        total += a.raw
    return FixedAmount(total)
