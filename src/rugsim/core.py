"""Deterministic arithmetic substrate: the error types, fixed-point amounts,
identifiers, and seeded randomness, each stream seeded by a 64-bit FNV-1a.

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
from typing import Iterable, Union


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


# -- stream seeds: 64-bit FNV-1a -----------------------------------------

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def fnv1a_64(data: bytes, state: int = FNV_OFFSET) -> int:
    """64-bit FNV-1a of ``data`` from ``state``:
    ``h = ((h ^ b) * FNV_PRIME) mod 2**64`` for each byte b. It seeds every
    ``SeededRng`` stream, so it must not change: that would move every
    seeded draw."""
    h = state
    for byte in data:
        h = ((h ^ byte) * FNV_PRIME) & _MASK64
    return h


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
