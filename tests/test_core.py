"""Fixed-point arithmetic and transcendental determinism checks against an
independent mpmath oracle."""

import time
from decimal import Context, Decimal, ROUND_HALF_EVEN
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from rugsim import core
from rugsim.core import (
    FixedAmount,
    MAX_RAW,
    DomainError,
    ParameterError,
    RangeError,
    SCALE,
    SeededRng,
    amt,
    fixed_pow,
    fnv1a_64,
    quantize,
    safe_exp,
    safe_ln,
)

mpmath.mp.dps = 50

raw_amounts = st.integers(min_value=-MAX_RAW, max_value=MAX_RAW)


def oracle_ln(x: FixedAmount) -> FixedAmount:
    value = mpmath.log(mpmath.mpf(x.raw) / SCALE)
    return FixedAmount(int(mpmath.nint(value * SCALE)))


def test_quantize_examples():
    assert quantize(Fraction(1, 3)) == amt("0.333333333")
    assert quantize(0) == amt(0)
    # 2.5e-9 is exactly halfway: ties go to the even quantum, 2e-9
    assert quantize(Fraction(25, 10**10)).raw == 2


def test_quantize_idempotent():
    x = amt("123.456789123")
    assert quantize(x) is x
    assert quantize(x.as_fraction()) == x


def test_quantize_rejects_floats():
    with pytest.raises(TypeError):
        quantize(0.1)


def test_overflow_is_an_error():
    big = FixedAmount(MAX_RAW)
    with pytest.raises(RangeError):
        big + amt(1)
    with pytest.raises(RangeError):
        FixedAmount(MAX_RAW + 1)


@given(a=raw_amounts, b=raw_amounts)
def test_add_sub_roundtrip(a, b):
    x, y = FixedAmount(a), FixedAmount(b)
    if abs(a + b) > MAX_RAW:
        with pytest.raises(RangeError):
            x + y
    else:
        assert (x + y) - y == x


@given(raw=st.integers(min_value=-10**15, max_value=10**15))
def test_mul_div_half_even(raw):
    x = FixedAmount(raw)
    three = amt(3)
    # (x/3)*3 may differ from x by at most 2 quanta of accumulated rounding
    assert abs(((x / three) * three) - x).raw <= 2


def test_division_by_zero():
    with pytest.raises(DomainError):
        amt(1) / amt(0)


def test_str_parse_roundtrip():
    for text in ("0", "1", "-1.5", "0.000000001", "-0.000000001", "123456.789"):
        assert str(FixedAmount.parse(text)) == text


def test_non_finite_literals_are_parameter_errors():
    for text in ("NaN", "-NaN", "sNaN", "Infinity", "-Infinity", "inf", "nan"):
        with pytest.raises(ParameterError, match="not a finite decimal literal"):
            FixedAmount.parse(text)
        with pytest.raises(ParameterError):
            amt(text)


def test_literals_past_the_range_are_range_errors():
    # "1e4400" used to escape as ValueError: its raw int was too long to
    # print in the RangeError message
    for text in ("1e19", "-1e19", "1e4400", "-1e5000", "1e100000"):
        with pytest.raises(RangeError, match="fixed-point overflow"):
            amt(text)
    assert amt("1e18") == FixedAmount(MAX_RAW)
    with pytest.raises(RangeError, match="raw="):
        amt("1000000000000000000.000000001")


def test_literals_below_a_tenth_of_a_quantum_round_to_zero_quickly():
    # the exponent would otherwise build 10**999999999 before rounding
    start = time.perf_counter()
    assert FixedAmount.parse("1e-999999999").raw == 0
    assert FixedAmount.parse("-1e-400000").raw == 0
    assert time.perf_counter() - start < 1.0
    # the literals at and above a tenth of a quantum still round half-even
    for text, raw in (("9.99e-11", 0), ("5e-10", 0), ("5.000001e-10", 1), ("1.5e-9", 2),
                      ("-5.000001e-10", -1)):
        assert FixedAmount.parse(text).raw == raw


def test_each_parse_builds_its_own_amount():
    first, second = amt("0.25"), amt("0.25")
    assert first == second and first is not second
    first.raw = 0  # a caller mutating its amount must not reach another parse
    assert amt("0.25").raw == 250_000_000
    with pytest.raises(ParameterError):
        amt("1.2.3")
    with pytest.raises(ParameterError):  # a bad literal fails on every parse
        amt("1.2.3")


def decimal_ln_raw(raw: int) -> int:
    """The 40-digit decimal expression the integer ln kernel must equal."""
    d = Context(prec=40, rounding=ROUND_HALF_EVEN).ln(Decimal(raw).scaleb(-9))
    return int(d.scaleb(9).to_integral_value(rounding=ROUND_HALF_EVEN))


NEAR_EXP = [int(Decimal(k).exp().scaleb(9).to_integral_value()) + d
            for k in range(-20, 42) for d in (-1, 0, 1)]


@settings(max_examples=500)
@given(st.one_of(st.integers(min_value=1, max_value=MAX_RAW),
                 st.integers(min_value=1, max_value=10**12),
                 st.sampled_from([1 << k for k in range(90) if 1 << k <= MAX_RAW]),
                 st.sampled_from(NEAR_EXP)))
@example(1)
@example(10**9)
@example(MAX_RAW)
def test_ln_kernel_matches_decimal_expression(raw):
    assert core._ln_raw.__wrapped__(raw) == decimal_ln_raw(raw)


class CountingContext:
    """Delegates to the 40-digit context, counting ln evaluations."""

    def __init__(self, inner):
        self.inner, self.ln_calls = inner, 0

    def ln(self, value):
        self.ln_calls += 1
        return self.inner.ln(value)


def test_ln_falls_back_to_decimal_inside_the_margin(monkeypatch):
    raws = sorted({1, 2, 10**9 + 1, 2718281828, MAX_RAW, *NEAR_EXP[::7]})
    counting = CountingContext(core._EXT)
    monkeypatch.setattr(core, "_EXT", counting)
    core._ln_raw.cache_clear()
    try:
        assert [core._ln_raw(raw) for raw in raws] == [decimal_ln_raw(r) for r in raws]
        assert counting.ln_calls == 0  # the kernel decided alone
        monkeypatch.setattr(core, "_LN_MARGIN", core._LN_ONE)  # nothing decides
        core._ln_raw.cache_clear()
        counting.ln_calls = 0
        assert [core._ln_raw(raw) for raw in raws] == [decimal_ln_raw(r) for r in raws]
        assert counting.ln_calls == len(raws)
    finally:
        core._ln_raw.cache_clear()


def near_half_quantum(n: int) -> int:
    """The raw whose ln(raw * 1e-9) / 1e-9 is nearest to n + 1/2."""
    ctx = Context(prec=80)
    x = ctx.exp(ctx.divide(Decimal(2 * n + 1), Decimal(2 * SCALE)))
    return int(ctx.multiply(x, Decimal(SCALE)).to_integral_value())


def test_ln_near_half_quanta(monkeypatch):
    # one raw step moves ln by 1e9/raw quanta, so large raws land within
    # 1e-12 (k=25), 1e-16 (k=35) and 1e-19 (k=41) of a half-quantum; at
    # k=41 the decimal expression's 28-digit scaleb makes exact ties that
    # round to even, and only the fallback can reproduce them
    counting = CountingContext(core._EXT)
    monkeypatch.setattr(core, "_EXT", counting)
    for k in (10, 25, 35, 41):
        for offset in (0, 1, 7, 123456):
            raw = near_half_quantum(k * SCALE + offset)
            assert core._ln_raw.__wrapped__(raw) == decimal_ln_raw(raw)
    assert counting.ln_calls == 4  # the k=41 cases


def test_ln_outside_the_kernel_range_is_the_decimal_expression():
    for raw in (MAX_RAW + 1, 10**40):
        assert core._ln_raw.__wrapped__(raw) == decimal_ln_raw(raw)
    with pytest.raises(Exception) as kernel_error:
        core._ln_raw.__wrapped__(0)
    with pytest.raises(Exception) as decimal_error:
        decimal_ln_raw(0)
    assert type(kernel_error.value) is type(decimal_error.value)


_EXT40 = Context(prec=40, rounding=ROUND_HALF_EVEN)


def decimal_decay_raw(p0_raw: int, rate_raw: int, t: int) -> int:
    """The catastrophic price's 40-digit decimal expression, p0 * e**(-rate*t)."""
    exponent = _EXT40.multiply(Decimal(rate_raw).scaleb(-9),
                               _EXT40.minus(_EXT40.create_decimal(t)))
    d = _EXT40.multiply(Decimal(p0_raw).scaleb(-9), _EXT40.exp(exponent))
    return int(d.scaleb(9).to_integral_value(rounding=ROUND_HALF_EVEN))


def decimal_scam_raw(p0_raw: int, tau_raw: int, t: int) -> int:
    """The scam price's 40-digit decimal expression, p0 * e**(-t/tau)."""
    exponent = _EXT40.divide(_EXT40.create_decimal(-t), Decimal(tau_raw).scaleb(-9))
    d = _EXT40.multiply(Decimal(p0_raw).scaleb(-9), _EXT40.exp(exponent))
    return int(d.scaleb(9).to_integral_value(rounding=ROUND_HALF_EVEN))


p0_raws = st.one_of(st.integers(min_value=1, max_value=MAX_RAW),
                    st.integers(min_value=1, max_value=10**12),
                    st.sampled_from([1, 2 * SCALE, MAX_RAW]))


@settings(max_examples=400)
@given(p0_raws,
       st.one_of(st.integers(min_value=0, max_value=10**7),
                 st.integers(min_value=0, max_value=MAX_RAW)),
       st.integers(min_value=0, max_value=10**6))
@example(2 * SCALE, 10**6, 10_000)  # builtin:reference's RUG at its last block
@example(MAX_RAW, 0, 5)
def test_exp_kernel_matches_the_decay_expression(p0_raw, rate_raw, t):
    assert core._exp_neg_raw(p0_raw, rate_raw * t, SCALE) == \
        decimal_decay_raw(p0_raw, rate_raw, t)


@settings(max_examples=400)
@given(p0_raws,
       st.one_of(st.integers(min_value=1, max_value=10**13),
                 st.integers(min_value=1, max_value=MAX_RAW)),
       st.integers(min_value=0, max_value=10**5))
@example(SCALE, 3 * SCALE, 12)  # builtin:scam's RUG at its last block
@example(1, 1, 10**5)
def test_exp_kernel_matches_the_scam_expression(p0_raw, tau_raw, t):
    assert core._exp_neg_raw(p0_raw, t * SCALE, tau_raw) == \
        decimal_scam_raw(p0_raw, tau_raw, t)


def test_exp_kernel_matches_oracle_on_grid():
    rng = SeededRng(5).stream("exp-grid")
    for _ in range(300):
        p0_raw = rng.randint(1, 10**rng.randint(1, 20))
        rate_raw, t = rng.randint(0, 10**9), rng.randint(0, 200)
        value = mpmath.mpf(p0_raw) * mpmath.exp(-mpmath.mpf(rate_raw * t) / SCALE)
        assert core._exp_neg_raw(p0_raw, rate_raw * t, SCALE) == int(mpmath.nint(value))


def near_half_p0_raws(x: int) -> list[int]:
    """p0 raws whose p0_raw * e**-x lies nearest a half-quantum: the
    denominators of the convergents of 2 * e**-x with an odd numerator
    (|q * e**-x - p/2| < 1/(2q)), up to MAX_RAW."""
    with mpmath.workdps(120):
        c = 2 * mpmath.exp(-x)
        raws, (h0, h1), (k0, k1) = [], (0, 1), (1, 0)
        while True:
            a = int(mpmath.floor(c))
            h0, h1, k0, k1 = h1, a * h1 + h0, k1, a * k1 + k0
            if k1 > MAX_RAW:
                return raws
            if h1 % 2:
                raws.append(k1)
            c = 1 / (c - a)


class CountingFallback:
    """Wraps core._exp_neg_decimal, counting the calls."""

    def __init__(self, inner):
        self.inner, self.calls = inner, 0

    def __call__(self, *args):
        self.calls += 1
        return self.inner(*args)


def test_exp_near_half_quanta(monkeypatch):
    # a raw near 1e20 puts p0 * e**-x within 1e-20 of a half-quantum; the
    # decimal expression's 28-digit scaleb turns that into an exact tie that
    # rounds to even, and only the fallback can reproduce it
    counting = CountingFallback(core._exp_neg_decimal)
    monkeypatch.setattr(core, "_exp_neg_decimal", counting)
    raws = near_half_p0_raws(1)
    for p0_raw in raws:
        assert core._exp_neg_raw(p0_raw, SCALE, SCALE) == decimal_scam_raw(p0_raw, SCALE, 1)
    # the 14 raws from 5e14 up put p0 * e**-1 inside the kernel's margin
    assert (len(raws), counting.calls) == (35, 14)


def test_exp_falls_back_to_decimal_inside_the_margin(monkeypatch):
    # (kernel arguments, the decimal expression they stand for)
    cases = [((2 * SCALE, 10**6 * t, SCALE), decimal_decay_raw(2 * SCALE, 10**6, t))
             for t in (0, 1, 7, 5000)]
    cases += [((SCALE, t * SCALE, 3 * SCALE), decimal_scam_raw(SCALE, 3 * SCALE, t))
              for t in (0, 4, 12)]
    expected = [raw for _, raw in cases]
    counting = CountingFallback(core._exp_neg_decimal)
    monkeypatch.setattr(core, "_exp_neg_decimal", counting)
    assert [core._exp_neg_raw(*args) for args, _ in cases] == expected
    assert counting.calls == 0  # the kernel decided alone
    monkeypatch.setattr(core, "_EXP_MARGIN", core._LN_ONE)  # nothing decides
    assert [core._exp_neg_raw(*args) for args, _ in cases] == expected
    assert counting.calls == len(cases)
    # under a quarter quantum the kernel answers 0 before the rounding test
    assert core._exp_neg_raw(1, 70 * SCALE, SCALE) == decimal_decay_raw(1, SCALE, 70) == 0
    assert counting.calls == len(cases)


def test_exp_outside_the_kernel_range_is_the_decimal_expression():
    # p0 past MAX_RAW, x < 0 and p0 < 0 go to the decimal expression; x >=
    # 128 is 0 from the kernel, as from the expression
    for p0_raw, rate_raw, t in ((MAX_RAW + 1, 10**6, 3), (SCALE, -10**6, 3),
                                (-SCALE, 10**6, 3), (SCALE, 10**9, 10**6)):
        assert core._exp_neg_raw(p0_raw, rate_raw * t, SCALE) == \
            decimal_decay_raw(p0_raw, rate_raw, t)


def test_safe_ln_examples():
    assert safe_ln(amt(1)) == amt(0)
    e = amt("2.718281828")
    assert abs(safe_ln(e) - amt(1)).raw <= 2
    assert safe_ln(amt(10)) == amt("2.302585093")


def test_safe_ln_domain():
    with pytest.raises(DomainError):
        safe_ln(amt(0))
    with pytest.raises(DomainError):
        safe_ln(amt(-1))


def test_safe_ln_matches_oracle_on_grid():
    rng = SeededRng(7).stream("ln-grid")
    for _ in range(300):
        x = FixedAmount(rng.randint(1, 10**20))
        assert abs(safe_ln(x) - oracle_ln(x)).raw <= 2


def test_ln_additivity():
    # ln(x*y) == ln(x) + ln(y) within 4 quanta on a random grid
    rng = SeededRng(11).stream("ln-add")
    for _ in range(200):
        x = FixedAmount(rng.randint(SCALE // 1000, 10**14))
        y = FixedAmount(rng.randint(SCALE // 1000, 10**14))
        lhs = safe_ln(x * y)
        rhs = safe_ln(x) + safe_ln(y)
        assert abs(lhs - rhs).raw <= 4


def test_safe_exp_inverts_ln():
    for text in ("0.5", "1", "2", "10", "40"):
        x = amt(text)
        assert abs(safe_ln(safe_exp(x)) - x).raw <= 2


def test_safe_exp_overflow():
    with pytest.raises(RangeError):
        safe_exp(amt(100))


def test_fixed_pow():
    assert fixed_pow(amt(10), amt(2)) == amt(100)
    assert fixed_pow(amt(100), amt("1.5")) == amt(1000)
    assert fixed_pow(amt(0), amt(3)) == amt(0)
    assert fixed_pow(amt(0), amt(0)) == amt(1)
    assert fixed_pow(amt(7), amt(0)) == amt(1)


def test_fnv1a_is_stable():
    # pinned reference values keep trace hashes comparable across builds
    assert fnv1a_64(b"") == 0xCBF29CE484222325
    assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C


def fnv1a_per_byte(data: bytes, state: int) -> int:
    """The textbook FNV-1a loop: mask after every byte."""
    for byte in data:
        state = ((state ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return state


def test_fnv1a_unrolled_matches_per_byte_loop_at_every_length():
    assert fnv1a_per_byte(b"", 0xCBF29CE484222325) == 0xCBF29CE484222325
    assert fnv1a_per_byte(b"a", 0xCBF29CE484222325) == 0xAF63DC4C8601EC8C
    data = bytes((37 * i + 255) % 256 for i in range(40))
    for length in range(41):
        for state in (0, 0xCBF29CE484222325, 2**64 - 1):
            assert fnv1a_64(data[:length], state) == fnv1a_per_byte(data[:length], state)


@given(st.lists(st.binary(min_size=0, max_size=40), min_size=1, max_size=4),
       st.integers(min_value=0, max_value=2**64 - 1))
def test_fnv1a_unrolled_matches_per_byte_loop(chunks, state):
    # every length 0..40 hits each remainder of the 8-byte groups; the
    # state is chained through the chunks as the trace writer chains lines
    expected = got = state
    for chunk in chunks:
        expected = fnv1a_per_byte(chunk, expected)
        got = fnv1a_64(chunk, got)
        assert got == expected
    assert fnv1a_64(b"".join(chunks), state) == expected


def test_substreams_are_independent():
    rng = SeededRng(42)
    first = [rng.stream("a").random() for _ in range(3)]
    rng2 = SeededRng(42)
    rng2.stream("b").random()  # consuming another stream must not shift "a"
    assert [rng2.stream("a").random() for _ in range(3)] == first
