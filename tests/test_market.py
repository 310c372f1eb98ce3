"""AMM, price-process, drain, and peg-keeper behavior.

Swap results are cross-checked against exact rational constant-product
arithmetic; price decay against an mpmath exponential oracle.
"""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from rugsim import core, market
from rugsim.core import (
    AccountId,
    BlockTime,
    DustError,
    FixedAmount,
    IlliquidError,
    MAX_RAW,
    ParameterError,
    QUANTUM,
    RangeError,
    SCALE,
    SeededRng,
    amt,
)
from rugsim.market import (
    DEFAULT_PEG_TOLERANCE,
    PEG_BISECTION_ITERATIONS,
    DrainEvent,
    PegTrade,
    PoolState,
    PriceProcess,
    RatioError,
    RugKind,
    execute_drain,
    peg_keeper_step,
    pool_add_liquidity,
    pool_quote_exact_out,
    pool_remove_liquidity,
    pool_swap,
    price_at,
    price_catastrophic,
    price_scam,
    price_sentiment,
    spot_price,
)
from rugsim.harness import run_scenario
from rugsim.scenario import reference_scenario, scam_scenario

mpmath.mp.dps = 50


def mk_pool(rx, ry, fee=0, pid="p"):
    return PoolState(pid, "RUG", "USD", amt(rx), amt(ry), fee_bps=fee)


def oracle_decay(p0: str, rate: str, t: int, floor=QUANTUM) -> FixedAmount:
    value = mpmath.mpf(p0) * mpmath.e ** (-mpmath.mpf(rate) * t)
    return max(FixedAmount(int(mpmath.nint(value * SCALE))), floor)


# -- price processes -------------------------------------------------------


def test_scam_price_examples():
    proc = PriceProcess(RugKind.SCAM, amt(1), tau_rug=amt(1))
    assert price_scam(proc, 0) == amt(1)
    assert price_scam(proc, 1) == oracle_decay("1", "1", 1) == amt("0.367879441")
    fast = PriceProcess(RugKind.SCAM, amt(1), tau_rug=amt("0.1"))
    assert price_scam(fast, 1) == oracle_decay("1", "10", 1)


def test_catastrophic_price_examples():
    flat = PriceProcess(RugKind.CATASTROPHIC, amt(5))
    assert price_catastrophic(flat, 100) == amt(5)
    proc = PriceProcess(RugKind.CATASTROPHIC, amt(100), lam=amt("0.5"))
    assert price_catastrophic(proc, 2) == amt("36.787944117")
    slow = PriceProcess(RugKind.CATASTROPHIC, amt(100), lam=amt("0.1"))
    assert price_catastrophic(slow, 10) == amt("36.787944117")


def test_sentiment_price_examples():
    flat = PriceProcess(RugKind.SENTIMENT, amt(3))
    for t in (0, 7, 1000):
        assert price_sentiment(flat, t) == amt(3)
    assert price_sentiment(PriceProcess(RugKind.SENTIMENT, amt(1), alpha_sent=amt(1)), 1) == amt("0.5")
    assert price_sentiment(PriceProcess(RugKind.SENTIMENT, amt(10), alpha_sent=amt("0.5")), 2) == amt(5)


def test_price_parameter_errors():
    with pytest.raises(ParameterError):
        price_scam(PriceProcess(RugKind.SCAM, amt(1)), 1)  # tau 0
    with pytest.raises(ParameterError):
        price_catastrophic(PriceProcess(RugKind.CATASTROPHIC, amt(1), lam=amt(-1)), 1)
    with pytest.raises(ParameterError):
        price_sentiment(PriceProcess(RugKind.SENTIMENT, amt(1), alpha_sent=amt(-1)), 1)


def test_prices_non_increasing_and_floored():
    procs = [
        PriceProcess(RugKind.SCAM, amt(50), tau_rug=amt("0.7"), epsilon_floor=amt("0.001")),
        PriceProcess(RugKind.CATASTROPHIC, amt(50), lam=amt("1.3"), epsilon_floor=amt("0.001")),
        PriceProcess(RugKind.SENTIMENT, amt(50), alpha_sent=amt(2), epsilon_floor=amt("0.001")),
    ]
    for proc in procs:
        series = [price_at(proc, t) for t in range(40)]
        assert all(a >= b for a, b in zip(series, series[1:]))
        assert all(p >= proc.epsilon_floor for p in series)
        if proc.kind is not RugKind.SENTIMENT:  # hyperbolic decay is slow
            assert series[-1] == proc.epsilon_floor


@pytest.mark.parametrize("doc,evaluations", [
    (reference_scenario(blocks=2000), 2001),  # the catastrophic RUG, t = 0..2000
    (scam_scenario(), 13),                    # the scam RUG, t = 0..12
], ids=["reference-2000", "scam"])
def test_price_paths_never_fall_back_to_decimal_exp(monkeypatch, doc, evaluations):
    counts = {"kernel": 0, "decimal": 0}

    def counted(name, inner):
        def call(*args):
            counts[name] += 1
            return inner(*args)
        return call

    monkeypatch.setattr(market, "_exp_neg_raw", counted("kernel", market._exp_neg_raw))
    monkeypatch.setattr(core, "_exp_neg_decimal",
                        counted("decimal", core._exp_neg_decimal))
    run_scenario(doc)
    assert counts == {"kernel": evaluations, "decimal": 0}


def test_reference_run_builds_few_fixed_amounts(monkeypatch):
    # the per-block path (ledger, monitors, noise and peg-keeper parameters)
    # carries raw ints: the 2,000-block reference run builds about 25
    # FixedAmounts a block, where building one per intermediate took 53
    built = [0]
    init = FixedAmount.__init__

    def counted(self, raw):
        built[0] += 1
        init(self, raw)

    doc = reference_scenario(blocks=2000)
    monkeypatch.setattr(FixedAmount, "__init__", counted)
    run_scenario(doc)
    assert built[0] <= 55_000


# -- swaps ------------------------------------------------------------------


def test_swap_examples():
    dy, pool = pool_swap(mk_pool(1000, 1000), "RUG", amt(100))
    assert dy == amt("90.909090909")
    assert pool.reserve_x == amt(1100)
    assert pool.reserve_y == amt(1000) - dy
    dy_fee, _ = pool_swap(mk_pool(1000, 1000, fee=30), "RUG", amt(100))
    assert dy_fee == amt("90.661089388")


def test_swap_rejects_empty_and_unknown():
    with pytest.raises(ParameterError):
        pool_swap(mk_pool(1000, 1000), "RUG", amt(0))
    with pytest.raises(ParameterError):
        pool_swap(mk_pool(1000, 1000), "BTC", amt(1))


def test_swap_dust_and_drained():
    with pytest.raises(DustError):
        pool_swap(mk_pool(1000000000, "0.000000005"), "RUG", FixedAmount(1))
    drained = PoolState("p", "RUG", "USD", FixedAmount(1), amt(1000))
    with pytest.raises(IlliquidError):
        pool_swap(drained, "RUG", amt(1))


def test_feeless_swaps_preserve_k_within_quantum():
    rng = SeededRng(3).stream("swaps")
    pool = mk_pool(12345, 67890)
    for _ in range(2000):
        dx = FixedAmount(rng.randint(1, 50 * SCALE))
        token = "RUG" if rng.random() < 0.5 else "USD"
        k_before = Fraction(pool.reserve_x.raw * pool.reserve_y.raw)
        try:
            dy, pool = pool_swap(pool, token, dx)
        except DustError:
            continue
        r_in = pool.reserve_of(token)
        r_out = pool.reserve_of(pool.other(token))
        # the exact out-reserve solving x*y=k, vs the realized one
        exact_out = k_before / r_in.raw
        assert 0 <= r_out.raw - exact_out < 1.0000001


def test_fee_swaps_never_decrease_k():
    rng = SeededRng(4).stream("fee-swaps")
    pool = mk_pool(5000, 9000, fee=30)
    for _ in range(1000):
        dx = FixedAmount(rng.randint(1, 20 * SCALE))
        token = "RUG" if rng.random() < 0.5 else "USD"
        k_before = pool.reserve_x.raw * pool.reserve_y.raw
        try:
            _, pool = pool_swap(pool, token, dx)
        except DustError:
            continue
        assert pool.reserve_x.raw * pool.reserve_y.raw >= k_before


def test_exact_out_quote_roundtrip():
    pool = mk_pool(1000, 1000, fee=30)
    cost = pool_quote_exact_out(pool, "RUG", amt(100))
    dy, _ = pool_swap(pool, "USD", cost)
    assert dy >= amt(100)
    # one quantum less input must not reach the target
    dy_less, _ = pool_swap(pool, "USD", cost - QUANTUM)
    assert dy_less < amt(100)


# -- liquidity --------------------------------------------------------------


def test_add_remove_liquidity_examples():
    pool = mk_pool(1000, 2000)
    grown = pool_add_liquidity(pool, amt(100), amt(200))
    assert (grown.reserve_x, grown.reserve_y) == (amt(1100), amt(2200))
    out_x, out_y, half = pool_remove_liquidity(pool, amt("0.5"))
    assert (out_x, out_y) == (amt(500), amt(1000))
    assert (half.reserve_x, half.reserve_y) == (amt(500), amt(1000))
    _, _, closed = pool_remove_liquidity(pool, amt(1))
    assert closed.is_closed()


def test_add_liquidity_ratio_guard():
    with pytest.raises(RatioError):
        pool_add_liquidity(mk_pool(1000, 2000), amt(100), amt(150))
    with pytest.raises(ParameterError):
        pool_remove_liquidity(mk_pool(1, 1), amt(0))


# -- drains -----------------------------------------------------------------


def drain_event(t_rug, t_total, at=3):
    return DrainEvent("p", AccountId.solo("mallory"), amt(t_rug), amt(t_total),
                      BlockTime(0, "a"), BlockTime(at, "a"))


def test_drain_zero_is_noop():
    pool = mk_pool(1000, 2000)
    res = execute_drain(drain_event(0, 1000), pool, "RUG", 3)
    assert res.liquid_out == amt(0)
    assert res.pool == pool


def test_drain_realized_below_naive():
    pool = mk_pool(1000, 2000)
    res = execute_drain(drain_event(1000, 1000), pool, "RUG", 3)
    assert res.naive_target == amt(2000)
    assert res.liquid_out < res.naive_target
    half = execute_drain(drain_event(500, 1000), pool, "RUG", 3)
    assert half.naive_target == amt(1000)
    assert half.liquid_out < half.naive_target


def test_drain_collapses_spot():
    pool = mk_pool(1000, 2000)
    before = spot_price(pool)
    res = execute_drain(drain_event(900, 1000), pool, "RUG", 3)
    assert spot_price(res.pool) < before


def test_drain_respects_window():
    with pytest.raises(ParameterError):
        execute_drain(drain_event(10, 100, at=5), mk_pool(1000, 1000), "RUG", 4)
    with pytest.raises(ParameterError):
        DrainEvent("p", AccountId.solo("m"), amt(2), amt(1),
                   BlockTime(0, "a"), BlockTime(1, "a"))


# -- peg keeper --------------------------------------------------------------


def test_peg_keeper_noop_cases():
    pool = mk_pool(1000, 1000)
    assert peg_keeper_step(pool, amt(1), amt(100)) is None          # at peg
    assert peg_keeper_step(pool, amt("1.1"), amt(0)) is None        # no budget
    assert peg_keeper_step(pool, amt("1.004"), amt(100)) is None    # inside band


def test_peg_keeper_converges_from_above():
    pool = mk_pool(1000, 1100)  # spot 1.1, 10% above peg 1
    trade = peg_keeper_step(pool, amt(1), amt(10**6))
    assert trade is not None and trade.input_token == "RUG"
    gap = abs(spot_price(trade.pool) - amt(1))
    assert gap <= amt(1) * amt("0.005")


def test_peg_keeper_converges_from_below():
    pool = mk_pool(1000, 900)
    trade = peg_keeper_step(pool, amt(1), amt(10**6))
    assert trade is not None and trade.input_token == "USD"
    assert abs(spot_price(trade.pool) - amt(1)) <= amt("0.005")


def test_peg_keeper_never_overshoots_with_small_budget():
    pool = mk_pool(1000, 1100)
    rng = SeededRng(9).stream("peg")
    for _ in range(50):
        budget = FixedAmount(rng.randint(1, 40 * SCALE))
        trade = peg_keeper_step(pool, amt(1), budget)
        if trade is None:
            continue
        new_gap = spot_price(trade.pool) - amt(1)
        assert new_gap.raw >= 0 or abs(new_gap) <= amt("0.005")
        assert new_gap <= spot_price(pool) - amt(1)


def oracle_peg_keeper_step(pool, peg_value, budget, tolerance=DEFAULT_PEG_TOLERANCE):
    """peg_keeper_step with its crossing predicate built from pool_swap and
    spot_price, as the integer predicate must behave."""
    if peg_value.raw < 0:
        raise ParameterError("peg_value must be >= 0")
    if budget.raw <= 0 or pool.is_closed():
        return None
    spot = spot_price(pool)
    band = peg_value * tolerance
    gap = spot - peg_value
    if abs(gap) <= band:
        return None
    input_token = pool.token_x if gap.raw > 0 else pool.token_y

    def crosses(amount_raw):
        try:
            _, p = pool_swap(pool, input_token, FixedAmount(amount_raw))
        except (DustError, IlliquidError):
            return False
        new_gap = spot_price(p) - peg_value
        return (new_gap.raw > 0) != (gap.raw > 0) and abs(new_gap) > band

    lo, hi = 0, budget.raw
    if crosses(hi):
        for _ in range(PEG_BISECTION_ITERATIONS):
            if hi - lo <= 1:
                break
            mid = (lo + hi) // 2
            if crosses(mid):
                hi = mid
            else:
                lo = mid
    else:
        lo = hi
    if lo <= 0:
        return None
    try:
        amount_in = FixedAmount(lo)
        amount_out, new_pool = pool_swap(pool, input_token, amount_in)
    except (DustError, IlliquidError):
        return None
    return PegTrade(input_token, amount_in, amount_out, new_pool)


def outcome(step, *args):
    try:
        return step(*args)
    except Exception as exc:  # the type and message must match too
        return type(exc), str(exc)


def assert_peg_keeper_matches_oracle(rx, ry, fee, vx, vy, peg, budget, tolerance):
    pool = PoolState("p", "RUG", "USD", FixedAmount(rx), FixedAmount(ry), fee_bps=fee,
                     volume_x=FixedAmount(vx), volume_y=FixedAmount(vy))
    args = (pool, FixedAmount(peg), FixedAmount(budget), tolerance)
    assert outcome(peg_keeper_step, *args) == outcome(oracle_peg_keeper_step, *args)


NEAR_MAX = [MAX_RAW, MAX_RAW - 1, MAX_RAW - SCALE, MAX_RAW // 2, MAX_RAW // 1000]


@pytest.mark.parametrize("fee", [0, 30, 9999, 10000])
@pytest.mark.parametrize("reserves", [(0, 5 * SCALE), (5 * SCALE, 0), (1, 10**12),
                                      (10**12, 1), (2, 2 * SCALE), (1000 * SCALE, 1100 * SCALE),
                                      (1000 * SCALE, 900 * SCALE), (MAX_RAW // 2, 3 * SCALE),
                                      (3 * SCALE, MAX_RAW - SCALE), (10**9, MAX_RAW)])
@pytest.mark.parametrize("budget", [1, 40 * SCALE, 2**64 + 12345, MAX_RAW])
def test_peg_keeper_matches_oracle_on_edges(fee, reserves, budget):
    rx, ry = reserves
    for peg in (0, SCALE, 10**18):
        for vx, vy in ((0, 0), (MAX_RAW - 2 * SCALE, MAX_RAW - 2 * SCALE)):
            assert_peg_keeper_matches_oracle(rx, ry, fee, vx, vy, peg, budget,
                                             DEFAULT_PEG_TOLERANCE)


def test_peg_keeper_raises_range_errors_like_pool_swap():
    # reserve, volume and spot past MAX_RAW still raise from the predicate
    for rx, ry, vx, peg, budget in (
            (10**26, MAX_RAW, 0, SCALE, MAX_RAW),                  # reserve
            (10 * SCALE, 10 * SCALE, MAX_RAW - 1, SCALE // 2, 10 * SCALE),  # volume
            (2, SCALE, 0, MAX_RAW, 10**26)):                       # spot
        pool = PoolState("p", "RUG", "USD", FixedAmount(rx), FixedAmount(ry),
                         volume_x=FixedAmount(vx), volume_y=FixedAmount(vx))
        args = (pool, FixedAmount(peg), FixedAmount(budget), DEFAULT_PEG_TOLERANCE)
        got = outcome(peg_keeper_step, *args)
        assert got == outcome(oracle_peg_keeper_step, *args)
        assert got[0] is RangeError


raws = st.one_of(st.integers(0, 3), st.integers(1, 10**13), st.integers(1, MAX_RAW),
                 st.sampled_from(NEAR_MAX))


@settings(max_examples=300, deadline=None)
@given(rx=raws, ry=raws, fee=st.one_of(st.sampled_from([0, 30, 10000]), st.integers(0, 10000)),
       vx=st.one_of(st.just(0), raws), vy=st.one_of(st.just(0), raws),
       peg=st.one_of(st.integers(0, 10**12), raws), budget=raws.filter(lambda b: b > 0),
       tolerance=st.sampled_from(["0", "0.005", "0.5", "2"]))
def test_peg_keeper_matches_oracle(rx, ry, fee, vx, vy, peg, budget, tolerance):
    assert_peg_keeper_matches_oracle(rx, ry, fee, vx, vy, peg, budget, amt(tolerance))
