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
    PegTrade,
    PoolState,
    RatioError,
    RugKind,
    execute_drain,
    peg_keeper_step,
    pool_add_liquidity,
    pool_quote_exact_out,
    pool_remove_liquidity,
    pool_swap,
    price_at,
    spot_price,
)
from rugsim.harness import run_scenario
from rugsim.scenario import reference_scenario, scam_scenario

from conftest import loaded

mpmath.mp.dps = 50

# a peg keeper's tolerance when its agent entry leaves it out
PEG_TOLERANCE = loaded("agents.3", {"kind": "pegkeeper", "account": "keeper",
                                    "pool": "anti-usdn"})["tolerance"]


def mk_pool(rx, ry, fee=0, pid="p"):
    return PoolState(pid, "RUG", "USD", amt(rx), amt(ry), fee_bps=fee)


def oracle_decay(p0: str, rate: str, t: int, floor=QUANTUM) -> FixedAmount:
    value = mpmath.mpf(p0) * mpmath.e ** (-mpmath.mpf(rate) * t)
    return max(FixedAmount(int(mpmath.nint(value * SCALE))), floor)


# -- price processes -------------------------------------------------------


def process(kind, p0, **fields):
    """A loaded price_process section of this kind with these fields."""
    return loaded("tokens.0.price_process", {"kind": kind, "p0": p0, **fields})


def test_scam_price_examples():
    proc = process("scam", "1", tau_rug="1")
    assert price_at(proc, 0) == amt(1)
    assert price_at(proc, 1) == oracle_decay("1", "1", 1) == amt("0.367879441")
    fast = process("scam", "1", tau_rug="0.1")
    assert price_at(fast, 1) == oracle_decay("1", "10", 1)


def test_catastrophic_price_examples():
    flat = process("catastrophic", "5")
    assert price_at(flat, 100) == amt(5)
    proc = process("catastrophic", "100", lam="0.5")
    assert price_at(proc, 2) == amt("36.787944117")
    slow = process("catastrophic", "100", lam="0.1")
    assert price_at(slow, 10) == amt("36.787944117")


def test_sentiment_price_examples():
    flat = process("sentiment", "3")
    for t in (0, 7, 1000):
        assert price_at(flat, t) == amt(3)
    assert price_at(process("sentiment", "1", alpha_sent="1"), 1) == amt("0.5")
    assert price_at(process("sentiment", "10", alpha_sent="0.5"), 2) == amt(5)


def test_prices_non_increasing_and_floored():
    procs = [
        process("scam", "50", tau_rug="0.7", epsilon_floor="0.001"),
        process("catastrophic", "50", lam="1.3", epsilon_floor="0.001"),
        process("sentiment", "50", alpha_sent="2", epsilon_floor="0.001"),
    ]
    for proc in procs:
        series = [price_at(proc, t) for t in range(40)]
        assert all(a >= b for a, b in zip(series, series[1:]))
        assert all(p >= proc["epsilon_floor"] for p in series)
        if proc["kind"] is not RugKind.SENTIMENT:  # hyperbolic decay is slow
            assert series[-1] == proc["epsilon_floor"]


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
    drained = PoolState("p", "RUG", "USD", FixedAmount(1), amt(1000), fee_bps=0)
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
    minted, grown = pool_add_liquidity(pool, amt(100), amt(200), amt(50))
    assert (grown.reserve_x, grown.reserve_y) == (amt(1100), amt(2200))
    assert minted == amt(5)  # a tenth of the pool, a tenth of its LP supply
    out_x, out_y, burned, half = pool_remove_liquidity(pool, amt("0.5"), amt(50))
    assert (out_x, out_y, burned) == (amt(500), amt(1000), amt(25))
    assert (half.reserve_x, half.reserve_y) == (amt(500), amt(1000))
    _, _, burned, closed = pool_remove_liquidity(pool, amt(1), amt(50))
    assert closed.is_closed() and burned == amt(50)
    # into a pool with no LP supply, a deposit mints isqrt(dx * dy)
    minted, _ = pool_add_liquidity(closed, amt(4), amt(9), amt(0))
    assert minted == amt(6)


def test_add_liquidity_ratio_guard():
    with pytest.raises(RatioError):
        pool_add_liquidity(mk_pool(1000, 2000), amt(100), amt(150), amt(50))


# -- drains -----------------------------------------------------------------


def test_drain_zero_is_noop():
    pool = mk_pool(1000, 2000)
    liquid_out, _, after = execute_drain(pool, "RUG", amt(0), amt(1000))
    assert liquid_out == amt(0)
    assert after is pool


def test_drain_realized_below_naive():
    pool = mk_pool(1000, 2000)
    liquid_out, naive_target, _ = execute_drain(pool, "RUG", amt(1000), amt(1000))
    assert naive_target == amt(2000)
    assert liquid_out < naive_target
    liquid_out, naive_target, _ = execute_drain(pool, "RUG", amt(500), amt(1000))
    assert naive_target == amt(1000)
    assert liquid_out < naive_target


def test_drain_collapses_spot():
    pool = mk_pool(1000, 2000)
    before = spot_price(pool)
    _, _, after = execute_drain(pool, "RUG", amt(900), amt(1000))
    assert spot_price(after) < before


# -- peg keeper --------------------------------------------------------------


def test_peg_keeper_noop_cases():
    pool = mk_pool(1000, 1000)
    assert peg_keeper_step(pool, amt(1), amt(100), PEG_TOLERANCE) is None        # at peg
    assert peg_keeper_step(pool, amt("1.1"), amt(0), PEG_TOLERANCE) is None      # no budget
    assert peg_keeper_step(pool, amt("1.004"), amt(100), PEG_TOLERANCE) is None  # in band


def test_peg_keeper_converges_from_above():
    pool = mk_pool(1000, 1100)  # spot 1.1, 10% above peg 1
    trade = peg_keeper_step(pool, amt(1), amt(10**6), PEG_TOLERANCE)
    assert trade is not None and trade.input_token == "RUG"
    gap = abs(spot_price(trade.pool) - amt(1))
    assert gap <= amt(1) * amt("0.005")


def test_peg_keeper_converges_from_below():
    pool = mk_pool(1000, 900)
    trade = peg_keeper_step(pool, amt(1), amt(10**6), PEG_TOLERANCE)
    assert trade is not None and trade.input_token == "USD"
    assert abs(spot_price(trade.pool) - amt(1)) <= amt("0.005")


def test_peg_keeper_never_overshoots_with_small_budget():
    pool = mk_pool(1000, 1100)
    rng = SeededRng(9).stream("peg")
    for _ in range(50):
        budget = FixedAmount(rng.randint(1, 40 * SCALE))
        trade = peg_keeper_step(pool, amt(1), budget, PEG_TOLERANCE)
        if trade is None:
            continue
        new_gap = spot_price(trade.pool) - amt(1)
        assert new_gap.raw >= 0 or abs(new_gap) <= amt("0.005")
        assert new_gap <= spot_price(pool) - amt(1)


def oracle_peg_keeper_step(pool, peg_value, budget, tolerance):
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
        while hi - lo > 1:
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
                                             PEG_TOLERANCE)


def test_peg_keeper_raises_range_errors_like_pool_swap():
    # reserve, volume and spot past MAX_RAW still raise from the predicate
    for rx, ry, vx, peg, budget in (
            (10**26, MAX_RAW, 0, SCALE, MAX_RAW),                  # reserve
            (10 * SCALE, 10 * SCALE, MAX_RAW - 1, SCALE // 2, 10 * SCALE),  # volume
            (2, SCALE, 0, MAX_RAW, 10**26)):                       # spot
        pool = PoolState("p", "RUG", "USD", FixedAmount(rx), FixedAmount(ry), fee_bps=0,
                         volume_x=FixedAmount(vx), volume_y=FixedAmount(vx))
        args = (pool, FixedAmount(peg), FixedAmount(budget), PEG_TOLERANCE)
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


def record_swap_outputs(monkeypatch):
    """The amounts market._swap_output_raw is called with, in call order."""
    amounts = []
    swap_output_raw = market._swap_output_raw

    def recorded(r_in, r_out, dx, fee_bps):
        amounts.append(dx)
        return swap_output_raw(r_in, r_out, dx, fee_bps)

    monkeypatch.setattr(market, "_swap_output_raw", recorded)
    return amounts


def test_peg_keeper_matches_oracle_near_the_band_edges(monkeypatch):
    # a trade calls _swap_output_raw for crosses(budget), for each probe of
    # the search, then in pool_swap; the first probe is the guess, or 1 for
    # a guess of 0
    amounts = record_swap_outputs(monkeypatch)
    paths, sides = set(), set()

    def check(pool, peg, budget, tolerance):
        args = (pool, FixedAmount(peg), FixedAmount(budget), tolerance)
        amounts.clear()
        got = peg_keeper_step(*args)
        probes = amounts[1:-1]
        assert got == oracle_peg_keeper_step(*args)
        if got is not None:
            found = got.amount_in.raw
            sides.add(got.input_token)
            paths.add("exact" if probes == [found, found + 1]
                      else "high" if probes[0] > found else "low")
        return got

    for fee in (0, 30, 9999):
        for peg in (SCALE, 7 * SCALE // 3):
            band = (FixedAmount(peg) * PEG_TOLERANCE).raw
            for spot in [edge + k for edge in (peg - band, peg + band) for k in range(-3, 4)]:
                for rx in (10**9, 37 * 10**12, 10**18):
                    pool = PoolState("p", "RUG", "USD", FixedAmount(rx),
                                     FixedAmount(spot * rx // SCALE), fee_bps=fee)
                    check(pool, peg, rx, PEG_TOLERANCE)
    assert paths == {"exact", "low"} and sides == {"RUG", "USD"}
    # selling SCALE lands the spot exactly on t - 1/2 (t = 500000001 with no
    # band), which rounds half-even to t - 1 and crosses: the guess is the
    # first crossing amount itself, one too high
    pool = PoolState("p", "RUG", "USD", FixedAmount(SCALE), FixedAmount(2 * SCALE + 2), 0)
    check(pool, 500000001, 10 * SCALE, amt(0))
    assert paths == {"exact", "low", "high"}
    # the largest trade that does not cross is 1999999997 here, for every
    # budget past it, however large
    pool = PoolState("p", "RUG", "USD", FixedAmount(2), FixedAmount(2), 0)
    for budget in (2**64, 2**65, MAX_RAW - 2):
        assert check(pool, 1, budget, amt(0)).amount_in.raw == 1999999997


def test_peg_keeper_prices_a_trade_in_few_swap_evaluations(monkeypatch):
    # a deterministic work count: a capped bisection over the budget makes
    # ~30-60 calls per trade, the guessed search about 4
    amounts = record_swap_outputs(monkeypatch)
    rng = SeededRng(16).stream("peg-work")
    trades = 0
    for _ in range(200):
        rx = rng.randint(10**9, 10**15)
        peg = rng.randint(SCALE // 10, 10 * SCALE)
        spot = peg * rng.randint(500, 1500) // 1000
        pool = PoolState("p", "RUG", "USD", FixedAmount(rx), FixedAmount(spot * rx // SCALE),
                         fee_bps=rng.choice([0, 30, 100]))
        budget = rng.randint(1, 2 * rx) if rng.random() < 0.8 else rng.randint(1, rx // 100)
        trades += peg_keeper_step(pool, FixedAmount(peg), FixedAmount(budget),
                                  PEG_TOLERANCE) is not None
    assert trades >= 190
    assert len(amounts) <= 5 * trades
