"""Perpetuals: positions, asymmetric funding, margining, liquidation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rugsim.core import (
    MAX_RAW,
    FixedAmount,
    IlliquidError,
    ParameterError,
    RangeError,
    amt,
    quantize,
)
from rugsim.ledger import BalanceError
from rugsim.perps import (
    Direction,
    PerpBook,
    Position,
    PositionStatus,
    funding_rate,
    funding_rate_final,
    position_health,
    position_pnl,
)

from conftest import fund, loaded

ANTI = "anti:RUG@alpha"


def mk_book(**fields):
    """A book on a perps section with these fields over the required ones."""
    perps = {"alpha_base": "0.01", "l_min": "100", "interval_blocks": 4, **fields}
    return PerpBook("v-RUG", ANTI, loaded("perps", perps))


def open_pos(book, ledger, name, collateral, leverage, direction,
             entry=1, unit_value=1):
    user = fund(ledger, name, ANTI, collateral)
    return book.open_position(ledger, user, amt(collateral), amt(leverage),
                              direction, amt(entry), amt(unit_value))


# -- opening ------------------------------------------------------------------


def test_open_position_basics(ledger):
    book = mk_book()
    p = open_pos(book, ledger, "alice", 100, 1, Direction.LONG)
    assert p.entry_price == amt(1)
    assert ledger.balance(book.escrow_account, ANTI) == amt(100)
    assert ledger.balance("alice", ANTI) == amt(0)


def test_open_position_rejects_bad_inputs(ledger):
    book = mk_book()
    user = fund(ledger, "bob", ANTI, 100)
    with pytest.raises(ParameterError):  # leverage above the cap
        book.open_position(ledger, user, amt(10), amt(11), Direction.LONG,
                           amt(1), amt(1))
    with pytest.raises(ParameterError):  # zero collateral
        book.open_position(ledger, user, amt(0), amt(2), Direction.LONG,
                           amt(1), amt(1))
    with pytest.raises(BalanceError):
        book.open_position(ledger, user, amt(500), amt(2), Direction.LONG,
                           amt(1), amt(1))


# -- pnl ----------------------------------------------------------------------


def test_pnl_examples(ledger):
    book = mk_book()
    short2 = open_pos(book, ledger, "s2", 100, 2, Direction.SHORT, entry=1)
    long4 = open_pos(book, ledger, "l4", 100, 4, Direction.LONG, entry=1)
    assert position_pnl(short2, amt(1)) == amt(0)
    # -25% move: short x2 gains half the collateral value
    assert position_pnl(short2, amt("0.75")) == amt(50)
    # -25% move: long x4 is wiped out exactly
    assert position_pnl(long4, amt("0.75")) == amt(-100)
    assert position_health(long4, amt("0.75")) == amt(0)


def test_pnl_antisymmetric_in_direction(ledger):
    book = mk_book()
    long_side = open_pos(book, ledger, "a", 70, 3, Direction.LONG, entry=2)
    short_side = open_pos(book, ledger, "b", 70, 3, Direction.SHORT, entry=2)
    for mark in ("0.5", "1.7", "2", "2.9", "6"):
        assert position_pnl(long_side, amt(mark)) == -position_pnl(short_side, amt(mark))


# -- funding rate -------------------------------------------------------------


def test_funding_rate_examples():
    alpha = amt("0.01")
    assert funding_rate(10, 10, alpha) == amt("0.005")
    assert funding_rate(7, 0, alpha) == alpha
    assert funding_rate(25, 75, alpha) == amt("0.0025")
    with pytest.raises(ParameterError):
        funding_rate(0, 0, alpha)


def test_funding_rate_final_examples():
    f = amt("0.004")
    assert funding_rate_final(f, amt(100), amt(100)) == f * 2
    assert funding_rate_final(f, amt(100), amt(400)) == amt("0.005")
    assert funding_rate_final(f, amt(100), amt(10**9)) < f * 2
    with pytest.raises(IlliquidError):
        funding_rate_final(f, amt(100), amt(0))


def test_funding_bounds_randomized():
    from rugsim.core import SeededRng
    rng = SeededRng(5).stream("funding")
    alpha = amt("0.01")
    l_min = amt(100)
    for _ in range(500):
        n_long = rng.randint(0, 40)
        n_short = rng.randint(0, 40)
        if n_long + n_short == 0:
            continue
        rate = funding_rate(n_long, n_short, alpha)
        assert amt(0) <= rate <= alpha
        l_pool = amt(rng.randint(100, 10**6))
        final = funding_rate_final(rate, l_min, l_pool)
        assert final <= rate * 2  # holds whenever l_pool >= l_min


# -- raw ints against the rational expressions --------------------------------


def fraction_pnl(position, mark, unit_value):
    move = Fraction(mark.raw - position.entry_price.raw, position.entry_price.raw)
    collateral_value = position.collateral_ca * (unit_value or position.unit_value_at_entry)
    sign = 1 if position.direction is Direction.LONG else -1
    return quantize(sign * position.leverage.as_fraction()
                    * collateral_value.as_fraction() * move)


def fraction_funding_rate(n_long, n_short, alpha):
    return min(quantize(alpha.as_fraction() * Fraction(n_long, n_long + n_short)), alpha)


def fraction_funding_rate_final(rate, l_min, l_pool):
    return quantize(rate.as_fraction() * (1 + Fraction(l_min.raw, l_pool.raw)))


def outcome(f, *args):
    """f's FixedAmount, or the message of the RangeError it raises."""
    try:
        return f(*args)
    except RangeError as exc:
        return f"RangeError: {exc}"


# amounts from one quantum to MAX_RAW = 10**27 quanta, with d digits for d
# drawn evenly from 1 to 28 (a plain st.integers draws mostly small ones)
raws = st.sampled_from(range(28)).flatmap(
    lambda d: st.integers(10**d // 10 + 1, 10**d)).map(FixedAmount)


@settings(derandomize=True, max_examples=160, deadline=None)
@given(direction=st.sampled_from(Direction), leverage=raws, collateral=raws, entry=raws,
       mark=raws, unit_value=st.none() | raws, at_entry=raws,
       n_long=st.integers(0, 10**6), n_short=st.integers(0, 10**6),
       alpha=st.just(FixedAmount(0)) | raws, l_min=raws, l_pool=raws)
def test_raw_int_valuation_rounds_as_the_fraction_forms(direction, leverage, collateral,
                                                        entry, mark, unit_value, at_entry,
                                                        n_long, n_short, alpha, l_min,
                                                        l_pool):
    position = Position(1, "a", collateral, leverage, direction, entry, at_entry)
    assert (outcome(position_pnl, position, mark, unit_value)
            == outcome(fraction_pnl, position, mark, unit_value))
    if n_long + n_short:
        assert (outcome(funding_rate, n_long, n_short, alpha)
                == outcome(fraction_funding_rate, n_long, n_short, alpha))
    rate = alpha  # any amount: apply_funding passes funding_rate's
    assert (outcome(funding_rate_final, rate, l_min, l_pool)
            == outcome(fraction_funding_rate_final, rate, l_min, l_pool))


# -- funding application ---------------------------------------------------------


def test_apply_funding_balanced_book_is_noop(ledger):
    book = mk_book()
    open_pos(book, ledger, "a", 100, 2, Direction.LONG)
    open_pos(book, ledger, "b", 100, 2, Direction.SHORT)
    round_ = book.apply_funding(ledger, amt(1000), "treasury")
    assert round_ is None


def test_apply_funding_single_sided_is_noop(ledger):
    book = mk_book()
    open_pos(book, ledger, "a", 100, 2, Direction.LONG)
    assert book.apply_funding(ledger, amt(1000), "treasury") is None


def test_apply_funding_majority_pays_minority(ledger):
    book = mk_book(alpha_base="0.01", l_min="100")
    longs = [open_pos(book, ledger, f"long{i}", 100, 2, Direction.LONG)
             for i in range(3)]
    short = open_pos(book, ledger, "solo-short", 100, 2, Direction.SHORT)
    escrow_before = ledger.balance(book.escrow_account, ANTI)
    round_ = book.apply_funding(ledger, amt(400), "treasury")
    assert round_.paying_side is Direction.LONG
    # rate: 0.01 * 3/4 * (1 + 100/400) = 0.009375 on notional 200
    paid_each = amt("0.009375") * amt(200)
    for p in longs:
        assert p.collateral_ca == amt(100) - paid_each
    assert short.collateral_ca == amt(100) + paid_each * 3 - round_.treasury_remainder
    # zero-sum: collateral deltas plus the treasury dust cancel exactly
    total = short.collateral_ca + sum((p.collateral_ca for p in longs), start=amt(0))
    assert total + ledger.balance("treasury", ANTI) == escrow_before
    assert round_.treasury_remainder == amt(0)


# -- liquidation ------------------------------------------------------------------


def test_healthy_book_produces_no_events(ledger):
    book = mk_book()
    open_pos(book, ledger, "a", 100, 2, Direction.LONG, entry=1)
    events = book.flag_and_liquidate(ledger, amt(1), "liq1", 1, "amm")
    assert events == []


def test_wiped_out_position_liquidates_same_block(ledger):
    book = mk_book()
    p = open_pos(book, ledger, "a", 100, 4, Direction.LONG, entry=1)
    # a bidder takes only positions flagged in an earlier call
    events = book.flag_and_liquidate(ledger, amt("0.75"), "liq1", 2, "amm")
    kinds = [e.kind for e in events]
    assert kinds == ["flagged", "auto_liquidated"]
    assert p.status is PositionStatus.LIQUIDATED
    assert ledger.balance("amm", ANTI) == amt(100)
    assert ledger.balance(book.escrow_account, ANTI) == amt(0)


def test_flag_then_deadline_auto_liquidation(ledger):
    book = mk_book(liquidator_deadline_blocks=5)
    p = open_pos(book, ledger, "a", 100, 4, Direction.LONG, entry=1)
    # -22.5% on x4 leverage leaves exactly 10% equity: at the maintenance line
    events = book.flag_and_liquidate(ledger, amt("0.775"), None, 10, "amm")
    assert [e.kind for e in events] == ["flagged"]
    assert p.status is PositionStatus.FLAGGED
    for height in range(11, 15):
        assert book.flag_and_liquidate(ledger, amt("0.775"), None, height, "amm") == []
    events = book.flag_and_liquidate(ledger, amt("0.775"), None, 15, "amm")
    assert [e.kind for e in events] == ["auto_liquidated"]


def test_liquidator_earns_fee_and_conservation(ledger):
    book = mk_book()
    p = open_pos(book, ledger, "a", 100, 4, Direction.LONG, entry=1)
    flagged = book.flag_and_liquidate(ledger, amt("0.775"), "liq1", 10, "amm")
    assert [e.kind for e in flagged] == ["flagged"]
    events = book.flag_and_liquidate(ledger, amt("0.775"), "liq1", 11, "amm")
    [event] = events
    assert event.kind == "liquidated" and event.liquidator == "liq1"
    assert event.fee_ca == amt(5)       # 5% of remaining collateral
    assert event.swap_ca == amt(95)
    assert event.fee_ca + event.swap_ca == amt(100)
    assert ledger.balance("liq1", ANTI) == amt(5)
    assert ledger.balance("amm", ANTI) == amt(95)


def test_funding_rate_final_approaches_base_in_deep_pools():
    f = amt("0.004")
    deep = funding_rate_final(f, amt(100), amt(10**9))
    assert f <= deep <= f + amt("0.000000001")
