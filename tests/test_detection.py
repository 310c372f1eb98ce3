"""Monitors, risk signals, intervention planners, and the intent/solver
system."""

from collections import deque

import pytest
from hypothesis import example, given, settings, strategies as st

from rugsim.core import (
    MAX_RAW,
    AccountId,
    BlockTime,
    FixedAmount,
    ParameterError,
    RangeError,
    SCALE,
    amt,
    fsum,
)
from rugsim.detection import (
    AuxMonitor,
    IntentAction,
    IntentBook,
    IntentStatus,
    PoolMonitor,
    RiskSignal,
    SignalKind,
    SolverBid,
    TooLateError,
    TrailingWindow,
    plan_backrun,
    plan_frontrun,
    plan_sandwich,
    solver_step,
)
from rugsim.market import DrainEvent, PoolState, pool_swap

ALICE = AccountId.solo("alice")


def mk_pool(rx=1000, ry=1000, fee=0):
    return PoolState("p", "RUG", "USD", amt(rx), amt(ry), fee_bps=fee)


def mk_drain(t_rug=800, t_total=1000, submitted=0, executes=3):
    return DrainEvent("p", AccountId.solo("mallory"), amt(t_rug), amt(t_total),
                      BlockTime(submitted, "a"), BlockTime(executes, "a"))


# -- observation ---------------------------------------------------------------


def test_observe_liquidity_drop():
    monitor = PoolMonitor("p", drop_threshold=amt("0.2"))
    assert monitor.observe(1, amt(1000)) is None
    signal = monitor.observe(2, amt(400))
    assert signal.kind is SignalKind.LIQUIDITY_DROP
    assert signal.magnitude == amt("0.6")


def test_observe_quiet_cases():
    monitor = PoolMonitor("p", drop_threshold=amt("0.2"))
    monitor.observe(1, amt(1000))
    assert monitor.observe(2, amt(1000)) is None   # unchanged
    assert monitor.observe(3, amt(950)) is None    # 5% < 20%
    assert monitor.observe(4, amt(2000)) is None   # inflow


def test_observe_requires_increasing_heights():
    monitor = PoolMonitor("p", drop_threshold=amt("0.2"))
    monitor.observe(5, amt(1000))
    with pytest.raises(ParameterError):
        monitor.observe(5, amt(900))


def test_aux_monitor_signals():
    # scan takes raw quanta
    aux = AuxMonitor(mint_spike_factor=amt(3), wallet_outflow_fraction=amt("0.5"),
                     volume_spike_factor=amt(4))
    assert aux.scan(1, 0, 0, 0, 0, 0) == []
    # set a trailing baseline of 10 mint / 10 volume
    aux.scan(2, amt(10).raw, 0, 0, amt(10).raw, 0)
    signals = aux.scan(3, amt(100).raw, 0, 0, amt(10).raw, 0)
    assert [s.kind for s in signals] == [SignalKind.MINT_SPIKE]
    aux2 = AuxMonitor(amt(3), amt("0.5"), amt(4))
    aux2.scan(1, 0, 0, 0, amt(10).raw, 0)
    signals = aux2.scan(2, 0, 0, 0, amt(50).raw, amt(-1).raw)
    assert [s.kind for s in signals] == [SignalKind.VOLUME_ANOMALY]
    aux3 = AuxMonitor(amt(3), amt("0.5"), amt(4))
    signals = aux3.scan(1, 0, amt(80).raw, amt(100).raw, 0, 0)
    assert [s.kind for s in signals] == [SignalKind.WALLET_OUTFLOW]


def _mean_or_error(compute):
    try:
        mean = compute()
    except RangeError:
        return "RangeError"
    return mean.raw if isinstance(mean, FixedAmount) else mean


@settings(max_examples=300)
@given(size=st.integers(min_value=0, max_value=9),
       raws=st.lists(st.one_of(st.integers(min_value=-10**12, max_value=10**12),
                               st.integers(min_value=-MAX_RAW, max_value=MAX_RAW)),
                     max_size=40))
def test_trailing_window_mean_equals_resummed_mean(size, raws):
    # the running sum gives fsum(window) / len(window) exactly, before and
    # after the window starts evicting, and overflows where fsum does
    window = TrailingWindow(size)
    kept: list[FixedAmount] = []
    for raw in raws:
        value = FixedAmount(raw)
        window.push(raw)
        kept = (kept + [value])[-size:] if size else []
        assert list(window.values) == [v.raw for v in kept]
        expected = _mean_or_error(
            lambda: fsum(kept) / len(kept) if kept else None)
        assert _mean_or_error(window.mean) == expected


class _FixedWindow:
    """A trailing window of FixedAmounts, re-summed on every mean."""

    def __init__(self, size):
        self.values = deque(maxlen=size)

    def mean(self):
        return fsum(self.values) / len(self.values) if self.values else None


class _FixedAux:
    """AuxMonitor.scan written with FixedAmount arithmetic: each input is
    built as a FixedAmount, and each comparison is the FixedAmount
    expression."""

    def __init__(self, mint_factor, outflow_fraction, volume_factor, window):
        self.mint_factor, self.outflow_fraction = mint_factor, outflow_fraction
        self.volume_factor = volume_factor
        self.mints, self.volumes = _FixedWindow(window), _FixedWindow(window)

    def scan(self, height, *raws):
        minted, outflow, before, volume, delta = (FixedAmount(r) for r in raws)
        signals = []
        mean_mint = self.mints.mean()
        if mean_mint is not None and minted.raw > 0:
            if mean_mint.raw == 0 or minted > self.mint_factor * mean_mint:
                magnitude = minted / mean_mint if mean_mint.raw > 0 else minted
                signals.append(RiskSignal(SignalKind.MINT_SPIKE, magnitude, height))
        if before.raw > 0 and outflow.raw > 0:
            fraction = outflow / before
            if fraction > self.outflow_fraction:
                signals.append(RiskSignal(SignalKind.WALLET_OUTFLOW, fraction, height))
        mean_vol = self.volumes.mean()
        if (mean_vol is not None and mean_vol.raw > 0 and delta.raw <= 0
                and volume > self.volume_factor * mean_vol):
            signals.append(RiskSignal(SignalKind.VOLUME_ANOMALY, volume / mean_vol, height))
        self.mints.values.append(minted)
        self.volumes.values.append(volume)
        return [(s.kind, s.magnitude.raw, s.height) for s in signals]


def _outcome(call):
    try:
        result = call()
    except (ParameterError, RangeError) as exc:
        return type(exc).__name__, str(exc)
    return result


# raw amounts: everyday sizes, and sizes at and past the FixedAmount range
_raws = st.one_of(st.integers(min_value=-3, max_value=3),
                  st.integers(min_value=-10**13, max_value=10**13),
                  st.integers(min_value=MAX_RAW - 10**9, max_value=MAX_RAW + 10**9),
                  st.integers(min_value=-2 * MAX_RAW, max_value=2 * MAX_RAW))
_factors = st.one_of(st.integers(min_value=0, max_value=10 * SCALE),
                     st.integers(min_value=-SCALE, max_value=MAX_RAW)).map(FixedAmount)


# each range check of scan, forced: a mint spike, an outflow and a volume
# spike whose magnitude passes MAX_RAW, and a window sum past it
@example(factors=(amt(3), amt("0.5"), amt(4)), window=1,
         scans=[(1, 0, 0, 1, 0), (MAX_RAW, MAX_RAW, 1, MAX_RAW, 0)])
@example(factors=(amt(3), amt("0.5"), amt(4)), window=1,
         scans=[(0, 0, 0, 1, 0), (0, 0, 0, MAX_RAW, -1)])
@example(factors=(amt(3), amt("0.5"), amt(4)), window=2,
         scans=[(MAX_RAW, 0, 0, 0, 0), (MAX_RAW, 0, 0, 0, 0), (1, 0, 0, 0, 0)])
@settings(max_examples=300)
@given(factors=st.tuples(_factors, _factors, _factors),
       window=st.integers(min_value=1, max_value=4),
       scans=st.lists(st.tuples(_raws, _raws, _raws, _raws, _raws), max_size=12))
def test_raw_aux_scan_matches_the_fixed_amount_expressions(factors, window, scans):
    # signals, magnitudes and RangeError texts, scan by scan; a scan that
    # raises leaves both monitors as they were
    aux, model = AuxMonitor(*factors, window=window), _FixedAux(*factors, window)
    for height, raws in enumerate(scans, start=1):
        got = _outcome(lambda: [(s.kind, s.magnitude.raw, s.height)
                                for s in aux.scan(height, *raws)])
        assert got == _outcome(lambda: model.scan(height, *raws))


def _fixed_observe(prev, l_pool, threshold):
    """PoolMonitor's drop test as the FixedAmount expression."""
    if prev.raw > 0 and l_pool < prev:
        drop = (prev - l_pool) / prev
        if drop > threshold:
            return drop.raw
    return None


# a fall of more than MAX_RAW overflows before the ratio is taken
@example(threshold=SCALE // 5, levels=[MAX_RAW // 2, -(MAX_RAW * 9 // 10)])
@settings(max_examples=300)
@given(threshold=st.integers(min_value=1, max_value=2 * SCALE),
       levels=st.lists(st.one_of(st.integers(min_value=-10**13, max_value=10**13),
                                 st.integers(min_value=-MAX_RAW, max_value=MAX_RAW)),
                       min_size=1, max_size=12))
def test_raw_pool_monitor_matches_the_fixed_amount_expression(threshold, levels):
    monitor = PoolMonitor("p", FixedAmount(threshold))
    prev = None
    for height, raw in enumerate(levels, start=1):
        level = FixedAmount(raw)
        got = _outcome(lambda: monitor.observe(height, level))
        if prev is None:
            assert got is None
        else:
            expected = _outcome(lambda: _fixed_observe(prev, level, FixedAmount(threshold)))
            assert (got if got is None or isinstance(got, tuple)
                    else got.magnitude.raw) == expected
        if not isinstance(got, tuple):  # an observation that raises is not kept
            prev = level


# -- planners --------------------------------------------------------------------


def test_frontrun_quotes_predrain_reserves():
    plan = plan_frontrun(mk_drain(), mk_pool(), "RUG", ALICE, amt(100),
                         now=1, drain_priority=0)
    assert plan.leg.quoted_out == amt("90.909090909")
    assert plan.priority > 0


def test_frontrun_empty_and_late():
    assert plan_frontrun(mk_drain(), mk_pool(), "RUG", ALICE, amt(0), 1, 0) is None
    with pytest.raises(TooLateError):
        plan_frontrun(mk_drain(executes=3), mk_pool(), "RUG", ALICE, amt(10), 3, 0)


def test_sandwich_profitable_on_large_drain():
    plan = plan_sandwich(mk_drain(t_rug=800), mk_pool(), "RUG", ALICE,
                         amt(50), now=1, drain_priority=0)
    assert plan is not None
    assert plan.expected_profit.raw > 0
    assert plan.pre.priority > 0 > plan.post.priority
    # replay: pre swap, drain swap, buy back -> pocket exactly the plan profit
    pool = mk_pool()
    pre_out, pool = pool_swap(pool, "RUG", amt(50))
    _, pool = pool_swap(pool, "RUG", amt(800))
    back, pool = pool_swap(pool, "USD", plan.post.leg.amount_in)
    assert back >= amt(50)
    assert pre_out - plan.post.leg.amount_in == plan.expected_profit


def test_sandwich_withheld_cases():
    assert plan_sandwich(mk_drain(t_rug=0, t_total=1000), mk_pool(), "RUG",
                         ALICE, amt(50), 1, 0) is None
    assert plan_sandwich(mk_drain(), mk_pool(), "RUG", ALICE, amt(0), 1, 0) is None
    with pytest.raises(TooLateError):
        plan_sandwich(mk_drain(executes=2), mk_pool(), "RUG", ALICE, amt(50), 2, 0)


def test_backrun_buys_the_dip():
    drain = mk_drain(executes=3)
    _, pool = pool_swap(mk_pool(), "RUG", amt(800))  # the drain just happened
    plan = plan_backrun(drain, pool, "RUG", ALICE, budget=amt(40),
                        value_cap=amt(25), now=3)
    assert plan.leg.input_token == "USD"
    assert plan.leg.amount_in == amt(25)  # capped
    assert plan.meta["salvage"] is True
    assert plan_backrun(drain, pool, "RUG", ALICE, amt(0), amt(25), now=3) is None


# -- intents -----------------------------------------------------------------------


def mk_intent(book, theta_price="0.5", theta_liq="0.3"):
    return book.register(ALICE, "p", "RUG", amt(theta_price), amt(theta_liq),
                         IntentAction.EXIT_TO_NUMERAIRE,
                         price_ref=amt(1), liquidity_ref=amt(1000))


def test_intent_threshold_validation():
    book = IntentBook()
    with pytest.raises(ParameterError):
        mk_intent(book, theta_price="1")
    with pytest.raises(ParameterError):
        mk_intent(book, theta_liq="0")


def test_intent_triggers_on_price():
    book = IntentBook()
    intent = mk_intent(book)
    bids = [SolverBid(AccountId.solo("sol1"), 30)]
    quiet = solver_step(book, {"RUG": amt("0.6")}, {"p": amt(1000)}, 5, bids)
    assert quiet == [] and intent.status is IntentStatus.PENDING
    hits = solver_step(book, {"RUG": amt("0.4")}, {"p": amt(1000)}, 6, bids)
    assert len(hits) == 1 and hits[0].solver.value == "sol1"
    assert intent.status is IntentStatus.EXECUTED


def test_intent_triggers_on_liquidity():
    book = IntentBook()
    mk_intent(book)
    bids = [SolverBid(AccountId.solo("sol1"), 30)]
    hits = solver_step(book, {"RUG": amt(1)}, {"p": amt(200)}, 5, bids)
    assert len(hits) == 1


def test_intents_are_one_shot():
    book = IntentBook()
    mk_intent(book)
    bids = [SolverBid(AccountId.solo("sol1"), 30)]
    assert len(solver_step(book, {"RUG": amt("0.1")}, {"p": amt(1000)}, 5, bids)) == 1
    assert solver_step(book, {"RUG": amt("0.1")}, {"p": amt(1000)}, 6, bids) == []


def test_solver_auction_lowest_fee_then_id():
    book = IntentBook()
    mk_intent(book)
    cheap = SolverBid(AccountId.solo("zed"), 10)
    pricey = SolverBid(AccountId.solo("ann"), 20)
    [hit] = solver_step(book, {"RUG": amt("0.1")}, {"p": amt(1000)}, 5,
                        [pricey, cheap])
    assert hit.solver.value == "zed" and hit.fee_bps == 10
    book2 = IntentBook()
    mk_intent(book2)
    [hit2] = solver_step(book2, {"RUG": amt("0.1")}, {"p": amt(1000)}, 5,
                         [SolverBid(AccountId.solo("bob"), 10),
                          SolverBid(AccountId.solo("ann"), 10)])
    assert hit2.solver.value == "ann"  # fee tie: lower id wins


def test_backrun_dust_capped_by_quantum_rules():
    drain = mk_drain(executes=3)
    # a quantum of numeraire buys no output at this ratio: plan withheld
    pool = mk_pool("0.00000001", 1000)
    plan = plan_backrun(drain, pool, "RUG", ALICE, budget=amt("0.000000001"),
                        value_cap=amt("0.000000001"), now=3)
    assert plan is None


class _UnrankableBids(list):
    """Bids that fail the test if anything iterates over them."""

    def __iter__(self):
        raise AssertionError("bids were ranked")


def test_solver_step_ranks_no_bids_while_no_intent_is_pending():
    book = IntentBook()
    bids = _UnrankableBids([SolverBid(AccountId.solo("s"), 30)])
    assert solver_step(book, {"RUG": amt("0.1")}, {"p": amt(1000)}, 5, bids) == []
