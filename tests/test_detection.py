"""Monitors, risk signals, intervention planners, and the intent/solver
system."""

from collections import deque
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from rugsim.core import (
    MAX_RAW,
    FixedAmount,
    ParameterError,
    RangeError,
    RugsimError,
    SCALE,
    amt,
)
from rugsim.detection import (
    PRIORITY_BACKRUN,
    PRIORITY_DRAIN,
    PRIORITY_SANDWICH_POST,
    AuxMonitor,
    DrainBook,
    IntentAction,
    IntentBook,
    IntentStatus,
    PoolMonitor,
    RiskSignal,
    SignalKind,
    TrailingWindow,
    plan_backrun,
    plan_frontrun,
    plan_sandwich,
    solver_step,
)
from rugsim.ledger import Ledger
from rugsim.market import PoolBook, PoolState, pool_quote, pool_quote_exact_out, pool_swap
from rugsim.scenario import load_scenario, reference_scenario, scam_scenario

from conftest import Recorder, loaded, vault_registry

ALICE = "alice"


def mk_pool(rx=1000, ry=1000, fee=0):
    return PoolState("p", "RUG", "USD", amt(rx), amt(ry), fee_bps=fee)


# -- observation ---------------------------------------------------------------


def test_observe_liquidity_drop():
    monitor = PoolMonitor("p", drop_threshold=amt("0.2"))
    assert monitor.observe(1, amt(1000).raw) is None
    signal = monitor.observe(2, amt(400).raw)
    assert signal.kind is SignalKind.LIQUIDITY_DROP
    assert signal.magnitude == amt("0.6")


def test_observe_quiet_cases():
    monitor = PoolMonitor("p", drop_threshold=amt("0.2"))
    monitor.observe(1, amt(1000).raw)
    assert monitor.observe(2, amt(1000).raw) is None   # unchanged
    assert monitor.observe(3, amt(950).raw) is None    # 5% < 20%
    assert monitor.observe(4, amt(2000).raw) is None   # inflow


def test_observe_requires_increasing_heights():
    monitor = PoolMonitor("p", drop_threshold=amt("0.2"))
    monitor.observe(5, amt(1000).raw)
    with pytest.raises(ParameterError):
        monitor.observe(5, amt(900).raw)


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


def test_a_scan_that_raises_still_moves_its_windows():
    # block 2 mints the whole range after block 1 minted one quantum: the
    # spike's magnitude is past the range, so the scan raises, but only
    # after both windows took their inputs; block 3's equal mint is no spike
    # against a mean of the whole range, whose threshold, 3 times it, is
    # compared exactly
    aux = AuxMonitor(amt(3), amt("0.5"), amt(4), window=1)
    assert aux.scan(1, 1, 0, 0, 0, 0) == []
    with pytest.raises(RangeError):
        aux.scan(2, MAX_RAW, 0, 0, 0, 0)
    assert list(aux._mints.values) == [MAX_RAW] and list(aux._volumes.values) == [0]
    assert aux.scan(3, MAX_RAW, 0, 0, 0, 0) == []


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
    # the running sum gives the exact mean of the window, rounded half-even,
    # before and after the window starts evicting; a mean of amounts in the
    # range is in it, however far their sum passes it
    window = TrailingWindow(size)
    kept: list[FixedAmount] = []
    for raw in raws:
        value = FixedAmount(raw)
        window.push(raw)
        kept = (kept + [value])[-size:] if size else []
        assert list(window.values) == [v.raw for v in kept]
        expected = _mean_or_error(lambda: _exact_mean(kept) if kept else None)
        assert _mean_or_error(window.mean) == expected != "RangeError"


def _exact_mean(values):
    """The mean of FixedAmounts as a FixedAmount, from their exact sum
    (``round`` of a Fraction rounds half to even)."""
    return FixedAmount(round(Fraction(sum(v.raw for v in values), len(values))))


def _exact_product(a, b):
    """The raw FixedAmount product a * b, rounded half to even but never
    range-checked: a threshold that is only compared against."""
    return round(Fraction(a.raw * b.raw, SCALE))


class _FixedWindow:
    """A trailing window of FixedAmounts, re-summed exactly on every mean."""

    def __init__(self, size):
        self.values = deque(maxlen=size)

    def mean(self):
        return _exact_mean(self.values) if self.values else None


class _FixedAux:
    """AuxMonitor.scan written with FixedAmount arithmetic: each input but
    the liquidity change, of which only the sign is read, is built as a
    FixedAmount, both windows take the inputs before any comparison, and
    each comparison is the FixedAmount expression, its threshold product
    taken exactly."""

    def __init__(self, mint_factor, outflow_fraction, volume_factor, window):
        self.mint_factor, self.outflow_fraction = mint_factor, outflow_fraction
        self.volume_factor = volume_factor
        self.mints, self.volumes = _FixedWindow(window), _FixedWindow(window)

    def scan(self, height, *raws):
        minted, outflow, before, volume = (FixedAmount(r) for r in raws[:4])
        delta = raws[4]
        mean_mint, mean_vol = self.mints.mean(), self.volumes.mean()
        self.mints.values.append(minted)
        self.volumes.values.append(volume)
        signals = []
        if mean_mint is not None and minted.raw > 0:
            if mean_mint.raw == 0 or minted.raw > _exact_product(self.mint_factor, mean_mint):
                magnitude = minted / mean_mint if mean_mint.raw > 0 else minted
                signals.append(RiskSignal(SignalKind.MINT_SPIKE, magnitude, height))
        if before.raw > 0 and outflow.raw > 0:
            fraction = outflow / before
            if fraction > self.outflow_fraction:
                signals.append(RiskSignal(SignalKind.WALLET_OUTFLOW, fraction, height))
        if (mean_vol is not None and mean_vol.raw > 0 and delta <= 0
                and volume.raw > _exact_product(self.volume_factor, mean_vol)):
            signals.append(RiskSignal(SignalKind.VOLUME_ANOMALY, volume / mean_vol, height))
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
# spike whose magnitude passes MAX_RAW, and a window whose sum passes it
# while its mean does not
@example(factors=(amt(3), amt("0.5"), amt(4)), window=1,
         scans=[(1, 0, 0, 1, 0), (MAX_RAW, MAX_RAW, 1, MAX_RAW, 0)])
@example(factors=(amt(3), amt("0.5"), amt(4)), window=1,
         scans=[(0, 0, 0, 1, 0), (0, 0, 0, MAX_RAW, -1)])
@example(factors=(amt(3), amt("0.5"), amt(4)), window=2,
         scans=[(MAX_RAW, 0, 0, 0, 0), (MAX_RAW, 0, 0, 0, 0), (1, 0, 0, 0, 0)])
# and a spike threshold past MAX_RAW, which no volume passes
@example(factors=(amt(3), amt("0.5"), amt(4)), window=1,
         scans=[(0, 0, 0, MAX_RAW, 0), (0, 0, 0, MAX_RAW, 0)])
@settings(max_examples=300)
@given(factors=st.tuples(_factors, _factors, _factors),
       window=st.integers(min_value=1, max_value=4),
       scans=st.lists(st.tuples(_raws, _raws, _raws, _raws, _raws), max_size=12))
def test_raw_aux_scan_matches_the_fixed_amount_expressions(factors, window, scans):
    # signals, magnitudes and RangeError texts, scan by scan; a scan whose
    # inputs are refused leaves both monitors as they were
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
        got = _outcome(lambda: monitor.observe(height, raw))
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
    assert plan_frontrun(mk_pool(), "RUG", amt(100)) == amt("90.909090909")


def test_frontrun_empty_and_late():
    assert plan_frontrun(mk_pool(), "RUG", amt(0)) is None


def test_sandwich_profitable_on_large_drain():
    profit = plan_sandwich(mk_pool(), "RUG", amt(50), t_rug=amt(800))
    assert profit is not None and profit.raw > 0
    # replay: pre swap, drain swap, buy back -> pocket exactly the profit
    pool = mk_pool()
    pre_out, pool = pool_swap(pool, "RUG", amt(50))
    _, pool = pool_swap(pool, "RUG", amt(800))
    post_cost = pool_quote_exact_out(pool, "RUG", amt(50))
    back, pool = pool_swap(pool, "USD", post_cost)
    assert back >= amt(50)
    assert pre_out - post_cost == profit


def test_sandwich_withheld_cases():
    assert plan_sandwich(mk_pool(), "RUG", amt(50), t_rug=amt(0)) is None
    assert plan_sandwich(mk_pool(), "RUG", amt(0), t_rug=amt(800)) is None


def test_backrun_buys_the_dip():
    _, pool = pool_swap(mk_pool(), "RUG", amt(800))  # the drain just happened
    assert plan_backrun(pool, "RUG", budget=amt(40), cap=amt(25)) == amt(25)  # capped
    assert plan_backrun(pool, "RUG", amt(0), amt(25)) is None


# -- the drain book ----------------------------------------------------------------


def drain_book(*detectors: dict, boost: int = 20):
    """A DrainBook on a bare ledger and pool book holding builtin:scam's
    accounts and pool, with these detector agents, each holding 50 RUG and
    500 USDN; returns the book, the events it records as (type, *values)
    and the transactions it queues as (chain, execute_at, priority, kind,
    action)."""
    doc = scam_scenario()
    doc["detection"]["protocol_priority_boost"] = boost
    doc["accounts"] = [a for a in doc["accounts"] if a["id"] != "guard"] + [
        {"id": d["account"], "balances": {"RUG": "50", "USDN": "500"}} for d in detectors]
    doc["agents"] = [a for a in doc["agents"] if a["kind"] != "detector"] + [
        {"kind": "detector", **d} for d in detectors]
    scenario = load_scenario(doc)
    ledger, records, queue = Ledger(), [], []
    for entry in scenario.accounts:
        for token, balance in entry["balances"].items():
            ledger.mint(entry["id"], token, balance)
    record = lambda *values, **optional: records.append(values)  # noqa: E731
    pools = PoolBook(scenario.pools, ledger, record, "treasury", scenario.numeraire)
    book = DrainBook(pools, ledger, record, lambda *tx: queue.append(tx),
                     [a for a in scenario.agents if a["kind"] == "detector"],
                     scenario.detection, "treasury", scenario.numeraire)
    return book, records, queue


def submit_and_plan(book, window: int, records: list) -> list:
    """mallory's drain of 800 of 1000 RUG, submitted at block 4 to execute
    ``window`` blocks later, and each block's planning up to then on both
    chains; returns the (height, kind, account) of each ``plan`` line."""
    book.drain("mallory", {"op": "drain", "pool": "rug-usdn", "t_rug": amt(800),
                           "t_total": amt(1000), "window": window}, 4)
    plans = []
    for height in range(5, 5 + window):
        del records[:]
        book.on_block("home", height)
        book.on_block("alpha", height)
        plans += [(height, kind, account) for type_, kind, account, *_ in records
                  if type_ == "plan"]
    return plans


def run_queue(queue: list) -> list:
    """Run every queued transaction in the engine's (priority desc, arrival)
    order; returns each one's (kind, error type or None)."""
    outcomes = []
    for _, _, _, kind, action in sorted(queue, key=lambda tx: -tx[2]):
        try:
            action()
            outcomes.append((kind, None))
        except RugsimError as exc:
            outcomes.append((kind, type(exc).__name__))
    return outcomes


@pytest.mark.parametrize("given_away,error", [("0", None), ("1", "BalanceError")])
def test_a_drain_leaves_the_pending_list_when_it_runs(given_away, error):
    book, records, queue = drain_book()
    book.ledger.transfer("mallory", "unprotected", "RUG", amt(given_away))
    submit_and_plan(book, 3, records)
    [pending] = book.pending
    assert queue == [("alpha", 7, PRIORITY_DRAIN, "drain", queue[0][4])]
    assert run_queue(queue) == [("drain", error)]
    assert book.pending == [] and pending.executed is (error is None)


@pytest.mark.parametrize("window,plans", [
    (1, []),  # the block after submission is the drain's own
    (2, [(5, "frontrun", "frontrun-user"), (5, "frontrun", "unprotected")]),
    (4, [(5, "frontrun", "frontrun-user"), (5, "frontrun", "unprotected")]),
])
def test_protected_accounts_are_front_run_once_the_block_after_submission(window, plans):
    # guard lists frontrun-user twice and guard-2 lists it again: each
    # account is front-run once per drain, by the first detector listing it
    book, records, queue = drain_book(
        {"account": "guard", "protects": ["frontrun-user", "frontrun-user"]},
        {"account": "guard-2", "protects": ["frontrun-user", "unprotected"]})
    assert submit_and_plan(book, window, records) == plans
    assert [tx[:4] for tx in queue if tx[3] == "plan_swap"] == \
        [("alpha", 5, PRIORITY_DRAIN + 20, "plan_swap")] * len(plans)


@pytest.mark.parametrize("window", [2, 3])
def test_the_first_detector_with_a_sandwich_budget_plans_the_sandwich(window):
    book, records, queue = drain_book(
        {"account": "guard"}, {"account": "guard-2", "sandwich_budget": "50"},
        {"account": "guard-3", "sandwich_budget": "50"})
    executes_at = 4 + window
    assert submit_and_plan(book, window, records) == \
        [(executes_at - 1, "sandwich", "guard-2")]
    assert [tx[:4] for tx in queue[1:]] == [
        ("alpha", executes_at, PRIORITY_DRAIN + 20, "sandwich_pre"),
        ("alpha", executes_at, PRIORITY_SANDWICH_POST, "sandwich_post")]


def test_the_first_detector_with_a_backrun_budget_backruns_priced_when_it_runs():
    book, records, queue = drain_book(
        {"account": "guard"},
        {"account": "guard-2", "backrun_budget": "100", "backrun_cap": "40"},
        {"account": "guard-3", "backrun_budget": "100", "backrun_cap": "40"})
    assert submit_and_plan(book, 3, records) == []  # a back-run has no plan line
    drain, backrun = queue
    assert backrun[:4] == ("alpha", 7, PRIORITY_BACKRUN, "backrun")
    # after planning, guard-2 keeps 30 USDN of its 500, under its cap of 40
    book.ledger.transfer("guard-2", "unprotected", "USDN", amt(470))
    drain[4]()
    after_drain = book.pools.state("rug-usdn")
    del records[:]
    backrun[4]()
    assert records == [("swap", "rug-usdn", "guard-2", "USDN", amt(30), "RUG",
                        pool_quote(after_drain, "USDN", amt(30)), "backrun")]


@pytest.mark.parametrize("given_away,outcomes", [
    ("0", [("sandwich_pre", None), ("drain", None), ("sandwich_post", None),
           ("backrun", None)]),
    ("1", [("sandwich_pre", None), ("drain", "BalanceError"),
           ("sandwich_post", "StateError"), ("backrun", "StateError")]),
])
def test_the_post_leg_and_the_backrun_need_the_drain_to_have_executed(given_away,
                                                                      outcomes):
    book, records, queue = drain_book(
        {"account": "guard", "sandwich_budget": "50", "backrun_budget": "100",
         "backrun_cap": "40"})
    book.ledger.transfer("mallory", "unprotected", "RUG", amt(given_away))
    submit_and_plan(book, 3, records)
    del records[:]
    assert run_queue(queue) == outcomes
    memos = [values[-1] for values in records if values[0] == "swap"]
    assert memos == [kind for kind, error in outcomes if kind != "drain" and error is None]


@pytest.mark.parametrize("boost", [1, 20])
def test_protective_moves_outbid_the_drain_and_salvage_trades_below_it(boost):
    book, records, queue = drain_book(
        {"account": "guard", "protects": ["frontrun-user"], "sandwich_budget": "50",
         "backrun_budget": "100", "backrun_cap": "40"}, boost=boost)
    submit_and_plan(book, 3, records)
    assert {kind: priority for _, _, priority, kind, _ in queue} == {
        "drain": PRIORITY_DRAIN, "plan_swap": PRIORITY_DRAIN + boost,
        "sandwich_pre": PRIORITY_DRAIN + boost, "sandwich_post": PRIORITY_SANDWICH_POST,
        "backrun": PRIORITY_BACKRUN}
    assert PRIORITY_BACKRUN < PRIORITY_SANDWICH_POST < PRIORITY_DRAIN


# -- intents -----------------------------------------------------------------------


POOL = "rug-usdn"  # builtin:reference's RUG pool


def intent_book(boost: int = 20):
    """An IntentBook on a bare ledger, pool book and vault registry holding
    builtin:scam's accounts, pool and vault, with its solver and no intent;
    the tests move ``book.prices``. Returns the book, the events it records
    as (type, *values) and the transactions it queues as (chain,
    execute_at, priority, kind, action)."""
    doc = scam_scenario()
    doc["detection"]["protocol_priority_boost"] = boost
    scenario = load_scenario(doc)
    ledger, records, queue = Ledger(), Recorder(), []
    for entry in scenario.accounts:
        for token, balance in entry["balances"].items():
            ledger.mint(entry["id"], token, balance)
    pools = PoolBook(scenario.pools, ledger, records, "treasury", scenario.numeraire)
    vaults = vault_registry(ledger, *(entry["id"] for entry in scenario.accounts))
    vaults.create_vault(scenario.vaults[0], amt(1))
    book = IntentBook(scenario.tokens, pools, vaults, ledger, {"RUG": amt(1)},
                      [a for a in scenario.agents if a["kind"] == "solver"], records,
                      lambda *tx: queue.append(tx), scenario.detection, scenario.chains)
    return book, records, queue


def mk_intent(book, theta_price="0.5", theta_liq="0.3"):
    # registered at a RUG price of 1 and 1000 USDN of liquidity; the owner
    # accepts a solver fee up to 30 bps, the highest these tests bid
    params = loaded("intents.0", {"owner": ALICE, "pool": POOL, "token": "RUG",
                                  "action": IntentAction.EXIT_TO_NUMERAIRE.value,
                                  "theta_price": theta_price, "theta_liquidity": theta_liq,
                                  "solver_fee_bps": 30})
    book.register_intent(ALICE, params, 0)
    intent = book.intents[len(book.intents)]
    assert (intent.price_ref, intent.liquidity_ref) == (amt(1), amt(1000))
    return intent


def mk_solver(account, fee_bps):
    """builtin:reference's agent for ``account``, loaded as a solver bidding
    ``fee_bps``."""
    index = [agent["account"] for agent in reference_scenario()["agents"]].index(account)
    return loaded(f"agents.{index}", {"kind": "solver", "account": account,
                                      "fee_bps": fee_bps})


def test_intent_triggers_on_price():
    book = intent_book()[0]
    intent = mk_intent(book)
    solvers = [mk_solver("sol-1", 30)]
    quiet = solver_step(book, {"RUG": amt("0.6")}, {POOL: amt(1000)}, solvers)
    assert quiet == [] and intent.status is IntentStatus.PENDING
    hits = solver_step(book, {"RUG": amt("0.4")}, {POOL: amt(1000)}, solvers)
    assert len(hits) == 1 and hits[0].solver == "sol-1"
    assert intent.status is IntentStatus.EXECUTED


def test_intent_triggers_on_liquidity():
    book = intent_book()[0]
    mk_intent(book)
    solvers = [mk_solver("sol-1", 30)]
    hits = solver_step(book, {"RUG": amt(1)}, {POOL: amt(200)}, solvers)
    assert len(hits) == 1


def test_intents_are_one_shot():
    book = intent_book()[0]
    mk_intent(book)
    solvers = [mk_solver("sol-1", 30)]
    assert len(solver_step(book, {"RUG": amt("0.1")}, {POOL: amt(1000)}, solvers)) == 1
    assert solver_step(book, {"RUG": amt("0.1")}, {POOL: amt(1000)}, solvers) == []


def test_solver_auction_lowest_fee_then_id():
    book = intent_book()[0]
    mk_intent(book)
    cheap = mk_solver("sol-1", 10)
    pricey = mk_solver("alice", 20)
    [hit] = solver_step(book, {"RUG": amt("0.1")}, {POOL: amt(1000)},
                        [pricey, cheap])
    assert hit.solver == "sol-1" and hit.fee_bps == 10
    book2 = intent_book()[0]
    mk_intent(book2)
    [hit2] = solver_step(book2, {"RUG": amt("0.1")}, {POOL: amt(1000)},
                         [mk_solver("bob", 10),
                          mk_solver("alice", 10)])
    assert hit2.solver == "alice"  # fee tie: lower id wins


def test_backrun_dust_capped_by_quantum_rules():
    # a quantum of numeraire buys no output at this ratio: back-run withheld
    pool = mk_pool("0.00000001", 1000)
    assert plan_backrun(pool, "RUG", budget=amt("0.000000001"),
                        cap=amt("0.000000001")) is None


class _UnrankableBids(list):
    """Bids that fail the test if anything iterates over them."""

    def __iter__(self):
        raise AssertionError("bids were ranked")


def test_solver_step_ranks_no_bids_while_no_intent_is_pending():
    book = intent_book()[0]
    bids = _UnrankableBids([mk_solver("sol-1", 30)])
    assert solver_step(book, {"RUG": amt("0.1")}, {POOL: amt(1000)}, bids) == []


def scam_intent(**fields):
    """builtin:scam's parsed exit intent for intent-user, with ``fields``
    replaced."""
    return {**load_scenario(scam_scenario()).intents[0], **fields}


@pytest.mark.parametrize("boost,priority", [(20, PRIORITY_DRAIN + 15), (3, PRIORITY_DRAIN + 1)])
def test_intent_book_queues_each_match_once_above_the_drain(boost, priority):
    # a triggered intent is matched once and queued on its pool's chain, at
    # the height it triggered, protocol_priority_boost - 5 above the drain
    # (at least 1 above); another chain's step does not scan its pool
    book, records, queue = intent_book(boost)
    book.register_intent("intent-user", scam_intent(), 0)
    assert records == [("intent_registered", "intent-user", POOL, amt("0.5"), amt("0.3"))]
    book.prices["RUG"] = amt("0.4")
    book.on_block("home", 3)
    assert queue == []
    book.on_block("alpha", 3)
    book.on_block("alpha", 4)
    [(chain, at, queued_at, kind, _)] = queue
    assert (chain, at, queued_at, kind) == ("alpha", 3, priority, "intent")
    assert records[1:] == [("intent_triggered", 1, "intent-user", "sol-1", 30)]


def test_intent_book_pays_the_solver_in_what_each_action_leaves():
    # an exit pays the solver in the numeraire it bought, a vault deposit in
    # anticoins, and an owner who holds none of the token is skipped
    book, records, queue = intent_book()
    ledger = book.ledger
    book.register_intent("intent-user", scam_intent(), 0)
    book.register_intent("frontrun-user", scam_intent(action=IntentAction.SWAP_TO_ANTICOIN), 0)
    book.register_intent("guard", scam_intent(), 0)
    book.prices["RUG"] = amt("0.4")
    book.on_block("alpha", 3)
    for *_, action in queue:
        action()
    [swap] = [r for r in records if r[0] == "swap"]
    fee = swap[-2] * 30 / 10000
    assert fee.raw > 0
    assert ledger.balance("sol-1", "USDN") == fee
    assert ledger.balance("intent-user", "USDN") == amt(10) + swap[-2] - fee
    assert ledger.balance("sol-1", "anti:RUG@alpha") == amt("0.3")
    assert ledger.balance("frontrun-user", "anti:RUG@alpha") == amt("99.7")
    assert [r for r in records if r[0] in ("intent_executed", "intent_skipped")] == [
        ("intent_executed", 1, "intent-user", "sol-1", 30),
        ("intent_executed", 2, "frontrun-user", "sol-1", 30),
        ("intent_skipped", 3, "guard", "no holdings")]
