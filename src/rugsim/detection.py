"""Liquidity monitoring, rug-risk signals, the risk monitors that scan each
chain, intervention planners (front-run, sandwich, back-run) against
pending drain events, the drain book that times them, and the intent book,
which registers intents and runs each chain's solver auction and every
intent it matches.

The planners only price a move against a pending drain: each quotes
against a copy of pool state and returns the one amount the drain book
needs, or None to withhold the move. The drain book alone decides when
each move is planned and at what priority it trades around the drain.
"""

from __future__ import annotations

import enum
from collections import deque
from functools import partial
from typing import Callable, NamedTuple, Optional, Sequence

from .core import (
    HOME_TOKEN,
    ChainId,
    DustError,
    FixedAmount,
    IlliquidError,
    ParameterError,
    PoolId,
    RangeError,
    SCALE,
    StateError,
    TokenId,
    ZERO,
    _checked,
    _div_round_half_even,
)
from .ledger import BalanceError, Ledger
from .market import (
    Pool,
    PoolBook,
    PoolState,
    execute_drain,
    pool_quote,
    pool_quote_exact_out,
    pool_swap,
    spot_price,
)
from .trace import Trace, make_event
from .vault import VaultRegistry


class SignalKind(enum.Enum):
    LIQUIDITY_DROP = "liquidity_drop"
    MINT_SPIKE = "mint_spike"
    WALLET_OUTFLOW = "wallet_outflow"
    VOLUME_ANOMALY = "volume_anomaly"


class RiskSignal:
    __slots__ = ("kind", "magnitude", "height")

    def __init__(self, kind: SignalKind, magnitude: FixedAmount, height: int):
        if magnitude.raw < 0:
            raise ParameterError("signal magnitude must be >= 0")
        self.kind, self.magnitude, self.height = kind, magnitude, height


def _ratio(num: int, den: int) -> int:
    """Raw num / den for den > 0, rounded as FixedAmount division does. Each
    ratio that passes MAX_RAW also passes its threshold and is built into a
    signal's FixedAmount, which raises the division's RangeError."""
    return _div_round_half_even(num * SCALE, den)


def _scaled(factor: FixedAmount, raw: int) -> int:
    """Raw factor * raw, rounded as FixedAmount multiplication does. It is a
    threshold, only compared against, so it is exact: an amount in the range
    never passes one beyond it."""
    return _div_round_half_even(factor.raw * raw, SCALE)


class PoolMonitor:
    """Tracks the liquid-side reserve of one pool, in raw quanta, and alerts
    on drops."""

    def __init__(self, pool_id: PoolId, drop_threshold: FixedAmount):
        self.pool_id = pool_id
        self.drop_threshold = drop_threshold
        # (height, raw liquidity) of the latest observation
        self.last: Optional[tuple[int, int]] = None

    def observe(self, height: int, l_pool: int) -> Optional[RiskSignal]:
        last = self.last
        if last is not None and height <= last[0]:
            raise ParameterError(
                f"observation heights must increase: {height} after {last[0]}")
        signal = None
        if last is not None:
            prev = last[1]
            if 0 < prev and l_pool < prev:
                drop = _ratio(_checked(prev - l_pool), prev)
                if drop > self.drop_threshold.raw:
                    signal = RiskSignal(SignalKind.LIQUIDITY_DROP, FixedAmount(drop),
                                        height)
        self.last = (height, l_pool)
        return signal


class TrailingWindow:
    """The last ``size`` raw amounts and their running sum."""

    def __init__(self, size: int):
        self.values: deque[int] = deque(maxlen=size)
        self.total = 0

    def push(self, raw: int) -> None:
        values = self.values
        if len(values) == values.maxlen:
            if not values:  # a zero-length window keeps nothing
                return
            self.total -= values[0]
        values.append(raw)
        self.total += raw

    def mean(self) -> Optional[int]:
        """The exact sum over the window, divided by its length and rounded
        half-even, as a FixedAmount division would; None while the window is
        empty. A mean of amounts in the FixedAmount range is in it too."""
        if not self.values:
            return None
        return _div_round_half_even(self.total, len(self.values))


class AuxMonitor:
    """Secondary heuristics: mint spikes, creator-wallet outflows, and
    volume anomalies against trailing per-block means.

    ``scan`` takes raw ints (1e-9 quanta) and keeps them; a magnitude is
    built as a FixedAmount only for a signal it returns. Each input and
    intermediate is range-checked where the FixedAmount expression would
    raise RangeError. A scan whose inputs pass that check pushes them onto
    the trailing windows before it compares, so a later raise leaves the
    windows moving."""

    def __init__(self, mint_spike_factor: FixedAmount,
                 wallet_outflow_fraction: FixedAmount,
                 volume_spike_factor: FixedAmount, window: int = 8):
        self.mint_spike_factor = mint_spike_factor
        self.wallet_outflow_fraction = wallet_outflow_fraction
        self.volume_spike_factor = volume_spike_factor
        self._mints = TrailingWindow(window)
        self._volumes = TrailingWindow(window)

    def scan(self, height: int, minted: int, creator_outflow: int,
             creator_balance_before: int, volume: int,
             delta_liquidity: int) -> list[RiskSignal]:
        # only the sign of delta_liquidity is read, so it has no range
        for raw in (minted, creator_outflow, creator_balance_before, volume):
            _checked(raw)
        mean_mint, mean_vol = self._mints.mean(), self._volumes.mean()
        self._mints.push(minted)
        self._volumes.push(volume)
        signals: list[RiskSignal] = []
        if mean_mint is not None and minted > 0:
            if mean_mint == 0 or minted > _scaled(self.mint_spike_factor, mean_mint):
                magnitude = _ratio(minted, mean_mint) if mean_mint > 0 else minted
                signals.append(RiskSignal(SignalKind.MINT_SPIKE,
                                          FixedAmount(magnitude), height))
        if creator_balance_before > 0 and creator_outflow > 0:
            fraction = _ratio(creator_outflow, creator_balance_before)
            if fraction > self.wallet_outflow_fraction.raw:
                signals.append(RiskSignal(SignalKind.WALLET_OUTFLOW,
                                          FixedAmount(fraction), height))
        if (mean_vol is not None and mean_vol > 0 and delta_liquidity <= 0
                and volume > _scaled(self.volume_spike_factor, mean_vol)):
            signals.append(RiskSignal(SignalKind.VOLUME_ANOMALY,
                                      FixedAmount(_ratio(volume, mean_vol)), height))
        return signals


class RiskMonitors:
    """Each chain's monitors (``params`` is the parsed ``detection``
    section): a ``PoolMonitor`` on each pool that trades the ``numeraire``,
    and an ``AuxMonitor`` over the chain's mints, the outflows of the
    ``creators``' priced tokens (of ``processes``, every chain's priced
    tokens) and its pools' volume and liquidity change. ``movement`` is the
    ledger's recorder: it records each movement at ``clock``'s ``height`` and
    ``chain`` in ``trace``, and tallies it if a scan reads it, so a movement
    is one call. ``on_block`` scans a chain and records its signals through
    ``record``."""

    def __init__(self, pools: PoolBook, ledger: Ledger,
                 processes: dict[ChainId, list[tuple[TokenId, dict]]],
                 token_chain: dict[TokenId, ChainId], creators: Sequence[dict], params: dict,
                 numeraire: TokenId, trace: Trace, clock: object, record: Callable[..., None]):
        self.pools, self.ledger, self.trace, self.clock, self.record = (
            pools, ledger, trace, clock, record)
        # chain -> its aux monitor; its (pool, liquidity monitor if it trades the
        # numeraire) pairs; the tokens whose mints its scan reads (R is excluded);
        # the (creator, priced token) keys whose outflows it reads
        self.aux = {chain: AuxMonitor(params["mint_spike_factor"],
                                      params["wallet_outflow_fraction"],
                                      params["volume_spike_factor"]) for chain in processes}
        self.pools_of = {chain: [(pool, PoolMonitor(pool.pool_id, params["drop_threshold"])
                                  if pool.liquid_token == numeraire else None)
                                 for pool in pools.pools.values() if pool.chain == chain]
                         for chain in processes}
        self.mint_tokens = {chain: [token for token, at in token_chain.items()
                                    if at == chain and token != HOME_TOKEN]
                            for chain in processes}
        self.outflow_keys = {chain: [(creator["account"], token) for creator in creators
                                     for token, _ in priced]
                             for chain, priced in processes.items()}
        self._prev_liquidity = {pid: pools.liquidity_raw(pid) for pid in pools.pools}
        # raw mints per scanned token and outflows per scanned (sender, token)
        # since the scan that reads them last took them
        self.unscanned_mints = dict.fromkeys((t for t in token_chain if t != HOME_TOKEN), 0)
        self.unscanned_outflows = dict.fromkeys(
            (key for keys in self.outflow_keys.values() for key in keys), 0)

    def movement(self, event_type: str, *values) -> None:
        clock = self.clock
        self.trace.record(make_event(event_type, clock.height, clock.chain, values, {}))
        if event_type == "mint":
            _, token, amount, _ = values
            totals, key = self.unscanned_mints, token
        elif event_type == "transfer":
            src, _, token, amount, _ = values
            totals, key = self.unscanned_outflows, (src, token)
        else:
            return
        unscanned = totals.get(key)
        if unscanned is not None:
            totals[key] = unscanned + amount.raw

    def on_block(self, chain: ChainId, height: int) -> None:
        """Each pool's monitor observes its liquid side; the aux scan reads
        the change in it and the volume since this chain's last scan
        (everything the previous block did, nothing of this one yet). All
        its inputs are exact raw-int sums, of amounts of one token or of
        several; the scan range-checks them, and a refused block is recorded
        as a failed aux_scan (it reads only the sign of the liquidity change,
        which has no range)."""
        volume = delta_liq = 0
        prev_liquidity = self._prev_liquidity
        for pool, monitor in self.pools_of[chain]:
            pool_id = pool.pool_id
            liquid = self.pools.liquidity_raw(pool_id)
            if monitor is not None:
                signal = monitor.observe(height, liquid)
                if signal is not None:
                    self.record("risk_signal", signal.kind.value, signal.magnitude,
                                pool=pool_id)
            volume += pool.volume
            pool.volume = 0
            delta_liq += liquid - prev_liquidity[pool_id]
            prev_liquidity[pool_id] = liquid
        minted = 0
        mints, outflows = self.unscanned_mints, self.unscanned_outflows
        for token in self.mint_tokens[chain]:
            minted += mints[token]
            mints[token] = 0
        # largest single creator-wallet outflow of a chain token
        outflow = balance_before = 0
        for key in self.outflow_keys[chain]:
            moved = outflows[key]
            outflows[key] = 0
            if moved > outflow:
                outflow = moved
                balance_before = self.ledger.balance_raw(*key) + moved
        try:
            signals = self.aux[chain].scan(height, minted, outflow, balance_before, volume,
                                           delta_liq)
        except RangeError as exc:
            self.record("failed", "aux_scan", type(exc).__name__, str(exc))
        else:
            for signal in signals:
                self.record("risk_signal", signal.kind.value, signal.magnitude)


# -- intervention planners -------------------------------------------------


def plan_frontrun(pool: PoolState, rug_token: TokenId,
                  holdings: FixedAmount) -> Optional[FixedAmount]:
    """The quote for selling protected rug holdings ahead of the drain, at
    pre-drain reserves; None when there is nothing to protect."""
    if holdings.raw <= 0:
        return None
    try:
        return pool_quote(pool, rug_token, holdings)
    except (DustError, IlliquidError):
        return None


def plan_sandwich(pool: PoolState, rug_token: TokenId, budget: FixedAmount,
                  t_rug: FixedAmount) -> Optional[FixedAmount]:
    """The profit of selling ``budget`` before a drain of ``t_rug`` and
    buying the same quantity back after it.

    The profit is computed by simulating all three swaps in sequence on a
    pool copy; None withholds an unprofitable sandwich.
    """
    if budget.raw <= 0 or t_rug.raw <= 0:
        return None
    try:
        pre_out, pool_after_pre = pool_swap(pool, rug_token, budget)
        _, pool_after_drain = pool_swap(pool_after_pre, rug_token, t_rug)
        post_cost = pool_quote_exact_out(pool_after_drain, rug_token, budget)
    except (DustError, IlliquidError):
        return None
    profit = pre_out - post_cost
    return profit if profit.raw > 0 else None


def plan_backrun(pool: PoolState, rug_token: TokenId, budget: FixedAmount,
                 cap: FixedAmount) -> Optional[FixedAmount]:
    """The numeraire to spend buying the collapsed token right after the
    drain, up to a value cap, as salvage for later vault deposit; None
    when that buys nothing."""
    spend = min(budget, cap)
    if spend.raw <= 0:
        return None
    try:
        pool_quote(pool, pool.other(rug_token), spend)
    except (DustError, IlliquidError):
        return None
    return spend


# -- the drain book ---------------------------------------------------------

# queue priorities: higher executes first within a block; protective plans
# sit above PRIORITY_DRAIN by the scenario's protocol_priority_boost
PRIORITY_DRAIN = 0
PRIORITY_SANDWICH_POST = -10
PRIORITY_BACKRUN = -20


class PendingDrain:
    """A creator's parsed ``drain`` step against ``pool``, visible on the
    pool's chain from the block it is submitted until the block it
    executes at."""

    __slots__ = ("pool", "chain", "creator", "rug_token", "t_rug", "t_total",
                 "submitted_at", "executes_at", "executed", "pre_out")

    def __init__(self, pool: Pool, creator: str, rug_token: TokenId, step: dict,
                 height: int):
        self.pool, self.chain = pool.pool_id, pool.chain
        self.creator, self.rug_token = creator, rug_token
        self.t_rug, self.t_total = step["t_rug"], step["t_total"]
        self.submitted_at, self.executes_at = height, height + step["window"]
        self.executed = False
        # what the sandwich pre leg bought, once it has swapped
        self.pre_out: Optional[FixedAmount] = None


class DrainBook:
    """The drains of every chain and the moves the parsed ``detectors`` make
    against them. The book runs its script op (``OPS``), queues each drain
    and move through ``enqueue`` on the pool's chain, trades in the pool
    book and records its events through ``record``; it times the moves, and
    the planners only price them.

    A drain leaves ``pending`` when its transaction runs, at
    ``executes_at``, whether it succeeds or fails; the sandwich post leg
    and the back-run against it fail unless it executed. Protected accounts
    are front-run at ``submitted_at + 1`` if that is before ``executes_at``,
    each once, by the first detector that lists it; the first detector with
    a sandwich budget plans its sandwich at ``executes_at - 1``, and the
    first with a back-run budget its back-run at ``executes_at``, priced
    when it runs. Front-runs and the pre leg outbid the drain by
    ``protocol_priority_boost`` (of ``params``, the parsed ``detection``
    section); the post leg and the back-run trade after it."""

    OPS = ("drain",)

    def __init__(self, pools: PoolBook, ledger: Ledger, record: Callable[..., None],
                 enqueue: Callable[..., None], detectors: list[dict], params: dict,
                 treasury: str, numeraire: TokenId):
        self.pools, self.ledger, self.record, self.enqueue = pools, ledger, record, enqueue
        self.boost = params["protocol_priority_boost"]
        self.treasury_fraction = params["sandwich_treasury_fraction"]
        self.treasury, self.numeraire = treasury, numeraire
        self.pending: list[PendingDrain] = []
        # (kind, account, detector) in planning order: detector by detector,
        # the accounts it protects that no earlier one does, then its sandwich
        # and its back-run if it is the first with that budget
        sandwicher = next((d for d in detectors if d["sandwich_budget"].raw > 0), None)
        backrunner = next((d for d in detectors if d["backrun_budget"].raw > 0), None)
        self.moves: list[tuple[str, str, dict]] = []
        protected: set[str] = set()
        for det in detectors:
            for name in det["protects"]:
                if name not in protected:
                    protected.add(name)
                    self.moves.append(("frontrun", name, det))
            if det is sandwicher:
                self.moves.append(("sandwich", det["account"], det))
            if det is backrunner:
                self.moves.append(("backrun", det["account"], det))

    def drain(self, account: str, step: dict, height: int) -> None:
        pool = self.pools.pools[step["pool"]]
        rug_token = pool.token_x if pool.token_y == self.numeraire else pool.token_y
        pending = PendingDrain(pool, account, rug_token, step, height)
        self.pending.append(pending)
        self.enqueue(pool.chain, pending.executes_at, PRIORITY_DRAIN, "drain",
                     partial(self._execute, pending))
        self.record("drain_submitted", pool.pool_id, account, pending.t_rug,
                    pending.t_total, pending.executes_at)

    def on_block(self, chain: str, height: int) -> None:
        """Plan the moves due at ``height`` against this chain's drains."""
        for pending in self.pending:
            if pending.chain != chain:
                continue
            pool_id, rug, executes_at = pending.pool, pending.rug_token, pending.executes_at
            frontrun = height == pending.submitted_at + 1 < executes_at
            sandwich = height == executes_at - 1
            pool = self.pools.state(pool_id) if frontrun or sandwich else None
            for kind, account, det in self.moves:
                if kind == "frontrun" and frontrun:
                    holdings = self.ledger.balance(account, rug)
                    quoted = plan_frontrun(pool, rug, holdings)
                    if quoted is not None:
                        self.record("plan", "frontrun", account, pool_id, amount=holdings,
                                    quoted=quoted)
                        self.enqueue(chain, height, PRIORITY_DRAIN + self.boost, "plan_swap",
                                     partial(self.pools.trade, pool_id, account, rug,
                                             holdings, "frontrun"))
                elif kind == "sandwich" and sandwich:
                    budget = min(det["sandwich_budget"], self.ledger.balance(account, rug))
                    profit = plan_sandwich(pool, rug, budget, pending.t_rug)
                    if profit is not None:
                        self.record("plan", "sandwich", account, pool_id,
                                    expected_profit=profit)
                        self.enqueue(chain, executes_at, PRIORITY_DRAIN + self.boost,
                                     "sandwich_pre",
                                     partial(self._sandwich_pre, pending, account, budget))
                        self.enqueue(chain, executes_at, PRIORITY_SANDWICH_POST,
                                     "sandwich_post",
                                     partial(self._sandwich_post, pending, account, budget))
                elif kind == "backrun" and height == executes_at:
                    self.enqueue(chain, height, PRIORITY_BACKRUN, "backrun",
                                 partial(self._backrun, pending, account,
                                         det["backrun_budget"], det["backrun_cap"]))

    def _execute(self, pending: PendingDrain) -> None:
        self.pending.remove(pending)
        pool_id, rug_token, creator = pending.pool, pending.rug_token, pending.creator
        held = self.ledger.balance(creator, rug_token)
        if held < pending.t_rug:
            raise BalanceError(
                f"creator holds {held} {rug_token}, cannot drain {pending.t_rug}")
        liquid_out, naive_target, pool_after = execute_drain(
            self.pools.state(pool_id), rug_token, pending.t_rug, pending.t_total)
        if liquid_out.raw > 0:
            self.pools.move(creator, pool_id, rug_token, pending.t_rug, liquid_out, "drain")
        self.record("drain_executed", pool_id, creator, naive_target, liquid_out,
                    spot_price(pool_after))
        pending.executed = True

    def _sandwich_pre(self, pending: PendingDrain, account: str,
                      amount: FixedAmount) -> None:
        pending.pre_out = self.pools.trade(pending.pool, account, pending.rug_token, amount,
                                           "sandwich_pre")

    def _sandwich_post(self, pending: PendingDrain, account: str,
                       target: FixedAmount) -> None:
        pool_id, rug_token = pending.pool, pending.rug_token
        if not pending.executed:
            raise StateError(f"the drain on {pool_id} did not execute")
        pool = self.pools.state(pool_id)
        liquid_token = pool.other(rug_token)
        cost = pool_quote_exact_out(pool, rug_token, target)
        held = self.ledger.balance(account, liquid_token)
        if held < cost:
            raise StateError(f"sandwich post-leg needs {cost}, holds {held}")
        self.pools.trade(pool_id, account, liquid_token, cost, "sandwich_post")
        if pending.pre_out is None:
            return
        profit = pending.pre_out - cost
        if profit.raw > 0 and self.treasury_fraction.raw > 0:
            cut = profit * self.treasury_fraction
            self.ledger.transfer(account, self.treasury, liquid_token, cut,
                                 memo="sandwich-profit")
            self.record("sandwich_settled", account, profit, cut)

    def _backrun(self, pending: PendingDrain, account: str, budget: FixedAmount,
                 cap: FixedAmount) -> None:
        # priced at execution time: the quote needs the post-drain reserves
        if not pending.executed:
            raise StateError(f"the drain on {pending.pool} did not execute")
        pool = self.pools.state(pending.pool)
        numeraire = pool.other(pending.rug_token)
        budget = min(budget, self.ledger.balance(account, numeraire))
        spend = plan_backrun(pool, pending.rug_token, budget, cap)
        if spend is not None:
            self.pools.trade(pending.pool, account, numeraire, spend, "backrun")


# -- intents and solvers -----------------------------------------------------


class IntentAction(enum.Enum):
    EXIT_TO_NUMERAIRE = "exit_to_numeraire"
    SWAP_TO_ANTICOIN = "swap_to_anticoin"


class IntentStatus(enum.Enum):
    PENDING = "pending"
    EXECUTED = "executed"


class Intent:
    """One owner's intent: its parsed intent entry (a top-level ``intents[i]``
    or a ``register_intent`` step) as ``params``, which it reads and never
    writes, and the pool's price and liquidity when it was registered. It
    triggers when the price falls to ``theta_price`` of its reference or
    the liquidity to ``theta_liquidity`` of its; ``solver_fee_bps`` is the
    highest fee its owner accepts."""

    __slots__ = ("intent_id", "owner", "params", "price_ref", "liquidity_ref", "status")

    def __init__(self, intent_id: int, owner: str, params: dict, price_ref: FixedAmount,
                 liquidity_ref: FixedAmount):
        self.intent_id, self.owner, self.params = intent_id, owner, params
        self.price_ref, self.liquidity_ref = price_ref, liquidity_ref
        self.status = IntentStatus.PENDING

    def triggered(self, price: FixedAmount, liquidity: FixedAmount) -> bool:
        return (price <= self.params["theta_price"] * self.price_ref
                or liquidity <= self.params["theta_liquidity"] * self.liquidity_ref)


class IntentExecution(NamedTuple):
    intent: Intent
    solver: str
    fee_bps: int


class IntentBook:
    """Every owner's intents, by id. The book runs its script op (``OPS``),
    which registers each top-level ``intents[i]`` entry too, and each chain
    step's auction among the parsed ``solvers`` (``on_block``) over the
    chain's pools and priced ``tokens``, at the engine's live ``prices``.
    It queues each match through ``enqueue`` as an ``intent`` transaction,
    ``protocol_priority_boost - 5`` (at least 1; of ``params``, the parsed
    ``detection`` section) above a drain, and runs it: the exit swap or the
    deposit (into the intent's vault, else that of the first of ``chains``
    with one), then the solver's fee."""

    OPS = ("register_intent",)

    def __init__(self, tokens: Sequence[dict], pools: PoolBook, vaults: VaultRegistry,
                 ledger: Ledger, prices: dict[TokenId, FixedAmount], solvers: Sequence[dict],
                 record: Callable[..., None], enqueue: Callable[..., None], params: dict,
                 chains: Sequence[ChainId]):
        self.pools, self.vaults, self.ledger, self.prices = pools, vaults, ledger, prices
        self.solvers, self.record, self.enqueue, self.chains = solvers, record, enqueue, chains
        self.priority = PRIORITY_DRAIN + max(1, params["protocol_priority_boost"] - 5)
        # id -> intent; ids count up from 1 in registration order
        self.intents: dict[int, Intent] = {}
        # chain -> (its priced tokens, its pools), in document order
        self._scanned: dict[ChainId, tuple[list[TokenId], list[PoolId]]] = {
            chain: ([t["id"] for t in tokens
                     if t["chain"] == chain and t["price_process"] is not None],
                    [pid for pid, pool in pools.pools.items() if pool.chain == chain])
            for chain in chains}

    def pending(self) -> list[Intent]:
        return [i for i in self.intents.values() if i.status is IntentStatus.PENDING]

    def register_intent(self, account: str, step: dict, height: int) -> None:
        """Register ``account``'s intent at its token's price and its pool's
        liquidity now."""
        pool_id, intent_id = step["pool"], len(self.intents) + 1
        self.intents[intent_id] = Intent(intent_id, account, step,
                                         self.prices.get(step["token"], ZERO),
                                         FixedAmount(self.pools.liquidity_raw(pool_id)))
        self.record("intent_registered", account, pool_id, step["theta_price"],
                    step["theta_liquidity"])

    def on_block(self, chain: ChainId, height: int) -> None:
        """Match this chain's triggered intents to solvers and queue each
        match to run at ``height``; prices and liquidity are gathered only
        while an intent is pending."""
        prices = liquidity = {}
        if self.pending():
            tokens, pool_ids = self._scanned[chain]
            prices = {token: self.prices[token] for token in tokens}
            liquidity = {pid: FixedAmount(self.pools.liquidity_raw(pid)) for pid in pool_ids}
        for execution in solver_step(self, prices, liquidity, self.solvers):
            self.record("intent_triggered", execution.intent.intent_id,
                        execution.intent.owner, execution.solver, execution.fee_bps)
            self.enqueue(chain, height, self.priority, "intent",
                         partial(self._execute, execution, height))

    def _execute(self, execution: IntentExecution, height: int) -> None:
        intent = execution.intent
        owner, params = intent.owner, intent.params
        token, pool_id = params["token"], params["pool"]
        holdings = self.ledger.balance(owner, token)
        if holdings.raw <= 0:
            self.record("intent_skipped", intent.intent_id, owner, "no holdings")
            return
        if params["action"] is IntentAction.EXIT_TO_NUMERAIRE:
            proceeds = self.pools.trade(pool_id, owner, token, holdings, "intent")
            fee = proceeds * execution.fee_bps / 10000
            pool = self.pools.pools[pool_id]
            fee_token = pool.token_y if token == pool.token_x else pool.token_x
        else:  # swap_to_anticoin: vault deposit, fee paid in anticoins
            vault = (self.vaults.vault(params["vault"]) if params["vault"] is not None
                     else self.vaults.vault_for_token(token, self.chains))
            self.vaults.deposit(owner, {"vault": vault.vault_id, "amount": holdings}, height)
            fee = holdings * execution.fee_bps / 10000
            fee_token = vault.anticoin
        if fee.raw > 0:
            self.ledger.transfer(owner, execution.solver, fee_token, fee, memo="solver-fee")
        self.record("intent_executed", intent.intent_id, owner, execution.solver,
                    execution.fee_bps)


def solver_step(book: IntentBook, prices: dict[TokenId, FixedAmount],
                liquidity: dict[PoolId, FixedAmount],
                solvers: Sequence[dict]) -> list[IntentExecution]:
    """Match triggered intents to the cheapest of the parsed solver agents
    this block.

    Lowest ``fee_bps`` wins; ties break on the lower account; solvers above
    an intent's fee cap are ignored for that intent. Intents are one-shot: a
    matched intent is consumed even before its book executes it.
    Without both a trigger and an acceptable solver, intents simply persist.
    """
    pending = book.pending()
    if not solvers or not pending:
        return []
    ranked = sorted(solvers, key=lambda s: (s["fee_bps"], s["account"]))
    executions: list[IntentExecution] = []
    for intent in sorted(pending, key=lambda i: i.intent_id):
        params = intent.params
        price = prices.get(params["token"])
        l_pool = liquidity.get(params["pool"])
        if price is None or l_pool is None:
            continue
        best = next((s for s in ranked if s["fee_bps"] <= params["solver_fee_bps"]), None)
        if best is not None and intent.triggered(price, l_pool):
            intent.status = IntentStatus.EXECUTED
            executions.append(IntentExecution(intent=intent, solver=best["account"],
                                              fee_bps=best["fee_bps"]))
    return executions
