"""Liquidity monitoring, rug-risk signals, intervention planners
(front-run, sandwich, back-run) against pending drain events, and the
intent/solver safeguard system.

Planners are read-only: they quote against copies of pool state and return
transaction plans; the harness queues and executes plans in priority
order. The mempool model gives every drain a declared execution height, so
a plan's priority relative to the drain decides who trades first.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .core import (
    AccountId,
    DustError,
    FixedAmount,
    IlliquidError,
    ParameterError,
    PoolId,
    RugsimError,
    SCALE,
    StateError,
    TokenId,
    VaultId,
    ZERO,
    _checked,
    _div_round_half_even,
)
from .market import (
    DrainEvent,
    PoolState,
    pool_quote,
    pool_quote_exact_out,
    pool_swap,
)


class TooLateError(RugsimError):
    """The intervention window for a pending drain has closed."""


class SignalKind(enum.Enum):
    LIQUIDITY_DROP = "liquidity_drop"
    MINT_SPIKE = "mint_spike"
    WALLET_OUTFLOW = "wallet_outflow"
    VOLUME_ANOMALY = "volume_anomaly"


@dataclass(frozen=True)
class RiskSignal:
    kind: SignalKind
    magnitude: FixedAmount
    height: int

    def __post_init__(self):
        if self.magnitude.raw < 0:
            raise ParameterError("signal magnitude must be >= 0")


def _ratio(num: int, den: int) -> int:
    """Raw num / den for den > 0, rounded as FixedAmount division does. Each
    ratio that passes MAX_RAW also passes its threshold and is built into a
    signal's FixedAmount, which raises the division's RangeError."""
    return _div_round_half_even(num * SCALE, den)


def _scaled(factor: FixedAmount, raw: int) -> int:
    """Raw factor * raw, rounded and range-checked as FixedAmount
    multiplication does."""
    return _checked(_div_round_half_even(factor.raw * raw, SCALE))


class PoolMonitor:
    """Tracks the liquid-side reserve of one pool and alerts on drops."""

    def __init__(self, pool_id: PoolId, drop_threshold: FixedAmount,
                 window: int = 16):
        if not (0 < drop_threshold.raw):
            raise ParameterError("drop threshold must be > 0")
        self.pool_id = pool_id
        self.drop_threshold = drop_threshold
        self.observations: deque[tuple[int, FixedAmount]] = deque(maxlen=window)

    def observe(self, height: int, l_pool: FixedAmount) -> Optional[RiskSignal]:
        if self.observations and height <= self.observations[-1][0]:
            raise ParameterError(
                f"observation heights must increase: {height} after "
                f"{self.observations[-1][0]}")
        signal = None
        if self.observations:
            prev = self.observations[-1][1].raw
            if 0 < prev and l_pool.raw < prev:
                drop = _ratio(_checked(prev - l_pool.raw), prev)
                if drop > self.drop_threshold.raw:
                    signal = RiskSignal(SignalKind.LIQUIDITY_DROP, FixedAmount(drop),
                                        height)
        self.observations.append((height, l_pool))
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
        empty. RangeError if the sum leaves the FixedAmount range."""
        if not self.values:
            return None
        return _div_round_half_even(_checked(self.total), len(self.values))


class AuxMonitor:
    """Secondary heuristics: mint spikes, creator-wallet outflows, and
    volume anomalies against trailing per-block means.

    ``scan`` takes raw ints (1e-9 quanta) and keeps them; a magnitude is
    built as a FixedAmount only for a signal it returns. Each input and
    intermediate is range-checked where the FixedAmount expression would
    raise RangeError."""

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
        for raw in (minted, creator_outflow, creator_balance_before, volume,
                    delta_liquidity):
            _checked(raw)
        signals: list[RiskSignal] = []
        mean_mint = self._mints.mean()
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
        mean_vol = self._volumes.mean()
        if (mean_vol is not None and mean_vol > 0 and delta_liquidity <= 0
                and volume > _scaled(self.volume_spike_factor, mean_vol)):
            signals.append(RiskSignal(SignalKind.VOLUME_ANOMALY,
                                      FixedAmount(_ratio(volume, mean_vol)), height))
        self._mints.push(minted)
        self._volumes.push(volume)
        return signals


# -- intervention planners -------------------------------------------------


@dataclass(frozen=True)
class SwapLeg:
    pool: PoolId
    input_token: TokenId
    amount_in: FixedAmount
    quoted_out: FixedAmount


@dataclass(frozen=True)
class TxPlan:
    kind: str                    # "frontrun" | "sandwich_pre" | "sandwich_post" | "backrun"
    account: AccountId
    priority: int
    leg: SwapLeg
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SandwichPlan:
    pre: TxPlan
    post: TxPlan
    expected_profit: FixedAmount


def _check_window(pending: DrainEvent, now: int) -> None:
    if now >= pending.executes_at.height:
        raise TooLateError(
            f"drain executes at {pending.executes_at.height}; now {now}")


def plan_frontrun(pending: DrainEvent, pool: PoolState, rug_token: TokenId,
                  account: AccountId, holdings: FixedAmount, now: int,
                  drain_priority: int) -> Optional[TxPlan]:
    """Sell protected rug holdings ahead of the drain, at pre-drain
    reserves. Returns None when there is nothing to protect."""
    _check_window(pending, now)
    if holdings.raw <= 0:
        return None
    try:
        quoted = pool_quote(pool, rug_token, holdings)
    except (DustError, IlliquidError):
        return None
    return TxPlan(kind="frontrun", account=account, priority=drain_priority + 1,
                  leg=SwapLeg(pool.pool_id, rug_token, holdings, quoted))


def plan_sandwich(pending: DrainEvent, pool: PoolState, rug_token: TokenId,
                  account: AccountId, budget: FixedAmount, now: int,
                  drain_priority: int) -> Optional[SandwichPlan]:
    """Sell before the drain, buy the same quantity back after it.

    The expected profit is computed by simulating all three swaps in
    sequence on a pool copy; an unprofitable sandwich is withheld.
    """
    _check_window(pending, now)
    if budget.raw <= 0 or pending.t_rug_supply.raw <= 0:
        return None
    try:
        pre_out, pool_after_pre = pool_swap(pool, rug_token, budget)
        _, pool_after_drain = pool_swap(pool_after_pre, rug_token,
                                        pending.t_rug_supply)
        post_cost = pool_quote_exact_out(pool_after_drain, rug_token, budget)
    except (DustError, IlliquidError):
        return None
    profit = pre_out - post_cost
    if profit.raw <= 0:
        return None
    liquid_token = pool.other(rug_token)
    pre = TxPlan(kind="sandwich_pre", account=account, priority=drain_priority + 1,
                 leg=SwapLeg(pool.pool_id, rug_token, budget, pre_out))
    post = TxPlan(kind="sandwich_post", account=account, priority=drain_priority - 1,
                  leg=SwapLeg(pool.pool_id, liquid_token, post_cost, budget),
                  meta={"target_out": str(budget)})
    return SandwichPlan(pre=pre, post=post, expected_profit=profit)


def plan_backrun(executed: DrainEvent, pool: PoolState, rug_token: TokenId,
                 account: AccountId, budget: FixedAmount, value_cap: FixedAmount,
                 now: int, priority: int = 0) -> Optional[TxPlan]:
    """Buy the collapsed token right after the drain, up to a value cap,
    as salvage for later vault deposit."""
    if now != executed.executes_at.height:
        raise StateError(
            f"backrun plans only against a drain executed this block "
            f"(drain at {executed.executes_at.height}, now {now})")
    spend = min(budget, value_cap)
    if spend.raw <= 0:
        return None
    liquid_token = pool.other(rug_token)
    try:
        quoted = pool_quote(pool, liquid_token, spend)
    except (DustError, IlliquidError):
        return None
    return TxPlan(kind="backrun", account=account, priority=priority,
                  leg=SwapLeg(pool.pool_id, liquid_token, spend, quoted),
                  meta={"salvage": True})


# -- intents and solvers -----------------------------------------------------


class IntentAction(enum.Enum):
    EXIT_TO_NUMERAIRE = "exit_to_numeraire"
    SWAP_TO_ANTICOIN = "swap_to_anticoin"


class IntentStatus(enum.Enum):
    PENDING = "pending"
    EXECUTED = "executed"


@dataclass
class Intent:
    intent_id: int
    owner: AccountId
    pool: PoolId
    token: TokenId
    vault: Optional[VaultId]
    theta_price: FixedAmount       # trigger: price <= theta_price * price_ref
    theta_liquidity: FixedAmount   # trigger: liquidity <= theta_liquidity * liq_ref
    action: IntentAction
    price_ref: FixedAmount
    liquidity_ref: FixedAmount
    solver_fee_bps: int = 10000  # highest fee the owner accepts
    status: IntentStatus = IntentStatus.PENDING

    def __post_init__(self):
        one_raw = 10**9
        for name, frac in (("theta_price", self.theta_price),
                           ("theta_liquidity", self.theta_liquidity)):
            if not (0 < frac.raw < one_raw):
                raise ParameterError(f"{name} must be in (0, 1), got {frac}")
        if not (0 <= self.solver_fee_bps <= 10000):
            raise ParameterError(f"solver fee cap out of range: {self.solver_fee_bps}")

    def triggered(self, price: FixedAmount, liquidity: FixedAmount) -> bool:
        price_hit = price <= self.theta_price * self.price_ref
        liq_hit = liquidity <= self.theta_liquidity * self.liquidity_ref
        return price_hit or liq_hit


@dataclass(frozen=True)
class SolverBid:
    solver: AccountId
    fee_bps: int

    def __post_init__(self):
        if not (0 <= self.fee_bps <= 10000):
            raise ParameterError(f"solver fee out of range: {self.fee_bps}")


@dataclass(frozen=True)
class IntentExecution:
    intent: Intent
    solver: AccountId
    fee_bps: int
    height: int


class IntentBook:
    def __init__(self):
        self.intents: dict[int, Intent] = {}
        self._next_id = 1

    def register(self, owner: AccountId, pool: PoolId, token: TokenId,
                 theta_price: FixedAmount, theta_liquidity: FixedAmount,
                 action: IntentAction, price_ref: FixedAmount,
                 liquidity_ref: FixedAmount, vault: Optional[VaultId] = None,
                 solver_fee_bps: int = Intent.solver_fee_bps) -> Intent:
        intent = Intent(intent_id=self._next_id, owner=owner, pool=pool,
                        token=token, vault=vault, theta_price=theta_price,
                        theta_liquidity=theta_liquidity, action=action,
                        price_ref=price_ref, liquidity_ref=liquidity_ref,
                        solver_fee_bps=solver_fee_bps)
        self.intents[intent.intent_id] = intent
        self._next_id += 1
        return intent

    def pending(self) -> list[Intent]:
        return [i for i in self.intents.values() if i.status is IntentStatus.PENDING]


def solver_step(book: IntentBook, prices: dict[TokenId, FixedAmount],
                liquidity: dict[PoolId, FixedAmount], height: int,
                bids: Sequence[SolverBid]) -> list[IntentExecution]:
    """Match triggered intents to the cheapest solver this block.

    Lowest fee wins; ties break on the lower solver id; bids above an
    intent's fee cap are ignored for that intent. Intents are one-shot: a
    matched intent is consumed even before the harness applies its swap.
    Without both a trigger and an acceptable bid, intents simply persist.
    """
    pending = book.pending()
    if not bids or not pending:
        return []
    ranked = sorted(bids, key=lambda b: (b.fee_bps, b.solver.value))
    executions: list[IntentExecution] = []
    for intent in sorted(pending, key=lambda i: i.intent_id):
        price = prices.get(intent.token)
        l_pool = liquidity.get(intent.pool)
        if price is None or l_pool is None:
            continue
        best = next((b for b in ranked if b.fee_bps <= intent.solver_fee_bps), None)
        if best is not None and intent.triggered(price, l_pool):
            intent.status = IntentStatus.EXECUTED
            executions.append(IntentExecution(intent=intent, solver=best.solver,
                                              fee_bps=best.fee_bps, height=height))
    return executions
