"""Liquidity monitoring, rug-risk signals, intervention planners
(front-run, sandwich, back-run) against pending drain events, and the
intent/solver safeguard system.

The planners only price a move against a pending drain: each quotes
against a copy of pool state and returns the one amount the harness needs,
or None to withhold the move. The harness alone decides when each move is
planned and at what priority it trades around the drain.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import NamedTuple, Optional, Sequence

from .core import (
    DustError,
    FixedAmount,
    IlliquidError,
    ParameterError,
    PoolId,
    SCALE,
    TokenId,
    VaultId,
    ZERO,
    _checked,
    _div_round_half_even,
)
from .market import (
    PoolState,
    pool_quote,
    pool_quote_exact_out,
    pool_swap,
)


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
    """Raw factor * raw, rounded and range-checked as FixedAmount
    multiplication does."""
    return _checked(_div_round_half_even(factor.raw * raw, SCALE))


class PoolMonitor:
    """Tracks the liquid-side reserve of one pool and alerts on drops."""

    def __init__(self, pool_id: PoolId, drop_threshold: FixedAmount):
        self.pool_id = pool_id
        self.drop_threshold = drop_threshold
        # (height, liquidity) of the latest observation
        self.last: Optional[tuple[int, FixedAmount]] = None

    def observe(self, height: int, l_pool: FixedAmount) -> Optional[RiskSignal]:
        last = self.last
        if last is not None and height <= last[0]:
            raise ParameterError(
                f"observation heights must increase: {height} after {last[0]}")
        signal = None
        if last is not None:
            prev = last[1].raw
            if 0 < prev and l_pool.raw < prev:
                drop = _ratio(_checked(prev - l_pool.raw), prev)
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


# -- intents and solvers -----------------------------------------------------


class IntentAction(enum.Enum):
    EXIT_TO_NUMERAIRE = "exit_to_numeraire"
    SWAP_TO_ANTICOIN = "swap_to_anticoin"


class IntentStatus(enum.Enum):
    PENDING = "pending"
    EXECUTED = "executed"


class Intent:
    __slots__ = ("intent_id", "owner", "pool", "token", "vault", "theta_price",
                 "theta_liquidity", "action", "price_ref", "liquidity_ref", "solver_fee_bps",
                 "status")

    def __init__(self, intent_id: int, owner: str, pool: PoolId, token: TokenId,
                 vault: Optional[VaultId], theta_price: FixedAmount,
                 theta_liquidity: FixedAmount, action: IntentAction, price_ref: FixedAmount,
                 liquidity_ref: FixedAmount, solver_fee_bps: int):
        self.intent_id, self.owner, self.pool = intent_id, owner, pool
        self.token, self.vault, self.action = token, vault, action
        # triggers: price <= theta_price * price_ref, or
        # liquidity <= theta_liquidity * liquidity_ref
        self.theta_price, self.theta_liquidity = theta_price, theta_liquidity
        self.price_ref, self.liquidity_ref = price_ref, liquidity_ref
        self.solver_fee_bps = solver_fee_bps  # highest fee the owner accepts
        self.status = IntentStatus.PENDING

    def triggered(self, price: FixedAmount, liquidity: FixedAmount) -> bool:
        price_hit = price <= self.theta_price * self.price_ref
        liq_hit = liquidity <= self.theta_liquidity * self.liquidity_ref
        return price_hit or liq_hit


class SolverBid:
    __slots__ = ("solver", "fee_bps")

    def __init__(self, solver: str, fee_bps: int):
        self.solver, self.fee_bps = solver, fee_bps


class IntentExecution(NamedTuple):
    intent: Intent
    solver: str
    fee_bps: int


class IntentBook:
    def __init__(self):
        self.intents: dict[int, Intent] = {}
        self._next_id = 1

    def register(self, owner: str, pool: PoolId, token: TokenId,
                 theta_price: FixedAmount, theta_liquidity: FixedAmount,
                 action: IntentAction, price_ref: FixedAmount,
                 liquidity_ref: FixedAmount, vault: Optional[VaultId],
                 solver_fee_bps: int) -> Intent:
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
                liquidity: dict[PoolId, FixedAmount],
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
    ranked = sorted(bids, key=lambda b: (b.fee_bps, b.solver))
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
                                              fee_bps=best.fee_bps))
    return executions
