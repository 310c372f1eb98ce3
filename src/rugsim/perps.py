"""Perpetual futures on rugged tokens, collateralized by anticoins.

Collateral is valued once, at entry (the anticoin is itself inversely
pegged to the underlying, so live revaluation would double the exposure;
a config toggle enables it anyway). Funding is asymmetric: the majority
side pays the minority, scaled up when pool liquidity is thin. Liquidation
is hybrid: unhealthy positions are flagged, liquidators get a bounty
window, and the protocol auto-liquidates after the deadline, swapping the
seized anticoins through the protocol-owned AMM.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import NamedTuple, Optional

from .core import (
    FixedAmount,
    IlliquidError,
    ParameterError,
    TokenId,
    VaultId,
    ZERO,
    amt,
    quantize,
)
from .ledger import BalanceError, Ledger


class Direction(enum.Enum):
    LONG = "long"
    SHORT = "short"


class PositionStatus(enum.Enum):
    OPEN = "open"
    FLAGGED = "flagged"
    LIQUIDATED = "liquidated"
    CLOSED = "closed"


class Position:
    __slots__ = ("position_id", "owner", "collateral_ca", "leverage", "direction",
                 "entry_price", "unit_value_at_entry", "status", "flagged_at")

    def __init__(self, position_id: int, owner: str,
                 collateral_ca: FixedAmount, leverage: FixedAmount, direction: Direction,
                 entry_price: FixedAmount, unit_value_at_entry: FixedAmount):
        self.position_id, self.owner = position_id, owner
        self.collateral_ca, self.leverage, self.direction = collateral_ca, leverage, direction
        self.entry_price = entry_price
        self.unit_value_at_entry = unit_value_at_entry  # anticoin value per unit, frozen
        self.status = PositionStatus.OPEN
        self.flagged_at: Optional[int] = None

    @property
    def notional_ca(self) -> FixedAmount:
        return self.leverage * self.collateral_ca


def position_pnl(position: Position, mark_price: FixedAmount,
                 unit_value: Optional[FixedAmount] = None) -> FixedAmount:
    """Signed linear PnL: dir * leverage * collateral_value * return.

    Collateral is valued at entry by default; pass unit_value to revalue
    it live (the collateral is itself inversely pegged to the underlying,
    so live revaluation doubles the exposure -- off unless asked for).
    """
    if mark_price.raw <= 0:
        raise ParameterError("mark price must be > 0")
    per_unit = unit_value if unit_value is not None else position.unit_value_at_entry
    sign = 1 if position.direction is Direction.LONG else -1
    move = Fraction(mark_price.raw - position.entry_price.raw, position.entry_price.raw)
    collateral_value = position.collateral_ca * per_unit
    pnl = (sign * position.leverage.as_fraction()
           * collateral_value.as_fraction() * move)
    return quantize(pnl)


def position_health(position: Position, mark_price: FixedAmount,
                    unit_value: Optional[FixedAmount] = None) -> FixedAmount:
    """(collateral value + pnl) / collateral value; 0 for worthless collateral."""
    per_unit = unit_value if unit_value is not None else position.unit_value_at_entry
    cv = position.collateral_ca * per_unit
    if cv.raw <= 0:
        return ZERO
    equity = cv + position_pnl(position, mark_price, unit_value)
    if equity.raw <= 0:
        return ZERO
    return equity / cv


def funding_rate(n_long: int, n_short: int, alpha: FixedAmount) -> FixedAmount:
    """alpha * n_long / (n_long + n_short), always in [0, alpha]."""
    total = n_long + n_short
    if total <= 0:
        raise ParameterError("funding rate undefined on an empty market")
    if n_long < 0 or n_short < 0:
        raise ParameterError("position counts must be >= 0")
    rate = quantize(alpha.as_fraction() * Fraction(n_long, total))
    return min(rate, alpha)


def funding_rate_final(rate: FixedAmount, l_min: FixedAmount,
                       l_pool: FixedAmount) -> FixedAmount:
    """Liquidity scaling: rate * (1 + l_min / l_pool)."""
    if l_pool.raw <= 0:
        raise IlliquidError("funding scaling needs a funded pool")
    scaled = rate.as_fraction() * (1 + Fraction(l_min.raw, l_pool.raw))
    return quantize(scaled)


class FundingRound(NamedTuple):
    rate: FixedAmount
    paying_side: Direction
    transfer_count: int  # positions that paid or received funding
    treasury_remainder: FixedAmount


class LiquidationEvent(NamedTuple):
    position_id: int
    kind: str                    # "flagged" | "liquidated" | "auto_liquidated"
    liquidator: Optional[str] = None
    fee_ca: FixedAmount = ZERO
    swap_ca: FixedAmount = ZERO  # anticoins handed to the protocol AMM


class PerpBook:
    """Single-writer position book for one vault's perpetual market, run by
    the scenario's parsed ``perps`` section, which it reads and never writes."""

    def __init__(self, vault_id: VaultId, anticoin: TokenId, params: dict):
        self.vault_id = vault_id
        self.anticoin = anticoin
        self.params = params
        self.positions: dict[int, Position] = {}
        self._next_id = 1

    @property
    def escrow_account(self) -> str:
        return f"perps:{self.vault_id}"

    def open_position(self, ledger: Ledger, user: str,
                      collateral_ca: FixedAmount, leverage: FixedAmount,
                      direction: Direction, mark_price: FixedAmount,
                      unit_value: FixedAmount) -> Position:
        if collateral_ca.raw <= 0:
            raise ParameterError("collateral must be > 0")
        if not (amt(1) <= leverage <= self.params["max_leverage"]):
            raise ParameterError(
                f"leverage {leverage} outside [1, {self.params['max_leverage']}]")
        if mark_price.raw <= 0:
            raise ParameterError("mark price must be > 0")
        balance = ledger.balance(user, self.anticoin)
        if balance < collateral_ca:
            raise BalanceError(f"{user} holds {balance}, needs {collateral_ca}")
        ledger.transfer(user, self.escrow_account, self.anticoin,
                        collateral_ca, memo=f"perp-open:{self.vault_id}")
        position = Position(
            position_id=self._next_id, owner=user,
            collateral_ca=collateral_ca, leverage=leverage, direction=direction,
            entry_price=mark_price, unit_value_at_entry=unit_value)
        self.positions[position.position_id] = position
        self._next_id += 1
        return position

    def open_positions(self) -> list[Position]:
        return [p for p in self.positions.values() if p.status is PositionStatus.OPEN]

    def side_counts(self) -> tuple[int, int]:
        longs = sum(1 for p in self.open_positions() if p.direction is Direction.LONG)
        shorts = sum(1 for p in self.open_positions() if p.direction is Direction.SHORT)
        return longs, shorts

    def apply_funding(self, ledger: Ledger, l_pool: FixedAmount,
                      treasury: str) -> Optional[FundingRound]:
        """Charge the majority side, distribute to the minority pro-rata by
        notional. Collateral moves inside the escrow account, so the round
        is zero-sum by construction; the rounding remainder goes to the
        treasury. A single-sided or tied book accrues nothing. The caller
        runs a round each interval_blocks blocks."""
        n_long, n_short = self.side_counts()
        if n_long == 0 or n_short == 0 or n_long == n_short:
            return None
        rate = funding_rate_final(
            funding_rate(n_long, n_short, self.params["alpha_base"]),
            self.params["l_min"], l_pool)
        paying = Direction.LONG if n_long > n_short else Direction.SHORT
        payers = [p for p in self.open_positions() if p.direction is paying]
        receivers = [p for p in self.open_positions() if p.direction is not paying]
        payers.sort(key=lambda p: p.position_id)
        receivers.sort(key=lambda p: p.position_id)

        transfer_count = 0
        pot = ZERO
        for p in payers:
            owed = min(rate * p.notional_ca, p.collateral_ca)
            if owed.raw <= 0:
                continue
            p.collateral_ca = p.collateral_ca - owed
            pot = pot + owed
            transfer_count += 1

        total_weight = sum(r.notional_ca.raw for r in receivers)
        distributed = ZERO
        if pot.raw > 0 and total_weight > 0:
            for r in receivers:
                share = FixedAmount(pot.raw * r.notional_ca.raw // total_weight)
                if share.raw <= 0:
                    continue
                r.collateral_ca = r.collateral_ca + share
                distributed = distributed + share
                transfer_count += 1
        remainder = pot - distributed
        if remainder.raw > 0:
            ledger.transfer(self.escrow_account, treasury, self.anticoin,
                            remainder, memo=f"funding-dust:{self.vault_id}")
        return FundingRound(rate=rate, paying_side=paying,
                            transfer_count=transfer_count, treasury_remainder=remainder)

    def flag_and_liquidate(self, ledger: Ledger, mark_price: FixedAmount,
                           bidder: Optional[str], height: int, settlement_account: str,
                           unit_value: Optional[FixedAmount] = None) -> list[LiquidationEvent]:
        """Flag unhealthy positions and execute due liquidations.

        The bidder, if any, liquidates every position flagged before
        ``height``. A wiped-out position (health 0) is seized the same
        block; a merely unhealthy one gives liquidators a bounty window
        before the protocol steps in. Seized anticoins, minus the liquidator
        fee, are moved to the settlement account for the protocol AMM swap
        (swap_ca on the event).
        """
        events: list[LiquidationEvent] = []
        params = self.params
        live = unit_value if params["revalue_collateral"] else None
        for pid in sorted(self.positions):
            p = self.positions[pid]
            if p.status is PositionStatus.OPEN:
                health = position_health(p, mark_price, live)
                if health <= params["maintenance_fraction"]:
                    p.status = PositionStatus.FLAGGED
                    p.flagged_at = height
                    events.append(LiquidationEvent(pid, "flagged"))
            if p.status is not PositionStatus.FLAGGED:
                continue

            wiped = position_health(p, mark_price, live).raw == 0
            deadline_passed = height >= p.flagged_at + params["liquidator_deadline_blocks"]
            if bidder is not None and p.flagged_at < height:
                fee = params["liquidator_fee_fraction"] * p.collateral_ca
                rest = p.collateral_ca - fee
                if fee.raw > 0:
                    ledger.transfer(self.escrow_account, bidder, self.anticoin,
                                    fee, memo=f"liq-fee:{self.vault_id}:{pid}")
                if rest.raw > 0:
                    ledger.transfer(self.escrow_account, settlement_account,
                                    self.anticoin, rest,
                                    memo=f"liq-settle:{self.vault_id}:{pid}")
                p.collateral_ca = ZERO
                p.status = PositionStatus.LIQUIDATED
                events.append(LiquidationEvent(pid, "liquidated", liquidator=bidder,
                                               fee_ca=fee, swap_ca=rest))
            elif wiped or deadline_passed:
                rest = p.collateral_ca
                if rest.raw > 0:
                    ledger.transfer(self.escrow_account, settlement_account,
                                    self.anticoin, rest,
                                    memo=f"liq-auto:{self.vault_id}:{pid}")
                p.collateral_ca = ZERO
                p.status = PositionStatus.LIQUIDATED
                events.append(LiquidationEvent(pid, "auto_liquidated", swap_ca=rest))
        return events

    def snapshot(self) -> dict:
        return {
            str(pid): {
                "owner": p.owner,
                "collateral_ca": str(p.collateral_ca),
                "leverage": str(p.leverage),
                "direction": p.direction.value,
                "entry_price": str(p.entry_price),
                "status": p.status.value,
            }
            for pid, p in sorted(self.positions.items())
        }
