"""Perpetual futures on rugged tokens, collateralized by anticoins.

Collateral is valued once, at entry (the anticoin is itself inversely
pegged to the underlying, so live revaluation would double the exposure;
a config toggle enables it anyway). Funding is asymmetric: the majority
side pays the minority, scaled up when pool liquidity is thin. Liquidation
is hybrid: unhealthy positions are flagged, liquidators get a bounty
window, and the protocol auto-liquidates after the deadline, swapping the
seized anticoins through the protocol-owned AMM. Positions and funding
are valued in raw ints, each result rounded half-even once, exactly as
its rational expression (written in each docstring) would be.

Each enabled vault has a ``PerpBook``; the ``PerpMarkets`` book holds them
all and runs the game, the ``open_position`` op and each chain's funding,
liquidations and settlement sales (``on_block``), recording its events.
"""

from __future__ import annotations

import enum
from typing import Callable, NamedTuple, Optional, Sequence

from .core import (
    FixedAmount,
    IlliquidError,
    ParameterError,
    RugsimError,
    SCALE,
    TokenId,
    VaultId,
    ZERO,
    _div_round_half_even,
    amt,
)
from .ledger import BalanceError, Ledger
from .market import PoolBook
from .scenario import Direction
from .vault import Vault, VaultRegistry, anticoin_value

# where seized collateral waits for its AMM sale
SETTLEMENT = "perps-settlement"


class PositionStatus(enum.Enum):
    OPEN = "open"
    FLAGGED = "flagged"
    LIQUIDATED = "liquidated"


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
    entry = position.entry_price.raw
    collateral_value = position.collateral_ca * per_unit
    return FixedAmount(_div_round_half_even(
        sign * position.leverage.raw * collateral_value.raw * (mark_price.raw - entry),
        SCALE * entry))


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
    rate = FixedAmount(_div_round_half_even(alpha.raw * n_long, total))
    return min(rate, alpha)


def funding_rate_final(rate: FixedAmount, l_min: FixedAmount,
                       l_pool: FixedAmount) -> FixedAmount:
    """Liquidity scaling: rate * (1 + l_min / l_pool)."""
    if l_pool.raw <= 0:
        raise IlliquidError("funding scaling needs a funded pool")
    return FixedAmount(_div_round_half_even(rate.raw * (l_pool.raw + l_min.raw), l_pool.raw))


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

    def apply_funding(self, ledger: Ledger, l_pool: FixedAmount,
                      treasury: str) -> Optional[FundingRound]:
        """Charge the majority side, distribute to the minority pro-rata by
        notional. Collateral moves inside the escrow account, so the round
        is zero-sum by construction; the rounding remainder goes to the
        treasury. A single-sided or tied book accrues nothing. The caller
        runs a round each interval_blocks blocks."""
        positions = [p for p in self.positions.values()  # by id
                     if p.status is PositionStatus.OPEN]
        n_long = sum(p.direction is Direction.LONG for p in positions)
        n_short = len(positions) - n_long
        if n_long == 0 or n_short == 0 or n_long == n_short:
            return None
        rate = funding_rate_final(
            funding_rate(n_long, n_short, self.params["alpha_base"]),
            self.params["l_min"], l_pool)
        paying = Direction.LONG if n_long > n_short else Direction.SHORT
        payers = [p for p in positions if p.direction is paying]
        receivers = [p for p in positions if p.direction is not paying]

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
        for pid, p in self.positions.items():  # by id
            if p.status is PositionStatus.OPEN:
                health = position_health(p, mark_price, live)
                if health > params["maintenance_fraction"]:
                    continue
                p.status, p.flagged_at = PositionStatus.FLAGGED, height
                events.append(LiquidationEvent(pid, "flagged"))
            elif p.status is PositionStatus.FLAGGED:
                health = position_health(p, mark_price, live)
            else:
                continue
            if bidder is not None and p.flagged_at < height:
                fee = params["liquidator_fee_fraction"] * p.collateral_ca
                if fee.raw > 0:
                    ledger.transfer(self.escrow_account, bidder, self.anticoin,
                                    fee, memo=f"liq-fee:{self.vault_id}:{pid}")
                event = LiquidationEvent(pid, "liquidated", liquidator=bidder, fee_ca=fee,
                                         swap_ca=p.collateral_ca - fee)
                memo = f"liq-settle:{self.vault_id}:{pid}"
            elif health.raw == 0 or height >= p.flagged_at + params["liquidator_deadline_blocks"]:
                event = LiquidationEvent(pid, "auto_liquidated", swap_ca=p.collateral_ca)
                memo = f"liq-auto:{self.vault_id}:{pid}"
            else:
                continue
            if event.swap_ca.raw > 0:
                ledger.transfer(self.escrow_account, settlement_account, self.anticoin,
                                event.swap_ca, memo=memo)
            p.collateral_ca, p.status = ZERO, PositionStatus.LIQUIDATED
            events.append(event)
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


class PerpMarkets:
    """The perp market of each vault the parsed ``perps`` section enables
    (none without one), of every chain. The book runs its script op
    (``OPS``) and each chain's markets (``on_block``) at the engine's live
    ``prices``, and sells seized collateral for ``treasury`` through the
    section's ``amm_pool``; the first of the parsed ``liquidators`` by
    account id bids on every flagged position."""

    OPS = ("open_position",)

    def __init__(self, params: Optional[dict], vaults: VaultRegistry, pools: PoolBook,
                 prices: dict[TokenId, FixedAmount], ledger: Ledger,
                 record: Callable[..., None], liquidators: Sequence[dict], treasury: str,
                 numeraire: TokenId):
        self.vaults, self.pools, self.prices, self.ledger = vaults, pools, prices, ledger
        self.record, self.treasury, self.numeraire = record, treasury, numeraire
        self.amm_pool = params["amm_pool"] if params is not None else None
        self.bidder = min((agent["account"] for agent in liquidators), default=None)
        self.books: dict[VaultId, PerpBook] = {}
        # chain -> (book, its vault) in enabled_vaults order
        self._markets: dict[str, list[tuple[PerpBook, Vault]]] = {}
        for vault_id in params["enabled_vaults"] if params is not None else ():
            vault = vaults.vault(vault_id)
            book = self.books[vault_id] = PerpBook(vault_id, vault.anticoin, params)
            self._markets.setdefault(vault.chain, []).append((book, vault))

    def open_position(self, account: str, step: dict, height: int) -> None:
        vault_id = step["vault"]
        vault = self.vaults.vault(vault_id)
        mark = self.prices[vault.rugged_token]
        position = self.books[vault_id].open_position(
            self.ledger, account, step["collateral"], step["leverage"], step["direction"],
            mark, anticoin_value(vault.price_at_creation, mark))
        self.record("position_opened", vault_id, account, position.position_id,
                    position.collateral_ca, position.leverage, step["direction"].value, mark)

    def on_block(self, chain: str, height: int) -> None:
        """Run each of this chain's markets at its mark (a vault's token is
        priced, never below its floor): a funding round on each
        ``interval_blocks`` boundary while the AMM pool holds liquidity,
        then flagging and liquidation. The liquidations are recorded after
        all of their moves, each followed by the sale of its seized
        collateral; a sale that fails is recorded and the rest go on."""
        for book, vault in self._markets.get(chain, ()):
            mark = self.prices[vault.rugged_token]
            if height % book.params["interval_blocks"] == 0 and self.amm_pool is not None:
                l_pool = self.pools.liquidity_raw(self.amm_pool)
                round_ = (book.apply_funding(self.ledger, FixedAmount(l_pool), self.treasury)
                          if l_pool > 0 else None)
                if round_ is not None:
                    self.record("funding_round", book.vault_id, round_.rate,
                                round_.paying_side.value, round_.transfer_count,
                                round_.treasury_remainder)
            events = book.flag_and_liquidate(
                self.ledger, mark, self.bidder, height, SETTLEMENT,
                unit_value=anticoin_value(vault.price_at_creation, mark))
            for event in events:
                self.record("liquidation", book.vault_id, event.position_id, event.kind,
                            event.liquidator, event.fee_ca, event.swap_ca)
                if event.swap_ca.raw > 0 and self.amm_pool is not None:
                    try:
                        proceeds = self.pools.trade(self.amm_pool, SETTLEMENT, book.anticoin,
                                                    event.swap_ca, "liq-settle")
                        self.ledger.transfer(SETTLEMENT, self.treasury, self.numeraire,
                                             proceeds, memo="liq-proceeds")
                    except RugsimError as exc:
                        self.record("failed", "liquidation_swap", type(exc).__name__,
                                    str(exc), vault=book.vault_id)

    def snapshot(self) -> dict:
        return {"perps": {vault_id: book.snapshot()
                          for vault_id, book in sorted(self.books.items())}}
