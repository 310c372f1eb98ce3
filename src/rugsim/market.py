"""Price processes for the three rug-pull archetypes, constant-product AMM
pools, liquidity-drain execution, and the peg-keeper that steers the
anticoin pool toward its inverse-log valuation.

Pool operations are pure: they take a PoolState and return a new one. Swap
output is rounded *down* to the quantum (in the pool's favor), so the
product of reserves never decreases; the deviation from the exact
constant-product solution stays below one quantum per operation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Union

from .core import (
    AccountId,
    BlockTime,
    DustError,
    FixedAmount,
    IlliquidError,
    MAX_RAW,
    ParameterError,
    PoolId,
    QUANTUM,
    RangeError,
    RugsimError,
    SCALE,
    TokenId,
    ZERO,
    _div_round_half_even,
    _exp_neg_raw,
    amt,
)


class RatioError(RugsimError):
    """Liquidity provision deviates from the current reserve ratio."""


DEFAULT_EPSILON_FLOOR = QUANTUM  # residual price floor: one quantum


class RugKind(enum.Enum):
    SCAM = "scam"
    CATASTROPHIC = "catastrophic"
    SENTIMENT = "sentiment"


@dataclass(frozen=True)
class PriceProcess:
    """Deterministic price path of a rugged token.

    Only the parameters of the active kind are read:
    scam uses tau_rug, catastrophic uses lam, sentiment uses alpha_sent.
    """

    kind: RugKind
    p0: FixedAmount
    tau_rug: FixedAmount = ZERO
    lam: FixedAmount = ZERO
    alpha_sent: FixedAmount = ZERO
    epsilon_floor: FixedAmount = DEFAULT_EPSILON_FLOOR

    def __post_init__(self):
        if self.p0.raw <= 0:
            raise ParameterError(f"initial price must be > 0, got {self.p0}")
        if self.epsilon_floor.raw <= 0:
            raise ParameterError("epsilon floor must be > 0")


def _height(t: Union[BlockTime, int]) -> int:
    return t.height if isinstance(t, BlockTime) else int(t)


def _decay(proc: PriceProcess, x_num: int, x_den: int) -> FixedAmount:
    # max(p0 * e**-x, floor) for x = x_num / x_den, from the exact integer kernel
    return max(FixedAmount(_exp_neg_raw(proc.p0.raw, x_num, x_den)), proc.epsilon_floor)


def price_scam(proc: PriceProcess, t: Union[BlockTime, int]) -> FixedAmount:
    """max(p0 * e**(-t/tau_rug), floor): near-instant collapse."""
    if proc.kind is not RugKind.SCAM:
        raise ParameterError(f"not a scam process: {proc.kind}")
    if proc.tau_rug.raw <= 0:
        raise ParameterError("tau_rug must be > 0")
    return _decay(proc, _height(t) * SCALE, proc.tau_rug.raw)


def price_catastrophic(proc: PriceProcess, t: Union[BlockTime, int]) -> FixedAmount:
    """max(p0 * e**(-lam*t), floor): gradual exponential failure."""
    if proc.kind is not RugKind.CATASTROPHIC:
        raise ParameterError(f"not a catastrophic process: {proc.kind}")
    if proc.lam.raw < 0:
        raise ParameterError("lam must be >= 0")
    return _decay(proc, proc.lam.raw * _height(t), SCALE)


def price_sentiment(proc: PriceProcess, t: Union[BlockTime, int]) -> FixedAmount:
    """max(p0 / (1 + alpha*t), floor): hyperbolic sentiment decay."""
    if proc.kind is not RugKind.SENTIMENT:
        raise ParameterError(f"not a sentiment process: {proc.kind}")
    if proc.alpha_sent.raw < 0:
        raise ParameterError("alpha_sent must be >= 0")
    height = _height(t)
    denom = FixedAmount(SCALE + proc.alpha_sent.raw * height)
    return max(proc.p0 / denom, proc.epsilon_floor)


def price_at(proc: PriceProcess, t: Union[BlockTime, int]) -> FixedAmount:
    if proc.kind is RugKind.SCAM:
        return price_scam(proc, t)
    if proc.kind is RugKind.CATASTROPHIC:
        return price_catastrophic(proc, t)
    return price_sentiment(proc, t)


# -- constant-product pool ------------------------------------------------


@dataclass(frozen=True)
class PoolState:
    pool_id: PoolId
    token_x: TokenId
    token_y: TokenId
    reserve_x: FixedAmount
    reserve_y: FixedAmount
    fee_bps: int = 0
    k_last_raw: int = 0  # exact raw_x * raw_y product after the last mutation
    volume_x: FixedAmount = ZERO
    volume_y: FixedAmount = ZERO

    def __post_init__(self):
        if not (0 <= self.fee_bps <= 10000):
            raise ParameterError(f"fee_bps out of range: {self.fee_bps}")
        if self.reserve_x.raw < 0 or self.reserve_y.raw < 0:
            raise ParameterError("negative reserve")
        if self.k_last_raw == 0:
            object.__setattr__(self, "k_last_raw", self.reserve_x.raw * self.reserve_y.raw)

    def reserve_of(self, token: TokenId) -> FixedAmount:
        if token == self.token_x:
            return self.reserve_x
        if token == self.token_y:
            return self.reserve_y
        raise ParameterError(f"token {token} not in pool {self.pool_id}")

    def other(self, token: TokenId) -> TokenId:
        if token == self.token_x:
            return self.token_y
        if token == self.token_y:
            return self.token_x
        raise ParameterError(f"token {token} not in pool {self.pool_id}")

    def is_closed(self) -> bool:
        return self.reserve_x.raw == 0 and self.reserve_y.raw == 0


def spot_price(pool: PoolState) -> FixedAmount:
    """Mid price of token_x in token_y units (fee-exclusive)."""
    if pool.reserve_x.raw <= 0:
        raise IlliquidError(f"pool {pool.pool_id} has no token_x reserve")
    return pool.reserve_y / pool.reserve_x


def _swap_output_raw(r_in: int, r_out: int, dx: int, fee_bps: int) -> int:
    """dy = r_out * dx_eff / (r_in + dx_eff) in raw quanta, exact rational,
    floored; dx_eff is dx less the fee."""
    eff_num = dx * (10000 - fee_bps)            # dx_eff * 10000, in raw units
    return (r_out * eff_num) // (r_in * 10000 + eff_num)


def pool_swap(pool: PoolState, input_token: TokenId,
              dx: FixedAmount) -> tuple[FixedAmount, PoolState]:
    """Swap dx of input_token in, returning (dy out, new pool state).

    The fee portion of dx stays in the reserves (LP revenue); dy is computed
    against the fee-reduced input and floored to the quantum.
    """
    if dx.raw <= 0:
        raise ParameterError(f"swap input must be > 0, got {dx}")
    r_in = pool.reserve_of(input_token)
    out_token = pool.other(input_token)
    r_out = pool.reserve_of(out_token)
    if r_in.raw <= QUANTUM.raw or r_out.raw <= QUANTUM.raw:
        raise IlliquidError(f"pool {pool.pool_id} is drained")

    dy_raw = _swap_output_raw(r_in.raw, r_out.raw, dx.raw, pool.fee_bps)
    if dy_raw <= 0:
        raise DustError(f"swap of {dx} produces no output at the quantum")
    dy = FixedAmount(dy_raw)

    new_in = r_in + dx
    new_out = r_out - dy
    if input_token == pool.token_x:
        new_x, new_y = new_in, new_out
        vol_x, vol_y = pool.volume_x + dx, pool.volume_y
    else:
        new_x, new_y = new_out, new_in
        vol_x, vol_y = pool.volume_x, pool.volume_y + dx
    new_pool = PoolState(pool.pool_id, pool.token_x, pool.token_y, new_x, new_y,
                         pool.fee_bps, new_x.raw * new_y.raw, vol_x, vol_y)
    return dy, new_pool


def pool_quote(pool: PoolState, input_token: TokenId, dx: FixedAmount) -> FixedAmount:
    """Output of pool_swap without mutating anything."""
    dy, _ = pool_swap(pool, input_token, dx)
    return dy


def pool_quote_exact_out(pool: PoolState, out_token: TokenId,
                         dy: FixedAmount) -> FixedAmount:
    """Input of the *other* token needed to withdraw exactly dy of out_token.

    Rounded up to the quantum (taker pays the rounding), fee grossed up.
    """
    if dy.raw <= 0:
        raise ParameterError(f"requested output must be > 0, got {dy}")
    r_out = pool.reserve_of(out_token)
    in_token = pool.other(out_token)
    r_in = pool.reserve_of(in_token)
    if dy >= r_out:
        raise IlliquidError(f"pool {pool.pool_id} cannot supply {dy} {out_token}")
    # dx_eff = r_in * dy / (r_out - dy); dx = dx_eff * 10000 / (10000 - fee)
    num = r_in.raw * dy.raw * 10000
    den = (r_out.raw - dy.raw) * (10000 - pool.fee_bps)
    dx_raw = -((-num) // den)  # ceiling division
    return FixedAmount(dx_raw)


def pool_add_liquidity(pool: PoolState, dx: FixedAmount, dy: FixedAmount) -> PoolState:
    """Deposit both tokens at the current reserve ratio (1-quantum slack)."""
    if dx.raw <= 0 or dy.raw <= 0:
        raise ParameterError("liquidity amounts must be > 0")
    if not pool.is_closed() and pool.reserve_x.raw > 0:
        expected_dy = dx * pool.reserve_y / pool.reserve_x
        if abs(dy - expected_dy) > QUANTUM:
            raise RatioError(
                f"deposit ratio mismatch: got dy={dy}, expected {expected_dy}")
    new_x = pool.reserve_x + dx
    new_y = pool.reserve_y + dy
    return PoolState(pool.pool_id, pool.token_x, pool.token_y, new_x, new_y,
                     pool.fee_bps, new_x.raw * new_y.raw, pool.volume_x, pool.volume_y)


def pool_remove_liquidity(pool: PoolState,
                          share: FixedAmount) -> tuple[FixedAmount, FixedAmount, PoolState]:
    """Withdraw a fraction of both reserves; share=1 closes the pool."""
    if not (0 < share.raw <= SCALE):
        raise ParameterError(f"share must be in (0, 1], got {share}")
    keep = FixedAmount(SCALE) - share
    new_x = pool.reserve_x * keep
    new_y = pool.reserve_y * keep
    out_x = pool.reserve_x - new_x
    out_y = pool.reserve_y - new_y
    new_pool = PoolState(pool.pool_id, pool.token_x, pool.token_y, new_x, new_y,
                         pool.fee_bps, new_x.raw * new_y.raw, pool.volume_x,
                         pool.volume_y)
    return out_x, out_y, new_pool


# -- liquidity drains ------------------------------------------------------


@dataclass(frozen=True)
class DrainEvent:
    """A creator's pending liquidity drain, visible one or more blocks
    before it executes (the detection window)."""

    pool: PoolId
    creator: AccountId
    t_rug_supply: FixedAmount
    t_total_supply: FixedAmount
    submitted_at: BlockTime
    executes_at: BlockTime

    def __post_init__(self):
        if self.t_rug_supply.raw < 0 or self.t_rug_supply > self.t_total_supply:
            raise ParameterError(
                f"need 0 <= T_rug <= T_total, got {self.t_rug_supply}/{self.t_total_supply}")
        if self.executes_at.height < self.submitted_at.height:
            raise ParameterError("executes_at before submitted_at")


@dataclass(frozen=True)
class DrainResult:
    liquid_out: FixedAmount       # realized via the swap, slippage included
    naive_target: FixedAmount     # (T_rug/T_total) * L_pool, the optimistic figure
    pool: PoolState


def execute_drain(ev: DrainEvent, pool: PoolState, rug_token: TokenId,
                  now: Union[BlockTime, int]) -> DrainResult:
    """Realize a drain by swapping the creator's rug holdings through the
    pool. Both the naive proportional figure and the slippage-reduced
    realized proceeds are reported; the swap is ground truth.
    """
    if _height(now) < ev.executes_at.height:
        raise ParameterError(
            f"drain executes at {ev.executes_at.height}, now {_height(now)}")
    liquid_token = pool.other(rug_token)
    l_pool = pool.reserve_of(liquid_token)
    if ev.t_total_supply.raw > 0:
        naive = l_pool * ev.t_rug_supply / ev.t_total_supply
    else:
        naive = ZERO
    if ev.t_rug_supply.raw == 0:
        return DrainResult(ZERO, naive, pool)
    liquid_out, new_pool = pool_swap(pool, rug_token, ev.t_rug_supply)
    return DrainResult(liquid_out, naive, new_pool)


# -- peg keeper ------------------------------------------------------------


@dataclass(frozen=True)
class PegTrade:
    input_token: TokenId
    amount_in: FixedAmount
    amount_out: FixedAmount
    pool: PoolState


DEFAULT_PEG_TOLERANCE = amt("0.005")
PEG_BISECTION_ITERATIONS = 64


def peg_keeper_step(pool: PoolState, peg_value: FixedAmount, budget: FixedAmount,
                    tolerance: FixedAmount = DEFAULT_PEG_TOLERANCE) -> Optional[PegTrade]:
    """Largest swap within budget moving spot strictly toward peg_value
    without crossing it. Returns None when already in band or budget is 0.

    Spot above peg: sell token_x (the pegged asset); below: spend token_y.
    Trade size is found by bounded bisection at quantum granularity.
    """
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
    x_in = input_token == pool.token_x
    r_in = pool.reserve_of(input_token).raw
    r_out = pool.reserve_of(pool.other(input_token)).raw
    volume_in = (pool.volume_x if x_in else pool.volume_y).raw
    illiquid = r_in <= QUANTUM.raw or r_out <= QUANTUM.raw
    fee_bps = pool.fee_bps
    above, peg_raw, band_raw = gap.raw > 0, peg_value.raw, band.raw

    def crosses(amount_raw: int) -> bool:
        # pool_swap then spot_price, in raw integers: an illiquid pool or a
        # dust output is no crossing; a reserve, volume or spot past
        # MAX_RAW raises the RangeError their FixedAmount would
        if illiquid:
            return False
        dy_raw = _swap_output_raw(r_in, r_out, amount_raw, fee_bps)
        if dy_raw <= 0:
            return False
        new_in = r_in + amount_raw
        for raw in (new_in, volume_in + amount_raw):
            if raw > MAX_RAW:
                raise RangeError(f"fixed-point overflow: raw={raw}")
        new_x, new_y = (new_in, r_out - dy_raw) if x_in else (r_out - dy_raw, new_in)
        new_spot = _div_round_half_even(new_y * SCALE, new_x)
        if new_spot > MAX_RAW:
            raise RangeError(f"fixed-point overflow: raw={new_spot}")
        new_gap = new_spot - peg_raw
        return (new_gap > 0) != above and abs(new_gap) > band_raw

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
