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
import math
from typing import NamedTuple, Optional

from .core import (
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
DEFAULT_PRICE_RATE = ZERO  # the rates a price process's kind does not read
DEFAULT_FEE_BPS = 0
# a pool's LP token is lp:<pool id>; the engine alone issues it
LP_TOKEN_PREFIX = "lp:"


class RugKind(enum.Enum):
    SCAM = "scam"
    CATASTROPHIC = "catastrophic"
    SENTIMENT = "sentiment"


class PriceProcess:
    """Deterministic price path of a rugged token.

    Only the parameters of the active kind are read:
    scam uses tau_rug, catastrophic uses lam, sentiment uses alpha_sent.
    """

    __slots__ = ("kind", "p0", "tau_rug", "lam", "alpha_sent", "epsilon_floor")

    def __init__(self, kind: RugKind, p0: FixedAmount,
                 tau_rug: FixedAmount = DEFAULT_PRICE_RATE,
                 lam: FixedAmount = DEFAULT_PRICE_RATE,
                 alpha_sent: FixedAmount = DEFAULT_PRICE_RATE,
                 epsilon_floor: FixedAmount = DEFAULT_EPSILON_FLOOR):
        if p0.raw <= 0:
            raise ParameterError(f"initial price must be > 0, got {p0}")
        if epsilon_floor.raw <= 0:
            raise ParameterError("epsilon floor must be > 0")
        self.kind, self.p0, self.tau_rug = kind, p0, tau_rug
        self.lam, self.alpha_sent, self.epsilon_floor = lam, alpha_sent, epsilon_floor


def _decay(proc: PriceProcess, x_num: int, x_den: int) -> FixedAmount:
    # max(p0 * e**-x, floor) for x = x_num / x_den, from the exact integer kernel
    return max(FixedAmount(_exp_neg_raw(proc.p0.raw, x_num, x_den)), proc.epsilon_floor)


def price_scam(proc: PriceProcess, height: int) -> FixedAmount:
    """max(p0 * e**(-t/tau_rug), floor): near-instant collapse."""
    if proc.kind is not RugKind.SCAM:
        raise ParameterError(f"not a scam process: {proc.kind}")
    if proc.tau_rug.raw <= 0:
        raise ParameterError("tau_rug must be > 0")
    return _decay(proc, height * SCALE, proc.tau_rug.raw)


def price_catastrophic(proc: PriceProcess, height: int) -> FixedAmount:
    """max(p0 * e**(-lam*t), floor): gradual exponential failure."""
    if proc.kind is not RugKind.CATASTROPHIC:
        raise ParameterError(f"not a catastrophic process: {proc.kind}")
    if proc.lam.raw < 0:
        raise ParameterError("lam must be >= 0")
    return _decay(proc, proc.lam.raw * height, SCALE)


def price_sentiment(proc: PriceProcess, height: int) -> FixedAmount:
    """max(p0 / (1 + alpha*t), floor): hyperbolic sentiment decay."""
    if proc.kind is not RugKind.SENTIMENT:
        raise ParameterError(f"not a sentiment process: {proc.kind}")
    if proc.alpha_sent.raw < 0:
        raise ParameterError("alpha_sent must be >= 0")
    denom = FixedAmount(SCALE + proc.alpha_sent.raw * height)
    return max(proc.p0 / denom, proc.epsilon_floor)


def price_at(proc: PriceProcess, height: int) -> FixedAmount:
    if proc.kind is RugKind.SCAM:
        return price_scam(proc, height)
    if proc.kind is RugKind.CATASTROPHIC:
        return price_catastrophic(proc, height)
    return price_sentiment(proc, height)


# -- constant-product pool ------------------------------------------------


class PoolState:
    """One pool's reserves, fee and cumulative volumes; a value, never
    changed once made, and equal to another with the same fields."""

    __slots__ = ("pool_id", "token_x", "token_y", "reserve_x", "reserve_y", "fee_bps",
                 "volume_x", "volume_y")

    def __init__(self, pool_id: PoolId, token_x: TokenId, token_y: TokenId,
                 reserve_x: FixedAmount, reserve_y: FixedAmount,
                 fee_bps: int = DEFAULT_FEE_BPS, volume_x: FixedAmount = ZERO,
                 volume_y: FixedAmount = ZERO):
        if not (0 <= fee_bps <= 10000):
            raise ParameterError(f"fee_bps out of range: {fee_bps}")
        if reserve_x.raw < 0 or reserve_y.raw < 0:
            raise ParameterError("negative reserve")
        self.pool_id = pool_id
        self.token_x = token_x
        self.token_y = token_y
        self.reserve_x = reserve_x
        self.reserve_y = reserve_y
        self.fee_bps = fee_bps
        self.volume_x = volume_x
        self.volume_y = volume_y

    def __eq__(self, other: object) -> bool:
        if type(other) is not PoolState:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

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
                         pool.fee_bps, vol_x, vol_y)
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


def pool_add_liquidity(pool: PoolState, dx: FixedAmount, dy: FixedAmount,
                       lp_supply: FixedAmount) -> tuple[FixedAmount, PoolState]:
    """Deposit both tokens at the current reserve ratio (1-quantum slack).
    Returns the LP tokens minted, the smaller pro-rata claim on ``lp_supply``
    rounded down so the pool never over-issues (with no supply, as at
    genesis or once closed, isqrt(dx*dy)), and the new pool."""
    if dx.raw <= 0 or dy.raw <= 0:
        raise ParameterError("liquidity amounts must be > 0")
    if pool.reserve_x.raw > 0:
        expected_dy = dx * pool.reserve_y / pool.reserve_x
        if abs(dy - expected_dy) > QUANTUM:
            raise RatioError(
                f"deposit ratio mismatch: got dy={dy}, expected {expected_dy}")
    if lp_supply.raw == 0:
        minted = math.isqrt(dx.raw * dy.raw)
    elif pool.reserve_x.raw == 0 or pool.reserve_y.raw == 0:
        raise IlliquidError(f"pool {pool.pool_id} is drained")
    else:
        minted = min(dx.raw * lp_supply.raw // pool.reserve_x.raw,
                     dy.raw * lp_supply.raw // pool.reserve_y.raw)
        if minted == 0:
            raise DustError(f"a deposit of {dx} and {dy} mints no LP token")
    return FixedAmount(minted), PoolState(
        pool.pool_id, pool.token_x, pool.token_y, pool.reserve_x + dx, pool.reserve_y + dy,
        pool.fee_bps, pool.volume_x, pool.volume_y)


def pool_remove_liquidity(pool: PoolState, share: FixedAmount, lp_supply: FixedAmount
                          ) -> tuple[FixedAmount, FixedAmount, FixedAmount, PoolState]:
    """Withdraw a fraction of both reserves; share=1 closes the pool.
    Returns (out_x, out_y, the LP tokens burned, the new pool): each reserve
    and ``lp_supply`` keep their amount*(1 - share), rounded alike."""
    if not (0 < share.raw <= SCALE):
        raise ParameterError(f"share must be in (0, 1], got {share}")
    keep = FixedAmount(SCALE) - share
    burned = lp_supply - lp_supply * keep
    if burned.raw == 0:
        raise DustError(f"removing {share} of {pool.pool_id} burns no LP token")
    new_x = pool.reserve_x * keep
    new_y = pool.reserve_y * keep
    out_x = pool.reserve_x - new_x
    out_y = pool.reserve_y - new_y
    new_pool = PoolState(pool.pool_id, pool.token_x, pool.token_y, new_x, new_y,
                         pool.fee_bps, pool.volume_x, pool.volume_y)
    return out_x, out_y, burned, new_pool


# -- liquidity drains ------------------------------------------------------


def execute_drain(pool: PoolState, rug_token: TokenId, t_rug: FixedAmount,
                  t_total: FixedAmount) -> tuple[FixedAmount, FixedAmount, PoolState]:
    """Realize a drain by swapping the creator's ``t_rug`` of a ``t_total``
    supply through the pool. Returns (liquid_out, naive_target, new pool):
    the proceeds realized by the swap, slippage included, which is ground
    truth; and the naive proportional figure (T_rug/T_total) * L_pool.
    """
    liquid_token = pool.other(rug_token)
    l_pool = pool.reserve_of(liquid_token)
    if t_total.raw > 0:
        naive = l_pool * t_rug / t_total
    else:
        naive = ZERO
    if t_rug.raw == 0:
        return ZERO, naive, pool
    liquid_out, new_pool = pool_swap(pool, rug_token, t_rug)
    return liquid_out, naive, new_pool


# -- peg keeper ------------------------------------------------------------


class PegTrade(NamedTuple):
    input_token: TokenId
    amount_in: FixedAmount
    amount_out: FixedAmount
    pool: PoolState


DEFAULT_PEG_TOLERANCE = amt("0.005")


def peg_keeper_step(pool: PoolState, peg_value: FixedAmount, budget: FixedAmount,
                    tolerance: FixedAmount = DEFAULT_PEG_TOLERANCE) -> Optional[PegTrade]:
    """Largest swap within budget moving spot strictly toward peg_value
    without crossing it. Returns None when already in band or budget is 0.

    Spot above peg: sell token_x (the pegged asset); below: spend token_y.
    The size starts at the constant-product root and is made exact by a local
    search.
    """
    if peg_value.raw < 0:
        raise ParameterError("peg_value must be >= 0")
    if budget.raw <= 0 or pool.is_closed():
        return None
    spot_raw = spot_price(pool).raw
    peg_raw, band_raw = peg_value.raw, (peg_value * tolerance).raw
    above = spot_raw > peg_raw
    if abs(spot_raw - peg_raw) <= band_raw:
        return None
    input_token = pool.token_x if above else pool.token_y
    x_in = input_token == pool.token_x
    r_in = pool.reserve_of(input_token).raw
    r_out = pool.reserve_of(pool.other(input_token)).raw
    volume_in = (pool.volume_x if x_in else pool.volume_y).raw
    illiquid = r_in <= QUANTUM.raw or r_out <= QUANTUM.raw
    fee_bps = pool.fee_bps

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
        # crosses is monotone in the amount, so its first crossing is unique.
        # Guess it as the root of G*a^2 + (D+G)*r_in*a + D*r_in^2 = K (D = 10000,
        # G = D - fee > 0), the trade moving the spot half a quantum past the band
        # edge t > 0 as new_spot rounds half-even; gallop from it to a bracket
        gain = 10000 - fee_bps
        if above:   # K = D*r_in*r_out*SCALE/(t - 1/2)
            four_gk = 80000 * gain * r_in * r_out * SCALE // (2 * (peg_raw - band_raw) - 1)
        else:       # K = D*r_in*r_out*(t + 1/2)/SCALE
            four_gk = 20000 * gain * r_in * r_out * (2 * (peg_raw + band_raw) + 1) // SCALE
        root = math.isqrt(max((fee_bps * r_in) ** 2 + four_gk, 0))
        guess = min(max((root - (10000 + gain) * r_in) // (2 * gain), 0), hi - 1)
        if guess and crosses(guess):
            hi, step = guess, 1
            while hi > step and crosses(hi - step):
                hi, step = hi - step, 2 * step
            lo = max(hi - step, 0)
        else:
            lo, step = guess, 1
            while lo + step < hi and not crosses(lo + step):
                lo, step = lo + step, 2 * step
            hi = min(lo + step, hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if crosses(mid) else (mid, hi)
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
