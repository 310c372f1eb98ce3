"""Price processes for the three rug-pull archetypes, constant-product AMM
pools, liquidity-drain execution, the peg keepers that steer each anticoin
pool toward its inverse-log valuation, the noise traders, and the pool book
that runs every pool's trades and liquidity ops.

Pool operations are pure: they take a PoolState and return a new one. Swap
output is rounded *down* to the quantum (in the pool's favor), so the
product of reserves never decreases; the deviation from the exact
constant-product solution stays below one quantum per operation.

A pool's reserves are its ``pool:<id>`` ledger balances and nothing else:
the ``PoolBook`` keeps each pool's tokens, fee, chain and volume, and
builds a PoolState from those balances only for the pure functions to
read. Engine-owned account names are refused at load, so nothing but the
book moves a pool account's tokens.
"""

from __future__ import annotations

import enum
import math
from functools import partial
from typing import Callable, NamedTuple, Optional, Sequence

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
    SeededRng,
    TokenId,
    ZERO,
    _div_round_half_even,
    _exp_neg_raw,
)
from .ledger import BalanceError, Ledger
from .vault import VaultRegistry, anticoin_value


class RatioError(RugsimError):
    """Liquidity provision deviates from the current reserve ratio."""


# a pool's LP token is lp:<pool id>; the engine alone issues it
LP_TOKEN_PREFIX = "lp:"


class RugKind(enum.Enum):
    SCAM = "scam"
    CATASTROPHIC = "catastrophic"
    SENTIMENT = "sentiment"


def _decay(proc: dict, x_num: int, x_den: int) -> FixedAmount:
    # max(p0 * e**-x, floor) for x = x_num / x_den, from the exact integer kernel
    return max(FixedAmount(_exp_neg_raw(proc["p0"].raw, x_num, x_den)), proc["epsilon_floor"])


def price_at(proc: dict, height: int) -> FixedAmount:
    """The price at block ``height`` of a rugged token's parsed
    ``price_process`` section, never below its floor; only the active
    kind's rate is read:
    scam          p0 * e**(-t/tau_rug)  near-instant collapse
    catastrophic  p0 * e**(-lam*t)      gradual exponential failure
    sentiment     p0 / (1 + alpha*t)    hyperbolic sentiment decay"""
    kind = proc["kind"]
    if kind is RugKind.SCAM:
        return _decay(proc, height * SCALE, proc["tau_rug"].raw)
    if kind is RugKind.CATASTROPHIC:
        return _decay(proc, proc["lam"].raw * height, SCALE)
    denom = FixedAmount(SCALE + proc["alpha_sent"].raw * height)
    return max(proc["p0"] / denom, proc["epsilon_floor"])


# -- constant-product pool ------------------------------------------------


class PoolState:
    """One pool's reserves and fee; a value, never changed once made, and
    equal to another with the same fields."""

    __slots__ = ("pool_id", "token_x", "token_y", "reserve_x", "reserve_y", "fee_bps")

    def __init__(self, pool_id: PoolId, token_x: TokenId, token_y: TokenId,
                 reserve_x: FixedAmount, reserve_y: FixedAmount, fee_bps: int):
        if reserve_x.raw < 0 or reserve_y.raw < 0:
            raise ParameterError("negative reserve")
        self.pool_id = pool_id
        self.token_x = token_x
        self.token_y = token_y
        self.reserve_x = reserve_x
        self.reserve_y = reserve_y
        self.fee_bps = fee_bps

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
    new_x, new_y = (new_in, new_out) if input_token == pool.token_x else (new_out, new_in)
    return dy, PoolState(pool.pool_id, pool.token_x, pool.token_y, new_x, new_y, pool.fee_bps)


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


def pool_add_liquidity(pool: PoolState, dx: FixedAmount, dy: Optional[FixedAmount],
                       lp_supply: FixedAmount) -> tuple[FixedAmount, PoolState]:
    """Deposit both tokens at the current reserve ratio (1-quantum slack);
    a ``dy`` of None takes the dy that ratio gives, and fails in a pool
    with no token_x reserve. Returns the LP tokens minted, the smaller
    pro-rata claim on ``lp_supply`` rounded down so the pool never
    over-issues (with no supply, as at genesis or once closed,
    isqrt(dx*dy)), and the new pool, whose reserve_y grew by dy."""
    if pool.reserve_x.raw > 0:
        expected_dy = dx * pool.reserve_y / pool.reserve_x
        if dy is None:
            dy = expected_dy
        elif abs(dy - expected_dy) > QUANTUM:
            raise RatioError(
                f"deposit ratio mismatch: got dy={dy}, expected {expected_dy}")
    elif dy is None:
        raise IlliquidError(f"pool {pool.pool_id} has no token_x reserve to price an 'auto' dy")
    if dx.raw <= 0 or dy.raw <= 0:
        raise ParameterError("liquidity amounts must be > 0")
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
        pool.fee_bps)


def pool_remove_liquidity(pool: PoolState, share: FixedAmount, lp_supply: FixedAmount
                          ) -> tuple[FixedAmount, FixedAmount, FixedAmount, PoolState]:
    """Withdraw a ``share`` in (0, 1] of both reserves; share=1 closes the pool.
    Returns (out_x, out_y, the LP tokens burned, the new pool): each reserve
    and ``lp_supply`` keep their amount*(1 - share), rounded alike."""
    keep = FixedAmount(SCALE) - share
    burned = lp_supply - lp_supply * keep
    if burned.raw == 0:
        raise DustError(f"removing {share} of {pool.pool_id} burns no LP token")
    new_x = pool.reserve_x * keep
    new_y = pool.reserve_y * keep
    out_x = pool.reserve_x - new_x
    out_y = pool.reserve_y - new_y
    new_pool = PoolState(pool.pool_id, pool.token_x, pool.token_y, new_x, new_y,
                         pool.fee_bps)
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


def peg_keeper_step(pool: PoolState, peg_value: FixedAmount, budget: FixedAmount,
                    tolerance: FixedAmount) -> Optional[PegTrade]:
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
    illiquid = r_in <= QUANTUM.raw or r_out <= QUANTUM.raw
    fee_bps = pool.fee_bps

    def crosses(amount_raw: int) -> bool:
        # pool_swap then spot_price, in raw integers: an illiquid pool or a
        # dust output is no crossing; a reserve or spot past MAX_RAW raises
        # the RangeError their FixedAmount would
        if illiquid:
            return False
        dy_raw = _swap_output_raw(r_in, r_out, amount_raw, fee_bps)
        if dy_raw <= 0:
            return False
        new_in = r_in + amount_raw
        if new_in > MAX_RAW:
            raise RangeError(f"fixed-point overflow: raw={new_in}")
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


# -- the pool book ----------------------------------------------------------


class Pool:
    """A pool's fixed facts and its volume: the exact raw sum of the swap
    inputs, in either token, since its chain's aux scan last took it. Its
    reserves are the balances of ``account``, and ``liquid_token`` is its
    numeraire side, else its token_y."""

    __slots__ = ("pool_id", "chain", "token_x", "token_y", "fee_bps", "account",
                 "liquid_token", "volume")

    def __init__(self, params: dict, numeraire: TokenId):
        self.pool_id, self.chain = params["id"], params["chain"]
        self.token_x, self.token_y = params["token_x"], params["token_y"]
        self.fee_bps = params["fee_bps"]
        self.account = f"pool:{self.pool_id}"
        self.liquid_token = self.token_x if self.token_x == numeraire else self.token_y
        self.volume = 0


class PoolBook:
    """The pools of the parsed ``pools`` entries, of every chain, by id. The
    book runs its script ops (``OPS``) and every other trade against a pool
    on ``ledger``, and records each one's event through ``record``. It keeps
    no reserves: ``state`` reads them from the ledger for the pure
    functions. Made, it mints each pool's genesis reserves, the first
    deposit into it while empty, and the LP tokens they earn to
    ``treasury``."""

    OPS = ("swap", "add_liquidity", "remove_liquidity")

    def __init__(self, entries: list[dict], ledger: Ledger, record: Callable[..., None],
                 treasury: str, numeraire: TokenId):
        self.ledger, self.record = ledger, record
        self.pools = {entry["id"]: Pool(entry, numeraire) for entry in entries}
        for entry in entries:
            pool, dx, dy = self.pools[entry["id"]], entry["reserve_x"], entry["reserve_y"]
            minted, _ = pool_add_liquidity(self.state(pool.pool_id), dx, dy, ZERO)
            ledger.mint(pool.account, pool.token_x, dx, memo="genesis-pool")
            ledger.mint(pool.account, pool.token_y, dy, memo="genesis-pool")
            ledger.mint(treasury, LP_TOKEN_PREFIX + pool.pool_id, minted, memo="genesis-lp")

    def state(self, pool_id: PoolId) -> PoolState:
        pool = self.pools[pool_id]
        held = self.ledger.balance_raw
        return PoolState(pool_id, pool.token_x, pool.token_y,
                         FixedAmount(held(pool.account, pool.token_x)),
                         FixedAmount(held(pool.account, pool.token_y)), pool.fee_bps)

    def liquidity_raw(self, pool_id: PoolId) -> int:
        pool = self.pools[pool_id]
        return self.ledger.balance_raw(pool.account, pool.liquid_token)

    def move(self, account: str, pool_id: PoolId, input_token: TokenId, dx: FixedAmount,
             dy: FixedAmount, memo: str) -> TokenId:
        """Move a trade that a pure function sized on ``state``, dx of
        ``input_token`` in and dy of the other token out, and add dx to the
        pool's volume; returns the other token. The sizing range-checked
        every reserve, so only the debit, the first move, can fail."""
        pool = self.pools[pool_id]
        out_token = pool.token_y if input_token == pool.token_x else pool.token_x
        self.ledger.transfer(account, pool.account, input_token, dx, memo=memo)
        self.ledger.transfer(pool.account, account, out_token, dy, memo=memo)
        pool.volume += dx.raw
        return out_token

    def trade(self, pool_id: PoolId, account: str, input_token: TokenId, dx: FixedAmount,
              memo: str, sized: Optional[FixedAmount] = None) -> FixedAmount:
        """Swap dx of ``input_token`` in for ``account`` and record it;
        returns the output. ``sized`` is the output a pure function already
        found for dx on ``state(pool_id)``; else pool_swap finds it."""
        dy = pool_swap(self.state(pool_id), input_token, dx)[0] if sized is None else sized
        out_token = self.move(account, pool_id, input_token, dx, dy, memo)
        self.record("swap", pool_id, account, input_token, dx, out_token, dy, memo)
        return dy

    def swap(self, account: str, step: dict, height: int) -> None:
        self.trade(step["pool"], account, step["token_in"], step["amount"], "script-swap")

    def add_liquidity(self, account: str, step: dict, height: int) -> None:
        pool_id, dx = step["pool"], step["dx"]
        pool, lp = self.state(pool_id), LP_TOKEN_PREFIX + pool_id
        minted, after = pool_add_liquidity(pool, dx, step["dy"], self.ledger.total_supply(lp))
        dy = after.reserve_y - pool.reserve_y
        for token, amount in ((pool.token_x, dx), (pool.token_y, dy)):
            held = self.ledger.balance(account, token)
            if held < amount:
                raise BalanceError(f"{account} holds {held} {token}, cannot send {amount}")
        # checks first; the mint, the one write that can still fail, goes first
        self.ledger.mint(account, lp, minted, memo="add-liq")
        for token, amount in ((pool.token_x, dx), (pool.token_y, dy)):
            self.ledger.transfer(account, self.pools[pool_id].account, token, amount,
                                 memo="add-liq")
        self.record("add_liquidity", pool_id, account, dx, dy)

    def remove_liquidity(self, account: str, step: dict, height: int) -> None:
        pool_id = step["pool"]
        pool, lp = self.state(pool_id), LP_TOKEN_PREFIX + pool_id
        out_x, out_y, burned, _ = pool_remove_liquidity(pool, step["share"],
                                                        self.ledger.total_supply(lp))
        self.ledger.burn(account, lp, burned, memo="remove-liq")
        for token, amount in ((pool.token_x, out_x), (pool.token_y, out_y)):
            self.ledger.transfer(self.pools[pool_id].account, account, token, amount,
                                 memo="remove-liq")
        self.record("remove_liquidity", pool_id, account, out_x, out_y)

    def snapshot(self) -> dict:
        held = self.ledger.balance
        return {"pools": {
            pid: {"reserve_x": str(held(p.account, p.token_x)),
                  "reserve_y": str(held(p.account, p.token_y)),
                  "token_x": p.token_x, "token_y": p.token_y, "fee_bps": p.fee_bps}
            for pid, p in sorted(self.pools.items())}}


# a peg-keeper trade's queue priority (higher executes first within a block);
# the drain book holds the priorities around a drain
PRIORITY_PEG_KEEPER = 10


class PegKeepers:
    """The parsed ``pegkeeper`` agents, by their pool's chain. Each chain step
    (``on_block``) queues each keeper's trade through ``enqueue``; run, the
    trade steers the pool toward its vault's anticoin value at the engine's
    live ``prices`` and is recorded through ``record``. A keeper with no
    vault trades nothing."""

    def __init__(self, keepers: Sequence[dict], pools: PoolBook, vaults: VaultRegistry,
                 prices: dict[TokenId, FixedAmount], ledger: Ledger,
                 record: Callable[..., None], enqueue: Callable[..., None]):
        self.pools, self.vaults, self.prices, self.ledger = pools, vaults, prices, ledger
        self.record, self.enqueue = record, enqueue
        self.keepers: dict[str, list[dict]] = {}
        for keeper in keepers:
            self.keepers.setdefault(pools.pools[keeper["pool"]].chain, []).append(keeper)

    def on_block(self, chain: str, height: int) -> None:
        for keeper in self.keepers.get(chain, ()):
            self.enqueue(chain, height, PRIORITY_PEG_KEEPER, "peg_keeper",
                         partial(self._trade, keeper))

    def _trade(self, agent: dict) -> None:
        if agent["vault"] is None:
            return
        pool_id = agent["pool"]
        pool = self.pools.state(pool_id)
        vault = self.vaults.vault(agent["vault"])
        peg = anticoin_value(vault.price_at_creation, self.prices[vault.rugged_token])
        input_token = pool.token_x if spot_price(pool) > peg else pool.token_y
        budget = min(agent["budget"], self.ledger.balance(agent["account"], input_token))
        trade = peg_keeper_step(pool, peg, budget, agent["tolerance"])
        if trade is None:
            return
        self.pools.trade(pool_id, agent["account"], trade.input_token, trade.amount_in,
                         "peg_keeper", trade.amount_out)
        self.record("peg_trade", pool_id, peg, trade.amount_in, trade.input_token,
                    spot_price(trade.pool))


class NoiseTraders:
    """The parsed agents' ``noise`` sections, by their pool's chain. Each
    chain step (``on_block``), each trader trades with its ``prob``, drawn
    from its own stream of the run's ``seed``, a uniform size up to its
    ``max_size`` of a coin-flipped side, capped at its balance; a failed
    trade is recorded through ``record``."""

    def __init__(self, agents: Sequence[dict], seed: int, pools: PoolBook, ledger: Ledger,
                 record: Callable[..., None]):
        self.pools, self.ledger, self.record = pools, ledger, record
        rng = SeededRng(seed)
        # chain -> (account, pool id, trade probability, largest size in raw quanta, rng)
        self.traders: dict[str, list[tuple]] = {}
        for agent in agents:
            account, noise = agent["account"], agent["noise"]
            if noise is not None:
                self.traders.setdefault(pools.pools[noise["pool"]].chain, []).append(
                    (account, noise["pool"], float(noise["prob"]), noise["max_size"].raw,
                     rng.stream("noise", account)))

    def on_block(self, chain: str, height: int) -> None:
        for account, pool_id, prob, max_raw, rng in self.traders.get(chain, ()):
            if rng.random() >= prob:
                continue
            pool = self.pools.pools[pool_id]
            size = rng.randint(1, max_raw)
            token = pool.token_x if rng.random() < 0.5 else pool.token_y
            size = min(size, self.ledger.balance_raw(account, token))
            if size <= 0:
                continue
            try:
                self.pools.trade(pool_id, account, token, FixedAmount(size), "noise")
            except RugsimError as exc:
                self.record("failed", "noise", type(exc).__name__, str(exc), account=account)
