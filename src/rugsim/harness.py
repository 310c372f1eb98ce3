"""Deterministic multi-chain discrete-block simulation engine.

One logical clock advances all chains in lockstep; within a height,
satellite chains step first and the home chain last, so bridge deliveries
aged exactly `bridge_delay_blocks` arrive the block they come due. Each
chain step runs a fixed phase order:

  1. price processes advance
  2. detection observes and plans (monitors, drain planners, intents,
     peg keeper)
  3. the transaction queue executes in (priority desc, arrival) order
  4. scripted agent operations (vault, market, dispute submissions)
  5. perps funding and liquidation
  6. dispute-machine deadlines fire
  7. the bridge delivers matured reward events (home chain)
  8. supply emission and the burn controller (home chain)
  9. telemetry

The engine reads a parsed ``Scenario``: ``load_scenario`` has already
checked every field, turned it into its value (amounts, ints, enums) and
filled in every default, so materialize and the scripted ops read fields
and parse or default none themselves.

What a chain's step visits (price processes, pools, monitors, noise
traders, peg keepers, perp books) is listed per chain where materialize
makes each entity, in the order a scan of the whole world would meet it.
Each scripted step runs on the one chain that its pool, vault or token
fixes (home for the rest), so steps are indexed by height and chain.
Handlers read the clock, the int ``self.height``, and the chain being
stepped, ``self._chain_ctx``; books and price functions take only the
height. After every block the ledger re-sums every balance per token
against that token's supply.

A queued transaction is a bound action; its kind names it in the ``failed``
event if it raises. A pending drain leaves ``pending_drains`` when its
transaction runs, at ``executes_at``, whether the drain succeeds or fails;
the sandwich post leg and the back-run planned against it fail unless it
executed. The engine alone times the moves against a drain; the detection
planners only price them. Protected accounts are front-run at
``submitted_at + 1`` if that is before ``executes_at``; the first detector
with a sandwich budget plans its sandwich at ``executes_at - 1``, and the
first with a back-run budget its back-run at ``executes_at``.

Module errors never crash a run; they are recorded as failed events.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Any, Callable, Optional

from . import detection, market, tokenomics
from .core import (
    FixedAmount,
    ONE,
    ParameterError,
    RugsimError,
    SeededRng,
    StateError,
    TokenId,
    ZERO,
    _checked,
    _div_round_half_even,
    fsum,
)
from .detection import AuxMonitor, IntentAction, IntentBook, PoolMonitor
from .insurance import ClaimPhase, InsuranceBook, PolicyStatus
from .ledger import BalanceError, Ledger
from .market import PoolState
from .perps import PerpBook
from .rugproof import ClaimStatus, IssuanceStatus, RugproofBook
from .scenario import HOME_TOKEN, SCRIPT_OPS, Scenario, load_scenario
from .trace import Trace, make_event
from .vault import RewardEvent, VaultRegistry, anticoin_value

TREASURY = "treasury"
PERP_SETTLEMENT = "perps-settlement"

# queue priorities: higher executes first within a block; protective plans
# sit above PRIORITY_DRAIN by the scenario's protocol_priority_boost
PRIORITY_PEG_KEEPER = 10
PRIORITY_DRAIN = 0
PRIORITY_SANDWICH_POST = -10
PRIORITY_BACKRUN = -20


class QueuedTx:
    __slots__ = ("chain", "execute_at", "priority", "seq", "kind", "action")

    def __init__(self, chain: str, execute_at: int, priority: int, seq: int, kind: str,
                 action: Callable[[], None]):
        self.chain = chain
        self.execute_at = execute_at
        self.priority = priority
        self.seq = seq
        self.kind = kind
        self.action = action


class PendingDrain:
    """A creator's drain of ``t_rug`` of a ``t_total`` supply, visible on
    its pool's chain from the block it is submitted until the block it
    executes at."""

    __slots__ = ("pool", "creator", "rug_token", "t_rug", "t_total", "submitted_at",
                 "executes_at", "executed", "pre_out")

    def __init__(self, pool: str, creator: str, rug_token: TokenId, t_rug: FixedAmount,
                 t_total: FixedAmount, submitted_at: int, executes_at: int):
        self.pool, self.creator, self.rug_token = pool, creator, rug_token
        self.t_rug, self.t_total = t_rug, t_total
        self.submitted_at, self.executes_at = submitted_at, executes_at
        self.executed = False
        # what the sandwich pre leg bought, once it has swapped
        self.pre_out: Optional[FixedAmount] = None


class ChainView:
    """What one chain's step visits, in the order a scan of the whole world
    would meet it. Pools, tokens, vaults and agents never change chain, so
    the views are built once, at materialize."""

    __slots__ = ("aux", "processes", "pool_ids", "monitors", "outflow_keys", "mint_tokens",
                 "noise", "pegkeepers", "perp_books")

    def __init__(self, aux: AuxMonitor):
        self.aux = aux
        # (token, its parsed price_process section)
        self.processes: list[tuple[TokenId, dict]] = []
        self.pool_ids: list[str] = []
        self.monitors: list[tuple[str, PoolMonitor]] = []
        # (creator account, chain token) pairs whose outflows the aux scan reads
        self.outflow_keys: list[tuple[str, TokenId]] = []
        # chain tokens whose mints the aux scan reads (R is excluded)
        self.mint_tokens: list[TokenId] = []
        # (account, pool id, trade probability, largest size in raw quanta, rng)
        self.noise: list[tuple[str, str, float, int, random.Random]] = []
        # the peg keepers' parsed agent entries
        self.pegkeepers: list[dict] = []
        self.perp_books: list[tuple[str, PerpBook]] = []


class Simulation:
    """Materialized world state plus the per-block step loop."""

    def __init__(self, scenario: Scenario, out_dir: Optional[str] = None):
        self.scenario = scenario
        self.rng = SeededRng(scenario.seed)
        # given out_dir, the trace streams there as the run records it
        self.trace = Trace(out_dir)
        self.height = 0
        self._chain_ctx = "genesis"
        self._seq = 0
        self.ledger = Ledger(recorder=self._record_ledger_event)

        # account -> (its beneficial owner, that owner's accounts in scenario
        # order); only the withdrawal penalty reads it
        self._owners: dict[str, tuple[str, list[str]]] = {}
        self.prices: dict[TokenId, FixedAmount] = {}
        self.pools: dict[str, PoolState] = {}
        self.pool_chain: dict[str, str] = {}
        self.vaults = VaultRegistry()
        self.perp_books: dict[str, PerpBook] = {}
        self.perp_amm: Optional[str] = None
        self.intent_book = IntentBook()
        # the parsed agent entries of each kind, in scenario order
        self.agents_by_kind: dict[str, list[dict]] = {}
        # (height, chain) -> (account, step) in agent order, then script order
        self._script_steps: dict[tuple[int, str], list[tuple[str, dict]]] = {}
        self.queue: list[QueuedTx] = []
        self.pending_drains: list[PendingDrain] = []
        self.bridge: list[tuple[int, RewardEvent]] = []
        self.total_penalties = ZERO
        # raw mints per scanned token and outflows per scanned (sender, token)
        # since the aux scan that reads them last took them; keyed at materialize
        self._unscanned_mints: dict[str, int] = {}
        self._unscanned_outflows: dict[tuple[str, str], int] = {}
        self._prev_volumes: dict[str, int] = {}
        self._prev_liquidity: dict[str, int] = {}

        try:
            self._materialize()
        except BaseException:
            self.trace.discard()
            raise

    # -- construction -------------------------------------------------------

    def _materialize(self) -> None:
        sc = self.scenario
        det = sc.detection
        # satellites in scenario order, then home; per-chain views
        self._chain_order = [c for c in sc.chains if c != sc.home_chain] + [sc.home_chain]
        views = self._chain_views = {chain: ChainView(AuxMonitor(
            mint_spike_factor=det["mint_spike_factor"],
            wallet_outflow_fraction=det["wallet_outflow_fraction"],
            volume_spike_factor=det["volume_spike_factor"])) for chain in sc.chains}

        owned: dict[str, list[str]] = {}
        for entry in sc.accounts:
            account, owner = entry["id"], entry["owner"]
            related = owned.setdefault(owner, [])
            related.append(account)
            self._owners[account] = owner, related
            for token, balance in entry["balances"].items():
                self.ledger.mint(account, token, balance, memo="genesis")

        token_chain = {sc.numeraire: sc.home_chain}
        for entry in sc.tokens:
            token = entry["id"]
            token_chain[token] = entry["chain"]
            process = entry["price_process"]
            if process is not None:
                self.prices[token] = market.price_at(process, 0)
                views[entry["chain"]].processes.append((token, process))

        for entry in sc.pools:
            # the genesis reserves are the first deposit into an empty pool
            empty = PoolState(entry["id"], entry["token_x"], entry["token_y"], ZERO, ZERO,
                              fee_bps=entry["fee_bps"])
            minted, pool = market.pool_add_liquidity(empty, entry["reserve_x"],
                                                     entry["reserve_y"], ZERO)
            self.pools[pool.pool_id] = pool
            self.pool_chain[pool.pool_id] = entry["chain"]
            account = self._pool_account(pool.pool_id)
            self.ledger.mint(account, pool.token_x, pool.reserve_x, memo="genesis-pool")
            self.ledger.mint(account, pool.token_y, pool.reserve_y, memo="genesis-pool")
            self.ledger.mint(TREASURY, market.LP_TOKEN_PREFIX + pool.pool_id, minted,
                             memo="genesis-lp")
            self._prev_volumes[pool.pool_id] = 0
            self._prev_liquidity[pool.pool_id] = self._pool_liquidity(pool).raw
            view = views[entry["chain"]]
            view.pool_ids.append(pool.pool_id)
            if sc.numeraire in (pool.token_x, pool.token_y):
                view.monitors.append(
                    (pool.pool_id, PoolMonitor(pool.pool_id, det["drop_threshold"])))

        for entry in sc.vaults:
            vault = self.vaults.create_vault(entry, self.prices[entry["rugged_token"]])
            token_chain[vault.anticoin] = vault.chain

        self.ledger.mint(TREASURY, HOME_TOKEN, sc.tokenomics["initial_supply"],
                         memo="genesis-supply")

        perp = sc.perps
        if perp is not None:
            self.perp_amm = perp["amm_pool"]
            for vault_id in perp["enabled_vaults"]:
                vault = self.vaults.vault(vault_id)
                book = self.perp_books[vault_id] = PerpBook(vault_id, vault.anticoin, perp)
                views[vault.chain].perp_books.append((vault_id, book))

        self.rugproof = RugproofBook(sc.rugproof, TREASURY)
        self.insurance = InsuranceBook(sc.insurance, sc.numeraire, TREASURY)

        # protocol transactions outbid drains by this much (the fee
        # escalation knob); protective plans use it, salvage stays below
        self.priority_boost = det["protocol_priority_boost"]
        self.sandwich_treasury_fraction = det["sandwich_treasury_fraction"]

        # tokens with no chain entry (R, bonded tokens) and home ops run on home
        chain_of = {"pool": self.pool_chain, "token": token_chain, "home": {},
                    "vault": {vid: vault.chain for vid, vault in self.vaults.vaults.items()}}
        for agent in sc.agents:
            account = agent["account"]
            self.agents_by_kind.setdefault(agent["kind"], []).append(agent)
            for step in agent["script"]:
                entity = SCRIPT_OPS[step["op"]][0]
                chain = chain_of[entity].get(step.get(entity), sc.home_chain)
                self._script_steps.setdefault((step["block"], chain), []).append(
                    (account, step))
            noise = agent["noise"]
            if noise is not None:
                views[self.pool_chain[noise["pool"]]].noise.append(
                    (account, noise["pool"], float(noise["prob"]), noise["max_size"].raw,
                     self.rng.stream("noise", account)))
            if agent["kind"] == "pegkeeper":
                views[self.pool_chain[agent["pool"]]].pegkeepers.append(agent)

        # the first liquidator by account id bids on every flagged position
        self._liquidation_bidder = min(
            (a["account"] for a in self.agents_by_kind.get("liquidator", [])), default=None)
        # the first detector with a sandwich budget sandwiches every drain, and
        # the first with a back-run budget back-runs every drain
        detectors = self.agents_by_kind.get("detector", [])
        self._sandwicher = next(
            (d for d in detectors if d["sandwich_budget"].raw > 0), None)
        self._backrunner = next(
            (d for d in detectors if d["backrun_budget"].raw > 0), None)

        for entry in sc.intents:
            self._register_intent(entry, entry["owner"])

        # what each chain's aux scan reads; genesis funding is not block activity
        for token, chain in token_chain.items():
            if token != HOME_TOKEN:
                views[chain].mint_tokens.append(token)
        creators = self.agents_by_kind.get("creator", [])
        for view in views.values():
            view.outflow_keys = [(creator["account"], token)
                                 for creator in creators for token, _ in view.processes]
            self._unscanned_mints.update(dict.fromkeys(view.mint_tokens, 0))
            self._unscanned_outflows.update(dict.fromkeys(view.outflow_keys, 0))

    def _register_intent(self, entry: dict, owner: str) -> None:
        pool_id = entry["pool"]
        self.intent_book.register(owner, entry, self.prices.get(entry["token"], ZERO),
                                  self._pool_liquidity(self.pools[pool_id]))
        self._event("intent_registered", owner, pool_id, entry["theta_price"],
                    entry["theta_liquidity"])

    # -- small helpers -------------------------------------------------------

    def _pool_account(self, pool_id: str) -> str:
        return f"pool:{pool_id}"

    def _pool_liquidity(self, pool: PoolState) -> FixedAmount:
        """The liquid (numeraire) side of a pool, else the y reserve."""
        if pool.token_x == self.scenario.numeraire:
            return pool.reserve_x
        return pool.reserve_y

    def _record_ledger_event(self, event_type: str, *values: Any) -> None:
        self.trace.record(make_event(event_type, self.height, self._chain_ctx, values, {}))
        if event_type == "mint":
            _, token, amount, _ = values
            totals, key = self._unscanned_mints, token
        elif event_type == "transfer":
            src, _, token, amount, _ = values
            totals, key = self._unscanned_outflows, (src, token)
        else:
            return
        unscanned = totals.get(key)
        if unscanned is not None:
            totals[key] = _checked(unscanned + amount.raw)

    def _event(self, event_type: str, *values: Any, **optional: Any) -> None:
        """Record an event of this height and chain (see ``make_event``)."""
        self.trace.record(make_event(event_type, self.height, self._chain_ctx, values,
                                     optional))

    def _failed(self, op: str, error: Exception, **optional: Any) -> None:
        self._event("failed", op, type(error).__name__, str(error), **optional)

    def _enqueue(self, chain: str, execute_at: int, priority: int, kind: str,
                 action: Callable[[], None]) -> None:
        self.queue.append(QueuedTx(chain, execute_at, priority, self._seq,
                                   kind, action))
        self._seq += 1

    def _mark_price(self, token: TokenId) -> FixedAmount:
        return self.prices.get(token, ZERO)

    def _apply_swap(self, pool_id: str, account: str, input_token: TokenId,
                    dx: FixedAmount, memo: str) -> Optional[FixedAmount]:
        """Execute a swap against a pool, mirroring reserves in the ledger."""
        dy, new_pool = market.pool_swap(self.pools[pool_id], input_token, dx)
        return self._settle_swap(pool_id, account, input_token, dx, dy, new_pool, memo)

    def _settle_swap(self, pool_id: str, account: str, input_token: TokenId,
                     dx: FixedAmount, dy: FixedAmount, new_pool: PoolState,
                     memo: str) -> FixedAmount:
        """Move a sized swap's two legs through the ledger, set the pool to
        ``new_pool`` and record the swap."""
        out_token = new_pool.other(input_token)
        pool_account = self._pool_account(pool_id)
        self.ledger.transfer(account, pool_account, input_token, dx, memo=memo)
        self.ledger.transfer(pool_account, account, out_token, dy, memo=memo)
        self.pools[pool_id] = new_pool
        self._event("swap", pool_id, account, input_token, dx, out_token, dy, memo)
        return dy

    # -- run loop -------------------------------------------------------------

    def run(self, blocks: Optional[int] = None) -> Trace:
        """Step ``blocks`` blocks (the scenario's by default) and finalize;
        a run that raises leaves no streamed files behind."""
        total = blocks if blocks is not None else self.scenario.blocks
        try:
            if total < 1:
                raise ParameterError("need at least one block")
            for _ in range(total):
                self.step()
            self.finalize()
        except BaseException:
            self.trace.discard()
            raise
        return self.trace

    def step(self) -> None:
        self.height += 1
        for chain in self._chain_order:
            self._step_chain(chain)
        self.ledger.check_conservation()

    def _step_chain(self, chain: str) -> None:
        self._chain_ctx = chain
        view = self._chain_views[chain]
        height = self.height

        # (1) price processes advance
        for token, process in view.processes:
            self.prices[token] = market.price_at(process, height)

        # (2) detection observes and plans
        self._phase_detection(chain, view, height)

        # (3) queued transactions, priority order
        due = [tx for tx in self.queue
               if tx.chain == chain and tx.execute_at <= height]
        self.queue = [tx for tx in self.queue
                      if not (tx.chain == chain and tx.execute_at <= height)]
        due.sort(key=lambda tx: (-tx.priority, tx.seq))
        for tx in due:
            self._execute_tx(tx)

        # (4) scripted agent operations due on this chain
        for account, step in self._script_steps.get((height, chain), ()):
            self._run_script_op(account, step)

        # (4b) parametric noise traders
        for noise in view.noise:
            self._noise_trade(*noise)

        # (5) perps funding and liquidation
        self._phase_perps(chain, view, height)

        # (6) dispute deadlines fire, (7) the bridge delivers and (8) supply
        # emission and the burn controller run, all on the home chain
        if chain == self.scenario.home_chain:
            self._phase_dispute_deadlines(height)
            self._phase_tokenomics(height, self._phase_bridge(height))

        # (9) telemetry is the per-block row written in _phase_tokenomics

    # -- phases ----------------------------------------------------------------

    def _phase_detection(self, chain: str, view: ChainView, height: int) -> None:
        detectors = self.agents_by_kind.get("detector", [])

        for pool_id, monitor in view.monitors:
            signal = monitor.observe(height, self._pool_liquidity(self.pools[pool_id]))
            if signal is not None:
                self._event("risk_signal", signal.kind.value, signal.magnitude, pool=pool_id)

        # auxiliary metrics over activity since this chain's last scan
        # (everything the previous block did, nothing of this one yet), in
        # raw ints; no term is negative, so the scan range-checks the mint
        # and volume sums once
        minted = 0
        mints, outflows = self._unscanned_mints, self._unscanned_outflows
        for token in view.mint_tokens:
            minted += mints[token]
            mints[token] = 0
        # largest single creator-wallet outflow of a chain token
        outflow = balance_before = 0
        for key in view.outflow_keys:
            moved = outflows[key]
            outflows[key] = 0
            if moved > outflow:
                outflow = moved
                balance_before = _checked(self.ledger.balance_raw(*key) + moved)
        volume = delta_liq = 0
        prev_volumes, prev_liquidity = self._prev_volumes, self._prev_liquidity
        for pool_id in view.pool_ids:
            pool = self.pools[pool_id]
            current = _checked(pool.volume_x.raw + pool.volume_y.raw)
            volume += current - prev_volumes[pool_id]
            prev_volumes[pool_id] = current
            liquidity = self._pool_liquidity(pool).raw
            delta_liq = _checked(delta_liq + liquidity - prev_liquidity[pool_id])
            prev_liquidity[pool_id] = liquidity
        for signal in view.aux.scan(height, minted, outflow, balance_before, volume,
                                    delta_liq):
            self._event("risk_signal", signal.kind.value, signal.magnitude)

        # the moves against this chain's pending drains, timed as the module
        # docstring states; detector by detector, its front-runs, then the
        # sandwich, then the back-run
        for pending in self.pending_drains:
            if self.pool_chain[pending.pool] != chain:
                continue
            frontrun = height == pending.submitted_at + 1 < pending.executes_at
            pool = self.pools[pending.pool]
            rug_token = pending.rug_token
            protected = set()  # each account is front-run once per drain
            for det in detectors:
                if frontrun:
                    for name in det["protects"]:
                        if name in protected:
                            continue
                        protected.add(name)
                        holdings = self.ledger.balance(name, rug_token)
                        quoted = detection.plan_frontrun(pool, rug_token, holdings)
                        if quoted is None:
                            continue
                        self._event("plan", "frontrun", name, pending.pool,
                                    amount=holdings, quoted=quoted)
                        self._enqueue(chain, height, PRIORITY_DRAIN + self.priority_boost,
                                      "plan_swap",
                                      partial(self._apply_swap, pending.pool, name,
                                              rug_token, holdings, memo="frontrun"))
                if det is self._sandwicher and height == pending.executes_at - 1:
                    account = det["account"]
                    budget = min(det["sandwich_budget"],
                                 self.ledger.balance(account, rug_token))
                    profit = detection.plan_sandwich(pool, rug_token, budget, pending.t_rug)
                    if profit is not None:
                        self._event("plan", "sandwich", account, pending.pool,
                                    expected_profit=profit)
                        self._enqueue(chain, pending.executes_at,
                                      PRIORITY_DRAIN + self.priority_boost, "sandwich_pre",
                                      partial(self._exec_sandwich_pre, pending, account,
                                              budget))
                        self._enqueue(chain, pending.executes_at, PRIORITY_SANDWICH_POST,
                                      "sandwich_post",
                                      partial(self._exec_sandwich_post, pending, account,
                                              budget))
                if det is self._backrunner and height == pending.executes_at:
                    self._enqueue(chain, height, PRIORITY_BACKRUN, "backrun",
                                  partial(self._exec_backrun, pending, det["account"],
                                          det["backrun_budget"], det["backrun_cap"]))

        # intents; prices and liquidity are gathered only while one is pending
        chain_prices = chain_liquidity = {}
        if self.intent_book.pending():
            chain_prices = {token: self.prices[token] for token, _ in view.processes}
            chain_liquidity = {pid: self._pool_liquidity(self.pools[pid])
                               for pid in view.pool_ids}
        for execution in detection.solver_step(self.intent_book, chain_prices,
                                               chain_liquidity,
                                               self.agents_by_kind.get("solver", [])):
            self._event("intent_triggered", execution.intent.intent_id,
                        execution.intent.owner, execution.solver, execution.fee_bps)
            self._enqueue(chain, height,
                          PRIORITY_DRAIN + max(1, self.priority_boost - 5),
                          "intent", partial(self._exec_intent, execution))

        # peg keeper planning
        for keeper in view.pegkeepers:
            self._enqueue(chain, height, PRIORITY_PEG_KEEPER, "peg_keeper",
                          partial(self._exec_peg_keeper, keeper))

    def _execute_tx(self, tx: QueuedTx) -> None:
        try:
            tx.action()
        except RugsimError as exc:
            self._failed(tx.kind, exc)

    def _exec_drain(self, pending: PendingDrain) -> None:
        self.pending_drains.remove(pending)
        pool_id, rug_token, creator = pending.pool, pending.rug_token, pending.creator
        pool = self.pools[pool_id]
        held = self.ledger.balance(creator, rug_token)
        if held < pending.t_rug:
            raise BalanceError(
                f"creator holds {held} {rug_token}, cannot drain {pending.t_rug}")
        liquid_out, naive_target, new_pool = market.execute_drain(
            pool, rug_token, pending.t_rug, pending.t_total)
        if liquid_out.raw > 0:
            pool_account = self._pool_account(pool_id)
            liquid_token = pool.other(rug_token)
            self.ledger.transfer(creator, pool_account, rug_token,
                                 pending.t_rug, memo="drain")
            self.ledger.transfer(pool_account, creator, liquid_token,
                                 liquid_out, memo="drain")
            self.pools[pool_id] = new_pool
        self._event("drain_executed", pool_id, creator, naive_target, liquid_out,
                    market.spot_price(self.pools[pool_id]))
        pending.executed = True

    def _exec_sandwich_pre(self, pending: PendingDrain, account: str,
                           amount: FixedAmount) -> None:
        pending.pre_out = self._apply_swap(pending.pool, account, pending.rug_token,
                                           amount, memo="sandwich_pre")

    def _exec_sandwich_post(self, pending: PendingDrain, account: str,
                            target: FixedAmount) -> None:
        pool_id, rug_token = pending.pool, pending.rug_token
        if not pending.executed:
            raise StateError(f"the drain on {pool_id} did not execute")
        pool = self.pools[pool_id]
        liquid_token = pool.other(rug_token)
        cost = market.pool_quote_exact_out(pool, rug_token, target)
        held = self.ledger.balance(account, liquid_token)
        if held < cost:
            raise StateError(f"sandwich post-leg needs {cost}, holds {held}")
        self._apply_swap(pool_id, account, liquid_token, cost, memo="sandwich_post")
        if pending.pre_out is None:
            return
        profit = pending.pre_out - cost
        if profit.raw > 0 and self.sandwich_treasury_fraction.raw > 0:
            cut = profit * self.sandwich_treasury_fraction
            self.ledger.transfer(account, TREASURY, liquid_token, cut,
                                 memo="sandwich-profit")
            self._event("sandwich_settled", account, profit, cut)

    def _exec_backrun(self, pending: PendingDrain, account: str,
                      budget: FixedAmount, cap: FixedAmount) -> None:
        # priced at execution time: the quote needs the post-drain reserves
        if not pending.executed:
            raise StateError(f"the drain on {pending.pool} did not execute")
        pool = self.pools[pending.pool]
        numeraire = pool.other(pending.rug_token)
        budget = min(budget, self.ledger.balance(account, numeraire))
        spend = detection.plan_backrun(pool, pending.rug_token, budget, cap)
        if spend is not None:
            self._apply_swap(pending.pool, account, numeraire, spend, memo="backrun")

    def _exec_intent(self, execution: detection.IntentExecution) -> None:
        intent = execution.intent
        owner, params = intent.owner, intent.params
        token, pool_id = params["token"], params["pool"]
        holdings = self.ledger.balance(owner, token)
        if holdings.raw <= 0:
            self._event("intent_skipped", intent.intent_id, owner, "no holdings")
            return
        if params["action"] is IntentAction.EXIT_TO_NUMERAIRE:
            proceeds = self._apply_swap(pool_id, owner, token, holdings, memo="intent")
            fee = proceeds * execution.fee_bps / 10000
            out_token = self.pools[pool_id].other(token)
            if fee.raw > 0:
                self.ledger.transfer(owner, execution.solver, out_token,
                                     fee, memo="solver-fee")
        else:  # swap_to_anticoin: vault deposit, fee paid in anticoins
            vault = (self.vaults.vault(params["vault"]) if params["vault"] is not None
                     else self.vaults.vault_for_token(token, self.scenario.chains))
            if vault is None:
                raise StateError(f"no vault accepts {token}")
            _, reward = self.vaults.deposit(self.ledger, vault.vault_id, owner, holdings)
            self._queue_reward(reward)
            fee = holdings * execution.fee_bps / 10000
            if fee.raw > 0:
                self.ledger.transfer(owner, execution.solver, vault.anticoin,
                                     fee, memo="solver-fee")
        self._event("intent_executed", intent.intent_id, owner, execution.solver,
                    execution.fee_bps)

    def _exec_peg_keeper(self, agent: dict) -> None:
        pool_id = agent["pool"]
        pool = self.pools[pool_id]
        if agent["vault"] is None:
            return
        vault = self.vaults.vault(agent["vault"])
        peg = anticoin_value(vault.price_at_creation, self._mark_price(vault.rugged_token))
        spot = market.spot_price(pool)
        input_token = pool.token_x if spot > peg else pool.token_y
        budget = min(agent["budget"], self.ledger.balance(agent["account"], input_token))
        trade = market.peg_keeper_step(pool, peg, budget, agent["tolerance"])
        if trade is None:
            return
        self._settle_swap(pool_id, agent["account"], trade.input_token, trade.amount_in,
                          trade.amount_out, trade.pool, memo="peg_keeper")
        self._event("peg_trade", pool_id, peg, trade.amount_in, trade.input_token,
                    market.spot_price(self.pools[pool_id]))

    # -- scripted ops ------------------------------------------------------------

    def _run_script_op(self, account: str, step: dict) -> None:
        op = step["op"]
        try:
            getattr(self, f"_op_{op}")(account, step)
        except RugsimError as exc:
            self._failed(op, exc, account=account)

    def _op_drain(self, account: str, step: dict) -> None:
        pool_id = step["pool"]
        pool = self.pools[pool_id]
        rug_token = pool.token_x if pool.token_y == self.scenario.numeraire \
            else pool.token_y
        pending = PendingDrain(pool_id, account, rug_token, step["t_rug"],
                               step["t_total"], self.height, self.height + step["window"])
        self.pending_drains.append(pending)
        self._enqueue(self._chain_ctx, pending.executes_at, PRIORITY_DRAIN, "drain",
                      partial(self._exec_drain, pending))
        self._event("drain_submitted", pool_id, account, pending.t_rug, pending.t_total,
                    pending.executes_at)

    def _op_deposit(self, account: str, step: dict) -> None:
        vault_id, amount = step["vault"], step["amount"]
        serial, reward = self.vaults.deposit(self.ledger, vault_id, account, amount)
        self._queue_reward(reward)
        self._event("deposit", vault_id, account, amount,
                    self.vaults.vault(vault_id).params["receipt_kind"].value, serial)

    def _op_burn(self, account: str, step: dict) -> None:
        vault_id = step["vault"]
        supply, reward = self.vaults.burn_anticoins(self.ledger, vault_id, account,
                                                    step["amount"])
        self._queue_reward(reward)
        self._event("anticoin_burn", vault_id, account, step["amount"], supply)

    def _op_withdraw(self, account: str, step: dict) -> None:
        vault_id = step["vault"]
        owner, related = self._owners[account]
        result = self.vaults.withdraw(self.ledger, vault_id, account, step["amount"],
                                      TREASURY, related_accounts=related, owner=owner)
        self.total_penalties = self.total_penalties + result.penalty
        self._event("withdraw", vault_id, account, step["amount"], result.returned,
                    result.penalty, result.rate, result.withdrawal_index)

    def _op_transfer(self, account: str, step: dict) -> None:
        self.ledger.transfer(account, step["to"], step["token"],
                             step["amount"], memo="script-transfer")

    def _op_swap(self, account: str, step: dict) -> None:
        self._apply_swap(step["pool"], account, step["token_in"],
                         step["amount"], memo="script-swap")

    def _op_add_liquidity(self, account: str, step: dict) -> None:
        pool_id = step["pool"]
        pool = self.pools[pool_id]
        dx = step["dx"]
        lp = market.LP_TOKEN_PREFIX + pool_id
        minted, new_pool = market.pool_add_liquidity(pool, dx, step["dy"],
                                                     self.ledger.total_supply(lp))
        dy = new_pool.reserve_y - pool.reserve_y
        for token, amount in ((pool.token_x, dx), (pool.token_y, dy)):
            held = self.ledger.balance(account, token)
            if held < amount:
                raise BalanceError(f"{account} holds {held} {token}, cannot send {amount}")
        # checks first; the mint, the one write that can still fail, goes first
        self.ledger.mint(account, lp, minted, memo="add-liq")
        pool_account = self._pool_account(pool_id)
        self.ledger.transfer(account, pool_account, pool.token_x, dx, memo="add-liq")
        self.ledger.transfer(account, pool_account, pool.token_y, dy, memo="add-liq")
        self.pools[pool_id] = new_pool
        self._event("add_liquidity", pool_id, account, dx, dy)

    def _op_remove_liquidity(self, account: str, step: dict) -> None:
        pool_id = step["pool"]
        lp = market.LP_TOKEN_PREFIX + pool_id
        out_x, out_y, burned, new_pool = market.pool_remove_liquidity(
            self.pools[pool_id], step["share"], self.ledger.total_supply(lp))
        self.ledger.burn(account, lp, burned, memo="remove-liq")
        pool_account = self._pool_account(pool_id)
        self.ledger.transfer(pool_account, account, new_pool.token_x, out_x,
                             memo="remove-liq")
        self.ledger.transfer(pool_account, account, new_pool.token_y, out_y,
                             memo="remove-liq")
        self.pools[pool_id] = new_pool
        self._event("remove_liquidity", pool_id, account, out_x, out_y)

    def _op_open_position(self, account: str, step: dict) -> None:
        vault_id = step["vault"]
        book = self.perp_books[vault_id]
        vault = self.vaults.vault(vault_id)
        mark = self._mark_price(vault.rugged_token)
        unit_value = anticoin_value(vault.price_at_creation, mark)
        position = book.open_position(
            self.ledger, account, step["collateral"], step["leverage"],
            step["direction"], mark, unit_value)
        self._event("position_opened", vault_id, account, position.position_id,
                    position.collateral_ca, position.leverage, step["direction"].value, mark)

    def _op_register_intent(self, account: str, step: dict) -> None:
        self._register_intent(step, account)

    def _op_issue_bonded(self, account: str, step: dict) -> None:
        issuance = self.rugproof.issue_bonded_token(
            self.ledger, account, step["token"], step["total_issued"], step["x"])
        self._event("bonded_issuance", issuance.issuance_id, account, step["token"],
                    issuance.bond)

    def _op_rug_claim(self, account: str, step: dict) -> None:
        issuance_id = self._issuance_for_token(step["token"])
        claim = self.rugproof.submit_rug_claim(self.ledger, account,
                                               issuance_id, step["y"], self.height)
        self._event("rug_claim", claim.claim_id, issuance_id, account, claim.claim_bond,
                    claim.challenge_end)

    def _issuance_for_token(self, token: TokenId) -> str:
        for issuance_id in sorted(self.rugproof.issuances):
            issuance = self.rugproof.issuances[issuance_id]
            if issuance.token == token and issuance.status is IssuanceStatus.ACTIVE:
                return issuance_id
        raise StateError(f"no active issuance for {token}")

    def _op_vote_rug(self, account: str, step: dict) -> None:
        issuance_id = self._issuance_for_token(step["token"])
        claim = self.rugproof.open_claim_for(issuance_id)
        if claim is None:
            raise StateError(f"no open claim on {issuance_id}")
        self.rugproof.cast_vote(claim, account,
                                step["deposit"], step["side"], self.height)
        self._event("rug_vote", claim.claim_id, account, step["side"], step["deposit"])

    def _op_issue_policy(self, account: str, step: dict) -> None:
        policy = self.insurance.issue_policy(
            self.ledger, account, step["insured"],
            step["insured_value"], step["x"], step["duration"], self.height)
        self._event("policy_issued", policy.policy_id, account, step["insured"],
                    policy.insurer_bond)

    def _op_submit_claim(self, account: str, step: dict) -> None:
        claim = self.insurance.submit_claim(self.ledger, step["policy"],
                                            account, step["y"], self.height,
                                            loss_claimed=step["loss"])
        self._event("insurance_claim", claim.claim_id, step["policy"], account,
                    claim.claim_bond)

    def _op_join_claim(self, account: str, step: dict) -> None:
        claim = self._insurance_claim(step["claim"])
        joiner = self.insurance.join_claim(claim, account,
                                           step["loss"], step["w"], self.height)
        self._event("claim_joined", claim.claim_id, account, joiner.bond)

    def _insurance_claim(self, claim_id: str):
        claim = self.insurance.claims.get(claim_id)
        if claim is None:
            raise StateError(f"no insurance claim {claim_id}")
        return claim

    def _op_dispute_claim(self, account: str, step: dict) -> None:
        claim = self._insurance_claim(step["claim"])
        dispute = self.insurance.dispute_claim(claim, account,
                                               step["z"], self.height)
        self._event("claim_disputed", claim.claim_id, account, dispute.bond)

    def _op_vote_insurance(self, account: str, step: dict) -> None:
        claim = self._insurance_claim(step["claim"])
        self.insurance.cast_vote(claim, account,
                                 step["deposit"], step["side"], self.height)
        self._event("insurance_vote", claim.claim_id, account, step["side"])

    def _op_escalate(self, account: str, step: dict) -> None:
        claim = self._insurance_claim(step["claim"])
        self.insurance.escalate(claim, account, self.height)
        self._event("claim_escalated", claim.claim_id, account, claim.escalation_level)

    def _noise_trade(self, account: str, pool_id: str, prob: float, max_raw: int,
                     rng: random.Random) -> None:
        if rng.random() >= prob:
            return
        pool = self.pools[pool_id]
        size = rng.randint(1, max_raw)
        token = pool.token_x if rng.random() < 0.5 else pool.token_y
        size = min(size, self.ledger.balance_raw(account, token))
        if size <= 0:
            return
        try:
            self._apply_swap(pool_id, account, token, FixedAmount(size),
                             memo="noise")
        except RugsimError as exc:
            self._failed("noise", exc, account=account)

    # -- perps, disputes, bridge, tokenomics phases -------------------------------

    def _phase_perps(self, chain: str, view: ChainView, height: int) -> None:
        for vault_id, book in view.perp_books:
            vault = self.vaults.vault(vault_id)
            mark = self._mark_price(vault.rugged_token)
            if mark.raw <= 0:
                continue
            l_pool = ZERO
            if self.perp_amm is not None:
                l_pool = self._pool_liquidity(self.pools[self.perp_amm])
            if height % book.params["interval_blocks"] == 0 and l_pool.raw > 0:
                round_ = book.apply_funding(self.ledger, l_pool, TREASURY)
                if round_ is not None:
                    self._event("funding_round", vault_id, round_.rate,
                                round_.paying_side.value, round_.transfer_count,
                                round_.treasury_remainder)
            unit_value = anticoin_value(vault.price_at_creation, mark)
            events = book.flag_and_liquidate(self.ledger, mark, self._liquidation_bidder,
                                             height, PERP_SETTLEMENT, unit_value=unit_value)
            for event in events:
                self._event("liquidation", vault_id, event.position_id, event.kind,
                            event.liquidator, event.fee_ca, event.swap_ca)
                if event.swap_ca.raw > 0 and self.perp_amm is not None:
                    try:
                        proceeds = self._apply_swap(self.perp_amm, PERP_SETTLEMENT,
                                                    book.anticoin, event.swap_ca,
                                                    memo="liq-settle")
                        numeraire = self.scenario.numeraire
                        self.ledger.transfer(PERP_SETTLEMENT, TREASURY, numeraire,
                                             proceeds, memo="liq-proceeds")
                    except RugsimError as exc:
                        self._failed("liquidation_swap", exc, vault=vault_id)

    def _phase_dispute_deadlines(self, height: int) -> None:
        for claim_id in sorted(self.rugproof.claims):
            claim = self.rugproof.claims[claim_id]
            if claim.status is ClaimStatus.VOTING and height >= claim.challenge_end:
                resolution = self.rugproof.resolve_claim(claim, height)
                self._event("rug_claim_resolved", claim_id, resolution.outcome,
                            resolution.slashed)
        for claim_id in sorted(self.insurance.claims):
            claim = self.insurance.claims[claim_id]
            if claim.phase in (ClaimPhase.APPROVED, ClaimPhase.REJECTED):
                continue
            resolution = self.insurance.step_deadlines(self.ledger, claim, height)
            if resolution is not None:
                self._event("insurance_resolved", claim_id, resolution.outcome,
                            resolution.slashed)
        for policy_id in sorted(self.insurance.policies):
            policy = self.insurance.policies[policy_id]
            if policy.status is PolicyStatus.ACTIVE and height >= policy.expires_at \
                    and self.insurance.open_claim_for(policy_id) is None:
                self.insurance.expire_policy(policy_id, height)
                self._event("policy_expired", policy_id)

    def _queue_reward(self, reward: RewardEvent) -> None:
        deliver_at = self.height + self.scenario.bridge_delay_blocks
        self.bridge.append((deliver_at, reward))
        self._event("reward_emitted", reward.kind, reward.vault, reward.account,
                    reward.amount, deliver_at)

    def _phase_bridge(self, height: int) -> int:
        """Deliver the matured rewards; returns the raw R they minted."""
        due = [(t, r) for t, r in self.bridge if t <= height]
        self.bridge = [(t, r) for t, r in self.bridge if t > height]
        minted = 0
        for _, reward in due:
            account = reward.account
            self.ledger.mint(account, HOME_TOKEN, reward.amount,
                             memo=f"reward:{reward.kind}")
            minted += reward.amount.raw
            self._event("bridge_delivery", reward.kind, reward.vault, account, reward.amount)
        return minted

    def _phase_tokenomics(self, height: int, minted: int) -> None:
        """Emit, then burn toward the target; ``minted`` is the raw R the
        bridge minted this block. The ledger holds the only count of R."""
        tk = self.scenario.tokenomics
        emission = tk["epsilon_rate"]
        if emission.raw > 0:
            self.ledger.mint(TREASURY, HOME_TOKEN, emission, memo="emission")
        vaulted_value = tokenomics.aggregate_vault_stats(self.vaults, self.ledger,
                                                         self._mark_price)
        treasury_held = self.ledger.balance(TREASURY, HOME_TOKEN)
        target = tokenomics.target_supply(vaulted_value, tk["s0"])
        burned = tokenomics.burn_step(self.ledger.total_supply(HOME_TOKEN), tk, target,
                                      available=treasury_held)
        if burned.raw > 0:
            self.ledger.burn(TREASURY, HOME_TOKEN, burned, memo="supply-burn")
        self.trace.record_telemetry({
            "height": height,
            "emission": str(FixedAmount(minted + emission.raw)),
            "burned": str(burned),
            "current_supply": str(self.ledger.total_supply(HOME_TOKEN)),
            "target_supply": str(target),
        })

    # -- finalization ----------------------------------------------------------

    def mark_to_market(self, account: str) -> FixedAmount:
        """Account value in numeraire units: cash, the token_x of each
        numeraire pool at that pool's spot price, and each LP position as
        its pro-rata claim on both of its pool's reserves, valued alike."""
        numeraire = self.scenario.numeraire
        spots = {numeraire: ONE}
        for pool in self.pools.values():
            if pool.token_y == numeraire and pool.reserve_x.raw > 0:
                spots[pool.token_x] = market.spot_price(pool)
        held = {token: self.ledger.balance_raw(account, token) for token in spots}
        for pool in self.pools.values():
            lp = market.LP_TOKEN_PREFIX + pool.pool_id
            share = self.ledger.balance_raw(account, lp)
            if share > 0:
                supply = self.ledger.total_supply(lp).raw
                for token, reserve in ((pool.token_x, pool.reserve_x),
                                       (pool.token_y, pool.reserve_y)):
                    if token in held:
                        held[token] += _div_round_half_even(reserve.raw * share, supply)
        return fsum(FixedAmount(raw) * spots[token] for token, raw in held.items())

    def finalize(self) -> None:
        snapshot = self.ledger.snapshot()
        self.trace.final_state = {
            "height": self.height,
            "balances": snapshot["balances"],
            "supply": snapshot["supply"],
            "pools": {
                pid: {"reserve_x": str(p.reserve_x), "reserve_y": str(p.reserve_y),
                      "token_x": p.token_x, "token_y": p.token_y,
                      "fee_bps": p.fee_bps}
                for pid, p in sorted(self.pools.items())},
            "vaults": self.vaults.snapshot(self.scenario.chains),
            "perps": {vid: book.snapshot()
                      for vid, book in sorted(self.perp_books.items())},
            "insurance": self.insurance.snapshot(),
            "home_token_supply": str(self.ledger.total_supply(HOME_TOKEN)),
            "total_penalties": str(self.total_penalties),
            "failed_events": self.trace.failed_events,
        }


def run_scenario(doc: dict, blocks: Optional[int] = None, seed: Optional[int] = None,
                 out_dir: Optional[str] = None) -> tuple[Simulation, Trace]:
    """Load, run, and finalize a scenario document in one call; with
    ``out_dir`` the trace streams there (see ``Trace``), opened only once
    the document has loaded."""
    if seed is not None:
        doc = dict(doc)
        doc["seed"] = seed
    scenario = load_scenario(doc)
    sim = Simulation(scenario, out_dir)
    trace = sim.run(blocks)
    return sim, trace
