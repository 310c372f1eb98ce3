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
traders, peg keepers, perp books) is listed per chain once, at materialize,
in the order a scan of the whole world would meet it. Each scripted step
runs on the one chain that its pool, vault or token fixes (home for the
rest), so steps are indexed by height and chain. After every block the
ledger re-sums every balance per token against that token's supply.

A queued transaction is a bound action; its kind names it in the ``failed``
event if it raises. A pending drain leaves ``pending_drains`` when its
transaction runs, at ``executes_at``, whether the drain succeeds or fails;
the sandwich post leg and the back-run planned against it fail unless it
executed.

Module errors never crash a run; they are recorded as failed events.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Any, Callable, Optional

from . import detection, market, perps, tokenomics
from .core import (
    AccountId,
    BlockTime,
    FixedAmount,
    ParameterError,
    RugsimError,
    SeededRng,
    StateError,
    TokenId,
    ZERO,
    _checked,
)
from .detection import (
    AuxMonitor,
    IntentAction,
    IntentBook,
    PoolMonitor,
    SolverBid,
)
from .insurance import ClaimPhase, InsuranceBook, InsuranceParams, PolicyStatus
from .ledger import BalanceError, Ledger
from .market import DrainEvent, PoolState
from .perps import FundingParams, MaintenanceRule, PerpBook
from .rugproof import ClaimStatus, IssuanceStatus, RugproofBook, SlashParams
from .scenario import HOME_TOKEN, SCRIPT_OPS, Scenario, load_scenario
from .trace import Trace
from .vault import RewardEvent, VaultRegistry, anticoin_value

TREASURY = "treasury"
PERP_SETTLEMENT = "perps-settlement"

# queue priorities: higher executes first within a block; protective plans
# sit above PRIORITY_DRAIN by the scenario's protocol_priority_boost
PRIORITY_PEG_KEEPER = 10
PRIORITY_DRAIN = 0
PRIORITY_SANDWICH_POST = -10
PRIORITY_BACKRUN = -20


@dataclass
class QueuedTx:
    chain: str
    execute_at: int
    priority: int
    seq: int
    kind: str
    action: Callable[[], None]


@dataclass
class PendingDrain:
    event: DrainEvent
    rug_token: TokenId
    frontrun_planned: set = field(default_factory=set)
    sandwich_planned: bool = False
    backrun_planned: bool = False
    executed: bool = False


@dataclass
class Agent:
    kind: str
    account: AccountId
    params: dict


@dataclass
class ChainView:
    """What one chain's step visits, in the order a scan of the whole world
    would meet it. Pools, tokens, vaults and agents never change chain, so
    the views are built once, at materialize."""

    processes: list[tuple[TokenId, market.PriceProcess]] = field(default_factory=list)
    pool_ids: list[str] = field(default_factory=list)
    monitors: list[tuple[str, PoolMonitor]] = field(default_factory=list)
    # (creator account, chain token) pairs whose outflows the aux scan reads
    outflow_keys: list[tuple[str, TokenId]] = field(default_factory=list)
    # chain tokens whose mints the aux scan reads (R is excluded)
    mint_tokens: list[TokenId] = field(default_factory=list)
    # (agent, pool id, trade probability, largest size in raw quanta, rng)
    noise: list[tuple[Agent, str, float, int, random.Random]] = field(default_factory=list)
    # (agent, budget, tolerance)
    pegkeepers: list[tuple[Agent, FixedAmount, FixedAmount]] = field(default_factory=list)
    perp_books: list[tuple[str, PerpBook]] = field(default_factory=list)


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

        self.accounts: dict[str, AccountId] = {}
        self.owner_accounts: dict[str, list[str]] = {}
        self.token_chain: dict[TokenId, str] = {scenario.numeraire: scenario.home_chain}
        self.processes: dict[TokenId, market.PriceProcess] = {}
        self.prices: dict[TokenId, FixedAmount] = {}
        self.pools: dict[str, PoolState] = {}
        self.pool_chain: dict[str, str] = {}
        self.registries: dict[str, VaultRegistry] = {
            chain: VaultRegistry(chain) for chain in scenario.chains}
        self.vault_chain: dict[str, str] = {}
        self.perp_books: dict[str, PerpBook] = {}
        self.perp_amm: Optional[str] = None
        self.intent_book = IntentBook()
        self.monitors: dict[str, PoolMonitor] = {}
        self.aux_monitors: dict[str, AuxMonitor] = {}
        self.agents: list[Agent] = []
        # agents of each kind, in self.agents order; filled at materialize
        self.agents_by_kind: dict[str, list[Agent]] = {}
        # (height, chain) -> (agent, step) in self.agents order, then script order
        self._script_steps: dict[tuple[int, str], list[tuple[Agent, dict]]] = {}
        # satellites in scenario order, then home; per-chain views
        self._chain_order: list[str] = []
        self._chain_views: dict[str, ChainView] = {}
        self.queue: list[QueuedTx] = []
        self.pending_drains: list[PendingDrain] = []
        self.bridge: list[tuple[int, RewardEvent]] = []
        self.total_penalties = ZERO
        # per-pool LP share ledger: exact pool fractions per account,
        # genesis liquidity held by the synthetic "protocol" holder
        self.lp_shares: dict[str, dict[str, Fraction]] = {}
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
        for entry in sc.accounts:
            account = AccountId(value=entry["id"], owner=entry["owner"])
            self.accounts[account.value] = account
            self.owner_accounts.setdefault(account.owner, []).append(account.value)
            for token, balance in entry["balances"].items():
                self.ledger.mint(account.value, token, balance, memo="genesis")

        for entry in sc.tokens:
            token = entry["id"]
            self.token_chain[token] = entry["chain"]
            if entry["price_process"] is not None:
                self.processes[token] = market.PriceProcess(**entry["price_process"])
                self.prices[token] = market.price_at(self.processes[token], 0)

        for entry in sc.pools:
            pool = PoolState(entry["id"], entry["token_x"], entry["token_y"],
                             entry["reserve_x"], entry["reserve_y"],
                             fee_bps=entry["fee_bps"])
            self.pools[pool.pool_id] = pool
            self.pool_chain[pool.pool_id] = entry["chain"]
            account = self._pool_account(pool.pool_id)
            self.ledger.mint(account, pool.token_x, pool.reserve_x, memo="genesis-pool")
            self.ledger.mint(account, pool.token_y, pool.reserve_y, memo="genesis-pool")
            self.lp_shares[pool.pool_id] = {"protocol": Fraction(1)}
            self._prev_volumes[pool.pool_id] = 0
            self._prev_liquidity[pool.pool_id] = self._pool_liquidity(pool).raw

        for entry in sc.vaults:
            chain = entry["chain"]
            token = entry["rugged_token"]
            vault = self.registries[chain].create_vault(
                token, entry["receipt_kind"], entry["omega"], entry["theta"],
                entry["penalty_k"], entry["penalty_lambda"], entry["gamma_base"],
                entry["delta_gamma"], self.prices[token], vault_id=entry["id"])
            self.vault_chain[vault.vault_id] = chain
            self.token_chain[vault.anticoin] = chain

        tk = sc.tokenomics
        self.supply_params = tokenomics.SupplyParams(
            s0=tk["s0"], epsilon_rate=tk["epsilon_rate"], beta_burn=tk["beta_burn"],
            kappa=tk["kappa"])
        self.ledger.mint(TREASURY, HOME_TOKEN, tk["initial_supply"], memo="genesis-supply")

        perp = sc.perps
        if perp is not None:
            funding = FundingParams(alpha_base=perp["alpha_base"], l_min=perp["l_min"],
                                    interval_blocks=perp["interval_blocks"])
            rule = MaintenanceRule(
                maintenance_fraction=perp["maintenance_fraction"],
                liquidator_deadline_blocks=perp["liquidator_deadline_blocks"],
                liquidator_fee_fraction=perp["liquidator_fee_fraction"])
            self.perp_amm = perp["amm_pool"]
            for vault_id in perp["enabled_vaults"]:
                chain = self.vault_chain[vault_id]
                vault = self.registries[chain].vault(vault_id)
                self.perp_books[vault_id] = PerpBook(
                    vault_id, vault.anticoin, funding, rule, perp["max_leverage"],
                    revalue_collateral=perp["revalue_collateral"])

        # the dispute sections' fields are the parameter records' fields
        self.rugproof = RugproofBook(SlashParams(**sc.rugproof), treasury=TREASURY)
        self.insurance = InsuranceBook(InsuranceParams(**sc.insurance), sc.numeraire,
                                       treasury=TREASURY)

        det = sc.detection
        # protocol transactions outbid drains by this much (the fee
        # escalation knob); protective plans use it, salvage stays below
        self.priority_boost = max(1, det["protocol_priority_boost"])
        self.sandwich_treasury_fraction = det["sandwich_treasury_fraction"]
        for pool_id, pool in self.pools.items():
            if sc.numeraire in (pool.token_x, pool.token_y):
                self.monitors[pool_id] = PoolMonitor(pool_id, det["drop_threshold"])
        for chain in sc.chains:
            self.aux_monitors[chain] = AuxMonitor(
                mint_spike_factor=det["mint_spike_factor"],
                wallet_outflow_fraction=det["wallet_outflow_fraction"],
                volume_spike_factor=det["volume_spike_factor"])

        # tokens with no chain entry (R, bonded tokens) and home ops run on home
        chain_of = {"pool": self.pool_chain, "vault": self.vault_chain,
                    "token": self.token_chain, "home": {}}
        for entry in sc.agents:
            agent = Agent(kind=entry["kind"], account=self.accounts[entry["account"]],
                          params=entry)
            self.agents.append(agent)
            self.agents_by_kind.setdefault(agent.kind, []).append(agent)
            for step in entry["script"]:
                entity = SCRIPT_OPS[step["op"]][0]
                chain = chain_of[entity].get(step.get(entity), sc.home_chain)
                self._script_steps.setdefault((step["block"], chain), []).append(
                    (agent, step))
        self._build_step_plan()

        for entry in sc.intents:
            self._register_intent(entry, entry["owner"])

        # genesis funding is not block activity
        for view in self._chain_views.values():
            self._unscanned_mints.update(dict.fromkeys(view.mint_tokens, 0))
            self._unscanned_outflows.update(dict.fromkeys(view.outflow_keys, 0))

    def _build_step_plan(self) -> None:
        """Fill the per-chain views."""
        sc = self.scenario
        self._chain_order = [c for c in sc.chains if c != sc.home_chain] + [sc.home_chain]
        views = self._chain_views = {chain: ChainView() for chain in sc.chains}
        for token, process in self.processes.items():
            views[self.token_chain[token]].processes.append((token, process))
        for pool_id in self.pools:
            views[self.pool_chain[pool_id]].pool_ids.append(pool_id)
        for pool_id, monitor in self.monitors.items():
            views[self.pool_chain[pool_id]].monitors.append((pool_id, monitor))
        for token, chain in self.token_chain.items():
            if token != HOME_TOKEN:
                views[chain].mint_tokens.append(token)
        for creator in self.agents_by_kind.get("creator", []):
            for token in self.processes:
                views[self.token_chain[token]].outflow_keys.append(
                    (creator.account.value, token))
        for agent in self.agents:
            noise = agent.params["noise"]
            if noise is not None:
                views[self.pool_chain[noise["pool"]]].noise.append(
                    (agent, noise["pool"], float(noise["prob"]), noise["max_size"].raw,
                     self.rng.stream("noise", agent.account.value)))
        for keeper in self.agents_by_kind.get("pegkeeper", []):
            params = keeper.params
            views[self.pool_chain[params["pool"]]].pegkeepers.append(
                (keeper, params["budget"], params["tolerance"]))
        for vault_id, book in self.perp_books.items():
            views[self.vault_chain[vault_id]].perp_books.append((vault_id, book))
        solvers = sorted(self.agents_by_kind.get("solver", []),
                         key=lambda a: a.account.value)
        self._solver_bids = [SolverBid(a.account, a.params["fee_bps"]) for a in solvers]
        liquidators = sorted(self.agents_by_kind.get("liquidator", []),
                             key=lambda a: a.account.value)
        # the first liquidator by account id bids on every flagged position
        self._liquidation_bidder = liquidators[0].account.value if liquidators else None

    def _register_intent(self, entry: dict, owner: str) -> None:
        pool_id = entry["pool"]
        pool = self.pools[pool_id]
        token = entry["token"]
        self.intent_book.register(
            owner=self.accounts[owner], pool=pool_id, token=token,
            theta_price=entry["theta_price"], theta_liquidity=entry["theta_liquidity"],
            action=entry["action"], price_ref=self.prices.get(token, ZERO),
            liquidity_ref=self._pool_liquidity(pool), vault=entry["vault"],
            solver_fee_bps=entry["solver_fee_bps"])
        self._event("intent_registered", owner=owner, pool=pool_id,
                    theta_price=str(entry["theta_price"]),
                    theta_liquidity=str(entry["theta_liquidity"]))

    # -- small helpers -------------------------------------------------------

    def _pool_account(self, pool_id: str) -> str:
        return f"pool:{pool_id}"

    def _vault_for_token(self, token: TokenId) -> Optional[str]:
        for registry in self.registries.values():
            vault = registry.vault_for_token(token)
            if vault is not None:
                return vault.vault_id
        return None

    def _pool_liquidity(self, pool: PoolState) -> FixedAmount:
        """The liquid (numeraire) side of a pool, else the y reserve."""
        if pool.token_x == self.scenario.numeraire:
            return pool.reserve_x
        return pool.reserve_y

    def _record_ledger_event(self, event: dict, amount: FixedAmount) -> None:
        event["h"] = self.height
        event["chain"] = self._chain_ctx
        self.trace.record(event)
        if event["type"] == "mint":
            totals, key = self._unscanned_mints, event["token"]
        elif event["type"] == "transfer":
            totals, key = self._unscanned_outflows, (event["src"], event["token"])
        else:
            return
        unscanned = totals.get(key)
        if unscanned is not None:
            totals[key] = _checked(unscanned + amount.raw)

    def _event(self, event_type: str, **fields: Any) -> None:
        event = {"type": event_type, "h": self.height, "chain": self._chain_ctx}
        event.update(fields)
        self.trace.record(event)

    def _failed(self, op: str, error: Exception, **fields: Any) -> None:
        self._event("failed", op=op, error=type(error).__name__,
                    detail=str(error), **fields)

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
        pool = self.pools[pool_id]
        dy, new_pool = market.pool_swap(pool, input_token, dx)
        out_token = pool.other(input_token)
        pool_account = self._pool_account(pool_id)
        self.ledger.transfer(account, pool_account, input_token, dx, memo=memo)
        self.ledger.transfer(pool_account, account, out_token, dy, memo=memo)
        self.pools[pool_id] = new_pool
        self._event("swap", pool=pool_id, account=account, token_in=input_token,
                    amount_in=str(dx), token_out=out_token, amount_out=str(dy),
                    memo=memo)
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
        at = BlockTime(height, chain)

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
        for agent, step in self._script_steps.get((height, chain), ()):
            self._run_script_op(agent, step, at)

        # (4b) parametric noise traders
        for noise in view.noise:
            self._noise_trade(*noise)

        # (5) perps funding and liquidation
        self._phase_perps(chain, view, at)

        # (6) dispute deadlines fire, (7) the bridge delivers and (8) supply
        # emission and the burn controller run, all on the home chain
        if chain == self.scenario.home_chain:
            self._phase_dispute_deadlines(at)
            self._phase_tokenomics(height, self._phase_bridge(height))

        # (9) telemetry is the per-block row written in _phase_tokenomics

    # -- phases ----------------------------------------------------------------

    def _phase_detection(self, chain: str, view: ChainView, height: int) -> None:
        detectors = self.agents_by_kind.get("detector", [])

        for pool_id, monitor in view.monitors:
            signal = monitor.observe(height, self._pool_liquidity(self.pools[pool_id]))
            if signal is not None:
                self._event("risk_signal", kind=signal.kind.value, pool=pool_id,
                            magnitude=str(signal.magnitude))

        # auxiliary metrics over activity since this chain's last scan
        # (everything the previous block did, nothing of this one yet), in
        # raw ints; no term is negative, so the scan range-checks the mint
        # and volume sums once
        aux = self.aux_monitors.get(chain)
        if aux is not None:
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
            for signal in aux.scan(height, minted, outflow, balance_before, volume,
                                   delta_liq):
                self._event("risk_signal", kind=signal.kind.value,
                            magnitude=str(signal.magnitude))

        # planners against this chain's pending drains, up to and including
        # the height each executes at
        for pending in self.pending_drains:
            ev = pending.event
            if ev.submitted_at.chain != chain:
                continue
            pool = self.pools[ev.pool]
            rug_token = pending.rug_token
            for det in detectors:
                if height < ev.executes_at.height:
                    for name in det.params["protects"]:
                        if name in pending.frontrun_planned:
                            continue
                        holdings = self.ledger.balance(name, rug_token)
                        plan = detection.plan_frontrun(
                            ev, pool, rug_token, self.accounts[name], holdings,
                            height, PRIORITY_DRAIN)
                        pending.frontrun_planned.add(name)
                        if plan is None:
                            continue
                        self._event("plan", kind="frontrun", account=name,
                                    pool=ev.pool, amount=str(plan.leg.amount_in),
                                    quoted=str(plan.leg.quoted_out))
                        self._enqueue(chain, height,
                                      PRIORITY_DRAIN + self.priority_boost,
                                      "plan_swap",
                                      partial(self._apply_swap, ev.pool, name, rug_token,
                                              plan.leg.amount_in, memo="frontrun"))
                budget = det.params["sandwich_budget"]
                if (budget.raw > 0 and not pending.sandwich_planned
                        and height == ev.executes_at.height - 1):
                    pending.sandwich_planned = True
                    own = self.ledger.balance(det.account.value, rug_token)
                    plan = detection.plan_sandwich(
                        ev, pool, rug_token, det.account, min(budget, own),
                        height, PRIORITY_DRAIN)
                    if plan is not None:
                        self._event("plan", kind="sandwich", account=det.account.value,
                                    pool=ev.pool,
                                    expected_profit=str(plan.expected_profit))
                        # the post leg settles against the pre leg's output
                        pre_out: list[FixedAmount] = []
                        legs = (ev.pool, det.account.value, rug_token)
                        self._enqueue(chain, ev.executes_at.height,
                                      PRIORITY_DRAIN + self.priority_boost,
                                      "sandwich_pre",
                                      partial(self._exec_sandwich_pre, pre_out, *legs,
                                              plan.pre.leg.amount_in))
                        self._enqueue(chain, ev.executes_at.height,
                                      PRIORITY_SANDWICH_POST, "sandwich_post",
                                      partial(self._exec_sandwich_post, pending, pre_out,
                                              *legs, plan.post.leg.quoted_out))
                back_budget = det.params["backrun_budget"]
                if (back_budget.raw > 0 and not pending.backrun_planned
                        and height == ev.executes_at.height):
                    pending.backrun_planned = True
                    self._enqueue(chain, ev.executes_at.height, PRIORITY_BACKRUN,
                                  "backrun",
                                  partial(self._exec_backrun, pending, det.account,
                                          back_budget, det.params["backrun_cap"]))

        # intents; prices and liquidity are gathered only while one is pending
        chain_prices = chain_liquidity = {}
        if self.intent_book.pending():
            chain_prices = {token: self.prices[token] for token, _ in view.processes}
            chain_liquidity = {pid: self._pool_liquidity(self.pools[pid])
                               for pid in view.pool_ids}
        for execution in detection.solver_step(self.intent_book, chain_prices,
                                               chain_liquidity, height,
                                               self._solver_bids):
            self._event("intent_triggered", intent=execution.intent.intent_id,
                        owner=execution.intent.owner.value,
                        solver=execution.solver.value, fee_bps=execution.fee_bps)
            self._enqueue(chain, height,
                          PRIORITY_DRAIN + max(1, self.priority_boost - 5),
                          "intent", partial(self._exec_intent, execution))

        # peg keeper planning
        for keeper in view.pegkeepers:
            self._enqueue(chain, height, PRIORITY_PEG_KEEPER, "peg_keeper",
                          partial(self._exec_peg_keeper, *keeper))

    def _execute_tx(self, tx: QueuedTx) -> None:
        try:
            tx.action()
        except RugsimError as exc:
            self._failed(tx.kind, exc)

    def _exec_drain(self, pending: PendingDrain) -> None:
        self.pending_drains.remove(pending)
        ev = pending.event
        pool = self.pools[ev.pool]
        rug_token = pending.rug_token
        creator = ev.creator.value
        held = self.ledger.balance(creator, rug_token)
        if held < ev.t_rug_supply:
            raise BalanceError(
                f"creator holds {held} {rug_token}, cannot drain {ev.t_rug_supply}")
        result = market.execute_drain(ev, pool, rug_token, self.height)
        if result.liquid_out.raw > 0:
            pool_account = self._pool_account(ev.pool)
            liquid_token = pool.other(rug_token)
            self.ledger.transfer(creator, pool_account, rug_token,
                                 ev.t_rug_supply, memo="drain")
            self.ledger.transfer(pool_account, creator, liquid_token,
                                 result.liquid_out, memo="drain")
            self.pools[ev.pool] = result.pool
        self._event("drain_executed", pool=ev.pool, creator=creator,
                    naive_target=str(result.naive_target),
                    realized=str(result.liquid_out),
                    spot_after=str(market.spot_price(self.pools[ev.pool])))
        pending.executed = True

    def _exec_sandwich_pre(self, pre_out: list, pool_id: str, account: str,
                           rug_token: TokenId, amount: FixedAmount) -> None:
        pre_out.append(self._apply_swap(pool_id, account, rug_token, amount,
                                        memo="sandwich_pre"))

    def _exec_sandwich_post(self, pending: PendingDrain, pre_out: list, pool_id: str,
                            account: str, rug_token: TokenId, target: FixedAmount) -> None:
        if not pending.executed:
            raise StateError(f"the drain on {pool_id} did not execute")
        pool = self.pools[pool_id]
        liquid_token = pool.other(rug_token)
        cost = market.pool_quote_exact_out(pool, rug_token, target)
        held = self.ledger.balance(account, liquid_token)
        if held < cost:
            raise StateError(f"sandwich post-leg needs {cost}, holds {held}")
        self._apply_swap(pool_id, account, liquid_token, cost, memo="sandwich_post")
        if not pre_out:
            return
        profit = pre_out[0] - cost
        if profit.raw > 0 and self.sandwich_treasury_fraction.raw > 0:
            cut = profit * self.sandwich_treasury_fraction
            self.ledger.transfer(account, TREASURY, liquid_token, cut,
                                 memo="sandwich-profit")
            self._event("sandwich_settled", account=account,
                        profit=str(profit), to_treasury=str(cut))

    def _exec_backrun(self, pending: PendingDrain, account: AccountId,
                      budget: FixedAmount, cap: FixedAmount) -> None:
        # planned at execution time: the quote needs the post-drain reserves
        ev, rug_token = pending.event, pending.rug_token
        if not pending.executed:
            raise StateError(f"the drain on {ev.pool} did not execute")
        pool = self.pools[ev.pool]
        numeraire = pool.other(rug_token)
        budget = min(budget, self.ledger.balance(account.value, numeraire))
        plan = detection.plan_backrun(ev, pool, rug_token, account, budget, cap,
                                      now=self.height)
        if plan is None:
            return
        self._apply_swap(ev.pool, account.value, plan.leg.input_token,
                         plan.leg.amount_in, memo="backrun")

    def _exec_intent(self, execution: detection.IntentExecution) -> None:
        intent = execution.intent
        owner = intent.owner.value
        holdings = self.ledger.balance(owner, intent.token)
        if holdings.raw <= 0:
            self._event("intent_skipped", intent=intent.intent_id, owner=owner,
                        reason="no holdings")
            return
        if intent.action is IntentAction.EXIT_TO_NUMERAIRE:
            proceeds = self._apply_swap(intent.pool, owner, intent.token, holdings,
                                        memo="intent")
            fee = proceeds * execution.fee_bps / 10000
            out_token = self.pools[intent.pool].other(intent.token)
            if fee.raw > 0:
                self.ledger.transfer(owner, execution.solver.value, out_token,
                                     fee, memo="solver-fee")
        else:  # swap_to_anticoin: vault deposit, fee paid in anticoins
            vault_id = intent.vault or self._vault_for_token(intent.token)
            if vault_id is None:
                raise StateError(f"no vault accepts {intent.token}")
            chain = self.vault_chain[vault_id]
            registry = self.registries[chain]
            minted, _, reward = registry.deposit(self.ledger, vault_id,
                                                 intent.owner, holdings)
            self._queue_reward(reward)
            fee = minted * execution.fee_bps / 10000
            anticoin = registry.vault(vault_id).anticoin
            if fee.raw > 0:
                self.ledger.transfer(owner, execution.solver.value, anticoin,
                                     fee, memo="solver-fee")
        self._event("intent_executed", intent=intent.intent_id, owner=owner,
                    solver=execution.solver.value, fee_bps=execution.fee_bps)

    def _exec_peg_keeper(self, agent: Agent, budget: FixedAmount,
                         tolerance: FixedAmount) -> None:
        pool_id = agent.params["pool"]
        pool = self.pools[pool_id]
        vault_id = agent.params["vault"]
        if vault_id is None:
            return
        chain = self.vault_chain[vault_id]
        vault = self.registries[chain].vault(vault_id)
        peg = anticoin_value(vault, self._mark_price(vault.rugged_token))
        spot = market.spot_price(pool)
        input_token = pool.token_x if spot > peg else pool.token_y
        budget = min(budget, self.ledger.balance(agent.account.value, input_token))
        trade = market.peg_keeper_step(pool, peg, budget, tolerance)
        if trade is None:
            return
        self._apply_swap(pool_id, agent.account.value, trade.input_token,
                         trade.amount_in, memo="peg_keeper")
        self._event("peg_trade", pool=pool_id, peg=str(peg),
                    amount_in=str(trade.amount_in), token_in=trade.input_token,
                    spot_after=str(market.spot_price(self.pools[pool_id])))

    # -- scripted ops ------------------------------------------------------------

    def _run_script_op(self, agent: Agent, step: dict, at: BlockTime) -> None:
        op = step["op"]
        try:
            getattr(self, f"_op_{op}")(agent, step, at)
        except RugsimError as exc:
            self._failed(op, exc, account=agent.account.value)

    def _op_drain(self, agent: Agent, step: dict, at: BlockTime) -> None:
        pool_id = step["pool"]
        ev = DrainEvent(pool=pool_id, creator=agent.account,
                        t_rug_supply=step["t_rug"], t_total_supply=step["t_total"],
                        submitted_at=at,
                        executes_at=BlockTime(at.height + step["window"], at.chain))
        pool = self.pools[pool_id]
        rug_token = pool.token_x if pool.token_y == self.scenario.numeraire \
            else pool.token_y
        pending = PendingDrain(event=ev, rug_token=rug_token)
        self.pending_drains.append(pending)
        self._enqueue(at.chain, ev.executes_at.height, PRIORITY_DRAIN, "drain",
                      partial(self._exec_drain, pending))
        self._event("drain_submitted", pool=pool_id, creator=agent.account.value,
                    t_rug=str(ev.t_rug_supply), t_total=str(ev.t_total_supply),
                    executes_at=ev.executes_at.height)

    def _op_deposit(self, agent: Agent, step: dict, at: BlockTime) -> None:
        vault_id = step["vault"]
        minted, receipt, reward = self.registries[at.chain].deposit(
            self.ledger, vault_id, agent.account, step["amount"])
        self._queue_reward(reward)
        self._event("deposit", vault=vault_id, account=agent.account.value,
                    amount=str(minted), receipt_kind=receipt.kind.value,
                    serial=receipt.nft_serial)

    def _op_burn(self, agent: Agent, step: dict, at: BlockTime) -> None:
        vault_id = step["vault"]
        supply, reward = self.registries[at.chain].burn_anticoins(
            self.ledger, vault_id, agent.account, step["amount"])
        self._queue_reward(reward)
        self._event("anticoin_burn", vault=vault_id, account=agent.account.value,
                    amount=str(step["amount"]), supply_after=str(supply))

    def _op_withdraw(self, agent: Agent, step: dict, at: BlockTime) -> None:
        vault_id = step["vault"]
        related = self.owner_accounts.get(agent.account.owner, [agent.account.value])
        result = self.registries[at.chain].withdraw(
            self.ledger, vault_id, agent.account, step["amount"], TREASURY,
            related_accounts=related)
        self.total_penalties = self.total_penalties + result.penalty
        self._event("withdraw", vault=vault_id, account=agent.account.value,
                    amount=str(step["amount"]), returned=str(result.returned),
                    penalty=str(result.penalty), rate=str(result.rate),
                    index=result.withdrawal_index)

    def _op_transfer(self, agent: Agent, step: dict, at: BlockTime) -> None:
        self.ledger.transfer(agent.account.value, step["to"], step["token"],
                             step["amount"], memo="script-transfer")

    def _op_swap(self, agent: Agent, step: dict, at: BlockTime) -> None:
        self._apply_swap(step["pool"], agent.account.value, step["token_in"],
                         step["amount"], memo="script-swap")

    def _op_add_liquidity(self, agent: Agent, step: dict, at: BlockTime) -> None:
        pool_id = step["pool"]
        pool = self.pools[pool_id]
        dx = step["dx"]
        dy = pool.reserve_y * dx / pool.reserve_x if step["dy"] == "auto" else step["dy"]
        account = agent.account.value
        new_pool = market.pool_add_liquidity(pool, dx, dy)
        pool_account = self._pool_account(pool_id)
        self.ledger.transfer(account, pool_account, pool.token_x, dx, memo="add-liq")
        self.ledger.transfer(account, pool_account, pool.token_y, dy, memo="add-liq")
        # dilute existing holders by the growth, credit the rest to the depositor
        added = Fraction(dx.raw, new_pool.reserve_x.raw)
        shares = self.lp_shares[pool_id]
        for holder in list(shares):
            shares[holder] *= 1 - added
        shares[account] = shares.get(account, Fraction(0)) + added
        self.pools[pool_id] = new_pool
        self._event("add_liquidity", pool=pool_id, account=account,
                    dx=str(dx), dy=str(dy))

    def _op_remove_liquidity(self, agent: Agent, step: dict, at: BlockTime) -> None:
        pool_id = step["pool"]
        share = step["share"]
        account = agent.account.value
        shares = self.lp_shares[pool_id]
        owned = shares.get(account, Fraction(0))
        if Fraction(share.raw, 10**9) > owned:
            raise ParameterError(
                f"{account} owns {float(owned):.4f} of {pool_id}, "
                f"cannot remove {share}")
        out_x, out_y, new_pool = market.pool_remove_liquidity(
            self.pools[pool_id], share)
        pool_account = self._pool_account(pool_id)
        self.ledger.transfer(pool_account, account, new_pool.token_x, out_x,
                             memo="remove-liq")
        self.ledger.transfer(pool_account, account, new_pool.token_y, out_y,
                             memo="remove-liq")
        removed = Fraction(share.raw, 10**9)
        if removed == 1:
            shares.clear()
        else:
            shares[account] = owned - removed
            for holder in list(shares):
                shares[holder] /= 1 - removed
        self.pools[pool_id] = new_pool
        self._event("remove_liquidity", pool=pool_id, account=account,
                    out_x=str(out_x), out_y=str(out_y))

    def _op_open_position(self, agent: Agent, step: dict, at: BlockTime) -> None:
        vault_id = step["vault"]
        book = self.perp_books[vault_id]
        vault = self.registries[at.chain].vault(vault_id)
        mark = self._mark_price(vault.rugged_token)
        unit_value = anticoin_value(vault, mark)
        position = book.open_position(
            self.ledger, agent.account, step["collateral"], step["leverage"],
            step["direction"], mark, unit_value)
        self._event("position_opened", vault=vault_id, account=agent.account.value,
                    position=position.position_id, collateral=str(position.collateral_ca),
                    leverage=str(position.leverage), direction=step["direction"].value,
                    entry=str(mark))

    def _op_register_intent(self, agent: Agent, step: dict, at: BlockTime) -> None:
        self._register_intent(step, agent.account.value)

    def _op_issue_bonded(self, agent: Agent, step: dict, at: BlockTime) -> None:
        issuance = self.rugproof.issue_bonded_token(
            self.ledger, agent.account, step["token"], step["total_issued"], step["x"])
        self._event("bonded_issuance", issuance=issuance.issuance_id,
                    issuer=agent.account.value, token=step["token"],
                    bond=str(issuance.bond))

    def _op_rug_claim(self, agent: Agent, step: dict, at: BlockTime) -> None:
        issuance_id = self._issuance_for_token(step["token"])
        claim = self.rugproof.submit_rug_claim(self.ledger, agent.account,
                                               issuance_id, step["y"], at)
        self._event("rug_claim", claim=claim.claim_id, issuance=issuance_id,
                    claimant=agent.account.value, bond=str(claim.claim_bond),
                    challenge_end=claim.challenge_end)

    def _issuance_for_token(self, token: TokenId) -> str:
        for issuance_id in sorted(self.rugproof.issuances):
            issuance = self.rugproof.issuances[issuance_id]
            if issuance.token == token and issuance.status is IssuanceStatus.ACTIVE:
                return issuance_id
        raise StateError(f"no active issuance for {token}")

    def _op_vote_rug(self, agent: Agent, step: dict, at: BlockTime) -> None:
        issuance_id = self._issuance_for_token(step["token"])
        claim = self.rugproof.open_claim_for(issuance_id)
        if claim is None:
            raise StateError(f"no open claim on {issuance_id}")
        self.rugproof.cast_vote(self.ledger, claim, agent.account,
                                step["deposit"], step["side"], at)
        self._event("rug_vote", claim=claim.claim_id, voter=agent.account.value,
                    side=step["side"], deposit=str(step["deposit"]))

    def _op_issue_policy(self, agent: Agent, step: dict, at: BlockTime) -> None:
        policy = self.insurance.issue_policy(
            self.ledger, agent.account, self.accounts[step["insured"]],
            step["insured_value"], step["x"], step["duration"], at)
        self._event("policy_issued", policy=policy.policy_id,
                    insurer=agent.account.value, insured=step["insured"],
                    bond=str(policy.insurer_bond))

    def _op_submit_claim(self, agent: Agent, step: dict, at: BlockTime) -> None:
        claim = self.insurance.submit_claim(self.ledger, step["policy"],
                                            agent.account, step["y"], at,
                                            loss_claimed=step["loss"])
        self._event("insurance_claim", claim=claim.claim_id, policy=step["policy"],
                    claimant=agent.account.value, bond=str(claim.claim_bond))

    def _op_join_claim(self, agent: Agent, step: dict, at: BlockTime) -> None:
        claim = self._insurance_claim(step["claim"])
        joiner = self.insurance.join_claim(self.ledger, claim, agent.account,
                                           step["loss"], step["w"], at)
        self._event("claim_joined", claim=claim.claim_id,
                    account=agent.account.value, bond=str(joiner.bond))

    def _insurance_claim(self, claim_id: str):
        claim = self.insurance.claims.get(claim_id)
        if claim is None:
            raise StateError(f"no insurance claim {claim_id}")
        return claim

    def _op_dispute_claim(self, agent: Agent, step: dict, at: BlockTime) -> None:
        claim = self._insurance_claim(step["claim"])
        dispute = self.insurance.dispute_claim(self.ledger, claim, agent.account,
                                               step["z"], at)
        self._event("claim_disputed", claim=claim.claim_id,
                    challenger=agent.account.value, bond=str(dispute.bond))

    def _op_vote_insurance(self, agent: Agent, step: dict, at: BlockTime) -> None:
        claim = self._insurance_claim(step["claim"])
        self.insurance.cast_vote(self.ledger, claim, agent.account,
                                 step["deposit"], step["side"], at)
        self._event("insurance_vote", claim=claim.claim_id,
                    voter=agent.account.value, side=step["side"])

    def _op_escalate(self, agent: Agent, step: dict, at: BlockTime) -> None:
        claim = self._insurance_claim(step["claim"])
        self.insurance.escalate(self.ledger, claim, agent.account, at)
        self._event("claim_escalated", claim=claim.claim_id,
                    party=agent.account.value, level=claim.escalation_level)

    def _noise_trade(self, agent: Agent, pool_id: str, prob: float, max_raw: int,
                     rng: random.Random) -> None:
        if rng.random() >= prob:
            return
        pool = self.pools[pool_id]
        size = rng.randint(1, max_raw)
        token = pool.token_x if rng.random() < 0.5 else pool.token_y
        size = min(size, self.ledger.balance_raw(agent.account.value, token))
        if size <= 0:
            return
        try:
            self._apply_swap(pool_id, agent.account.value, token, FixedAmount(size),
                             memo="noise")
        except RugsimError as exc:
            self._failed("noise", exc, account=agent.account.value)

    # -- perps, disputes, bridge, tokenomics phases -------------------------------

    def _phase_perps(self, chain: str, view: ChainView, at: BlockTime) -> None:
        for vault_id, book in view.perp_books:
            vault = self.registries[chain].vault(vault_id)
            mark = self._mark_price(vault.rugged_token)
            if mark.raw <= 0:
                continue
            l_pool = ZERO
            if self.perp_amm is not None:
                l_pool = self._pool_liquidity(self.pools[self.perp_amm])
            if at.height % book.funding.interval_blocks == 0 and l_pool.raw > 0:
                round_ = book.apply_funding(self.ledger, l_pool, at, TREASURY)
                if round_ is not None:
                    self._event("funding_round", vault=vault_id,
                                rate=str(round_.rate),
                                paying_side=round_.paying_side.value,
                                transfers=round_.transfer_count,
                                dust=str(round_.treasury_remainder))
            bids: dict[int, str] = {}
            if self._liquidation_bidder is not None:
                for position in book.positions.values():
                    if position.status is perps.PositionStatus.FLAGGED:
                        bids[position.position_id] = self._liquidation_bidder
            unit_value = anticoin_value(vault, mark)
            events = book.flag_and_liquidate(self.ledger, mark, bids, at,
                                             TREASURY, PERP_SETTLEMENT,
                                             unit_value=unit_value)
            for event in events:
                self._event("liquidation", vault=vault_id, position=event.position_id,
                            kind=event.kind, liquidator=event.liquidator,
                            fee_ca=str(event.fee_ca), swap_ca=str(event.swap_ca))
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

    def _phase_dispute_deadlines(self, at: BlockTime) -> None:
        for claim_id in sorted(self.rugproof.claims):
            claim = self.rugproof.claims[claim_id]
            if claim.status is ClaimStatus.VOTING and at.height >= claim.challenge_end:
                resolution = self.rugproof.resolve_claim(claim, at)
                self._event("rug_claim_resolved", claim=claim_id,
                            outcome=resolution.outcome,
                            slashed=str(resolution.slashed))
        for claim_id in sorted(self.insurance.claims):
            claim = self.insurance.claims[claim_id]
            if claim.phase in (ClaimPhase.APPROVED, ClaimPhase.REJECTED):
                continue
            resolution = self.insurance.step_deadlines(self.ledger, claim, at)
            if resolution is not None:
                self._event("insurance_resolved", claim=claim_id,
                            outcome=resolution.outcome,
                            slashed=str(resolution.slashed))
        for policy_id in sorted(self.insurance.policies):
            policy = self.insurance.policies[policy_id]
            if policy.status is PolicyStatus.ACTIVE and at.height >= policy.expires_at \
                    and self.insurance.open_claim_for(policy_id) is None:
                self.insurance.expire_policy(self.ledger, policy_id, at)
                self._event("policy_expired", policy=policy_id)

    def _queue_reward(self, reward: RewardEvent) -> None:
        deliver_at = self.height + self.scenario.bridge_delay_blocks
        self.bridge.append((deliver_at, reward))
        self._event("reward_emitted", kind=reward.kind, vault=reward.vault,
                    account=reward.account.value, amount=str(reward.amount),
                    deliver_at=deliver_at)

    def _phase_bridge(self, height: int) -> int:
        """Deliver the matured rewards; returns the raw R they minted."""
        due = [(t, r) for t, r in self.bridge if t <= height]
        self.bridge = [(t, r) for t, r in self.bridge if t > height]
        minted = 0
        for _, reward in due:
            account = reward.account.value
            self.ledger.mint(account, HOME_TOKEN, reward.amount,
                             memo=f"reward:{reward.kind}")
            minted += reward.amount.raw
            self._event("bridge_delivery", kind=reward.kind, vault=reward.vault,
                        account=account, amount=str(reward.amount))
        return minted

    def _phase_tokenomics(self, height: int, minted: int) -> None:
        """Emit, then burn toward the target; ``minted`` is the raw R the
        bridge minted this block. The ledger holds the only count of R."""
        emission = self.supply_params.epsilon_rate
        if emission.raw > 0:
            self.ledger.mint(TREASURY, HOME_TOKEN, emission, memo="emission")
        vaulted_value = tokenomics.aggregate_vault_stats(
            list(self.registries.values()), self.ledger, self._mark_price)
        treasury_held = self.ledger.balance(TREASURY, HOME_TOKEN)
        target = tokenomics.target_supply(vaulted_value, self.supply_params.s0)
        burned = tokenomics.burn_step(self.ledger.total_supply(HOME_TOKEN),
                                      self.supply_params, target, available=treasury_held)
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
        """Account value in numeraire units: cash plus spot-valued holdings."""
        numeraire = self.scenario.numeraire
        total = self.ledger.balance(account, numeraire)
        for pool in self.pools.values():
            if pool.token_y == numeraire and pool.reserve_x.raw > 0:
                held = self.ledger.balance(account, pool.token_x)
                if held.raw > 0:
                    total = total + held * market.spot_price(pool)
        return total

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
            "vaults": {chain: registry.snapshot()
                       for chain, registry in sorted(self.registries.items())},
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
