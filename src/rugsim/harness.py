"""Deterministic multi-chain discrete-block simulation engine.

One logical clock advances all chains in lockstep; within a height,
satellite chains step first and the home chain last, so bridge deliveries
aged exactly `bridge_delay_blocks` arrive the block they come due. A
chain step calls each phase of its list in the phase table, which
materialize builds in this order, as ``on_block(chain, height)``:

  1. price processes advance
  2. detection: the monitors and the aux scan, the drain book's moves,
     the intent book's solver auction and the peg keepers' trades
  3. the transaction queue executes in (priority desc, arrival) order
  4. scripted agent operations, then the noise traders
  5. perps funding and liquidation (the perp markets)
  6. on the home chain only: dispute deadlines (each dispute book), the
     vault registry's bridge deliveries, then supply emission, the burn
     controller and the telemetry row

The perp markets and the rugproof and insurance books are built, and
their modules executed, only for a document that writes their section or,
for a dispute book, names one of its ops; a book not built has no phase
and no op.

The engine reads a parsed ``Scenario``: ``load_scenario`` has already
checked every field, turned it into its value (amounts, ints, enums) and
filled in every default, so materialize and the scripted ops read fields
and parse or default none themselves.

The harness keeps the clock, the queue, the chain views (what a chain's
step visits: price processes, pools, monitors, noise traders and peg
keepers, listed where materialize makes each, in the order a scan of the
whole world would meet it), the noise traders, the peg keepers and the
supply controller. Each scripted step runs on the one chain that its
pool, vault or token fixes (home for the rest), so steps are indexed by
height and chain, and its op has one handler, in a table built at
materialize: the harness's own ``transfer``, or the op of the book that
declares it. Each book records its own events, as the ledger records its movements, and
keeps its own per-chain lists; every swap, drain and liquidity move runs
in the pool book, on the reserves the ledger holds. Handlers read the
clock, the int ``self.height``, and the chain being stepped,
``self._chain_ctx``. After every block the ledger re-sums every balance
per token against that token's supply.

A queued transaction is a bound action; its kind names it in the ``failed``
event if it raises.

Module errors never crash a run; they are recorded as failed events.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Any, Callable, NamedTuple, Optional

from . import detection, insurance, market, perps, rugproof, tokenomics
from .core import (
    FixedAmount,
    ONE,
    ParameterError,
    RangeError,
    RugsimError,
    SeededRng,
    TokenId,
    _div_round_half_even,
    fsum,
)
from .detection import AuxMonitor, PoolMonitor
from .ledger import Ledger
from .market import Pool, PoolBook
from .scenario import DISPUTE_OPS, HOME_TOKEN, SCRIPT_OPS, Scenario, load_scenario
from .trace import Trace, make_event
from .vault import VaultRegistry, anticoin_value

TREASURY = "treasury"

# a peg-keeper trade's queue priority (higher executes first within a block);
# the drain book holds the priorities around a drain
PRIORITY_PEG_KEEPER = 10


class QueuedTx(NamedTuple):
    chain: str
    execute_at: int
    priority: int
    seq: int
    kind: str
    action: Callable[[], None]


class ChainView:
    """What one chain's step visits, in the order a scan of the whole world
    would meet it. Pools, tokens, vaults and agents never change chain, so
    the views are built once, at materialize."""

    __slots__ = ("aux", "processes", "pools", "outflow_keys", "mint_tokens",
                 "noise", "pegkeepers")

    def __init__(self, aux: AuxMonitor):
        self.aux = aux
        # (token, its parsed price_process section)
        self.processes: list[tuple[TokenId, dict]] = []
        # (pool, its liquidity monitor if it trades the numeraire)
        self.pools: list[tuple[Pool, Optional[PoolMonitor]]] = []
        # (creator account, chain token) pairs whose outflows the aux scan reads
        self.outflow_keys: list[tuple[str, TokenId]] = []
        # chain tokens whose mints the aux scan reads (R is excluded)
        self.mint_tokens: list[TokenId] = []
        # (account, pool id, trade probability, largest size in raw quanta, rng)
        self.noise: list[tuple[str, str, float, int, random.Random]] = []
        # the peg keepers' parsed agent entries
        self.pegkeepers: list[dict] = []


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

        self.prices: dict[TokenId, FixedAmount] = {}
        self.vaults = VaultRegistry(scenario.accounts, self.ledger, TREASURY, self._event,
                                    scenario.bridge_delay_blocks, HOME_TOKEN)
        # (height, chain) -> (account, step) in agent order, then script order
        self._script_steps: dict[tuple[int, str], list[tuple[str, dict]]] = {}
        self.queue: list[QueuedTx] = []
        # raw mints per scanned token and outflows per scanned (sender, token)
        # since the aux scan that reads them last took them; keyed at materialize
        self._unscanned_mints: dict[str, int] = {}
        self._unscanned_outflows: dict[tuple[str, str], int] = {}
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

        for entry in sc.accounts:
            for token, balance in entry["balances"].items():
                self.ledger.mint(entry["id"], token, balance, memo="genesis")

        token_chain = {sc.numeraire: sc.home_chain}
        for entry in sc.tokens:
            token = entry["id"]
            token_chain[token] = entry["chain"]
            process = entry["price_process"]
            if process is not None:
                self.prices[token] = market.price_at(process, 0)
                views[entry["chain"]].processes.append((token, process))

        self.pools = PoolBook(sc.pools, self.ledger, self._event, TREASURY, sc.numeraire)
        for pool_id, pool in self.pools.pools.items():
            self._prev_liquidity[pool_id] = self.pools.liquidity_raw(pool_id)
            monitored = sc.numeraire in (pool.token_x, pool.token_y)
            views[pool.chain].pools.append(
                (pool, PoolMonitor(pool_id, det["drop_threshold"]) if monitored else None))

        for entry in sc.vaults:
            vault = self.vaults.create_vault(entry, self.prices[entry["rugged_token"]])
            token_chain[vault.anticoin] = vault.chain

        self.ledger.mint(TREASURY, HOME_TOKEN, sc.tokenomics["initial_supply"],
                         memo="genesis-supply")

        # tokens with no chain entry (R, bonded tokens) and home ops run on home
        pool_chain = {pid: pool.chain for pid, pool in self.pools.pools.items()}
        chain_of = {"pool": pool_chain, "token": token_chain, "home": {},
                    "vault": {vid: vault.chain for vid, vault in self.vaults.vaults.items()}}
        # the parsed agent entries of each kind, in scenario order
        by_kind: dict[str, list[dict]] = {}
        for agent in sc.agents:
            account = agent["account"]
            by_kind.setdefault(agent["kind"], []).append(agent)
            for step in agent["script"]:
                entity = SCRIPT_OPS[step["op"]][0]
                chain = chain_of[entity].get(step.get(entity), sc.home_chain)
                self._script_steps.setdefault((step["block"], chain), []).append(
                    (account, step))
            noise = agent["noise"]
            if noise is not None:
                views[pool_chain[noise["pool"]]].noise.append(
                    (account, noise["pool"], float(noise["prob"]), noise["max_size"].raw,
                     self.rng.stream("noise", account)))
            if agent["kind"] == "pegkeeper":
                views[pool_chain[agent["pool"]]].pegkeepers.append(agent)

        self.drains = detection.DrainBook(self.pools, self.ledger, self._event, self._enqueue,
                                          by_kind.get("detector", []), det, TREASURY,
                                          sc.numeraire)
        self.intents = detection.IntentBook(sc.tokens, self.pools, self.vaults, self.ledger,
                                            self.prices, by_kind.get("solver", []), self._event,
                                            self._enqueue, det, sc.chains)
        # each chain's phases in the documented order; only home's holds the home phases
        phases = [("prices", self._phase_prices), ("detection", self._phase_detection),
                  ("drains", self.drains.on_block), ("intents", self.intents.on_block),
                  ("peg keepers", self._phase_peg_keepers), ("queue", self._phase_queue),
                  ("script", self._phase_script), ("noise", self._phase_noise)]
        home_phases: list = []
        books = [self.pools, self.drains, self.vaults, self.intents]
        # state key -> its book's snapshot; a book that is not built writes {}
        self._snapshots: dict[str, Callable[[], dict]] = {"perps": dict, "insurance": dict}
        # an optional book is built, and its module executed, for its section only, or
        # a dispute book, which defaults every field without it, for one of its ops
        ops = {step["op"] for agent in sc.agents for step in agent["script"]}
        used = sc.written | {section for section, section_ops in DISPUTE_OPS.items()
                             if not ops.isdisjoint(section_ops)}
        for section, section_phases, build in (
                ("perps", phases, lambda: perps.PerpMarkets(
                    sc.perps, self.vaults, self.pools, self.prices, self.ledger, self._event,
                    by_kind.get("liquidator", []), TREASURY, sc.numeraire)),
                ("rugproof", home_phases, lambda: rugproof.RugproofBook(
                    sc.rugproof, self.ledger, TREASURY, self._event)),
                ("insurance", home_phases, lambda: insurance.InsuranceBook(
                    sc.insurance, sc.numeraire, self.ledger, TREASURY, self._event))):
            if section in used:
                book = build()
                books.append(book)
                section_phases.append((section, book.on_block))
                if section in self._snapshots:
                    self._snapshots[section] = book.snapshot
        home_phases += [("bridge", self.vaults.on_block), ("supply", self._phase_tokenomics)]
        self._phases = {chain: phases + home_phases if chain == sc.home_chain else phases
                        for chain in sc.chains}
        # op -> its one handler: the harness's own transfer, or a built book's op
        self._handlers: dict[str, Callable[[str, dict, int], None]] = {"transfer": self._transfer}
        self._handlers.update((op, getattr(book, op)) for book in books for op in book.OPS)

        for entry in sc.intents:
            self.intents.register_intent(entry["owner"], entry, 0)

        # what each chain's aux scan reads; genesis funding is not block activity
        for token, chain in token_chain.items():
            if token != HOME_TOKEN:
                views[chain].mint_tokens.append(token)
        creators = by_kind.get("creator", [])
        for view in views.values():
            view.outflow_keys = [(creator["account"], token)
                                 for creator in creators for token, _ in view.processes]
            self._unscanned_mints.update(dict.fromkeys(view.mint_tokens, 0))
            self._unscanned_outflows.update(dict.fromkeys(view.outflow_keys, 0))

    # -- small helpers -------------------------------------------------------

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
            totals[key] = unscanned + amount.raw

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
        height = self.height
        for _, on_block in self._phases[chain]:
            on_block(chain, height)

    # -- phases ----------------------------------------------------------------

    def _phase_prices(self, chain: str, height: int) -> None:
        for token, process in self._chain_views[chain].processes:
            self.prices[token] = market.price_at(process, height)

    def _phase_detection(self, chain: str, height: int) -> None:
        # each pool's monitor observes its liquid side; the aux scan below
        # reads the change in it and the volume since this chain's last scan
        # (everything the previous block did, nothing of this one yet). All
        # its inputs are exact raw-int sums, of amounts of one token or of
        # several; the scan range-checks them, and a refused block is
        # recorded as a failed aux_scan (it reads only the sign of the
        # liquidity change, which has no range)
        view = self._chain_views[chain]
        volume = delta_liq = 0
        prev_liquidity = self._prev_liquidity
        for pool, monitor in view.pools:
            pool_id = pool.pool_id
            liquid = self.pools.liquidity_raw(pool_id)
            if monitor is not None:
                signal = monitor.observe(height, liquid)
                if signal is not None:
                    self._event("risk_signal", signal.kind.value, signal.magnitude,
                                pool=pool_id)
            volume += pool.volume
            pool.volume = 0
            delta_liq += liquid - prev_liquidity[pool_id]
            prev_liquidity[pool_id] = liquid
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
                balance_before = self.ledger.balance_raw(*key) + moved
        try:
            signals = view.aux.scan(height, minted, outflow, balance_before, volume,
                                    delta_liq)
        except RangeError as exc:
            self._failed("aux_scan", exc)
        else:
            for signal in signals:
                self._event("risk_signal", signal.kind.value, signal.magnitude)

    def _phase_peg_keepers(self, chain: str, height: int) -> None:
        for keeper in self._chain_views[chain].pegkeepers:
            self._enqueue(chain, height, PRIORITY_PEG_KEEPER, "peg_keeper",
                          partial(self._exec_peg_keeper, keeper))

    def _phase_queue(self, chain: str, height: int) -> None:
        due = sorted((tx for tx in self.queue if tx.chain == chain and tx.execute_at <= height),
                     key=lambda tx: (-tx.priority, tx.seq))
        self.queue = [tx for tx in self.queue
                      if not (tx.chain == chain and tx.execute_at <= height)]
        for tx in due:
            self._execute_tx(tx)

    def _execute_tx(self, tx: QueuedTx) -> None:
        try:
            tx.action()
        except RugsimError as exc:
            self._failed(tx.kind, exc)

    def _exec_peg_keeper(self, agent: dict) -> None:
        if agent["vault"] is None:
            return
        pool_id = agent["pool"]
        pool = self.pools.state(pool_id)
        vault = self.vaults.vault(agent["vault"])
        peg = anticoin_value(vault.price_at_creation, self.prices[vault.rugged_token])
        spot = market.spot_price(pool)
        input_token = pool.token_x if spot > peg else pool.token_y
        budget = min(agent["budget"], self.ledger.balance(agent["account"], input_token))
        trade = market.peg_keeper_step(pool, peg, budget, agent["tolerance"])
        if trade is None:
            return
        self.pools.trade(pool_id, agent["account"], trade.input_token, trade.amount_in,
                         "peg_keeper", trade.amount_out)
        self._event("peg_trade", pool_id, peg, trade.amount_in, trade.input_token,
                    market.spot_price(trade.pool))

    # -- scripted ops ------------------------------------------------------------

    def _phase_script(self, chain: str, height: int) -> None:
        for account, step in self._script_steps.get((height, chain), ()):
            op = step["op"]
            try:
                self._handlers[op](account, step, height)
            except RugsimError as exc:
                self._failed(op, exc, account=account)

    def _transfer(self, account: str, step: dict, height: int) -> None:
        self.ledger.transfer(account, step["to"], step["token"],
                             step["amount"], memo="script-transfer")

    def _phase_noise(self, chain: str, height: int) -> None:
        for account, pool_id, prob, max_raw, rng in self._chain_views[chain].noise:
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
                self._failed("noise", exc, account=account)

    # -- tokenomics phase ---------------------------------------------------------

    def _phase_tokenomics(self, chain: str, height: int) -> None:
        """Emit, then burn toward the target; the telemetry's emission adds the
        R the vault registry's bridge minted. The ledger holds the only count of R."""
        tk = self.scenario.tokenomics
        emission = tk["epsilon_rate"]
        if emission.raw > 0:
            self.ledger.mint(TREASURY, HOME_TOKEN, emission, memo="emission")
        # every vault's token has a price process
        vaulted_value = tokenomics.aggregate_vault_stats(self.vaults, self.ledger,
                                                         self.prices.__getitem__)
        treasury_held = self.ledger.balance(TREASURY, HOME_TOKEN)
        target = tokenomics.target_supply(vaulted_value, tk["s0"])
        burned = tokenomics.burn_step(self.ledger.total_supply(HOME_TOKEN), tk, target,
                                      available=treasury_held)
        if burned.raw > 0:
            self.ledger.burn(TREASURY, HOME_TOKEN, burned, memo="supply-burn")
        self.trace.record_telemetry({
            "height": height,
            "emission": str(FixedAmount(self.vaults.delivered + emission.raw)),
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
        balance = self.ledger.balance_raw
        pools = self.pools.pools.values()
        spots = {numeraire: ONE}
        for pool in pools:
            reserve_x = balance(pool.account, pool.token_x)
            if pool.token_y == numeraire and reserve_x > 0:
                spots[pool.token_x] = (FixedAmount(balance(pool.account, numeraire))
                                       / FixedAmount(reserve_x))
        held = {token: balance(account, token) for token in spots}
        for pool in pools:
            lp = market.LP_TOKEN_PREFIX + pool.pool_id
            share = balance(account, lp)
            if share > 0:
                supply = self.ledger.total_supply(lp).raw
                for token in (pool.token_x, pool.token_y):
                    if token in held:
                        held[token] += _div_round_half_even(
                            balance(pool.account, token) * share, supply)
        return fsum(FixedAmount(raw) * spots[token] for token, raw in held.items())

    def finalize(self) -> None:
        snapshot = self.ledger.snapshot()
        self.trace.final_state = {
            "height": self.height,
            "balances": snapshot["balances"],
            "supply": snapshot["supply"],
            "pools": {
                pid: {"reserve_x": str(self.ledger.balance(p.account, p.token_x)),
                      "reserve_y": str(self.ledger.balance(p.account, p.token_y)),
                      "token_x": p.token_x, "token_y": p.token_y, "fee_bps": p.fee_bps}
                for pid, p in sorted(self.pools.pools.items())},
            "vaults": self.vaults.snapshot(self.scenario.chains),
            **{key: snapshot() for key, snapshot in self._snapshots.items()},
            "home_token_supply": str(self.ledger.total_supply(HOME_TOKEN)),
            "total_penalties": str(self.vaults.total_penalties),
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
