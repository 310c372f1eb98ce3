"""Deterministic multi-chain discrete-block simulation engine.

One logical clock advances all chains in lockstep; within a height,
satellite chains step first and the home chain last, so bridge deliveries
aged exactly `bridge_delay_blocks` arrive the block they come due. A
chain step calls each phase of its list in the phase table, which
materialize builds in this order, as ``on_block(chain, height)``:

  1. prices: the harness advances the price processes
  2. monitors (``detection.RiskMonitors``), drains (the drain book's moves),
     intents (the intent book's solver auction), peg keepers
     (``market.PegKeepers``)
  3. queue: the harness runs the due transactions by (priority desc, arrival)
  4. script: the harness dispatches the scripted ops; noise
     (``market.NoiseTraders``)
  5. perps: funding and liquidation (the perp markets)
  6. on the home chain only: rugproof and insurance (the dispute books'
     deadlines), bridge (the vault registry's deliveries), supply
     (``tokenomics.SupplyController``)

The perp markets and the rugproof and insurance books are built, and
their modules executed, only for a document that writes their section or,
for a dispute book, names one of its ops; a book not built has no phase
and no op, and writes {} where ``state.json`` has its key.

The engine reads a parsed ``Scenario``, whose every field ``load_scenario``
has checked, turned into its value and defaulted. The harness keeps the
clock (``height`` and the ``chain`` being stepped, which stamp every
event), the queue, the price phase and the script dispatch. A scripted
step runs on the one chain its pool, vault or token fixes (home for the
rest), and its op has one handler, in a table built at materialize: the
harness's own ``transfer``, or the op of the book that declares it. Each
book keeps its own per-chain lists and records its own events; the risk
monitors also record the ledger's movements. ``finalize`` merges the
ledger's snapshot with each built book's ``snapshot()``; after every
block the ledger re-sums every balance per token against its supply.

A queued transaction is a bound action; its kind names it in the ``failed``
event if it raises. Module errors never crash a run; they are recorded as
failed events.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple, Optional

from . import detection, insurance, market, perps, rugproof, tokenomics
from .core import (
    FixedAmount,
    ONE,
    ParameterError,
    RugsimError,
    TokenId,
    _div_round_half_even,
    fsum,
)
from .ledger import Ledger
from .scenario import DISPUTE_OPS, HOME_TOKEN, SCRIPT_OPS, Scenario, load_scenario
from .trace import Trace, make_event
from .vault import VaultRegistry

TREASURY = "treasury"


class QueuedTx(NamedTuple):
    chain: str
    execute_at: int
    priority: int
    seq: int
    kind: str
    action: Callable[[], None]


class Simulation:
    """Materialized world state plus the per-block step loop."""

    def __init__(self, scenario: Scenario, out_dir: Optional[str] = None):
        self.scenario = scenario
        # given out_dir, the trace streams there as the run records it
        self.trace = Trace(out_dir)
        # the clock, which stamps every event: the height and the chain being stepped
        self.height, self.chain = 0, "genesis"
        self._seq = 0
        self.ledger = Ledger(recorder=self._event)

        self.prices: dict[TokenId, FixedAmount] = {}
        self.vaults = VaultRegistry(scenario.accounts, self.ledger, TREASURY, self._event,
                                    scenario.bridge_delay_blocks, HOME_TOKEN, scenario.chains)
        # (height, chain) -> (account, step) in agent order, then script order
        self._script_steps: dict[tuple[int, str], list[tuple[str, dict]]] = {}
        self.queue: list[QueuedTx] = []

        try:
            self._materialize()
        except BaseException:
            self.trace.discard()
            raise

    # -- construction -------------------------------------------------------

    def _materialize(self) -> None:
        sc = self.scenario
        # satellites in scenario order, then home
        self._chain_order = [c for c in sc.chains if c != sc.home_chain] + [sc.home_chain]
        for entry in sc.accounts:
            for token, balance in entry["balances"].items():
                self.ledger.mint(entry["id"], token, balance, memo="genesis")

        token_chain = {sc.numeraire: sc.home_chain}
        # chain -> (token, its parsed price_process section), in document order
        self._processes: dict[str, list[tuple[TokenId, dict]]] = {c: [] for c in sc.chains}
        for entry in sc.tokens:
            token, process = entry["id"], entry["price_process"]
            token_chain[token] = entry["chain"]
            if process is not None:
                self.prices[token] = market.price_at(process, 0)
                self._processes[entry["chain"]].append((token, process))

        self.pools = market.PoolBook(sc.pools, self.ledger, self._event, TREASURY, sc.numeraire)
        for entry in sc.vaults:
            vault = self.vaults.create_vault(entry, self.prices[entry["rugged_token"]])
            token_chain[vault.anticoin] = vault.chain

        self.ledger.mint(TREASURY, HOME_TOKEN, sc.tokenomics["initial_supply"],
                         memo="genesis-supply")

        # tokens with no chain entry (R, bonded tokens) and home ops run on home
        chain_of = {"pool": {pid: pool.chain for pid, pool in self.pools.pools.items()},
                    "token": token_chain, "home": {},
                    "vault": {vid: vault.chain for vid, vault in self.vaults.vaults.items()}}
        # the parsed agent entries of each kind, in scenario order
        by_kind: dict[str, list[dict]] = {}
        for agent in sc.agents:
            by_kind.setdefault(agent["kind"], []).append(agent)
            for step in agent["script"]:
                entity = SCRIPT_OPS[step["op"]][0]
                chain = chain_of[entity].get(step.get(entity), sc.home_chain)
                self._script_steps.setdefault((step["block"], chain), []).append(
                    (agent["account"], step))

        # genesis funding is not block activity: the monitors take the ledger's
        # movements from here on
        det = sc.detection
        self.monitors = detection.RiskMonitors(
            self.pools, self.ledger, self._processes, token_chain, by_kind.get("creator", []),
            det, sc.numeraire, self.trace, self, self._event)
        self.ledger.recorder = self.monitors.movement
        self.drains = detection.DrainBook(self.pools, self.ledger, self._event, self._enqueue,
                                          by_kind.get("detector", []), det, TREASURY,
                                          sc.numeraire)
        self.intents = detection.IntentBook(sc.tokens, self.pools, self.vaults, self.ledger,
                                            self.prices, by_kind.get("solver", []), self._event,
                                            self._enqueue, det, sc.chains)
        self.peg_keepers = market.PegKeepers(by_kind.get("pegkeeper", []), self.pools,
                                             self.vaults, self.prices, self.ledger, self._event,
                                             self._enqueue)
        self.noise = market.NoiseTraders(sc.agents, sc.seed, self.pools, self.ledger, self._event)
        self.supply = tokenomics.SupplyController(sc.tokenomics, self.vaults, self.ledger,
                                                  self.prices, self.trace, TREASURY)
        # each chain's phases in the documented order; only home's holds the home phases
        phases = [("prices", self._phase_prices), ("monitors", self.monitors.on_block),
                  ("drains", self.drains.on_block), ("intents", self.intents.on_block),
                  ("peg keepers", self.peg_keepers.on_block), ("queue", self._phase_queue),
                  ("script", self._phase_script), ("noise", self.noise.on_block)]
        home_phases: list = []
        books = [self.pools, self.drains, self.vaults, self.intents]
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
        home_phases += [("bridge", self.vaults.on_block), ("supply", self.supply.on_block)]
        self._phases = {chain: phases + home_phases if chain == sc.home_chain else phases
                        for chain in sc.chains}
        # op -> its one handler: the harness's own transfer, or a built book's op
        self._handlers: dict[str, Callable[[str, dict, int], None]] = {"transfer": self._transfer}
        self._handlers.update((op, getattr(book, op)) for book in books for op in book.OPS)
        self._sections = [book for book in books if hasattr(book, "snapshot")]

        for entry in sc.intents:
            self.intents.register_intent(entry["owner"], entry, 0)

    # -- small helpers -------------------------------------------------------

    def _event(self, event_type: str, *values: Any, **optional: Any) -> None:
        """Record an event of this height and chain (see ``make_event``)."""
        self.trace.record(make_event(event_type, self.height, self.chain, values, optional))

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
        self.chain = chain
        height = self.height
        for _, on_block in self._phases[chain]:
            on_block(chain, height)

    # -- phases ----------------------------------------------------------------

    def _phase_prices(self, chain: str, height: int) -> None:
        for token, process in self._processes[chain]:
            self.prices[token] = market.price_at(process, height)

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
            self._event("failed", tx.kind, type(exc).__name__, str(exc))

    def _phase_script(self, chain: str, height: int) -> None:
        for account, step in self._script_steps.get((height, chain), ()):
            op = step["op"]
            try:
                self._handlers[op](account, step, height)
            except RugsimError as exc:
                self._event("failed", op, type(exc).__name__, str(exc), account=account)

    def _transfer(self, account: str, step: dict, height: int) -> None:
        self.ledger.transfer(account, step["to"], step["token"],
                             step["amount"], memo="script-transfer")

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
        """The final state: the ledger's balances and supply, every built book's
        sections, and {} for each optional book's section that was not built."""
        state = {"height": self.height, **self.ledger.snapshot(), "perps": {}, "insurance": {},
                 "home_token_supply": str(self.ledger.total_supply(HOME_TOKEN)),
                 "failed_events": self.trace.failed_events}
        for book in self._sections:
            state.update(book.snapshot())
        self.trace.final_state = state


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
