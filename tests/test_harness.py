"""Engine integration: scenario loading, phase ordering, bridge delays,
conservation, determinism, and the dispute/perps flows driven end-to-end
through scripted scenarios."""

import pytest

from rugsim.core import MAX_RAW, QUANTUM, FixedAmount, RangeError, amt
from rugsim.harness import Simulation, run_scenario
from rugsim.scenario import (
    SCRIPT_OPS,
    ScenarioError,
    load_scenario,
    reference_scenario,
    scam_scenario,
)


def minimal_doc(**overrides):
    doc = {
        "seed": 1,
        "blocks": 5,
        "bridge_delay_blocks": 1,
        "home_chain": "home",
        "numeraire": "USDN",
        "chains": ["alpha", "home"],
        "tokens": [{"id": "RUG", "chain": "alpha",
                    "price_process": {"kind": "catastrophic", "p0": "1", "lam": "0"}}],
        "accounts": [{"id": "alice", "balances": {"RUG": "100", "USDN": "100"}}],
        "pools": [],
        "vaults": [{"id": "v", "chain": "alpha", "rugged_token": "RUG",
                    "receipt_kind": "fungible", "omega": "0.01", "theta": "0.02",
                    "penalty_k": "0", "penalty_lambda": "2", "gamma_base": "0.05",
                    "delta_gamma": "0.01"}],
        "tokenomics": {"initial_supply": "1000", "s0": "1000",
                       "epsilon_rate": "1", "beta_burn": "10", "kappa": "0.5"},
        "detection": {},
        "agents": [],
    }
    doc.update(overrides)
    return doc


# -- loading ------------------------------------------------------------------


def test_minimal_scenario_loads():
    scenario = load_scenario(minimal_doc())
    assert scenario.blocks == 5
    assert scenario.home_chain == "home"


def test_load_rejects_theta_at_most_omega():
    doc = minimal_doc()
    doc["vaults"][0]["theta"] = "0.01"
    with pytest.raises(ScenarioError) as err:
        load_scenario(doc)
    assert "vaults[0].theta" in str(err.value)


def test_load_rejects_unknown_agent_kind():
    doc = minimal_doc(agents=[{"kind": "wizard", "account": "alice"}])
    with pytest.raises(ScenarioError) as err:
        load_scenario(doc)
    assert "agents[0].kind" in str(err.value)


def test_load_rejects_floats():
    doc = minimal_doc()
    doc["tokenomics"]["s0"] = 1000.5
    with pytest.raises(ScenarioError) as err:
        load_scenario(doc)
    assert "not exact" in str(err.value)


def test_load_names_bad_path_for_unknown_refs():
    doc = minimal_doc(agents=[{"kind": "retail", "account": "ghost"}])
    with pytest.raises(ScenarioError) as err:
        load_scenario(doc)
    assert "agents[0].account" in str(err.value)


# -- stepping -----------------------------------------------------------------


def test_empty_scenario_emits_only_telemetry():
    doc = minimal_doc(vaults=[], tokens=[], accounts=[])
    doc["tokenomics"]["epsilon_rate"] = "0"
    sim, trace = run_scenario(doc)
    in_blocks = [e for e in trace.events if e["h"] >= 1]
    assert in_blocks == []  # no events, just per-block telemetry rows
    assert len(trace.telemetry) == 5


def test_same_seed_same_hash():
    h1 = run_scenario(minimal_doc())[1].trace_hash()
    h2 = run_scenario(minimal_doc())[1].trace_hash()
    assert h1 == h2


def test_different_seed_different_hash():
    doc = reference_scenario(blocks=30)
    h1 = run_scenario(doc)[1].trace_hash()
    h2 = run_scenario(doc, seed=43)[1].trace_hash()
    assert h1 != h2


def test_bridge_delay_arithmetic():
    doc = minimal_doc(bridge_delay_blocks=3, blocks=8, agents=[
        {"kind": "retail", "account": "alice",
         "script": [{"block": 2, "op": "deposit", "vault": "v", "amount": "100"}]}])
    sim, trace = run_scenario(doc)
    emitted = [e for e in trace.events if e["type"] == "reward_emitted"]
    delivered = [e for e in trace.events if e["type"] == "bridge_delivery"]
    assert emitted[0]["h"] == 2 and emitted[0]["deliver_at"] == 5
    assert delivered[0]["h"] == 5
    assert delivered[0]["amount"] == "1"  # omega 0.01 * 100
    assert sim.ledger.balance("alice", "R") == amt(1)


def test_bridge_delivers_exactly_once_in_order():
    doc = minimal_doc(bridge_delay_blocks=2, blocks=10, agents=[
        {"kind": "retail", "account": "alice",
         "script": [{"block": 1, "op": "deposit", "vault": "v", "amount": "10"},
                    {"block": 2, "op": "deposit", "vault": "v", "amount": "20"},
                    {"block": 3, "op": "burn", "vault": "v", "amount": "5"}]}])
    _, trace = run_scenario(doc)
    delivered = [(e["h"], e["kind"], e["amount"]) for e in trace.events
                 if e["type"] == "bridge_delivery"]
    assert delivered == [(3, "deposit", "0.1"), (4, "deposit", "0.2"),
                         (5, "burn", "0.1")]


def test_supply_identity_from_telemetry():
    doc = minimal_doc(blocks=20, agents=[
        {"kind": "retail", "account": "alice",
         "script": [{"block": 1, "op": "deposit", "vault": "v", "amount": "100"}]}])
    _, trace = run_scenario(doc)
    prev = amt(1000)
    for row in trace.telemetry:
        current = amt(row["current_supply"])
        assert current == prev + amt(row["emission"]) - amt(row["burned"])
        prev = current


def test_failed_ops_recorded_not_raised():
    doc = minimal_doc(agents=[
        {"kind": "retail", "account": "alice",
         "script": [{"block": 1, "op": "deposit", "vault": "v", "amount": "5000"}]}])
    _, trace = run_scenario(doc)
    failures = [e for e in trace.events if e["type"] == "failed"]
    assert len(failures) == 1
    assert failures[0]["op"] == "deposit"
    assert failures[0]["error"] == "BalanceError"


# -- ordering around drains --------------------------------------------------------


def test_frontrun_executes_before_drain():
    doc = scam_scenario()
    _, trace = run_scenario(doc)
    swaps = [e for e in trace.events if e["type"] == "swap"]
    frontrun = next(e for e in swaps if e["memo"] == "frontrun")
    drain = next(e for e in trace.events if e["type"] == "drain_executed")
    assert frontrun["h"] < drain["h"] or (
        frontrun["h"] == drain["h"]
        and trace.events.index(frontrun) < trace.events.index(drain))


def test_drain_reports_naive_and_realized():
    _, trace = run_scenario(scam_scenario())
    drain = next(e for e in trace.events if e["type"] == "drain_executed")
    assert amt(drain["realized"]) < amt(drain["naive_target"])


def test_sandwich_planner_matches_realized():
    doc = scam_scenario()
    # give the detector rug inventory and a sandwich budget; drop other actors
    doc["accounts"] = [a for a in doc["accounts"]
                       if a["id"] in ("mallory", "guard")]
    doc["accounts"].append({"id": "lurker", "balances": {"RUG": "50"}})
    doc["agents"] = [a for a in doc["agents"] if a["kind"] in ("creator", "detector")]
    for agent in doc["agents"]:
        if agent["kind"] == "detector":
            agent["sandwich_budget"] = "50"
            agent["backrun_budget"] = "0"
            agent["protects"] = []
    doc["intents"] = []
    for account in doc["accounts"]:
        if account["id"] == "guard":
            account["balances"] = {"RUG": "50", "USDN": "500"}
    sim, trace = run_scenario(doc)
    plan = next(e for e in trace.events
                if e["type"] == "plan" and e["kind"] == "sandwich")
    pre = next(e for e in trace.events
               if e["type"] == "swap" and e["memo"] == "sandwich_pre")
    post = next(e for e in trace.events
                if e["type"] == "swap" and e["memo"] == "sandwich_post")
    realized = amt(pre["amount_out"]) - amt(post["amount_in"])
    assert realized == amt(plan["expected_profit"])
    assert amt(post["amount_out"]) >= amt(pre["amount_in"])  # inventory restored


def test_a_failed_drain_is_recorded_and_no_longer_pending():
    doc = scam_scenario()
    # mallory gives away the tokens the drain sells, so the drain fails
    doc["agents"][0]["script"].append({"block": 4, "op": "transfer", "to": "unprotected",
                                       "token": "RUG", "amount": "800"})
    sim, trace = run_scenario(doc)
    failures = [e for e in trace.events if e["type"] == "failed"]
    assert [(e["h"], e["op"], e["error"]) for e in failures] == \
        [(7, "drain", "BalanceError")]
    assert not any(e["type"] == "drain_executed" for e in trace.events)
    assert sim.pending_drains == []
    assert trace.trace_hash() == "a023642219a54e57"


def test_two_detectors_plan_each_move_against_a_drain_once():
    # both detectors guard one account and hold sandwich and back-run
    # budgets; each move is planned once per drain, by the first detector
    doc = scam_scenario()
    for account in doc["accounts"]:
        if account["id"] == "guard":
            account["balances"] = {"RUG": "50", "USDN": "500"}
    doc["accounts"].append({"id": "guard-2", "balances": {"RUG": "50", "USDN": "500"}})
    budgets = {"protects": ["frontrun-user"], "sandwich_budget": "50",
               "backrun_budget": "100", "backrun_cap": "50"}
    doc["agents"][2].update(budgets)
    doc["agents"].append({"kind": "detector", "account": "guard-2", **budgets})
    sim, trace = run_scenario(doc)
    plans = [(e["h"], e["kind"], e["account"]) for e in trace.events if e["type"] == "plan"]
    assert plans == [(5, "frontrun", "frontrun-user"), (6, "sandwich", "guard")]
    moves = [(e["h"], e["memo"], e["account"]) for e in trace.events
             if e["type"] == "swap" and e["memo"] != "intent"]
    assert moves == [(5, "frontrun", "frontrun-user"), (7, "sandwich_pre", "guard"),
                     (7, "sandwich_post", "guard"), (7, "backrun", "guard")]
    assert sim.pending_drains == [] and trace.failed_events == 0
    # measured before queued transactions carried their own actions
    assert trace.trace_hash() == "20ba62fcfb8daa2b"


def test_intents_protect_via_swap_to_anticoin():
    doc = scam_scenario()
    doc["intents"][0]["action"] = "swap_to_anticoin"
    sim, trace = run_scenario(doc)
    execution = next(e for e in trace.events if e["type"] == "intent_executed")
    assert execution["owner"] == "intent-user"
    anticoin = "anti:RUG@alpha"
    held = sim.ledger.balance("intent-user", anticoin)
    assert held.raw > 0
    # solver took its cut in anticoins
    assert sim.ledger.balance("sol-1", anticoin).raw > 0


# -- perps through the engine -------------------------------------------------------


def perps_doc():
    doc = minimal_doc(blocks=16)
    doc["tokens"][0]["price_process"] = {"kind": "scam", "p0": "1", "tau_rug": "8"}
    doc["accounts"] = [
        {"id": "alice", "balances": {"RUG": "500", "USDN": "100"}},
        {"id": "bob", "balances": {"RUG": "500", "USDN": "100"}},
        {"id": "liq-1", "balances": {}},
    ]
    doc["pools"] = [{"id": "anti-usdn", "chain": "alpha",
                     "token_x": "anti:RUG@alpha", "token_y": "USDN",
                     "reserve_x": "1000", "reserve_y": "1000", "fee_bps": 0}]
    doc["perps"] = {"enabled_vaults": ["v"], "alpha_base": "0.01",
                    "l_min": "100", "interval_blocks": 4, "amm_pool": "anti-usdn",
                    "maintenance_fraction": "0.5", "liquidator_deadline_blocks": 2,
                    "liquidator_fee_fraction": "0.05"}
    doc["agents"] = [
        {"kind": "retail", "account": "alice",
         "script": [{"block": 1, "op": "deposit", "vault": "v", "amount": "400"},
                    {"block": 2, "op": "open_position", "vault": "v",
                     "collateral": "100", "leverage": "2", "direction": "long"}]},
        {"kind": "retail", "account": "bob",
         "script": [{"block": 1, "op": "deposit", "vault": "v", "amount": "400"},
                    {"block": 2, "op": "open_position", "vault": "v",
                     "collateral": "100", "leverage": "1", "direction": "short"},
                    {"block": 3, "op": "open_position", "vault": "v",
                     "collateral": "100", "leverage": "1", "direction": "short"}]},
        {"kind": "liquidator", "account": "liq-1"},
    ]
    return doc


def test_perps_funding_and_liquidation_flow():
    sim, trace = run_scenario(perps_doc())
    rounds = [e for e in trace.events if e["type"] == "funding_round"]
    assert rounds, "funding boundary at block 4 should produce a round"
    assert rounds[0]["paying_side"] == "short"
    liquidations = [e for e in trace.events if e["type"] == "liquidation"]
    kinds = {e["kind"] for e in liquidations}
    assert "flagged" in kinds
    # anticoin value rises as the scam collapses: alice's long on the rugged
    # token loses and is eventually seized
    assert any(k in kinds for k in ("liquidated", "auto_liquidated"))
    sim.ledger.check_conservation()


# -- disputes through the engine -----------------------------------------------------


def dispute_doc():
    doc = minimal_doc(blocks=30)
    doc["tokens"].append({"id": "NEW", "chain": "home"})
    doc["accounts"] = [
        {"id": "issuer", "balances": {"NEW": "1000000"}},
        {"id": "claimer", "balances": {"NEW": "50000"}},
        {"id": "voter-1", "balances": {"NEW": "1000"}},
        {"id": "insurer", "balances": {"USDN": "5000"}},
        {"id": "victim", "balances": {"USDN": "200"}},
        {"id": "skeptic", "balances": {"USDN": "500"}},
    ]
    doc["rugproof"] = {"alpha_slash": "0.5", "gamma_slash": "0.5",
                       "claimant_share": "0.5", "z_min": "10",
                       "challenge_blocks": "5"}
    doc["insurance"] = {"alpha_comp": "0.2", "gamma_pen": "0.5",
                        "tau_challenge": 5, "tau_vote": 5, "escalation_window": 3,
                        "max_escalations": 1}
    doc["agents"] = [
        {"kind": "retail", "account": "issuer",
         "script": [{"block": 1, "op": "issue_bonded", "token": "NEW",
                     "total_issued": "1000000", "x": "0.05"}]},
        {"kind": "retail", "account": "claimer",
         "script": [{"block": 2, "op": "rug_claim", "token": "NEW", "y": "0.02"}]},
        {"kind": "retail", "account": "voter-1",
         "script": [{"block": 3, "op": "vote_rug", "token": "NEW",
                     "deposit": "100", "side": "rugging"}]},
        {"kind": "retail", "account": "insurer",
         "script": [{"block": 1, "op": "issue_policy", "insured": "victim",
                     "insured_value": "1000", "x": "0.1", "duration": "25"}]},
        {"kind": "retail", "account": "victim",
         "script": [{"block": 2, "op": "submit_claim", "policy": "pol-1",
                     "y": "0.05"}]},
        {"kind": "retail", "account": "skeptic",
         "script": [{"block": 3, "op": "dispute_claim", "claim": "icl-2",
                     "z": "0.03"}]},
    ]
    return doc


def test_dispute_machines_run_to_resolution():
    sim, trace = run_scenario(dispute_doc())
    rug = next(e for e in trace.events if e["type"] == "rug_claim_resolved")
    assert rug["outcome"] == "upheld_rug"
    assert rug["slashed"] == "25000"
    ins = next(e for e in trace.events if e["type"] == "insurance_resolved")
    # tie (no votes) goes to reject; skeptic collects the gamma slash
    assert ins["outcome"] == "rejected"
    assert amt(ins["slashed"]) == amt(25)
    sim.ledger.check_conservation()
    # case escrows fully drained
    for account, held in sim.ledger.snapshot()["balances"].items():
        if account.startswith(("case:", "icase:")):
            policy_escrow = account.startswith("icase:pol-")
            assert policy_escrow, f"leftover escrow {account}: {held}"


def test_verify_roundtrip(tmp_path):
    from rugsim.trace import verify_trace
    _, trace = run_scenario(reference_scenario(blocks=25))
    out = tmp_path / "trace"
    trace.write(str(out))
    result = verify_trace(str(out))
    assert result.ok, result.error


def test_sandwich_profit_routes_to_treasury():
    doc = scam_scenario()
    doc["accounts"] = [a for a in doc["accounts"] if a["id"] in ("mallory", "guard")]
    doc["agents"] = [a for a in doc["agents"] if a["kind"] in ("creator", "detector")]
    for agent in doc["agents"]:
        if agent["kind"] == "detector":
            agent.update({"sandwich_budget": "50", "backrun_budget": "0",
                          "protects": []})
    doc["intents"] = []
    for account in doc["accounts"]:
        if account["id"] == "guard":
            account["balances"] = {"RUG": "50", "USDN": "500"}
    sim, trace = run_scenario(doc)
    settled = next(e for e in trace.events if e["type"] == "sandwich_settled")
    assert settled["to_treasury"] == settled["profit"]  # default: all of it
    assert sim.ledger.balance("treasury", "USDN") == amt(settled["profit"])


def test_perps_collateral_revaluation_toggle():
    # live marking scales the pnl by the new unit value but cancels out of
    # health, so the toggle changes position value readings only
    from rugsim.ledger import Ledger
    from rugsim.perps import (Direction, FundingParams, MaintenanceRule,
                              PerpBook, position_health, position_pnl)
    from rugsim.core import AccountId, BlockTime
    ledger = Ledger()
    ledger.mint("a", "CA", amt(100))
    book = PerpBook("v", "CA", FundingParams(amt("0.01"), amt(100), 4),
                    MaintenanceRule(), revalue_collateral=True)
    position = book.open_position(ledger, AccountId.solo("a"), amt(100), amt(2),
                                  Direction.LONG, amt(1), amt(1),
                                  BlockTime(0, "x"))
    frozen = position_pnl(position, amt("0.75"))
    live = position_pnl(position, amt("0.75"), unit_value=amt(2))
    assert live == frozen * 2
    assert position_health(position, amt("0.75")) == \
        position_health(position, amt("0.75"), unit_value=amt(2))


def test_priority_boost_zero_is_clamped_protective():
    doc = scam_scenario()
    doc["detection"]["protocol_priority_boost"] = 1
    sim, trace = run_scenario(doc)
    assert sim.mark_to_market("frontrun-user") > sim.mark_to_market("unprotected")


def test_aux_signals_fire_through_engine():
    doc = minimal_doc(blocks=10)
    doc["detection"] = {"mint_spike_factor": "3", "wallet_outflow_fraction": "0.5",
                        "volume_spike_factor": "4"}
    doc["accounts"] = [
        {"id": "alice", "balances": {"RUG": "1000", "USDN": "100"}},
        {"id": "mallory", "balances": {"RUG": "800"}},
        {"id": "stash", "balances": {}},
    ]
    doc["agents"] = [
        # steady small deposits set a mint baseline, then a 100x deposit
        {"kind": "retail", "account": "alice",
         "script": [{"block": b, "op": "deposit", "vault": "v", "amount": "2"}
                    for b in (1, 2, 3)] +
                   [{"block": 5, "op": "deposit", "vault": "v", "amount": "600"}]},
        # the creator dumping most of its wallet trips the outflow heuristic
        {"kind": "creator", "account": "mallory",
         "script": [{"block": 7, "op": "transfer", "token": "RUG",
                     "to": "stash", "amount": "700"}]},
    ]
    _, trace = run_scenario(doc)
    kinds = {(e["kind"], e["h"]) for e in trace.events if e["type"] == "risk_signal"}
    assert ("mint_spike", 6) in kinds     # scanned the block after the big mint
    assert ("wallet_outflow", 8) in kinds


def scripted_reference(*steps):
    """builtin:reference on its two chains, with extra steps for alice."""
    doc = reference_scenario(blocks=8)
    doc["agents"][0]["script"].extend(steps)
    return doc


def test_scripted_register_intent_runs_on_its_pool_chain_only():
    sim, trace = run_scenario(scripted_reference(
        {"block": 3, "op": "register_intent", "pool": "rug-usdn", "token": "RUG",
         "action": "exit_to_numeraire", "theta_price": "0.5",
         "theta_liquidity": "0.5"}))
    registered = [e for e in trace.events if e["type"] == "intent_registered"]
    assert [(e["h"], e["chain"]) for e in registered] == [(3, "alpha")]
    assert len(sim.intent_book.intents) == 1


def test_scripted_register_intent_on_unknown_pool_fails_once():
    with pytest.raises(ScenarioError) as err:
        run_scenario(scripted_reference(
            {"block": 3, "op": "register_intent", "pool": "nope", "token": "RUG",
             "action": "exit_to_numeraire", "theta_price": "0.5",
             "theta_liquidity": "0.5"}))
    assert err.value.path == "agents[0].script[2].pool"
    assert "unknown pool 'nope'" in str(err.value)


def test_script_op_table_names_every_handler():
    handlers = {name[len("_op_"):] for name in dir(Simulation) if name.startswith("_op_")}
    assert set(SCRIPT_OPS) == handlers


def test_scripted_transfer_of_a_chainless_token_runs_once_on_home():
    # R reaches alice by the bridge at block 3; it has no chain entry, so
    # the transfer belongs to home, as does an undeclared token
    sim, trace = run_scenario(scripted_reference(
        {"block": 5, "op": "transfer", "token": "R", "to": "guard",
         "amount": "0.001"},
        {"block": 6, "op": "transfer", "token": "NOPE", "to": "guard",
         "amount": "1"}))
    moved = [e for e in trace.events
             if e["type"] == "transfer" and e["memo"] == "script-transfer"]
    assert [(e["h"], e["chain"], e["amount"]) for e in moved] == [(5, "home", "0.001")]
    assert sim.ledger.balance("guard", "R") == amt("0.001")
    failures = [e for e in trace.events if e["type"] == "failed"]
    assert [(f["h"], f["op"], f["error"], f["chain"]) for f in failures] == \
        [(6, "transfer", "BalanceError", "home")]


def test_multi_seed_stress_and_verify_roundtrip(tmp_path):
    from rugsim.trace import verify_trace
    hashes = set()
    for seed in (1, 7, 42, 1234, 2**40):
        sim, trace = run_scenario(reference_scenario(blocks=60), seed=seed)
        sim.ledger.check_conservation()
        out = tmp_path / f"seed-{seed}"
        trace.write(str(out))
        result = verify_trace(str(out))
        assert result.ok, f"seed {seed}: {result.error}"
        hashes.add(trace.trace_hash())
    assert len(hashes) == 5  # distinct seeds, distinct traces


def test_lp_share_ledger_enforced():
    doc = minimal_doc(blocks=12)
    doc["accounts"].append({"id": "lp-1", "balances": {"RUG": "5000", "USDN": "5000"}})
    doc["accounts"].append({"id": "freeloader", "balances": {}})
    doc["pools"] = [{"id": "p", "chain": "alpha", "token_x": "RUG",
                     "token_y": "USDN", "reserve_x": "1000", "reserve_y": "1000",
                     "fee_bps": 0}]
    doc["agents"] = [
        {"kind": "lp", "account": "lp-1",
         "script": [{"block": 1, "op": "add_liquidity", "pool": "p",
                     "dx": "1000", "dy": "auto"},
                    {"block": 3, "op": "remove_liquidity", "pool": "p",
                     "share": "0.5"}]},
        {"kind": "retail", "account": "freeloader",
         "script": [{"block": 2, "op": "remove_liquidity", "pool": "p",
                     "share": "0.25"}]},
    ]
    sim, trace = run_scenario(doc)
    failures = [e for e in trace.events if e["type"] == "failed"]
    assert [f["op"] for f in failures] == ["remove_liquidity"]
    assert failures[0]["account"] == "freeloader"
    # lp-1 owned exactly half after doubling the pool, so the removal runs
    removed = next(e for e in trace.events if e["type"] == "remove_liquidity")
    assert removed["account"] == "lp-1"
    assert amt(removed["out_x"]) == amt(1000)
    sim.ledger.check_conservation()


def test_chaos_scripts_never_crash_the_engine(tmp_path):
    # randomized, partly invalid scripts: every module error must surface
    # as a failed event, never an exception, with conservation intact
    from rugsim.core import SeededRng
    from rugsim.trace import verify_trace

    ops = ["deposit", "burn", "withdraw", "swap", "transfer", "open_position",
           "add_liquidity", "remove_liquidity", "drain", "issue_bonded",
           "rug_claim", "vote_rug", "issue_policy", "submit_claim",
           "dispute_claim", "escalate"]
    rng = SeededRng(31337).stream("chaos")
    for round_no in range(12):
        names = [f"agent{i}" for i in range(4)]
        doc = minimal_doc(blocks=25)
        doc["tokens"].append({"id": "NEW", "chain": "home"})
        doc["pools"] = [
            {"id": "p", "chain": "alpha", "token_x": "RUG", "token_y": "USDN",
             "reserve_x": "1000", "reserve_y": "1000", "fee_bps": 30},
            {"id": "anti", "chain": "alpha", "token_x": "anti:RUG@alpha",
             "token_y": "USDN", "reserve_x": "100", "reserve_y": "100",
             "fee_bps": 0}]
        doc["perps"] = {"enabled_vaults": ["v"], "alpha_base": "0.01",
                        "l_min": "10", "interval_blocks": 3, "amm_pool": "anti"}
        doc["accounts"] = [
            {"id": name, "balances": {"RUG": "500", "USDN": "500", "NEW": "5000"}}
            for name in names]
        agents = []
        for name in names:
            script = []
            for _ in range(rng.randint(1, 6)):
                op = rng.choice(ops)
                step = {"block": rng.randint(1, 20), "op": op}
                step.update({
                    "deposit": {"vault": "v", "amount": str(rng.randint(1, 900))},
                    "burn": {"vault": "v", "amount": str(rng.randint(1, 900))},
                    "withdraw": {"vault": "v", "amount": str(rng.randint(1, 900))},
                    "swap": {"pool": "p", "token_in": rng.choice(["RUG", "USDN"]),
                             "amount": str(rng.randint(1, 400))},
                    "transfer": {"token": "RUG", "to": rng.choice(names),
                                 "amount": str(rng.randint(1, 900))},
                    "open_position": {"vault": "v",
                                      "collateral": str(rng.randint(1, 300)),
                                      "leverage": str(rng.randint(1, 12)),
                                      "direction": rng.choice(["long", "short"])},
                    "add_liquidity": {"pool": "p", "dx": str(rng.randint(1, 100)),
                                      "dy": "auto"},
                    "remove_liquidity": {"pool": "p",
                                         "share": f"0.{rng.randint(1, 9)}"},
                    "drain": {"pool": "p", "t_rug": str(rng.randint(1, 400)),
                              "t_total": "1000", "window": rng.randint(1, 4)},
                    "issue_bonded": {"token": "NEW", "total_issued": "10000",
                                     "x": "0.05"},
                    "rug_claim": {"token": "NEW", "y": "0.02"},
                    "vote_rug": {"token": "NEW", "deposit": str(rng.randint(1, 50)),
                                 "side": rng.choice(["rugging", "not_rugging"])},
                    "issue_policy": {"insured": rng.choice(names),
                                     "insured_value": "100", "x": "0.1",
                                     "duration": str(rng.randint(5, 20))},
                    "submit_claim": {"policy": "pol-1", "y": "0.05"},
                    "dispute_claim": {"claim": "icl-2", "z": "0.03"},
                    "escalate": {"claim": "icl-2"},
                }[op])
                script.append(step)
            kind = rng.choice(["retail", "whale", "creator", "lp"])
            agents.append({"kind": kind, "account": name, "script": script})
        doc["agents"] = agents
        doc["rugproof"] = {"z_min": "1", "challenge_blocks": "4"}
        doc["insurance"] = {"tau_challenge": 4, "tau_vote": 4,
                            "escalation_window": 2, "max_escalations": 1}
        sim, trace = run_scenario(doc, seed=round_no)
        sim.ledger.check_conservation()
        out = tmp_path / f"chaos-{round_no}"
        trace.write(str(out))
        assert verify_trace(str(out)).ok


# -- multi-chain visit order -------------------------------------------------------


def multichain_doc():
    """Three satellite chains and home (listed out of step order), script
    steps on different chains due at one height (alice has two at block 3),
    two noise traders and two peg keepers on alpha and one of each on beta,
    perps with a liquidator, a drain with a protected holder, and a solved
    intent."""
    def pool(pid, chain, x, y, rx, ry):
        return {"id": pid, "chain": chain, "token_x": x, "token_y": "USDN",
                "reserve_x": rx, "reserve_y": ry, "fee_bps": 30}

    def vault(vid, chain, token):
        return {"id": vid, "chain": chain, "rugged_token": token,
                "receipt_kind": "fungible", "omega": "0.01", "theta": "0.02",
                "penalty_k": "1", "penalty_lambda": "2", "gamma_base": "0.05",
                "delta_gamma": "0.01"}

    return {
        "seed": 7, "blocks": 40, "bridge_delay_blocks": 2,
        "home_chain": "home", "numeraire": "USDN",
        "chains": ["alpha", "home", "beta", "gamma"],
        "tokens": [
            {"id": "RA", "chain": "alpha",
             "price_process": {"kind": "catastrophic", "p0": "2", "lam": "0.02"}},
            {"id": "RB", "chain": "beta",
             "price_process": {"kind": "scam", "p0": "1", "tau_rug": "30"}},
            {"id": "RC", "chain": "gamma",
             "price_process": {"kind": "sentiment", "p0": "3", "alpha_sent": "0.01"}},
        ],
        "accounts": [
            {"id": "alice", "balances": {"RA": "500", "RB": "300", "USDN": "500"}},
            {"id": "bob", "balances": {"RB": "500", "RC": "100", "USDN": "500"}},
            {"id": "carol", "balances": {"RA": "800", "USDN": "100"}},
            {"id": "mallory", "balances": {"RC": "5000"}},
            {"id": "dave", "balances": {"RC": "200"}},
            {"id": "erin", "balances": {"RB": "150"}},
            {"id": "keeper-a", "balances": {"USDN": "300"}},
            {"id": "keeper-b", "balances": {"USDN": "300"}},
            {"id": "keeper-c", "balances": {"USDN": "100"}},
            {"id": "frank", "balances": {"RA": "300", "USDN": "300"}},
            {"id": "sol-1", "balances": {}},
            {"id": "liq-1", "balances": {}},
            {"id": "guard", "balances": {"USDN": "100"}},
        ],
        "pools": [
            pool("a-usdn", "alpha", "RA", "USDN", "5000", "10000"),
            pool("b-usdn", "beta", "RB", "USDN", "4000", "4000"),
            pool("anti-a", "alpha", "anti:RA@alpha", "USDN", "1000", "200"),
            pool("c-usdn", "gamma", "RC", "USDN", "3000", "9000"),
            pool("anti-b", "beta", "anti:RB@beta", "USDN", "800", "10"),
        ],
        "vaults": [vault("v-a", "alpha", "RA"), vault("v-b", "beta", "RB"),
                   vault("v-c", "gamma", "RC")],
        "tokenomics": {"initial_supply": "1000000", "s0": "1000000",
                       "epsilon_rate": "5", "beta_burn": "500", "kappa": "0.25"},
        "perps": {"enabled_vaults": ["v-a"], "alpha_base": "0.01", "l_min": "100",
                  "interval_blocks": 5, "amm_pool": "anti-a",
                  "maintenance_fraction": "0.5", "liquidator_deadline_blocks": 2,
                  "liquidator_fee_fraction": "0.05"},
        "detection": {"drop_threshold": "0.2", "mint_spike_factor": "3",
                      "wallet_outflow_fraction": "0.5", "volume_spike_factor": "4"},
        "agents": [
            {"kind": "retail", "account": "alice",
             "script": [{"block": 3, "op": "deposit", "vault": "v-a", "amount": "100"},
                        {"block": 3, "op": "swap", "pool": "b-usdn",
                         "token_in": "RB", "amount": "40"},
                        {"block": 5, "op": "open_position", "vault": "v-a",
                         "collateral": "50", "leverage": "3", "direction": "long"},
                        {"block": 9, "op": "burn", "vault": "v-a", "amount": "20"}],
             "noise": {"pool": "a-usdn", "prob": "0.5", "max_size": "4"}},
            {"kind": "retail", "account": "bob",
             "script": [{"block": 3, "op": "deposit", "vault": "v-b", "amount": "200"},
                        {"block": 6, "op": "add_liquidity", "pool": "c-usdn",
                         "dx": "50", "dy": "auto"},
                        {"block": 12, "op": "withdraw", "vault": "v-b", "amount": "50"}],
             "noise": {"pool": "b-usdn", "prob": "0.4", "max_size": "6"}},
            {"kind": "retail", "account": "carol",
             "script": [{"block": 2, "op": "deposit", "vault": "v-a", "amount": "600"},
                        {"block": 4, "op": "open_position", "vault": "v-a",
                         "collateral": "200", "leverage": "8", "direction": "long"},
                        {"block": 4, "op": "open_position", "vault": "v-a",
                         "collateral": "100", "leverage": "2", "direction": "short"}]},
            {"kind": "creator", "account": "mallory",
             "script": [{"block": 10, "op": "drain", "pool": "c-usdn",
                         "t_rug": "4000", "t_total": "5000", "window": 3}]},
            {"kind": "detector", "account": "guard", "protects": ["dave"],
             "sandwich_budget": "0", "backrun_budget": "0", "backrun_cap": "0"},
            {"kind": "pegkeeper", "account": "keeper-a", "pool": "anti-a",
             "vault": "v-a", "budget": "50"},
            {"kind": "pegkeeper", "account": "keeper-b", "pool": "anti-b",
             "vault": "v-b", "budget": "50"},
            {"kind": "pegkeeper", "account": "keeper-c", "pool": "anti-a",
             "vault": "v-a", "budget": "5"},
            {"kind": "retail", "account": "frank",
             "noise": {"pool": "a-usdn", "prob": "0.6", "max_size": "3"}},
            {"kind": "solver", "account": "sol-1", "fee_bps": 25},
            {"kind": "liquidator", "account": "liq-1"},
        ],
        "intents": [
            {"owner": "erin", "pool": "b-usdn", "token": "RB",
             "action": "exit_to_numeraire", "theta_price": "0.9",
             "theta_liquidity": "0.5", "solver_fee_bps": 100},
        ],
    }


def test_multichain_visit_order_is_pinned():
    # the order in which a block visits chains, processes, monitors, script
    # steps, noise traders, keepers and perp books decides the event order;
    # this hash was measured before those visits were indexed per chain
    _, trace = run_scenario(multichain_doc())
    seen = {}
    for event in trace.events:
        if event["type"] in ("swap", "peg_trade", "liquidation", "failed"):
            key = (event["type"], event["chain"], event.get("memo"))
            seen[key] = seen.get(key, 0) + 1
    assert seen[("peg_trade", "alpha", None)] == 31
    assert seen[("peg_trade", "beta", None)] == 40
    assert seen[("swap", "alpha", "noise")] == 44
    assert seen[("swap", "beta", "noise")] == 15
    assert seen[("liquidation", "alpha", None)] == 4
    assert seen[("swap", "beta", "intent")] == 1
    assert trace.failed_events == 1
    assert trace.trace_hash() == "d8330d7f6b33575e"


def test_each_chain_scans_the_mints_of_its_own_tokens():
    # the aux mint-spike scan reads these lists instead of filtering every
    # minted token by chain; R is not scanned, even where it is declared
    doc = multichain_doc()
    doc["tokens"].append({"id": "R", "chain": "beta"})
    sim = Simulation(load_scenario(doc))
    mint_tokens = {chain: view.mint_tokens for chain, view in sim._chain_views.items()}
    assert mint_tokens == {"alpha": ["RA", "anti:RA@alpha"], "beta": ["RB", "anti:RB@beta"],
                           "gamma": ["RC", "anti:RC@gamma"], "home": ["USDN"]}


def test_running_totals_raise_where_fixed_amounts_would():
    # the cumulative mint and outflow totals are raw ints, range checked as
    # the FixedAmount sums they replace were: a second mint or send of the
    # whole range passes MAX_RAW though no balance or supply does
    sim = Simulation(load_scenario(minimal_doc()))
    whole = FixedAmount(MAX_RAW)
    sim.ledger.mint("x", "T", whole)
    sim.ledger.burn("x", "T", whole)
    with pytest.raises(RangeError, match=f"raw={MAX_RAW + 1}"):
        sim.ledger.mint("x", "T", QUANTUM)
    sim.ledger.mint("y", "U", whole)
    sim.ledger.transfer("y", "z", "U", whole)
    sim.ledger.transfer("z", "y", "U", whole)
    with pytest.raises(RangeError, match=f"raw={MAX_RAW + 1}"):
        sim.ledger.transfer("y", "z", "U", QUANTUM)


def big_pools_doc(script: list, pools: list, balances: dict) -> dict:
    """minimal_doc over 3 blocks with these pools on alpha, their tokens
    declared there, and one lp with these balances and this script."""
    tokens = {token for pool in pools for token in (pool[1], pool[2])}
    doc = minimal_doc(blocks=3)
    doc["tokens"] += [{"id": token, "chain": "alpha"} for token in sorted(tokens)]
    doc["pools"] = [{"id": pid, "chain": "alpha", "token_x": x, "token_y": y,
                     "reserve_x": rx, "reserve_y": ry}
                    for pid, x, y, rx, ry in pools]
    doc["accounts"].append({"id": "lp", "balances": balances})
    doc["agents"] = [{"kind": "lp", "account": "lp", "script": script}]
    return doc


def test_scan_sums_raise_where_fixed_amounts_would():
    big = "550000000000000000"  # 0.55 of the fixed-point range, in units
    # block 1 adds 0.55 of the range to the y side of p1 and of p2 and takes
    # 0.2 out of p3's: the next scan's sum is 0.9 of the range, but its
    # running sum passes 1.0 after p2, where the FixedAmount sum raised
    doc = big_pools_doc(
        [{"block": 1, "op": "add_liquidity", "pool": pool, "dx": big, "dy": "auto"}
         for pool in ("p1", "p2")]
        + [{"block": 1, "op": "swap", "pool": "p3", "token_in": "X3",
            "amount": "400000000000000000"}],
        [("p1", "X1", "A", "1", "1"), ("p2", "X2", "B", "1", "1"),
         ("p3", "X3", "C", "400000000000000000", "400000000000000000")],
        {"X1": big, "A": big, "X2": big, "B": big, "X3": "400000000000000000"})
    with pytest.raises(RangeError, match="raw=1100000000000000000000000000"):
        run_scenario(doc)
    # a pool's two volumes, 0.55 of the range each, pass it together (a
    # spike factor of 1 keeps the volume monitor's own product in range)
    doc = big_pools_doc(
        [{"block": 1, "op": "swap", "pool": "p1", "token_in": "X1", "amount": big},
         {"block": 2, "op": "swap", "pool": "p1", "token_in": "A", "amount": big}],
        [("p1", "X1", "A", "100000000000000000", "100000000000000000")],
        {"X1": big, "A": big})
    doc["detection"] = {"volume_spike_factor": "1"}
    with pytest.raises(RangeError, match="raw=1100000000000000000000000000"):
        run_scenario(doc)
    # mallory sends 0.5 of the range to trudy, who sends 0.95 back: the
    # outflow scan keeps trudy's larger outflow, but first sums mallory's
    # 0.95 and 0.5, as FixedAmounts did, past the range
    doc = minimal_doc(blocks=3)
    doc["accounts"] += [{"id": "mallory", "balances": {"RUG": "500000000000000000"}},
                        {"id": "trudy", "balances": {"RUG": "450000000000000000"}}]
    doc["agents"] = [
        {"kind": "creator", "account": name,
         "script": [{"block": 1, "op": "transfer", "token": "RUG", "to": to,
                     "amount": amount}]}
        for name, to, amount in (("mallory", "trudy", "500000000000000000"),
                                 ("trudy", "mallory", "950000000000000000"))]
    with pytest.raises(RangeError, match="raw=1450000000000000000000000000"):
        run_scenario(doc)


def test_noise_defaults_are_a_tenth_and_one_unit():
    # a noise trader without prob or max_size trades as one that names
    # prob 0.1 and max_size 1, and not as one with another prob
    def noise_hash(noise):
        doc = reference_scenario(blocks=150)
        for agent in doc["agents"]:
            if "noise" in agent:
                agent["noise"] = {"pool": "rug-usdn", **noise}
        return run_scenario(doc)[1].trace_hash()

    implicit = noise_hash({})
    assert implicit == noise_hash({"prob": "0.1", "max_size": "1"})
    assert implicit != noise_hash({"prob": "0.2", "max_size": "1"})
