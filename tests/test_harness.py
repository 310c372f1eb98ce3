"""Engine integration: scenario loading, phase ordering, bridge delays,
conservation, determinism, and the dispute/perps flows driven end-to-end
through scripted scenarios."""

import copy
import gc
import importlib.util
import json
import sys
import types
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import pinned
from rugsim import market
from rugsim.cli import main
from rugsim.core import MAX_RAW, QUANTUM, FixedAmount, RangeError, amt
from rugsim.detection import DrainBook, IntentAction, IntentBook
from rugsim.harness import Simulation, run_scenario
from rugsim.insurance import InsuranceBook
from rugsim.ledger import ENGINE_ACCOUNT_PREFIXES
from rugsim.perps import PerpMarkets
from rugsim.rugproof import RugproofBook
from rugsim.scenario import (
    SCRIPT_OPS,
    ScenarioError,
    load_scenario,
    load_scenario_file,
    reference_scenario,
    scam_scenario,
)
from rugsim.vault import VaultRegistry


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


@pytest.mark.parametrize("content,message", [
    (b"\xff\xfe{}", "not UTF-8 text"), (b"[" * 100_000 + b"]" * 100_000, "not valid JSON")],
    ids=["not-utf8", "nested-too-deeply"])
def test_load_scenario_file_refuses_an_unreadable_file(tmp_path, content, message):
    path = tmp_path / "scenario.json"
    path.write_bytes(content)
    with pytest.raises(ScenarioError, match=message):
        load_scenario_file(str(path))


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


def test_the_ledger_is_the_only_count_of_the_home_token(tmp_path):
    # R minted at genesis to an account is R supply too: the controller,
    # the telemetry and state.json all read the ledger's count of it
    from rugsim.trace import verify_trace
    doc = reference_scenario(blocks=5)
    doc["tokens"].append({"id": "R", "chain": "home"})
    next(a for a in doc["accounts"] if a["id"] == "alice")["balances"]["R"] = "100"
    sim, trace = run_scenario(doc)
    assert trace.failed_events == 0
    state = trace.final_state
    assert state["home_token_supply"] == state["supply"]["R"] == \
        trace.telemetry[-1]["current_supply"]
    previous = amt("1000100")
    for row in trace.telemetry:
        current = amt(row["current_supply"])
        assert current == previous + amt(row["emission"]) - amt(row["burned"])
        previous = current
    trace.write(str(tmp_path / "trace"))
    assert verify_trace(str(tmp_path / "trace")).ok


def test_failed_ops_recorded_not_raised():
    doc = minimal_doc(agents=[
        {"kind": "retail", "account": "alice",
         "script": [{"block": 1, "op": "deposit", "vault": "v", "amount": "5000"}]}])
    _, trace = run_scenario(doc)
    failures = [e for e in trace.events if e["type"] == "failed"]
    assert len(failures) == 1
    assert failures[0]["op"] == "deposit"
    assert failures[0]["error"] == "BalanceError"


def owner_doc(owner):
    """Two accounts deposit 80 RUG each, then withdraw 30 on blocks 2 and 3;
    ``owner`` is their shared beneficial owner, or None for none."""
    accounts = [{"id": name, "balances": {"RUG": "100"}} for name in ("sock-a", "sock-b")]
    if owner is not None:
        for entry in accounts:
            entry["owner"] = owner
    agents = [{"kind": "retail", "account": entry["id"],
               "script": [{"block": 1, "op": "deposit", "vault": "v", "amount": "80"},
                          {"block": 2 + i, "op": "withdraw", "vault": "v", "amount": "30"}]}
              for i, entry in enumerate(accounts)]
    doc = minimal_doc(accounts=accounts, agents=agents)
    doc["vaults"][0]["penalty_k"] = "0.2"
    return doc


def test_withdrawals_of_one_owner_count_and_hold_together():
    # the second withdrawal is the owner's second (gamma 0.05 + 0.01 * 2),
    # and its whale term reads both accounts' holdings: 0.2 * (130 / 160)^2
    _, trace = run_scenario(owner_doc("whale"))
    first, second = [e for e in trace.events if e["type"] == "withdraw"]
    assert (first["account"], first["index"], first["rate"]) == ("sock-a", 1, "0.26")
    assert (second["account"], second["index"]) == ("sock-b", 2)
    assert (second["rate"], second["penalty"], second["returned"]) \
        == ("0.20203125", "6.0609375", "23.9390625")
    assert trace.trace_hash() == "2441a43f60281a86"
    # each account its own owner: two first withdrawals at the same rate
    _, trace = run_scenario(owner_doc(None))
    assert [(e["index"], e["rate"]) for e in trace.events if e["type"] == "withdraw"] \
        == [(1, "0.11"), (1, "0.11")]


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


def failed_drain_doc():
    doc = scam_scenario()
    # mallory gives away the tokens the drain sells, so the drain fails
    doc["agents"][0]["script"].append({"block": 4, "op": "transfer", "to": "unprotected",
                                       "token": "RUG", "amount": "800"})
    return doc


def test_a_failed_drain_is_recorded_and_no_longer_pending():
    # the back-run planned against the drain fails too: it buys no salvage
    # at the un-drained price
    sim, trace = run_scenario(failed_drain_doc())
    failures = [e for e in trace.events if e["type"] == "failed"]
    assert [(e["h"], e["op"], e["error"]) for e in failures] == \
        [(7, "drain", "BalanceError"), (7, "backrun", "StateError")]
    assert not any(e["type"] == "drain_executed" for e in trace.events)
    assert not any(e["type"] == "swap" and e["memo"] == "backrun" for e in trace.events)
    assert sim.drains.pending == []
    assert trace.trace_hash() == "6565cb7fb56d10f8"


def test_a_failed_drain_leaves_the_sandwich_post_leg_unswapped():
    doc = failed_drain_doc()
    for account in doc["accounts"]:
        if account["id"] == "guard":
            account["balances"] = {"RUG": "50", "USDN": "500"}
    doc["agents"][2]["sandwich_budget"] = "50"
    _, trace = run_scenario(doc)
    failures = [(e["h"], e["op"], e["error"]) for e in trace.events if e["type"] == "failed"]
    assert failures == [(7, "drain", "BalanceError"), (7, "sandwich_post", "StateError"),
                        (7, "backrun", "StateError")]
    # the pre leg runs ahead of the drain; nothing runs after it
    moves = [(e["h"], e["memo"]) for e in trace.events
             if e["type"] == "swap" and e["memo"] not in ("noise", "intent")]
    assert moves == [(5, "frontrun"), (7, "sandwich_pre")]


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
    assert sim.drains.pending == [] and trace.failed_events == 0
    # measured before queued transactions carried their own actions
    assert trace.trace_hash() == "d0ef312b97d7952c"


def overlapping_detectors_doc(window):
    # guard protects one name twice and sandwiches; guard-2, listed second,
    # protects that name again and is the first with a back-run budget
    doc = scam_scenario()
    doc["agents"][0]["script"][0]["window"] = window
    for account in doc["accounts"]:
        if account["id"] == "guard":
            account["balances"] = {"RUG": "50", "USDN": "500"}
    doc["accounts"].append({"id": "guard-2", "balances": {"USDN": "500"}})
    doc["agents"][2].update(protects=["frontrun-user", "frontrun-user"],
                            sandwich_budget="50", backrun_budget="0")
    doc["agents"].append({"kind": "detector", "account": "guard-2",
                          "protects": ["frontrun-user", "unprotected"],
                          "backrun_budget": "100", "backrun_cap": "50"})
    return doc


@pytest.mark.parametrize("window,plans,moves,digest", [
    # the drain executes the block after it is submitted: no block lies
    # before it, so nothing is front-run or sandwiched; the back-run runs
    (1, [], [(5, "backrun", "guard-2")], "7136b6c9e5cf4d24"),
    # the block after submission is the block before execution: front-runs
    # and the sandwich are planned together, in detector order
    (2, [(5, "frontrun", "frontrun-user"), (5, "sandwich", "guard"),
         (5, "frontrun", "unprotected")],
     [(5, "frontrun", "frontrun-user"), (5, "frontrun", "unprotected"),
      (6, "sandwich_pre", "guard"), (6, "sandwich_post", "guard"),
      (6, "backrun", "guard-2")], "0d2629949f901089"),
    (3, [(5, "frontrun", "frontrun-user"), (5, "frontrun", "unprotected"),
         (6, "sandwich", "guard")],
     [(5, "frontrun", "frontrun-user"), (5, "frontrun", "unprotected"),
      (7, "sandwich_pre", "guard"), (7, "sandwich_post", "guard"),
      (7, "backrun", "guard-2")], "b49d8403de69654a"),
], ids=["window1", "window2", "window3"])  # no digest in the id: re-pinning keeps the name
def test_drain_windows_time_each_move_once(window, plans, moves, digest):
    # measured before the engine alone timed the moves against a drain
    sim, trace = run_scenario(overlapping_detectors_doc(window))
    assert [(e["h"], e["kind"], e["account"]) for e in trace.events
            if e["type"] == "plan"] == plans
    assert [(e["h"], e["memo"], e["account"]) for e in trace.events
            if e["type"] == "swap" and e["memo"] != "intent"] == moves
    assert sim.drains.pending == [] and trace.failed_events == 0
    assert trace.trace_hash() == digest


def test_intents_protect_via_swap_to_anticoin():
    doc = scam_scenario()
    doc["intents"][0]["action"] = "swap_to_anticoin"
    sim, trace = run_scenario(doc)
    events = trace.events
    executed = next(i for i, e in enumerate(events) if e["type"] == "intent_executed")
    assert events[executed]["owner"] == "intent-user"
    anticoin = "anti:RUG@alpha"
    held = sim.ledger.balance("intent-user", anticoin)
    assert held.raw > 0
    # solver took its cut in anticoins
    assert sim.ledger.balance("sol-1", anticoin).raw > 0
    # the deposit writes one deposit line of all the RUG the intent held,
    # after its reward and before the intent's own line
    deposits = [i for i, e in enumerate(events) if e["type"] == "deposit"
                and (e["vault"], e["account"]) == ("v-rug", "intent-user")]
    assert len(deposits) == 1
    at = deposits[0]
    holdings = next(a["balances"]["RUG"] for a in doc["accounts"] if a["id"] == "intent-user")
    assert amt(events[at]["amount"]) == amt(holdings) == amt(100)
    reward = events[at - 1]
    assert (reward["type"], reward["kind"], reward["account"]) == \
        ("reward_emitted", "deposit", "intent-user")
    assert at < executed


def test_vault_totals_fold_from_their_event_lines(tmp_path):
    # 12 blocks of storm_doc(777): its first swap_to_anticoin intent
    # executes at block 11, so an intent's deposit is among the lines folded
    sim, trace = run_scenario(pinned.workloads.storm_doc(777), blocks=12,
                              out_dir=str(tmp_path))
    trace.write()
    events = [json.loads(line) for line in (tmp_path / "events.jsonl").open()]
    intents = sim.intents.intents
    assert any(intents[e["intent"]].params["action"] is IntentAction.SWAP_TO_ANTICOIN
               for e in events if e["type"] == "intent_executed")
    totals = {"deposit": "total_deposited", "anticoin_burn": "total_burned",
              "withdraw": "total_withdrawn"}
    vaults = {vid: vault for chain_vaults in
              json.loads((tmp_path / "state.json").read_text())["vaults"].values()
              for vid, vault in chain_vaults.items()}
    folded = {vid: dict.fromkeys(totals.values(), amt(0)) for vid in vaults}
    for e in events:
        if e["type"] in totals:
            row = folded[e["vault"]]
            row[totals[e["type"]]] = row[totals[e["type"]]] + amt(e["amount"])
    assert len(vaults) == 6
    for vid, vault in vaults.items():
        assert {field: amt(vault[field]) for field in totals.values()} == folded[vid], vid


@pytest.mark.parametrize("chains,expected", [(["alpha", "home"], "v-rug"),
                                             (["home", "alpha"], "v-rug@home")])
def test_an_intent_without_a_vault_takes_the_first_chain_that_has_one(chains, expected):
    doc = scam_scenario()
    doc["chains"] = chains
    # two vaults take RUG, declared in the reverse of the chains' order
    vaults = {"alpha": doc["vaults"][0],
              "home": dict(doc["vaults"][0], id="v-rug@home", chain="home")}
    doc["vaults"] = [vaults[chain] for chain in reversed(chains)]
    doc["intents"][0]["action"] = "swap_to_anticoin"
    sim, trace = run_scenario(doc)
    assert [e["owner"] for e in trace.events if e["type"] == "intent_executed"] \
        == ["intent-user"]
    deposited = {vid: vault["total_deposited"]
                 for chain_vaults in trace.final_state["vaults"].values()
                 for vid, vault in chain_vaults.items()}
    assert deposited == {"v-rug": "0", "v-rug@home": "0", expected: "100"}
    assert sim.ledger.balance("sol-1", f"anti:RUG@{chains[0]}").raw > 0
    assert sim.ledger.balance("sol-1", f"anti:RUG@{chains[1]}").raw == 0


@pytest.mark.parametrize("doc,blocks", [
    (scam_scenario(), None),
    (reference_scenario(blocks=200), None),
    (pinned.workloads.storm_doc(777), 20),
], ids=["scam", "reference-200", "storm-777-20"])
def test_a_run_does_not_write_its_parsed_document(doc, blocks):
    # books keep the parsed entries they read, and a sweep's points share them
    scenario = load_scenario(doc)
    kept = copy.deepcopy(scenario)
    Simulation(scenario).run(blocks)
    assert scenario == kept


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
    doc = perps_doc()
    sim, trace = run_scenario(doc)
    rounds = [e for e in trace.events if e["type"] == "funding_round"]
    assert rounds, "funding boundary at block 4 should produce a round"
    # the harness alone decides the boundary: a multiple of interval_blocks
    assert all(e["h"] % doc["perps"]["interval_blocks"] == 0 for e in rounds)
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


def test_dispute_lookup_failures_are_recorded_with_op_and_account():
    # a dispute op whose issuance or claim lookup fails moves nothing and
    # records one failed event naming the op, the error and the account
    doc = dispute_doc()
    scripts = {agent["account"]: agent["script"] for agent in doc["agents"]}
    scripts["claimer"].append({"block": 1, "op": "rug_claim", "token": "GHOST",
                               "y": "0.02"})
    # iss-1 is issued at block 1, its claim made at block 2 and upheld at 7
    vote = {"op": "vote_rug", "token": "NEW", "deposit": "10", "side": "rugging"}
    scripts["voter-1"] += [dict(vote, block=1), dict(vote, block=9)]
    scripts["skeptic"] += [
        {"block": 4, "op": "join_claim", "claim": "icl-9", "loss": "1", "w": "0.01"},
        {"block": 4, "op": "dispute_claim", "claim": "icl-9", "z": "0.03"},
        {"block": 4, "op": "vote_insurance", "claim": "icl-9", "deposit": "1",
         "side": "approve"},
        {"block": 4, "op": "escalate", "claim": "icl-9"}]
    sim, trace = run_scenario(doc)
    failed = [(e["h"], e["op"], e["error"], e["detail"], e["account"])
              for e in trace.events if e["type"] == "failed"]
    assert failed == [
        (1, "rug_claim", "StateError", "no active issuance for GHOST", "claimer"),
        (1, "vote_rug", "StateError", "no open claim on iss-1", "voter-1"),
        *[(4, op, "StateError", "no insurance claim icl-9", "skeptic")
          for op in ("join_claim", "dispute_claim", "vote_insurance", "escalate")],
        (9, "vote_rug", "StateError", "no active issuance for NEW", "voter-1")]
    # the dispute game itself ran as without the failing steps
    outcomes = [(e["type"], e["outcome"]) for e in trace.events
                if e["type"] in ("rug_claim_resolved", "insurance_resolved")]
    assert outcomes == [("rug_claim_resolved", "upheld_rug"),
                        ("insurance_resolved", "rejected")]
    sim.ledger.check_conservation()


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
    from rugsim.perps import Direction, PerpBook, position_health, position_pnl
    from conftest import loaded
    ledger = Ledger()
    ledger.mint("a", "CA", amt(100))
    book = PerpBook("v", "CA", loaded("perps", {
        "alpha_base": "0.01", "l_min": "100", "interval_blocks": 4,
        "revalue_collateral": True}))
    position = book.open_position(ledger, "a", amt(100), amt(2),
                                  Direction.LONG, amt(1), amt(1))
    frozen = position_pnl(position, amt("0.75"))
    live = position_pnl(position, amt("0.75"), unit_value=amt(2))
    assert live == frozen * 2
    assert position_health(position, amt("0.75")) == \
        position_health(position, amt("0.75"), unit_value=amt(2))


def test_priority_boost_zero_is_clamped_protective():
    doc = scam_scenario()
    doc["detection"]["protocol_priority_boost"] = 1  # the least boost that loads
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
    assert len(sim.intents.intents) == 1


def test_scripted_register_intent_on_unknown_pool_fails_once():
    with pytest.raises(ScenarioError) as err:
        run_scenario(scripted_reference(
            {"block": 3, "op": "register_intent", "pool": "nope", "token": "RUG",
             "action": "exit_to_numeraire", "theta_price": "0.5",
             "theta_liquidity": "0.5"}))
    assert err.value.path == "agents[0].script[2].pool"
    assert "unknown pool 'nope'" in str(err.value)


BOOKS = (market.PoolBook, DrainBook, VaultRegistry, PerpMarkets, IntentBook, RugproofBook,
         InsuranceBook)


def test_script_op_table_names_every_handler():
    # every op has exactly one runner, in the one table materialize builds:
    # the harness's own transfer, or one book's declared op (the pool
    # book's, the drain book's, the vault registry's, the perp markets',
    # the intent book's or a dispute book's), never two; no Simulation._op_*
    # method is left to fall back on
    runners = ["transfer"]
    for book in BOOKS:
        assert all(callable(getattr(book, op, None)) for op in book.OPS), book
        runners += book.OPS
    assert sorted(runners) == sorted(SCRIPT_OPS)
    assert [name for name in dir(Simulation) if name.startswith("_op_")] == []
    sim = Simulation(load_scenario(pinned.perps_intents_doc()))
    assert sorted(sim._handlers) == sorted(SCRIPT_OPS)
    for op, handler in sim._handlers.items():
        owner = handler.__self__
        if op == "transfer":
            assert owner is sim and handler.__func__ is Simulation._transfer
        else:
            assert type(owner) in BOOKS and op in owner.OPS, op
            assert handler.__func__ is type(owner).__dict__[op], op


def test_every_benchmark_traced_name_resolves():
    # the benchmark's traced run wraps each WRAPPED callable where it is
    # defined (a method from its class's own __dict__); a rename fails here
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for name, (module_name, attr, _) in tracing.WRAPPED.items():
        owner = importlib.import_module(module_name)
        if "." in attr:
            class_name, method = attr.split(".")
            assert callable(getattr(owner, class_name).__dict__.get(method)), name
        else:
            assert callable(getattr(owner, attr, None)), name


def count_calls(monkeypatch, names) -> Counter:
    """Count the calls of each ``module.callable`` or ``module.Class.method``
    of rugsim, wrapped as the benchmark's tracer wraps them: a function at
    every binding of it in a rugsim module, a method on its class."""
    counts: Counter = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    modules = [module for key, module in sorted(sys.modules.items())
               if key.startswith("rugsim.")]
    for name in names:
        module_name, _, attr = name.partition(".")
        owner = importlib.import_module(f"rugsim.{module_name}")
        if "." in attr:
            class_name, method = attr.split(".")
            cls = getattr(owner, class_name)
            monkeypatch.setattr(cls, method, counting(name, cls.__dict__[method]))
            continue
        original = getattr(owner, attr)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counting(name, original))
    return counts


def test_the_commands_call_the_names_the_benchmark_guards(tmp_path, monkeypatch):
    # perfbench/run.py's check_guards fails a traced run in which one of
    # these is never called; a refactor that stops calling one fails here
    names = ("harness.run_scenario", "trace.Trace.write", "trace.Trace.trace_hash")
    counts = count_calls(monkeypatch, names)
    assert main(["run", "--scenario", "builtin:scam", "--out", str(tmp_path / "r")]) == 0
    assert counts == dict.fromkeys(names, 1)
    counts.clear()
    assert main(["sweep", "--scenario", "builtin:scam", "--out", str(tmp_path / "s"),
                 "--param", "vaults.0.delta_gamma=0:0.02:0.01"]) == 0
    assert counts == {"trace.Trace.write": 3, "trace.Trace.trace_hash": 3}


def test_the_benchmark_tracer_reaches_the_drain_book(monkeypatch):
    # wrapped before the simulation is built, as the tracer wraps them: a
    # planner or _enqueue that the drain book took before then counts 0
    names = ("detection.plan_frontrun", "detection.plan_sandwich", "detection.plan_backrun",
             "harness.Simulation._enqueue", "harness.Simulation._execute_tx")
    counts = count_calls(monkeypatch, names)
    _, trace = run_scenario(overlapping_detectors_doc(2))
    events = trace.events
    plans = Counter(e["kind"] for e in events if e["type"] == "plan")
    memos = Counter(e["memo"] for e in events if e["type"] == "swap")
    queued = (sum(e["type"] in ("drain_executed", "intent_executed", "intent_skipped")
                  for e in events)
              + sum(memos[memo] for memo in ("frontrun", "sandwich_pre", "sandwich_post",
                                               "backrun")))
    assert counts == {"detection.plan_frontrun": plans["frontrun"],
                      "detection.plan_sandwich": plans["sandwich"],
                      "detection.plan_backrun": memos["backrun"],
                      "harness.Simulation._enqueue": queued,
                      "harness.Simulation._execute_tx": queued}
    assert counts["detection.plan_frontrun"] == 2 and queued == 7


def test_the_benchmark_tracer_reaches_the_perp_and_intent_books(monkeypatch):
    # wrapped before the simulation is built, as the tracer wraps them: a
    # PerpBook method, solver_step or _enqueue that a book took before then
    # counts 0. The auction runs on every chain step, each market flags and
    # liquidates every block (a vault's token always has a price above its
    # floor) and funds at each interval_blocks boundary, and each intent
    # line is one queued intent transaction
    names = ("perps.PerpBook.apply_funding", "perps.PerpBook.flag_and_liquidate",
             "detection.solver_step")
    counts = count_calls(monkeypatch, names)
    queued: Counter = Counter()
    enqueue = Simulation._enqueue

    def counting_enqueue(sim, chain, execute_at, priority, kind, action):
        queued[kind] += 1
        return enqueue(sim, chain, execute_at, priority, kind, action)

    monkeypatch.setattr(Simulation, "_enqueue", counting_enqueue)
    doc = pinned.workloads.storm_doc(777)
    blocks = doc["blocks"]
    _, trace = run_scenario(doc)
    events = trace.events
    markets = len(doc["perps"]["enabled_vaults"])
    boundaries = blocks // doc["perps"]["interval_blocks"]
    assert counts == {"perps.PerpBook.apply_funding": markets * boundaries,
                      "perps.PerpBook.flag_and_liquidate": markets * blocks,
                      "detection.solver_step": len(doc["chains"]) * blocks}
    intent_lines = sum(e["type"] in ("intent_executed", "intent_skipped")
                       or (e["type"], e.get("op")) == ("failed", "intent") for e in events)
    assert queued["intent"] == intent_lines == sum(e["type"] == "intent_triggered"
                                                   for e in events) > 0
    assert markets > 0 and boundaries > 0
    assert any(e["type"] == "funding_round" for e in events)


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


def lp_pool_doc(blocks, reserve_x="1000", reserve_y="1000"):
    """minimal_doc with one fee-free RUG/USDN pool, p, on alpha."""
    doc = minimal_doc(blocks=blocks)
    doc["pools"] = [{"id": "p", "chain": "alpha", "token_x": "RUG", "token_y": "USDN",
                     "reserve_x": reserve_x, "reserve_y": reserve_y, "fee_bps": 0}]
    return doc


def assert_pools_hold_their_reserves(sim):
    # each pool's reserves are what the recorded movements left in its account
    moved = Counter()
    for event in sim.trace.events:
        if event["type"] in ("mint", "transfer"):
            moved[event.get("dst", event.get("account")), event["token"]] += \
                amt(event["amount"]).raw
        if event["type"] in ("burn", "transfer"):
            moved[event.get("src", event.get("account")), event["token"]] -= \
                amt(event["amount"]).raw
    for pool_id in sim.pools.pools:
        pool = sim.pools.state(pool_id)
        account = f"pool:{pool_id}"
        assert pool.reserve_x.raw == moved[account, pool.token_x]
        assert pool.reserve_y.raw == moved[account, pool.token_y]


def test_lp_share_ledger_enforced(tmp_path):
    from rugsim.trace import verify_trace

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
    # the shares are lp:p on the ledger: isqrt(1000 * 1000) to the treasury at
    # genesis, as much again to lp-1 for doubling the pool, and lp-1's burn of
    # half the supply; the freeloader holds none to burn
    assert [(e["type"], e["account"], e["amount"]) for e in trace.events
            if e.get("token") == "lp:p"] == [("mint", "treasury", "1000"),
                                             ("mint", "lp-1", "1000"),
                                             ("burn", "lp-1", "1000")]
    assert failures[0]["error"] == "BalanceError"
    trace.write(str(tmp_path))
    assert verify_trace(str(tmp_path)).ok
    state = json.loads((tmp_path / "state.json").read_text())
    assert state["supply"]["lp:p"] == state["balances"]["treasury"]["lp:p"] == "1000"


def test_liquidity_churn_keeps_lp_supply_on_the_ledger(tmp_path):
    # lp-1 adds 10 RUG and removes 0.0001 of the pool on alternate blocks
    from rugsim.trace import verify_trace

    doc = lp_pool_doc(blocks=200)
    doc["accounts"].append({"id": "lp-1", "balances": {"RUG": "5000", "USDN": "5000"}})
    doc["agents"] = [{"kind": "lp", "account": "lp-1", "script": [
        {"block": block, "op": "add_liquidity", "pool": "p", "dx": "10", "dy": "auto"}
        if block % 2 else {"block": block, "op": "remove_liquidity", "pool": "p",
                           "share": "0.0001"}
        for block in range(1, 201)]}]
    sim, trace = run_scenario(doc)
    assert trace.failed_events == 0
    assert sum(e["type"] == "remove_liquidity" for e in trace.events) == 100
    assert_pools_hold_their_reserves(sim)
    trace.write(str(tmp_path))
    assert verify_trace(str(tmp_path)).ok
    state = json.loads((tmp_path / "state.json").read_text())
    held = [amt(balances["lp:p"]) for balances in state["balances"].values()
            if "lp:p" in balances]
    assert len(held) == 2 and amt(state["supply"]["lp:p"]) == held[0] + held[1]


def test_a_failed_add_liquidity_changes_nothing():
    # lp-1 cannot pay the 2,000 USDN that its 1,000 RUG need at block 10
    doc = reference_scenario(blocks=12)
    for account in doc["accounts"]:
        if account["id"] == "lp-1":
            account["balances"]["USDN"] = "100"
    sim, trace = run_scenario(doc)
    assert [(e["h"], e["op"], e["error"]) for e in trace.events if e["type"] == "failed"] \
        == [(10, "add_liquidity", "BalanceError")]
    assert_pools_hold_their_reserves(sim)
    assert sim.ledger.balance("lp-1", "RUG") == amt(20000)
    assert sim.ledger.balance("lp-1", "lp:rug-usdn") == amt(0)


@pytest.mark.parametrize("pool,step,error", [
    # 1e-9 RUG of a 1e9 RUG pool would earn 1e-18 of its 1 LP token
    (("1000000000", "0.000000001"),
     {"op": "add_liquidity", "dx": "0.000000001", "dy": "0.000000001"}, "DustError"),
    # 1e-9 of an LP supply of 0.0316 rounds to no quantum, yet would pay
    # 0.001 RUG to an account that holds none
    (("1000000", "0.000000001"), {"op": "remove_liquidity", "share": "0.000000001"},
     "DustError"),
], ids=["add-mints-no-lp", "remove-burns-no-lp"])
def test_a_liquidity_op_that_moves_no_lp_quantum_fails(pool, step, error):
    doc = lp_pool_doc(3, *pool)
    doc["agents"] = [{"kind": "lp", "account": "alice",
                      "script": [{"block": 1, "pool": "p", **step}]}]
    sim, trace = run_scenario(doc)
    assert [(e["op"], e["error"]) for e in trace.events if e["type"] == "failed"] \
        == [(step["op"], error)]
    assert sim.ledger.balance("alice", "RUG") == amt(100)
    assert sim.ledger.balance("alice", "USDN") == amt(100)
    assert_pools_hold_their_reserves(sim)


def test_an_add_into_an_emptied_reserve_fails():
    # the treasury, holding every LP token, takes 0.9 of a pool with 1e-9
    # RUG: the RUG reserve rounds to 0, and alice's add has no ratio to keep
    doc = lp_pool_doc(4, "0.000000001", "1000")
    doc["accounts"].append({"id": "treasury"})
    doc["agents"] = [
        {"kind": "lp", "account": "treasury",
         "script": [{"block": 1, "op": "remove_liquidity", "pool": "p", "share": "0.9"}]},
        {"kind": "lp", "account": "alice",
         "script": [{"block": 2, "op": "add_liquidity", "pool": "p",
                     "dx": "0.000000001", "dy": "0.000000001"}]}]
    sim, trace = run_scenario(doc)
    assert [(e["op"], e["error"]) for e in trace.events if e["type"] == "failed"] \
        == [("add_liquidity", "IlliquidError")]
    assert sim.pools.state("p").reserve_x == amt(0)
    assert_pools_hold_their_reserves(sim)


def test_an_auto_add_into_a_closed_pool_fails_naming_the_pool():
    # the treasury, holding every LP token, closes p; an 'auto' dy has no
    # reserve ratio to read, so the add fails instead of dividing by zero
    doc = lp_pool_doc(4)
    doc["accounts"].append({"id": "treasury"})
    doc["agents"] = [
        {"kind": "lp", "account": "treasury",
         "script": [{"block": 1, "op": "remove_liquidity", "pool": "p", "share": "1"}]},
        {"kind": "lp", "account": "alice",
         "script": [{"block": 3, "op": "add_liquidity", "pool": "p",
                     "dx": "10", "dy": "auto"}]}]
    sim, trace = run_scenario(doc)
    [failed] = [e for e in trace.events if e["type"] == "failed"]
    assert (failed["op"], failed["error"]) == ("add_liquidity", "IlliquidError")
    assert failed["detail"].startswith("pool p ")
    assert sim.pools.state("p").is_closed()
    assert sim.ledger.balance("alice", "RUG") == amt(100)
    assert_pools_hold_their_reserves(sim)


def test_mark_to_market_values_an_lp_position_as_its_claim_on_both_reserves():
    # lp-1 put 1,000 RUG and ~2,000 USDN into rug-usdn at block 10; its LP
    # tokens are worth that claim, not nothing
    sim, _ = run_scenario(reference_scenario(blocks=12))
    pool = sim.pools.state("rug-usdn")
    spot = pool.reserve_y.as_fraction() / pool.reserve_x.as_fraction()
    share = (sim.ledger.balance("lp-1", "lp:rug-usdn").as_fraction()
             / sim.ledger.total_supply("lp:rug-usdn").as_fraction())
    held = {token: sim.ledger.balance("lp-1", token).as_fraction()
            for token in ("RUG", "USDN")}
    exact = (held["USDN"] + share * pool.reserve_y.as_fraction()
             + (held["RUG"] + share * pool.reserve_x.as_fraction()) * spot)
    # the engine rounds the spot price to the quantum: ~20,000 RUG at half a
    # quantum each is 1e-5
    assert abs(sim.mark_to_market("lp-1").as_fraction() - exact) < Fraction(1, 10**5)
    assert 79_990 < exact < 80_000


def test_a_pool_reads_its_reserves_from_the_ledger():
    # the ledger is the pool's only record: a move of the pool account's
    # tokens is the pool's new reserve, for its state and for a quote
    sim = Simulation(load_scenario(lp_pool_doc(blocks=3)))
    before = sim.pools.state("p")
    quoted = market.pool_quote(before, "RUG", amt(10))
    sim.ledger.transfer("pool:p", "alice", "USDN", amt(500))
    after = sim.pools.state("p")
    assert (after.reserve_x, after.reserve_y) == (amt(1000), amt(500))
    assert market.pool_quote(after, "RUG", amt(10)) < quoted
    assert market.pool_quote(after, "RUG", amt(10)) == market.pool_quote(
        market.PoolState("p", "RUG", "USDN", amt(1000), amt(500), fee_bps=0), "RUG", amt(10))
    sim.pools.trade("p", "alice", "RUG", amt(10), "test")
    assert sim.ledger.balance("pool:p", "RUG") == sim.pools.state("p").reserve_x == amt(1010)


def pool_states_reachable_from(root) -> list:
    """Every PoolState reachable from ``root``'s attributes and containers,
    not through a module, a class or a module's namespace."""
    skipped = {id(vars(module)) for module in list(sys.modules.values())}
    seen, found, todo = set(), [], [root]
    while todo:
        obj = todo.pop()
        if (id(obj) in seen or id(obj) in skipped
                or isinstance(obj, (type, types.ModuleType, str, bytes, int))):
            continue
        seen.add(id(obj))
        if isinstance(obj, market.PoolState):
            found.append(obj)
        todo.extend(gc.get_referents(obj))
    return found


def test_no_pool_state_is_kept_between_blocks():
    sim = Simulation(load_scenario(multichain_doc()))
    assert pool_states_reachable_from(sim) == []
    for _ in range(sim.scenario.blocks):
        sim.step()
        assert pool_states_reachable_from(sim) == [], sim.height
    # the walk does see one where a book keeps it
    sim.drains.pending.append(sim.pools.state("a-usdn"))
    assert len(pool_states_reachable_from(sim)) == 1


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
    assert trace.trace_hash() == "e30bc0a32306b408"


def test_every_undeclared_account_is_engine_owned():
    # the multi-chain market plus both dispute games: every account the run
    # makes is the treasury or one that load refuses to a scenario
    doc, disputes = multichain_doc(), dispute_doc()
    doc["tokens"].append({"id": "NEW", "chain": "home"})
    doc["accounts"] += disputes["accounts"]
    doc["agents"] += disputes["agents"]
    doc["rugproof"], doc["insurance"] = disputes["rugproof"], disputes["insurance"]
    _, trace = run_scenario(doc)
    declared = {entry["id"] for entry in doc["accounts"]}
    made = {event[key] for event in trace.events for key in ("account", "src", "dst")
            if event["type"] in ("mint", "transfer") and key in event} - declared
    assert {account for account in made if not account.startswith(ENGINE_ACCOUNT_PREFIXES)} \
        == {"treasury"}
    # the run opens every kind of engine-owned account
    assert {prefix for prefix in ENGINE_ACCOUNT_PREFIXES
            if any(account.startswith(prefix) for account in made)} \
        == set(ENGINE_ACCOUNT_PREFIXES)
    # rug-claim, insurance-claim, policy-expiry and bidder-liquidation timing
    assert trace.trace_hash() == "bb12b9bb83e810bb"


def test_each_chain_scans_the_mints_of_its_own_tokens():
    # the aux mint-spike scan reads these lists instead of filtering every
    # minted token by chain; R is not scanned, even where it is declared
    doc = multichain_doc()
    doc["tokens"].append({"id": "R", "chain": "beta"})
    sim = Simulation(load_scenario(doc))
    mint_tokens = {chain: view.mint_tokens for chain, view in sim._chain_views.items()}
    assert mint_tokens == {"alpha": ["RA", "anti:RA@alpha"], "beta": ["RB", "anti:RB@beta"],
                           "gamma": ["RC", "anti:RC@gamma"], "home": ["USDN"]}


def test_running_totals_are_exact_ints():
    # the cumulative mint and outflow totals the aux scan reads (USDN's
    # mints, creator alice's RUG outflows) are exact raw ints: a second mint
    # or send of the whole range passes MAX_RAW though no balance or supply
    # does, and only the next scan's input check refuses the sum, recorded
    # as a failed aux_scan on each chain that reads it
    sim = Simulation(load_scenario(minimal_doc(
        accounts=[{"id": "alice"}], agents=[{"kind": "creator", "account": "alice"}])))
    whole = FixedAmount(MAX_RAW)
    sim.ledger.mint("x", "USDN", whole)
    sim.ledger.burn("x", "USDN", whole)
    sim.ledger.mint("x", "USDN", QUANTUM)
    sim.ledger.mint("alice", "RUG", whole)
    sim.ledger.transfer("alice", "z", "RUG", whole)
    sim.ledger.transfer("z", "alice", "RUG", whole)
    sim.ledger.transfer("alice", "z", "RUG", QUANTUM)
    assert sim._unscanned_mints["USDN"] == sim._unscanned_outflows["alice", "RUG"] \
        == MAX_RAW + 1
    sim.step()
    sim.step()
    assert [(e["h"], e["chain"], e["op"], e["detail"]) for e in sim.trace.events
            if e["type"] == "failed"] == [
        (1, chain, "aux_scan", f"fixed-point overflow: raw={MAX_RAW + 1}")
        for chain in ("alpha", "home")]


def test_unscanned_sums_are_not_kept():
    # two retail agents pass 0.6 of the range of an unpriced home token
    # back and forth: no aux scan reads a retail wallet's outflows, so no
    # lifetime sum of them is kept to pass the range at block 3
    doc = reference_scenario(blocks=5)
    doc["tokens"].append({"id": "BIG", "chain": "home"})
    doc["accounts"][0]["balances"]["BIG"] = "600000000000000000"

    def send(block, to):
        return {"block": block, "op": "transfer", "token": "BIG", "to": to,
                "amount": "600000000000000000"}
    alice, bob = doc["agents"][:2]
    alice["script"] = [send(1, "bob"), send(3, "bob")]
    bob["script"] = [send(2, "alice")]
    sim, trace = run_scenario(doc)
    assert [e for e in trace.events if e["type"] == "failed"] == []
    assert sim.ledger.balance("bob", "BIG") == amt("600000000000000000")


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


def creator_sends_doc(*sends) -> dict:
    """minimal_doc over 3 blocks with one agent per (account, kind, RUG
    balance or None, recipient, amount): the account holds that balance and
    sends that amount of RUG to the recipient at block 1."""
    doc = minimal_doc(blocks=3)
    doc["accounts"] += [{"id": name, "balances": {"RUG": balance} if balance else {}}
                        for name, _, balance, _, _ in sends]
    doc["agents"] = [{"kind": kind, "account": name, "script": [
        {"block": 1, "op": "transfer", "token": "RUG", "to": to, "amount": amount}]}
        for name, kind, balance, to, amount in sends]
    return doc


def test_outflow_scan_sums_do_not_end_a_run(tmp_path):
    # a creator's balance before its largest outflow is an exact int, and so
    # is the running outflow total: mallory's 0.95 and 0.5 of the range
    # summed on the way to trudy's larger outflow end nothing; mallory's
    # 0.6 sent to z and back makes a balance before of 1.2 of the range,
    # which the scan's input check refuses at block 2, and the run goes on
    docs = [(creator_sends_doc(("mallory", "creator", "500000000000000000", "trudy",
                                "500000000000000000"),
                               ("trudy", "creator", "450000000000000000", "mallory",
                                "950000000000000000")), []),
            (creator_sends_doc(("mallory", "creator", "600000000000000000", "z",
                                "600000000000000000"),
                               ("z", "retail", None, "mallory", "600000000000000000")),
             [(2, "aux_scan", "fixed-point overflow: raw=1200000000000000000000000000")])]
    for index, (doc, failed) in enumerate(docs):
        path, out = tmp_path / f"doc-{index}.json", tmp_path / f"out-{index}"
        path.write_text(json.dumps(doc))
        assert main(["run", "--scenario", str(path), "--out", str(out)]) == 0
        assert main(["verify", "--trace", str(out)]) == 0
        lines = [json.loads(line) for line in (out / "events.jsonl").read_text().splitlines()]
        assert [(e["h"], e["op"], e["detail"]) for e in lines if e["type"] == "failed"] \
            == failed


def whale_pools_doc(pools: list, balances: dict, swaps: list) -> dict:
    """scam_scenario over 5 blocks, with unpriced alpha tokens A, Y1 and Y2,
    fee-free pools (id, token_y, reserve_x, reserve_y) of A against them,
    and a whale with these balances making these (pool, token_in, amount)
    swaps at block 1."""
    doc = scam_scenario()
    doc["blocks"] = 5
    doc["tokens"] += [{"id": token, "chain": "alpha"} for token in ("A", "Y1", "Y2")]
    doc["pools"] += [{"id": pid, "chain": "alpha", "token_x": "A", "token_y": y,
                      "reserve_x": rx, "reserve_y": ry, "fee_bps": 0}
                     for pid, y, rx, ry in pools]
    doc["accounts"].append({"id": "whale", "balances": balances})
    doc["agents"].append({"kind": "whale", "account": "whale", "script": [
        {"block": 1, "op": "swap", "pool": pid, "token_in": token, "amount": amount}
        for pid, token, amount in swaps]})
    return doc


def with_detection(doc: dict, **params) -> dict:
    doc["detection"] = params
    return doc


BIG = "550000000000000000"  # 0.55 of the fixed-point range, in units
# 1e17, 3e17, 4e17, 6e17 and 9e17 units
E17, E17_3, E17_4, E17_6, E17_9 = (f"{digit}{'0' * 17}" for digit in (1, 3, 4, 6, 9))


@pytest.mark.parametrize("doc,failed", [
    # each pool's liquid side loses 9e17 units: the change summed over Y1
    # and Y2 passes the range, but the scan reads only its sign
    (whale_pools_doc([("a-y1", "Y1", "1", E17_9), ("a-y2", "Y2", "1", E17_9)],
                     {"A": "2000000000"},
                     [("a-y1", "A", "1000000000"), ("a-y2", "A", "1000000000")]), []),
    # 6e17 A and then 6e17 Y1 into one pool: block 1's volume passes the
    # range, and block 2's scan refuses it
    (whale_pools_doc([("a-y1", "Y1", E17, E17)], {"A": E17_6, "Y1": E17_6},
                     [("a-y1", "A", E17_6), ("a-y1", "Y1", E17_6)]),
     [(2, "aux_scan", "RangeError")]),
    # block 1 adds 0.55 of the range to the y side of p1 and of p2 and takes
    # 0.2 out of p3's: the change summed over A, B and C passes the range
    (big_pools_doc(
        [{"block": 1, "op": "add_liquidity", "pool": pool, "dx": BIG, "dy": "auto"}
         for pool in ("p1", "p2")]
        + [{"block": 1, "op": "swap", "pool": "p3", "token_in": "X3", "amount": E17_4}],
        [("p1", "X1", "A", "1", "1"), ("p2", "X2", "B", "1", "1"),
         ("p3", "X3", "C", E17_4, E17_4)],
        {"X1": BIG, "A": BIG, "X2": BIG, "B": BIG, "X3": E17_4}), []),
    # a pool's two volumes, 0.55 of the range each, pass it together, but
    # neither block's change in them does (a spike factor of 1 keeps the
    # volume monitor's own product in range)
    (with_detection(big_pools_doc(
        [{"block": 1, "op": "swap", "pool": "p1", "token_in": "X1", "amount": BIG},
         {"block": 2, "op": "swap", "pool": "p1", "token_in": "A", "amount": BIG}],
        [("p1", "X1", "A", E17, E17)], {"X1": BIG, "A": BIG}), volume_spike_factor="1"), []),
], ids=["liquidity-over-two-tokens", "volume-over-the-range", "liquidity-over-three-pools",
        "volume-over-two-blocks"])
def test_cross_token_scan_sums_do_not_end_a_run(tmp_path, doc, failed):
    # a sum over several tokens has no bound in the amount range: a document
    # that loads runs to completion, and its trace verifies
    path, out = tmp_path / "doc.json", tmp_path / "out"
    path.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == 0
    assert main(["verify", "--trace", str(out)]) == 0
    lines = [json.loads(line) for line in (out / "events.jsonl").read_text().splitlines()]
    assert [(e["h"], e["op"], e["error"]) for e in lines if e["type"] == "failed"] == failed


def whale_swaps_doc(blocks: int, reserve: str, swaps: list) -> dict:
    """minimal_doc with a fee-free RUG/USDN pool p holding ``reserve`` of
    each, and a whale holding 4e17 of each that makes these (block,
    token_in, amount) swaps in it."""
    doc = lp_pool_doc(blocks, reserve, reserve)
    doc["accounts"].append({"id": "whale", "balances": {"RUG": E17_4, "USDN": E17_4}})
    doc["agents"] = [{"kind": "whale", "account": "whale", "script": [
        {"block": block, "op": "swap", "pool": "p", "token_in": token, "amount": amount}
        for block, token, amount in swaps]}]
    return doc


@pytest.mark.parametrize("doc", [
    # 3e17 a block at blocks 1-6: the volume window's sum passes the range
    # at block 6, its mean and 4 times its mean never matter to a block
    # whose volume is in range, and nothing trades after block 6
    whale_swaps_doc(12, f"5{'0' * 17}", [(block, "RUG" if block % 2 else "USDN", E17_3)
                                         for block in range(1, 7)]),
    # the pool's lifetime volume passes 1e18 units on both sides by block
    # 7, while it holds about 4.9e17 RUG
    whale_swaps_doc(7, E17_3, [(1, "RUG", E17_4), (2, "USDN", E17_3), (3, "RUG", E17_3),
                               (4, "USDN", E17_3), (5, "RUG", E17_3), (6, "USDN", "1"),
                               (7, "RUG", "1")]),
], ids=["window-sum-past-the-range", "lifetime-volume-past-the-range"])
def test_volume_sums_past_the_range_limit_no_scan_or_swap(tmp_path, doc):
    path, out = tmp_path / "doc.json", tmp_path / "out"
    path.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == 0
    assert main(["verify", "--trace", str(out)]) == 0
    lines = [json.loads(line) for line in (out / "events.jsonl").read_text().splitlines()]
    assert [e for e in lines if e["type"] == "failed"] == []
    swaps = [e for e in lines if e["type"] == "swap"]
    assert len(swaps) == len(doc["agents"][0]["script"])


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
