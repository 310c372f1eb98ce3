"""Scenario documents for the benchmark workloads, each a pure function of
the workload seed.

The benchmark hands rugsim only the JSON these functions return, written to
a file, so a workload's input never depends on the code under test.

``reference_doc`` is a frozen copy of ``builtin:reference`` with the block
count and seed substituted; ``storm_doc`` is a large adversarial market over
several satellite chains.  ``storm_doc`` is built so that no operation fails
on the code this benchmark was written against (the documented cap on the
failed share is 0): every script step is scheduled inside the window its
state machine accepts, and every account funds what its steps spend.  A
later change that makes operations fail shows in the benchmark's ``failed``
count.
"""

from __future__ import annotations

import random

REFERENCE_BLOCKS = 10_000
STORM_BLOCKS = 500
# blocks per sweep point: the sweep of the reference document is 20 short
# (200-block) runs; storm's is cut to 10 blocks, which leaves the per-point
# cost of load, materialize and trace writing at storm's size
SWEEP_BLOCKS = 200
STORM_SWEEP_BLOCKS = 10

# the cap on failed events / attempted operations that storm_doc promises
STORM_FAILED_SHARE_CAP = 0.0

SWEEP_PARAM = "vaults.0.penalty_lambda=1.1:3.0:0.1"


def reference_doc(seed: int, blocks: int = REFERENCE_BLOCKS) -> dict:
    """builtin:reference at ``blocks`` blocks with ``seed`` as its seed."""
    return {
        "seed": seed,
        "blocks": blocks,
        "bridge_delay_blocks": 2,
        "home_chain": "home",
        "numeraire": "USDN",
        "chains": ["alpha", "home"],
        "tokens": [
            {"id": "RUG", "chain": "alpha",
             "price_process": {"kind": "catastrophic", "p0": "2", "lam": "0.001"}},
        ],
        "accounts": [
            {"id": "alice", "balances": {"RUG": "4000", "USDN": "2000"}},
            {"id": "bob", "balances": {"RUG": "4000", "USDN": "2000"}},
            {"id": "lp-1", "balances": {"RUG": "20000", "USDN": "40000"}},
            {"id": "keeper", "balances": {"USDN": "5000"}},
            {"id": "sol-1", "balances": {}},
            {"id": "guard", "balances": {"USDN": "1000"}},
        ],
        "pools": [
            {"id": "rug-usdn", "chain": "alpha", "token_x": "RUG", "token_y": "USDN",
             "reserve_x": "10000", "reserve_y": "20000", "fee_bps": 30},
            {"id": "anti-usdn", "chain": "alpha", "token_x": "anti:RUG@alpha",
             "token_y": "USDN", "reserve_x": "1000", "reserve_y": "10",
             "fee_bps": 30},
        ],
        "vaults": [
            {"id": "v-rug", "chain": "alpha", "rugged_token": "RUG",
             "receipt_kind": "fungible", "omega": "0.01", "theta": "0.02",
             "penalty_k": "1", "penalty_lambda": "2", "gamma_base": "0.05",
             "delta_gamma": "0.01"},
        ],
        "tokenomics": {"initial_supply": "1000000", "s0": "1000000",
                       "epsilon_rate": "5", "beta_burn": "500", "kappa": "0.25"},
        "detection": {"drop_threshold": "0.2", "mint_spike_factor": "3",
                      "wallet_outflow_fraction": "0.5", "volume_spike_factor": "4"},
        "agents": [
            {"kind": "retail", "account": "alice",
             "script": [{"block": 1, "op": "deposit", "vault": "v-rug", "amount": "1000"},
                        {"block": 5, "op": "burn", "vault": "v-rug", "amount": "200"}],
             "noise": {"pool": "rug-usdn", "prob": "0.25", "max_size": "5"}},
            {"kind": "retail", "account": "bob",
             "script": [{"block": 2, "op": "deposit", "vault": "v-rug", "amount": "1500"},
                        {"block": 30, "op": "withdraw", "vault": "v-rug", "amount": "100"}],
             "noise": {"pool": "rug-usdn", "prob": "0.25", "max_size": "5"}},
            {"kind": "lp", "account": "lp-1",
             "script": [{"block": 10, "op": "add_liquidity", "pool": "rug-usdn",
                         "dx": "1000", "dy": "auto"}]},
            {"kind": "pegkeeper", "account": "keeper", "pool": "anti-usdn",
             "vault": "v-rug", "budget": "200"},
            {"kind": "solver", "account": "sol-1", "fee_bps": 30},
            {"kind": "detector", "account": "guard", "protects": [],
             "sandwich_budget": "0", "backrun_budget": "0", "backrun_cap": "0"},
        ],
        "intents": [],
    }


# -- storm -------------------------------------------------------------------

SATELLITES = ("sat-a", "sat-b", "sat-c")
PRICE_KINDS = ("scam", "catastrophic", "sentiment")
TOKENS = 6              # two per satellite chain, kinds cycling
OWNERS_PER_TOKEN = 8    # beneficial owners holding each token
SYBILS_PER_OWNER = 4    # accounts per owner, so 192 holders in all
NOISE_PER_TOKEN = 4
PROTECTED_PER_TOKEN = 2
INTENTS_PER_TOKEN = 2
PERP_TRADERS = 16
BONDED_ISSUANCES = 4
INSURERS = 4
POLICIES_PER_INSURER = 2
JURORS = 12
DETECTORS = 3

# dispute windows, in blocks; the schedules below are derived from them
CHALLENGE_BLOCKS = 20
TAU_CHALLENGE = 8
TAU_VOTE = 8
ESCALATION_WINDOW = 4


def _dec(rng: random.Random, lo: int, hi: int, places: int = 3) -> str:
    """A decimal string drawn uniformly from [lo, hi] at ``places`` digits."""
    scale = 10 ** places
    raw = rng.randint(lo * scale, hi * scale)
    whole, frac = divmod(raw, scale)
    return f"{whole}.{frac:0{places}d}" if frac else str(whole)


def storm_doc(seed: int, blocks: int = STORM_BLOCKS) -> dict:
    """A seed-generated adversarial market: six tokens of all three price
    kinds on three satellite chains, each with a pool, an anticoin pool, a
    vault and a peg keeper; sybil-split holders with sparse vault scripts;
    creator drains against detectors; intents of both actions; a perps
    market driven to liquidation; bonded issuances and insurance policies
    with claims, joins, disputes, votes and escalations.

    The structure (counts of chains, tokens, accounts and agents) is fixed;
    the seed moves prices, balances, amounts and schedule positions.
    """
    if blocks < 400:
        raise ValueError("storm needs at least 400 blocks for its schedules")
    rng = random.Random(seed)
    late = blocks - 60  # every schedule finishes before this height

    accounts: list[dict] = []
    agents: list[dict] = []
    pools: list[dict] = []
    vaults: list[dict] = []
    tokens: list[dict] = []
    intents: list[dict] = []

    def account(name: str, balances: dict, owner: str | None = None) -> str:
        entry = {"id": name, "balances": balances}
        if owner is not None:
            entry["owner"] = owner
        accounts.append(entry)
        return name

    def agent(kind: str, name: str, script: list | None = None, **params) -> None:
        entry = {"kind": kind, "account": name}
        if script:
            entry["script"] = sorted(script, key=lambda step: step["block"])
        entry.update(params)
        agents.append(entry)

    token_ids = []
    for t in range(TOKENS):
        token = f"TK{t}"
        chain = SATELLITES[t % len(SATELLITES)]
        kind = PRICE_KINDS[(t + t // len(SATELLITES)) % len(PRICE_KINDS)]
        cents = rng.randint(100, 400)
        process = {"kind": kind, "p0": f"{cents // 100}.{cents % 100:02d}"}
        if kind == "scam":
            process["tau_rug"] = str(rng.randint(blocks // 4, blocks // 2))
        elif kind == "catastrophic":
            process["lam"] = f"0.00{rng.randint(1, 3)}"
        else:
            process["alpha_sent"] = f"0.0{rng.randint(1, 5)}"
        tokens.append({"id": token, "chain": chain, "price_process": process})
        token_ids.append((token, chain, cents))

    for token, chain, cents in token_ids:
        pools.append({"id": f"{token}-usdn", "chain": chain, "token_x": token,
                      "token_y": "USDN", "reserve_x": "20000",
                      "reserve_y": str(200 * cents), "fee_bps": 30})
        pools.append({"id": f"anti-{token}", "chain": chain,
                      "token_x": f"anti:{token}@{chain}", "token_y": "USDN",
                      "reserve_x": "1000", "reserve_y": "10", "fee_bps": 30})
        vaults.append({"id": f"v-{token}", "chain": chain, "rugged_token": token,
                       "receipt_kind": ("fungible", "non_fungible", "refungible")[
                           len(vaults) % 3],
                       "omega": "0.01", "theta": "0.02", "penalty_k": "0.5",
                       "penalty_lambda": _dec(rng, 2, 3, 1), "gamma_base": "0.05",
                       "delta_gamma": "0.01"})
        keeper = account(f"keeper-{token}", {"USDN": "3000"})
        agent("pegkeeper", keeper, pool=f"anti-{token}", vault=f"v-{token}",
              budget=_dec(rng, 2, 5, 1))

    # sybil-split holders: deposit early, then burn and withdraw late, so
    # the owner-aggregated whale rate stays far below confiscation
    for token, chain, _ in token_ids:
        for o in range(OWNERS_PER_TOKEN):
            owner = f"own-{token}-{o}"
            for s in range(SYBILS_PER_OWNER):
                name = account(f"{owner}-{s}",
                               {token: str(rng.randint(200, 1000)), "USDN": "500"},
                               owner=owner)
                held = int(accounts[-1]["balances"][token])
                deposit = rng.randint(held // 4, held // 2)
                script = [{"block": rng.randint(2, blocks // 2), "op": "deposit",
                           "vault": f"v-{token}", "amount": str(deposit)}]
                if rng.random() < 0.5:
                    script.append({"block": rng.randint(blocks // 2 + 1, late),
                                   "op": "burn", "vault": f"v-{token}",
                                   "amount": str(rng.randint(1, deposit // 4))})
                if rng.random() < 0.5:
                    script.append({"block": rng.randint(blocks * 2 // 3, late),
                                   "op": "withdraw", "vault": f"v-{token}",
                                   "amount": str(rng.randint(1, deposit // 4))})
                agent("retail", name, script)

    # noise traders touch only their own balances and run no scripts
    for token, _, _ in token_ids:
        for n in range(NOISE_PER_TOKEN):
            name = account(f"noise-{token}-{n}", {token: "2000", "USDN": "4000"})
            agent("retail", name, noise={"pool": f"{token}-usdn",
                                         "prob": f"0.{rng.randint(10, 40)}",
                                         "max_size": str(rng.randint(2, 20))})

    # LPs add at the pool ratio, then withdraw a sliver of their share
    for token, _, cents in token_ids:
        name = account(f"lp-{token}", {token: "5000", "USDN": str(150 * cents)})
        add_at = rng.randint(2, blocks // 3)
        agent("lp", name, [
            {"block": add_at, "op": "add_liquidity", "pool": f"{token}-usdn",
             "dx": "1000", "dy": "auto"},
            {"block": rng.randint(add_at + 1, late), "op": "remove_liquidity",
             "pool": f"{token}-usdn", "share": "0.01"}])

    # creators drain twice per token; drains on a token never overlap, so
    # no protected account is front-run twice in one block
    protected: list[list[str]] = [[] for _ in range(DETECTORS)]
    drain_slots = list(range(40, late - 20, (late - 60) // (2 * TOKENS)))
    rng.shuffle(drain_slots)
    for t, (token, _, _) in enumerate(token_ids):
        supply = 30_000
        name = account(f"creator-{token}", {token: str(supply)})
        script = []
        for d in range(2):
            script.append({"block": drain_slots[2 * t + d], "op": "drain",
                           "pool": f"{token}-usdn",
                           "t_rug": str(rng.randint(supply // 5, supply * 2 // 5)),
                           "t_total": str(supply * 4), "window": rng.randint(2, 4)})
        agent("creator", name, script)
        for p in range(PROTECTED_PER_TOKEN):
            guarded = account(f"guarded-{token}-{p}",
                              {token: str(rng.randint(100, 800)), "USDN": "10"})
            protected[(t + p) % DETECTORS].append(guarded)

    for d in range(DETECTORS):
        balances = {token: "200" for token, _, _ in token_ids}
        balances["USDN"] = "50000"
        name = account(f"detector-{d}", balances)
        agent("detector", name, protects=protected[d],
              sandwich_budget=str(rng.randint(20, 80)),
              backrun_budget=str(rng.randint(50, 200)),
              backrun_cap=str(rng.randint(20, 60)))

    for s in range(2):
        name = account(f"solver-{s}", {})
        agent("solver", name, fee_bps=rng.randint(10, 60))

    # intent owners hold the token and nothing else acts on it
    actions = ("exit_to_numeraire", "swap_to_anticoin")
    for token, _, _ in token_ids:
        for i in range(INTENTS_PER_TOKEN):
            name = account(f"intent-{token}-{i}",
                           {token: str(rng.randint(100, 600)), "USDN": "10"})
            intents.append({"owner": name, "pool": f"{token}-usdn", "token": token,
                            "theta_price": f"0.{rng.randint(3, 8)}",
                            "theta_liquidity": f"0.{rng.randint(4, 8)}",
                            "action": actions[i % 2], "solver_fee_bps": 100})

    # perps on the first token's vault, settled through its anticoin pool;
    # the rugged token falls, so longs lose and are liquidated
    perp_token, _, _ = token_ids[0]
    liquidator = account("liquidator", {})
    agent("liquidator", liquidator)
    for p in range(PERP_TRADERS):
        name = account(f"trader-{p}", {perp_token: str(rng.randint(400, 800))})
        opened = rng.randint(5, blocks // 3)
        agent("retail", name, [
            {"block": opened - 2, "op": "deposit", "vault": f"v-{perp_token}",
             "amount": "300"},
            {"block": opened, "op": "open_position", "vault": f"v-{perp_token}",
             "collateral": str(rng.randint(50, 150)),
             "leverage": str(rng.randint(2, 8)),
             "direction": "long" if p % 3 else "short"}])
    perps = {"enabled_vaults": [f"v-{perp_token}"], "alpha_base": "0.001",
             "l_min": "100", "interval_blocks": 20, "amm_pool": f"anti-{perp_token}",
             "maintenance_fraction": "0.5", "liquidator_deadline_blocks": 3,
             "liquidator_fee_fraction": "0.05", "max_leverage": "10"}

    # dispute games on the home chain; jurors vote in both
    juror_names = []
    for j in range(JURORS):
        balances = {f"BOND{i}": "5000" for i in range(BONDED_ISSUANCES)}
        balances["USDN"] = "5000"
        juror_names.append(account(f"juror-{j}", balances))
    juror_scripts: dict[str, list] = {name: [] for name in juror_names}

    for i in range(BONDED_ISSUANCES):
        bond_token = f"BOND{i}"
        tokens.append({"id": bond_token, "chain": "home"})
        issuer = account(f"issuer-{i}", {bond_token: "100000"})
        agent("retail", issuer, [{"block": 1, "op": "issue_bonded", "token": bond_token,
                                  "total_issued": "1000000", "x": "0.05"}])
        claimant = account(f"rug-claimant-{i}", {bond_token: "30000"})
        claim_at = rng.randint(50, late - CHALLENGE_BLOCKS)
        agent("retail", claimant, [{"block": claim_at, "op": "rug_claim",
                                    "token": bond_token, "y": "0.02"}])
        for juror in rng.sample(juror_names, rng.randint(4, 8)):
            juror_scripts[juror].append({
                "block": rng.randint(claim_at + 1, claim_at + CHALLENGE_BLOCKS - 1),
                "op": "vote_rug", "token": bond_token,
                "deposit": str(rng.randint(10, 500)),
                "side": rng.choice(("rugging", "not_rugging"))})

    # policy and claim ids share one counter: policies are issued at block
    # 1 in agent order, then claims open at strictly increasing heights
    policies = INSURERS * POLICIES_PER_INSURER
    insured = [f"own-{token}-{o}-0" for token, _, _ in token_ids
               for o in range(OWNERS_PER_TOKEN)]
    insured = rng.sample(insured, policies)
    claim_span = TAU_CHALLENGE + 2 * TAU_VOTE + ESCALATION_WINDOW + 4
    claim_starts = sorted(rng.sample(range(20, late - claim_span), policies))
    counter = policies + 1
    for k in range(INSURERS):
        name = account(f"insurer-{k}", {"USDN": "50000"})
        script = []
        for q in range(POLICIES_PER_INSURER):
            script.append({"block": 1, "op": "issue_policy",
                           "insured": insured[k * POLICIES_PER_INSURER + q],
                           "insured_value": str(rng.randint(500, 2000)),
                           "x": "0.1", "duration": blocks})
        agent("retail", name, script)

    insurance_roles: dict[str, list] = {}
    for q, start in enumerate(claim_starts):
        policy = f"pol-{q + 1}"
        claim = f"icl-{counter}"
        counter += 1
        claimant = account(f"ins-claimant-{q}", {"USDN": "2000"})
        insurance_roles[claimant] = [{"block": start, "op": "submit_claim",
                                      "policy": policy, "y": "0.05",
                                      "loss": str(rng.randint(100, 500))}]
        style = q % 3  # 0: undisputed, 1: disputed, 2: disputed and escalated
        if style == 0:
            joiner = account(f"ins-joiner-{q}", {"USDN": "500"})
            insurance_roles[joiner] = [{"block": start + 1, "op": "join_claim",
                                        "claim": claim,
                                        "loss": str(rng.randint(50, 200)), "w": "0.02"}]
            continue
        challenger = account(f"ins-challenger-{q}", {"USDN": "2000"})
        insurance_roles[challenger] = [{"block": start + 2, "op": "dispute_claim",
                                        "claim": claim, "z": "0.03"}]
        vote_end = start + 2 + TAU_VOTE
        rounds = [(start + 2, vote_end)]
        if style == 2:
            escalate_at = vote_end + 1
            party = rng.choice((claimant, challenger))
            insurance_roles[party].append({"block": escalate_at, "op": "escalate",
                                           "claim": claim})
            rounds.append((escalate_at, escalate_at + TAU_VOTE))
        for first, end in rounds:
            for juror in rng.sample(juror_names, rng.randint(3, 6)):
                juror_scripts[juror].append({
                    "block": rng.randint(first + 1, end - 1),
                    "op": "vote_insurance", "claim": claim,
                    "deposit": str(rng.randint(5, 50)),
                    "side": rng.choice(("approve", "reject"))})
    for name, script in insurance_roles.items():
        agent("retail", name, script)
    for name in juror_names:
        agent("retail", name, juror_scripts[name])

    return {
        "seed": seed,
        "blocks": blocks,
        "bridge_delay_blocks": 3,
        "home_chain": "home",
        "numeraire": "USDN",
        "chains": [*SATELLITES, "home"],
        "tokens": tokens,
        "accounts": accounts,
        "pools": pools,
        "vaults": vaults,
        "tokenomics": {"initial_supply": "1000000", "s0": "1000000",
                       "epsilon_rate": "5", "beta_burn": "500", "kappa": "0.25"},
        "perps": perps,
        "detection": {"drop_threshold": "0.2", "mint_spike_factor": "3",
                      "wallet_outflow_fraction": "0.5", "volume_spike_factor": "4"},
        "rugproof": {"alpha_slash": "0.5", "gamma_slash": "0.5",
                     "claimant_share": "0.5", "z_min": "10",
                     "challenge_blocks": str(CHALLENGE_BLOCKS)},
        "insurance": {"alpha_comp": "0.2", "gamma_pen": "0.5",
                      "escalation_bond_multiplier": "2", "max_escalations": 1,
                      "tau_challenge": TAU_CHALLENGE, "tau_vote": TAU_VOTE,
                      "escalation_window": ESCALATION_WINDOW},
        "agents": agents,
        "intents": intents,
    }
