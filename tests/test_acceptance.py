"""Acceptance gate: one test per criterion, each at its stated tolerance
and runtime bound, printing a PASS line on success.

Every expected value is produced by an in-repo oracle: mpmath for
transcendentals, exact rational arithmetic for penalties and AMM algebra,
and the pinned golden margin (regenerated by `rugsim verify
--regen-golden`) for the end-to-end scam scenario.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""

import json
import time
from fractions import Fraction

import mpmath
import pytest

from rugsim.cli import GOLDEN_PATH
from rugsim.core import (
    FixedAmount,
    QUANTUM,
    SCALE,
    SeededRng,
    amt,
    quantize,
    safe_exp,
)
from rugsim.harness import run_scenario
from rugsim.ledger import Ledger
from rugsim.market import DustError, PoolState, pool_swap
from rugsim.perps import funding_rate, funding_rate_final
from rugsim.scenario import reference_scenario, scam_scenario
from rugsim.tokenomics import target_supply
from rugsim.vault import anticoin_value, cumulative_penalty, whale_penalty

mpmath.mp.dps = 50


class Timer:
    def __init__(self, bound_s: float):
        self.bound = bound_s

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        if exc[0] is None:
            assert self.elapsed < self.bound, \
                f"runtime {self.elapsed:.2f}s exceeds the {self.bound}s bound"


def report(number: int, name: str, timer: Timer):
    print(f"ACCEPTANCE {number} ({name}): PASS in {timer.elapsed:.2f}s")


def mk_vault(price=100):
    from conftest import rug_vault, vault_registry
    return vault_registry(Ledger()).create_vault(rug_vault(penalty_k="1"), amt(price))


def test_01_peg_curve():
    with Timer(1.0) as timer:
        vault = mk_vault(price=100)
        lo, hi = amt("0.01"), amt(200)
        span = hi - lo
        grid = [lo + span * i / 199 for i in range(200)]
        previous = None
        for cr in grid:
            value = anticoin_value(vault.price_at_creation, cr)
            if cr >= amt(100):
                assert value == amt(0), f"not clamped at {cr}"
            else:
                oracle = mpmath.log(mpmath.mpf(100) / (mpmath.mpf(cr.raw) / SCALE))
                oracle_fixed = FixedAmount(int(mpmath.nint(oracle * SCALE)))
                assert abs(value - oracle_fixed).raw <= 2, f"off oracle at {cr}"
                if previous is not None:
                    assert value < previous, f"not strictly decreasing at {cr}"
                previous = value
    report(1, "peg curve", timer)


def test_02_supply_curve():
    with Timer(1.0) as timer:
        s0 = amt(1)
        for m in range(1, 17):
            target = target_supply(safe_exp(amt(m)), s0)
            assert abs(target - quantize(Fraction(1, m))).raw <= 4, f"off at m={m}"
        grid = [FixedAmount(SCALE // 10 + i * SCALE) for i in range(1000)]
        values = [target_supply(x, amt(1000)) for x in grid]
        assert all(a >= b for a, b in zip(values, values[1:])), "not non-increasing"
    report(2, "supply curve", timer)


def test_03_whale_penalty():
    with Timer(1.0) as timer:
        k = amt(1)
        for lam_text in ("1.5", "2", "3"):
            lam = amt(lam_text)
            for h in range(1, 101):
                single = whale_penalty(amt(h), k, lam)
                assert whale_penalty(amt(2 * h), k, lam) > single * 2, \
                    f"not superlinear at lam={lam_text} H={h}"
                oracle = mpmath.mpf(h) ** mpmath.mpf(lam_text)
                relative = abs(float(single) - float(oracle)) / float(oracle)
                assert relative < 1e-6, f"oracle mismatch at lam={lam_text} H={h}"
    report(3, "whale penalty", timer)


def test_04_sybil_dominance():
    def oracle(h, n, gamma, dgamma):
        total = sum((Fraction(h) / n) * (Fraction(gamma) + Fraction(dgamma) * i)
                    for i in range(1, n + 1))
        return quantize(total)

    with Timer(5.0) as timer:
        for gamma in ("0.05", "0.1"):
            for dgamma in ("0.005", "0.01", "0.02"):
                for h in range(1, 101):
                    one_shot = amt(h) * amt(gamma)
                    previous = None
                    for n in range(1, 11):
                        value = cumulative_penalty(amt(h), n, amt(gamma), amt(dgamma))
                        assert value == oracle(h, n, gamma, dgamma)
                        assert value > one_shot, \
                            f"no dominance at H={h} n={n} {gamma}/{dgamma}"
                        if previous is not None:
                            assert value > previous, f"not increasing in n at H={h}"
                        previous = value
            for h in range(1, 101):
                flat = cumulative_penalty(amt(h), 7, amt(gamma), amt(0))
                assert abs(flat - amt(h) * amt(gamma)) <= QUANTUM
    report(4, "sybil dominance", timer)


def test_05_amm_invariant():
    with Timer(5.0) as timer:
        rng = SeededRng(123).stream("acceptance-amm")
        pool = PoolState("p", "A", "B", amt(250_000), amt(400_000), fee_bps=0)
        for _ in range(10_000):
            dx = FixedAmount(rng.randint(1, 500 * SCALE))
            token = "A" if rng.random() < 0.5 else "B"
            k_before = Fraction(pool.reserve_x.raw * pool.reserve_y.raw)
            try:
                _, pool = pool_swap(pool, token, dx)
            except DustError:
                continue
            r_in = pool.reserve_of(token).raw
            r_out = pool.reserve_of(pool.other(token)).raw
            exact_out = k_before / r_in
            assert 0 <= Fraction(r_out) - exact_out < 1, "k drifted beyond a quantum"
        fee_pool = PoolState("q", "A", "B", amt(250_000), amt(400_000), fee_bps=30)
        for _ in range(2_000):
            dx = FixedAmount(rng.randint(1, 500 * SCALE))
            token = "A" if rng.random() < 0.5 else "B"
            k_before = fee_pool.reserve_x.raw * fee_pool.reserve_y.raw
            try:
                _, fee_pool = pool_swap(fee_pool, token, dx)
            except DustError:
                continue
            assert fee_pool.reserve_x.raw * fee_pool.reserve_y.raw >= k_before
    report(5, "AMM invariant", timer)


def test_06_funding_bounds():
    from rugsim.perps import Direction, PerpBook
    from conftest import fund, loaded

    with Timer(5.0) as timer:
        rng = SeededRng(77).stream("acceptance-funding")
        perps = loaded("perps", {"alpha_base": "0.01", "l_min": "100", "interval_blocks": 1})
        alpha, l_min = perps["alpha_base"], perps["l_min"]
        for _ in range(500):
            n_long = rng.randint(0, 30)
            n_short = rng.randint(0, 30)
            if n_long + n_short == 0:
                continue
            rate = funding_rate(n_long, n_short, alpha)
            assert amt(0) <= rate <= alpha
            l_pool = FixedAmount(rng.randint(l_min.raw, 10**6 * SCALE))
            assert funding_rate_final(rate, l_min, l_pool) <= rate * 2
        # randomized books: transfers are zero-sum, exactly
        for case in range(60):
            ledger = Ledger()
            book = PerpBook("v", "CA", perps)
            for i in range(rng.randint(2, 12)):
                user = fund(ledger, f"u{case}-{i}", "CA", 1000)
                direction = Direction.LONG if rng.random() < 0.5 else Direction.SHORT
                book.open_position(ledger, user, amt(rng.randint(1, 500)),
                                   amt(rng.randint(1, 5)), direction, amt(1),
                                   amt(1))
            escrow_before = ledger.balance(book.escrow_account, "CA")
            collateral_before = sum(p.collateral_ca.raw for p in book.positions.values())
            book.apply_funding(ledger, FixedAmount(rng.randint(l_min.raw, 10**14)),
                               "treasury")
            collateral_after = sum(p.collateral_ca.raw for p in book.positions.values())
            treasury = ledger.balance("treasury", "CA")
            assert collateral_after + treasury.raw == collateral_before
            assert ledger.balance(book.escrow_account, "CA") + treasury == escrow_before
    report(6, "funding bounds", timer)


def _fuzz_rugproof(cases: int) -> None:
    from rugsim.rugproof import RugproofBook, SIDE_NOT_RUGGING, SIDE_RUGGING
    from conftest import Recorder, loaded, step

    rng = SeededRng(2024).stream("fuzz-rugproof")
    for case in range(cases):
        ledger = Ledger()
        params = loaded("rugproof", {
            "alpha_slash": str(quantize(Fraction(rng.randint(0, 100), 100))),
            "gamma_slash": str(quantize(Fraction(rng.randint(0, 100), 100))),
            "claimant_share": str(quantize(Fraction(rng.randint(0, 100), 100))),
            "challenge_blocks": 5})
        rng.random()  # a draw each case has always made, so the same cases run
        book = RugproofBook(params, ledger, "treasury", Recorder())
        issuer = "issuer"
        ledger.mint("issuer", "T", amt(10**6))
        total = amt(rng.randint(1000, 100_000))
        book.issue_bonded(issuer, step(
            "issue_bonded", token="T", total_issued=str(total),
            x=str(quantize(Fraction(rng.randint(1, 20), 100)))), 0)
        issuance = book.issuances["iss-1"]
        claimant = "claimant"
        ledger.mint("claimant", "T", amt(10**5))
        book.rug_claim(claimant, step(
            "rug_claim", token="T", y=str(quantize(Fraction(rng.randint(1, 10), 100)))), 0)
        claim = book.claims["claim-2"]
        for v in range(rng.randint(0, 6)):
            voter = f"v{v}"
            ledger.mint(f"v{v}", "T", amt(1000))
            side = SIDE_RUGGING if rng.random() < 0.5 else SIDE_NOT_RUGGING
            book.vote_rug(voter, step("vote_rug", token="T",
                                      deposit=str(rng.randint(1, 500)), side=side),
                          rng.randint(0, 4))
        book.resolve_claim(claim, 5)
        kind, claim_id, outcome, slashed = book.record[-1]
        assert (kind, claim_id) == ("rug_claim_resolved", "claim-2")
        # slash never exceeds the corresponding bond
        if outcome == "upheld_rug":
            assert slashed <= issuance.bond
        else:
            assert slashed <= claim.claim_bond
        # escrow conservation, exactly
        claim_escrow = claim.escrow
        assert claim_escrow.total_in == claim_escrow.total_out
        assert ledger.balance(claim_escrow.account, "T").raw == 0
        if outcome == "upheld_rug":
            iss_escrow = issuance.escrow
            assert iss_escrow.total_in == iss_escrow.total_out
        ledger.check_conservation()


def _fuzz_insurance(cases: int) -> None:
    from rugsim.insurance import InsuranceBook, SIDE_APPROVE, SIDE_REJECT
    from conftest import Recorder, loaded, step

    rng = SeededRng(2025).stream("fuzz-insurance")
    for case in range(cases):
        ledger = Ledger()
        params = loaded("insurance", {
            "alpha_comp": str(quantize(Fraction(rng.randint(0, 100), 100))),
            "gamma_pen": str(quantize(Fraction(rng.randint(0, 100), 100))),
            "tau_challenge": 4, "tau_vote": 4, "escalation_window": 3,
            "max_escalations": rng.randint(0, 2)})
        alpha = params["alpha_comp"]
        book = InsuranceBook(params, "USD", ledger, "treasury", Recorder())
        insurer = "insurer"
        ledger.mint("insurer", "USD", amt(10**6))
        insured = "insured"
        ledger.mint("insured", "USD", amt(10**4))
        i_v = amt(rng.randint(100, 5000))
        book.issue_policy(insurer, step(
            "issue_policy", insured=insured, insured_value=str(i_v),
            x=str(quantize(Fraction(rng.randint(1, 20), 100))), duration=60), 0)
        policy = book.policies["pol-1"]
        book.submit_claim(insured, step(
            "submit_claim", policy="pol-1",
            y=str(quantize(Fraction(rng.randint(1, 10), 100)))), 1)
        claim = book.claims["icl-2"]
        for j in range(rng.randint(0, 3)):
            account = f"j{j}"
            ledger.mint(f"j{j}", "USD", amt(10**4))
            book.join_claim(account, step(
                "join_claim", claim="icl-2", loss=str(rng.randint(10, 500)),
                w=str(quantize(Fraction(rng.randint(1, 5), 100)))), 2)
        joiners = claim.joiners
        disputed = rng.random() < 0.6
        if disputed:
            challenger = "challenger"
            ledger.mint("challenger", "USD", amt(10**5))
            book.dispute_claim(challenger, step(
                "dispute_claim", claim="icl-2",
                z=str(quantize(Fraction(rng.randint(1, 8), 100)))), 3)
            for v in range(rng.randint(0, 5)):
                voter = f"w{v}"
                ledger.mint(f"w{v}", "USD", amt(1000))
                side = SIDE_APPROVE if rng.random() < 0.5 else SIDE_REJECT
                book.vote_insurance(voter, step(
                    "vote_insurance", claim="icl-2", deposit=str(rng.randint(1, 300)),
                    side=side), rng.randint(3, 6))
        claim_side_before = {
            "insured": ledger.balance("insured", "USD"),
            **{f"j{j}": ledger.balance(f"j{j}", "USD")
               for j in range(len(joiners))}}
        height = 4
        escalations = rng.randint(0, 2)
        resolved = False
        while not resolved and height < 100:
            book.step_deadlines(claim, height)
            resolved = claim.phase.value in ("approved", "rejected")
            if (not resolved and claim.phase.value == "pending_final"
                    and escalations > 0 and disputed):
                escalations -= 1
                party = claim.claimant if rng.random() < 0.5 \
                    else claim.dispute.challenger
                try:
                    book.escalate(party, step("escalate", claim="icl-2"), height)
                except Exception:
                    pass
            height += 1
        assert resolved, "claim did not terminate"
        kind, claim_id, outcome, slashed = book.record[-1]
        assert (kind, claim_id, outcome) == ("insurance_resolved", "icl-2",
                                             claim.phase.value)

        bonds_total = claim.claim_bond + sum((j.bond for j in joiners), start=amt(0))
        if outcome == "rejected":
            # pooled penalty never exceeds gamma * (claim bond + join bonds)
            assert slashed <= params["gamma_pen"] * bonds_total + QUANTUM
        if outcome == "approved" and not disputed:
            # the claim side nets exactly I_v + alpha * insurer bond, on top
            # of its own returned bonds
            gained = sum(((ledger.balance(k, "USD") - v)
                          for k, v in claim_side_before.items()), start=amt(0))
            assert gained == i_v + alpha * policy.insurer_bond + bonds_total
        escrow = claim.escrow
        assert escrow.total_in == escrow.total_out
        assert ledger.balance(escrow.account, "USD").raw == 0
        ledger.check_conservation()


def test_07_dispute_game_conservation():
    with Timer(10.0) as timer:
        _fuzz_rugproof(1000)
        _fuzz_insurance(1000)
    report(7, "dispute-game conservation", timer)


def test_08_end_to_end_scam_protection():
    with Timer(10.0) as timer:
        sim, trace = run_scenario(scam_scenario())
        protected = [sim.mark_to_market("intent-user"),
                     sim.mark_to_market("frontrun-user")]
        unprotected = sim.mark_to_market("unprotected")
        for value in protected:
            assert value > unprotected, "protection did not pay"
        margin = min(protected) - unprotected
        golden = json.loads(GOLDEN_PATH.read_text())
        assert str(margin) == golden["margin"], \
            f"margin {margin} != pinned {golden['margin']} " \
            f"(regenerate with `rugsim verify --regen-golden`)"
        assert trace.trace_hash() == golden["trace_hash"]
    report(8, "end-to-end scam protection", timer)


def test_09_determinism_and_speed():
    with Timer(15.0) as timer:
        doc = reference_scenario(blocks=200)
        assert run_scenario(doc)[1].trace_hash() == run_scenario(doc)[1].trace_hash()
        start = time.monotonic()
        run_scenario(reference_scenario(blocks=10_000))
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"10k-block reference run took {elapsed:.2f}s"
    report(9, "determinism and speed", timer)


def test_10_tokenomics_identity_and_scarcity():
    with Timer(10.0) as timer:
        # identity: per-block delta of R equals emission minus burned, exactly
        doc = reference_scenario(blocks=120)
        sim, trace = run_scenario(doc)
        previous = amt(doc["tokenomics"]["initial_supply"])
        for row in trace.telemetry:
            current = amt(row["current_supply"])
            assert current == previous + amt(row["emission"]) - amt(row["burned"])
            previous = current

        # scarcity: the paired run that burns anticoins (instead of
        # withdrawing) retains more vaulted value and ends no larger.
        # The burn cap is lifted so the controller can actually act on the
        # vaulted-value difference (a saturated cap would mask it).
        base = reference_scenario(blocks=120)
        base["tokenomics"]["beta_burn"] = "1000000"
        burny = json.loads(json.dumps(base))
        for agent in burny["agents"]:
            if agent["account"] == "bob":
                agent["script"][1] = {"block": 30, "op": "burn",
                                      "vault": "v-rug", "amount": "100"}
        sim_base, _ = run_scenario(base)
        sim_burn, _ = run_scenario(burny)
        burned_base = sim_base.vaults.vault("v-rug").total_burned
        burned_more = sim_burn.vaults.vault("v-rug").total_burned
        assert burned_more > burned_base
        assert sim_burn.ledger.total_supply("R") <= sim_base.ledger.total_supply("R")
    report(10, "tokenomics identity and scarcity", timer)
