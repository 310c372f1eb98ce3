"""The pinned-output corpus: named runs whose outputs must stay byte-identical.

Each entry of ``tests/data/pinned_hashes.json`` maps a run's name to its
trace hash (``hash.txt``), or, for a sweep, to the SHA-256 of its
``summary.csv``, which holds every point's trace hash. A run also pins the
SHA-256 of its ``state.json`` and ``telemetry.csv``, under its name followed
by the file's (see ``OUTPUT_FILES``). ``rugsim schema``, which prints every
field's kind and default, is pinned by the SHA-256 of its stdout, and each
``rugsim figures --which`` CSV by its own. The runs go through
the command line, as a user would make them; the two benchmark documents
come from ``perfbench/workloads.py``, which is read and not edited.

    python tests/pinned.py            # run the corpus, exit 1 on any mismatch
    python tests/pinned.py --repin    # rewrite the file, print old -> new

Only the standard library is needed, so any interpreter can run the check;
``tests/test_corpus.py`` runs the same corpus under pytest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT / "src", ROOT / "perfbench"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import workloads  # noqa: E402  (perfbench/workloads.py)
from rugsim.cli import main  # noqa: E402
from rugsim.scenario import scam_scenario  # noqa: E402

PINNED_FILE = Path(__file__).resolve().parent / "data" / "pinned_hashes.json"


def failed_pool_ops_doc() -> dict:
    """builtin:scam with a failure on every pool path: a swap of more RUG
    than its account holds, an add at the wrong ratio and a removal with no
    LP tokens; the creator gives away what the drain sells, so the drain
    fails and the sandwich's post leg and the back-run fail after it."""
    doc = scam_scenario()
    for account in doc["accounts"]:
        if account["id"] == "guard":
            account["balances"] = {"RUG": "50", "USDN": "500"}
    doc["agents"][0]["script"].append({"block": 4, "op": "transfer", "to": "unprotected",
                                       "token": "RUG", "amount": "800"})
    doc["agents"][2]["sandwich_budget"] = "50"
    doc["agents"].append({"kind": "retail", "account": "unprotected", "script": [
        {"block": 2, "op": "swap", "pool": "rug-usdn", "token_in": "RUG", "amount": "1000"},
        {"block": 2, "op": "add_liquidity", "pool": "rug-usdn", "dx": "10", "dy": "50"},
        {"block": 3, "op": "remove_liquidity", "pool": "rug-usdn", "share": "0.5"}]})
    return doc


def perps_intents_doc() -> dict:
    """builtin:scam cut to 10 blocks, with perps on two vaults and three
    intents. Five positions open on v-rug, one more fails on its leverage,
    and one opens on v-dud (a second token, DUD). The first funding round
    leaves dust. At block 3 the 5x long is flagged and wiped out at once
    (auto_liquidated) and the 2x long is flagged, which the liquidator takes
    at block 4. The v-dud position is liquidated too, but the AMM pool
    trades v-rug's anticoin only, so its settlement swap fails. The scam's
    exit intent and a swap_to_anticoin intent each pay the solver a fee,
    and a scripted intent whose owner holds nothing is skipped."""
    doc = scam_scenario()
    doc["blocks"] = 10
    doc["tokens"].append({"id": "DUD", "chain": "alpha",
                          "price_process": {"kind": "catastrophic", "p0": "1", "lam": "0.2"}})
    doc["vaults"].append({**doc["vaults"][0], "id": "v-dud", "rugged_token": "DUD"})
    doc["pools"].append({"id": "anti-usdn", "chain": "alpha", "token_x": "anti:RUG@alpha",
                         "token_y": "USDN", "reserve_x": "1000", "reserve_y": "1000",
                         "fee_bps": 0})
    doc["perps"] = {"enabled_vaults": ["v-rug", "v-dud"], "alpha_base": "0.01",
                    "l_min": "100", "interval_blocks": 2, "amm_pool": "anti-usdn",
                    "maintenance_fraction": "0.5", "liquidator_deadline_blocks": 2}
    doc["accounts"] += [{"id": "saver", "balances": {"RUG": "60"}},
                        {"id": "empty", "balances": {}},
                        {"id": "trader", "balances": {"RUG": "900", "DUD": "900"}},
                        {"id": "liq-1", "balances": {}}]
    positions = [("v-rug", "100", "2", "long"), ("v-rug", "50", "5", "long"),
                 ("v-rug", "70", "1", "short"), ("v-rug", "110", "3", "short"),
                 ("v-rug", "30", "1", "short"), ("v-rug", "10", "11", "long"),
                 ("v-dud", "100", "4", "long")]
    doc["agents"] += [
        {"kind": "retail", "account": "trader", "script": [
            {"block": 1, "op": "deposit", "vault": "v-rug", "amount": "700"},
            {"block": 1, "op": "deposit", "vault": "v-dud", "amount": "700"},
            *({"block": 2, "op": "open_position", "vault": vault, "collateral": collateral,
               "leverage": leverage, "direction": direction}
              for vault, collateral, leverage, direction in positions)]},
        {"kind": "retail", "account": "empty", "script": [
            {"block": 1, "op": "register_intent", "pool": "rug-usdn", "token": "RUG",
             "action": "exit_to_numeraire", "theta_price": "0.5",
             "theta_liquidity": "0.3"}]},
        {"kind": "liquidator", "account": "liq-1"}]
    doc["intents"].append({"owner": "saver", "pool": "rug-usdn", "token": "RUG",
                           "theta_price": "0.6", "theta_liquidity": "0.3",
                           "action": "swap_to_anticoin", "vault": "v-rug",
                           "solver_fee_bps": 30})
    return doc


# name -> (the document: a builtin name, a function building one or None,
#          the extra command-line arguments, the command)
CORPUS: dict[str, tuple[str | Callable[[], dict] | None, list[str], str]] = {
    "builtin:reference --blocks 10000": ("builtin:reference", ["--blocks", "10000"], "run"),
    "builtin:scam": ("builtin:scam", [], "run"),
    "reference_doc(9001, 2000)": (lambda: workloads.reference_doc(9001, 2000), [], "run"),
    "storm_doc(777)": (lambda: workloads.storm_doc(777), [], "run"),
    "storm_doc(31337)": (lambda: workloads.storm_doc(31337), [], "run"),
    "failed_pool_ops_doc()": (failed_pool_ops_doc, [], "run"),
    "perps_intents_doc()": (perps_intents_doc, [], "run"),
    "builtin:reference lambda sweep (summary.csv sha256)": (
        "builtin:reference", ["--param", workloads.SWEEP_PARAM], "sweep"),
    # points share the parsed lists their path leaves alone: this one
    # re-parses `pools` and reuses `agents` and `accounts`
    "storm_doc(777) pools.0.fee_bps sweep (summary.csv sha256)": (
        lambda: workloads.storm_doc(777),
        ["--param", "pools.0.fee_bps=10:50:10", "--blocks", "10"], "sweep"),
    "rugsim schema (stdout sha256)": (None, [], "schema"),
    **{f"rugsim figures --which {which} (csv sha256)": (None, ["--which", which], "figures")
       for which in ("peg", "supply", "whale", "cumulative")},
}


# the files of a run, beside its trace hash, pinned by their SHA-256
OUTPUT_FILES = ("state.json", "telemetry.csv")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_entry(name: str, work: Path) -> tuple[dict[str, str], Path]:
    """Run one corpus entry in a directory of its own under ``work``;
    returns its pins (pin name -> digest) and that directory. Raises
    RuntimeError if the command exits non-zero."""
    source, extra, command = CORPUS[name]
    out = work / f"run-{list(CORPUS).index(name)}"
    if callable(source):
        spec = out.with_suffix(".json")
        spec.write_text(json.dumps(source()), encoding="utf-8")
    else:
        spec = source
    argv = [command, *extra] if command == "schema" else [command, "--out", str(out), *extra]
    if spec is not None:
        argv[1:1] = ["--scenario", str(spec)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"{name}: `rugsim {' '.join(argv)}` exited {code}")
    if command == "schema":
        return {name: hashlib.sha256(stdout.getvalue().encode("utf-8")).hexdigest()}, out
    if command == "figures":
        return {name: sha256(out / f"figure_{extra[1]}.csv")}, out
    if command == "sweep":
        return {name: sha256(out / "summary.csv")}, out
    digests = {name: (out / "hash.txt").read_text(encoding="utf-8").strip()}
    digests.update((f"{name} {file} sha256", sha256(out / file)) for file in OUTPUT_FILES)
    return digests, out


def run_corpus(work: Path) -> dict[str, tuple[dict[str, str], Path]]:
    """name -> (pins, output directory) of every corpus entry, run in turn."""
    return {name: run_entry(name, work) for name in CORPUS}


def all_pins(runs: dict[str, tuple[dict[str, str], Path]]) -> dict[str, str]:
    """Every pin of ``run_corpus``'s runs in one mapping."""
    return {key: digest for digests, _ in runs.values() for key, digest in digests.items()}


def load_pins() -> dict[str, str]:
    return json.loads(PINNED_FILE.read_text(encoding="utf-8"))


def changes(pins: dict[str, str], digests: dict[str, str]) -> list[tuple[str, str, str]]:
    """(name, pin, digest) of every entry whose digest differs from its pin;
    an entry pinned but not run, or run but not pinned, shows None."""
    return [(name, pins.get(name), digests.get(name))
            for name in sorted(set(pins) | set(digests))
            if pins.get(name) != digests.get(name)]


def main_pinned(argv: list[str]) -> int:
    repin = argv == ["--repin"]
    if argv and not repin:
        print("usage: python tests/pinned.py [--repin]", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as work:
        digests = all_pins(run_corpus(Path(work)))
    pins = load_pins() if PINNED_FILE.exists() else {}
    changed = changes(pins, digests)
    if repin:
        PINNED_FILE.parent.mkdir(parents=True, exist_ok=True)
        PINNED_FILE.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
        for name, old, new in changed:
            print(f"{name}: {old} -> {new}")
        print(f"{len(changed)} of {len(digests)} entries changed; wrote {PINNED_FILE}")
        return 0
    for name, old, new in changed:
        print(f"{name}: pinned {old}, got {new}")
    print(f"python {sys.version.split()[0]}: "
          f"{len(digests) - len(changed)} of {len(digests)} pinned outputs match")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main_pinned(sys.argv[1:]))
