"""Command-line front end: run scenarios, sweep parameters, verify traces,
and export figure data.

Exit codes are stable API: 0 ok, 2 input error, 3 strict-mode failure,
4 verification failure.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from .core import FixedAmount, RugsimError, amt, quantize, safe_exp
from .harness import Simulation, run_scenario
from .scenario import (
    SCENARIO_SCHEMA,
    ScenarioError,
    load_scenario,
    reference_scenario,
    scam_scenario,
)
from .trace import verify_trace
from .vault import Vault, anticoin_value, cumulative_penalty, whale_penalty
from .tokenomics import target_supply

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_STRICT = 3
EXIT_VERIFY = 4

GOLDEN_PATH = Path(__file__).parent / "data" / "scam_golden.json"

BUILTINS = {
    "builtin:reference": reference_scenario,
    "builtin:scam": scam_scenario,
}


def _default_out() -> str:
    return os.environ.get("RUGSIM_OUT", "out")


def _load_doc(spec: str) -> dict:
    if spec in BUILTINS:
        return BUILTINS[spec]()
    with open(spec, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _fail(message: str, code: int) -> int:
    print(message, file=sys.stderr)
    return code


def cmd_run(args: argparse.Namespace) -> int:
    try:
        doc = _load_doc(args.scenario)
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(f"cannot load scenario: {exc}", EXIT_INPUT)
    try:
        sim, trace = run_scenario(doc, blocks=args.blocks, seed=args.seed)
    except (ScenarioError, RugsimError) as exc:
        return _fail(f"scenario error: {exc}", EXIT_INPUT)
    out_dir = args.out
    trace.write(out_dir)
    print(f"blocks={sim.height} events={len(trace.events)} "
          f"failed={trace.failed_events} hash={trace.trace_hash()} out={out_dir}")
    if args.strict and trace.failed_events > 0:
        return _fail(f"{trace.failed_events} failed events under --strict",
                     EXIT_STRICT)
    return EXIT_OK


# the most points one sweep may run; a fixed limit, so that a tiny step is
# refused before any value is built
MAX_SWEEP_POINTS = 10_000


def _parse_range(spec: str) -> tuple[str, list[Fraction]]:
    """KEY and the points of the inclusive range A:B:STEP. Refused: more
    than MAX_SWEEP_POINTS points, a point past the amount range, and two
    points that quantize to the same amount (they would share a run
    directory and a summary row)."""
    if "=" not in spec:
        raise ValueError("expected KEY=A:B:STEP")
    key, _, rest = spec.partition("=")
    parts = rest.split(":")
    if len(parts) != 3:
        raise ValueError("expected KEY=A:B:STEP")
    try:
        start, stop, step = (Fraction(p) for p in parts)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"non-numeric range {rest!r}") from None
    if step <= 0 or stop < start:
        raise ValueError(f"empty range {rest!r}")
    count = (stop - start) // step + 1
    if count > MAX_SWEEP_POINTS:
        raise ValueError(f"{rest!r} has {count} points, more than {MAX_SWEEP_POINTS}")
    values = [start + i * step for i in range(count)]
    try:
        texts = [str(quantize(value)) for value in values]
    except RugsimError as exc:
        raise ValueError(f"{rest!r}: {exc}") from None
    for text, following in zip(texts, texts[1:]):
        if text == following:
            raise ValueError(f"two points of {rest!r} quantize to {text}")
    return key, values


def _set_path(doc: dict, dotted: str, value: Fraction) -> None:
    """Write a sweep point into the field at ``dotted``: an int into a field
    that holds an int, else the quantized decimal text. A bool field is not
    numeric."""
    node = doc
    parts = dotted.split(".")
    for part in parts[:-1]:
        if isinstance(node, list):
            node = node[int(part)]
        elif part in node:
            node = node[part]
        else:
            raise KeyError(dotted)
    leaf = parts[-1]
    if isinstance(node, list):
        leaf = int(leaf)
        current = node[leaf]
    elif leaf in node:
        current = node[leaf]
    else:
        raise TypeError(f"{dotted} is not a numeric field")
    if isinstance(current, bool) or not isinstance(current, (str, int)):
        raise TypeError(f"{dotted} is not a numeric field")
    if isinstance(current, str):
        node[leaf] = str(quantize(value))
    elif value.denominator == 1:
        node[leaf] = int(value)
    else:
        raise ValueError(f"{dotted} holds an integer, got {str(quantize(value))}")


def _copy_path(doc: dict, dotted: str) -> dict:
    """A copy of ``doc`` that shares every object but those on the path
    ``dotted``, so that a point written there leaves ``doc`` as it was. A
    path that leaves the document is left for ``_set_path`` to refuse."""
    top = node = copy.copy(doc)
    for part in dotted.split(".")[:-1]:
        try:
            key = int(part) if isinstance(node, list) else part
            node[key] = child = copy.copy(node[key])
        except (KeyError, IndexError, TypeError, ValueError):
            break
        node = child
    return top


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        key, values = _parse_range(args.param)
    except ValueError as exc:
        return _fail(f"bad --param: {exc}", EXIT_INPUT)
    try:
        base = _load_doc(args.scenario)
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(f"cannot load scenario: {exc}", EXIT_INPUT)

    # every point is written into its own copy and loaded before any run,
    # so that a bad key, value or point is refused before anything is written
    points = []
    for value in values:
        text = str(quantize(value))
        doc = _copy_path(base, key)
        try:
            _set_path(doc, key, value)
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            return _fail(f"bad --param key {key!r}: {exc}", EXIT_INPUT)
        try:
            points.append((text, load_scenario(doc)))
        except ScenarioError as exc:
            return _fail(f"scenario error at {key}={text}: {exc}", EXIT_INPUT)

    rows = []
    for text, scenario in points:
        try:
            sim = Simulation(scenario)
            trace = sim.run(args.blocks)
        except RugsimError as exc:
            return _fail(f"scenario error at {key}={text}: {exc}", EXIT_INPUT)
        sub_dir = os.path.join(args.out, f"{key}={text}")
        trace.write(sub_dir)
        rows.append({
            "param": key, "value": text,
            "trace_hash": trace.trace_hash(),
            "current_supply": str(sim.supply.current_supply),
            "total_penalties": str(sim.total_penalties),
            "failed_events": trace.failed_events,
        })
        print(f"{key}={text}: hash={rows[-1]['trace_hash']} "
              f"penalties={rows[-1]['total_penalties']}")

    os.makedirs(args.out, exist_ok=True)
    summary = os.path.join(args.out, "summary.csv")
    with open(summary, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    print(f"summary: {summary}")
    return EXIT_OK


def _figure_vault() -> Vault:
    # a throwaway vault record purely to evaluate the peg at C_r(0) = 100
    from .vault import ReceiptKind
    return Vault(
        vault_id="fig", chain="fig", rugged_token="CR", anticoin="CA",
        receipt_kind=ReceiptKind.FUNGIBLE, price_at_creation=amt(100),
        omega=amt("0.01"), theta=amt("0.02"), penalty_k=amt(1),
        penalty_lambda=amt(2), gamma_base=amt("0.1"), delta_gamma=amt("0.01"))


def peg_grid(points: int = 200) -> list[FixedAmount]:
    """Evenly spaced C_r grid over [0.01, 200]."""
    lo, hi = amt("0.01"), amt(200)
    span = hi - lo
    return [lo + span * i / (points - 1) for i in range(points)]


def figure_rows(which: str) -> tuple[list[str], list[list[str]]]:
    if which == "peg":
        vault = _figure_vault()
        grid = peg_grid()
        rows = [["rising", str(cr), str(anticoin_value(vault, cr))] for cr in grid]
        rows += [["falling", str(cr), str(anticoin_value(vault, cr))]
                 for cr in reversed(grid)]
        return ["series", "cr", "ca"], rows
    if which == "supply":
        s0 = amt(1000)
        rows = []
        for j in range(200):
            total = safe_exp(amt(16) * j / 199)
            rows.append([str(total), str(target_supply(total, s0))])
        return ["sum_cr", "target_supply"], rows
    if which == "whale":
        rows = []
        for lam in ("1.5", "2", "3"):
            for h in range(1, 101):
                rows.append([lam, str(h), str(whale_penalty(amt(h), amt(1), amt(lam)))])
        return ["lambda", "holdings", "penalty"], rows
    if which == "cumulative":
        rows = []
        for n in (1, 4, 10):
            for h in range(1, 101):
                rows.append([str(n), str(h),
                             str(cumulative_penalty(amt(h), n, amt("0.1"), amt("0.01")))])
        return ["accounts", "h_total", "penalty"], rows
    raise ValueError(f"unknown figure {which!r}")


def cmd_figures(args: argparse.Namespace) -> int:
    try:
        header, rows = figure_rows(args.which)
    except ValueError as exc:
        return _fail(str(exc), EXIT_INPUT)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"figure_{args.which}.csv")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    print(path)
    return EXIT_OK


def scam_margin() -> dict:
    """Run the scripted scam scenario and measure the protection margin."""
    sim, trace = run_scenario(scam_scenario())
    protected = [sim.mark_to_market(name) for name in ("intent-user", "frontrun-user")]
    unprotected = sim.mark_to_market("unprotected")
    margin = min(protected) - unprotected
    return {
        "scenario": "builtin:scam",
        "seed": 42,
        "trace_hash": trace.trace_hash(),
        "intent_user_value": str(sim.mark_to_market("intent-user")),
        "frontrun_user_value": str(sim.mark_to_market("frontrun-user")),
        "unprotected_value": str(unprotected),
        "margin": str(margin),
    }


def cmd_verify(args: argparse.Namespace) -> int:
    if args.regen_golden:
        golden = scam_margin()
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
            json.dump(golden, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"golden margin {golden['margin']} written to {GOLDEN_PATH}")
        if args.trace is None:
            return EXIT_OK
    if args.trace is None:
        return _fail("verify needs --trace DIR (or --regen-golden)", EXIT_INPUT)
    if not os.path.isdir(args.trace):
        return _fail(f"no trace directory {args.trace}", EXIT_INPUT)
    result = verify_trace(args.trace)
    if result.ok:
        print("trace ok")
        return EXIT_OK
    print(f"verification failed: {result.error}", file=sys.stderr)
    if result.line is not None:
        print(f"first violation at line {result.line}: {result.first_violation}",
              file=sys.stderr)
    elif result.first_violation:
        print(f"first violation: {result.first_violation}", file=sys.stderr)
    return EXIT_INPUT if result.unreadable else EXIT_VERIFY


def cmd_schema(args: argparse.Namespace) -> int:
    print(json.dumps(SCENARIO_SCHEMA, indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rugsim",
        description="Deterministic rug-pull protocol economics simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario and write its trace")
    run_p.add_argument("--scenario", required=True,
                       help="path to a scenario JSON, or builtin:reference / builtin:scam")
    run_p.add_argument("--out", default=_default_out(), help="output directory")
    run_p.add_argument("--blocks", type=int, default=None, help="override block count")
    run_p.add_argument("--seed", type=int, default=None, help="override seed")
    run_p.add_argument("--strict", action="store_true",
                       help="exit 3 if any operation failed during the run")
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", help="run a scenario across a parameter range")
    sweep_p.add_argument("--scenario", required=True)
    sweep_p.add_argument("--param", required=True, metavar="KEY=A:B:STEP",
                         help="dotted scenario path and inclusive range")
    sweep_p.add_argument("--out", default=_default_out())
    sweep_p.add_argument("--blocks", type=int, default=None)
    sweep_p.set_defaults(func=cmd_sweep)

    fig_p = sub.add_parser("figures", help="export figure data series as CSV")
    fig_p.add_argument("--which", required=True,
                       choices=["peg", "supply", "whale", "cumulative"])
    fig_p.add_argument("--out", default=_default_out())
    fig_p.set_defaults(func=cmd_figures)

    ver_p = sub.add_parser("verify", help="re-check a written trace")
    ver_p.add_argument("--trace", default=None, help="trace directory to verify")
    ver_p.add_argument("--regen-golden", action="store_true",
                       help="re-run the scam reference and pin its margin")
    ver_p.set_defaults(func=cmd_verify)

    schema_p = sub.add_parser("schema", help="print the scenario document schema")
    schema_p.set_defaults(func=cmd_schema)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
