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

from .core import FixedAmount, RangeError, RugsimError, amt, quantize, safe_exp
# the engine is imported here and not in the commands that use it, so
# `verify` loads it too: the benchmark's tracer (perfbench/tracing.py) wraps
# the engine's functions only in the modules that `import rugsim.cli` loaded
from .harness import HOME_TOKEN, Simulation, run_scenario
from .scenario import (
    SCENARIO_SCHEMA,
    ScenarioError,
    load_scenario,
    reference_scenario,
    scam_scenario,
)
from .trace import verify_trace
from .vault import anticoin_value, cumulative_penalty, whale_penalty
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
    """The document a builtin name or a file path names. Raises OSError for
    a file that cannot be read, ValueError for one that is not UTF-8 JSON
    and RecursionError for JSON nested too deeply to decode."""
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
    except (OSError, ValueError, RecursionError) as exc:
        return _fail(f"cannot load scenario: {exc}", EXIT_INPUT)
    try:
        sim, trace = run_scenario(doc, blocks=args.blocks, seed=args.seed,
                                  out_dir=args.out)
        trace.write()
    except (ScenarioError, RugsimError) as exc:
        return _fail(f"scenario error: {exc}", EXIT_INPUT)
    except OSError as exc:
        return _fail(f"cannot write trace: {exc}", EXIT_INPUT)
    print(f"blocks={sim.height} events={trace.event_count} "
          f"failed={trace.failed_events} hash={trace.trace_hash()} out={args.out}")
    if args.strict and trace.failed_events > 0:
        return _fail(f"{trace.failed_events} failed events under --strict",
                     EXIT_STRICT)
    return EXIT_OK


# the most points one sweep may run; a fixed limit, so that a tiny step is
# refused before any value is built
MAX_SWEEP_POINTS = 10_000


def _parse_range(spec: str) -> tuple[str, list[Fraction]]:
    """KEY and the points of the inclusive range A:B:STEP; more than
    MAX_SWEEP_POINTS points are refused."""
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
    return key, [start + i * step for i in range(count)]


def _list_index(part: str) -> int:
    """A sweep path's list index: a plain non-negative decimal ("-1" would alias)."""
    index = int(part)  # text that is no number keeps int()'s message
    if index < 0 or str(index) != part:
        raise ValueError(f"list index {part!r} is not a plain non-negative decimal")
    return index


def _sweep_point(doc: dict, dotted: str, value: Fraction) -> tuple[dict, str]:
    """A copy of ``doc`` with a sweep point written into the field at
    ``dotted``, and the point's text. The copy shares every object but those
    on the path, so ``doc`` is left as it was. An int goes into a field that
    holds an int, else the quantized decimal text, which raises a RangeError
    past the amount range. A bool field is not numeric."""
    top = node = copy.copy(doc)
    *path, leaf = dotted.split(".")
    for part in path:
        if isinstance(node, list):
            key = _list_index(part)
        elif part in node:
            key = part
        else:
            raise KeyError(dotted)
        node[key] = child = copy.copy(node[key])
        node = child
    if isinstance(node, list):
        leaf = _list_index(leaf)
    elif leaf not in node:
        raise TypeError(f"{dotted} is not a numeric field")
    current = node[leaf]
    if isinstance(current, bool) or not isinstance(current, (str, int)):
        raise TypeError(f"{dotted} is not a numeric field")
    if isinstance(current, str):
        node[leaf] = str(quantize(value))
    elif value.denominator == 1:
        node[leaf] = int(value)
    else:
        raise ValueError(f"{dotted} holds an integer, got {str(quantize(value))}")
    return top, str(node[leaf])


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        key, values = _parse_range(args.param)
    except ValueError as exc:
        return _fail(f"bad --param: {exc}", EXIT_INPUT)
    try:
        base = _load_doc(args.scenario)
    except (OSError, ValueError, RecursionError) as exc:
        return _fail(f"cannot load scenario: {exc}", EXIT_INPUT)

    # every point is written into its own copy and loaded before any run,
    # so that a bad key, value or point is refused before anything is written;
    # two points with one text would share a run directory and a summary row;
    # the points share the memo, so each parses only the lists its path copied
    rest = args.param.partition("=")[2]
    points = []
    memo: dict = {}
    for value in values:
        try:
            doc, text = _sweep_point(base, key, value)
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            return _fail(f"bad --param key {key!r}: {exc}", EXIT_INPUT)
        except RangeError as exc:
            return _fail(f"bad --param: {rest!r}: {exc}", EXIT_INPUT)
        if points and points[-1][0] == text:
            return _fail(f"bad --param: two points of {rest!r} quantize to {text}",
                         EXIT_INPUT)
        try:
            points.append((text, load_scenario(doc, memo)))
        except ScenarioError as exc:
            return _fail(f"scenario error at {key}={text}: {exc}", EXIT_INPUT)

    rows = []
    for text, scenario in points:
        try:
            sim = Simulation(scenario, os.path.join(args.out, f"{key}={text}"))
            trace = sim.run(args.blocks)
            trace.write()
        except RugsimError as exc:
            return _fail(f"scenario error at {key}={text}: {exc}", EXIT_INPUT)
        except OSError as exc:
            return _fail(f"cannot write trace: {exc}", EXIT_INPUT)
        rows.append({
            "param": key, "value": text,
            "trace_hash": trace.trace_hash(),
            "current_supply": str(sim.ledger.total_supply(HOME_TOKEN)),
            "total_penalties": str(sim.total_penalties),
            "failed_events": trace.failed_events,
        })
        print(f"{key}={text}: hash={rows[-1]['trace_hash']} "
              f"penalties={rows[-1]['total_penalties']}")

    summary = os.path.join(args.out, "summary.csv")
    try:
        with open(summary, "w", encoding="utf-8", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
    except OSError as exc:
        return _fail(f"cannot write summary: {exc}", EXIT_INPUT)
    print(f"summary: {summary}")
    return EXIT_OK


def peg_grid(points: int = 200) -> list[FixedAmount]:
    """Evenly spaced C_r grid over [0.01, 200]."""
    lo, hi = amt("0.01"), amt(200)
    span = hi - lo
    return [lo + span * i / (points - 1) for i in range(points)]


def figure_rows(which: str) -> tuple[list[str], list[list[str]]]:
    if which == "peg":
        # the peg of a token created at C_r(0) = 100
        created, grid = amt(100), peg_grid()
        rows = [["rising", str(cr), str(anticoin_value(created, cr))] for cr in grid]
        rows += [["falling", str(cr), str(anticoin_value(created, cr))]
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
    path = os.path.join(args.out, f"figure_{args.which}.csv")
    try:
        os.makedirs(args.out, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        return _fail(f"cannot write figure: {exc}", EXIT_INPUT)
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
    if getattr(args, "blocks", None) is not None and args.blocks < 1:  # nothing made yet
        parser.error(f"argument --blocks: need at least one block, got {args.blocks}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
