"""Child-process probes of the benchmark, each run in a fresh interpreter:

    python3 perfbench/probe.py setup DOC.json   # CPU seconds to import
                                                # rugsim, load DOC and
                                                # construct the Simulation
    python3 perfbench/probe.py golden           # scam_margin() against the
                                                # pinned scam_golden.json
    python3 perfbench/probe.py verify DIR...    # `rugsim verify` on each trace
"""

from __future__ import annotations

import json
import sys
import time


def setup(doc_path: str) -> int:
    start = time.process_time()
    import rugsim
    with open(doc_path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    rugsim.Simulation(rugsim.load_scenario(doc))
    print(f"{time.process_time() - start:.9f}")
    return 0


def golden() -> int:
    import rugsim
    from rugsim.cli import GOLDEN_PATH, scam_margin
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        pinned = json.load(handle)
    got = scam_margin()
    print(json.dumps({"module": rugsim.__file__, "trace_hash": got["trace_hash"],
                      "margin": got["margin"]}))
    if (got["trace_hash"], got["margin"]) != (pinned["trace_hash"], pinned["margin"]):
        print(f"scam golden mismatch: pinned {pinned['trace_hash']} margin "
              f"{pinned['margin']}", file=sys.stderr)
        return 1
    return 0


def verify(trace_dirs: list[str]) -> int:
    from rugsim.cli import main
    for trace_dir in trace_dirs:
        code = main(["verify", "--trace", trace_dir])
        if code != 0:
            print(f"rugsim verify exited {code} on {trace_dir}", file=sys.stderr)
            return code
    return 0


if __name__ == "__main__":
    command, args = sys.argv[1], sys.argv[2:]
    if command == "setup":
        sys.exit(setup(args[0]))
    if command == "golden":
        sys.exit(golden())
    if command == "verify":
        sys.exit(verify(args))
    sys.exit(f"unknown probe {command!r}")
