"""Run the pinned-output corpus (``tests/pinned.py``) under every CPython
3.10 or newer that pyenv has installed, each under two hash seeds:

    python tests/pinned_all.py    # one line per run, exit 1 on any mismatch

The interpreters are ``~/.pyenv/versions/*/bin/python``. A pinned
output must not depend on the interpreter or on ``PYTHONHASHSEED``; the lazy
package loading leans on ``importlib.util.LazyLoader``, whose internals differ
across these versions. Only the standard library is needed.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

PINNED = Path(__file__).resolve().parent / "pinned.py"
HASH_SEEDS = ("0", "4242")
OLDEST = (3, 10)


def interpreters(root: Path) -> list[tuple[tuple[int, ...], Path]]:
    """(version, python) of each CPython under ``root`` at OLDEST or newer, oldest first."""
    found = []
    for python in root.glob("*/bin/python"):
        match = re.fullmatch(r"(\d+)\.(\d+)\.(\d+)", python.parent.parent.name)
        if match:
            version = tuple(int(part) for part in match.groups())
            if version[:2] >= OLDEST:
                found.append((version, python))
    return sorted(found)


def main() -> int:
    root = Path.home() / ".pyenv" / "versions"
    found = interpreters(root)
    if not found:
        print(f"no CPython >= {OLDEST[0]}.{OLDEST[1]} under {root}", file=sys.stderr)
        return 2
    failed = 0
    for version, python in found:
        for seed in HASH_SEEDS:
            done = subprocess.run([str(python), str(PINNED)], capture_output=True, text=True,
                                  env=dict(os.environ, PYTHONHASHSEED=seed))
            lines = (done.stdout + done.stderr).strip().splitlines() or ["(no output)"]
            label = f"{'.'.join(map(str, version))} PYTHONHASHSEED={seed}"
            if done.returncode != 0:
                failed += 1
                for line in lines[:-1]:
                    print(f"  {label}: {line}")
            print(f"{label}: exit {done.returncode}: {lines[-1]}")
    print(f"{len(found) * len(HASH_SEEDS) - failed} of {len(found) * len(HASH_SEEDS)} runs match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
