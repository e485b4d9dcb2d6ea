"""Print `name sha256[:16]` of the stdout of nine reference commands.

Each command runs as `python -m fracode ...` with PYTHONPATH set to this
checkout's `src`, so two checkouts can be compared line by line:

    python tools/digests.py

Exits 1 if any command fails.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

COMMANDS = [
    ("comparison", ["verify", "comparison", "--trials", "4", "--n", "256"]),
    ("stability", ["verify", "stability", "--trials", "100", "--n", "256"]),
    ("resolvent", ["verify", "resolvent", "--n", "1024"]),
    ("resolvent_lam20", ["verify", "resolvent", "--lam", "20", "--n", "1024"]),
    ("solve_linear", ["solve", "--gamma", "0.5", "--rhs", "-1*u", "--u0", "1", "--n", "4096"]),
    ("solve_sin", ["solve", "--gamma", "0.5", "--rhs", "sin(u)+t", "--u0", "1", "--n", "4096"]),
    ("solve_sin_300", ["solve", "--gamma", "0.5", "--rhs", "sin(u)+t", "--u0", "1", "--n", "300"]),
    ("blowup", ["blowup", "--gamma", "0.5", "--A", "1", "--p", "2", "--u0", "1"]),
    ("extinction", ["extinction", "--gamma", "0.5", "--A", "-1", "--p", "-1", "--u0", "1"]),
]


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    failed = 0
    for name, args in COMMANDS:
        run = subprocess.run(
            [sys.executable, "-m", "fracode", *args], env=env, capture_output=True
        )
        if run.returncode != 0:
            failed += 1
            err = run.stderr.decode(errors="replace").strip()
            print(f"{name} FAILED (exit {run.returncode}): {err}")
            continue
        print(f"{name} {hashlib.sha256(run.stdout).hexdigest()[:16]}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
