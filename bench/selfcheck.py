"""Check that the benchmark's output checks can fail.

    python3 bench/selfcheck.py

Runs each workload briefly twice: with the pinned references, where every
operation must pass, and with every reference moved (``--perturb``), where
every operation must count as failed. Exits 1 if either does not hold.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402


def run(name: str, perturb: bool) -> dict:
    argv = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", name,
            "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv + (["--perturb"] if perturb else []), cwd=ROOT,
                          capture_output=True, text=True, timeout=180)
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    bad = 0
    for name in workloads.WORKLOADS:
        plain, moved = run(name, False), run(name, True)
        ok = (plain["correct"] and plain["failed"] == 0
              and not moved["correct"] and moved["failed"] == moved["attempted"] > 0)
        bad += not ok
        print(f"{name:<18} pinned: {plain['failed']}/{plain['attempted']} failed  "
              f"perturbed: {moved['failed']}/{moved['attempted']} failed  "
              f"{'ok' if ok else 'FAIL'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
