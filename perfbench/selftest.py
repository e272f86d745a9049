"""Self-test of the benchmark's traced run.

Runs ``run.py --trace 1`` twice with one seed, in fresh processes. Each run
already fails unless its traced and untraced jobs write byte-identical
result files and every expected layer records calls. This script adds
that the exact per-layer figures (calls, ratios such as
``signals.regressor_builds_per_stream``, ``sampling.iterations_per_design``,
bytes) repeat exactly from one run to the next.

    python3 perfbench/selftest.py --seed 1
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
EXACT_UNITS = {"count", "ratio", "bytes"}


def traced_run(seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "montecarlo", "--seed", str(seed), "--trace", "1"],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        sys.exit(f"selftest: traced run exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, default=1)
    seed = parser.parse_args().seed
    first, second = traced_run(seed), traced_run(seed)
    problems = [f"run {i} reported incorrect output" for i, r in enumerate((first, second), 1)
                if not r["correct"]]
    for name, entry in first["metrics"].items():
        if entry["unit"] in EXACT_UNITS:
            again = second["metrics"][name]["value"]
            status = "same" if again == entry["value"] else "DIFFERS"
            print(f"{name:45s} {entry['value']!r:>12} {again!r:>12} {status}")
            if again != entry["value"]:
                problems.append(f"{name}: {entry['value']!r} then {again!r}")
    for problem in problems:
        print(f"selftest: {problem}", file=sys.stderr)
    print("selftest: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
