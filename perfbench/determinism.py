"""Exact-count determinism check for one workload.

Runs the workload twice with one seed and once with another, each with
``--trace 0`` and ``--trace 1``, and checks that:

* the same seed gives identical ``search.*`` counts, ``runtime.*``
  request/seek/byte counts, ``search.opt_cost_gmean_s`` and
  ``act_cost_gmean_s``, and the same ``inputs_sha256``;
* the other seed gives a different ``inputs_sha256`` (stream and data).

Usage, from the root of a checkout::

    python3 perfbench/determinism.py --workload serve --seed 1 --other-seed 2

It makes six runs, a few minutes at the default 30 s a run.  Exits 1
when a check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

EXACT = (
    "search.space", "search.expanded", "search.pruned", "search.costed",
    "search.opt_cost_gmean_s",
    "runtime.reads", "runtime.writes", "runtime.seeks",
    "runtime.bytes_read", "runtime.bytes_written",
)


def run(workload: str, seed: int, trace: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=True,
    )
    *_, info, result = done.stdout.strip().splitlines()
    values = {
        name: metric["value"]
        for name, metric in json.loads(result)["metrics"].items()
    }
    return {"inputs": json.loads(info)["inputs_sha256"], **values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--other-seed", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="per run, as in run.py; 1 means the fewest")
    args = parser.parse_args()

    runs = []
    for seed in (args.seed, args.seed, args.other_seed):
        values = run(args.workload, seed, 0, args.seconds)
        traced = run(args.workload, seed, 1, args.seconds)
        runs.append({
            "inputs": values["inputs"],
            "act_cost_gmean_s": values["act_cost_gmean_s"],
            **{name: traced[name] for name in EXACT},
        })
    first, again, other = runs
    failures = [
        f"{name}: {first[name]!r} != {again[name]!r}"
        for name in first
        if first[name] != again[name]
    ]
    if other["inputs"] == first["inputs"]:
        failures.append("another seed gave the same streams and data")
    for name, value in first.items():
        print(f"{name:26s} {value}")
    for failure in failures:
        print(f"FAIL {failure}")
    print("determinism:", "FAIL" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
