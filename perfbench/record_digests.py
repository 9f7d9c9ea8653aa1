"""Record the output digests that runs at the default seeds are checked against.

Usage, from the root of a source tree: python3 perfbench/record_digests.py

Runs the first ops of each workload at each default seed, checks every
output against its reference identity, and writes one 8-hex-digit
digest per op to expected/digests.json. Refuses to write if any op
fails. Run it only when the generated inputs change, on a commit whose
outputs are known to be right.
"""

import json
import sys

import run
from workloads import WORKLOADS

# ops recorded per seed; later ops are checked by their reference identity
DEPTH = {"cli": 150, "verify": 3000, "wide": 1000}


def main() -> int:
    run.load_celint()
    table = {}
    for name, depth in DEPTH.items():
        table[name] = {}
        for seed in run.DEFAULT_SEEDS:
            workload = WORKLOADS[name](run.ROOT)
            workload.setup()
            try:
                result = run.measure(workload, seed, max_ops=depth, record=True,
                                     sweeps=1)
            finally:
                workload.close()
            if result.failures:
                print(f"{name} seed {seed}: {result.failures[:3]}", file=sys.stderr)
                return 1
            table[name][str(seed)] = "".join(result.digests)
            print(f"{name} seed {seed}: {len(result.digests)} digests")
    run.DIGESTS.parent.mkdir(exist_ok=True)
    with open(run.DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
