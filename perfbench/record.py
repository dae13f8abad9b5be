"""Record the reference outputs the benchmark checks every op against.

    python3 perfbench/record.py --size full --seeds 0-31
    python3 perfbench/record.py --size smoke --seeds 0-3 --workload run-large

For each workload and seed this runs one op through worker.py and merges
its pinned values (selected configs, test accuracies, result-file
sha256) into reference.json.  Run it only on code whose outputs are
known to be right: the references define what "correct" means.
"""

import argparse
import json
import os
import shutil
import sys

import run as bench
from workloads import PINNED, WORKLOADS

REFERENCE = os.path.join(bench.HERE, "reference.json")


def record(workload, size, seed):
    r = bench.Run(WORKLOADS[workload], size, seed, 0.0, None)
    r.prepare()
    try:
        out = r.worker_ops(0.0, False, 1)
    finally:
        shutil.rmtree(r.work, ignore_errors=True)
    if r.failures:
        raise RuntimeError(f"{workload} seed {seed}: {r.failures}")
    return {k: out["observations"][0][k] for k in PINNED}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    p.add_argument("--seeds", required=True, help="first-last, inclusive")
    p.add_argument("--workload", default=None)
    args = p.parse_args(argv)
    sys.path.insert(0, bench.SRC)
    first, _, last = args.seeds.partition("-")
    names = [args.workload] if args.workload else list(WORKLOADS)
    with open(REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh)
    for seed in range(int(first), int(last or first) + 1):
        for name in names:
            ref.setdefault(name, {}).setdefault(args.size, {})[str(seed)] = record(name, args.size, seed)
            with open(REFERENCE, "w", encoding="utf-8") as fh:
                json.dump(ref, fh, indent=1, sort_keys=True)
                fh.write("\n")
            print(f"recorded {name} {args.size} seed {seed}", flush=True)


if __name__ == "__main__":
    main()
