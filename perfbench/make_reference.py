"""Pin the reports the benchmark's correctness check compares against.

    python3 perfbench/make_reference.py [--workload NAME]

Runs each workload's sweep for workload seeds 0..SEEDS-1 in this process and
writes ``reference/<workload>.json``, one cell's ``RunReport.to_json_dict()``
per line. The pinned files were generated once from the seed commit; rerun
this only when a workload's definition changes, and only on a commit whose
outputs are known to be right.
"""

import argparse
import json
import os
import sys

from child import import_cotrack
from check import REFERENCE_DIR, reference_path
from workloads import WORKLOADS

SEEDS = 32  # workload seeds pinned; README.md and check.py promise 0-31


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append")
    args = parser.parse_args()
    import_cotrack()
    from cotrack.experiment import run_sweep
    from run import machine_record

    source = machine_record()
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for name in args.workload or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        seeds = []
        for seed in range(SEEDS):
            reports, failures = run_sweep(workload.config(seed), workers=1)
            if failures:
                sys.exit(f"{name} seed {seed}: cells failed: {failures}")
            cells = ",\n".join(f"   {json.dumps(r.to_json_dict(), sort_keys=True)}" for r in reports)
            seeds.append(f'  "{seed}": [\n{cells}\n  ]')
            print(f"{name} seed {seed}: {len(reports)} cells", file=sys.stderr)
        with open(reference_path(name), "w", encoding="utf-8") as fh:
            fh.write("{\n")
            fh.write(f' "workload": {json.dumps(workload.spec(), sort_keys=True)},\n')
            fh.write(f' "source": {json.dumps(source, sort_keys=True)},\n')
            fh.write(' "seeds": {\n' + ",\n".join(seeds) + "\n }\n}\n")


if __name__ == "__main__":
    main()
