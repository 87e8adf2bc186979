"""Record the output digests that `checks.py` compares against.

    python3 perfbench/record_digests.py

Runs the first ops of every workload on the default seeds in-process and
writes `digests.txt`: for each input key, the exit code and a hash of
stdout.  Run it only at a commit whose reports are the reference: a
deliberate report change re-records, and says so.
"""

from __future__ import annotations

import shutil
import sys

from checks import DIGESTS_PATH, output_digest
from run import OUT, invoke, load_program

import workloads

DEFAULT_SEEDS = range(1, 4)
# Ops recorded per seed: more than a 30-second run gets through at this commit.
PREFIX = {"bundled": 2, "certificates": 480, "building-blocks": 1024}


def main() -> int:
    cli, _oracles = load_program()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / "inputs-record"
    workdir.mkdir(exist_ok=True)
    digests = {}
    try:
        for workload in workloads.WORKLOADS:
            for seed in DEFAULT_SEEDS:
                ops = workloads.stream(workload, seed, workdir)
                for _ in range(PREFIX[workload]):
                    op = next(ops)
                    _elapsed, code, stdout, _stderr = invoke(cli, op.argv)
                    digests[op.key] = output_digest(code, stdout)
                print(f"{workload} seed {seed}: {len(digests)} digests", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with DIGESTS_PATH.open("w", encoding="utf-8") as out:
        out.write(f"# input key, exit code:stdout hash; seeds {DEFAULT_SEEDS.start}-{DEFAULT_SEEDS.stop - 1}\n")
        for key in sorted(digests):
            out.write(f"{key} {digests[key]}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
