#!/usr/bin/env python3
"""Best-of-7 timing of random-stream setup in two revisions, added to a
BENCH_<slug>.json record written by bench_pairs.py.

Exports both revisions with `git archive` into a temporary directory
(removed afterwards).  Each of 7 rounds starts one fresh process per
revision, alternating which runs first, and times `RngStream.generator()`,
called with no arguments, in 300 passes over 64 inner-solve plan paths,
after one untimed pass.  Each side times whatever that call does in its
own revision.  The record gains a `stream_setup` entry with each side's
best round in microseconds per call (key `us`):

    python3 scripts/stream_setup_bench.py --base HEAD~1 --head HEAD \\
        --record BENCH_one_generator.json
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import export, machine, revision

ROUNDS, NUMBER = 7, 300

SNIPPET = """
import json, sys, timeit
from sppm.rng import RngStream
streams = [RngStream(71).child("trial", 3).child("outer", 2).child("pss", j) for j in range(64)]
number = int(sys.argv[1])
def setup():
    for s in streams:
        s.generator()
setup()
us = timeit.timeit(setup, number=number) / (number * len(streams)) * 1e6
print(json.dumps({"us": us}))
"""


def time_setup(src: Path, number: int) -> dict:
    """One fresh process's microseconds per generator() call, with the
    package imported from src."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", SNIPPET, str(number)], env=env,
                          check=True, capture_output=True, text=True)
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="revision measured as 'before'")
    ap.add_argument("--head", default="HEAD", help="revision measured as 'after'")
    ap.add_argument("--record", required=True, help="BENCH_*.json file to add the entry to")
    args = ap.parse_args(argv)

    path = Path(args.record)
    record = json.loads(path.read_text(encoding="utf-8"))
    revs = {"base": revision(args.base), "head": revision(args.head)}
    rounds = {"base": [], "head": []}
    with tempfile.TemporaryDirectory(prefix="stream_setup_") as tmp:
        trees = {side: export(r["commit"], Path(tmp) / side) for side, r in revs.items()}
        for i in range(ROUNDS):
            for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
                rounds[side].append(time_setup(trees[side] / "src", NUMBER))
                print(side, json.dumps(rounds[side][-1]), flush=True)
    record["stream_setup"] = {
        "command": "python3 scripts/stream_setup_bench.py",
        "rounds_run": ROUNDS,
        "passes_per_round": NUMBER,
        "revisions": revs,
        "machine": machine(),
        "best_us": {side: {k: min(r[k] for r in runs) for k in runs[0]} for side, runs in rounds.items()},
        "rounds": rounds,
    }
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(record["stream_setup"]["best_us"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
