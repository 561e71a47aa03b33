"""Held-out-seed table for the statistical acceptance criteria.

Reruns criteria 01, 02, 03, 04, 05, 06 and its companion, 07, 10 and 11 as
test_acceptance.py's CRITERIA defines them (configs, structural checks and
bounds), with only ``master_seed`` replaced, on the given seeds and prints,
per criterion and seed, the margin to the criterion's bounds (the least over
its measured quantities, >= 0 passes; -inf if a structural check such as an
ok trial fails) with the measured quantities, then the pass count over the
seeds. ``--json PATH`` also writes them to PATH (by
convention ``SEEDS_<tag>.json``) with the commit of the checkout that
``amplab`` is imported from and whether its ``src`` differs from that commit;
a margin that is not finite (a failed trial) is written as null. A check that
passes only on its pinned seed cannot tell a method change from noise; this
table can. The deterministic parts of criterion 11 (the exact endpoint
identities) and the wall-clock budgets of criteria 01, 02, 04 and 07 are not
rerun. Not collected by pytest:

    PYTHONPATH=src python tests/seed_table.py [--json PATH] 1 2 3 4 5 6 7 8 9 10
"""

import argparse
import json
import math
import os
import subprocess
import sys

import amplab
from test_acceptance import CRITERIA, run_criterion


def criterion_margin(name, seed):
    """(least margin, measured quantities) of criterion name at seed."""
    try:
        margins, _, _ = run_criterion(name, seed)
    except AssertionError as exc:
        return -math.inf, f"structural check failed: {exc}"
    return min(m.margin for m in margins), ", ".join(f"{m.quantity} = {m.value:.4f}" for m in margins)


def _checkout():
    """(commit, dirty) of the checkout that amplab is imported from: HEAD, and whether its src differs from it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(amplab.__file__)))

    def git(*args):
        return subprocess.run(["git", "-C", src, *args], check=True, capture_output=True, text=True).stdout.strip()

    return git("rev-parse", "HEAD"), bool(git("status", "--porcelain", "--", "."))


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", metavar="PATH", help="also write the margins as JSON to PATH")
    parser.add_argument("seeds", nargs="*", type=int, default=[20240810])
    args = parser.parse_args(argv)
    seeds = args.seeds
    # read before the run, so that a checkout git cannot describe fails at once
    commit, dirty = _checkout() if args.json else (None, None)
    table = {}
    print("| criterion | " + " | ".join(f"seed {s}" for s in seeds) + " | passes |")
    print("|---" * (len(seeds) + 2) + "|")
    for name in CRITERIA:
        cells, passes, table[name] = [], 0, {}
        for seed in seeds:
            margin, detail = criterion_margin(name, seed)
            passes += margin >= 0
            cells.append(f"{margin:.4g} ({detail})")
            table[name][str(seed)] = {"margin": margin if math.isfinite(margin) else None, "measured": detail}
            print(f"criterion {name} seed {seed}: margin {margin:.4g}, {detail}",
                  file=sys.stderr, flush=True)
        print(f"| {name} | " + " | ".join(cells) + f" | {passes}/{len(seeds)} |", flush=True)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"commit": commit, "dirty": dirty, "seeds": seeds, "criteria": table}, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
