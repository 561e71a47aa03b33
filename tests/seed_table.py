"""Held-out-seed table for the statistical acceptance criteria.

Reruns the configs of criteria 01, 02, 03, 04, 05, 06 and its companion, 07,
10 and 11 (as pinned in test_acceptance.py, with only ``master_seed``
replaced) on the given seeds and prints, per criterion and seed, the margin
to the criterion's bound (>= 0 passes) with the measured quantity, then the
pass count over the seeds. ``--json PATH`` also writes them to PATH (by
convention ``SEEDS_<tag>.json``) with the commit of the checkout that
``amplab`` is imported from and whether its ``src`` differs from that commit;
a margin that is not finite (a failed trial) is written as null. A check that
passes only on its pinned seed cannot tell a method change from noise; this
table can. The deterministic parts of criterion 11 (the exact endpoint
identities) and the wall-clock budgets of criteria 01 and 02 are not rerun.
Not collected by pytest:

    PYTHONPATH=src python tests/seed_table.py [--json PATH] 1 2 3 4 5 6 7 8 9 10
"""

import argparse
import json
import math
import os
import subprocess
import sys

import numpy as np

import amplab
from amplab.config import parse_config
from amplab.experiments import run_experiment

_AMP = {
    "K": 5,
    "gamma": 2.0,
    "prior": {"kind": "rademacher"},
    "denoiser": {"kind": "scaled_tanh", "schedule": "bayes"},
    "phi": {"kind": "tanh_product"},
}


def _run(seed, **config):
    _, rows, summary = run_experiment(parse_config(dict(config, master_seed=seed)))
    return rows, summary


def _group(summary, field, group):
    return next(e for e in summary["groups"] if e["field"] == field and e["group"] == group)


def _bbp(seed, gamma_grid, ensemble_kind):
    return _run(
        seed, experiment="bbp", n_grid=[2000], trials=20, gamma_grid=gamma_grid,
        ensemble={"kind": ensemble_kind}, prior={"kind": "rademacher"},
        denoiser={"kind": "identity"},
    )[1]


def criterion_01(seed):
    summary = _bbp(seed, [2.0], "gaussian")
    lam, ov = _group(summary, "lambda1", 2.0), _group(summary, "overlap", 2.0)
    if lam["count"] != 20:
        return -math.inf, f"{20 - lam['count']} trials failed"
    margin = min(0.1 - abs(lam["mean"] - 2.5), 0.05 - abs(ov["mean"] - 0.8660))
    return margin, f"lambda1 {lam['mean']:.4f}, overlap {ov['mean']:.4f}"


def criterion_02(seed):
    summary = _bbp(seed, [0.5], "gaussian")
    lam, ov = _group(summary, "lambda1", 0.5)["mean"], _group(summary, "overlap", 0.5)["mean"]
    return min(0.1 - abs(lam - 2.0), 0.1 - ov), f"lambda1 {lam:.4f}, overlap {ov:.4f}"


def criterion_03(seed):
    summary = _bbp(seed, [0.5, 2.0], "rademacher")
    lam_hi = _group(summary, "lambda1", 2.0)["mean"]
    ov_hi = _group(summary, "overlap", 2.0)["mean"]
    lam_lo = _group(summary, "lambda1", 0.5)["mean"]
    ov_lo = _group(summary, "overlap", 0.5)["mean"]
    margin = min(0.1 - abs(lam_hi - 2.5), 0.05 - abs(ov_hi - 0.8660),
                 0.1 - abs(lam_lo - 2.0), 0.1 - ov_lo)
    return margin, f"lambda1 {lam_hi:.4f}/{lam_lo:.4f}, overlap {ov_hi:.4f}/{ov_lo:.4f}"


def criterion_04(seed):
    margin, slopes = math.inf, []
    for kind in ("rademacher", "uniform"):
        _, summary = _run(
            seed, experiment="universality", n_grid=[250, 500, 1000, 2000], trials=50,
            ensemble={"kind": kind}, threads=4, **_AMP,
        )
        groups = sorted((e for e in summary["groups"] if e["field"] == "abs_diff"),
                        key=lambda e: e["group"])
        means = [e["mean"] for e in groups]
        errs = [e["stderr"] for e in groups]
        inversions = [i for i in range(len(means) - 1) if means[i + 1] >= means[i]]
        slack_ok = all(means[i + 1] - means[i] <= 2.0 * math.hypot(errs[i], errs[i + 1])
                       for i in inversions)
        slope = summary["extras"]["decay_slope"]
        slopes.append(f"{kind} {slope:.3f}")
        ordered = min(means) > 0 and len(inversions) <= 1 and slack_ok
        margin = min(margin, -0.25 - slope if ordered else -math.inf)
    return margin, "slopes " + ", ".join(slopes)


def criterion_05(seed):
    rows, _ = _run(
        seed, experiment="state_evolution", n_grid=[2000], trials=1, K=5, gamma=2.0,
        ensemble={"kind": "gaussian"}, prior={"kind": "rademacher"},
        denoiser={"kind": "scaled_tanh", "schedule": "bayes"}, phi={"kind": "se_pair"},
        init="spectral",
    )
    if any(r["status"] != "ok" for r in rows):
        return -math.inf, "a trial failed"
    worst = max(r["phi_abs_err"] for r in rows)
    return 0.05 - worst, f"max error {worst:.4f}"


def _identity_fixed_point(seed, trials):
    return _run(
        seed, experiment="state_evolution", n_grid=[2000], trials=trials, K=5, gamma=0.0,
        ensemble={"kind": "gaussian"}, prior={"kind": "gaussian"},
        denoiser={"kind": "identity"}, phi={"kind": "last_coord_clipped"}, init="independent",
    )[0]


def criterion_06(seed):
    rows = _identity_fixed_point(seed, 3)
    if any(r["status"] != "ok" for r in rows):
        return -math.inf, "a trial failed"
    worst = max(abs(r["second_moment_empirical"] - 1.0) for r in rows)
    return 0.1 - worst, f"max abs(variance - 1) {worst:.4f}"


def criterion_06_companion(seed):
    rows = _identity_fixed_point(seed, 40)
    if any(r["status"] != "ok" for r in rows):
        return -math.inf, "a trial failed"
    worst = 0.0
    for k in range(6):
        at_k = [r for r in rows if r["k"] == k]
        values = np.array([r["second_moment_empirical"] for r in at_k])
        z = (values.mean() - at_k[0]["second_moment_prediction"]) / (values.std(ddof=1) / math.sqrt(len(values)))
        worst = max(worst, abs(float(z)))
    return 4.0 - worst, f"max abs(mean - prediction) {worst:.2f} standard errors"


def criterion_07(seed):
    rows, _ = _run(
        seed, experiment="power_bound", n_grid=[64], trials=100,
        ensemble={"kind": "gaussian"}, denoiser={"kind": "identity"}, power_depth=20,
    )
    if any(r["status"] != "ok" for r in rows):
        return -math.inf, "a trial failed"
    margin = min(r["rhs"] + 1e-8 - r["lhs"] for r in rows)
    return margin, f"held {sum(r['holds'] for r in rows)}/100"


def criterion_10(seed):
    _, summary = _run(
        seed, experiment="concentration", n_grid=[500, 2000], trials=50,
        ensemble={"kind": "gaussian"}, **_AMP,
    )
    ratio = _group(summary, "phi", 2000)["std"] / _group(summary, "phi", 500)["std"]
    return 0.7 - ratio, f"std ratio {ratio:.3f}"


def criterion_11(seed):
    rows, summary = _run(
        seed, experiment="interpolation", n_grid=[1000], trials=30,
        t_grid=[0.0, 0.25, 0.5, 0.75, 1.0], ensemble={"kind": "rademacher"}, **_AMP,
    )
    if any(r["status"] != "ok" for r in rows):
        return -math.inf, "a trial failed"
    groups = sorted((e for e in summary["groups"] if e["field"] == "phi"), key=lambda e: e["group"])
    worst = max(
        abs(b["mean"] - a["mean"]) / math.hypot(a["stderr"], b["stderr"])
        for a, b in zip(groups, groups[1:])
    )
    return 5.0 - worst, f"worst step {worst:.2f} pooled SE"


CRITERIA = {
    "01": criterion_01,
    "02": criterion_02,
    "03": criterion_03,
    "04": criterion_04,
    "05": criterion_05,
    "06": criterion_06,
    "06 companion": criterion_06_companion,
    "07": criterion_07,
    "10": criterion_10,
    "11": criterion_11,
}


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
    for name, criterion in CRITERIA.items():
        cells, passes, table[name] = [], 0, {}
        for seed in seeds:
            margin, detail = criterion(seed)
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
