"""Held-out-seed table for the statistical acceptance criteria.

Reruns the configs of criteria 03, 04, 05, 06, 07, 10 and 11 (as pinned in
test_acceptance.py, with only ``master_seed`` replaced) on the given seeds and
prints, per criterion and seed, the margin to the criterion's bound (>= 0
passes) with the measured quantity, then the pass count over the seeds. A
check that passes only on its pinned seed cannot tell a method change from
noise; this table can. The deterministic parts of criterion 11 (the exact
endpoint identities) are not rerun. Not collected by pytest:

    PYTHONPATH=src python tests/seed_table.py 1 2 3 4 5 6 7 8 9 10
"""

import math
import sys

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


def criterion_03(seed):
    _, summary = _run(
        seed, experiment="bbp", n_grid=[2000], trials=20, gamma_grid=[0.5, 2.0],
        ensemble={"kind": "rademacher"}, prior={"kind": "rademacher"},
        denoiser={"kind": "identity"},
    )
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


def criterion_06(seed):
    rows, _ = _run(
        seed, experiment="state_evolution", n_grid=[2000], trials=3, K=5, gamma=0.0,
        ensemble={"kind": "gaussian"}, prior={"kind": "gaussian"},
        denoiser={"kind": "identity"}, phi={"kind": "last_coord_clipped"}, init="independent",
    )
    if any(r["status"] != "ok" for r in rows):
        return -math.inf, "a trial failed"
    worst = max(abs(r["second_moment_empirical"] - 1.0) for r in rows)
    return 0.1 - worst, f"max abs(variance - 1) {worst:.4f}"


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
    "03": criterion_03,
    "04": criterion_04,
    "05": criterion_05,
    "06": criterion_06,
    "07": criterion_07,
    "10": criterion_10,
    "11": criterion_11,
}


def main(argv):
    seeds = [int(s) for s in argv] or [20240810]
    print("| criterion | " + " | ".join(f"seed {s}" for s in seeds) + " | passes |")
    print("|---" * (len(seeds) + 2) + "|")
    for name, criterion in CRITERIA.items():
        cells, passes = [], 0
        for seed in seeds:
            margin, detail = criterion(seed)
            passes += margin >= 0
            cells.append(f"{margin:.4g} ({detail})")
            print(f"criterion {name} seed {seed}: margin {margin:.4g}, {detail}",
                  file=sys.stderr, flush=True)
        print(f"| {name} | " + " | ".join(cells) + f" | {passes}/{len(seeds)} |", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
