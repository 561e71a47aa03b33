"""Correctness gate: a run's records against the acceptance tolerances.

Each check reads the records CSV that ``amplab run`` wrote and returns a list
of failure messages; an empty list passes. The tolerances are those of
tests/test_acceptance.py, applied to the benchmark's trial counts, which were
sized so that they hold on every seed.
"""

import csv
import math

LAMBDA1_TOL = 0.1
OVERLAP_TOL = 0.05
OVERLAP_MAX_BELOW = 0.1
DECAY_SLOPE_MAX = -0.25


def read_records(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def trial_outcomes(rows, trial_key):
    """(trials attempted, trials whose every row has status ok)."""
    trials = {}
    for row in rows:
        key = tuple(row[c] for c in trial_key)
        trials[key] = trials.get(key, True) and row["status"] == "ok"
    return len(trials), sum(trials.values())


def _means(rows, group, field):
    sums = {}
    for row in rows:
        if row["status"] == "ok":
            sums.setdefault(float(row[group]), []).append(float(row[field]))
    return {key: sum(v) / len(v) for key, v in sums.items()}


def check_bbp(config, rows):
    failures = []
    lam = _means(rows, "gamma", "lambda1")
    overlap = _means(rows, "gamma", "overlap")
    for gamma in config["gamma_grid"]:
        if gamma not in lam:
            failures.append(f"gamma={gamma}: no ok trials")
            continue
        expected = gamma + 1.0 / gamma if gamma > 1.0 else 2.0
        if abs(lam[gamma] - expected) > LAMBDA1_TOL:
            failures.append(f"gamma={gamma}: mean lambda1 {lam[gamma]:.4f} not within {LAMBDA1_TOL} of {expected}")
        if gamma > 1.0:
            target = math.sqrt(1.0 - 1.0 / gamma**2)
            if abs(overlap[gamma] - target) > OVERLAP_TOL:
                failures.append(f"gamma={gamma}: mean overlap {overlap[gamma]:.4f} not within {OVERLAP_TOL} of {target:.4f}")
        elif overlap[gamma] > OVERLAP_MAX_BELOW:
            failures.append(f"gamma={gamma}: mean overlap {overlap[gamma]:.4f} above {OVERLAP_MAX_BELOW}")
    return failures


def decay_slope(means):
    """Least-squares slope of log(mean) against log(n)."""
    xs = [math.log(n) for n in sorted(means)]
    ys = [math.log(means[n]) for n in sorted(means)]
    x_bar, y_bar = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - x_bar) * (y - y_bar) for x, y in zip(xs, ys)) / sum((x - x_bar) ** 2 for x in xs)


def check_universality(config, rows):
    means = _means(rows, "n", "abs_diff")
    if len(means) != len(config["n_grid"]):
        return [f"ok trials at only {len(means)} of {len(config['n_grid'])} n values"]
    if any(m <= 0 for m in means.values()):
        return [f"non-positive mean abs_diff: {means}"]
    slope = decay_slope(means)
    if slope > DECAY_SLOPE_MAX:
        return [f"decay slope {slope:.3f} above {DECAY_SLOPE_MAX}"]
    return []


def check_interpolation(config, rows):
    """t=1 and t=0 rows equal the pure A and G orbits exactly, rebuilt from the public API."""
    from amplab.config import parse_config
    from amplab.engine import phi_average, run_onsager
    from amplab.ensembles import EnsembleSpec, SpikeSpec, build_spiked, derive_streams, sample_prior, sample_wigner
    from amplab.state_evolution import bayes_tanh_schedule

    cfg = parse_config(config)
    den, _ = bayes_tanh_schedule(cfg.gamma, cfg.prior, cfg.K, cfg.quadrature())
    spike = SpikeSpec.rank_one(cfg.gamma)
    gauss = EnsembleSpec("gaussian", diagonal_policy=cfg.ensemble.diagonal_policy)
    phi = {(int(r["n"]), int(r["trial"]), float(r["t"])): r["phi"] for r in rows}
    failures = []
    for n_idx, n in enumerate(cfg.n_grid):
        for trial in range(cfg.trials):
            # per-trial stream index of the runner: n_idx * trials + trial
            streams = derive_streams(cfg.master_seed, n_idx * cfg.trials + trial)
            u0 = sample_prior(n, cfg.prior, streams.shared)
            for t, ensemble, stream in ((1.0, cfg.ensemble, streams.noise_a), (0.0, gauss, streams.noise_g)):
                if t not in cfg.t_grid:
                    continue
                op = build_spiked(sample_wigner(n, ensemble, stream), spike, u0)
                pure = phi_average(run_onsager(op, [den] * max(cfg.K, 1), u0, cfg.K), cfg.phi, cfg.K)
                got = phi.get((n, trial, t), "")
                if got == "" or float(got) != pure:
                    failures.append(f"n={n} trial={trial} t={t}: phi {got!r} differs from the pure orbit {pure!r}")
    return failures


def check_power_bound(config, rows):
    bad = [r for r in rows if r["status"] != "ok" or r["holds"] != "1"]
    return [f"bound fails on {len(bad)} of {len(rows)} instances"] if bad else []


CHECKS = {
    "bbp": check_bbp,
    "universality": check_universality,
    "interpolation": check_interpolation,
    "power_bound": check_power_bound,
}


def check(workload, config, rows):
    """Failure messages for the records of one run of ``workload`` with ``config``."""
    attempted, _ = trial_outcomes(rows, workload.trial_key)
    failures = []
    if attempted != workload.trials():
        failures.append(f"{attempted} trials in the records, expected {workload.trials()}")
    return failures + CHECKS[config["experiment"]](config, rows)
