"""Experiment orchestration: per-trial coupling, summaries, and decay fitting.

Every trial derives its own random streams from (master_seed, trial index), so
trials are independent tasks; with threads > 1 they run on a pool and the
collector orders rows by (group key, trial index) before emission, making the
output independent of scheduling. Trials that raise a library error are
recorded with their error class in the status column and excluded from
summaries, which count them separately.
"""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .engine import (
    phi_average,
    phi_pair_average,
    run_generalized,
    run_onsager,
    run_spectral_amp,
)
from .ensembles import (
    EnsembleSpec,
    InterpolatedNoise,
    SpikeSpec,
    build_spiked,
    derive_streams,
    sample_prior,
    sample_wigner,
)
from .errors import AmpLabError, RejectedInputError
from .linalg import SymmetricMatrix, jacobi_eigendecomp, packed_diagonal_indices
from .spectral import gap_check, power_method, resolve_power_depth, spectral_init
from .state_evolution import (
    bayes_tanh_schedule,
    covariance_phi_prediction,
    se_covariance,
    se_predict_phi,
    se_spiked,
)

# concentration fixes (u0, Z) per n-group; group streams live far away from the
# per-trial index range so the two can never collide
_GROUP_STREAM_OFFSET = 1 << 40

COLUMNS = {
    "universality": ("n", "trial", "status", "phi_a", "phi_g", "abs_diff"),
    "state_evolution": (
        "n",
        "trial",
        "k",
        "status",
        "phi_empirical",
        "phi_prediction",
        "phi_abs_err",
        "second_moment_empirical",
        "second_moment_prediction",
    ),
    "bbp": (
        "gamma",
        "n",
        "trial",
        "status",
        "lambda1",
        "lambda2_abs",
        "gap_pass",
        "overlap",
        "overlap_flag",
    ),
    "interpolation": ("n", "trial", "t", "status", "phi"),
    "concentration": ("n", "trial", "status", "phi"),
    "power_bound": ("n", "trial", "status", "lhs", "rhs", "holds"),
}


def fit_decay(points):
    """Least-squares slope of log(value) against log(n)."""
    points = list(points)
    ns = [p[0] for p in points]
    values = [p[1] for p in points]
    if len(set(ns)) < 2:
        raise RejectedInputError("need at least 2 distinct n values")
    if any(v <= 0 for v in values):
        raise RejectedInputError("decay fit requires positive values")
    x = np.log(np.asarray(ns, dtype=np.float64))
    y = np.log(np.asarray(values, dtype=np.float64))
    xc = x - x.mean()
    return float(np.dot(xc, y - y.mean()) / np.dot(xc, xc))


def _run_tasks(tasks, threads):
    if threads <= 1:
        results = [task() for task in tasks]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda task: task(), tasks))
    rows = []
    for chunk in results:
        rows.extend(chunk)
    return rows


def _summarize(rows, group_field, value_field):
    """One summary entry per group: mean, sample std, standard error, count."""
    groups = {}
    for row in rows:
        if row["status"] != "ok":
            continue
        groups.setdefault(row[group_field], []).append(row[value_field])
    out = []
    for key in sorted(groups):
        vals = np.asarray(groups[key], dtype=np.float64)
        count = len(vals)
        std = float(np.std(vals, ddof=1)) if count > 1 else 0.0
        out.append(
            {
                "group": key,
                "field": value_field,
                "mean": float(np.mean(vals)),
                "std": std,
                "stderr": std / math.sqrt(count) if count > 1 else 0.0,
                "count": count,
            }
        )
    return out


def _failure_counts(rows, group_field):
    counts = {}
    for row in rows:
        key = str(row[group_field])
        counts.setdefault(key, 0)
        if row["status"] != "ok":
            counts[key] += 1
    return counts


def _resolve_denoisers(cfg):
    """(denoiser list of length max(K,1), scalar SE track or None)."""
    quad = cfg.quadrature()
    base = cfg.build_denoiser()
    if base == "bayes":
        den, se = bayes_tanh_schedule(cfg.gamma, cfg.prior, cfg.K, quad)
        return [den] * max(cfg.K, 1), se
    se = None
    if cfg.init == "spectral" and cfg.gamma > 1.0 and base.newest_only():
        se = se_spiked(cfg.gamma, cfg.prior, base, cfg.K, quad)
    return [base] * max(cfg.K, 1), se


def _gaussian_twin(ensemble):
    return EnsembleSpec("gaussian", diagonal_policy=ensemble.diagonal_policy)


def _run_independent(cfg, op, denoisers, u0):
    if cfg.engine == "generalized":
        return run_generalized(op, denoisers, u0, cfg.K)
    return run_onsager(op, denoisers, u0, cfg.K)


def run_universality(cfg):
    """Trial-wise comparison of the configured ensemble against the Gaussian twin."""
    denoisers, _ = _resolve_denoisers(cfg)
    spike = SpikeSpec.rank_one(cfg.gamma)
    gauss = _gaussian_twin(cfg.ensemble)

    def make_task(n_idx, n, trial):
        index = n_idx * cfg.trials + trial

        def task():
            streams = derive_streams(cfg.master_seed, index)
            u0 = sample_prior(n, cfg.prior, streams.shared)
            if cfg.couple_streams:
                # diagnostic: the A side replays the very G stream, forcing A == G
                a_stream = derive_streams(cfg.master_seed, index).noise_g
            else:
                a_stream = streams.noise_a
            mat_a = sample_wigner(n, cfg.ensemble, a_stream)
            mat_g = sample_wigner(n, gauss, streams.noise_g)
            row = {"n": n, "trial": trial, "status": "ok"}
            try:
                orbit_a = _run_independent(cfg, build_spiked(mat_a, spike, u0), denoisers, u0)
                orbit_g = _run_independent(cfg, build_spiked(mat_g, spike, u0), denoisers, u0)
                phi_a = phi_average(orbit_a, cfg.phi, cfg.K)
                phi_g = phi_average(orbit_g, cfg.phi, cfg.K)
                row.update(phi_a=phi_a, phi_g=phi_g, abs_diff=abs(phi_a - phi_g))
            except AmpLabError as exc:
                row.update(status=type(exc).__name__, phi_a=None, phi_g=None, abs_diff=None)
            return [row]

        return task

    tasks = [
        make_task(n_idx, n, trial)
        for n_idx, n in enumerate(cfg.n_grid)
        for trial in range(cfg.trials)
    ]
    rows = _run_tasks(tasks, cfg.threads)
    rows.sort(key=lambda r: (r["n"], r["trial"]))
    summaries = _summarize(rows, "n", "abs_diff")
    extras = {}
    positive = [(s["group"], s["mean"]) for s in summaries if s["mean"] > 0]
    if len(positive) >= 2:
        extras["decay_slope"] = fit_decay(positive)
    return rows, {"group_by": "n", "groups": summaries, "extras": extras}


def run_state_evolution(cfg):
    """Empirical orbit observables against the deterministic predictions.

    Spectral init pairs with the scalar (mu_k, sigma_k) recursion; independent
    init pairs with the Gaussian covariance recursion.
    """
    quad = cfg.quadrature()
    denoisers, se = _resolve_denoisers(cfg)
    spike = SpikeSpec.rank_one(cfg.gamma)

    if cfg.init == "spectral":
        if se is None:
            se = se_spiked(cfg.gamma, cfg.prior, denoisers[0], cfg.K, quad)
        phi_pred = [se_predict_phi(cfg.phi, k, se, cfg.prior, quad) for k in range(cfg.K + 1)]
        sm_pred = [float(se.mu[k] ** 2 + se.sigma[k] ** 2) for k in range(cfg.K + 1)]
    else:
        secov = se_covariance(denoisers, cfg.prior, max(cfg.K, 1), quad)
        phi_pred = [
            covariance_phi_prediction(secov, cfg.prior, cfg.phi, k, quad)
            for k in range(cfg.K + 1)
        ]
        sm_pred = [1.0] + [float(secov.sigma_matrix[k - 1, k - 1]) for k in range(1, cfg.K + 1)]

    def make_task(n_idx, n, trial):
        index = n_idx * cfg.trials + trial

        def task():
            streams = derive_streams(cfg.master_seed, index)
            u0 = sample_prior(n, cfg.prior, streams.shared)
            mat = sample_wigner(n, cfg.ensemble, streams.noise_a)
            op = build_spiked(mat, spike, u0)
            rows = []
            try:
                if cfg.init == "spectral":
                    orbit = run_spectral_amp(op, denoisers, u0, cfg.power_depth, cfg.K)
                else:
                    orbit = _run_independent(cfg, op, denoisers, u0)
                for k in range(cfg.K + 1):
                    vk = orbit.iterates[k]
                    if cfg.init == "spectral":
                        emp = phi_pair_average(cfg.phi, u0, vk)
                    else:
                        emp = phi_average(orbit, cfg.phi, k)
                    rows.append(
                        {
                            "n": n,
                            "trial": trial,
                            "k": k,
                            "status": "ok",
                            "phi_empirical": emp,
                            "phi_prediction": phi_pred[k],
                            "phi_abs_err": abs(emp - phi_pred[k]),
                            "second_moment_empirical": float(np.mean(vk * vk)),
                            "second_moment_prediction": sm_pred[k],
                        }
                    )
            except AmpLabError as exc:
                for k in range(cfg.K + 1):
                    rows.append(
                        {
                            "n": n,
                            "trial": trial,
                            "k": k,
                            "status": type(exc).__name__,
                            "phi_empirical": None,
                            "phi_prediction": phi_pred[k],
                            "phi_abs_err": None,
                            "second_moment_empirical": None,
                            "second_moment_prediction": sm_pred[k],
                        }
                    )
            return rows

        return task

    tasks = [
        make_task(n_idx, n, trial)
        for n_idx, n in enumerate(cfg.n_grid)
        for trial in range(cfg.trials)
    ]
    rows = _run_tasks(tasks, cfg.threads)
    rows.sort(key=lambda r: (r["n"], r["trial"], r["k"]))
    sm_errors = [
        {
            "k": r["k"],
            "status": "ok",
            "second_moment_abs_err": abs(
                r["second_moment_empirical"] - r["second_moment_prediction"]
            ),
        }
        for r in rows
        if r["status"] == "ok"
    ]
    summaries = _summarize(rows, "k", "phi_abs_err")
    summaries += _summarize(sm_errors, "k", "second_moment_abs_err")
    return rows, {"group_by": "k", "groups": summaries, "extras": {}}


def run_bbp(cfg):
    """Top eigenvalue, max(|lambda2|, |lambda_min|), and eigenvector overlap per SNR."""
    spike_cache = {g: SpikeSpec.rank_one(g) for g in cfg.gamma_grid}

    def make_task(g_idx, gamma, n_idx, n, trial):
        index = (g_idx * len(cfg.n_grid) + n_idx) * cfg.trials + trial

        def task():
            streams = derive_streams(cfg.master_seed, index)
            u0 = sample_prior(n, cfg.prior, streams.shared)
            mat = sample_wigner(n, cfg.ensemble, streams.noise_a)
            op = build_spiked(mat, spike_cache[gamma], u0)
            row = {"gamma": gamma, "n": n, "trial": trial, "status": "ok"}
            try:
                gc = gap_check(op, y0=u0 / np.linalg.norm(u0))
                depth = resolve_power_depth(op, cfg.power_depth, gc)
                try:
                    psi = spectral_init(op, u0, depth)
                    overlap = abs(float(np.dot(psi, u0))) / n
                    flag = 0
                except AmpLabError:
                    overlap = 0.0
                    flag = 1
                row.update(
                    lambda1=gc.lambda1,
                    lambda2_abs=gc.lambda2_abs,
                    gap_pass=int(gc.passed),
                    overlap=overlap,
                    overlap_flag=flag,
                )
            except AmpLabError as exc:
                row.update(
                    status=type(exc).__name__,
                    lambda1=None,
                    lambda2_abs=None,
                    gap_pass=None,
                    overlap=None,
                    overlap_flag=None,
                )
            return [row]

        return task

    tasks = [
        make_task(g_idx, gamma, n_idx, n, trial)
        for g_idx, gamma in enumerate(cfg.gamma_grid)
        for n_idx, n in enumerate(cfg.n_grid)
        for trial in range(cfg.trials)
    ]
    rows = _run_tasks(tasks, cfg.threads)
    rows.sort(key=lambda r: (r["gamma"], r["n"], r["trial"]))
    summaries = []
    for fieldname in ("lambda1", "overlap", "gap_pass"):
        summaries += _summarize(rows, "gamma", fieldname)
    return rows, {"group_by": "gamma", "groups": summaries, "extras": {}}


def run_interpolation(cfg):
    """Orbit observable along the path sqrt(t) A + sqrt(1-t) G, applied as two matvecs."""
    denoisers, _ = _resolve_denoisers(cfg)
    spike = SpikeSpec.rank_one(cfg.gamma)
    gauss = _gaussian_twin(cfg.ensemble)

    def make_task(n_idx, n, trial):
        index = n_idx * cfg.trials + trial

        def task():
            streams = derive_streams(cfg.master_seed, index)
            u0 = sample_prior(n, cfg.prior, streams.shared)
            mat_a = sample_wigner(n, cfg.ensemble, streams.noise_a)
            mat_g = sample_wigner(n, gauss, streams.noise_g)
            rows = []
            for t in cfg.t_grid:
                row = {"n": n, "trial": trial, "t": t, "status": "ok"}
                # the endpoints run on A and G themselves, so they reproduce the
                # pure runs exactly; interior t never forms the mixed matrix
                if t == 1.0:
                    noise = mat_a
                elif t == 0.0:
                    noise = mat_g
                else:
                    noise = InterpolatedNoise(mat_a, mat_g, t)
                try:
                    orbit = _run_independent(cfg, build_spiked(noise, spike, u0), denoisers, u0)
                    row["phi"] = phi_average(orbit, cfg.phi, cfg.K)
                except AmpLabError as exc:
                    row.update(status=type(exc).__name__, phi=None)
                rows.append(row)
            return rows

        return task

    tasks = [
        make_task(n_idx, n, trial)
        for n_idx, n in enumerate(cfg.n_grid)
        for trial in range(cfg.trials)
    ]
    rows = _run_tasks(tasks, cfg.threads)
    rows.sort(key=lambda r: (r["n"], r["trial"], r["t"]))
    summaries = _summarize(rows, "t", "phi")
    return rows, {"group_by": "t", "groups": summaries, "extras": {}}


def run_concentration(cfg):
    """Spread of the Gaussian-orbit observable with (u0, Z) frozen per n-group."""
    denoisers, _ = _resolve_denoisers(cfg)
    spike = SpikeSpec.rank_one(cfg.gamma)

    group_u0 = {}
    for n_idx, n in enumerate(cfg.n_grid):
        group_streams = derive_streams(cfg.master_seed, _GROUP_STREAM_OFFSET + n_idx)
        group_u0[n] = sample_prior(n, cfg.prior, group_streams.shared)

    def make_task(n_idx, n, trial):
        index = n_idx * cfg.trials + trial

        def task():
            streams = derive_streams(cfg.master_seed, index)
            u0 = group_u0[n]
            mat = sample_wigner(n, cfg.ensemble, streams.noise_g)
            row = {"n": n, "trial": trial, "status": "ok"}
            try:
                orbit = _run_independent(cfg, build_spiked(mat, spike, u0), denoisers, u0)
                row["phi"] = phi_average(orbit, cfg.phi, cfg.K)
            except AmpLabError as exc:
                row.update(status=type(exc).__name__, phi=None)
            return [row]

        return task

    tasks = [
        make_task(n_idx, n, trial)
        for n_idx, n in enumerate(cfg.n_grid)
        for trial in range(cfg.trials)
    ]
    rows = _run_tasks(tasks, cfg.threads)
    rows.sort(key=lambda r: (r["n"], r["trial"]))
    summaries = _summarize(rows, "n", "phi")
    extras = {}
    if cfg.trials == 1:
        extras["degenerate"] = "single trial per group; std is 0 by convention"
    return rows, {"group_by": "n", "groups": summaries, "extras": extras}


def run_power_bound(cfg):
    """Geometric power-method bound checked against exact Jacobi eigendata."""
    depth = 20 if cfg.power_depth == "auto" else int(cfg.power_depth)

    def make_task(n_idx, n, trial):
        index = n_idx * cfg.trials + trial

        def task():
            streams = derive_streams(cfg.master_seed, index)
            mat = sample_wigner(n, cfg.ensemble, streams.noise_a)
            # scale to the bulk and shift the diagonal so the spectrum is
            # positive and the top eigenvalue dominates in magnitude
            entries = mat.entries / math.sqrt(n)
            shifted = entries.copy()
            shifted[packed_diagonal_indices(n)] += cfg.diag_shift
            instance = SymmetricMatrix(n, shifted)
            y0 = streams.shared.standard_normal(n)
            y0 /= np.linalg.norm(y0)
            row = {"n": n, "trial": trial, "status": "ok"}
            try:
                eig = jacobi_eigendecomp(instance, tol=1e-12)
                result = power_method(instance, y0, depth, eigen=eig)
                top = eig.eigenvectors[:, 0]
                aligned = math.copysign(1.0, float(np.dot(top, y0))) * top
                lhs = float(np.linalg.norm(result.vector - aligned))
                row.update(lhs=lhs, rhs=result.bound, holds=int(lhs <= result.bound + 1e-8))
            except AmpLabError as exc:
                row.update(status=type(exc).__name__, lhs=None, rhs=None, holds=None)
            return [row]

        return task

    tasks = [
        make_task(n_idx, n, trial)
        for n_idx, n in enumerate(cfg.n_grid)
        for trial in range(cfg.trials)
    ]
    rows = _run_tasks(tasks, cfg.threads)
    rows.sort(key=lambda r: (r["n"], r["trial"]))
    summaries = _summarize(rows, "n", "holds") + _summarize(rows, "n", "lhs")
    return rows, {"group_by": "n", "groups": summaries, "extras": {}}


_RUNNERS = {
    "universality": run_universality,
    "state_evolution": run_state_evolution,
    "bbp": run_bbp,
    "interpolation": run_interpolation,
    "concentration": run_concentration,
    "power_bound": run_power_bound,
}


def run_experiment(cfg):
    """Dispatch to the configured experiment.

    Returns (columns, rows, summary_payload); the payload carries the grouped
    statistics, per-group failure counts, and experiment-specific extras.
    """
    rows, summary = _RUNNERS[cfg.experiment](cfg)
    summary["experiment"] = cfg.experiment
    summary["failures"] = _failure_counts(rows, summary["group_by"])
    return COLUMNS[cfg.experiment], rows, summary
