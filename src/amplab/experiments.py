"""Experiment orchestration: per-trial coupling, summaries, and decay fitting.

Every runner hands one trial body to ``_run_grid``, which walks the (gamma, n,
trial) grid and builds every record row: a body returns only the fields it
measures, and the grid adds the key fields, the status and None in every
column left unset. Each trial derives its own random streams from
(master_seed, trial index), so trials are independent tasks; with threads > 1
they run on a pool whose map keeps the task order, so the output does not
depend on scheduling. A trial that raises a library error (``AmpLabError``) or
an ``ArithmeticError`` such as ``FloatingPointError`` -- while sampling or
later -- is recorded with its error class in the status column and excluded
from summaries, which count it separately; any other exception is a bug and
ends the run.

Every trial draws its noise into the run's ``_NoiseScratch``, which
``_run_grid`` creates and passes to each trial body, so each worker thread
reuses its buffers from trial to trial and faults their pages in once. A
matrix that a trial applies a few times is packed (slot 0, and slot 1 for
interpolation's G; universality reduces G's orbit to phi_g before A is drawn
into the same buffer). One that the gap check's Lanczos solve applies 100+
times (bbp and spectral-init state_evolution) is dense Fortran-order, twice
the packed size, because the threaded BLAS apply outruns the packed one.
bbp and spectral-init AMP both start from ``_spectral_start``.

power_bound runs its trials in stacks (see ``_run_grid``): a stack's
instances are drawn first and decomposed by one stacked Jacobi call, whose
NumPy calls each serve the whole stack, and then each trial runs its power
method on the prepared eigendata. A stack is capped at JACOBI_STACK_BYTES of
one matrix copy per member, so it stays in cache. A member that does not
converge gets its own NumericalFailureError; an error raised while the stack
is drawn or decomposed becomes the status of every trial of that stack.
"""

import itertools
import math
import threading

import numpy as np

from .engine import phi_average, phi_pair_average, run_generalized, run_onsager
from .ensembles import (
    EnsembleSpec,
    InterpolatedNoise,
    SpikeSpec,
    build_spiked,
    derive_streams,
    sample_prior,
    sample_wigner,
)
from .errors import AmpLabError, DegenerateInputError, DivergenceError, PreconditionError, RejectedInputError
from .linalg import (
    SymmetricMatrix,
    jacobi_eigendecomp,  # not called here; bench/spans.py traces it under this module's name
    jacobi_eigendecomp_stack,
    packed_diagonal_indices,
    packed_length,
)
from .spectral import GAP_MARGIN, gap_check, power_bound_rhs, power_method, resolve_power_depth, spectral_init
from .state_evolution import (
    SEParams,
    bayes_tanh_schedule,
    se_covariance,
    se_predict_phi,
    se_spiked,
)

# concentration fixes (u0, Z) per n-group; group streams live far away from the
# per-trial index range so the two can never collide
_GROUP_STREAM_OFFSET = 1 << 40

# power_bound's cap on the bytes of one copy of a Jacobi stack, so that the stack's four copies
# (A, V, scratch, rotations) stay in cache: 8 matrices at n = 64, one at n = 256
JACOBI_STACK_BYTES = 1 << 18

# errors that turn a trial into status rows instead of ending the run; ArithmeticError
# covers FloatingPointError (a LAPACK failure in amplab's own calls is a NumericalFailureError)
_TRIAL_ERRORS = (AmpLabError, ArithmeticError)

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


def _run_grid(cfg, one_trial, leading_axes=(), failure_rows=({},), stacked=None):
    """Every record row of the experiment, sorted; the only place rows are built.

    The keys are product(*leading_axes, n_grid, range(trials)); a key's
    position in that product is its trial index, from which its streams
    derive. one_trial(streams, scratch, *key) returns a list of dicts of what
    it measured, one per row; scratch is the run's _NoiseScratch, the only
    place a trial draws its noise into. Each row starts as None in every
    column, takes the key fields and status "ok", then the dict's fields. A
    trial that raises one of _TRIAL_ERRORS, sampling included, takes the
    entries of failure_rows instead, with the error class as status. Rows are
    sorted by the columns before "status"; pool.map already keeps the task
    order, so what the sort does is put a gamma_grid or t_grid given out of
    order in ascending order.

    With stacked = (size, prepare), the trials of each (*leading, n) run in
    stacks of consecutive trials, at most size(n) of them and few enough that
    every thread gets one: prepare(streams_list, scratch, n) returns one entry
    per trial of the stack, which one_trial takes as its last argument. prepare
    returns a trial's own error as its entry; should prepare raise one of
    _TRIAL_ERRORS, that error is the entry of every trial of the stack.
    """
    columns = COLUMNS[cfg.experiment]
    key_fields = columns[: columns.index("status")]
    keys = list(itertools.product(*leading_axes, cfg.n_grid, range(cfg.trials)))
    size, prepare = stacked or (lambda n: 1, None)
    scratch = _NoiseScratch()
    tasks = []  # runs of consecutive trial indices that share (*leading, n)
    for first in range(0, len(keys), cfg.trials):
        step = max(1, min(size(keys[first][-2]), -(-cfg.trials // cfg.threads)))
        last = first + cfg.trials
        tasks += [range(i, min(i + step, last)) for i in range(first, last, step)]

    def run(task):
        streams = [derive_streams(cfg.master_seed, index) for index in task]
        try:
            extra = [(e,) for e in prepare(streams, scratch, keys[task[0]][-2])] if prepare else [()] * len(task)
        except _TRIAL_ERRORS as exc:
            extra = [(exc,)] * len(task)
        rows = []
        for index, trial_streams, args in zip(task, streams, extra):
            key = keys[index]
            row = dict.fromkeys(columns)
            row.update(zip(key_fields, key), status="ok")
            try:
                measured = one_trial(trial_streams, scratch, *key, *args)
            except _TRIAL_ERRORS as exc:
                row["status"] = type(exc).__name__
                measured = failure_rows
            rows += [{**row, **fields} for fields in measured]
        return rows

    if cfg.threads <= 1:
        chunks = [run(task) for task in tasks]
    else:
        from concurrent.futures import ThreadPoolExecutor  # only here, so 1-worker runs never import it

        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            chunks = list(pool.map(run, tasks))
    rows = [row for chunk in chunks for row in chunk]
    rows.sort(key=lambda row: tuple(row[field] for field in key_fields))
    return rows


class _NoiseScratch(threading.local):
    """One run's packed or dense noise buffers by slot, each thread its own; see the module docstring."""

    def __init__(self):
        self.slots = {}

    def _buffer(self, slot, shape, order):
        if slot not in self.slots or self.slots[slot].shape != shape:
            self.slots.pop(slot, None)  # drop the old buffer before allocating the new one
            self.slots[slot] = np.empty(shape, order=order)
        return self.slots[slot]

    def packed(self, slot, n):
        """The float64 buffer of length n(n+1)/2 in slot; reallocated when n changes."""
        return self._buffer(slot, (packed_length(n),), "C")

    def dense(self, slot, n):
        """The Fortran-order float64 (n, n) buffer in slot; reallocated when n changes."""
        return self._buffer(slot, (n, n), "F")


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
        counts[key] = counts.get(key, 0) + (row["status"] != "ok")
    return counts


def _resolve_denoisers(cfg):
    """(denoiser list of length max(K,1), the bayes schedule's scalar SE track or None)."""
    base, se = cfg.denoiser.build(), None
    if base == "bayes":
        base, se = bayes_tanh_schedule(cfg.gamma, cfg.prior, cfg.K, cfg.quadrature())
    return [base] * max(cfg.K, 1), se


def _gaussian_twin(ensemble):
    return EnsembleSpec("gaussian", diagonal_policy=ensemble.diagonal_policy)


def _run_independent(cfg, noise, denoisers, u0, block=None):
    """The configured orbit from u0, or a block of that many orbits from u0 for a block noise operator."""
    run = run_generalized if cfg.engine == "generalized" else run_onsager
    v0 = u0 if block is None else np.broadcast_to(u0, (block, len(u0)))
    return run(build_spiked(noise, SpikeSpec.rank_one(cfg.gamma), u0), denoisers, v0, cfg.K)


def _spectral_start(op, u0, power_depth):
    """(gap, depth): op's gap check from u0 and the depth the spectral init runs at."""
    gap = gap_check(op, y0=u0)
    return gap, resolve_power_depth(op, power_depth, gap)


def run_spectral_amp(op, denoisers, u0, power_depth, K):
    """Memory-corrected orbit started from the sign-corrected top eigenvector.

    Refuses to run (PreconditionError) when u0 is zero, the eigenvalue gap
    check fails or the eigenvector has zero overlap with u0, mirroring the
    hypotheses under which the initialization is defined.
    """
    try:
        gap, depth = _spectral_start(op, u0, power_depth)
        if not gap.passed:
            raise PreconditionError(
                f"eigenvalue gap check failed: lambda1={gap.lambda1:.6g}, "
                f"lambda2_abs={gap.lambda2_abs:.6g}, margin={GAP_MARGIN}"
            )
        psi = spectral_init(op, gap, depth)
    except DegenerateInputError as exc:
        raise PreconditionError(f"spectral initialization refused: {exc}") from exc
    del gap  # the Lanczos basis is freed before the orbit allocates
    return run_onsager(op, denoisers, psi, K)


def run_universality(cfg):
    """Trial-wise comparison of the configured ensemble against the Gaussian twin."""
    denoisers, _ = _resolve_denoisers(cfg)
    gauss = _gaussian_twin(cfg.ensemble)

    def one_trial(streams, scratch, n, trial):
        u0 = sample_prior(n, cfg.prior, streams.shared)

        def phi_on(ensemble, stream):
            mat = sample_wigner(n, ensemble, stream, out=scratch.packed(0, n))
            orbit = _run_independent(cfg, mat, denoisers, u0)
            return phi_average(orbit, cfg.phi, cfg.K)

        phi_g = phi_on(gauss, streams.noise_g)
        phi_a = phi_on(cfg.ensemble, streams.noise_a)
        return [{"phi_a": phi_a, "phi_g": phi_g, "abs_diff": abs(phi_a - phi_g)}]

    rows = _run_grid(cfg, one_trial)
    summaries = _summarize(rows, "n", "abs_diff")
    extras = {}
    positive = [(s["group"], s["mean"]) for s in summaries if s["mean"] > 0]
    if len(positive) >= 2:
        extras["decay_slope"] = fit_decay(positive)
    return rows, {"group_by": "n", "groups": summaries, "extras": extras}


def run_state_evolution(cfg):
    """Empirical orbit observables against the deterministic predictions.

    Both routes predict E phi(w, mu_k w + sigma_k g) and mu_k^2 + sigma_k^2 from
    a (mu_k, sigma_k) track: the scalar recursion's for spectral init, and for
    independent init (1, 0) at k = 0, where V_0 = U0, then (0, sqrt(Sigma_kk))
    from the covariance recursion, whose Gaussian block is independent of U0.
    """
    quad = cfg.quadrature()
    denoisers, se = _resolve_denoisers(cfg)

    if cfg.init == "independent":
        sd = np.sqrt(np.diag(se_covariance(denoisers, cfg.K, quad)))
        sd[0] = 0.0
        se = SEParams(mu=np.eye(1, cfg.K + 1)[0], sigma=sd)
    elif se is None:
        se = se_spiked(cfg.gamma, cfg.prior, denoisers[0], cfg.K, quad)
    phi_pred = [se_predict_phi(cfg.phi, k, se, cfg.prior, quad) for k in range(cfg.K + 1)]
    sm_pred = [float(se.mu[k] ** 2 + se.sigma[k] ** 2) for k in range(cfg.K + 1)]
    # every row of k carries the predictions it is held to, a failed trial's rows too
    predictions = [
        {"k": k, "phi_prediction": phi_pred[k], "second_moment_prediction": sm_pred[k]}
        for k in range(cfg.K + 1)
    ]

    def one_trial(streams, scratch, n, trial):
        u0 = sample_prior(n, cfg.prior, streams.shared)
        if cfg.init == "spectral":
            mat = sample_wigner(n, cfg.ensemble, streams.noise_a, out=scratch.dense(0, n))
            op = build_spiked(mat, SpikeSpec.rank_one(cfg.gamma), u0)
            orbit = run_spectral_amp(op, denoisers, u0, cfg.power_depth, cfg.K)
        else:
            mat = sample_wigner(n, cfg.ensemble, streams.noise_a, out=scratch.packed(0, n))
            orbit = _run_independent(cfg, mat, denoisers, u0)
        rows = []
        for pred, vk in zip(predictions, orbit.iterates):
            emp = phi_pair_average(cfg.phi, u0, vk)  # an independent orbit starts at u0 itself
            rows.append(
                {
                    **pred,
                    "phi_empirical": emp,
                    "phi_abs_err": abs(emp - pred["phi_prediction"]),
                    "second_moment_empirical": float(np.mean(vk * vk)),
                }
            )
        return rows

    rows = _run_grid(cfg, one_trial, failure_rows=predictions)
    sm_errors = [
        {**r, "second_moment_abs_err": abs(r["second_moment_empirical"] - r["second_moment_prediction"])}
        for r in rows
        if r["status"] == "ok"
    ]
    summaries = _summarize(rows, "k", "phi_abs_err")
    summaries += _summarize(sm_errors, "k", "second_moment_abs_err")
    return rows, {"group_by": "k", "groups": summaries, "extras": {}}


def run_bbp(cfg):
    """Top eigenvalue, max(|lambda2|, |lambda_min|), and eigenvector overlap per SNR."""

    def one_trial(streams, scratch, gamma, n, trial):
        u0 = sample_prior(n, cfg.prior, streams.shared)
        mat = sample_wigner(n, cfg.ensemble, streams.noise_a, out=scratch.dense(0, n))
        op = build_spiked(mat, SpikeSpec.rank_one(gamma), u0)
        gap, depth = _spectral_start(op, u0, cfg.power_depth)
        try:
            overlap, flag = abs(float(np.dot(spectral_init(op, gap, depth), u0))) / n, 0
        except DegenerateInputError:  # the sign is undefined: no overlap to record
            overlap, flag = 0.0, 1
        return [
            {
                "lambda1": gap.lambda1,
                "lambda2_abs": gap.lambda2_abs,
                "gap_pass": int(gap.passed),
                "overlap": overlap,
                "overlap_flag": flag,
            }
        ]

    rows = _run_grid(cfg, one_trial, leading_axes=(cfg.gamma_grid,))
    summaries = []
    for fieldname in ("lambda1", "overlap", "gap_pass"):
        summaries += _summarize(rows, "gamma", fieldname)
    return rows, {"group_by": "gamma", "groups": summaries, "extras": {}}


def run_interpolation(cfg):
    """Orbit observable along the path sqrt(t) A + sqrt(1-t) G, applied as two matvecs.

    Each trial runs the whole t_grid as one orbit block, row r at t_grid[r].
    Every row starts at u0, so the first step applies A and G once for all
    t. The rows at t = 1 and t = 0 apply A and G alone, so they reproduce
    the pure runs exactly. Rows never mix: a row that diverges fails its own
    t, and the others rerun without it to the same bytes.
    """
    denoisers, _ = _resolve_denoisers(cfg)
    gauss = _gaussian_twin(cfg.ensemble)

    def one_trial(streams, scratch, n, trial):
        u0 = sample_prior(n, cfg.prior, streams.shared)
        mat_a = sample_wigner(n, cfg.ensemble, streams.noise_a, out=scratch.packed(0, n))
        mat_g = sample_wigner(n, gauss, streams.noise_g, out=scratch.packed(1, n))
        rows = [{"t": t} for t in cfg.t_grid]
        live = rows
        while live:
            grid = [row["t"] for row in live]
            try:
                orbit = _run_independent(cfg, InterpolatedNoise(mat_a, mat_g, grid), denoisers, u0, len(grid))
            except DivergenceError as exc:
                for r in exc.rows:
                    live[r]["status"] = type(exc).__name__
                live = [row for r, row in enumerate(live) if r not in exc.rows]
                continue
            for row, phi in zip(live, phi_average(orbit, cfg.phi, cfg.K).tolist()):
                row["phi"] = phi
            break
        return rows

    rows = _run_grid(cfg, one_trial, failure_rows=[{"t": t} for t in cfg.t_grid])
    summaries = _summarize(rows, "t", "phi")
    return rows, {"group_by": "t", "groups": summaries, "extras": {}}


def run_concentration(cfg):
    """Spread of the Gaussian-orbit observable with (u0, Z) frozen per n-group."""
    denoisers, _ = _resolve_denoisers(cfg)

    group_u0 = {}
    for n_idx, n in enumerate(cfg.n_grid):
        group_streams = derive_streams(cfg.master_seed, _GROUP_STREAM_OFFSET + n_idx)
        group_u0[n] = sample_prior(n, cfg.prior, group_streams.shared)

    def one_trial(streams, scratch, n, trial):
        u0 = group_u0[n]
        mat = sample_wigner(n, cfg.ensemble, streams.noise_g, out=scratch.packed(0, n))
        orbit = _run_independent(cfg, mat, denoisers, u0)
        return [{"phi": phi_average(orbit, cfg.phi, cfg.K)}]

    rows = _run_grid(cfg, one_trial)
    summaries = _summarize(rows, "n", "phi")
    extras = {}
    if cfg.trials == 1:
        extras["degenerate"] = "single trial per group; std is 0 by convention"
    return rows, {"group_by": "n", "groups": summaries, "extras": extras}


def run_power_bound(cfg):
    """Geometric power-method bound checked against exact Jacobi eigendata, decomposed in stacks.

    Each sampled matrix is scaled to the bulk and its diagonal shifted so the
    spectrum is positive and the top eigenvalue dominates in magnitude; lhs is
    the distance of the depth-step power iterate from the sign-aligned top
    eigenvector.
    """
    depth = 20 if cfg.power_depth == "auto" else int(cfg.power_depth)

    def stack_size(n):
        return JACOBI_STACK_BYTES // (8 * (n + n % 2) ** 2)

    def prepare(streams_list, scratch, n):
        instances = []
        for streams in streams_list:
            shifted = sample_wigner(n, cfg.ensemble, streams.noise_a, out=scratch.packed(0, n)).entries / math.sqrt(n)
            shifted[packed_diagonal_indices(n)] += cfg.diag_shift
            y0 = streams.shared.standard_normal(n)
            instances.append((SymmetricMatrix(n, shifted), y0 / np.linalg.norm(y0)))
        eigen = jacobi_eigendecomp_stack([matrix for matrix, _ in instances], tol=1e-12)
        return [e if isinstance(e, Exception) else (*instance, e) for instance, e in zip(instances, eigen)]

    def one_trial(streams, scratch, n, trial, instance):
        if isinstance(instance, Exception):
            raise instance
        matrix, y0, eigen = instance
        y = power_method(matrix, y0, depth)
        top = eigen.eigenvectors[:, 0]
        lhs = float(np.linalg.norm(y - math.copysign(1.0, float(np.dot(top, y0))) * top))
        rhs = power_bound_rhs(eigen, y0, depth)
        return [{"lhs": lhs, "rhs": rhs, "holds": int(lhs <= rhs + 1e-8)}]

    rows = _run_grid(cfg, one_trial, stacked=(stack_size, prepare))
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
