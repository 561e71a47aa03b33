"""Per-layer metrics from the traced run, and the end-to-end metric each should move.

Every timing is reported as its p50 under its own name, plus ``.tail`` (the
highest of the 90th, 99th and 99.9th percentiles with at least 10 samples
beyond it, or the p50 again with ``.tail_pct`` 50 when there are fewer than
20 samples), ``.tail_pct`` and ``.samples``. Per-call timings are taken at
the workload's largest n. A metric of a layer the workload never calls reads 0.
"""

import math

import numpy as np

from bench.spans import ROOT_SPAN, layer_of, self_times

LAYERS = ("cli", "config", "experiments", "ensembles", "linalg", "spectral", "engine",
          "nonlinear", "state_evolution", "reporting")

_TAIL_PCTS = (99.9, 99.0, 90.0)
_SPECTRAL_FNS = ("power_depth", "gap_check", "spectral_init")
_GAP_MARGIN = 0.05  # gap_check's default margin

_BBP = "trials_per_s on bbp_spectral"
_ORBITS = "trials_per_s on universality_sweep and interpolation_path"
_GUARD = "none (accuracy guard)"

# (name, unit, better, is a timing, end-to-end metric it should move and where).
# A bias reads better higher because the known bias of the |lambda2| estimate is low.
METRICS = (
    ("ensembles.sample_wigner.ms", "ms", "lower", True,
     _ORBITS + "; no change on bbp_spectral and power_bound_oracle"),
    ("ensembles.sample_wigner.calls", "count", "lower", False, "same as ensembles.sample_wigner.ms"),
    ("ensembles.sample_wigner.mentries_per_s", "M/s", "higher", False, "same as ensembles.sample_wigner.ms"),
    ("ensembles.spiked_apply.calls_per_trial", "count", "lower", False,
     "trials_per_s mainly on bbp_spectral; ~17-19% on universality_sweep and interpolation_path"),
    ("ensembles.spiked_apply.ms", "ms", "lower", True, "same as ensembles.spiked_apply.calls_per_trial"),
    ("ensembles.matrix_mb_computed", "MiB", "lower", False, "peak_rss_mb on every workload"),
    ("linalg.sym_matvec.ms", "ms", "lower", True, _BBP),
    ("linalg.sym_matvec.gbps_computed", "GB/s", "higher", False, _BBP + " (computed bytes, read from L3 at n=1000)"),
    ("linalg.jacobi.s_per_call", "s", "lower", True, "trials_per_s on power_bound_oracle only"),
    ("linalg.jacobi.recon_rel_max", "ratio", "lower", False, _GUARD),
    ("linalg.jacobi.ortho_max", "ratio", "lower", False, _GUARD),
    ("spectral.power_depth.applies_per_trial", "count", "lower", False, _BBP),
    ("spectral.power_depth.s_per_trial", "s", "lower", True, _BBP),
    ("spectral.power_depth.value", "count", "lower", False, _BBP),
    ("spectral.gap_check.applies_per_trial", "count", "lower", False, _BBP),
    ("spectral.gap_check.s_per_trial", "s", "lower", True, _BBP),
    ("spectral.spectral_init.applies_per_trial", "count", "lower", False, _BBP),
    ("spectral.spectral_init.s_per_trial", "s", "lower", True, _BBP),
    ("spectral.lambda1_abs_err", "1", "lower", False, _GUARD),
    ("spectral.lambda1_bias", "1", "higher", False, _GUARD),
    ("spectral.lambda2_abs_err", "1", "lower", False, _GUARD),
    ("spectral.lambda2_bias", "1", "higher", False, _GUARD),
    ("spectral.gap_pass_flips", "count", "lower", False, _GUARD),
    ("engine.run_onsager.ms_per_step", "ms", "lower", True, "trials_per_s on interpolation_path and universality_sweep"),
    ("engine.run_onsager.self_s", "s", "lower", False, "trials_per_s on interpolation_path and universality_sweep"),
    ("nonlinear.denoiser_eval.s", "s", "lower", False, "trials_per_s on interpolation_path and universality_sweep"),
    ("nonlinear.denoiser_partial.s", "s", "lower", False, "trials_per_s on interpolation_path and universality_sweep"),
    ("state_evolution.bayes_tanh_schedule.s", "s", "lower", False,
     "trials_per_s on interpolation_path and universality_sweep, by ~1-4%"),
    ("experiments.self_s_per_trial", "s", "lower", False, "trials_per_s on interpolation_path (includes the t-mixing)"),
    ("experiments.trials_per_s_2w", "1/s", "higher", False,
     "itself: 2-worker throughput, one traced-run sample, no bound"),
    ("experiments.pool_efficiency", "ratio", "higher", False, "experiments.trials_per_s_2w on every workload"),
    ("reporting.write_s", "s", "lower", False, "trials_per_s by at most ~1% on every workload"),
    ("reporting.bytes", "count", "lower", False, "trials_per_s by at most ~1% on every workload"),
    ("cli.import_s", "s", "lower", False, "setup_s on every workload"),
    ("config.load_s", "s", "lower", False, "setup_s on every workload"),
    ("trace.overhead_pct", "%", "lower", False, "none (cost of the traced run itself)"),
    ("share.ensembles.spiked_apply_pct", "%", "lower", False, "checks bbp_spectral stresses operator applies (>= 85%)"),
    ("share.ensembles.sample_wigner_pct", "%", "lower", False, "checks universality_sweep stresses sampling (>= 50%)"),
    ("share.linalg.jacobi_pct", "%", "lower", False, "checks power_bound_oracle stresses Jacobi (>= 95%)"),
) + tuple(
    (f"layer.{layer}.self_pct", "%", "lower", False, "where the run's time goes; interpolation_path keeps each < 50%")
    for layer in LAYERS
) + (
    ("layer.max_self_pct", "%", "lower", False, "where the run's time goes; interpolation_path keeps each < 50%"),
)


def metric_specs():
    """Every per-layer metric name -> (unit, better, what it should move), timings expanded."""
    out = {}
    for name, unit, better, timing, moves in METRICS:
        out[name] = (unit, better, moves)
        if timing:
            out[name + ".tail"] = (unit, better, moves)
            out[name + ".tail_pct"] = ("%", "higher", moves)
            out[name + ".samples"] = ("count", "higher", moves)
    return out


def timing_summary(values):
    """(p50, tail, tail percentile, sample count) of a list of timings."""
    count = len(values)
    if count == 0:
        return 0.0, 0.0, 0.0, 0
    p50 = float(np.percentile(values, 50))
    for pct in _TAIL_PCTS:
        if count * (100.0 - pct) / 100.0 >= 10:
            return p50, float(np.percentile(values, pct)), pct, count
    return p50, p50, 50.0, count


def _put_timing(out, name, values):
    p50, tail, pct, count = timing_summary(values)
    out[name], out[name + ".tail"], out[name + ".tail_pct"], out[name + ".samples"] = p50, tail, pct, count


def span_metrics(span_sets, config, trials):
    """Metrics derived from the spans of one or more traced runs of ``config``.

    ``trials`` is the number of trials those runs attempted in total; totals
    per run are averaged over the runs.
    """
    n_max = max(config["n_grid"])
    steps = max(config.get("K", 1), 1)
    runs = len(span_sets)
    calls = {}  # name -> list of (duration ns, size, self ns, trial, run)
    applies = {fn: 0 for fn in _SPECTRAL_FNS}
    layer_self = {layer: 0 for layer in LAYERS}
    root_ns = 0
    for run, spans in enumerate(span_sets):
        selfs = self_times(spans)
        for index, (name, start, end, parent, trial, size) in enumerate(spans):
            calls.setdefault(name, []).append((end - start, size, selfs[index], trial, run))
            layer_self[layer_of(name)] = layer_self.get(layer_of(name), 0) + selfs[index]
            if name == ROOT_SPAN and parent < 0:
                root_ns += end - start
            if name == "ensembles.spiked_apply":
                while parent >= 0 and not spans[parent][0].startswith("spectral."):
                    parent = spans[parent][3]
                owner = spans[parent][0].split(".")[1] if parent >= 0 else None
                if owner in applies:
                    applies[owner] += 1

    def spans_of(name, at_n_max=False):
        return [c for c in calls.get(name, ()) if not at_n_max or c[1] == n_max]

    def total_s(*names):
        return sum(c[0] for name in names for c in spans_of(name)) / 1e9

    out = {}
    wigner = spans_of("ensembles.sample_wigner")
    _put_timing(out, "ensembles.sample_wigner.ms", [c[0] / 1e6 for c in wigner if c[1] == n_max])
    out["ensembles.sample_wigner.calls"] = len(wigner) / runs
    entries = sum(c[1] * (c[1] + 1) // 2 for c in wigner)
    out["ensembles.sample_wigner.mentries_per_s"] = entries / total_s("ensembles.sample_wigner") / 1e6 if wigner else 0.0
    per_trial_bytes = {}
    for _, size, _, trial, run in wigner:
        per_trial_bytes[(run, trial)] = per_trial_bytes.get((run, trial), 0) + 8 * size * (size + 1) // 2
    out["ensembles.matrix_mb_computed"] = max(per_trial_bytes.values(), default=0) / 2**20

    out["ensembles.spiked_apply.calls_per_trial"] = len(spans_of("ensembles.spiked_apply")) / trials
    _put_timing(out, "ensembles.spiked_apply.ms", [c[0] / 1e6 for c in spans_of("ensembles.spiked_apply", True)])
    _put_timing(out, "linalg.sym_matvec.ms", [c[0] / 1e6 for c in spans_of("linalg.sym_matvec", True)])
    p50_s = out["linalg.sym_matvec.ms"] / 1e3
    out["linalg.sym_matvec.gbps_computed"] = 8 * n_max * (n_max + 1) / 2 / p50_s / 1e9 if p50_s > 0 else 0.0
    _put_timing(out, "linalg.jacobi.s_per_call", [c[0] / 1e9 for c in spans_of("linalg.jacobi")])

    for fn in _SPECTRAL_FNS:
        out[f"spectral.{fn}.applies_per_trial"] = applies[fn] / trials
        _put_timing(out, f"spectral.{fn}.s_per_trial", [c[0] / 1e9 for c in spans_of(f"spectral.{fn}")])
    depths = [c[1] for c in spans_of("spectral.spectral_init")]
    out["spectral.power_depth.value"] = float(np.median(depths)) if depths else 0.0

    _put_timing(out, "engine.run_onsager.ms_per_step",
                [c[0] / 1e6 / steps for c in spans_of("engine.run_onsager", True)])
    out["engine.run_onsager.self_s"] = sum(c[2] for c in spans_of("engine.run_onsager")) / 1e9 / runs
    out["nonlinear.denoiser_eval.s"] = total_s("nonlinear.denoiser_eval") / runs
    out["nonlinear.denoiser_partial.s"] = total_s("nonlinear.denoiser_partial") / runs
    out["state_evolution.bayes_tanh_schedule.s"] = total_s("state_evolution.bayes_tanh_schedule") / runs
    out["experiments.self_s_per_trial"] = sum(c[2] for c in spans_of("experiments.run_experiment")) / 1e9 / trials
    out["reporting.write_s"] = total_s("reporting.write_records_csv", "reporting.write_summary_json") / runs

    def share(*names):
        return 100.0 * total_s(*names) * 1e9 / root_ns if root_ns else 0.0

    out["share.ensembles.spiked_apply_pct"] = share("ensembles.spiked_apply")
    out["share.ensembles.sample_wigner_pct"] = share("ensembles.sample_wigner")
    out["share.linalg.jacobi_pct"] = share("linalg.jacobi")
    for layer in LAYERS:
        out[f"layer.{layer}.self_pct"] = 100.0 * layer_self[layer] / root_ns if root_ns else 0.0
    out["layer.max_self_pct"] = max(out[f"layer.{layer}.self_pct"] for layer in LAYERS)
    return out


def spectral_accuracy(config, rows):
    """Recorded lambda1, lambda2_abs and gap_pass against exact eigenvalues.

    Each trial's spiked matrix is rebuilt from the public API and solved with
    numpy.linalg.eigvalsh, which is independent of the power-method estimates.
    """
    from amplab.config import parse_config
    from amplab.ensembles import derive_streams, sample_prior, sample_wigner

    cfg = parse_config(config)
    by_key = {(float(r["gamma"]), int(r["n"]), int(r["trial"])): r for r in rows if r["status"] == "ok"}
    err1, err2, flips = [], [], 0
    for g_idx, gamma in enumerate(cfg.gamma_grid):
        for n_idx, n in enumerate(cfg.n_grid):
            for trial in range(cfg.trials):
                row = by_key.get((gamma, n, trial))
                if row is None:
                    continue
                # per-trial stream index of the bbp runner
                streams = derive_streams(cfg.master_seed, (g_idx * len(cfg.n_grid) + n_idx) * cfg.trials + trial)
                u0 = sample_prior(n, cfg.prior, streams.shared)
                dense = sample_wigner(n, cfg.ensemble, streams.noise_a).to_dense() / math.sqrt(n)
                dense += (gamma / n) * np.outer(u0, u0)
                lam = np.linalg.eigvalsh(dense)
                del dense
                lambda1, lambda2_abs = float(lam[-1]), float(max(abs(lam[-2]), abs(lam[0])))
                err1.append(float(row["lambda1"]) - lambda1)
                err2.append(float(row["lambda2_abs"]) - lambda2_abs)
                exact_pass = lambda1 > max(lambda2_abs, 1.0) + _GAP_MARGIN
                flips += int(int(row["gap_pass"]) != int(exact_pass))
    if not err1:
        return {}
    return {
        "spectral.lambda1_abs_err": max(abs(e) for e in err1),
        "spectral.lambda1_bias": sum(err1) / len(err1),
        "spectral.lambda2_abs_err": max(abs(e) for e in err2),
        "spectral.lambda2_bias": sum(err2) / len(err2),
        "spectral.gap_pass_flips": flips,
    }
