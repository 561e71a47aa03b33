"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line (visible with -s / -rA) carrying the
measured quantities; a failed assertion is the FAIL signal. Runtime budgets
that are part of a criterion are asserted too.
"""

import json
import math
import time

import numpy as np

from amplab.cli import main as cli_main
from amplab.config import parse_config
from amplab.engine import onsager_coeffs, phi_average, run_onsager
from amplab.ensembles import (
    EnsembleSpec,
    SpikeSpec,
    build_spiked,
    derive_streams,
    sample_prior,
    sample_wigner,
)
from amplab.experiments import run_experiment
from amplab.linalg import SymmetricMatrix, jacobi_eigendecomp
from amplab.nonlinear import Denoiser, fd_partial
from amplab.state_evolution import bayes_tanh_schedule


def _report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def _group(summary, field, group=None):
    for entry in summary["groups"]:
        if entry["field"] == field and (group is None or entry["group"] == group):
            return entry
    raise AssertionError(f"summary entry {field}/{group} missing")


def _bbp_config(gamma_grid, ensemble_kind):
    return parse_config(
        {
            "experiment": "bbp",
            "n_grid": [2000],
            "trials": 20,
            "master_seed": 20240810,
            "gamma_grid": list(gamma_grid),
            "ensemble": {"kind": ensemble_kind},
            "prior": {"kind": "rademacher"},
            "denoiser": {"kind": "identity"},
        }
    )


def test_criterion_01_bbp_above_threshold():
    start = time.time()
    _, rows, summary = run_experiment(_bbp_config([2.0], "gaussian"))
    elapsed = time.time() - start
    lam = _group(summary, "lambda1", 2.0)
    ov = _group(summary, "overlap", 2.0)
    assert lam["count"] == 20
    assert abs(lam["mean"] - 2.5) <= 0.1
    assert abs(ov["mean"] - 0.8660) <= 0.05
    assert elapsed <= 120.0
    _report(1, f"lambda1={lam['mean']:.4f} overlap={ov['mean']:.4f} ({elapsed:.0f}s)")


def test_criterion_02_bbp_below_threshold():
    start = time.time()
    _, rows, summary = run_experiment(_bbp_config([0.5], "gaussian"))
    elapsed = time.time() - start
    lam = _group(summary, "lambda1", 0.5)
    ov = _group(summary, "overlap", 0.5)
    assert abs(lam["mean"] - 2.0) <= 0.1
    assert ov["mean"] <= 0.1
    assert elapsed <= 120.0
    _report(2, f"lambda1={lam['mean']:.4f} overlap={ov['mean']:.4f} ({elapsed:.0f}s)")


def test_criterion_03_bbp_universality_rademacher():
    _, rows, summary = run_experiment(_bbp_config([0.5, 2.0], "rademacher"))
    lam_hi = _group(summary, "lambda1", 2.0)
    ov_hi = _group(summary, "overlap", 2.0)
    lam_lo = _group(summary, "lambda1", 0.5)
    ov_lo = _group(summary, "overlap", 0.5)
    assert abs(lam_hi["mean"] - 2.5) <= 0.1
    assert abs(ov_hi["mean"] - 0.8660) <= 0.05
    assert abs(lam_lo["mean"] - 2.0) <= 0.1
    assert ov_lo["mean"] <= 0.1
    _report(
        3,
        f"gamma=2: lambda1={lam_hi['mean']:.4f} overlap={ov_hi['mean']:.4f}; "
        f"gamma=0.5: lambda1={lam_lo['mean']:.4f} overlap={ov_lo['mean']:.4f}",
    )


def test_criterion_04_universality_decay():
    start = time.time()
    slopes = {}
    for kind in ("rademacher", "uniform"):
        cfg = parse_config(
            {
                "experiment": "universality",
                "n_grid": [250, 500, 1000, 2000],
                "trials": 50,
                "master_seed": 20240810,
                "K": 5,
                "gamma": 2.0,
                "ensemble": {"kind": kind},
                "prior": {"kind": "rademacher"},
                "denoiser": {"kind": "scaled_tanh", "schedule": "bayes"},
                "phi": {"kind": "tanh_product"},
                "threads": 4,
            }
        )
        _, rows, summary = run_experiment(cfg)
        groups = [e for e in summary["groups"] if e["field"] == "abs_diff"]
        groups.sort(key=lambda e: e["group"])
        means = [e["mean"] for e in groups]
        errs = [e["stderr"] for e in groups]
        assert all(m > 0 for m in means)
        inversions = [i for i in range(len(means) - 1) if means[i + 1] >= means[i]]
        assert len(inversions) <= 1, f"{kind}: means {means}"
        for i in inversions:
            slack = 2.0 * math.sqrt(errs[i] ** 2 + errs[i + 1] ** 2)
            assert means[i + 1] - means[i] <= slack
        slope = summary["extras"]["decay_slope"]
        assert slope <= -0.25, f"{kind}: slope {slope}"
        slopes[kind] = slope
    elapsed = time.time() - start
    assert elapsed <= 900.0
    _report(
        4,
        "slopes "
        + " ".join(f"{k}={v:.3f}" for k, v in slopes.items())
        + f" ({elapsed:.0f}s, 4 workers)",
    )


def test_criterion_05_state_evolution_spectral_init():
    cfg = parse_config(
        {
            "experiment": "state_evolution",
            "n_grid": [2000],
            "trials": 1,
            "master_seed": 20240810,
            "K": 5,
            "gamma": 2.0,
            "ensemble": {"kind": "gaussian"},
            "prior": {"kind": "rademacher"},
            "denoiser": {"kind": "scaled_tanh", "schedule": "bayes"},
            "phi": {"kind": "se_pair"},
            "init": "spectral",
        }
    )
    _, rows, _ = run_experiment(cfg)
    assert all(r["status"] == "ok" for r in rows)
    worst = max(r["phi_abs_err"] for r in rows)
    for row in rows:
        assert row["phi_abs_err"] <= 0.05, f"k={row['k']}: err {row['phi_abs_err']}"
    _report(5, f"max_k |empirical - prediction| = {worst:.4f} <= 0.05")


def test_criterion_06_identity_denoiser_fixed_point():
    cfg = parse_config(
        {
            "experiment": "state_evolution",
            "n_grid": [2000],
            "trials": 3,
            "master_seed": 20240810,
            "K": 5,
            "gamma": 0.0,
            "ensemble": {"kind": "gaussian"},
            "prior": {"kind": "gaussian"},
            "denoiser": {"kind": "identity"},
            "phi": {"kind": "last_coord_clipped"},
            "init": "independent",
        }
    )
    _, rows, _ = run_experiment(cfg)
    worst = 0.0
    for row in rows:
        assert row["status"] == "ok"
        deviation = abs(row["second_moment_empirical"] - 1.0)
        worst = max(worst, deviation)
        assert deviation <= 0.1, f"k={row['k']}: variance off by {deviation}"
    _report(6, f"max_k |variance - 1| = {worst:.4f} <= 0.1")


def test_criterion_06_companion_per_k_mean_within_4_standard_errors():
    # criterion 06 bounds single trials, whose spread grows with k, so it fails
    # on some seeds with no bias present; a per-k mean over 40 trials tests
    # for a bias against its own standard error instead
    cfg = parse_config(
        {
            "experiment": "state_evolution",
            "n_grid": [2000],
            "trials": 40,
            "master_seed": 20240810,
            "K": 5,
            "gamma": 0.0,
            "ensemble": {"kind": "gaussian"},
            "prior": {"kind": "gaussian"},
            "denoiser": {"kind": "identity"},
            "phi": {"kind": "last_coord_clipped"},
            "init": "independent",
        }
    )
    _, rows, _ = run_experiment(cfg)
    assert all(r["status"] == "ok" for r in rows)
    worst = 0.0
    for k in range(cfg.K + 1):
        at_k = [r for r in rows if r["k"] == k]
        assert len(at_k) == 40
        prediction = at_k[0]["second_moment_prediction"]
        assert abs(prediction - 1.0) <= 1e-12
        values = np.array([r["second_moment_empirical"] for r in at_k])
        z = (values.mean() - prediction) / (values.std(ddof=1) / math.sqrt(len(values)))
        worst = max(worst, abs(z))
        assert abs(z) <= 4.0, f"k={k}: mean {values.mean():.5f} is {z:.2f} standard errors from {prediction}"
    _report("06 companion", f"max_k |mean - prediction| = {worst:.2f} standard errors <= 4")


def test_criterion_07_power_method_bound():
    start = time.time()
    cfg = parse_config(
        {
            "experiment": "power_bound",
            "n_grid": [64],
            "trials": 100,
            "master_seed": 20240810,
            "ensemble": {"kind": "gaussian"},
            "denoiser": {"kind": "identity"},
            "power_depth": 20,
        }
    )
    _, rows, summary = run_experiment(cfg)
    elapsed = time.time() - start
    assert all(r["status"] == "ok" for r in rows)
    holds = sum(r["holds"] for r in rows)
    assert holds == 100
    assert elapsed <= 30.0
    _report(7, f"bound held in {holds}/100 instances ({elapsed:.0f}s)")


def test_criterion_08_jacobi_oracle():
    rng = np.random.default_rng(20240810)
    checked = 0
    worst_recon, worst_ortho = 0.0, 0.0
    for n in (4, 16, 64, 128):
        for _ in range(25):
            dense = rng.normal(size=(n, n))
            dense = (dense + dense.T) / 2.0
            eig = jacobi_eigendecomp(SymmetricMatrix.from_dense(dense), tol=1e-12)
            q, lam = eig.eigenvectors, eig.eigenvalues
            recon = float(np.linalg.norm(q @ np.diag(lam) @ q.T - dense))
            recon_rel = recon / np.linalg.norm(dense)
            ortho = float(np.max(np.abs(q.T @ q - np.eye(n))))
            worst_recon = max(worst_recon, recon_rel)
            worst_ortho = max(worst_ortho, ortho)
            assert recon_rel <= 1e-9
            assert ortho <= 1e-10
            checked += 1
    assert checked == 100
    _report(8, f"100 instances: recon<={worst_recon:.2e}, ortho<={worst_ortho:.2e}")


def test_criterion_09_onsager_coefficients():
    families = [
        Denoiser(kind="identity"),
        Denoiser(kind="scaled_tanh", schedule=(1.5, 0.8, 2.0, 1.0)),
        Denoiser(kind="smooth_soft_threshold", schedule=(0.6, 1.0, 0.8, 0.7)),
        Denoiser(kind="linear_combo", weights=(0.4, -0.3, 0.2), offset=0.05),
    ]
    rng = np.random.default_rng(20240810)
    worst = 0.0
    for orbit_index in range(50):
        f = families[orbit_index % len(families)]
        n, K = 30, 3
        dense = rng.normal(size=(n, n))
        dense = (dense + dense.T) / 2.0
        op = build_spiked(SymmetricMatrix.from_dense(dense), SpikeSpec())
        v0 = rng.normal(size=n)
        orbit = run_onsager(op, [f] * K, v0, K)
        for k in range(1, K + 1):
            rows = orbit.rows(k)
            b = onsager_coeffs(f, rows)
            for j in range(1, k + 1):
                fd = float(np.mean(fd_partial(f, k, j, rows, h=1e-5)))
                worst = max(worst, abs(b[j - 1] - fd))
                assert abs(b[j - 1] - fd) <= 1e-6
    _report(9, f"50 orbits over 4 families: max |analytic - fd| = {worst:.2e} <= 1e-6")


def test_criterion_10_concentration():
    cfg = parse_config(
        {
            "experiment": "concentration",
            "n_grid": [500, 2000],
            "trials": 50,
            "master_seed": 20240810,
            "K": 5,
            "gamma": 2.0,
            "ensemble": {"kind": "gaussian"},
            "prior": {"kind": "rademacher"},
            "denoiser": {"kind": "scaled_tanh", "schedule": "bayes"},
            "phi": {"kind": "tanh_product"},
        }
    )
    _, rows, summary = run_experiment(cfg)
    std_small = _group(summary, "phi", 500)["std"]
    std_large = _group(summary, "phi", 2000)["std"]
    assert std_large <= 0.7 * std_small, f"std(2000)={std_large}, std(500)={std_small}"
    _report(10, f"std(2000)={std_large:.2e} <= 0.7*std(500)={0.7 * std_small:.2e}")


def test_criterion_11_interpolation():
    cfg = parse_config(
        {
            "experiment": "interpolation",
            "n_grid": [1000],
            "trials": 30,
            "master_seed": 20240810,
            "K": 5,
            "gamma": 2.0,
            "t_grid": [0.0, 0.25, 0.5, 0.75, 1.0],
            "ensemble": {"kind": "rademacher"},
            "prior": {"kind": "rademacher"},
            "denoiser": {"kind": "scaled_tanh", "schedule": "bayes"},
            "phi": {"kind": "tanh_product"},
        }
    )
    _, rows, summary = run_experiment(cfg)
    assert all(r["status"] == "ok" for r in rows)

    # endpoint identities: recompute the pure runs from the same streams
    den, _ = bayes_tanh_schedule(2.0, cfg.prior, cfg.K)
    spike = SpikeSpec.rank_one(cfg.gamma)
    by_key = {(r["trial"], r["t"]): r["phi"] for r in rows}
    for trial in range(cfg.trials):
        streams = derive_streams(cfg.master_seed, trial)
        u0 = sample_prior(1000, cfg.prior, streams.shared)
        mat_a = sample_wigner(1000, cfg.ensemble, streams.noise_a)
        mat_g = sample_wigner(1000, EnsembleSpec("gaussian"), streams.noise_g)
        phi_a = phi_average(
            run_onsager(build_spiked(mat_a, spike, u0), [den] * 5, u0, 5), cfg.phi, 5
        )
        phi_g = phi_average(
            run_onsager(build_spiked(mat_g, spike, u0), [den] * 5, u0, 5), cfg.phi, 5
        )
        assert by_key[(trial, 1.0)] == phi_a
        assert by_key[(trial, 0.0)] == phi_g

    groups = sorted(
        (e for e in summary["groups"] if e["field"] == "phi"), key=lambda e: e["group"]
    )
    worst_ratio = 0.0
    for left, right in zip(groups, groups[1:]):
        diff = abs(right["mean"] - left["mean"])
        pooled = math.sqrt(left["stderr"] ** 2 + right["stderr"] ** 2)
        worst_ratio = max(worst_ratio, diff / pooled if pooled > 0 else 0.0)
        assert diff <= 5.0 * pooled, f"t={left['group']}->{right['group']}: {diff} vs {pooled}"
    _report(11, f"endpoints exact; max adjacent diff = {worst_ratio:.2f} pooled SE (<= 5)")


def test_criterion_12_determinism(tmp_path):
    config = {
        "experiment": "state_evolution",
        "n_grid": [2000],
        "trials": 1,
        "master_seed": 20240810,
        "K": 5,
        "gamma": 2.0,
        "ensemble": {"kind": "gaussian"},
        "prior": {"kind": "rademacher"},
        "denoiser": {"kind": "scaled_tanh", "schedule": "bayes"},
        "phi": {"kind": "se_pair"},
        "init": "spectral",
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    for name in ("one", "two"):
        code = cli_main(
            ["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / name)]
        )
        assert code == 0
    a = (tmp_path / "one" / "state_evolution_records.csv").read_bytes()
    b = (tmp_path / "two" / "state_evolution_records.csv").read_bytes()
    assert a == b

    # and across thread counts on a second experiment kind
    small = {
        "experiment": "universality",
        "n_grid": [100, 200],
        "trials": 10,
        "master_seed": 20240810,
        "K": 5,
        "gamma": 2.0,
        "ensemble": {"kind": "uniform"},
        "prior": {"kind": "rademacher"},
        "denoiser": {"kind": "scaled_tanh", "schedule": "bayes"},
        "phi": {"kind": "tanh_product"},
    }
    small_path = tmp_path / "small.json"
    small_path.write_text(json.dumps(small))
    assert cli_main(["run", "--config", str(small_path), "--out-dir", str(tmp_path / "u1")]) == 0
    assert (
        cli_main(
            [
                "run",
                "--config",
                str(small_path),
                "--out-dir",
                str(tmp_path / "u2"),
                "--threads",
                "4",
            ]
        )
        == 0
    )
    ua = (tmp_path / "u1" / "universality_records.csv").read_bytes()
    ub = (tmp_path / "u2" / "universality_records.csv").read_bytes()
    assert ua == ub
    _report(12, "byte-identical records across reruns and thread counts")
