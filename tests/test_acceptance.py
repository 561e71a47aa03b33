"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line (visible with -s / -rA) carrying the
measured quantities; a failed assertion is the FAIL signal. Runtime budgets
that are part of a criterion are asserted too.

The statistical criteria (01-07, 10 and 11) are defined once, in CRITERIA:
the configs of a criterion's runs, without ``master_seed``; a measure of one
run, which asserts the criterion's structural checks (ok trials, row counts)
and returns its measured quantities; and a Bound per quantity. run_criterion
reruns a criterion on any seed and returns each quantity's margin to its
bound. The tests gate the margins at the pinned seed; tests/seed_table.py
tabulates them on held-out seeds.
"""

import functools
import json
import math
import os
import time
from typing import Callable, NamedTuple

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

SEED = 20240810


class Bound(NamedTuple):
    """value <= limit, or |value - target| <= limit when a target is given."""

    limit: float
    target: float | None = None

    def margin(self, value):
        return self.limit - (value if self.target is None else abs(value - self.target))

    def __str__(self):
        return f"<= {self.limit}" if self.target is None else f"within {self.limit} of {self.target}"


class Margin(NamedTuple):
    quantity: str
    value: float
    bound: Bound
    margin: float  # >= 0 passes


class Criterion(NamedTuple):
    runs: dict  # label -> config without master_seed; the label names the run in its quantities
    measure: Callable  # (cfg, rows, summary) of one run -> {quantity: value}, asserting the structural checks
    bounds: dict  # quantity -> Bound; a quantity without one is measured for the tests' PASS lines only


def _report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def _group(summary, field, group=None):
    for entry in summary["groups"]:
        if entry["field"] == field and (group is None or entry["group"] == group):
            return entry
    raise AssertionError(f"summary entry {field}/{group} missing")


def _all_ok(rows):
    failed = sum(r["status"] != "ok" for r in rows)
    assert failed == 0, f"{failed} of {len(rows)} rows failed"


def _largest(values):
    """The largest of values, NaN if any is NaN (the built-in max skips a NaN that does not come first)."""
    return float(np.max(values))


def _bbp(gamma_grid, ensemble_kind):
    return {
        "experiment": "bbp",
        "n_grid": [2000],
        "trials": 20,
        "gamma_grid": gamma_grid,
        "ensemble": {"kind": ensemble_kind},
        "prior": {"kind": "rademacher"},
        "denoiser": {"kind": "identity"},
    }


def _bbp_means(cfg, rows, summary):
    return {f"{e['field']} at gamma={e['group']}": e["mean"] for e in summary["groups"]}


def _bbp_all_trials(cfg, rows, summary):
    count, expected = _group(summary, "lambda1", 2.0)["count"], cfg.trials * len(cfg.n_grid)
    assert count == expected, f"{expected - count} of {expected} trials failed"
    return _bbp_means(cfg, rows, summary)


# top eigenvalue gamma + 1/gamma and overlap sqrt(1 - gamma^-2) above the transition
_BBP_ABOVE = {"lambda1 at gamma=2.0": Bound(0.1, 2.5), "overlap at gamma=2.0": Bound(0.05, 0.8660)}
# the bulk edge 2 and no overlap below it
_BBP_BELOW = {"lambda1 at gamma=0.5": Bound(0.1, 2.0), "overlap at gamma=0.5": Bound(0.1)}

# the AMP runs: bayes-schedule tanh on a rademacher spike at gamma 2
_AMP = {
    "K": 5,
    "gamma": 2.0,
    "prior": {"kind": "rademacher"},
    "denoiser": {"kind": "scaled_tanh", "schedule": "bayes"},
    "phi": {"kind": "tanh_product"},
}

# the quantity of each criterion that bounds one
_SLOPE = "slope"
_SE_ERROR = "max_k |empirical - prediction|"
_VARIANCE = "max_k |variance - 1|"
_MEAN_Z = "max_k |mean - prediction| / SE"
_EXCESS = "max lhs - (rhs + 1e-8)"
_STD_RATIO = "std(2000) / std(500)"
_STEP_Z = "max adjacent |diff| / pooled SE"


def _decay(cfg, rows, summary):
    """The slope of log mean |Phi(A) - Phi(G)| against log n; the means fall with n, one inversion allowed."""
    groups = sorted((e for e in summary["groups"] if e["field"] == "abs_diff"), key=lambda e: e["group"])
    means = [e["mean"] for e in groups]
    errs = [e["stderr"] for e in groups]
    assert all(m > 0 for m in means), f"means {means}"
    inversions = [i for i in range(len(means) - 1) if means[i + 1] >= means[i]]
    assert len(inversions) <= 1, f"means {means}"
    for i in inversions:
        assert means[i + 1] - means[i] <= 2.0 * math.hypot(errs[i], errs[i + 1]), f"means {means}, stderrs {errs}"
    return {_SLOPE: summary["extras"]["decay_slope"]}


def _se_error(cfg, rows, summary):
    _all_ok(rows)
    return {_SE_ERROR: _largest([r["phi_abs_err"] for r in rows])}


def _identity_fixed_point(trials):
    return {
        "experiment": "state_evolution",
        "n_grid": [2000],
        "trials": trials,
        "K": 5,
        "gamma": 0.0,
        "ensemble": {"kind": "gaussian"},
        "prior": {"kind": "gaussian"},
        "denoiser": {"kind": "identity"},
        "phi": {"kind": "last_coord_clipped"},
        "init": "independent",
    }


def _variance(cfg, rows, summary):
    _all_ok(rows)
    return {_VARIANCE: _largest([abs(r["second_moment_empirical"] - 1.0) for r in rows])}


def _per_k_mean(cfg, rows, summary):
    """The largest |z| over k of the mean second moment against its prediction, in standard errors."""
    _all_ok(rows)
    z_abs = []
    for k in range(cfg.K + 1):
        at_k = [r for r in rows if r["k"] == k]
        assert len(at_k) == cfg.trials * len(cfg.n_grid), f"k={k}: {len(at_k)} rows"
        prediction = at_k[0]["second_moment_prediction"]
        assert abs(prediction - 1.0) <= 1e-12, f"k={k}: prediction {prediction}"
        values = np.array([r["second_moment_empirical"] for r in at_k])
        z = (values.mean() - prediction) / (values.std(ddof=1) / math.sqrt(len(values)))
        z_abs.append(abs(float(z)))
    return {_MEAN_Z: _largest(z_abs)}


def _power_bound(cfg, rows, summary):
    # a row holds when lhs <= rhs + 1e-8
    _all_ok(rows)
    assert len(rows) == cfg.trials * len(cfg.n_grid), f"{len(rows)} instances"
    return {_EXCESS: _largest([r["lhs"] - (r["rhs"] + 1e-8) for r in rows]), "held": sum(r["holds"] for r in rows)}


def _std_ratio(cfg, rows, summary):
    small, large = (_group(summary, "phi", n)["std"] for n in cfg.n_grid)
    return {_STD_RATIO: large / small, "std(500)": small, "std(2000)": large}


def _interpolation_steps(cfg, rows, summary):
    """The largest |difference| of mean phi between adjacent t, in pooled standard errors."""
    _all_ok(rows)
    groups = sorted((e for e in summary["groups"] if e["field"] == "phi"), key=lambda e: e["group"])
    steps = []
    for left, right in zip(groups, groups[1:]):
        diff = abs(right["mean"] - left["mean"])
        pooled = math.hypot(left["stderr"], right["stderr"])
        steps.append(diff / pooled if pooled > 0 else (math.inf if diff else 0.0))
    return {_STEP_Z: _largest(steps)}


CRITERIA = {
    "01": Criterion({"": _bbp([2.0], "gaussian")}, _bbp_all_trials, _BBP_ABOVE),
    "02": Criterion({"": _bbp([0.5], "gaussian")}, _bbp_means, _BBP_BELOW),
    "03": Criterion({"": _bbp([0.5, 2.0], "rademacher")}, _bbp_means, {**_BBP_ABOVE, **_BBP_BELOW}),
    "04": Criterion(
        {
            kind: dict(_AMP, experiment="universality", n_grid=[250, 500, 1000, 2000], trials=50,
                       ensemble={"kind": kind}, threads=4)
            for kind in ("rademacher", "uniform")
        },
        _decay,
        {_SLOPE: Bound(-0.25)},
    ),
    "05": Criterion(
        {"": dict(_AMP, experiment="state_evolution", n_grid=[2000], trials=1, ensemble={"kind": "gaussian"},
                  phi={"kind": "se_pair"}, init="spectral")},
        _se_error,
        {_SE_ERROR: Bound(0.05)},
    ),
    "06": Criterion({"": _identity_fixed_point(3)}, _variance, {_VARIANCE: Bound(0.1)}),
    "06 companion": Criterion({"": _identity_fixed_point(40)}, _per_k_mean, {_MEAN_Z: Bound(4.0)}),
    "07": Criterion(
        {"": {"experiment": "power_bound", "n_grid": [64], "trials": 100, "ensemble": {"kind": "gaussian"},
              "denoiser": {"kind": "identity"}, "power_depth": 20}},
        _power_bound,
        {_EXCESS: Bound(0.0)},
    ),
    "10": Criterion(
        {"": dict(_AMP, experiment="concentration", n_grid=[500, 2000], trials=50, ensemble={"kind": "gaussian"})},
        _std_ratio,
        {_STD_RATIO: Bound(0.7)},
    ),
    "11": Criterion(
        {"": dict(_AMP, experiment="interpolation", n_grid=[1000], trials=30, t_grid=[0.0, 0.25, 0.5, 0.75, 1.0],
                  ensemble={"kind": "rademacher"})},
        _interpolation_steps,
        {_STEP_Z: Bound(5.0)},
    ),
}


def run_criterion(name, seed=SEED):
    """Run criterion name at master_seed seed: its margins, every measured quantity, and each run's (cfg, rows)."""
    criterion, margins, values, runs = CRITERIA[name], [], {}, []
    for label, config in criterion.runs.items():
        cfg = parse_config(dict(config, master_seed=seed))
        _, rows, summary = run_experiment(cfg)
        measured = criterion.measure(cfg, rows, summary)
        values.update({f"{quantity} {label}".rstrip(): value for quantity, value in measured.items()})
        for quantity, bound in criterion.bounds.items():
            value = measured[quantity]
            margins.append(Margin(f"{quantity} {label}".rstrip(), value, bound, bound.margin(value)))
        runs.append((cfg, rows))
    return margins, values, runs


def criterion_08_instances():
    """Criterion 08's 100 dense symmetric matrices: 25 each at n = 4, 16, 64, 128."""
    rng = np.random.default_rng(SEED)
    for n in (4, 16, 64, 128):
        for _ in range(25):
            dense = rng.normal(size=(n, n))
            yield (dense + dense.T) / 2.0


@functools.cache
def criterion_08_decompositions():
    """Each of criterion 08's instances with its Jacobi eigendata at tol 1e-12, decomposed once per session."""
    return tuple((d, jacobi_eigendecomp(SymmetricMatrix.from_dense(d), tol=1e-12)) for d in criterion_08_instances())


def _check(name):
    """Run criterion name at the pinned seed and assert every margin >= 0: ({quantity: value}, runs)."""
    margins, values, runs = run_criterion(name)
    for m in margins:
        assert m.margin >= 0, f"{m.quantity} = {m.value!r}, not {m.bound} (margin {m.margin:.3g})"
    return values, runs


def test_criterion_01_bbp_above_threshold():
    start = time.time()
    values, _ = _check("01")
    elapsed = time.time() - start
    assert elapsed <= 120.0
    lam, ov = values["lambda1 at gamma=2.0"], values["overlap at gamma=2.0"]
    _report(1, f"lambda1={lam:.4f} overlap={ov:.4f} ({elapsed:.0f}s)")


def test_criterion_02_bbp_below_threshold():
    start = time.time()
    values, _ = _check("02")
    elapsed = time.time() - start
    assert elapsed <= 120.0
    lam, ov = values["lambda1 at gamma=0.5"], values["overlap at gamma=0.5"]
    _report(2, f"lambda1={lam:.4f} overlap={ov:.4f} ({elapsed:.0f}s)")


def test_criterion_03_bbp_universality_rademacher():
    values, _ = _check("03")
    _report(
        3,
        "; ".join(
            f"gamma={g:g}: lambda1={values[f'lambda1 at gamma={g}']:.4f} overlap={values[f'overlap at gamma={g}']:.4f}"
            for g in (2.0, 0.5)
        ),
    )


def test_criterion_04_universality_decay():
    start = time.time()
    values, _ = _check("04")
    elapsed = time.time() - start
    assert elapsed <= 900.0
    slopes = " ".join(f"{kind}={values[f'{_SLOPE} {kind}']:.3f}" for kind in CRITERIA["04"].runs)
    _report(4, f"slopes {slopes} ({elapsed:.0f}s, 4 workers)")


def test_criterion_05_state_evolution_spectral_init():
    values, _ = _check("05")
    _report(5, f"{_SE_ERROR} = {values[_SE_ERROR]:.4f} <= 0.05")


def test_criterion_06_identity_denoiser_fixed_point():
    values, _ = _check("06")
    _report(6, f"{_VARIANCE} = {values[_VARIANCE]:.4f} <= 0.1")


def test_criterion_06_companion_per_k_mean_within_4_standard_errors():
    # criterion 06 bounds single trials, whose spread grows with k, so it fails
    # on some seeds with no bias present; a per-k mean over 40 trials tests
    # for a bias against its own standard error instead
    values, _ = _check("06 companion")
    _report("06 companion", f"max_k |mean - prediction| = {values[_MEAN_Z]:.2f} standard errors <= 4")


def test_criterion_07_power_method_bound():
    start = time.time()
    values, _ = _check("07")
    elapsed = time.time() - start
    assert elapsed <= 30.0
    _report(7, f"bound held in {values['held']}/{CRITERIA['07'].runs['']['trials']} instances ({elapsed:.0f}s)")


def test_criterion_08_jacobi_oracle():
    checked = 0
    worst_recon, worst_ortho = 0.0, 0.0
    for dense, eig in criterion_08_decompositions():
        n = len(dense)
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
    values, _ = _check("10")
    _report(10, f"std(2000)={values['std(2000)']:.2e} <= 0.7*std(500)={0.7 * values['std(500)']:.2e}")


def test_criterion_11_interpolation():
    values, [(cfg, rows)] = _check("11")

    # endpoint identities: recompute the pure runs from the same streams
    n, K = cfg.n_grid[0], cfg.K
    den, _ = bayes_tanh_schedule(cfg.gamma, cfg.prior, K, cfg.quadrature())
    spike = SpikeSpec.rank_one(cfg.gamma)
    by_key = {(r["trial"], r["t"]): r["phi"] for r in rows}
    for trial in range(cfg.trials):
        streams = derive_streams(cfg.master_seed, trial)
        u0 = sample_prior(n, cfg.prior, streams.shared)
        mat_a = sample_wigner(n, cfg.ensemble, streams.noise_a)
        mat_g = sample_wigner(n, EnsembleSpec("gaussian"), streams.noise_g)
        phi_a = phi_average(run_onsager(build_spiked(mat_a, spike, u0), [den] * K, u0, K), cfg.phi, K)
        phi_g = phi_average(run_onsager(build_spiked(mat_g, spike, u0), [den] * K, u0, K), cfg.phi, K)
        assert by_key[(trial, 1.0)] == phi_a
        assert by_key[(trial, 0.0)] == phi_g

    _report(11, f"endpoints exact; max adjacent diff = {values[_STEP_Z]:.2f} pooled SE (<= 5)")


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


def test_bench_gate_tolerances_are_the_criteria_bounds(monkeypatch):
    # the benchmark's correctness gate keeps its own copy of the bbp and decay bounds
    monkeypatch.syspath_prepend(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from bench import gate

    tolerances = {
        "lambda1 at gamma=2.0": gate.LAMBDA1_TOL,
        "overlap at gamma=2.0": gate.OVERLAP_TOL,
        "lambda1 at gamma=0.5": gate.LAMBDA1_TOL,
        "overlap at gamma=0.5": gate.OVERLAP_MAX_BELOW,
    }
    for name in ("01", "02", "03"):
        for quantity, bound in CRITERIA[name].bounds.items():
            assert bound.limit == tolerances[quantity], (name, quantity)
    assert CRITERIA["04"].bounds[_SLOPE].limit == gate.DECAY_SLOPE_MAX


def test_a_nan_in_a_later_row_fails_its_bound():
    # numpy makes a NaN without raising, so one can reach an ok row; the measures
    # carry it into the margin, where a built-in max would skip it
    ok = {"status": "ok"}
    per_k = [dict(ok, k=k, second_moment_prediction=1.0, second_moment_empirical=1.0 + 0.01 * (t % 3 - 1))
             for k in range(6) for t in range(40)]
    per_k[3 * 40 + 7]["second_moment_empirical"] = math.nan
    steps = {"groups": [{"field": "phi", "group": t, "mean": 0.1 if t != 0.5 else math.nan, "stderr": 0.01}
                        for t in (0.0, 0.25, 0.5, 0.75, 1.0)]}
    cases = {
        "05": ([dict(ok, phi_abs_err=0.01), dict(ok, phi_abs_err=math.nan)], None),
        "06": ([dict(ok, second_moment_empirical=1.0), dict(ok, second_moment_empirical=math.nan)], None),
        "06 companion": (per_k, None),
        "07": ([dict(ok, lhs=math.nan if i == 1 else 0.0, rhs=1.0, holds=int(i != 1)) for i in range(100)], None),
        "11": ([ok], steps),
    }
    for name, (rows, summary) in cases.items():
        criterion = CRITERIA[name]
        cfg = parse_config(dict(criterion.runs[""], master_seed=SEED))
        values = criterion.measure(cfg, rows, summary)
        for quantity, bound in criterion.bounds.items():
            assert math.isnan(bound.margin(values[quantity])), (name, quantity, values[quantity])
