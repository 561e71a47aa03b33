import csv
import json
import threading
import tracemalloc

import numpy as np
import pytest

from amplab import experiments
from amplab.config import parse_config
from amplab.engine import phi_average, run_onsager
from amplab.ensembles import (
    EnsembleSpec,
    InterpolatedNoise,
    SpikeSpec,
    build_spiked,
    derive_streams,
    sample_prior,
    sample_wigner,
)
from amplab.errors import ConfigError, DegenerateInputError, DivergenceError, RejectedInputError
from amplab.experiments import fit_decay, run_experiment
from amplab.linalg import packed_length
from amplab.nonlinear import TESTFUNCTION_KINDS, Denoiser
from amplab.reporting import write_records_csv, write_summary_json
from amplab.state_evolution import bayes_tanh_schedule


def read_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def base_config(**overrides):
    data = {
        "experiment": "universality",
        "n_grid": [40, 80],
        "trials": 4,
        "master_seed": 77,
        "K": 3,
        "gamma": 2.0,
        "ensemble": {"kind": "rademacher"},
        "prior": {"kind": "rademacher"},
        "denoiser": {"kind": "scaled_tanh", "schedule": [2.0, 2.0, 2.0]},
        "phi": {"kind": "tanh_product"},
    }
    data.update(overrides)
    return parse_config(data)


# gamma barely above 1 at small n: the gap check refuses some trials
NEAR_TRANSITION_SE = dict(
    experiment="state_evolution",
    n_grid=[120],
    trials=12,
    K=1,
    gamma=1.15,
    init="spectral",
    denoiser={"kind": "scaled_tanh", "schedule": "bayes"},
    phi={"kind": "se_pair"},
    power_depth=120,
)


class TestFitDecay:
    def test_exact_power_law(self):
        assert fit_decay([(1, 1.0), (10, 0.1), (100, 0.01)]) == pytest.approx(-1.0, abs=1e-12)

    def test_constant_values(self):
        assert fit_decay([(10, 0.5), (100, 0.5), (1000, 0.5)]) == pytest.approx(0.0, abs=1e-12)

    def test_against_closed_form_oracle(self):
        rng = np.random.default_rng(0)
        ns = [50, 100, 200, 400]
        vals = np.exp(rng.normal(size=4))
        slope = fit_decay(list(zip(ns, vals)))
        x = np.log(np.array(ns, dtype=float))
        y = np.log(vals)
        expected = (np.mean(x * y) - np.mean(x) * np.mean(y)) / (np.mean(x * x) - np.mean(x) ** 2)
        assert slope == pytest.approx(expected, abs=1e-10)

    def test_nonpositive_rejected(self):
        with pytest.raises(RejectedInputError):
            fit_decay([(10, 1.0), (20, 0.0)])

    def test_single_n_rejected(self):
        with pytest.raises(RejectedInputError):
            fit_decay([(10, 1.0), (10, 2.0)])


class TestUniversality:
    def test_record_counts_and_determinism(self):
        cfg = base_config(n_grid=[50], trials=2)
        columns, rows, summary = run_experiment(cfg)
        assert len(rows) == 2
        assert all(r["status"] == "ok" for r in rows)
        _, rows2, _ = run_experiment(cfg)
        assert rows == rows2

    def test_summary_consistency(self):
        cfg = base_config()
        _, rows, summary = run_experiment(cfg)
        for entry in summary["groups"]:
            group_rows = [
                r["abs_diff"] for r in rows if r["n"] == entry["group"] and r["status"] == "ok"
            ]
            assert entry["count"] == len(group_rows)
            total = entry["mean"] * entry["count"]
            assert abs(total - sum(group_rows)) <= 1e-9 * max(1.0, abs(total))

    def test_g_side_reproducible_from_streams(self):
        # coupling correctness: replaying the G side alone reproduces phi_g
        cfg = base_config(n_grid=[40], trials=2)
        _, rows, _ = run_experiment(cfg)
        den = Denoiser(kind="scaled_tanh", schedule=(2.0, 2.0, 2.0))
        for row in rows:
            streams = derive_streams(cfg.master_seed, row["trial"])
            u0 = sample_prior(row["n"], cfg.prior, streams.shared)
            mat_g = sample_wigner(row["n"], EnsembleSpec("gaussian"), streams.noise_g)
            op = build_spiked(mat_g, SpikeSpec.rank_one(cfg.gamma), u0)
            orbit = run_onsager(op, [den] * cfg.K, u0, cfg.K)
            assert phi_average(orbit, cfg.phi, cfg.K) == row["phi_g"]

    def test_generalized_engine_path(self):
        cfg = base_config(engine="generalized", n_grid=[40], trials=2)
        _, rows, _ = run_experiment(cfg)
        assert all(r["status"] == "ok" for r in rows)

    def test_threads_do_not_change_results(self):
        cfg1 = base_config()
        cfg2 = base_config(threads=4)
        _, rows1, _ = run_experiment(cfg1)
        _, rows2, _ = run_experiment(cfg2)
        assert rows1 == rows2

    @pytest.mark.parametrize("threads, bound", [(1, 1.6), (2, 3.0)])
    def test_peak_memory_is_one_packed_matrix_per_worker(self, threads, bound):
        n = 600
        cfg = base_config(
            n_grid=[n],
            trials=4,
            threads=threads,
            denoiser={"kind": "scaled_tanh", "schedule": "bayes"},
        )
        # the first schedule imports scipy.special and builds the cached Gauss rules; keep
        # both out of the measured window, so the peak does not depend on which test ran first
        bayes_tanh_schedule(cfg.gamma, cfg.prior, cfg.K, cfg.quadrature())
        tracemalloc.start()
        try:
            run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # G is reduced to phi_g before A is drawn into the same buffer
        assert peak < bound * 8 * packed_length(n)


class TestStateEvolution:
    def test_spectral_route_small(self):
        cfg = base_config(
            experiment="state_evolution",
            n_grid=[300],
            trials=2,
            K=2,
            init="spectral",
            denoiser={"kind": "scaled_tanh", "schedule": "bayes"},
            phi={"kind": "se_pair"},
        )
        columns, rows, summary = run_experiment(cfg)
        ok = [r for r in rows if r["status"] == "ok"]
        assert len(rows) == 2 * 3  # trials x (K+1)
        for row in ok:
            assert row["phi_abs_err"] <= 0.2  # loose at n=300
            # the eigenvector start leaves extra mass along the initialization
            # at the first corrected step, and the raw moment fluctuates hard
            # at n=300; this only guards against gross breakage
            assert abs(row["second_moment_empirical"] - row["second_moment_prediction"]) <= 2.5

    def test_independent_route_identity(self):
        cfg = base_config(
            experiment="state_evolution",
            n_grid=[400],
            trials=2,
            K=3,
            gamma=0.0,
            init="independent",
            prior={"kind": "gaussian"},
            denoiser={"kind": "identity"},
            phi={"kind": "last_coord_clipped"},
        )
        _, rows, _ = run_experiment(cfg)
        for row in rows:
            assert row["status"] == "ok"
            assert abs(row["second_moment_empirical"] - 1.0) <= 0.25
            assert row["second_moment_prediction"] == pytest.approx(1.0, abs=0.02)

    @pytest.mark.parametrize("phi", TESTFUNCTION_KINDS)
    def test_independent_identity_predictions_are_exact(self, phi):
        # Sigma = I: every V_k has variance 1 and, for k >= 1, is a centered
        # Gaussian independent of U0, so each pair observable averages to 0
        cfg = base_config(
            experiment="state_evolution",
            n_grid=[50],
            trials=1,
            K=4,
            gamma=0.0,
            init="independent",
            prior={"kind": "gaussian"},
            denoiser={"kind": "identity"},
            phi={"kind": phi},
        )
        _, rows, _ = run_experiment(cfg)
        for row in rows:
            assert row["second_moment_prediction"] == pytest.approx(1.0, abs=1e-12)
            if row["k"] >= 1 or phi == "last_coord_clipped":  # E clip(U0) = 0 too
                assert abs(row["phi_prediction"]) <= 1e-12
            elif phi == "raw_overlap":
                assert row["phi_prediction"] == pytest.approx(1.0, abs=1e-12)  # E U0^2

    @pytest.mark.parametrize(
        "overrides",
        [
            {"init": "spectral", "denoiser": {"kind": "scaled_tanh", "schedule": "bayes"}},
            {"init": "independent", "gamma": 0.0, "prior": {"kind": "gaussian"}, "denoiser": {"kind": "identity"}},
        ],
        ids=["spectral_bayes", "independent"],
    )
    def test_depth_zero_predicts_the_initialization(self, overrides):
        # K = 0 leaves the bayes schedule no coefficient to compare under node
        # doubling; the check must still pass on the (mu_0, sigma_0) it has
        cfg = base_config(experiment="state_evolution", n_grid=[60], trials=2, K=0, **overrides)
        _, rows, _ = run_experiment(cfg)
        assert [(r["trial"], r["k"], r["status"]) for r in rows] == [(0, 0, "ok"), (1, 0, "ok")]
        if cfg.init == "independent":
            assert rows[0]["second_moment_prediction"] == 1.0

    def test_failed_trials_recorded_and_excluded(self):
        cfg = base_config(**NEAR_TRANSITION_SE)
        _, rows, summary = run_experiment(cfg)
        failed = [r for r in rows if r["status"] != "ok"]
        assert failed, "expected at least one refused trial near the transition"
        assert all(r["status"] == "PreconditionError" for r in failed)
        assert all(r["phi_empirical"] is None for r in failed)
        ok_count = sum(1 for r in rows if r["status"] == "ok" and r["k"] == 0)
        for entry in summary["groups"]:
            if entry["field"] == "phi_abs_err" and entry["group"] == 0:
                assert entry["count"] == ok_count
        assert sum(summary["failures"].values()) == len(failed)

    def test_zero_prior_vector_refuses_the_spectral_init(self, monkeypatch):
        monkeypatch.setattr(experiments, "sample_prior", lambda n, prior, stream: np.zeros(n))
        cfg = base_config(**{**NEAR_TRANSITION_SE, "gamma": 2.0, "trials": 2})
        _, rows, summary = run_experiment(cfg)
        assert [(r["k"], r["status"]) for r in rows] == [(0, "PreconditionError"), (1, "PreconditionError")] * 2
        assert all(r["phi_empirical"] is None and r["phi_prediction"] is not None for r in rows)
        assert summary["failures"] == {"0": 2, "1": 2}

    def test_sampling_failure_becomes_status_rows_with_predictions(self, monkeypatch):
        real_sample_wigner = experiments.sample_wigner
        calls = []

        def fail_second_trial(n, ens, stream):
            calls.append(n)
            if len(calls) == 2:
                raise np.linalg.LinAlgError("sampling failed")
            return real_sample_wigner(n, ens, stream)

        monkeypatch.setattr(experiments, "sample_wigner", fail_second_trial)
        cfg = base_config(
            experiment="state_evolution",
            n_grid=[100],
            trials=3,
            K=2,
            gamma=0.0,
            init="independent",
            prior={"kind": "gaussian"},
            denoiser={"kind": "identity"},
            phi={"kind": "last_coord_clipped"},
        )
        _, rows, summary = run_experiment(cfg)
        failed = [r for r in rows if r["status"] != "ok"]
        assert [(r["trial"], r["k"], r["status"]) for r in failed] == [
            (1, k, "LinAlgError") for k in range(3)
        ]
        ok_by_k = {r["k"]: r for r in rows if r["status"] == "ok"}
        for row in failed:
            assert row["phi_empirical"] is None and row["phi_abs_err"] is None
            assert row["second_moment_empirical"] is None
            assert row["phi_prediction"] == ok_by_k[row["k"]]["phi_prediction"]
            assert row["second_moment_prediction"] == ok_by_k[row["k"]]["second_moment_prediction"]
        assert summary["failures"] == {"0": 1, "1": 1, "2": 1}

    def test_summaries_recomputable_from_records_file(self, tmp_path):
        # failed trials must not contaminate summaries: recompute the grouped
        # means from the emitted CSV alone and compare
        cfg = base_config(**NEAR_TRANSITION_SE)
        columns, rows, summary = run_experiment(cfg)
        path = tmp_path / "records.csv"
        write_records_csv(path, columns, rows)
        parsed = read_rows(path)
        assert any(r["status"] != "ok" for r in parsed)
        by_k = {}
        for r in parsed:
            if r["status"] == "ok":
                by_k.setdefault(int(r["k"]), []).append(float(r["phi_abs_err"]))
        for entry in summary["groups"]:
            if entry["field"] != "phi_abs_err":
                continue
            vals = by_k[entry["group"]]
            assert entry["count"] == len(vals)
            assert entry["mean"] == pytest.approx(float(np.mean(vals)), rel=1e-12)


class TestBbp:
    def test_structure_and_rough_values(self):
        cfg = base_config(
            experiment="bbp",
            n_grid=[150],
            trials=3,
            gamma_grid=[2.5],
            denoiser={"kind": "identity"},
            power_depth=150,
        )
        columns, rows, summary = run_experiment(cfg)
        assert len(rows) == 3
        for row in rows:
            assert row["status"] == "ok"
            # gamma + 1/gamma = 2.9 at gamma = 2.5; generous at n = 150
            assert abs(row["lambda1"] - 2.9) <= 0.5
            assert row["gap_pass"] == 1
        fields = {e["field"] for e in summary["groups"]}
        assert fields == {"lambda1", "overlap", "gap_pass"}

    def test_failed_spectral_init_keeps_the_trial_and_flags_the_overlap(self, monkeypatch):
        cfg = base_config(
            experiment="bbp",
            n_grid=[80],
            trials=2,
            gamma_grid=[2.0, 0.5],
            denoiser={"kind": "identity"},
        )
        _, clean, _ = run_experiment(cfg)

        def refuse(*args):
            raise DegenerateInputError("top-eigenvector estimate is orthogonal to u0")

        monkeypatch.setattr(experiments, "spectral_init", refuse)
        _, rows, summary = run_experiment(cfg)
        assert len(rows) == len(clean) == 4
        for row, ref in zip(rows, clean):
            assert ref["status"] == "ok"
            # the gap check's lambda1, lambda2_abs and gap_pass are kept as recorded
            assert row == {**ref, "overlap": 0.0, "overlap_flag": 1}
        assert summary["failures"] == {"0.5": 0, "2.0": 0}

    def test_zero_prior_vector_is_a_degenerate_input_row(self, monkeypatch):
        # the gap check has no start vector
        monkeypatch.setattr(experiments, "sample_prior", lambda n, prior, stream: np.zeros(n))
        cfg = base_config(experiment="bbp", n_grid=[60], trials=2, gamma_grid=[2.0], denoiser={"kind": "identity"})
        _, rows, summary = run_experiment(cfg)
        assert [r["status"] for r in rows] == ["DegenerateInputError"] * 2
        assert all(r["lambda1"] is None and r["overlap_flag"] is None for r in rows)
        assert summary["failures"] == {"2.0": 2}

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    def test_overflowing_spike_becomes_status_rows(self):
        # gamma = 1e308 overflows the operator apply; the Lanczos coefficients turn non-finite
        cfg = base_config(
            experiment="bbp", n_grid=[50], trials=2, gamma_grid=[1e308, 2.0], denoiser={"kind": "identity"}
        )
        _, rows, summary = run_experiment(cfg)
        assert [(r["gamma"], r["status"]) for r in rows] == [
            (2.0, "ok"),
            (2.0, "ok"),
            (1e308, "NumericalFailureError"),
            (1e308, "NumericalFailureError"),
        ]
        assert summary["failures"] == {"2.0": 0, "1e+308": 2}


class TestInterpolation:
    def test_endpoints_match_pure_runs_exactly(self):
        cfg = base_config(
            experiment="interpolation",
            n_grid=[60],
            trials=3,
            t_grid=[0.0, 0.5, 1.0],
        )
        _, rows, _ = run_experiment(cfg)
        den = Denoiser(kind="scaled_tanh", schedule=(2.0, 2.0, 2.0))
        by_key = {(r["trial"], r["t"]): r["phi"] for r in rows}
        for trial in range(3):
            streams = derive_streams(cfg.master_seed, trial)
            u0 = sample_prior(60, cfg.prior, streams.shared)
            mat_a = sample_wigner(60, cfg.ensemble, streams.noise_a)
            mat_g = sample_wigner(60, EnsembleSpec("gaussian"), streams.noise_g)
            spike = SpikeSpec.rank_one(cfg.gamma)
            phi_a = phi_average(
                run_onsager(build_spiked(mat_a, spike, u0), [den] * 3, u0, 3), cfg.phi, 3
            )
            phi_g = phi_average(
                run_onsager(build_spiked(mat_g, spike, u0), [den] * 3, u0, 3), cfg.phi, 3
            )
            assert by_key[(trial, 1.0)] == phi_a
            assert by_key[(trial, 0.0)] == phi_g

    def test_intermediate_t_rows_present(self):
        cfg = base_config(
            experiment="interpolation", n_grid=[40], trials=2, t_grid=[0.0, 0.25, 1.0]
        )
        _, rows, summary = run_experiment(cfg)
        assert len(rows) == 2 * 3
        assert {e["group"] for e in summary["groups"]} == {0.0, 0.25, 1.0}

    def test_diverged_interior_t_fails_only_its_own_rows(self, monkeypatch):
        cfg = base_config(
            experiment="interpolation", n_grid=[40], trials=2, t_grid=[0.0, 0.25, 0.75, 1.0]
        )
        _, clean, _ = run_experiment(cfg)
        real_run_onsager = experiments.run_onsager

        def diverge_on_mixed_noise(op, *args):
            if isinstance(op.noise, InterpolatedNoise):
                raise DivergenceError("iterate left the finite range", iteration=2)
            return real_run_onsager(op, *args)

        monkeypatch.setattr(experiments, "run_onsager", diverge_on_mixed_noise)
        _, rows, summary = run_experiment(cfg)
        assert len(rows) == len(clean) == 2 * 4
        for row, ref in zip(rows, clean):
            if row["t"] in (0.0, 1.0):
                assert row == ref and row["status"] == "ok"
            else:
                assert row == {**ref, "status": "DivergenceError", "phi": None}
        assert summary["failures"] == {"0.0": 0, "0.25": 2, "0.75": 2, "1.0": 0}
        assert {e["group"] for e in summary["groups"]} == {0.0, 1.0}

    def test_peak_memory_stays_near_the_two_sampled_matrices(self):
        n = 600
        cfg = base_config(
            experiment="interpolation", n_grid=[n], trials=1, t_grid=[0.0, 0.25, 0.5, 0.75, 1.0]
        )
        tracemalloc.start()
        try:
            run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A and G take 2x; forming each mixed matrix would add at least 1x more
        assert peak < 3 * 8 * packed_length(n)


def record_noise_buffers(monkeypatch):
    """Forward sample_wigner, recording (thread, ensemble kind, out's data pointer) per call."""
    real_sample_wigner = experiments.sample_wigner
    calls = []

    def forward(n, ens, stream, **kwargs):
        out = kwargs.get("out")
        calls.append((threading.get_ident(), ens.kind, None if out is None else out.ctypes.data))
        return real_sample_wigner(n, ens, stream, **kwargs)

    monkeypatch.setattr(experiments, "sample_wigner", forward)
    return calls


class TestNoiseBuffers:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_interpolation_trials_reuse_two_buffers_per_thread(self, monkeypatch, threads):
        calls = record_noise_buffers(monkeypatch)
        cfg = base_config(
            experiment="interpolation", n_grid=[60], trials=6, t_grid=[0.0, 0.5], threads=threads
        )
        run_experiment(cfg)
        assert len(calls) == 2 * 6
        per_thread = {}
        for thread, kind, pointer in calls:
            assert pointer is not None
            per_thread.setdefault(thread, {}).setdefault(kind, set()).add(pointer)
        buffers = []
        for by_kind in per_thread.values():
            assert sorted(by_kind) == ["gaussian", "rademacher"]
            assert all(len(pointers) == 1 for pointers in by_kind.values())
            buffers += [pointer for pointers in by_kind.values() for pointer in pointers]
        assert len(set(buffers)) == len(buffers)  # A and G apart, and no thread shares one

    @pytest.mark.parametrize("threads", [1, 2])
    def test_universality_draws_a_and_g_into_one_buffer_per_thread(self, monkeypatch, threads):
        calls = record_noise_buffers(monkeypatch)
        run_experiment(base_config(n_grid=[60], trials=6, threads=threads))
        assert sorted(kind for _, kind, _ in calls) == ["gaussian"] * 6 + ["rademacher"] * 6
        per_thread = {}
        for thread, _, pointer in calls:
            assert pointer is not None
            per_thread.setdefault(thread, set()).add(pointer)
        assert all(len(pointers) == 1 for pointers in per_thread.values())
        assert len(set.union(*per_thread.values())) == len(per_thread)


    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(experiment="bbp", gamma_grid=[2.0, 0.5], denoiser={"kind": "identity"}),
            dict(
                experiment="state_evolution",
                K=1,
                init="spectral",
                denoiser={"kind": "scaled_tanh", "schedule": "bayes"},
                phi={"kind": "se_pair"},
            ),
        ],
        ids=["bbp", "spectral_state_evolution"],
    )
    def test_gap_check_experiments_reuse_one_dense_buffer_per_thread(self, monkeypatch, threads, overrides):
        real_sample_wigner = experiments.sample_wigner
        layouts = []

        def forward(n, ens, stream, out=None):
            layouts.append((out.shape, out.flags.f_contiguous))
            return real_sample_wigner(n, ens, stream, out=out)

        monkeypatch.setattr(experiments, "sample_wigner", forward)
        calls = record_noise_buffers(monkeypatch)
        cfg = base_config(n_grid=[60], trials=6, threads=threads, **overrides)
        run_experiment(cfg)
        assert layouts == [((60, 60), True)] * len(calls)
        per_thread = {}
        for thread, _, pointer in calls:
            per_thread.setdefault(thread, set()).add(pointer)
        assert all(len(pointers) == 1 for pointers in per_thread.values())
        assert len(set.union(*per_thread.values())) == len(per_thread)


class TestConcentration:
    def test_u0_fixed_within_group(self):
        cfg = base_config(
            experiment="concentration",
            ensemble={"kind": "gaussian"},
            n_grid=[50],
            trials=3,
        )
        _, rows, _ = run_experiment(cfg)
        assert all(r["status"] == "ok" for r in rows)

    def test_constant_phi_zero_std(self):
        # a zero tanh schedule freezes the orbit at zero from step 1 on, so
        # tanh_product evaluates to 0 in every trial
        cfg = base_config(
            experiment="concentration",
            ensemble={"kind": "gaussian"},
            n_grid=[50],
            trials=4,
            denoiser={"kind": "scaled_tanh", "schedule": [0.0, 0.0, 0.0]},
        )
        _, rows, summary = run_experiment(cfg)
        assert all(r["phi"] == 0.0 for r in rows)
        assert summary["groups"][0]["std"] == 0.0

    def test_single_trial_degenerate_flag(self):
        cfg = base_config(
            experiment="concentration", ensemble={"kind": "gaussian"}, n_grid=[40], trials=1
        )
        _, rows, summary = run_experiment(cfg)
        assert summary["groups"][0]["std"] == 0.0
        assert "degenerate" in summary["extras"]


class TestPowerBound:
    def test_all_instances_hold(self):
        cfg = base_config(
            experiment="power_bound",
            ensemble={"kind": "gaussian"},
            n_grid=[32],
            trials=10,
            denoiser={"kind": "identity"},
            power_depth=15,
        )
        _, rows, summary = run_experiment(cfg)
        assert all(r["status"] == "ok" and r["holds"] == 1 for r in rows)
        holds = [e for e in summary["groups"] if e["field"] == "holds"]
        assert holds[0]["mean"] == 1.0

    @pytest.mark.parametrize("target, failing_call", [("jacobi_eigendecomp_stack", 1), ("sample_wigner", 2)])
    def test_error_raised_in_a_stack_is_every_members_status(self, monkeypatch, target, failing_call):
        # the byte cap stacks two trials at n = 128; the error comes from the first stack
        cfg = base_config(
            experiment="power_bound",
            ensemble={"kind": "gaussian"},
            n_grid=[128],
            trials=4,
            denoiser={"kind": "identity"},
            power_depth=15,
        )
        _, clean, _ = run_experiment(cfg)
        real = getattr(experiments, target)
        calls = []

        def fail_once(*args, **kwargs):
            calls.append(target)
            if len(calls) == failing_call:
                raise FloatingPointError("overflow")
            return real(*args, **kwargs)

        monkeypatch.setattr(experiments, target, fail_once)
        _, rows, summary = run_experiment(cfg)
        assert [r["status"] for r in rows] == ["FloatingPointError"] * 2 + ["ok"] * 2
        assert all(r[field] is None for r in rows[:2] for field in ("lhs", "rhs", "holds"))
        assert rows[2:] == clean[2:]
        assert summary["failures"] == {"128": 2}

    def test_programming_errors_still_end_the_run(self, monkeypatch):
        def broken(matrices, **kwargs):
            raise KeyError("bug")

        monkeypatch.setattr(experiments, "jacobi_eigendecomp_stack", broken)
        cfg = base_config(experiment="power_bound", n_grid=[8], trials=2, power_depth=5)
        with pytest.raises(KeyError):
            run_experiment(cfg)

    def test_instance_that_does_not_converge_is_one_status_row(self, monkeypatch):
        cfg = base_config(
            experiment="power_bound",
            ensemble={"kind": "gaussian"},
            n_grid=[32],
            trials=4,
            denoiser={"kind": "identity"},
            power_depth=15,
        )
        _, clean, _ = run_experiment(cfg)
        real_sample = experiments.sample_wigner
        draws = []

        def nan_in_third_draw(*args, **kwargs):
            mat = real_sample(*args, **kwargs)
            draws.append(mat)
            if len(draws) == 3:
                mat.entries[0] = np.nan  # no sweep brings its off-diagonal under the threshold
            return mat

        monkeypatch.setattr(experiments, "sample_wigner", nan_in_third_draw)
        _, rows, summary = run_experiment(cfg)
        assert [r["status"] for r in rows] == ["ok", "ok", "NumericalFailureError", "ok"]
        assert [r for i, r in enumerate(rows) if i != 2] == [r for i, r in enumerate(clean) if i != 2]
        assert summary["failures"] == {"32": 1}

    @pytest.mark.parametrize("threads", [1, 2])
    def test_stacks_cover_every_trial_once(self, monkeypatch, threads):
        stacks = []
        real_stack = experiments.jacobi_eigendecomp_stack
        monkeypatch.setattr(
            experiments,
            "jacobi_eigendecomp_stack",
            lambda matrices, **kwargs: stacks.append(len(matrices)) or real_stack(matrices, **kwargs),
        )
        cfg = base_config(
            experiment="power_bound",
            ensemble={"kind": "gaussian"},
            n_grid=[8, 128],
            trials=5,
            denoiser={"kind": "identity"},
            power_depth=15,
            threads=threads,
        )
        _, rows, _ = run_experiment(cfg)
        assert len(rows) == 10 and all(r["status"] == "ok" for r in rows)
        # the byte cap stacks two trials at n = 128; two threads get a stack each at n = 8
        assert sorted(stacks) == {1: [1, 2, 2, 5], 2: [1, 2, 2, 2, 3]}[threads]


# small configs for every experiment; the bbp and t grids do not ascend, so the
# rows must be sorted, and the state_evolution config has failed trials
BYTE_IDENTITY_CONFIGS = {
    "universality": dict(n_grid=[40, 80], trials=3),
    "state_evolution": NEAR_TRANSITION_SE,
    "bbp": dict(n_grid=[100], trials=2, gamma_grid=[2.0, 0.5], denoiser={"kind": "identity"}),
    "interpolation": dict(n_grid=[40, 60], trials=3, t_grid=[1.0, 0.3, 0.0, 0.7]),
    "concentration": dict(ensemble={"kind": "gaussian"}, n_grid=[40, 80], trials=3),
    "power_bound": dict(
        ensemble={"kind": "gaussian"},
        n_grid=[32],
        trials=3,
        denoiser={"kind": "identity"},
        power_depth=15,
    ),
}


@pytest.mark.parametrize("experiment", sorted(BYTE_IDENTITY_CONFIGS))
def test_records_byte_identical_on_rerun_and_across_threads(tmp_path, experiment):
    overrides = {"experiment": experiment, **BYTE_IDENTITY_CONFIGS[experiment]}
    for name, threads in (("a", 1), ("b", 1), ("c", 2)):
        columns, rows, summary = run_experiment(base_config(threads=threads, **overrides))
        write_records_csv(tmp_path / f"{name}.csv", columns, rows)
        write_summary_json(tmp_path / f"{name}.json", summary)
    if experiment == "state_evolution":
        assert any(row["status"] != "ok" for row in rows)
    for suffix in ("csv", "json"):
        first = (tmp_path / f"a.{suffix}").read_bytes()
        assert first == (tmp_path / f"b.{suffix}").read_bytes()
        assert first == (tmp_path / f"c.{suffix}").read_bytes()


class TestConfigValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match=r"unknown configuration keys: \['bogus'\]"):
            parse_config({"experiment": "universality", "n_grid": [10], "bogus": 1})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError, match=r"unknown ensemble keys: \['spice'\]"):
            parse_config(
                {
                    "experiment": "universality",
                    "n_grid": [10],
                    "ensemble": {"kind": "gaussian", "spice": 1},
                }
            )

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match=r"unknown experiment 'quantum'; expected one of"):
            parse_config({"experiment": "quantum", "n_grid": [10]})

    def test_n_grid_must_ascend(self):
        with pytest.raises(ConfigError, match=r"n_grid must be strictly ascending"):
            parse_config({"experiment": "universality", "n_grid": [100, 50]})

    def test_bbp_requires_gamma_grid(self):
        with pytest.raises(ConfigError, match=r"bbp requires gamma_grid"):
            parse_config({"experiment": "bbp", "n_grid": [10]})

    def test_gamma_grid_entries_nonnegative(self):
        with pytest.raises(ConfigError, match=r"gamma_grid entry must be >= 0, got -0.5"):
            parse_config({"experiment": "bbp", "n_grid": [10], "gamma_grid": [2.0, -0.5]})

    def test_interpolation_requires_t_grid(self):
        with pytest.raises(ConfigError, match=r"interpolation requires t_grid"):
            parse_config({"experiment": "interpolation", "n_grid": [10]})

    def test_t_grid_range_checked(self):
        with pytest.raises(ConfigError, match=r"t_grid values must lie in \[0, 1\]"):
            parse_config(
                {"experiment": "interpolation", "n_grid": [10], "t_grid": [0.0, 1.5]}
            )

    def test_concentration_requires_gaussian(self):
        with pytest.raises(ConfigError, match=r"concentration measures the Gaussian orbit; ensemble must be gaussian"):
            parse_config(
                {
                    "experiment": "concentration",
                    "n_grid": [10],
                    "ensemble": {"kind": "rademacher"},
                }
            )

    def test_power_bound_scale_cap(self):
        with pytest.raises(ConfigError, match=r"power_bound runs at oracle scale; n_grid must stay <= 256"):
            parse_config({"experiment": "power_bound", "n_grid": [512]})

    def test_spectral_se_needs_supercritical_gamma(self):
        with pytest.raises(ConfigError, match=r"spectral-init state evolution requires gamma > 1"):
            parse_config(
                {
                    "experiment": "state_evolution",
                    "n_grid": [10],
                    "gamma": 0.5,
                    "init": "spectral",
                }
            )

    def test_independent_se_needs_gaussian_prior(self):
        with pytest.raises(ConfigError, match=r"independent-init state evolution compares .*; prior must be gaussian"):
            parse_config(
                {
                    "experiment": "state_evolution",
                    "n_grid": [10],
                    "gamma": 2.0,
                    "init": "independent",
                    "prior": {"kind": "rademacher"},
                }
            )

    def test_bayes_schedule_needs_supercritical_gamma(self):
        with pytest.raises(ConfigError, match=r"the bayes tanh schedule requires gamma > 1"):
            parse_config(
                {
                    "experiment": "universality",
                    "n_grid": [10],
                    "gamma": 0.5,
                    "denoiser": {"kind": "scaled_tanh", "schedule": "bayes"},
                }
            )

    def test_canonical_json_round_trips(self):
        cfg = base_config()
        resolved = json.loads(cfg.canonical_json())
        assert resolved["experiment"] == "universality"
        assert resolved["trials"] == 4

    def test_resolved_dict_lists_every_default(self):
        cfg = parse_config({"experiment": "universality", "n_grid": [10], "gamma": 2.0})
        assert cfg.resolved_dict() == {
            "experiment": "universality",
            "n_grid": [10],
            "trials": 50,
            "master_seed": 0,
            "K": 5,
            "gamma": 2.0,
            "gamma_grid": None,
            "t_grid": None,
            "ensemble": {"kind": "gaussian", "param": None, "diagonal_policy": "same_law"},
            "prior": {"kind": "rademacher", "values": [], "probs": []},
            "denoiser": {
                "kind": "scaled_tanh",
                "schedule": "bayes",
                "weights": [],
                "offset": 0.0,
                "delta": 0.01,
            },
            "phi": {"kind": "tanh_product", "clip": 10.0},
            "engine": "onsager",
            "init": {"kind": "independent"},
            "power_depth": "auto",
            "diag_shift": 3.0,
            "gauss_hermite_nodes": 61,
            "gauss_legendre_nodes": 64,
            "records_csv": None,
            "summary_json": None,
            "threads": 1,
        }


class TestReportingRoundTrip:
    def test_csv_written_and_read_back(self, tmp_path):
        cfg = base_config(n_grid=[40], trials=2)
        columns, rows, summary = run_experiment(cfg)
        path = tmp_path / "records.csv"
        write_records_csv(path, columns, rows)
        back = read_rows(path)
        assert len(back) == len(rows)
        assert float(back[0]["phi_a"]) == rows[0]["phi_a"]

    def test_byte_identical_reruns(self, tmp_path):
        cfg = base_config(n_grid=[40], trials=3)
        for name in ("a", "b"):
            columns, rows, summary = run_experiment(cfg)
            write_records_csv(tmp_path / f"{name}.csv", columns, rows)
            write_summary_json(tmp_path / f"{name}.json", summary)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
