import csv
import errno
import json
import math
import os
import subprocess
import sys

import pytest

import amplab
from amplab import cli, experiments
from amplab.cli import main
from amplab.config import load_config, parse_config


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


BASE = {
    "experiment": "universality",
    "n_grid": [40, 80],
    "trials": 3,
    "master_seed": 5,
    "K": 2,
    "gamma": 2.0,
    "ensemble": {"kind": "rademacher"},
    "prior": {"kind": "rademacher"},
    "denoiser": {"kind": "scaled_tanh", "schedule": [2.0, 2.0]},
    "phi": {"kind": "tanh_product"},
}


class TestRunCommand:
    def test_missing_config_names_path(self, capsys):
        code = main(["run", "--config", "/nonexistent/missing.json"])
        assert code == 1
        assert "/nonexistent/missing.json" in capsys.readouterr().err

    def test_invalid_json_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path)]) == 1

    def test_directory_as_config_is_config_error(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path)]) == 1
        assert f"cannot read config file {tmp_path}" in capsys.readouterr().err

    def test_unknown_key_is_config_error(self, tmp_path):
        cfg = dict(BASE)
        cfg["mystery"] = True
        assert main(["run", "--config", write_config(tmp_path, cfg)]) == 1

    def test_dry_run_prints_canonical_json_and_writes_nothing(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main(
            [
                "run",
                "--config",
                write_config(tmp_path, BASE),
                "--out-dir",
                str(out_dir),
                "--dry-run",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        resolved = json.loads(printed)
        assert resolved["experiment"] == "universality"
        assert resolved["trials"] == 3
        assert not out_dir.exists()

    def test_full_run_row_and_group_counts(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main(
            ["run", "--config", write_config(tmp_path, BASE), "--out-dir", str(out_dir)]
        )
        assert code == 0
        with open(out_dir / "universality_records.csv", encoding="utf-8", newline="") as fh:
            records = list(csv.DictReader(fh))
        assert len(records) == len(BASE["n_grid"]) * BASE["trials"]
        summary = json.loads((out_dir / "universality_summary.json").read_text())
        assert len(summary["groups"]) == len(BASE["n_grid"])
        assert summary["experiment"] == "universality"

    def test_reruns_byte_identical(self, tmp_path):
        cfg_path = write_config(tmp_path, BASE)
        for name in ("r1", "r2"):
            assert main(["run", "--config", cfg_path, "--out-dir", str(tmp_path / name)]) == 0
        a = (tmp_path / "r1" / "universality_records.csv").read_bytes()
        b = (tmp_path / "r2" / "universality_records.csv").read_bytes()
        assert a == b

    def test_threads_flag_preserves_bytes(self, tmp_path):
        cfg_path = write_config(tmp_path, BASE)
        assert main(["run", "--config", cfg_path, "--out-dir", str(tmp_path / "t1")]) == 0
        assert (
            main(
                [
                    "run",
                    "--config",
                    cfg_path,
                    "--out-dir",
                    str(tmp_path / "t4"),
                    "--threads",
                    "4",
                ]
            )
            == 0
        )
        a = (tmp_path / "t1" / "universality_records.csv").read_bytes()
        b = (tmp_path / "t4" / "universality_records.csv").read_bytes()
        assert a == b

    def test_bbp_records_byte_identical_on_rerun_and_across_threads(self, tmp_path):
        # below the transition some trials' spectral inits fall back to applies
        cfg = {
            "experiment": "bbp",
            "n_grid": [300],
            "trials": 4,
            "master_seed": 20240810,
            "gamma_grid": [0.5, 2.0],
            "ensemble": {"kind": "rademacher"},
            "denoiser": {"kind": "identity"},
        }
        cfg_path = write_config(tmp_path, cfg)
        for name, threads in (("r1", "1"), ("r2", "1"), ("r3", "2")):
            args = ["run", "--config", cfg_path, "--out-dir", str(tmp_path / name)]
            assert main(args + ["--threads", threads]) == 0
        first = (tmp_path / "r1" / "bbp_records.csv").read_bytes()
        for name in ("r2", "r3"):
            assert (tmp_path / name / "bbp_records.csv").read_bytes() == first

    def test_bbp_records_byte_identical_where_blas_threads_the_apply(self, tmp_path):
        # at n=1000 OpenBLAS splits the dense dsymv apply across its own
        # threads (at n=300 it may run it on one), and two trial workers then
        # call it concurrently
        cfg = {
            "experiment": "bbp",
            "n_grid": [1000],
            "trials": 2,
            "master_seed": 20240810,
            "gamma_grid": [0.5, 2.0],
            "ensemble": {"kind": "rademacher"},
            "denoiser": {"kind": "identity"},
        }
        cfg_path = write_config(tmp_path, cfg)
        for name, threads in (("r1", "1"), ("r2", "1"), ("r3", "2")):
            args = ["run", "--config", cfg_path, "--out-dir", str(tmp_path / name)]
            assert main(args + ["--threads", threads]) == 0
        first = (tmp_path / "r1" / "bbp_records.csv").read_bytes()
        for name in ("r2", "r3"):
            assert (tmp_path / name / "bbp_records.csv").read_bytes() == first

    def test_seed_override_changes_records(self, tmp_path):
        cfg_path = write_config(tmp_path, BASE)
        main(["run", "--config", cfg_path, "--out-dir", str(tmp_path / "s1")])
        main(["run", "--config", cfg_path, "--out-dir", str(tmp_path / "s2"), "--seed", "99"])
        a = (tmp_path / "s1" / "universality_records.csv").read_bytes()
        b = (tmp_path / "s2" / "universality_records.csv").read_bytes()
        assert a != b

    def test_numerical_failure_exits_2(self, tmp_path, capsys):
        # a near-step tanh defeats the quadrature escalation inside the
        # state-evolution prediction, which aborts the run before any trial
        cfg = {
            "experiment": "state_evolution",
            "n_grid": [50],
            "trials": 1,
            "K": 1,
            "gamma": 2.0,
            "init": "spectral",
            "prior": {"kind": "rademacher"},
            "denoiser": {"kind": "scaled_tanh", "schedule": [1e8, 1e8]},
            "phi": {"kind": "se_pair"},
        }
        code = main(["run", "--config", write_config(tmp_path, cfg)])
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_spectral_soft_threshold_run_completes(self, tmp_path):
        # the C^1 soft threshold needs its split quadrature rule: with Gauss-Hermite
        # doubling alone the scalar recursion never settled and the run exited 2.
        # The records carry no accuracy bound: the first corrected step of the
        # spectral orbit is known to miss the prediction at this size
        cfg = {
            **BASE,
            "experiment": "state_evolution",
            "n_grid": [200],
            "trials": 2,
            "K": 3,
            "gamma": 2.0,
            "init": "spectral",
            "denoiser": {"kind": "smooth_soft_threshold", "schedule": [0.5] * 3},
            "phi": {"kind": "se_pair"},
        }
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out-dir", str(tmp_path)]) == 0
        with open(tmp_path / "state_evolution_records.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 4
        assert all(math.isfinite(float(r["phi_prediction"])) for r in rows)

    def test_zero_prior_draw_is_a_bbp_status_row(self, tmp_path):
        # at n=2 the three-point prior draws u0 = 0 in some trials; the gap
        # check has no start vector there, and only those trials fail
        cfg = {
            "experiment": "bbp",
            "n_grid": [2],
            "trials": 12,
            "master_seed": 1,
            "gamma_grid": [2.0],
            "prior": {
                "kind": "three_point",
                "values": [-1.4142135623730951, 0.0, 1.4142135623730951],
                "probs": [0.25, 0.5, 0.25],
            },
            "denoiser": {"kind": "identity"},
        }
        code = main(["run", "--config", write_config(tmp_path, cfg), "--out-dir", str(tmp_path)])
        assert code == 0
        with open(tmp_path / "bbp_records.csv", encoding="utf-8", newline="") as fh:
            statuses = [row["status"] for row in csv.DictReader(fh)]
        assert len(statuses) == 12
        assert set(statuses) == {"ok", "DegenerateInputError"}

    def test_memory_error_exits_2_and_writes_nothing(self, tmp_path, capsys, monkeypatch):
        def out_of_memory(n, ens, stream, **kwargs):
            raise MemoryError("Unable to allocate 10.0 GiB")

        monkeypatch.setattr(experiments, "sample_wigner", out_of_memory)
        out_dir = tmp_path / "out"
        code = main(["run", "--config", write_config(tmp_path, BASE), "--out-dir", str(out_dir)])
        assert code == 2
        assert capsys.readouterr().err == "error: out of memory: Unable to allocate 10.0 GiB\n"
        assert list(out_dir.iterdir()) == []  # created before the run, so a bad path fails first

    @pytest.mark.parametrize("value", ["0", "-4"])
    def test_threads_flag_checked_like_the_config_key(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path, BASE)
        code = main(["run", "--config", cfg, "--dry-run", "--threads", value])
        assert code == 1
        assert f"threads must be >= 1, got {value}" in capsys.readouterr().err

    def test_overrides_reach_the_resolved_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**BASE, "threads": 2})
        assert main(["run", "--config", cfg, "--dry-run", "--seed", "9", "--threads", "3"]) == 0
        resolved = json.loads(capsys.readouterr().out)
        assert (resolved["threads"], resolved["master_seed"]) == (3, 9)
        assert main(["run", "--config", cfg, "--dry-run", "--threads", "4"]) == 0
        assert json.loads(capsys.readouterr().out)["threads"] == 4

    @pytest.mark.parametrize("value", ["3", "0", "x"])
    def test_threads_environment_variable_is_ignored(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv("AMPLAB_THREADS", value)
        cfg = write_config(tmp_path, {**BASE, "threads": 2})
        assert main(["run", "--config", cfg, "--dry-run"]) == 0
        assert json.loads(capsys.readouterr().out)["threads"] == 2

    def test_config_paths_used_without_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = dict(BASE)
        cfg["records_csv"] = str(tmp_path / "custom" / "rec.csv")
        cfg["summary_json"] = str(tmp_path / "custom" / "sum.json")
        assert main(["run", "--config", write_config(tmp_path, cfg)]) == 0
        assert (tmp_path / "custom" / "rec.csv").exists()
        assert (tmp_path / "custom" / "sum.json").exists()

    def test_unwritable_out_dir_fails_before_the_run(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "afile").write_text("")
        runs = []
        monkeypatch.setattr(cli, "run_experiment", lambda cfg: runs.append(cfg))
        args = ["run", "--config", write_config(tmp_path, BASE), "--out-dir", str(tmp_path / "afile" / "sub")]
        assert main(args) == 1
        assert runs == []
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output:") and "afile" in err and "Traceback" not in err

    def test_one_file_for_records_and_summary_fails_before_the_run(self, tmp_path, capsys, monkeypatch):
        # a relative and an absolute spelling of one file
        monkeypatch.chdir(tmp_path)
        runs = []
        monkeypatch.setattr(cli, "run_experiment", lambda cfg: runs.append(cfg))
        cfg = {**BASE, "records_csv": "same/out.txt", "summary_json": str(tmp_path / "same" / "out.txt")}
        assert main(["run", "--config", write_config(tmp_path, cfg)]) == 1
        assert runs == []
        assert capsys.readouterr().err.startswith("error: records and summary are both same/out.txt")
        assert not (tmp_path / "same").exists()

    def test_unwritable_records_path_exits_1(self, tmp_path, capsys):
        # the parent exists, but the records path is a directory
        cfg = {**BASE, "records_csv": str(tmp_path), "summary_json": str(tmp_path / "sum.json")}
        assert main(["run", "--config", write_config(tmp_path, cfg)]) == 1
        assert capsys.readouterr().err.startswith("error: cannot write output:")
        assert not (tmp_path / "sum.json").exists()

    def test_unwritable_summary_path_leaves_no_records(self, tmp_path, capsys):
        # the records are written, then the summary path turns out to be a directory
        (tmp_path / "o1" / "sumdir").mkdir(parents=True)
        paths = {"records_csv": str(tmp_path / "o1" / "rec.csv"), "summary_json": str(tmp_path / "o1" / "sumdir")}
        cfg = {**BASE, **paths}
        assert main(["run", "--config", write_config(tmp_path, cfg)]) == 1
        assert capsys.readouterr().err.startswith("error: cannot write output:")
        assert sorted(p.name for p in (tmp_path / "o1").iterdir()) == ["sumdir"]

    @pytest.mark.parametrize("failing", ["write_records_csv", "write_summary_json"])
    def test_write_failure_after_open_leaves_no_output(self, tmp_path, capsys, monkeypatch, failing):
        def write_one_line(path, *payload):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("n,trial\n")
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(cli, failing, write_one_line)
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, BASE), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: cannot write output: [Errno 28]")
        assert list(out.iterdir()) == []

    def test_file_the_run_could_not_open_is_kept(self, tmp_path, capsys, monkeypatch):
        def refuse_open(path, *payload):
            raise PermissionError(errno.EACCES, "Permission denied", path)

        monkeypatch.setattr(cli, "write_summary_json", refuse_open)
        out = tmp_path / "out"
        out.mkdir()
        (out / "universality_summary.json").write_text("kept")
        assert main(["run", "--config", write_config(tmp_path, BASE), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: cannot write output: [Errno 13]")
        assert [p.name for p in out.iterdir()] == ["universality_summary.json"]
        assert (out / "universality_summary.json").read_text() == "kept"

    def test_out_dir_replaces_both_config_paths(self, tmp_path):
        paths = {"records_csv": str(tmp_path / "o1" / "rec.csv"), "summary_json": str(tmp_path / "o1" / "sum.json")}
        cfg = write_config(tmp_path, {**BASE, **paths})
        assert main(["run", "--config", cfg, "--out-dir", str(tmp_path / "o2")]) == 0
        assert not (tmp_path / "o1").exists()
        assert sorted(p.name for p in (tmp_path / "o2").iterdir()) == [
            "universality_records.csv",
            "universality_summary.json",
        ]


# malformed shapes, each paired with the key its error message must name
MALFORMED = [
    ({"n_grid": 5}, "n_grid"),
    ({"gamma_grid": 2.0}, "gamma_grid"),
    ({"ensemble": 5}, "ensemble"),
    ({"ensemble": "gaussian"}, "ensemble"),
    ({"init": 5}, "init"),
    ({"phi": {"clip": "x"}}, "clip"),
    ({"ensemble": {"kind": "centered_bernoulli", "param": "x"}}, "param"),
    ({"experiment": "interpolation", "t_grid": []}, "t_grid"),
    # a repeated entry would write each of its rows twice under one key
    ({"experiment": "bbp", "gamma_grid": [2.0, 2.0]}, "gamma_grid entries must be distinct, got [2.0, 2.0]"),
    ({"experiment": "interpolation", "t_grid": [0.5, 0.5]}, "t_grid entries must be distinct, got [0.5, 0.5]"),
    # the Monte Carlo covariance recursion's keys are gone, not silently ignored
    ({"mc_samples": 100000}, "unknown configuration keys: ['mc_samples']"),
    ({"se_seed": 0}, "unknown configuration keys: ['se_seed']"),
    # a value its kind would ignore is refused, not echoed
    ({"ensemble": {"kind": "gaussian", "param": 0.3}}, "gaussian ensemble takes no param"),
    ({"denoiser": {"kind": "identity", "schedule": "bayes"}}, "identity takes a list or null"),
    ({"n_grid": []}, "n_grid must be nonempty"),
    ({"records_csv": 5}, "records_csv must be a string path"),
    ({"denoiser": {"kind": "scaled_tanh", "schedule": 5}}, "schedule must be a list or 'bayes', got 5"),
    ({"denoiser": {"kind": "scaled_tanh", "schedule": [2.0]}}, "schedule of length 1 does not cover K=2"),
    ({"init": {"kind": "spectral", "x": 1}}, "unknown init keys: ['x']"),
    # the streams hash the seed as one 64-bit word, so a seed outside [0, 2**64) would alias another
    ({"master_seed": -1}, "master_seed must be >= 0, got -1"),
    ({"master_seed": 1 << 64}, "unknown master_seed 18446744073709551616"),
    ({"trials": 2.0}, "trials must be an integer, got 2.0"),
]


class TestConfigErrors:
    @pytest.mark.parametrize("overrides, key", MALFORMED, ids=[json.dumps(o) for o, _ in MALFORMED])
    def test_malformed_shape_is_config_error(self, tmp_path, capsys, overrides, key):
        args = ["run", "--config", write_config(tmp_path, {**BASE, **overrides})]
        for dry_run in ([], ["--dry-run"]):
            code = main(args + dry_run)
            err = capsys.readouterr().err
            assert code == 1
            assert err.startswith("error:")
            assert key in err

    @pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
    def test_seed_override_outside_64_bits_is_config_error(self, tmp_path, capsys, seed):
        args = ["run", "--config", write_config(tmp_path, BASE), "--out-dir", str(tmp_path / "out"), "--seed", seed]
        for dry_run in ([], ["--dry-run"]):
            assert main(args + dry_run) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and "master_seed" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "data, message",
        [
            ([BASE], "configuration must be a JSON object"),
            ({k: v for k, v in BASE.items() if k != "experiment"}, "missing required key 'experiment'"),
        ],
        ids=["not_an_object", "no_experiment"],
    )
    def test_malformed_document_is_config_error(self, tmp_path, capsys, data, message):
        assert main(["run", "--config", write_config(tmp_path, data), "--dry-run"]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"experiment": "bbp", "gamma_grid": [math.nan]}, "gamma_grid entry must be finite, got nan"),
            ({"experiment": "power_bound", "diag_shift": math.nan}, "diag_shift must be finite, got nan"),
            ({"gamma": math.inf}, "gamma must be finite, got inf"),
        ],
        ids=["nan_gamma_grid", "nan_diag_shift", "infinite_gamma"],
    )
    @pytest.mark.parametrize("dry_run", [True, False], ids=["dry_run", "run"])
    def test_non_finite_number_is_config_error(self, tmp_path, capsys, overrides, message, dry_run):
        cfg = write_config(tmp_path, {**BASE, "denoiser": {"kind": "identity"}, **overrides})
        assert "NaN" in open(cfg).read() or "Infinity" in open(cfg).read()
        args = ["run", "--config", cfg, "--out-dir", str(tmp_path / "out")]
        assert main(args + ["--dry-run"] * dry_run) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (
                {"experiment": "bbp", "gamma_grid": [2.0], "denoiser": {"kind": "bogus"}},
                "unknown denoiser kind 'bogus'",
            ),
            (
                {"denoiser": {"kind": "smooth_soft_threshold", "schedule": "bayes"}},
                "smooth_soft_threshold requires a per-iteration schedule",
            ),
        ],
        ids=["unknown_kind_on_bbp", "bayes_soft_threshold"],
    )
    def test_denoiser_checked_by_dry_run(self, tmp_path, capsys, overrides, message):
        cfg = write_config(tmp_path, {**BASE, **overrides})
        assert main(["run", "--config", cfg, "--dry-run"]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (
                {
                    "gamma": 2.0,
                    "init": "independent",
                    "prior": {"kind": "gaussian"},
                    "denoiser": {"kind": "identity"},
                },
                "has no spike term; gamma must be 0",
            ),
            (
                {
                    "gamma": 2.0,
                    "init": "spectral",
                    "denoiser": {"kind": "linear_combo", "weights": [1.0, 0.5]},
                },
                "the denoiser must act on the newest iterate only",
            ),
            # the uncorrected orbit is not the one either recursion predicts
            (
                {
                    "gamma": 0.0,
                    "engine": "generalized",
                    "prior": {"kind": "gaussian"},
                    "denoiser": {"kind": "identity"},
                },
                "engine must be onsager",
            ),
            (
                {"gamma": 2.0, "init": "spectral", "engine": "generalized", "denoiser": {"kind": "identity"}},
                "engine must be onsager",
            ),
        ],
        ids=[
            "spiked_independent_init",
            "spectral_init_with_memory_denoiser",
            "generalized_independent_init",
            "generalized_spectral_init",
        ],
    )
    @pytest.mark.parametrize("dry_run", [True, False], ids=["dry_run", "run"])
    def test_state_evolution_outside_its_recursion(self, tmp_path, capsys, overrides, message, dry_run):
        cfg = {**BASE, "experiment": "state_evolution", "n_grid": [50], "trials": 1, "K": 3, **overrides}
        args = ["run", "--config", write_config(tmp_path, cfg), "--out-dir", str(tmp_path / "out")]
        assert main(args + ["--dry-run"] * dry_run) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


# a small run of each experiment; together they build both Gauss rules, run the gap check and
# apply packed and dense matrices
SMALL_RUNS = {
    "universality": {"n_grid": [40], "denoiser": {"kind": "scaled_tanh", "schedule": "bayes"}},
    "state_evolution": {
        "n_grid": [200],
        "init": "spectral",
        "prior": {"kind": "uniform_sqrt3"},  # Gauss-Legendre for the prior, Hermite for the noise
        "phi": {"kind": "se_pair"},
    },
    "bbp": {"n_grid": [60], "gamma_grid": [2.0], "denoiser": {"kind": "identity"}},
    "interpolation": {"n_grid": [40], "t_grid": [0.0, 0.5, 1.0]},
    "concentration": {"n_grid": [40], "ensemble": {"kind": "gaussian"}},
    "power_bound": {
        "n_grid": [16],
        "ensemble": {"kind": "gaussian"},
        "denoiser": {"kind": "identity"},
        "power_depth": 5,
    },
}


@pytest.mark.parametrize("experiment", sorted(SMALL_RUNS))
def test_dry_run_output_parses_back_to_the_config(tmp_path, capsys, experiment):
    # the printed document spells init as an object and unset paths and grids as null
    path = write_config(tmp_path, {**BASE, "experiment": experiment, **SMALL_RUNS[experiment]})
    assert main(["run", "--config", path, "--dry-run"]) == 0
    assert parse_config(json.loads(capsys.readouterr().out)) == load_config(path)


class TestImports:
    def test_one_openblas_and_no_scipy_per_run(self, tmp_path):
        """In a fresh interpreter importing amplab from this checkout: after `import amplab.cli`
        and after each run, no scipy module is loaded, nothing under scipy.libs is mapped, and
        exactly one OpenBLAS file (numpy's) is. The runs use one worker, so the thread pool's
        concurrent.futures (and the logging it imports) stays unloaded too."""
        runs = []
        for experiment, overrides in SMALL_RUNS.items():
            cfg = write_config(tmp_path, {**BASE, "experiment": experiment, **overrides}, f"{experiment}.json")
            runs.append((experiment, cfg, str(tmp_path / experiment)))
        src = os.path.dirname(os.path.dirname(os.path.abspath(amplab.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = "\n".join(
            [
                "import json, os, sys",
                "from amplab.cli import main",
                "def report(name, code):",
                "    with open('/proc/self/maps') as maps:",
                "        files = {line.split(maxsplit=5)[5].strip() for line in maps if len(line.split()) > 5}",
                "    print(json.dumps([name, code, {",
                "        'scipy': sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'),",
                "        'scipy.libs': sorted(f for f in files if 'scipy.libs' in f.split(os.sep)),",
                "        'pool': sorted(m for m in ('concurrent.futures', 'logging') if m in sys.modules),",
                "        'openblas': sorted(os.path.basename(f) for f in files",
                "                           if os.path.basename(f).startswith('libscipy_openblas')),",
                "    }]))",
                "report('import', 0)",
                f"for name, cfg, out in {runs!r}:",
                "    report(name, main(['run', '--config', cfg, '--out-dir', out]))",
            ]
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        report = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("[")]
        assert [line[:2] for line in report] == [["import", 0]] + [[name, 0] for name in SMALL_RUNS]
        for name, _, state in report:
            assert state["scipy"] == state["scipy.libs"] == state["pool"] == [], (name, state)
            assert len(state["openblas"]) == 1, (name, state)
        for experiment in SMALL_RUNS:
            assert (tmp_path / experiment / f"{experiment}_records.csv").exists()


class TestSelftest:
    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
