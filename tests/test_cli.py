import csv
import errno
import json
import math
import os
import re
import subprocess
import sys

import pytest

import amplab
from amplab import cli, experiments, selftest
from amplab.cli import main
from amplab.config import load_config, parse_config
from amplab.errors import ConfigError


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

    def test_seed_override_changes_records(self, tmp_path):
        cfg_path = write_config(tmp_path, BASE)
        main(["run", "--config", cfg_path, "--out-dir", str(tmp_path / "s1")])
        main(["run", "--config", cfg_path, "--out-dir", str(tmp_path / "s2"), "--seed", "99"])
        a = (tmp_path / "s1" / "universality_records.csv").read_bytes()
        b = (tmp_path / "s2" / "universality_records.csv").read_bytes()
        assert a != b

    def test_numerical_failure_exits_2(self, tmp_path, capsys):
        # se_pair clipped at 0.25 has kinks in w that the prior's Legendre rule is
        # not split at, so the prediction still moves at the doubling cap of 2-node
        # rules (128 nodes) and aborts the run before any trial
        cfg = {
            "experiment": "state_evolution",
            "n_grid": [50],
            "trials": 1,
            "K": 1,
            "gamma": 2.0,
            "init": "spectral",
            "prior": {"kind": "uniform_sqrt3"},
            "denoiser": {"kind": "scaled_tanh", "schedule": [1.0, 1.0]},
            "phi": {"kind": "se_pair", "clip": 0.25},
            "gauss_hermite_nodes": 2,
            "gauss_legendre_nodes": 2,
        }
        code = main(["run", "--config", write_config(tmp_path, cfg)])
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err

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


# every config refused before a trial runs, as (overrides on BASE, text its error message must contain);
# a new refused case is one more row. SMALL_SE is the base of the rows that the recursions refuse
SMALL_SE = {"experiment": "state_evolution", "n_grid": [50], "trials": 1, "K": 3, "denoiser": {"kind": "identity"}}
REFUSED = [
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
    ({"bogus": 1}, "unknown configuration keys: ['bogus']"),
    # the Monte Carlo covariance recursion's keys are gone, not silently ignored
    ({"mc_samples": 100000}, "unknown configuration keys: ['mc_samples']"),
    ({"se_seed": 0}, "unknown configuration keys: ['se_seed']"),
    ({"ensemble": {"kind": "gaussian", "spice": 1}}, "unknown ensemble keys: ['spice']"),
    ({"experiment": "quantum"}, "unknown experiment 'quantum'; expected one of"),
    # a value its kind would ignore is refused, not echoed
    ({"ensemble": {"kind": "gaussian", "param": 0.3}}, "gaussian ensemble takes no param"),
    ({"denoiser": {"kind": "identity", "schedule": "bayes"}}, "identity takes a list or null"),
    ({"n_grid": []}, "n_grid must be nonempty"),
    ({"n_grid": [100, 50]}, "n_grid must be strictly ascending"),
    ({"records_csv": 5}, "records_csv must be a string path"),
    ({"denoiser": {"kind": "scaled_tanh", "schedule": 5}}, "schedule must be a list or 'bayes', got 5"),
    ({"denoiser": {"kind": "scaled_tanh", "schedule": [2.0]}}, "schedule of length 1 does not cover K=2"),
    ({"init": {"kind": "spectral", "x": 1}}, "unknown init keys: ['x']"),
    # the streams hash the seed as one 64-bit word, so a seed outside [0, 2**64) would alias another
    ({"master_seed": -1}, "master_seed must be >= 0, got -1"),
    ({"master_seed": 1 << 64}, "unknown master_seed 18446744073709551616"),
    ({"trials": 2.0}, "trials must be an integer, got 2.0"),
    (
        {"experiment": "bbp", "gamma_grid": [math.nan], "denoiser": {"kind": "identity"}},
        "gamma_grid entry must be finite, got nan",
    ),
    (
        {"experiment": "power_bound", "diag_shift": math.nan, "denoiser": {"kind": "identity"}},
        "diag_shift must be finite, got nan",
    ),
    ({"gamma": math.inf, "denoiser": {"kind": "identity"}}, "gamma must be finite, got inf"),
    ({"experiment": "bbp"}, "bbp requires gamma_grid"),
    ({"experiment": "bbp", "gamma_grid": [2.0, -0.5]}, "gamma_grid entry must be >= 0, got -0.5"),
    ({"experiment": "bbp", "gamma_grid": [2.0], "denoiser": {"kind": "bogus"}}, "unknown denoiser kind 'bogus'"),
    ({"experiment": "interpolation"}, "interpolation requires t_grid"),
    ({"experiment": "interpolation", "t_grid": [0.0, 1.5]}, "t_grid values must lie in [0, 1]"),
    (
        {"experiment": "concentration", "ensemble": {"kind": "rademacher"}},
        "concentration measures the Gaussian orbit; ensemble must be gaussian",
    ),
    ({"experiment": "power_bound", "n_grid": [512]}, "power_bound runs at oracle scale; n_grid must stay <= 256"),
    (
        {"gamma": 0.5, "denoiser": {"kind": "scaled_tanh", "schedule": "bayes"}},
        "the bayes tanh schedule requires gamma > 1",
    ),
    (
        {"denoiser": {"kind": "smooth_soft_threshold", "schedule": "bayes"}},
        "smooth_soft_threshold requires a per-iteration schedule",
    ),
    (
        {"experiment": "state_evolution", "gamma": 0.5, "init": "spectral"},
        "spectral-init state evolution requires gamma > 1",
    ),
    (
        {"experiment": "state_evolution", "gamma": 2.0, "init": "independent", "prior": {"kind": "rademacher"}},
        "independent-init state evolution compares against the Gaussian covariance recursion; prior must be gaussian",
    ),
    (
        {**SMALL_SE, "gamma": 2.0, "init": "independent", "prior": {"kind": "gaussian"}},
        "has no spike term; gamma must be 0",
    ),
    (
        {**SMALL_SE, "gamma": 2.0, "init": "spectral", "denoiser": {"kind": "linear_combo", "weights": [1.0, 0.5]}},
        "the denoiser must act on the newest iterate only",
    ),
    # the uncorrected orbit is not the one either recursion predicts
    ({**SMALL_SE, "gamma": 0.0, "engine": "generalized", "prior": {"kind": "gaussian"}}, "engine must be onsager"),
    ({**SMALL_SE, "gamma": 2.0, "init": "spectral", "engine": "generalized"}, "engine must be onsager"),
]


class TestConfigErrors:
    # the CLI alone cannot tell a ConfigError from the ValueError that _cmd_run also catches
    @pytest.mark.parametrize("overrides, message", REFUSED, ids=[json.dumps(o) for o, _ in REFUSED])
    def test_parse_config_raises_config_error(self, overrides, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config({**BASE, **overrides})

    @pytest.mark.parametrize("overrides, message", REFUSED, ids=[json.dumps(o) for o, _ in REFUSED])
    @pytest.mark.parametrize("dry_run", [True, False], ids=["dry_run", "run"])
    def test_refused_before_any_trial(self, tmp_path, capsys, overrides, message, dry_run):
        args = ["run", "--config", write_config(tmp_path, {**BASE, **overrides}), "--out-dir", str(tmp_path / "out")]
        assert main(args + ["--dry-run"] * dry_run) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not (tmp_path / "out").exists()

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
        and after each run, no scipy module and not amplab.selftest is loaded, nothing under
        scipy.libs is mapped, and exactly one OpenBLAS file (numpy's) is. The runs use one worker,
        so the thread pool's concurrent.futures (and the logging it imports) stays unloaded too."""
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
                "        'selftest': [m for m in sys.modules if m == 'amplab.selftest'],",
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
            assert state["scipy"] == state["scipy.libs"] == state["pool"] == state["selftest"] == [], (name, state)
            assert len(state["openblas"]) == 1, (name, state)
        for experiment in SMALL_RUNS:
            assert (tmp_path / experiment / f"{experiment}_records.csv").exists()


class TestSelftest:
    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_selftest_fails_on_wrong_covariance_and_partials(self, capsys, monkeypatch):
        # shifted covariances and partials fail their two checks; the other four still pass
        for name in ("se_covariance", "denoiser_partial"):
            real = getattr(selftest, name)
            monkeypatch.setattr(selftest, name, lambda *args, real=real: real(*args) + 1.0)
        assert main(["selftest"]) == 2
        failing = {"covariance recursion: identity and split-rule quadrature", "analytic partials vs finite differences"}
        expected = [f"{'FAIL' if name in failing else 'PASS'}  {name}" for name, _ in selftest.CHECKS]
        assert capsys.readouterr().out.splitlines() == expected
