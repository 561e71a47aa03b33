"""Self-tests of the benchmark: span arithmetic, patching, tracing and the gate."""

import csv
import json
import os
import subprocess
import sys
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from bench import gate, layers, spans  # noqa: E402
from bench.run import END_TO_END  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402


def test_self_time_subtracts_the_union_of_child_intervals():
    tree = [
        ("root", 0, 100, -1, -1, 0),
        ("a", 10, 40, 0, -1, 0),
        ("b", 30, 60, 0, -1, 0),  # overlaps a: together they cover 10..60
        ("c", 15, 20, 1, -1, 0),
        ("d", 90, 120, 0, -1, 0),  # runs past root: only 90..100 counts against it
    ]
    assert spans.self_times(tree) == [40, 25, 30, 5, 30]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond_it():
    assert layers.timing_summary([])[2:] == (0.0, 0)
    assert layers.timing_summary(list(range(19)))[2:] == (50.0, 19)
    assert layers.timing_summary(list(range(100)))[2:] == (90.0, 100)
    assert layers.timing_summary(list(range(1000)))[2:] == (99.0, 1000)


def _owner(module_name, attribute):
    owner = sys.modules[module_name]
    *path, attr = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def test_tracer_restores_every_patched_attribute(monkeypatch):
    fake = types.ModuleType("bench_fake_module")

    class Base:
        def apply(self, x):
            return x

    class Derived(Base):
        pass  # inherits apply: uninstall must delete the patch, not copy Base.apply in

    fake.Base, fake.Derived = Base, Derived
    monkeypatch.setitem(sys.modules, "bench_fake_module", fake)
    targets = spans.TARGETS + (
        ("bench_fake_module", "Derived.apply", "fake.apply"),
        ("bench_fake_module", "absent", "fake.absent"),
    )
    import amplab.cli  # noqa: F401  (loads every module the targets name)

    present = [t for t in targets if t[1] != "absent"]
    before = []
    for module_name, attribute, _ in present:
        owner, attr = _owner(module_name, attribute)
        before.append((owner, attr, getattr(owner, attr), attr in vars(owner)))
    tracer = spans.Tracer()
    tracer.install(targets)
    assert tracer.missing == ["bench_fake_module.absent"]
    for owner, attr, original, _ in before:
        assert getattr(owner, attr) is not original
    assert Derived().apply(3) == 3 and tracer.spans[-1][0] == "fake.apply"
    tracer.uninstall()
    for owner, attr, original, had_own in before:
        assert getattr(owner, attr) is original
        assert (attr in vars(owner)) == had_own


_SMALL_CONFIGS = {
    "bbp": {
        "experiment": "bbp", "n_grid": [120], "trials": 1, "master_seed": 7, "gamma_grid": [0.5, 2.0],
        "ensemble": {"kind": "rademacher"}, "prior": {"kind": "rademacher"},
        "denoiser": {"kind": "identity"}, "power_depth": "auto",
    },
    "interpolation": {
        "experiment": "interpolation", "n_grid": [80], "trials": 2, "master_seed": 7, "K": 3,
        "gamma": 2.0, "t_grid": [0.0, 0.5, 1.0], "ensemble": {"kind": "rademacher"},
        "prior": {"kind": "rademacher"}, "denoiser": {"kind": "scaled_tanh", "schedule": "bayes"},
        "phi": {"kind": "tanh_product"},
    },
}


def _child(tmp_path, tag, config_path, traced):
    out = tmp_path / tag
    out.mkdir()
    cmd = [sys.executable, os.path.join(ROOT, "bench", "child.py"), "--spawn", "0",
           "--result", str(out / "child.json"), "--config", str(config_path),
           "--out-dir", str(out), "--threads", "1"]
    if traced:
        cmd += ["--spans", str(out / "spans.json")]
    subprocess.run(cmd, check=True, timeout=120)
    return out


@pytest.mark.parametrize("experiment", sorted(_SMALL_CONFIGS))
def test_traced_untraced_and_amplab_run_write_identical_records(tmp_path, experiment):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(_SMALL_CONFIGS[experiment]))
    plain = _child(tmp_path, "plain", config_path, traced=False)
    traced = _child(tmp_path, "traced", config_path, traced=True)
    cli = tmp_path / "cli"
    subprocess.run([sys.executable, "-m", "amplab.cli", "run", "--config", str(config_path),
                    "--out-dir", str(cli)], check=True, timeout=120, env=dict(os.environ, PYTHONPATH=SRC),
                   stdout=subprocess.DEVNULL)
    for suffix in ("records.csv", "summary.json"):
        name = f"{experiment}_{suffix}"
        assert (plain / name).read_bytes() == (traced / name).read_bytes() == (cli / name).read_bytes()
    recorded = json.loads((traced / "spans.json").read_text())
    names = {s[0] for s in recorded["spans"]}
    assert recorded["missing"] == []
    assert {spans.ROOT_SPAN, "experiments.run_experiment", "ensembles.spiked_apply"} <= names


def _bbp_rows(config, lambda1_shift=0.0):
    rows = []
    for gamma, lam1, lam2, overlap in ((0.5, 1.985, 1.99, 0.05), (2.0, 2.5, 1.98, 0.866)):
        for trial in range(config["trials"]):
            rows.append({"gamma": gamma, "n": config["n_grid"][0], "trial": trial, "status": "ok",
                         "lambda1": lam1 + (lambda1_shift if trial == 0 else 0.0),
                         "lambda2_abs": lam2, "gap_pass": int(gamma > 1), "overlap": overlap,
                         "overlap_flag": 0})
    return rows


def _write_and_read(tmp_path, rows):
    path = tmp_path / "bbp_records.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return gate.read_records(path)


def test_gate_rejects_records_whose_lambda1_is_perturbed_beyond_tolerance(tmp_path):
    workload = WORKLOADS["bbp_spectral"]
    config = workload.experiment_config(1)
    assert gate.check(workload, config, _write_and_read(tmp_path, _bbp_rows(config))) == []
    # a shift on one trial moves each gamma's mean lambda1 by 0.125 > 0.1
    shift = 0.125 * config["trials"]
    failures = gate.check(workload, config, _write_and_read(tmp_path, _bbp_rows(config, lambda1_shift=shift)))
    assert len(failures) == 2 and all("lambda1" in f for f in failures)


def test_benchmark_json_names_exactly_the_metrics_the_benchmark_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: v[0] for k, v in END_TO_END.items()}
    per_layer = {name: spec[:2] for name, spec in layers.metric_specs().items()}
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == per_layer
