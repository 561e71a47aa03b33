"""sha256 of the records CSV and summary JSON of a fixed set of configs.

Runs each config at 1 and 2 worker threads, writes the records and the
summary (with ``master_seed``, as ``amplab run`` writes them) through
``amplab.reporting``, and prints one line per (config, threads):

    <config> threads=<t> records=<sha256> summary=<sha256>

The configs are the byte-identity configs of test_experiments.py, the four
benchmark workloads at the acceptance seed, universality on the uncorrected
(generalized) orbit, a bbp config whose small-n inits below the transition
fall back to operator applies, a spectral-init and an independent-init
state_evolution config, and power_bound from n = 1. Diffing the output of two
trees shows whether a change moved any record. Not collected by pytest:

    PYTHONPATH=src python tests/records_digest.py
"""

import dataclasses
import hashlib
import os
import pathlib
import sys
import tempfile

# the repository root, for bench.workloads
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from amplab.config import parse_config  # noqa: E402
from amplab.experiments import run_experiment  # noqa: E402
from amplab.reporting import write_records_csv, write_summary_json  # noqa: E402
from bench.workloads import ACCEPTANCE_SEED, WORKLOADS  # noqa: E402
from test_experiments import BYTE_IDENTITY_CONFIGS, base_config  # noqa: E402


def configs():
    """(name, ExperimentConfig) pairs; the thread count is set per run."""
    for experiment, overrides in sorted(BYTE_IDENTITY_CONFIGS.items()):
        yield f"byte_identity.{experiment}", base_config(**{"experiment": experiment, **overrides})
    for name, workload in WORKLOADS.items():
        yield f"workload.{name}", parse_config(workload.experiment_config(ACCEPTANCE_SEED))
    yield "universality_generalized", base_config(experiment="universality", engine="generalized", trials=3)
    yield "bbp_fallback", parse_config(
        {
            "experiment": "bbp",
            "n_grid": [300, 500],
            "trials": 6,
            "gamma_grid": [0.5, 0.8],
            "ensemble": {"kind": "rademacher"},
            "prior": {"kind": "rademacher"},
            "denoiser": {"kind": "identity"},
            "master_seed": 7,
        }
    )
    yield "state_evolution_spectral", parse_config(
        {
            "experiment": "state_evolution",
            "n_grid": [300, 1000],
            "trials": 3,
            "K": 3,
            "gamma": 1.5,
            "init": "spectral",
            "ensemble": {"kind": "rademacher"},
            "prior": {"kind": "rademacher"},
            "denoiser": {"kind": "scaled_tanh", "schedule": "bayes"},
            "phi": {"kind": "se_pair"},
            "master_seed": 20240810,
        }
    )
    yield "state_evolution_independent", base_config(
        experiment="state_evolution",
        n_grid=[200],
        trials=3,
        gamma=0.0,
        prior={"kind": "gaussian"},
        denoiser={"kind": "scaled_tanh", "schedule": [1.5, 1.5, 1.5]},
    )
    power_bound = WORKLOADS["power_bound_oracle"].experiment_config(ACCEPTANCE_SEED)
    yield "power_bound_from_n1", parse_config(dict(power_bound, n_grid=[1, 3, 16, 33, 64, 128]))


def digest(cfg, threads, out_dir):
    cfg = dataclasses.replace(cfg, threads=threads)
    columns, rows, summary = run_experiment(cfg)
    summary["master_seed"] = cfg.master_seed
    records, summary_path = os.path.join(out_dir, "records.csv"), os.path.join(out_dir, "summary.json")
    write_records_csv(records, columns, rows)
    write_summary_json(summary_path, summary)
    return [hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest() for path in (records, summary_path)]


def main():
    with tempfile.TemporaryDirectory() as out_dir:
        for name, cfg in configs():
            for threads in (1, 2):
                records, summary = digest(cfg, threads, out_dir)
                print(f"{name} threads={threads} records={records} summary={summary}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
