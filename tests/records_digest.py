"""sha256 of the records CSV and summary JSON of a fixed set of configs, and a value-by-value diff.

Runs each config at 1 and 2 worker threads, writes the records and the
summary (with ``master_seed``, as ``amplab run`` writes them) through
``amplab.reporting``, and prints one line per (config, threads):

    <config> threads=<t> records=<sha256> summary=<sha256>

or, for a run that raises an ``AmpLabError``, ``<config> threads=<t> error=<class>``.

The configs are every row of test_experiments.py's ``BYTE_IDENTITY_CONFIGS``
(the table whose rows Tier-1 reruns at 1, 1 and 2 workers) and the four
benchmark workloads at the acceptance seed. A last line,
``jacobi_eigendata sha256=<sha256>``, hashes the eigenvalue and eigenvector
bytes that the Jacobi oracle returns for criterion 08's 100 instances (one at
a time), the power_bound_oracle workload's stack of 8, and mixed stacks at
n = 1-7 and 33, so a change to the solver shows even where power_bound's lhs
and rhs round it away. Diffing the output of two
trees shows whether a change moved any record. ``--keep DIR`` also keeps
the files as DIR/<config>.t<threads>.csv and .json; ``--compare A B`` reads
two such directories and prints, per file that differs, the rows that moved,
the largest absolute and relative |difference| of each float column and of
the summary's numbers,
and every flip of status, gap_pass, overlap_flag or holds. ``--against REV``
extracts REV's ``src`` with ``git archive`` into a temporary directory, runs
this script once with that ``src`` and once with this tree's, prints each line
that differs and exits 1 if any does; both runs use this tree's configs, so
REV's ``amplab`` must provide what they import. With ``--keep DIR`` it keeps
the two runs' files in DIR/against and DIR/here, for ``--compare``. Not
collected by pytest:

    PYTHONPATH=src python tests/records_digest.py [--keep DIR]
    PYTHONPATH=src python tests/records_digest.py --compare DIR_A DIR_B
    PYTHONPATH=src python tests/records_digest.py --against REV [--keep DIR]
"""

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

# the repository root, for bench.workloads
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from amplab import experiments  # noqa: E402
from amplab.config import parse_config  # noqa: E402
from amplab.errors import AmpLabError  # noqa: E402
from amplab.experiments import run_experiment  # noqa: E402
from amplab.linalg import SymmetricMatrix, jacobi_eigendecomp_stack  # noqa: E402
from amplab.reporting import write_records_csv, write_summary_json  # noqa: E402
from bench.workloads import ACCEPTANCE_SEED, WORKLOADS  # noqa: E402
from test_acceptance import criterion_08_instances  # noqa: E402
from test_experiments import BYTE_IDENTITY_CONFIGS, byte_identity_config  # noqa: E402


def configs():
    """(name, ExperimentConfig) pairs; the thread count is set per run."""
    for name in sorted(BYTE_IDENTITY_CONFIGS):
        yield f"byte_identity.{name}", byte_identity_config(name)[0]
    for name, workload in WORKLOADS.items():
        yield f"workload.{name}", parse_config(workload.experiment_config(ACCEPTANCE_SEED))


def jacobi_stacks():
    """The stacks of matrices whose eigendata the jacobi_eigendata line hashes."""
    for dense in criterion_08_instances():
        yield [SymmetricMatrix.from_dense(dense)]
    stacks, real = [], experiments.jacobi_eigendecomp_stack
    experiments.jacobi_eigendecomp_stack = lambda matrices, tol: stacks.append(matrices) or real(matrices, tol)
    try:
        run_experiment(parse_config(WORKLOADS["power_bound_oracle"].experiment_config(ACCEPTANCE_SEED)))
    finally:
        experiments.jacobi_eigendecomp_stack = real
    yield from stacks
    rng = np.random.default_rng(33)
    for n in (*range(1, 8), 33):
        dense = [rng.normal(size=(n, n)) for _ in range(3)]
        dense.append(np.diag(np.arange(1.0, n + 1)) + 1e-6 * rng.normal(size=(n, n)))  # nearly diagonal
        dense.append(rng.normal(size=(n, n)))
        dense[-1][: n // 2, n // 2 :] = dense[-1][n // 2 :, : n // 2] = 0.0  # block diagonal
        dense = [(d + d.T) / 2.0 for d in dense] + [np.zeros((n, n))]
        yield [SymmetricMatrix.from_dense(d) for d in dense]


def jacobi_digest():
    """sha256 of the eigenvalue and eigenvector bytes of every matrix of jacobi_stacks()."""
    sha = hashlib.sha256()
    for stack in jacobi_stacks():
        for eig in jacobi_eigendecomp_stack(stack, tol=1e-12):
            sha.update(eig.eigenvalues.tobytes())
            sha.update(eig.eigenvectors.tobytes())
    return sha.hexdigest()


def digest(cfg, threads, out_dir, keep=None, name=None):
    cfg = dataclasses.replace(cfg, threads=threads)
    columns, rows, summary = run_experiment(cfg)
    summary["master_seed"] = cfg.master_seed
    records, summary_path = os.path.join(out_dir, "records.csv"), os.path.join(out_dir, "summary.json")
    write_records_csv(records, columns, rows)
    write_summary_json(summary_path, summary)
    if keep is not None:
        shutil.copyfile(records, os.path.join(keep, f"{name}.t{threads}.csv"))
        shutil.copyfile(summary_path, os.path.join(keep, f"{name}.t{threads}.json"))
    return [hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest() for path in (records, summary_path)]


_FLAGS = ("status", "gap_pass", "overlap_flag", "holds")


def _float(text):
    try:
        return float(text)
    except ValueError:
        return None


def _numbers(node, path=""):
    """{path: value} of every number in a JSON document."""
    if isinstance(node, dict):
        return {k: v for key, child in node.items() for k, v in _numbers(child, f"{path}/{key}").items()}
    if isinstance(node, list):
        return {k: v for i, child in enumerate(node) for k, v in _numbers(child, f"{path}/{i}").items()}
    return {path: float(node)} if isinstance(node, (int, float)) and not isinstance(node, bool) else {}


def _delta(a, b):
    """(|a - b|, |a - b| / max(|a|, |b|)) of two numbers that differ; both inf if one is not finite."""
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf, math.inf
    return abs(a - b), abs(a - b) / max(abs(a), abs(b))


def compare(dir_a, dir_b):
    """Print how the kept files of dir_b differ from those of dir_a, value by value."""
    names = sorted(set(os.listdir(dir_a)) | set(os.listdir(dir_b)))
    for name in names:
        a, b = os.path.join(dir_a, name), os.path.join(dir_b, name)
        if not (os.path.exists(a) and os.path.exists(b)):
            print(f"{name}: only in {dir_a if os.path.exists(a) else dir_b}")
            continue
        if pathlib.Path(a).read_bytes() == pathlib.Path(b).read_bytes():
            continue
        if name.endswith(".json"):
            x, y = (_numbers(json.loads(pathlib.Path(p).read_text())) for p in (a, b))
            moved = [_delta(x[k], y[k]) for k in x.keys() & y.keys() if x[k] != y[k]]
            delta, rel = (max((m[i] for m in moved), default=0.0) for i in (0, 1))
            other = "" if x.keys() == y.keys() else "; other keys"
            print(f"{name}: max |delta| {delta:.3g} (relative {rel:.3g})" + other)
            continue
        with open(a, newline="") as fa, open(b, newline="") as fb:
            rows_a, rows_b = list(csv.DictReader(fa)), list(csv.DictReader(fb))
        if len(rows_a) != len(rows_b):
            print(f"{name}: {len(rows_a)} rows against {len(rows_b)}")
            continue
        moved, deltas, flips = 0, {}, []
        for i, (ra, rb) in enumerate(zip(rows_a, rows_b)):
            moved += ra != rb
            for col in ra.keys() & rb.keys():
                if col in _FLAGS:
                    if ra[col] != rb[col]:
                        flips.append(f"row {i} {col} {ra[col]} -> {rb[col]}")
                    continue
                va, vb = _float(ra[col]), _float(rb[col])
                if va is not None and vb is not None and va != vb:
                    deltas[col] = tuple(map(max, deltas.get(col, (0.0, 0.0)), _delta(va, vb)))
        parts = [f"{col} {d:.3g} (relative {r:.3g})" for col, (d, r) in sorted(deltas.items())]
        print(f"{name}: {moved} of {len(rows_a)} rows moved; max |delta| " + (", ".join(parts) or "none"))
        for flip in flips:
            print(f"  flip: {flip}")


def against(rev, keep=None):
    """Run this script on REV's src and on this tree's; print the lines that differ and return their count."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev, "src"], check=True, capture_output=True).stdout
    outputs = []
    with tempfile.TemporaryDirectory() as tree:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tree, filter="data")
        for side, src in (("against", os.path.join(tree, "src")), ("here", os.path.join(ROOT, "src"))):
            command = [sys.executable, os.path.abspath(__file__)] + (["--keep", os.path.join(keep, side)] if keep else [])
            env = dict(os.environ, PYTHONPATH=src)
            outputs.append(subprocess.run(command, env=env, check=True, capture_output=True, text=True).stdout.splitlines())
    differ = 0
    for theirs, ours in zip(*outputs):  # the same configs in the same order on both sides
        if theirs != ours:
            differ += 1
            print(f"{rev}: {theirs}\nhere: {ours}")
    print(f"{differ} of {len(outputs[1])} lines differ from {rev}")
    return differ


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keep", metavar="DIR", help="also keep each records CSV and summary JSON in DIR")
    parser.add_argument("--compare", nargs=2, metavar=("DIR_A", "DIR_B"), help="diff two --keep directories")
    parser.add_argument("--against", metavar="REV", help="diff the output of REV's src and this tree's")
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if args.against:
        return 1 if against(args.against, args.keep) else 0
    if args.keep:
        os.makedirs(args.keep, exist_ok=True)
    with tempfile.TemporaryDirectory() as out_dir:
        for name, cfg in configs():
            for threads in (1, 2):
                try:
                    records, summary = digest(cfg, threads, out_dir, args.keep, name)
                except AmpLabError as exc:
                    print(f"{name} threads={threads} error={type(exc).__name__}", flush=True)
                    continue
                print(f"{name} threads={threads} records={records} summary={summary}", flush=True)
    print(f"jacobi_eigendata sha256={jacobi_digest()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
