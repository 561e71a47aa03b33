"""Benchmark of the amplab package: end-to-end metrics per workload, or a traced run.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Every measured run is a fresh child process (bench/child.py) that runs the
workload's config through ``amplab.cli.main``, as ``amplab run`` would.

--trace 0 runs three children that only set up, then 1-worker children until
``--seconds`` have passed (at least one). It reports the median over those
children of trials_per_s, setup_s and peak_rss_mb, and the share of trials
that were ok.

--trace 1 runs one 2-worker child, then pairs of an untraced and a traced
1-worker child until ``--seconds`` have passed, and reports the per-layer
metrics of bench/layers.py from the traced children's spans, with the
2-worker throughput.

Each run's records are checked by bench/gate.py, and every child of a run
must write byte-identical records and summaries. All output goes under
.bench_out/ in the checkout. Every metric is printed by name with its unit;
the last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from bench.gate import check, read_records, trial_outcomes  # noqa: E402
from bench.workloads import ACCEPTANCE_SEED, WORKLOADS  # noqa: E402

SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(ROOT, "bench", "child.py")
SETUP_CHILDREN = 3
CHILD_TIMEOUT_S = 170

# name -> (unit, how it is measured)
END_TO_END = {
    "trials_per_s": ("1/s", "median over 1-worker children of ok trials / run seconds"),
    "setup_s": ("s", "median over all children of the time from spawn to amplab imported and config loaded"),
    "peak_rss_mb": ("MiB", "median ru_maxrss of the 1-worker children"),
    "ok_rate": ("ratio", "1 - error rate: share of attempted trials that were ok and passed the gate"),
}

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "AMPLAB_THREADS")


def run_child(work, tag, config_path, threads=1, traced=False, setup_only=False):
    """Run one child to completion; returns its measurements and output paths."""
    out_dir = os.path.join(work, tag)
    os.makedirs(out_dir)
    result_path = os.path.join(out_dir, "child.json")
    cmd = [sys.executable, CHILD, "--result", result_path, "--config", config_path]
    if setup_only:
        cmd.append("--setup-only")
    else:
        cmd += ["--out-dir", out_dir, "--threads", str(threads)]
    if traced:
        cmd += ["--spans", os.path.join(out_dir, "spans.json")]
    run = {"tag": tag, "threads": threads, "traced": traced, "dir": out_dir, "ok": False}
    with open(os.path.join(out_dir, "child_log.txt"), "w", encoding="utf-8") as log:
        spawn = time.time()
        try:
            proc = subprocess.run(cmd + ["--spawn", repr(spawn)], stdout=log, stderr=subprocess.STDOUT,
                                  cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return run
    if proc.returncode != 0 or not os.path.exists(result_path):
        return run
    with open(result_path, encoding="utf-8") as fh:
        run.update(json.load(fh))
    run["ok"] = run["rc"] == 0
    return run


def _output_files(run, experiment):
    return (os.path.join(run["dir"], f"{experiment}_records.csv"),
            os.path.join(run["dir"], f"{experiment}_summary.json"))


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def evaluate(workload, config, runs):
    """Gate every run; fills ok_trials, attempted, failed and failures in place.

    A run that crashed, or whose records fail the gate or differ from the
    first run's, counts every trial it attempted as failed.
    """
    gated = {}
    first = None
    for run in runs:
        run["attempted"], run["ok_trials"], run["failures"] = workload.trials(), 0, []
        records, summary = _output_files(run, config["experiment"])
        if not run["ok"] or not os.path.exists(records) or not os.path.exists(summary):
            run["failures"].append(f"{run['tag']}: the run did not complete")
            run["failed"] = run["attempted"]
            continue
        digest = (_sha256(records), _sha256(summary))
        run["records_sha256"], run["summary_sha256"] = digest
        rows = read_records(records)
        run["attempted"], run["ok_trials"] = trial_outcomes(rows, workload.trial_key)
        if digest[0] not in gated:
            gated[digest[0]] = check(workload, config, rows)
        run["failures"] += gated[digest[0]]
        if first is None:
            first = run
        elif digest != (first["records_sha256"], first["summary_sha256"]):
            run["failures"].append(f"{run['tag']}: records or summary differ from {first['tag']}")
        run["failed"] = run["attempted"] if run["failures"] else run["attempted"] - run["ok_trials"]
    return first


def _median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def _rate(run):
    return run["ok_trials"] / run["run_s"]


def timed_run(workload, config, config_path, work, seconds):
    setups = [run_child(work, f"setup{i}", config_path, setup_only=True) for i in range(SETUP_CHILDREN)]
    deadline = time.monotonic() + seconds
    runs = []
    while not runs or time.monotonic() < deadline:
        runs.append(run_child(work, f"child{len(runs)}-w1", config_path))
    evaluate(workload, config, runs)
    done = [r for r in runs if r["ok"]]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    metrics = {
        "trials_per_s": _median(_rate(r) for r in done),
        "setup_s": _median(r["setup_s"] for r in setups + runs if "setup_s" in r),
        "peak_rss_mb": _median(r["peak_rss_mib"] for r in done),
        "ok_rate": 1.0 - failed / attempted,
    }
    units = {name: unit for name, (unit, _) in END_TO_END.items()}
    return runs + setups, metrics, units, attempted, failed


def traced_run(workload, config, config_path, work, seconds):
    from bench.layers import metric_specs, span_metrics, spectral_accuracy

    deadline = time.monotonic() + seconds
    runs = [run_child(work, "untraced-w2", config_path, 2)]
    pair = 0
    while pair == 0 or time.monotonic() < deadline:
        for traced in ((False, True) if pair % 2 == 0 else (True, False)):
            runs.append(run_child(work, f"pair{pair}-{'traced' if traced else 'w1'}", config_path, 1, traced))
        pair += 1
    first = evaluate(workload, config, runs)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    units = {name: spec[0] for name, spec in metric_specs().items()}
    metrics = dict.fromkeys(units, 0.0)
    traced = [r for r in runs if r["traced"] and r["ok"]]
    untraced = [r for r in runs if not r["traced"] and r["ok"]]
    if traced:
        span_files = []
        for run in traced:
            with open(os.path.join(run["dir"], "spans.json"), encoding="utf-8") as fh:
                span_files.append(json.load(fh))
        metrics.update(span_metrics([f["spans"] for f in span_files], config,
                                    sum(r["attempted"] for r in traced)))
        jacobi = [f["jacobi"] for f in span_files if f["jacobi"]["calls"]]
        if jacobi:
            metrics["linalg.jacobi.recon_rel_max"] = max(j["recon_rel_max"] for j in jacobi)
            metrics["linalg.jacobi.ortho_max"] = max(j["ortho_max"] for j in jacobi)
        for name in sorted(set().union(*(f["missing"] for f in span_files))):
            print(f"note: {name} is absent; its spans read 0")
        one_worker = [r for r in untraced if r["threads"] == 1]
        two_worker = [r for r in untraced if r["threads"] == 2]
        if two_worker:
            metrics["experiments.trials_per_s_2w"] = _median(_rate(r) for r in two_worker)
        if one_worker and two_worker:
            metrics["experiments.pool_efficiency"] = (
                metrics["experiments.trials_per_s_2w"] / (2.0 * _median(_rate(r) for r in one_worker)))
        if one_worker:
            metrics["trace.overhead_pct"] = 100.0 * (
                _median(r["run_s"] for r in traced) / _median(r["run_s"] for r in one_worker) - 1.0)
        metrics["cli.import_s"] = _median(r["import_s"] for r in untraced)
        metrics["config.load_s"] = _median(r["load_s"] for r in untraced)
    if first is not None:
        records, summary = _output_files(first, config["experiment"])
        metrics["reporting.bytes"] = os.path.getsize(records) + os.path.getsize(summary)
        if config["experiment"] == "bbp":
            metrics.update(spectral_accuracy(config, read_records(records)))
    return runs, metrics, units, attempted, failed


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def manifest(config_path, seed, workload):
    """Machine, software, thread settings, commit, seed and resolved config of this run."""
    import numpy
    import scipy

    cpuinfo = _read("/proc/cpuinfo")
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(cache_dir)) if os.path.isdir(cache_dir) else ():
        if not entry.startswith("index"):
            continue
        fields = [_read(os.path.join(cache_dir, entry, f)).strip() for f in ("level", "type", "size")]
        caches[f"L{fields[0]} {fields[1]}"] = fields[2]
    meminfo = _read("/proc/meminfo").split()
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    dry = subprocess.run([sys.executable, "-m", "amplab.cli", "run", "--config", config_path, "--dry-run"],
                         cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                         env=dict(os.environ, PYTHONPATH=SRC))
    return {
        "cpu_model": model,
        "nproc": os.cpu_count(),
        "caches": caches,
        "ram_kib": int(meminfo[1]) if len(meminfo) > 1 and meminfo[0] == "MemTotal:" else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "git_commit": commit,
        "seed": seed,
        "workload": workload,
        "resolved_config": json.loads(dry.stdout) if dry.returncode == 0 else None,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=ACCEPTANCE_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "amplab", "__init__.py")):
        print(f"error: no amplab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    workload = WORKLOADS[args.workload]
    work = os.path.join(ROOT, ".bench_out", f"{workload.name}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    config = workload.experiment_config(args.seed)
    config_path = os.path.join(work, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2)
    info = manifest(config_path, args.seed, workload.name)
    if info["resolved_config"] is None:
        print("error: amplab run --dry-run failed on the workload config", file=sys.stderr)
        return 2

    measure = traced_run if args.trace else timed_run
    runs, metrics, units, attempted, failed = measure(workload, config, config_path, work, args.seconds)
    failures = [f for r in runs for f in r.get("failures", ())]
    correct = not failures and all(r["ok"] for r in runs)
    moves = {}
    if args.trace:
        from bench.layers import metric_specs

        moves = {name: spec[2] for name, spec in metric_specs().items()}
    report = {
        "manifest": info,
        "correct": correct,
        "failures": failures,
        "runs": [{k: v for k, v in r.items() if k != "dir"} for r in runs],
        "metrics": metrics,
        "moves": moves,
    }
    with open(os.path.join(work, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"commit {info['git_commit']}  {info['cpu_model']} x{info['nproc']}")
    print(f"manifest: {json.dumps(info)}")
    print(f"records sha256 (information only): {sorted({r['records_sha256'] for r in runs if 'records_sha256' in r})}")
    for failure in failures:
        print(f"GATE FAIL: {failure}")
    for name, value in metrics.items():
        tie = f"  (should move: {moves[name]})" if name in moves else ""
        print(f"{name} = {value:.6g} {units[name]}{tie}")
    print(f"full report: {os.path.relpath(os.path.join(work, 'report.json'), ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
