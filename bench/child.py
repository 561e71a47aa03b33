"""One fresh amplab process: set-up time, run time and peak memory of one run.

    python3 bench/child.py --spawn T --result R.json --config C.json
        [--out-dir DIR --threads W [--spans S.json]] [--setup-only]

``--spawn`` is the parent's wall clock just before it started this process,
so set-up time covers interpreter start, ``import amplab.cli`` and the config
load. The run itself goes through ``amplab.cli.main``, unchanged. Only with
``--spans`` is the span recorder imported and installed.
"""

import argparse
import json
import os
import resource
import sys
import time
from contextlib import redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _parse(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--spawn", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out-dir")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def _jacobi_accuracy(kept):
    """Worst relative reconstruction and orthogonality errors of the kept Jacobi calls."""
    import numpy as np

    recon, ortho = 0.0, 0.0
    for _, args, eig in kept:
        dense = args[0].to_dense()
        q, lam = eig.eigenvectors, eig.eigenvalues
        recon = max(recon, float(np.linalg.norm(q @ np.diag(lam) @ q.T - dense) / np.linalg.norm(dense)))
        ortho = max(ortho, float(np.max(np.abs(q.T @ q - np.eye(q.shape[0])))))
    return {"recon_rel_max": recon, "ortho_max": ortho, "calls": len(kept)}


def main(argv=None):
    args = _parse(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    t_import = time.time()
    import amplab.cli
    from amplab.config import load_config

    t_load = time.time()
    load_config(args.config)
    t_ready = time.time()
    result = {
        "setup_s": t_ready - args.spawn,
        "import_s": t_load - t_import,
        "load_s": t_ready - t_load,
        "amplab_file": amplab.cli.__file__,
    }
    if not args.setup_only:
        cli_args = ["run", "--config", args.config, "--out-dir", args.out_dir,
                    "--threads", str(args.threads)]
        tracer = None
        if args.spans:
            sys.path.insert(0, ROOT)
            from bench.spans import ROOT_SPAN, Tracer

            tracer = Tracer()
            tracer.install()
        with open(os.path.join(args.out_dir, "cli_stdout.txt"), "w", encoding="utf-8") as out:
            with redirect_stdout(out):
                start = time.perf_counter()
                cpu_start = time.process_time()
                if tracer is None:
                    rc = amplab.cli.main(cli_args)
                else:
                    rc = tracer.call(ROOT_SPAN, amplab.cli.main, cli_args)
                result["run_s"] = time.perf_counter() - start
                result["run_cpu_s"] = time.process_time() - cpu_start
        result["rc"] = rc
        if tracer is not None:
            tracer.uninstall()
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump({"spans": tracer.spans, "missing": tracer.missing,
                           "jacobi": _jacobi_accuracy(tracer.kept)}, fh)
    else:
        result["rc"] = 0
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
