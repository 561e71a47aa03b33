"""Built-in oracle suite behind the `amplab selftest` subcommand.

Each check recomputes a quantity through an independent route (naive loops,
finite differences, the Jacobi eigensolver, adaptive quadrature) and
compares. These mirror the oracle tests in the test suite, sized to run in a
few seconds.
"""

import math

import numpy as np

from .config import parse_config
from .ensembles import derive_streams
from .experiments import run_experiment
from .linalg import SymmetricMatrix, jacobi_eigendecomp, sym_matvec
from .nonlinear import Denoiser, denoiser_partial, fd_partial, scalar_eval
from .state_evolution import se_covariance


def _check_matvec(rng):
    n = 8
    dense = rng.normal(size=(n, n))
    dense = (dense + dense.T) / 2.0
    x = rng.normal(size=n)
    naive = np.array([sum(dense[i, j] * x[j] for j in range(n)) for i in range(n)])
    upper = np.asfortranarray(dense)
    upper[np.tril_indices(n, -1)] = np.nan  # the dense apply must read the upper triangle only
    forms = (SymmetricMatrix.from_dense(dense), SymmetricMatrix(n, upper))
    return all(float(np.max(np.abs(sym_matvec(m, x) - naive))) < 1e-12 for m in forms)


def _check_jacobi(rng):
    n = 24
    dense = rng.normal(size=(n, n))
    dense = (dense + dense.T) / 2.0
    m = SymmetricMatrix.from_dense(dense)
    eig = jacobi_eigendecomp(m, tol=1e-12)
    q, lam = eig.eigenvectors, eig.eigenvalues
    recon = float(np.linalg.norm(q @ np.diag(lam) @ q.T - dense))
    ortho = float(np.max(np.abs(q.T @ q - np.eye(n))))
    return recon <= 1e-10 * np.linalg.norm(dense) and ortho <= 1e-10


def _check_se_quadrature(_rng):
    from scipy.integrate import quad

    soft = Denoiser(kind="smooth_soft_threshold", schedule=(0.5, 0.8))
    sigma = se_covariance([soft] * 2, 2)
    for k, s in enumerate(np.sqrt(np.diag(sigma)[:2])):
        weighted = lambda z: scalar_eval(soft, k, s * z) ** 2 * math.exp(-z * z / 2) / math.sqrt(2 * math.pi)
        ref, _ = quad(weighted, -12.0, 12.0, points=[x / s for x in soft.kinks(k)], epsabs=1e-13, limit=200)
        if abs(sigma[k + 1, k + 1] - ref) > 1e-9:
            return False
    return float(np.max(np.abs(se_covariance([Denoiser(kind="identity")] * 4, 4) - np.eye(5)))) <= 1e-12


def _check_partials(rng):
    denoisers = [
        Denoiser(kind="identity"),
        Denoiser(kind="scaled_tanh", schedule=(1.5, 0.7, 2.0)),
        Denoiser(kind="smooth_soft_threshold", schedule=(0.5, 1.0, 0.8)),
        Denoiser(kind="linear_combo", weights=(0.3, -0.4, 0.2), offset=0.1),
    ]
    k = 2
    rows = rng.normal(size=(k + 1, 50))
    for f in denoisers:
        for j in range(k + 1):
            analytic = denoiser_partial(f, k, j, rows)
            numeric = fd_partial(f, k, j, rows, h=1e-5)
            if float(np.max(np.abs(analytic - numeric))) > 1e-6:
                return False
    return True


def _check_power_bound(_rng):
    cfg = {"experiment": "power_bound", "n_grid": [32], "trials": 10, "master_seed": 1234, "power_depth": 15}
    _, rows, _ = run_experiment(parse_config({**cfg, "ensemble": {"kind": "gaussian"}}))
    return all(row["status"] == "ok" and row["holds"] == 1 for row in rows)


def _check_streams(_rng):
    a = derive_streams(7, 0)
    b = derive_streams(7, 0)
    same = np.array_equal(a.shared.standard_normal(64), b.shared.standard_normal(64))
    c = derive_streams(7, 1)
    different = not np.array_equal(
        derive_streams(7, 0).noise_a.standard_normal(64), c.noise_a.standard_normal(64)
    )
    return same and different


CHECKS = (
    ("packed and dense matvec vs naive two-loop multiply", _check_matvec),
    ("jacobi reconstruction and orthonormality", _check_jacobi),
    ("covariance recursion: identity and split-rule quadrature", _check_se_quadrature),
    ("analytic partials vs finite differences", _check_partials),
    ("power-method bound vs jacobi eigendata", _check_power_bound),
    ("stream derivation determinism", _check_streams),
)


def run_selftest(out=print):
    rng = np.random.default_rng(20240810)
    failures = 0
    for name, check in CHECKS:
        ok = check(rng)
        out(f"{'PASS' if ok else 'FAIL'}  {name}")
        failures += 0 if ok else 1
    return failures
