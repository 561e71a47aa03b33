"""The four benchmark workloads, built from the acceptance configurations.

Why each was chosen, and which layer metric should move which end-to-end
metric on it, is written down in WORKLOADS.md next to this file.
"""

from dataclasses import dataclass

ACCEPTANCE_SEED = 20240810

_BAYES_TANH = {
    "K": 5,
    "gamma": 2.0,
    "ensemble": {"kind": "rademacher"},
    "prior": {"kind": "rademacher"},
    "denoiser": {"kind": "scaled_tanh", "schedule": "bayes"},
    "phi": {"kind": "tanh_product"},
}


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict  # amplab config without master_seed; the seed comes from --seed
    trial_key: tuple  # records columns that identify one trial (one task of the grid)

    def experiment_config(self, seed):
        return dict(self.config, master_seed=int(seed))

    def trials(self):
        """Trials one run of the config attempts."""
        count = len(self.config["n_grid"]) * self.config["trials"]
        return count * len(self.config.get("gamma_grid", [None]))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="bbp_spectral",
            # n=1000, not the acceptance n=2000: the 16 MB packed matrix of n=2000
            # ran 0.9-2.8 ms per apply as the shared L3 filled and emptied with other
            # tenants' load, the 4 MB one of n=1000 0.24-0.31 ms. 12 trials per
            # gamma keep the gamma=0.5 overlap mean (per trial 0.056 +- 0.029 at
            # n=1000) more than 5 standard errors under 0.1
            config={
                "experiment": "bbp",
                "n_grid": [1000],
                "trials": 12,
                "gamma_grid": [0.5, 2.0],
                "ensemble": {"kind": "rademacher"},
                "prior": {"kind": "rademacher"},
                "denoiser": {"kind": "identity"},
                "power_depth": "auto",
            },
            trial_key=("gamma", "n", "trial"),
        ),
        Workload(
            name="universality_sweep",
            # 50 trials per n, as in the acceptance test, keeps the decay slope <= -0.25
            config=dict(_BAYES_TANH, experiment="universality", n_grid=[250, 500, 1000, 2000], trials=50),
            trial_key=("n", "trial"),
        ),
        Workload(
            name="interpolation_path",
            config=dict(
                _BAYES_TANH,
                experiment="interpolation",
                n_grid=[1000],
                trials=30,
                t_grid=[0.0, 0.25, 0.5, 0.75, 1.0],
            ),
            trial_key=("n", "trial"),
        ),
        Workload(
            name="power_bound_oracle",
            config={
                "experiment": "power_bound",
                "n_grid": [64],
                "trials": 8,
                "ensemble": {"kind": "gaussian"},
                "denoiser": {"kind": "identity"},
                "power_depth": 20,
                "diag_shift": 3.0,
            },
            trial_key=("n", "trial"),
        ),
    )
}
