"""Spans recorded around the public functions of the amplab modules.

A Tracer patches module attributes, and the ``apply`` methods of the two
operator classes, with wrappers that record one span per call: name, start,
end, parent span, trial id and problem size. Spans stay in memory and are
written out when the run ends. Only the traced child imports this module; the
timed end-to-end children never load the wrappers.
"""

import functools
import importlib
import time

# (module, attribute, span name). Each attribute is patched where the runners
# look it up, so a span wraps exactly the calls the runners make. The layer of
# a span is the part of its name before the first dot.
TARGETS = (
    ("amplab.cli", "load_config", "config.load_config"),
    ("amplab.cli", "run_experiment", "experiments.run_experiment"),
    ("amplab.cli", "write_records_csv", "reporting.write_records_csv"),
    ("amplab.cli", "write_summary_json", "reporting.write_summary_json"),
    ("amplab.experiments", "derive_streams", "ensembles.derive_streams"),
    ("amplab.experiments", "sample_prior", "ensembles.sample_prior"),
    ("amplab.experiments", "sample_wigner", "ensembles.sample_wigner"),
    ("amplab.experiments", "build_spiked", "ensembles.build_spiked"),
    ("amplab.experiments", "resolve_power_depth", "spectral.power_depth"),
    ("amplab.experiments", "gap_check", "spectral.gap_check"),
    ("amplab.experiments", "spectral_init", "spectral.spectral_init"),
    ("amplab.experiments", "power_method", "spectral.power_method"),
    ("amplab.experiments", "jacobi_eigendecomp", "linalg.jacobi"),
    ("amplab.experiments", "run_onsager", "engine.run_onsager"),
    ("amplab.experiments", "phi_average", "engine.phi_average"),
    ("amplab.experiments", "bayes_tanh_schedule", "state_evolution.bayes_tanh_schedule"),
    ("amplab.engine", "denoiser_eval", "nonlinear.denoiser_eval"),
    ("amplab.engine", "denoiser_partial", "nonlinear.denoiser_partial"),
    ("amplab.ensembles", "sym_matvec", "linalg.sym_matvec"),
    ("amplab.linalg", "sym_matvec", "linalg.sym_matvec"),
    ("amplab.ensembles", "SpikedOperator.apply", "ensembles.spiked_apply"),
    ("amplab.linalg", "SymmetricMatrix.apply", "linalg.matrix_apply"),
)

ROOT_SPAN = "cli.main"

# the span of derive_streams(master_seed, trial_index) opens a new trial
_TRIAL_MARK = "ensembles.derive_streams"
# results kept for accuracy checks made after the run, outside every span
_KEEP = ("linalg.jacobi",)


# span name -> (argument position, read its .n) for the size a span records:
# the dimension n, or the power depth d for the depth-driven spectral calls
_SIZE_ARG = {
    "ensembles.spiked_apply": (0, True),
    "linalg.matrix_apply": (0, True),
    "linalg.sym_matvec": (0, True),
    "linalg.jacobi": (0, True),
    "engine.run_onsager": (0, True),
    "ensembles.sample_wigner": (0, False),
    "ensembles.sample_prior": (0, False),
    "spectral.gap_check": (1, False),
    "spectral.spectral_init": (2, False),
    "spectral.power_method": (2, False),
}


def _problem_size(name, args):
    position, has_n = _SIZE_ARG.get(name, (None, False))
    if position is None or position >= len(args):
        return 0
    value = args[position]
    return int(value.n if has_n else value)


def layer_of(name):
    return name.split(".", 1)[0]


class Tracer:
    """In-memory span recorder; spans are (name, start_ns, end_ns, parent, trial, size).

    ``parent`` is the index of the enclosing span in ``spans`` or -1. Calls
    are assumed to come from one thread, which the traced run guarantees by
    running with one worker.
    """

    def __init__(self):
        self.spans = []
        self.kept = []  # (span name, args, result) for names in _KEEP
        self.missing = []  # targets absent from the package under test
        self._stack = []
        self._trial = -1
        self._patches = []  # (owner, attribute, original, owner had its own attribute)

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        if name == _TRIAL_MARK:
            self._trial = int(args[1])
        size = _problem_size(name, args)
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self._trial, size)
        if name in _KEEP:
            self.kept.append((name, args, result))
        return result

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def install(self, targets=TARGETS):
        """Patch every target present; absent ones are listed in ``missing``."""
        for module_name, attribute, name in targets:
            owner = importlib.import_module(module_name)
            *owner_path, attr = attribute.split(".")
            try:
                for part in owner_path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except AttributeError:
                self.missing.append(f"{module_name}.{attribute}")
                continue
            had_own = attr in vars(owner)
            self._patches.append((owner, attr, original, had_own))
            setattr(owner, attr, self.wrap(name, original))

    def uninstall(self):
        """Put back every attribute install() replaced, newest first."""
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def self_times(spans):
    """Per span: its duration minus the part of it that its child spans cover.

    Children may overlap (spans from several threads), so the covered time is
    the length of the union of the child intervals clipped to the parent.
    """
    children = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out = []
    for index, (_, start, end, *_rest) in enumerate(spans):
        covered = 0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start = max(c_start, reach)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out
