"""Seeded sampling of sub-Gaussian Wigner noise, prior vectors, and spikes.

All built-in entry laws are normalized to mean 0 and variance 1 and are either
bounded or Gaussian, hence sub-Gaussian by construction. Randomness flows
exclusively through per-trial streams derived from (master_seed, trial_index),
so any trial is reproducible in isolation and trials may run concurrently.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import RejectedInputError, real_number
from .linalg import SymmetricMatrix, packed_diagonal_indices, packed_length, spread_packed_columns, sym_matvec

ENSEMBLE_KINDS = ("gaussian", "rademacher", "uniform", "centered_bernoulli")
DIAGONAL_POLICIES = ("same_law", "zero")
PRIOR_KINDS = ("rademacher", "uniform_sqrt3", "three_point", "gaussian")

_SQRT3 = math.sqrt(3.0)
_DRAW_CHUNK = 1 << 16  # Wigner entries drawn per generator call

# role tags mixed into the per-trial seed derivation
_ROLE_SHARED = 0
_ROLE_NOISE_A = 1
_ROLE_NOISE_G = 2


@dataclass(frozen=True)
class EnsembleSpec:
    """Entry law for the symmetric noise matrix; unit variance in law for every kind."""

    kind: str
    param: float | None = None  # bernoulli success probability; the other kinds take none
    diagonal_policy: str = "same_law"

    def __post_init__(self):
        if self.kind not in ENSEMBLE_KINDS:
            raise RejectedInputError(f"unknown ensemble kind {self.kind!r}")
        if self.diagonal_policy not in DIAGONAL_POLICIES:
            raise RejectedInputError(f"unknown diagonal policy {self.diagonal_policy!r}")
        if self.kind == "centered_bernoulli":
            if self.param is None or not (0.0 < real_number(self.param, "centered_bernoulli p") < 1.0):
                raise RejectedInputError(
                    f"centered_bernoulli requires p in (0, 1), got {self.param}"
                )
        elif self.param is not None:
            raise RejectedInputError(f"{self.kind} ensemble takes no param")


@dataclass(frozen=True)
class PriorSpec:
    """Law of the i.i.d. coordinates of the signal vector u0.

    All kinds are centered with unit variance. The discrete and uniform kinds
    have compact support; "gaussian" is provided for the covariance-recursion
    experiments, which are stated for a Gaussian prior.
    """

    kind: str
    values: tuple = ()
    probs: tuple = ()

    def __post_init__(self):
        if self.kind not in PRIOR_KINDS:
            raise RejectedInputError(f"unknown prior kind {self.kind!r}")
        if self.kind == "three_point":
            values = tuple(real_number(v, "three_point value") for v in self.values)
            probs = tuple(real_number(p, "three_point probability") for p in self.probs)
            if len(values) != 3 or len(probs) != 3:
                raise RejectedInputError("three_point prior needs 3 values and 3 probabilities")
            if not all(map(math.isfinite, values + probs)):
                raise RejectedInputError(f"three_point values and probabilities must be finite, got {values} {probs}")
            if any(p < 0 for p in probs) or abs(sum(probs) - 1.0) > 1e-12:
                raise RejectedInputError(f"probabilities must sum to 1, got {probs}")
            mean = sum(v * p for v, p in zip(values, probs))
            var = sum(v * v * p for v, p in zip(values, probs)) - mean * mean
            if abs(mean) > 1e-9 or abs(var - 1.0) > 1e-9:
                raise RejectedInputError(
                    f"three_point prior must have mean 0 and variance 1, got "
                    f"mean={mean:.3g}, var={var:.3g}"
                )
            object.__setattr__(self, "values", values)
            object.__setattr__(self, "probs", probs)
        elif self.values or self.probs:
            raise RejectedInputError(f"{self.kind} prior takes no values/probs")


@dataclass(frozen=True)
class SpikeSpec:
    """The rank-one spike (gamma / n) u0 (x) u0; gamma 0 adds no spike term."""

    gamma: float = 0.0

    def __post_init__(self):
        if not 0 <= real_number(self.gamma, "spike SNR") < math.inf:
            raise RejectedInputError(f"spike SNR must be >= 0 and finite, got {self.gamma}")

    @staticmethod
    def rank_one(gamma):
        return SpikeSpec(gamma)


@dataclass
class TrialStreams:
    """Three independent deterministic substreams for one trial.

    The shared stream draws u0; the two noise streams never consume from it,
    so the noise stays independent of (u0, Z).
    """

    shared: np.random.Generator
    noise_a: np.random.Generator
    noise_g: np.random.Generator


def derive_streams(master_seed, trial_index):
    """Derive the three role streams for (master_seed, trial_index), deterministically."""
    if not (0 <= master_seed < 1 << 64 and trial_index >= 0):  # the seed is hashed as one 64-bit word
        raise RejectedInputError(f"need master_seed in [0, 2**64), trial_index >= 0; got {master_seed}, {trial_index}")
    return TrialStreams(
        shared=_role_rng(master_seed, trial_index, _ROLE_SHARED),
        noise_a=_role_rng(master_seed, trial_index, _ROLE_NOISE_A),
        noise_g=_role_rng(master_seed, trial_index, _ROLE_NOISE_G),
    )


def _role_rng(master_seed, trial_index, role):
    # SeedSequence hashes the (seed, trial, role) words through its 64-bit mixer
    seed = np.random.SeedSequence([int(master_seed), int(trial_index), role])
    return np.random.default_rng(seed)


def sample_wigner(n, ens, stream, out=None):
    """Symmetric matrix with i.i.d. upper-triangle entries from the ensemble law.

    The n(n+1)/2 entries are drawn chunk by chunk, in packed column order,
    into ``out`` if given, else into a new packed array; the matrix then shares
    that array. ``out`` is either a writeable contiguous float64 array of
    length n(n+1)/2 (packed storage) or a writeable Fortran-order float64
    (n, n) array (dense storage): the packed triangle is then drawn into its
    first n(n+1)/2 elements and spread in place to the tops of the columns,
    and the lower triangle keeps whatever is left there. Every law consumes
    the stream in order, so both layouts hold the same bytes as a single draw
    of all entries, without full-size integer or boolean temporaries.
    """
    if n < 1:
        raise RejectedInputError(f"dimension must be >= 1, got {n}")
    size = packed_length(n)
    entries = np.empty(size) if out is None else out
    ok = isinstance(entries, np.ndarray) and entries.dtype == np.float64 and entries.flags.writeable
    packed = ok and entries.flags.c_contiguous and entries.shape == (size,)
    dense = ok and entries.flags.f_contiguous and entries.shape == (n, n)
    if not (packed or dense):
        raise RejectedInputError(
            f"out must be a writeable contiguous float64[{size}] "
            f"or a writeable Fortran-order float64 ({n}, {n}) array"
        )
    flat = entries.reshape(-1, order="F")  # a view in both layouts
    for start in range(0, size, _DRAW_CHUNK):
        _draw_entries(ens, stream, flat[start : min(start + _DRAW_CHUNK, size)])
    if ens.diagonal_policy == "zero":
        flat[packed_diagonal_indices(n)] = 0.0
    if dense:
        spread_packed_columns(flat, n)
    return SymmetricMatrix(n, entries)


def _draw_entries(ens, stream, seg):
    """Fill seg with the next seg.size entries of the ensemble law from stream."""
    if ens.kind == "gaussian":
        stream.standard_normal(out=seg)
    elif ens.kind == "rademacher":
        _draw_signs(stream, seg)
    elif ens.kind == "uniform":  # as Generator.uniform: low + (high - low) * random()
        stream.random(out=seg)
        seg *= 2.0 * _SQRT3
        seg -= _SQRT3
    elif ens.kind == "centered_bernoulli":
        p = float(ens.param)
        stream.random(out=seg)
        seg[...] = seg < p
        seg -= p
        seg /= math.sqrt(p * (1.0 - p))
    else:
        raise RejectedInputError(f"unknown ensemble kind {ens.kind!r}")


def _draw_signs(stream, seg):
    """seg <- 2 b - 1 for the bits b of stream.integers(0, 2, dtype=np.int32), same stream state.

    That call returns the top bit of each 32-bit half of the PCG64 output,
    low half first, and keeps each word's high half in the bit generator's
    state (uinteger, flagged unused by has_uint32). Here bit 31 of each half
    is read directly from the words' uint32 view, which lists a word's low
    half first on a little-endian host: a buffered half is used first, and an
    odd count leaves the last high half buffered.
    """
    if sys.byteorder != "little":
        raise NotImplementedError("rademacher draws read the raw words as little-endian halves")
    bitgen = stream.bit_generator
    state = bitgen.state
    buffered = state["has_uint32"]
    if buffered:
        seg[0] = state["uinteger"] >> 31
    rest = seg[buffered:]
    words = bitgen.random_raw((rest.size + 1) // 2)
    state = bitgen.state  # advanced by the raw draw
    state["has_uint32"] = rest.size % 2
    if words.size:  # the high half of the last word drawn, used or not
        state["uinteger"] = int(words[-1] >> 32)
    bitgen.state = state
    np.right_shift(words.view(np.uint32)[: rest.size], 31, out=rest, casting="unsafe")  # one pass, cast into seg
    seg *= 2.0
    seg -= 1.0


def sample_prior(n, prior, stream):
    """Vector of n i.i.d. coordinates from the prior law."""
    if n < 1:
        raise RejectedInputError(f"dimension must be >= 1, got {n}")
    if prior.kind == "rademacher":
        return stream.integers(0, 2, size=n).astype(np.float64) * 2.0 - 1.0
    if prior.kind == "uniform_sqrt3":
        return stream.uniform(-_SQRT3, _SQRT3, size=n)
    if prior.kind == "three_point":
        return stream.choice(np.asarray(prior.values), size=n, p=np.asarray(prior.probs))
    if prior.kind == "gaussian":
        return stream.standard_normal(n)
    raise RejectedInputError(f"unknown prior kind {prior.kind!r}")


class InterpolatedNoise:
    """Noise operator on a t-grid, never formed as a matrix.

    It maps a (T, n) block, row r to sqrt(t_r) A x_r + sqrt(1 - t_r) G x_r.
    A row at t = 1 gets A x_r alone and one at t = 0 G x_r alone, so they
    hold the bytes of the pure operators; a row in between costs two packed
    matvecs. When every row of the block is the same vector, A x and G x are
    computed once for all of them. Nothing of size n(n+1)/2 is allocated.
    """

    def __init__(self, mat_a, mat_g, t_grid):
        if mat_a.n != mat_g.n:
            raise RejectedInputError(f"dimensions differ: {mat_a.n} vs {mat_g.n}")
        grid = np.asarray(t_grid, dtype=np.float64)
        if grid.ndim != 1 or not np.all((0.0 <= grid) & (grid <= 1.0)):
            raise RejectedInputError(f"interpolation needs a 1-D t-grid in [0, 1], got {t_grid}")
        self.n = mat_a.n
        self.mat_a, self.mat_g = mat_a, mat_g
        self.weights = [(math.sqrt(s), math.sqrt(1.0 - s)) for s in grid.tolist()]

    def apply(self, x):
        rows = np.asarray(x, dtype=np.float64)
        if rows.ndim != 2 or len(rows) != len(self.weights):
            raise RejectedInputError(f"expected {len(self.weights)} rows of length {self.n}, got shape {rows.shape}")
        shared = len(rows) > 1 and bool((rows[1:] == rows[0]).all())
        out = np.empty(rows.shape)
        ax = gx = None
        for r, (wa, wg) in enumerate(self.weights):
            if not shared:
                ax = gx = None
            if wa and ax is None:
                ax = sym_matvec(self.mat_a, rows[r])
            if wg and gx is None:
                gx = sym_matvec(self.mat_g, rows[r])
            out[r] = (wa * ax + wg * gx) if wa and wg else ax if wa else gx
        return out


class SpikedOperator:
    """Lazy operator x -> X x / sqrt(n) + (gamma / n) <z, x> z.

    X is any noise operator with ``.n`` and ``.apply`` (a SymmetricMatrix, or an
    InterpolatedNoise on a (T, n) block; both check x in ``sym_matvec``); z=None means
    no spike term. On a block, the spike term is added row by row.
    The rank-one part is never materialized; one application costs the noise apply plus O(n).
    """

    def __init__(self, noise, gamma=0.0, z=None):
        self.noise = noise
        self.n = noise.n
        self.gamma, self.z = gamma, z  # len(z) == n
        self._inv_sqrt_n = 1.0 / math.sqrt(self.n)

    def apply(self, x):
        y = self.noise.apply(x) * self._inv_sqrt_n
        if self.z is not None:
            for y_r, x_r in zip(y, x) if y.ndim == 2 else [(y, x)]:
                y_r += (self.gamma / self.n) * np.dot(self.z, x_r) * self.z
        return y


def build_spiked(x, spike, prior_vector=None):
    """Assemble the spiked operator for noise operator x, a SpikeSpec and z = prior_vector."""
    if spike.gamma == 0.0:
        return SpikedOperator(x)
    if prior_vector is None:
        raise RejectedInputError("spike sourced from the prior requires prior_vector")
    z = np.ascontiguousarray(prior_vector, dtype=np.float64)
    if z.shape != (x.n,):
        raise RejectedInputError(f"prior vector length {z.shape} does not match n={x.n}")
    return SpikedOperator(x, float(spike.gamma), z)
