"""A one-t reference for the rows of InterpolatedNoise, written without it."""

import math

from amplab.linalg import sym_matvec


class MixedNoise:
    """x -> sqrt(t) A x + sqrt(1 - t) G x at one t: A x alone at t = 1, G x alone at t = 0."""

    def __init__(self, mat_a, mat_g, t):
        self.n = mat_a.n
        self.mat_a, self.mat_g, self.t = mat_a, mat_g, t

    def apply(self, x):
        if self.t == 1.0:
            return sym_matvec(self.mat_a, x)
        if self.t == 0.0:
            return sym_matvec(self.mat_g, x)
        return math.sqrt(self.t) * sym_matvec(self.mat_a, x) + math.sqrt(1.0 - self.t) * sym_matvec(self.mat_g, x)
