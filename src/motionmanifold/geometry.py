"""The curve-space metric on curve-parameter space.

The squared length of a coefficient perturbation dw is the squared L2 norm
of the curve perturbation it induces,

    ds^2 = int_0^1 |dw phi(tau)|^2 dtau = sum_i dw_i G dw_i^T,
    G_jl = int_0^1 phi_j(tau) phi_l(tau) dtau,

so the metric is the basis Gram matrix G applied to each coordinate row
dw_i and does not depend on w.  The latent metric that the decoder pulls
back from it is built in one place, nets.distortion_terms.
"""

from __future__ import annotations

import numpy as np


class CurveGeomMetric:
    """Metric on coefficient space: the basis Gram matrix per coordinate."""

    def __init__(self, gram):
        self.gram = gram
        self.n_bases = gram.shape[0]

    def apply(self, vec):
        """Contract the metric with coefficients.

        Accepts flat (..., n*B) stacks or (..., n, B) matrices and returns
        the same shape.
        """
        vec = np.asarray(vec, dtype=float)
        total = vec.shape[-1]
        if total % self.n_bases != 0:
            raise ValueError(f"flattened length {total} is not a "
                             f"multiple of B = {self.n_bases}")
        return (vec.reshape(-1, self.n_bases) @ self.gram).reshape(vec.shape)

