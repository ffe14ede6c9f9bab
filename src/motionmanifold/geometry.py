"""Riemannian structure on curve-parameter space and the decoder pullback.

The squared length of a coefficient perturbation dw is the squared L2 norm
of the curve perturbation it induces,

    ds^2 = int_0^1 |dw phi(tau)|^2 dtau = sum_i dw_i G dw_i^T,
    G_jl = int_0^1 phi_j(tau) phi_l(tau) dtau,

so the metric is the basis Gram matrix G applied to each coordinate row
dw_i and does not depend on w.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DistortionUndefinedError
from . import nets


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
        shaped = vec.reshape(vec.shape[:-1] + (-1, self.n_bases))
        return (shaped @ self.gram).reshape(vec.shape)


def curvegeom_euclidean(basis):
    """Constant metric for a Euclidean configuration space."""
    return CurveGeomMetric(basis.gram())


@dataclass
class PullbackMetric:
    """Latent metric J^T K J at one latent point."""

    matrix: np.ndarray
    latent: np.ndarray = field(default=None)

    def eigenvalues(self):
        return np.linalg.eigvalsh(self.matrix)

    def condition_number(self):
        eigs = self.eigenvalues()
        if eigs[0] <= 0:
            return np.inf
        return float(eigs[-1] / eigs[0])

    def trace(self):
        return float(np.trace(self.matrix))


def pullback_metric(decoder, z, metric):
    """Assemble the latent metric from decoder directional derivatives."""
    z = np.asarray(z, dtype=float)
    jac = decoder.jacobian(z)                    # (nB, m)
    ku = metric.apply(jac.T)                     # (m, nB)
    mat = jac.T @ ku.T
    return PullbackMetric(matrix=0.5 * (mat + mat.T), latent=z)


def relaxed_distortion(decoder, z_batch, metric):
    """Distortion of the decoder over a latent batch.

    The scalar E[Tr(Hbar^2)] / E[Tr(Hbar)]^2 is minimized (value 1/m) when
    the pullback metric has equal eigenvalues everywhere on the batch,
    i.e. the decoder is a scaled isometry there.
    """
    z = np.atleast_2d(np.asarray(z_batch, dtype=float))
    if z.shape[0] == 0:
        raise ValueError("empty latent batch")
    _, _, _, _, tr, tr_sq = nets.distortion_terms(decoder, z, metric)
    denom = tr.mean()
    if denom < 1e-12:
        raise DistortionUndefinedError(
            f"mean pullback trace {denom:.3e} is too small")
    return float(tr_sq.mean() / denom ** 2)
