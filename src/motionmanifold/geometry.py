"""Riemannian structure on curve-parameter space and the decoder pullback.

The squared length of a coefficient perturbation dw is the trajectory-space
inner product of the induced curve perturbation, which for an affine curve
model reduces to a 4-index tensor contraction

    ds^2 = sum_{ijkl} h_ijkl dw_ij dw_kl,
    h_ijkl = int_0^1 phi_j(tau) g_ik(q(tau; w)) phi_l(tau) dtau.

With a Euclidean configuration metric this collapses to the basis Gram
matrix applied per configuration coordinate and no longer depends on w.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import QUAD_GRID_POINTS
from .errors import DistortionUndefinedError, MetricError
from . import nets


@dataclass
class ConfigMetric:
    """Pointwise metric on configuration space: q -> SPD matrix G(q)."""

    evaluator: callable
    is_euclidean: bool = False

    @classmethod
    def euclidean(cls, dim):
        eye = np.eye(dim)
        return cls(evaluator=lambda q: eye, is_euclidean=True)

    @classmethod
    def from_function(cls, fn):
        return cls(evaluator=fn, is_euclidean=False)

    def __call__(self, q):
        g = np.asarray(self.evaluator(np.asarray(q, dtype=float)), dtype=float)
        if np.abs(g - g.T).max() > 1e-10:
            raise MetricError("configuration metric is not symmetric")
        return g


class CurveGeomMetric:
    """Metric on coefficient space, as Gram matrix or full 4-index tensor.

    ``use_count`` tracks evaluations so training can prove it bypassed the
    metric entirely when no regularization was requested.
    """

    def __init__(self, gram=None, tensor=None, dim=None):
        if (gram is None) == (tensor is None):
            raise ValueError("provide exactly one of gram or tensor")
        self.gram = gram
        self.tensor = tensor
        self.dim = dim
        if tensor is not None:
            self.dim = tensor.shape[0]
        self.n_bases = (gram.shape[0] if gram is not None
                        else tensor.shape[1])
        self.use_count = 0

    @property
    def is_euclidean(self):
        return self.gram is not None

    def apply(self, vec):
        """Contract the metric with coefficients.

        Accepts flat (..., n*B) stacks or (..., n, B) matrices and returns
        the same shape.
        """
        self.use_count += 1
        vec = np.asarray(vec, dtype=float)
        if self.is_euclidean:
            total = vec.shape[-1]
            if total % self.n_bases != 0:
                raise ValueError(f"flattened length {total} is not a "
                                 f"multiple of B = {self.n_bases}")
            shaped = vec.reshape(vec.shape[:-1] + (-1, self.n_bases))
            return (shaped @ self.gram).reshape(vec.shape)
        n = self.dim * self.n_bases
        flat_tensor = self.tensor.reshape(n, n)
        if vec.shape[-1] == n:
            return np.einsum("xy,...y->...x", flat_tensor, vec)
        if vec.ndim >= 2 and vec.shape[-2:] == (self.dim, self.n_bases):
            flatv = vec.reshape(vec.shape[:-2] + (n,))
            out = np.einsum("xy,...y->...x", flat_tensor, flatv)
            return out.reshape(vec.shape)
        raise ValueError(f"coefficient shape {vec.shape} does not match a "
                         f"({self.dim}, {self.n_bases}) layout")

    def quadratic(self, u, v):
        """<u, K v>; u and v may be flat vectors or (n, B) matrices."""
        u = np.asarray(u, dtype=float)
        return float(np.sum(u * self.apply(v)))

    def matrix(self, dim=None):
        """Dense (n B, n B) form; Euclidean metrics need the coordinate count."""
        self.use_count += 1
        if not self.is_euclidean:
            n = self.dim * self.n_bases
            return self.tensor.reshape(n, n)
        n = dim if dim is not None else self.dim
        if n is None:
            raise ValueError("coordinate count needed to densify a "
                             "per-coordinate Gram metric")
        return np.kron(np.eye(n), self.gram)

    def scaled(self, factor):
        if self.is_euclidean:
            return CurveGeomMetric(gram=factor * self.gram, dim=self.dim)
        return CurveGeomMetric(tensor=factor * self.tensor)


def curvegeom_euclidean(basis, dim=None, grid_points=QUAD_GRID_POINTS):
    """Constant metric for a Euclidean configuration space."""
    return CurveGeomMetric(gram=basis.gram(grid_points), dim=dim)


def curvegeom_general(model, params, config_metric,
                      grid_points=QUAD_GRID_POINTS):
    """Quadrature evaluation of the 4-index metric tensor at one curve."""
    grid = np.linspace(0.0, 1.0, grid_points)
    phi = model.basis.evaluate(grid)             # (T, B)
    points = model.evaluate(params, grid)        # (T, n)
    n = model.dim
    gvals = np.empty((grid_points, n, n))
    for t, q in enumerate(points):
        g = config_metric(q)
        eigs = np.linalg.eigvalsh(g)
        if eigs[0] <= 0:
            raise MetricError(
                f"configuration metric not positive-definite at tau = "
                f"{grid[t]:.4f} (min eigenvalue {eigs[0]:.3e})")
        gvals[t] = g
    weights = np.full(grid_points, 1.0 / (grid_points - 1))
    weights[0] *= 0.5
    weights[-1] *= 0.5
    tensor = np.einsum("t,tj,tik,tl->ijkl", weights, phi, gvals, phi)
    return CurveGeomMetric(tensor=tensor)


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
