"""Latent-space density models and threshold rejection sampling.

Two families: a Gaussian mixture fitted by EM for clustered latent sets,
and a locally adaptive kernel density estimate whose per-point bandwidth
is the squared kernel-weighted scatter, for latent sets that form a
connected manifold.  The same code also fits densities directly over
flattened curve coefficients for the high-dimensional baselines.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cholesky, solve_triangular
from scipy.special import logsumexp

from .errors import DegenerateSupportError, SamplingStarvedError

_LOG_2PI = float(np.log(2.0 * np.pi))


def _gauss_logpdf(points, mean, cov_chol):
    """Log N(x; mean, L L^T) rows of `points` given lower Cholesky factor."""
    diff = np.atleast_2d(points) - mean
    sol = solve_triangular(cov_chol, diff.T, lower=True)
    maha = np.sum(sol ** 2, axis=0)
    logdet = 2.0 * np.sum(np.log(np.diag(cov_chol)))
    m = mean.size
    return -0.5 * (m * _LOG_2PI + logdet + maha)


# -- Gaussian mixture -----------------------------------------------------

@dataclass
class GmmModel:
    weights: np.ndarray          # (K,)
    means: np.ndarray            # (K, m)
    covariances: np.ndarray      # (K, m, m)
    log_likelihood_history: list = field(default_factory=list)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.means = np.atleast_2d(np.asarray(self.means, dtype=float))
        self.covariances = np.asarray(self.covariances, dtype=float)
        if abs(self.weights.sum() - 1.0) > 1e-9 or (self.weights < 0).any():
            raise ValueError("mixture weights must be a simplex point")
        self._chols = [cholesky(c, lower=True) for c in self.covariances]

    @property
    def n_components(self):
        return len(self.weights)

    @property
    def dim(self):
        return self.means.shape[1]

    def component_logpdfs(self, z):
        z2 = np.atleast_2d(np.asarray(z, dtype=float))
        out = np.empty((len(z2), self.n_components))
        for k in range(self.n_components):
            out[:, k] = _gauss_logpdf(z2, self.means[k], self._chols[k])
        return out

    def logpdf(self, z):
        z = np.asarray(z, dtype=float)
        parts = self.component_logpdfs(z) + np.log(self.weights)
        vals = logsumexp(parts, axis=1)
        return float(vals[0]) if z.ndim == 1 else vals

    def sample(self, rng, count=None):
        n = 1 if count is None else count
        comps = rng.choice(self.n_components, size=n, p=self.weights)
        out = np.empty((n, self.dim))
        for i, k in enumerate(comps):
            out[i] = self.means[k] + self._chols[k] @ rng.standard_normal(
                self.dim)
        return out[0] if count is None else out

    def to_dict(self):
        return {"family": "gmm",
                "weights": self.weights.tolist(),
                "means": self.means.tolist(),
                "covariances": self.covariances.tolist(),
                "log_likelihood_history": list(
                    self.log_likelihood_history)}

    @classmethod
    def from_dict(cls, data):
        return cls(weights=np.array(data["weights"]),
                   means=np.array(data["means"]),
                   covariances=np.array(data["covariances"]),
                   log_likelihood_history=data.get(
                       "log_likelihood_history", []))


def _kmeans_pp_seeds(points, n_clusters, rng):
    n = len(points)
    centers = [points[rng.integers(n)]]
    for _ in range(n_clusters - 1):
        d2 = np.min([np.sum((points - c) ** 2, axis=1) for c in centers],
                    axis=0)
        total = d2.sum()
        if total <= 0:
            # remaining points coincide with chosen centers
            centers.append(points[rng.integers(n)])
            continue
        centers.append(points[rng.choice(n, p=d2 / total)])
    return np.array(centers)


def _kmeans(points, centers, iters=10):
    for _ in range(iters):
        d2 = np.sum((points[:, None, :] - centers[None]) ** 2, axis=2)
        labels = np.argmin(d2, axis=1)
        for k in range(len(centers)):
            mask = labels == k
            if mask.any():
                centers[k] = points[mask].mean(axis=0)
            else:
                # claim the point farthest from its assigned center
                far = np.argmax(np.min(d2, axis=1))
                centers[k] = points[far]
    d2 = np.sum((points[:, None, :] - centers[None]) ** 2, axis=2)
    return centers, np.argmin(d2, axis=1)


def gmm_fit(points, n_components, seed=0, tol=1e-8, max_iter=500,
            ridge=1e-6):
    """EM fit with k-means++ start; records total log-likelihood per step."""
    x = np.atleast_2d(np.asarray(points, dtype=float))
    n, m = x.shape
    if n_components > n:
        raise DegenerateSupportError(
            f"{n_components} components but only {n} points")
    if np.all(x == x[0]):
        raise DegenerateSupportError("all support points identical")
    rng = np.random.default_rng(seed)
    centers = _kmeans_pp_seeds(x, n_components, rng)
    centers, labels = _kmeans(x, centers, iters=10)
    eye = np.eye(m)
    weights = np.empty(n_components)
    means = np.empty((n_components, m))
    covs = np.empty((n_components, m, m))
    for k in range(n_components):
        mask = labels == k
        if not mask.any():
            mask = np.ones(n, dtype=bool)
        weights[k] = max(mask.sum(), 1) / n
        means[k] = x[mask].mean(axis=0)
        diff = x[mask] - means[k]
        covs[k] = diff.T @ diff / max(mask.sum(), 1) + ridge * eye
    weights /= weights.sum()

    history = []
    prev_ll = -np.inf
    for _ in range(max_iter):
        # E-step
        parts = np.empty((n, n_components))
        for k in range(n_components):
            chol = cholesky(covs[k], lower=True)
            parts[:, k] = _gauss_logpdf(x, means[k], chol) + np.log(
                weights[k])
        norms = logsumexp(parts, axis=1)
        ll = float(norms.sum())
        history.append(ll)
        resp = np.exp(parts - norms[:, None])
        # M-step
        nk = resp.sum(axis=0)
        weights = nk / n
        means = (resp.T @ x) / nk[:, None]
        for k in range(n_components):
            diff = x - means[k]
            covs[k] = (resp[:, k, None] * diff).T @ diff / nk[k] + ridge * eye
        if ll - prev_ll < tol and np.isfinite(prev_ll):
            break
        prev_ll = ll
    weights = weights / weights.sum()
    return GmmModel(weights=weights, means=means, covariances=covs,
                    log_likelihood_history=history)


# -- adaptive KDE ---------------------------------------------------------

# Cap on the (queries, support, m) whitened-difference block that
# KdeModel.logpdf holds at once, in float64 elements (2 MB).
_KDE_BLOCK_ELEMENTS = 1 << 18


@dataclass
class KdeModel:
    points: np.ndarray           # (N, m)
    bandwidths: np.ndarray       # (N, m, m) SPD
    kernel_width: float

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.bandwidths = np.asarray(self.bandwidths, dtype=float)
        self._chols = np.stack([cholesky(h, lower=True)
                                for h in self.bandwidths])
        # transposed inverse factors, so that diff @ inv_t = (L^-1 diff)^T
        eye = np.eye(self.dim)
        self._inv_chols_t = np.stack([
            solve_triangular(c, eye, lower=True).T for c in self._chols])
        # per-support log normalizer -(m log 2pi + log det H_i) / 2
        logdets = np.array([2.0 * np.sum(np.log(np.diag(c)))
                            for c in self._chols])
        self._log_norms = -0.5 * (self.dim * _LOG_2PI + logdets)

    @property
    def dim(self):
        return self.points.shape[1]

    def logpdf(self, z):
        z = np.asarray(z, dtype=float)
        z2 = np.atleast_2d(z)
        n = len(self.points)
        block = max(1, _KDE_BLOCK_ELEMENTS // (n * self.dim))
        vals = np.empty(len(z2))
        for lo in range(0, len(z2), block):
            diff = z2[None, lo:lo + block] - self.points[:, None]  # (N, Q, m)
            white = diff @ self._inv_chols_t
            parts = (self._log_norms[:, None]
                     - 0.5 * np.einsum("nqi,nqi->nq", white, white))
            top = parts.max(axis=0)
            top = np.where(np.isfinite(top), top, 0.0)
            vals[lo:lo + block] = top + np.log(
                np.sum(np.exp(parts - top), axis=0))
        vals -= np.log(n)
        return float(vals[0]) if z.ndim == 1 else vals

    def sample(self, rng, count=None):
        n = 1 if count is None else count
        picks = rng.integers(0, len(self.points), size=n)
        eps = rng.standard_normal((n, self.dim))
        # matmul per draw, not einsum: this matches chol @ eps bit for bit
        out = self.points[picks] + (self._chols[picks]
                                    @ eps[:, :, None])[:, :, 0]
        return out[0] if count is None else out

    def to_dict(self):
        return {"family": "kde",
                "points": self.points.tolist(),
                "bandwidths": self.bandwidths.tolist(),
                "kernel_width": self.kernel_width}

    @classmethod
    def from_dict(cls, data):
        return cls(points=np.array(data["points"]),
                   bandwidths=np.array(data["bandwidths"]),
                   kernel_width=float(data["kernel_width"]))


def kde_build(points, kernel_width=None, ridge=1e-9):
    """Per-point bandwidth H_i = (weighted scatter)^2 + ridge I.

    Kernel weights K(z_i, z_k) = exp(-||z_i - z_k||^2 / h); the default h
    is the median squared pairwise distance.
    """
    x = np.atleast_2d(np.asarray(points, dtype=float))
    n, m = x.shape
    if n < 2:
        raise DegenerateSupportError("KDE needs at least 2 support points")
    diffs = x[:, None, :] - x[None, :, :]
    d2 = np.sum(diffs ** 2, axis=2)
    off_diag = d2[~np.eye(n, dtype=bool)]
    if off_diag.max() <= 0:
        raise DegenerateSupportError("all support points identical")
    rank = np.linalg.matrix_rank(x - x.mean(axis=0))
    if rank < m:
        # every bandwidth would be the ridge alone off the spanned subspace
        raise DegenerateSupportError(
            f"KDE support points span {rank} of {m} dimensions "
            f"(collinear or otherwise rank-deficient)")
    h = float(np.median(off_diag)) if kernel_width is None else float(
        kernel_width)
    if h <= 0:
        raise DegenerateSupportError(f"kernel width {h} must be positive")
    weights = np.exp(-d2 / h)
    bands = np.empty((n, m, m))
    eye = np.eye(m)
    for i in range(n):
        scatter = np.einsum("k,ka,kb->ab", weights[i], diffs[i], diffs[i])
        scatter /= weights[i].sum()
        bands[i] = scatter @ scatter + ridge * eye
    return KdeModel(points=x, bandwidths=bands, kernel_width=h)


# -- thresholded sampling -------------------------------------------------

@dataclass
class SampleFilter:
    threshold: float
    max_attempts: int = 100000

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")


def min_loglik_threshold(density, points):
    """Rejection threshold: worst log-likelihood among training points."""
    vals = density.logpdf(np.atleast_2d(np.asarray(points, dtype=float)))
    return float(np.min(vals))


@dataclass
class RejectionResult:
    samples: np.ndarray
    attempts: int
    accepted: int

    @property
    def acceptance_rate(self):
        return self.accepted / self.attempts if self.attempts else 0.0


def rejection_sample(density, sample_filter, rng, count, batch=256):
    """Draw `count` samples whose log-density clears the filter threshold."""
    kept = []
    attempts = 0
    accepted = 0
    while accepted < count:
        if attempts >= sample_filter.max_attempts:
            raise SamplingStarvedError(attempts=attempts, accepted=accepted)
        take = min(batch, sample_filter.max_attempts - attempts)
        draws = density.sample(rng, count=take)
        attempts += take
        ok = density.logpdf(draws) >= sample_filter.threshold
        good = draws[ok]
        if len(good):
            kept.append(good)
            accepted += len(good)
    samples = np.concatenate(kept, axis=0)[:count]
    return RejectionResult(samples=samples, attempts=attempts,
                           accepted=accepted)


# -- checkpoint IO --------------------------------------------------------

def save_density(path, model):
    with open(path, "w") as fh:
        json.dump(model.to_dict(), fh, indent=1)


def load_density(path):
    with open(path) as fh:
        data = json.load(fh)
    family = data.get("family")
    if family == "gmm":
        return GmmModel.from_dict(data)
    if family == "kde":
        return KdeModel.from_dict(data)
    raise ValueError(f"unknown density family {family!r}")
