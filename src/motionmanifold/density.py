"""Latent-space density models and threshold rejection sampling.

Two families, both Gaussian mixtures evaluated and sampled by one core: a
mixture fitted by EM for clustered latent sets, and a locally adaptive
kernel density estimate (one component per support point) whose per-point
bandwidth is the squared kernel-weighted scatter, for latent sets that
form a connected manifold.  The same code also fits densities directly
over flattened curve coefficients for the high-dimensional baselines.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cholesky, solve_triangular

from .errors import DegenerateSupportError, SamplingStarvedError

# -- Gaussian-mixture core ------------------------------------------------

# Cap on the (components, queries, m) whitened-difference block that one
# evaluation holds at once, and on the (draws, m, m) factor stack that one
# sampling step gathers, in float64 elements (2 MB).
_BLOCK_ELEMENTS = 1 << 18

# EM stops once a step gains less than GMM_TOL in total log-likelihood or
# after GMM_MAX_ITER steps; the ridges are added to covariance diagonals
GMM_TOL = 1e-8
GMM_MAX_ITER = 500
GMM_RIDGE = 1e-6
KDE_RIDGE = 1e-9
REJECTION_BATCH = 256            # draws per sample call of rejection_sample


def _factors(covariances):
    """Stacked lower Cholesky factors L_k, transposed inverses L_k^-T, and
    log normalizers -(m log 2pi + log det C_k) / 2 of (K, m, m) covariances."""
    chols = np.stack([cholesky(c, lower=True) for c in covariances])
    m = chols.shape[1]
    eye = np.eye(m)
    # transposed inverse factors, so that diff @ inv_t = (L^-1 diff)^T
    inv_chols_t = np.stack([solve_triangular(c, eye, lower=True).T
                            for c in chols])
    logdets = np.array([2.0 * np.sum(np.log(np.diag(c))) for c in chols])
    return chols, inv_chols_t, -0.5 * (m * np.log(2.0 * np.pi) + logdets)


def _component_logpdfs(z2, means, inv_chols_t, log_norms):
    """(K, Q) log_norms[k] - |L_k^-1 (z_q - means[k])|^2 / 2 for one block."""
    white = (z2[None] - means[:, None]) @ inv_chols_t      # (K, Q, m)
    return log_norms[:, None] - 0.5 * np.einsum("kqi,kqi->kq", white, white)


def _logsumexp(parts):
    """Max-shifted log sum_k exp(parts[k]) over axis 0."""
    top = parts.max(axis=0)
    top = np.where(np.isfinite(top), top, 0.0)
    return top + np.log(np.sum(np.exp(parts - top), axis=0))


def _mixture_logpdf(z, means, inv_chols_t, log_norms, offset=0.0):
    """offset + log sum_k exp(component k) at z, in capped query blocks."""
    z = np.asarray(z, dtype=float)
    z2 = np.atleast_2d(z)
    block = max(1, _BLOCK_ELEMENTS // means.size)
    vals = np.empty(len(z2))
    for lo in range(0, len(z2), block):
        vals[lo:lo + block] = _logsumexp(_component_logpdfs(
            z2[lo:lo + block], means, inv_chols_t, log_norms))
    vals += offset
    return float(vals[0]) if z.ndim == 1 else vals


def _draw(means, chols, picks, rng, count):
    """means[picks] + chols[picks] @ N(0, I); one point if count is None."""
    eps = rng.standard_normal((len(picks), means.shape[1]))
    out = means[picks]
    block = max(1, _BLOCK_ELEMENTS // chols[0].size)
    for lo in range(0, len(picks), block):
        rows = slice(lo, lo + block)
        # matmul per draw, not einsum: this matches chol @ eps bit for bit
        out[rows] += (chols[picks[rows]] @ eps[rows, :, None])[:, :, 0]
    return out[0] if count is None else out


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
        self._chols, self._inv_chols_t, log_norms = _factors(
            self.covariances)
        # each component's normalizer and weight, added before the sum
        self._log_norms = log_norms + np.log(self.weights)

    @property
    def n_components(self):
        return len(self.weights)

    def logpdf(self, z):
        return _mixture_logpdf(z, self.means, self._inv_chols_t,
                               self._log_norms)

    def sample(self, rng, count=None):
        picks = rng.choice(self.n_components, p=self.weights,
                           size=1 if count is None else count)
        return _draw(self.means, self._chols, picks, rng, count)

    def to_dict(self):
        return {"family": "gmm",
                "weights": self.weights.tolist(),
                "means": self.means.tolist(),
                "covariances": self.covariances.tolist(),
                "log_likelihood_history": list(
                    self.log_likelihood_history)}

    @classmethod
    def from_dict(cls, data):
        return cls(weights=data["weights"], means=data["means"],
                   covariances=data["covariances"],
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


def _check_components(n_components):
    if n_components < 1:
        raise ValueError(f"n_components must be at least 1, got "
                         f"{n_components}")


def gmm_fit(points, n_components, seed=0):
    """EM fit with k-means++ start; records total log-likelihood per step."""
    _check_components(n_components)
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
        covs[k] = diff.T @ diff / max(mask.sum(), 1) + GMM_RIDGE * eye
    weights /= weights.sum()

    history = []
    prev_ll = -np.inf
    for _ in range(GMM_MAX_ITER):
        # E-step; the M-step needs every (K, n) part, so x is one block
        _, inv_chols_t, log_norms = _factors(covs)
        parts = _component_logpdfs(x, means, inv_chols_t,
                                   log_norms + np.log(weights))
        norms = _logsumexp(parts)
        ll = float(norms.sum())
        history.append(ll)
        resp = np.exp(parts - norms).T
        # M-step
        nk = resp.sum(axis=0)
        weights = nk / n
        means = (resp.T @ x) / nk[:, None]
        for k in range(n_components):
            diff = x - means[k]
            covs[k] = (resp[:, k, None] * diff).T @ diff / nk[k] \
                + GMM_RIDGE * eye
        if ll - prev_ll < GMM_TOL and np.isfinite(prev_ll):
            break
        prev_ll = ll
    weights = weights / weights.sum()
    return GmmModel(weights=weights, means=means, covariances=covs,
                    log_likelihood_history=history)


# -- adaptive KDE ---------------------------------------------------------

@dataclass
class KdeModel:
    points: np.ndarray           # (N, m)
    bandwidths: np.ndarray       # (N, m, m) SPD
    kernel_width: float

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.bandwidths = np.asarray(self.bandwidths, dtype=float)
        self._chols, self._inv_chols_t, self._log_norms = _factors(
            self.bandwidths)

    def logpdf(self, z):
        # uniform weights 1/N, added after the sum
        return _mixture_logpdf(z, self.points, self._inv_chols_t,
                               self._log_norms, -np.log(len(self.points)))

    def sample(self, rng, count=None):
        picks = rng.integers(0, len(self.points),
                            size=1 if count is None else count)
        return _draw(self.points, self._chols, picks, rng, count)

    def to_dict(self):
        return {"family": "kde",
                "points": self.points.tolist(),
                "bandwidths": self.bandwidths.tolist(),
                "kernel_width": self.kernel_width}

    @classmethod
    def from_dict(cls, data):
        return cls(points=data["points"], bandwidths=data["bandwidths"],
                   kernel_width=float(data["kernel_width"]))


def kde_build(points):
    """Per-point bandwidth H_i = (weighted scatter)^2 + KDE_RIDGE I.

    Kernel weights K(z_i, z_k) = exp(-||z_i - z_k||^2 / h), with h the
    median squared pairwise distance.
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
    h = float(np.median(off_diag))
    if h <= 0:
        raise DegenerateSupportError(f"kernel width {h} must be positive")
    weights = np.exp(-d2 / h)
    bands = np.empty((n, m, m))
    eye = np.eye(m)
    for i in range(n):
        scatter = np.einsum("k,ka,kb->ab", weights[i], diffs[i], diffs[i])
        scatter /= weights[i].sum()
        bands[i] = scatter @ scatter + KDE_RIDGE * eye
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


def rejection_sample(density, sample_filter, rng, count):
    """Draw `count` samples whose log-density clears the filter threshold."""
    kept = []
    attempts = 0
    accepted = 0
    while accepted < count:
        if attempts >= sample_filter.max_attempts:
            raise SamplingStarvedError(attempts=attempts, accepted=accepted)
        take = min(REJECTION_BATCH, sample_filter.max_attempts - attempts)
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


# Family name -> (model class, fit(points, n_components, seed)).  The fits
# look gmm_fit and kde_build up when called, so perfbench's tracer, which
# rebinds module names, sees every fit.
FAMILIES = {
    "gmm": (GmmModel, lambda points, n_components, seed: gmm_fit(
        points, n_components, seed=seed)),
    "kde": (KdeModel, lambda points, n_components, seed: kde_build(points)),
}
DEFAULT_FAMILY = "gmm"


def _family(name):
    if not (isinstance(name, str) and name in FAMILIES):
        raise ValueError(f"unknown density family {name!r}; expected one "
                         f"of {list(FAMILIES)}")
    return FAMILIES[name]


def fit_density(points, family, n_components, seed):
    """Fit the named family to points; the KDE ignores n_components/seed."""
    _check_components(n_components)
    return _family(family)[1](points, n_components, seed)


def load_density(path):
    with open(path) as fh:
        data = json.load(fh)
    return _family(data.get("family"))[0].from_dict(data)
