import json
import re

import numpy as np
import pytest
from scipy.linalg import cholesky, solve_triangular
from scipy.special import logsumexp

from motionmanifold.density import (GmmModel, KdeModel, SampleFilter,
                                    fit_density, gmm_fit, kde_build,
                                    min_loglik_threshold, rejection_sample,
                                    save_density)
from motionmanifold.envs import fit_demos, generate_env
from motionmanifold.errors import DegenerateSupportError, SamplingStarvedError


def _gauss_logpdf(points, mean, cov_chol):
    """Reference log N(x; mean, L L^T) at rows of `points`, one triangular
    solve per component, for checking the stacked mixture evaluation."""
    diff = np.atleast_2d(points) - mean
    sol = solve_triangular(cov_chol, diff.T, lower=True)
    maha = np.sum(sol ** 2, axis=0)
    logdet = 2.0 * np.sum(np.log(np.diag(cov_chol)))
    return -0.5 * (mean.size * np.log(2.0 * np.pi) + logdet + maha)


def _gmm_parts(g, points):
    """(Q, K) reference per-component log-densities plus log weights."""
    return np.stack([_gauss_logpdf(points, g.means[k],
                                   cholesky(g.covariances[k], lower=True))
                     + np.log(g.weights[k])
                     for k in range(g.n_components)], axis=1)


def two_blobs(n_per=60, centers=((-1.0, 0.0), (1.0, 0.0)), scale=0.5,
              seed=0):
    rng = np.random.default_rng(seed)
    parts = [rng.normal(c, scale, size=(n_per, 2)) for c in centers]
    return np.vstack(parts)


def mc_normalization(logpdf_fn, box, n=100000, seed=0):
    """Plain Monte-Carlo integral of exp(logpdf) over an axis box."""
    rng = np.random.default_rng(seed)
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    pts = rng.uniform(lo, hi, size=(n, len(box)))
    vol = float(np.prod(hi - lo))
    return float(np.mean(np.exp(logpdf_fn(pts))) * vol)


# -- GMM ------------------------------------------------------------------


def test_em_loglik_nondecreasing():
    pts = two_blobs(scale=0.8, seed=1)          # overlapping, needs real EM
    g = gmm_fit(pts, 3, seed=0)
    hist = np.array(g.log_likelihood_history)
    assert len(hist) >= 2
    assert np.all(np.diff(hist) >= -1e-9 * np.abs(hist[:-1]))


def test_two_blob_recovery_and_responsibilities():
    pts = two_blobs(scale=0.25, seed=2)
    g = gmm_fit(pts, 2, seed=0)
    means = g.means[np.argsort(g.means[:, 0])]
    assert np.abs(means[0] - [-1, 0]).max() < 0.15
    assert np.abs(means[1] - [1, 0]).max() < 0.15
    assert np.abs(g.weights - 0.5).max() < 0.05
    # responsibilities: every point decisively owned by its blob
    comp = _gmm_parts(g, pts)
    resp = np.exp(comp - comp.max(axis=1, keepdims=True))
    resp /= resp.sum(axis=1, keepdims=True)
    assert resp.max(axis=1).min() > 0.999


def test_more_components_than_points_raises():
    pts = np.random.default_rng(3).normal(size=(4, 2))
    with pytest.raises(DegenerateSupportError):
        gmm_fit(pts, 5, seed=0)


def test_duplicate_points_survive_via_ridge():
    pts = np.zeros((10, 2))
    pts[5:] = 1.0
    g = gmm_fit(pts, 2, seed=0)
    assert np.all(np.isfinite(g.logpdf(pts)))
    for cov in g.covariances:
        assert np.linalg.eigvalsh(cov)[0] > 0


def test_gmm_normalizes_to_one():
    pts = two_blobs(seed=4)
    g = gmm_fit(pts, 2, seed=0)
    integral = mc_normalization(g.logpdf, [(-3.0, 3.0), (-2.0, 2.0)])
    assert abs(integral - 1.0) < 0.02


def test_gmm_sample_moments():
    pts = two_blobs(scale=0.3, seed=5)
    g = gmm_fit(pts, 2, seed=0)
    draws = g.sample(np.random.default_rng(6), count=20000)
    want_mean = np.sum(g.weights[:, None] * g.means, axis=0)
    assert np.abs(draws.mean(axis=0) - want_mean).max() < 0.03
    # mixture spread dominated by the two centers at x = +-1
    assert abs(np.abs(draws[:, 0]).mean() - 1.0) < 0.05


def test_gmm_scalar_batch_consistency():
    pts = two_blobs(seed=7)
    g = gmm_fit(pts, 2, seed=0)
    batch = g.logpdf(pts[:5])
    for k in range(5):
        assert g.logpdf(pts[k]) == pytest.approx(batch[k])


def env3_coefficient_fits():
    """The 40-D flattened coefficients the env3 VMP baselines fit."""
    env, demos = generate_env("env3", seed=0)
    _, fits = fit_demos(env, demos, n_bases=20)
    return fits.reshape(len(fits), -1)


ENV3_COEFFS = env3_coefficient_fits()


@pytest.mark.parametrize("points, n_components", [
    (ENV3_COEFFS, 1),
    (ENV3_COEFFS, 4),
    (two_blobs(scale=0.6, seed=8), 3),
], ids=["env3-coeffs-k1", "env3-coeffs-k4", "latents-2d-k3"])
def test_gmm_logpdf_matches_per_component_reference(points, n_components):
    # the 40-D fits have covariance condition numbers up to about 4e7
    g = gmm_fit(points, n_components, seed=0)
    queries = np.vstack([points, g.sample(np.random.default_rng(9), 300)])
    want = logsumexp(_gmm_parts(g, queries), axis=1)
    np.testing.assert_allclose(g.logpdf(queries), want, rtol=1e-11, atol=0.0)
    assert g.logpdf(queries[0]) == pytest.approx(want[0], rel=1e-11)


@pytest.mark.parametrize("points, n_components", [
    (ENV3_COEFFS, 4),
    (two_blobs(scale=0.3, seed=5), 2),
], ids=["env3-coeffs-k4", "latents-2d-k2"])
def test_gmm_sample_matches_per_draw_loop_bit_for_bit(points, n_components):
    g = gmm_fit(points, n_components, seed=0)
    chols = [cholesky(c, lower=True) for c in g.covariances]

    def per_draw(rng, n):
        comps = rng.choice(g.n_components, size=n, p=g.weights)
        return np.array([g.means[k] + chols[k] @ rng.standard_normal(
            g.means.shape[1]) for k in comps])

    want = per_draw(np.random.default_rng(17), 300)
    got = g.sample(np.random.default_rng(17), count=300)
    assert np.array_equal(got, want)
    one = g.sample(np.random.default_rng(18))
    assert one.shape == g.means.shape[1:]
    assert np.array_equal(one, per_draw(np.random.default_rng(18), 1)[0])


def test_gmm_weights_validated():
    with pytest.raises(ValueError):
        GmmModel(weights=np.array([0.7, 0.7]),
                 means=np.zeros((2, 2)),
                 covariances=np.stack([np.eye(2)] * 2))


# -- adaptive KDE ---------------------------------------------------------


def test_kde_bandwidth_default_is_median_squared_distance():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    k = kde_build(pts)
    sq = [1.0, 4.0, 5.0]
    assert k.kernel_width == pytest.approx(np.median(sq))


def test_kde_adapts_to_local_direction():
    # thin cloud along a line (an exactly collinear one is rejected):
    # per-point covariances should flatten onto the line
    ts = np.linspace(-1, 1, 40)
    jitter = 1e-3 * (-1.0) ** np.arange(40)
    pts = np.stack([ts - 0.3 * jitter, 0.3 * ts + jitter], axis=1)
    k = kde_build(pts)
    mid = 20
    eigs = np.linalg.eigvalsh(k.bandwidths[mid])
    assert eigs[0] / eigs[-1] < 1e-3


def test_kde_bandwidth_is_squared_weighted_scatter_at_median_width():
    # each bandwidth is the square of the kernel-weighted average of outer
    # products of offsets from its point, plus the 1e-9 ridge
    rng = np.random.default_rng(10)
    pts = rng.normal(size=(30, 2))
    k = kde_build(pts)
    d2 = [[float(np.sum((a - b) ** 2)) for b in pts] for a in pts]
    h = float(np.median([d2[i][j] for i in range(30) for j in range(30)
                         if i != j]))
    assert k.kernel_width == h
    for i, H in enumerate(k.bandwidths):
        diffs = pts - pts[i]
        weights = np.exp(-np.array(d2[i]) / h)
        sigma = np.einsum("k,ka,kb->ab", weights, diffs, diffs) \
            / weights.sum()
        want = sigma @ sigma + 1e-9 * np.eye(2)
        rel = np.abs(H - want).max() / np.abs(want).max()
        assert rel < 1e-12


def test_kde_normalizes_to_one():
    pts = two_blobs(n_per=25, seed=11)
    k = kde_build(pts)
    integral = mc_normalization(k.logpdf, [(-4.0, 4.0), (-3.0, 3.0)])
    assert abs(integral - 1.0) < 0.02


def test_kde_normalizes_in_three_dims():
    rng = np.random.default_rng(12)
    pts = rng.normal(size=(40, 3)) * 0.4
    k = kde_build(pts)
    integral = mc_normalization(
        k.logpdf, [(-2.5, 2.5)] * 3, n=200000)
    assert abs(integral - 1.0) < 0.03


@pytest.mark.parametrize("n_components", [1, 2])
def test_gmm_on_identical_points_raises(n_components):
    with pytest.raises(DegenerateSupportError, match="identical"):
        gmm_fit(np.ones((6, 2)), n_components)


def test_kde_degenerate_inputs_raise():
    with pytest.raises(DegenerateSupportError):
        kde_build(np.zeros((1, 2)))
    with pytest.raises(DegenerateSupportError):
        kde_build(np.ones((8, 2)))


@pytest.mark.parametrize("points", [
    np.outer(np.linspace(-1.0, 2.0, 9), [0.3, -0.7]) + [0.1, 0.2],
    np.array([[0.0, 0.0], [1.0, 1.0]]),
    np.column_stack([np.cos(np.arange(8.0)), np.sin(np.arange(8.0)),
                     np.cos(np.arange(8.0)) - 2.0 * np.sin(np.arange(8.0))]),
], ids=["collinear", "two-points", "coplanar-3d"])
def test_kde_rank_deficient_support_raises(points):
    m = points.shape[1]
    with pytest.raises(DegenerateSupportError,
                       match=f"span {m - 1} of {m} dimensions"):
        kde_build(points)


def test_kde_sample_stays_near_support():
    pts = two_blobs(n_per=30, scale=0.2, seed=13)
    k = kde_build(pts)
    draws = k.sample(np.random.default_rng(14), count=500)
    d_min = np.linalg.norm(draws[:, None, :] - pts[None, :, :],
                           axis=2).min(axis=1)
    assert np.quantile(d_min, 0.95) < 1.0


def test_kde_logpdf_matches_per_support_loop():
    # enough queries to span several blocks of the stacked evaluation
    rng = np.random.default_rng(15)
    pts = rng.normal(size=(200, 3)) * 0.5
    k = kde_build(pts)
    queries = rng.normal(size=(1500, 3))
    parts = np.stack([_gauss_logpdf(queries, k.points[i],
                                    cholesky(k.bandwidths[i], lower=True))
                      for i in range(len(k.points))], axis=1)
    want = logsumexp(parts, axis=1) - np.log(len(k.points))
    got = k.logpdf(queries)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    assert isinstance(k.logpdf(queries[0]), float)
    assert k.logpdf(queries[0]) == pytest.approx(want[0], rel=1e-12)


def test_kde_sample_matches_per_draw_loop_bit_for_bit():
    pts = two_blobs(n_per=20, scale=0.3, seed=16)
    k = kde_build(pts)
    chols = [cholesky(h, lower=True) for h in k.bandwidths]

    def per_draw(rng, n):
        picks = rng.integers(0, len(k.points), size=n)
        return np.array([k.points[i] + chols[i] @ rng.standard_normal(
            k.points.shape[1]) for i in picks])

    want = per_draw(np.random.default_rng(17), 300)
    got = k.sample(np.random.default_rng(17), count=300)
    assert np.array_equal(got, want)
    one = k.sample(np.random.default_rng(18))
    assert one.shape == (2,)
    assert np.array_equal(one, per_draw(np.random.default_rng(18), 1)[0])


# -- thresholds and rejection --------------------------------------------


def test_min_loglik_threshold_is_training_minimum():
    pts = two_blobs(seed=15)
    g = gmm_fit(pts, 2, seed=0)
    thr = min_loglik_threshold(g, pts)
    assert thr == pytest.approx(float(g.logpdf(pts).min()))


def test_rejection_postcondition():
    pts = two_blobs(seed=16)
    g = gmm_fit(pts, 2, seed=0)
    thr = min_loglik_threshold(g, pts)
    res = rejection_sample(g, SampleFilter(threshold=thr),
                           np.random.default_rng(17), 200)
    assert res.samples.shape == (200, 2)
    assert np.all(g.logpdf(res.samples) >= thr)
    assert res.accepted >= 200                 # batch draws may overshoot
    assert 0 < res.acceptance_rate <= 1
    assert res.attempts >= res.accepted


def test_rejection_threshold_minus_inf_accepts_everything():
    pts = two_blobs(seed=18)
    g = gmm_fit(pts, 2, seed=0)
    res = rejection_sample(g, SampleFilter(threshold=-np.inf),
                           np.random.default_rng(19), 64)
    assert res.acceptance_rate == 1.0
    assert len(res.samples) == 64


def test_rejection_starves_above_max_density():
    pts = two_blobs(seed=20)
    g = gmm_fit(pts, 2, seed=0)
    filt = SampleFilter(threshold=1e9, max_attempts=500)
    with pytest.raises(SamplingStarvedError) as err:
        rejection_sample(g, filt, np.random.default_rng(21), 10)
    assert err.value.attempts == 500
    assert err.value.accepted == 0


@pytest.mark.parametrize("count", [0, -1])
def test_rejection_needs_a_positive_count(count):
    g = gmm_fit(two_blobs(seed=16), 2, seed=0)
    with pytest.raises(ValueError, match=f"count must be at least 1, got "
                                         f"{count}"):
        rejection_sample(g, SampleFilter(threshold=-np.inf),
                         np.random.default_rng(17), count)


# -- serialization --------------------------------------------------------


def test_density_io_round_trips(tmp_path):
    # density.json names the family and holds every constructor field
    pts = two_blobs(n_per=20, seed=22)
    g = gmm_fit(pts, 2, seed=0)
    k = kde_build(pts)
    for family, cls, density in (("gmm", GmmModel, g), ("kde", KdeModel, k)):
        path = tmp_path / f"{family}.json"
        save_density(path, density)
        data = json.loads(path.read_text())
        assert data.pop("family") == family
        clone = cls(**data)
        assert np.array_equal(clone.logpdf(pts), density.logpdf(pts))
    assert json.loads((tmp_path / "gmm.json").read_text())[
        "log_likelihood_history"] == g.log_likelihood_history


@pytest.mark.parametrize("family", ["flow", ["gmm"], None])
def test_unknown_density_family_is_named(family):
    named = re.escape(f"unknown density family {family!r}")
    with pytest.raises(ValueError, match=named):
        fit_density(two_blobs(seed=23), family, 2, 0)
