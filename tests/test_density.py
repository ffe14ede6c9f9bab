import json

import numpy as np
import pytest
from scipy.linalg import cholesky
from scipy.special import logsumexp

from motionmanifold.density import (GmmModel, KdeModel, SampleFilter,
                                    _gauss_logpdf, gmm_fit, gmm_logpdf, gmm_sample,
                                    kde_build, kde_logpdf, kde_sample,
                                    load_density, min_loglik_threshold,
                                    rejection_sample, save_density)
from motionmanifold.errors import DegenerateSupportError, SamplingStarvedError


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
    comp = g.component_logpdfs(pts) + np.log(g.weights)
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


def test_gmm_weights_validated():
    with pytest.raises(ValueError):
        GmmModel(weights=np.array([0.7, 0.7]),
                 means=np.zeros((2, 2)),
                 covariances=np.stack([np.eye(2)] * 2))


def test_gmm_functional_wrappers():
    pts = two_blobs(seed=8)
    g = gmm_fit(pts, 2, seed=0)
    assert np.allclose(gmm_logpdf(g, pts), g.logpdf(pts))
    a = gmm_sample(g, np.random.default_rng(9), count=4)
    b = g.sample(np.random.default_rng(9), count=4)
    assert np.allclose(a, b)


# -- adaptive KDE ---------------------------------------------------------


def test_kde_bandwidth_default_is_median_squared_distance():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    k = kde_build(pts)
    sq = [1.0, 4.0, 5.0]
    assert k.kernel_width == pytest.approx(np.median(sq))


def test_kde_adapts_to_local_direction():
    # collinear cloud: per-point covariances should flatten onto the line
    ts = np.linspace(-1, 1, 40)
    pts = np.stack([ts, 0.3 * ts], axis=1)
    k = kde_build(pts)
    mid = 20
    eigs = np.linalg.eigvalsh(k.bandwidths[mid])
    assert eigs[0] / eigs[-1] < 1e-3


def test_kde_wide_kernel_limit_matches_unweighted_scatter():
    # every kernel weight -> 1, so each local scatter becomes the plain
    # average of outer products of offsets from that point
    rng = np.random.default_rng(10)
    pts = rng.normal(size=(30, 2))
    k = kde_build(pts, kernel_width=1e8)
    for i, H in enumerate(k.bandwidths):
        diffs = pts - pts[i]
        sigma = np.einsum("ka,kb->ab", diffs, diffs) / len(pts)
        want = sigma @ sigma + 1e-9 * np.eye(2)
        rel = np.abs(H - want).max() / np.abs(want).max()
        assert rel < 1e-4


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


def test_kde_degenerate_inputs_raise():
    with pytest.raises(DegenerateSupportError):
        kde_build(np.zeros((1, 2)))
    with pytest.raises(DegenerateSupportError):
        kde_build(np.ones((8, 2)))


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
        return np.array([k.points[i] + chols[i] @ rng.standard_normal(k.dim)
                         for i in picks])

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


# -- serialization --------------------------------------------------------


def test_density_io_round_trips(tmp_path):
    pts = two_blobs(n_per=20, seed=22)
    g = gmm_fit(pts, 2, seed=0)
    k = kde_build(pts)
    for name, density in (("g.json", g), ("k.json", k)):
        path = tmp_path / name
        save_density(path, density)
        clone = load_density(path)
        assert type(clone) is type(density)
        assert np.allclose(clone.logpdf(pts), density.logpdf(pts))
    data = json.loads((tmp_path / "g.json").read_text())
    assert data["family"] == "gmm"
