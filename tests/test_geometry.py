import numpy as np
import pytest

from motionmanifold import nets
from motionmanifold.basis import BasisSet, CurveModel, CurveParams
from motionmanifold.errors import DistortionUndefinedError, MetricError
from motionmanifold.geometry import (ConfigMetric, CurveGeomMetric,
                                     curvegeom_euclidean, curvegeom_general,
                                     pullback_metric, relaxed_distortion)


def test_euclidean_metric_quadratic_matches_curve_integral():
    # <u, u>_W should equal the integral of |dq(tau)|^2 along the curve
    basis = BasisSet.uniform(6, mode="via-point")
    metric = curvegeom_euclidean(basis, dim=2)
    rng = np.random.default_rng(0)
    u = rng.normal(size=(2, 6))
    taus = np.linspace(0, 1, 20001)
    curve = basis.evaluate(taus) @ u.T                  # (T, 2)
    integral = np.trapezoid(np.sum(curve ** 2, axis=1), taus)
    assert metric.quadratic(u, u) == pytest.approx(integral, rel=1e-6)


def test_euclidean_gram_matches_refined_quadrature():
    basis = BasisSet.uniform(7, mode="via-point")
    coarse = curvegeom_euclidean(basis, dim=1).gram
    fine = basis.gram(grid_points=2001)
    assert np.abs(coarse - fine).max() < 1e-7


def test_metric_matrix_is_block_kron():
    basis = BasisSet.uniform(4, mode="via-point")
    metric = curvegeom_euclidean(basis, dim=3)
    mat = metric.matrix()
    assert mat.shape == (12, 12)
    assert np.allclose(mat, np.kron(np.eye(3), basis.gram()))


def test_general_tensor_reduces_to_euclidean_for_identity_config():
    basis = BasisSet.uniform(5, mode="via-point")
    model = CurveModel.via_point(basis, np.zeros(2), np.ones(2))
    params = CurveParams(np.random.default_rng(1).normal(size=(2, 5)))
    config = ConfigMetric.from_function(lambda q: np.eye(2))
    general = curvegeom_general(model, params, config)
    eucl = curvegeom_euclidean(basis, dim=2)
    assert np.allclose(general.matrix(), eucl.matrix(), atol=1e-12)


def test_general_tensor_matches_refined_quadrature():
    basis = BasisSet.uniform(5, mode="via-point")
    model = CurveModel.via_point(basis, np.zeros(2), np.ones(2))
    params = CurveParams(np.random.default_rng(2).normal(size=(2, 5)))

    def g(q):
        # smooth SPD field varying along the curve
        s = 1.0 + 0.5 * np.tanh(q[0])
        off = 0.3 * np.sin(q[1])
        return np.array([[s, off], [off, 2.0 - 0.5 * np.tanh(q[1])]])

    config = ConfigMetric.from_function(g)
    coarse = curvegeom_general(model, params, config, grid_points=201)
    fine = curvegeom_general(model, params, config, grid_points=2001)
    assert np.abs(coarse.matrix() - fine.matrix()).max() < 1e-7


def test_non_spd_config_metric_names_tau():
    basis = BasisSet.uniform(4, mode="via-point")
    model = CurveModel.via_point(basis, np.zeros(1), np.ones(1))
    params = CurveParams(np.zeros((1, 4)))
    config = ConfigMetric.from_function(
        lambda q: np.array([[q[0] - 0.5]]))    # negative for tau < 0.5
    with pytest.raises(MetricError, match="tau"):
        curvegeom_general(model, params, config)


def test_config_metric_symmetry_check():
    bad = ConfigMetric.from_function(lambda q: np.array([[1.0, 0.2],
                                                         [0.0, 1.0]]))
    with pytest.raises(MetricError, match="symmetric"):
        bad(np.zeros(2))


def test_metric_apply_scaled_and_use_count():
    basis = BasisSet.uniform(4, mode="via-point")
    metric = curvegeom_euclidean(basis, dim=2)
    u = np.random.default_rng(3).normal(size=(2, 4))
    before = metric.use_count
    ku = metric.apply(u)
    doubled = metric.scaled(2.0).apply(u)
    assert np.allclose(doubled, 2.0 * ku)
    assert metric.use_count == before + 1


def test_pullback_matches_finite_difference_jacobian():
    basis = BasisSet.uniform(5, mode="via-point")
    metric = curvegeom_euclidean(basis, dim=2)
    dec = nets.Mlp.create([2, 16, 10], seed=4)
    z = np.random.default_rng(5).normal(size=2)
    H = pullback_metric(dec, z, metric)
    assert H.matrix.shape == (2, 2)

    eps = 1e-5
    jac = np.zeros((10, 2))
    for i in range(2):
        up = z.copy(); up[i] += eps
        dn = z.copy(); dn[i] -= eps
        jac[:, i] = (dec.forward(up) - dec.forward(dn)) / (2 * eps)
    K = metric.matrix()
    ref = jac.T @ K @ jac
    rel = np.linalg.norm(H.matrix - ref) / np.linalg.norm(ref)
    assert rel < 1e-4


def test_pullback_metric_summaries():
    from motionmanifold.geometry import PullbackMetric
    H = PullbackMetric(matrix=np.diag([4.0, 1.0]), latent=np.zeros(2))
    assert H.condition_number() == pytest.approx(4.0)
    assert H.trace() == pytest.approx(5.0)
    assert np.allclose(H.eigenvalues(), [1.0, 4.0])


def test_relaxed_distortion_floor_attained_by_scaled_isometry():
    # a linear decoder with K-orthonormal columns has H = c I everywhere,
    # which attains the theoretical floor 1/m exactly
    basis = BasisSet.uniform(4, mode="via-point")
    metric = curvegeom_euclidean(basis, dim=1)
    K = metric.matrix()
    evals, evecs = np.linalg.eigh(K)
    cols = evecs[:, -2:] / np.sqrt(evals[-2:])   # J^T K J = I
    dec = nets.Mlp.create([2, 4], seed=0)
    dec.weights[0][:] = 3.0 * cols               # uniform scale keeps H = cI
    dec.biases[0][:] = 0.0
    z = np.random.default_rng(6).normal(size=(12, 2))
    val = relaxed_distortion(dec, z, metric)
    assert val == pytest.approx(0.5, abs=1e-9)


def test_relaxed_distortion_scale_invariance():
    basis = BasisSet.uniform(5, mode="via-point")
    metric = curvegeom_euclidean(basis, dim=2)
    dec = nets.Mlp.create([2, 12, 10], seed=7)
    z = np.random.default_rng(8).normal(size=(9, 2))
    base = relaxed_distortion(dec, z, metric)
    scaled = relaxed_distortion(dec, z, metric.scaled(7.3))
    assert scaled == pytest.approx(base, rel=1e-10)
    _, g_a = nets.grad_of_distortion(dec, z, metric)
    _, g_b = nets.grad_of_distortion(dec, z, metric.scaled(7.3))
    for wa, wb in zip(dec.layer_views(g_a)[0], dec.layer_views(g_b)[0]):
        assert np.abs(wa - wb).max() < 1e-8 * max(1.0, np.abs(wa).max())


def test_constant_decoder_distortion_undefined():
    basis = BasisSet.uniform(4, mode="via-point")
    metric = curvegeom_euclidean(basis, dim=1)
    dec = nets.Mlp.create([2, 4], seed=0)
    dec.weights[0][:] = 0.0                      # jacobian vanishes
    z = np.random.default_rng(12).normal(size=(5, 2))
    with pytest.raises(DistortionUndefinedError):
        relaxed_distortion(dec, z, metric)


def test_curvegeom_requires_exactly_one_form():
    with pytest.raises(ValueError):
        CurveGeomMetric(gram=None, tensor=None)
    with pytest.raises(ValueError):
        CurveGeomMetric(gram=np.eye(3), tensor=np.zeros((2, 3, 2, 3)))
