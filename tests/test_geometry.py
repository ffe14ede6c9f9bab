import numpy as np
import pytest

from motionmanifold import nets
from motionmanifold.basis import BasisSet
from motionmanifold.errors import DistortionUndefinedError
from motionmanifold.geometry import CurveGeomMetric


def test_euclidean_metric_quadratic_matches_curve_integral():
    # <u, u>_W should equal the integral of |dq(tau)|^2 along the curve
    basis = BasisSet.uniform(6)
    metric = CurveGeomMetric(basis.gram())
    rng = np.random.default_rng(0)
    u = rng.normal(size=(2, 6))
    taus = np.linspace(0, 1, 20001)
    curve = basis.evaluate(taus) @ u.T                  # (T, 2)
    integral = np.trapezoid(np.sum(curve ** 2, axis=1), taus)
    assert np.sum(u * metric.apply(u)) == pytest.approx(integral, rel=1e-6)


def test_euclidean_gram_matches_refined_quadrature():
    basis = BasisSet.uniform(7)
    coarse = CurveGeomMetric(basis.gram()).gram
    fine = basis.gram(grid_points=2001)
    assert np.abs(coarse - fine).max() < 1e-7


def test_metric_matrix_is_block_kron():
    basis = BasisSet.uniform(4)
    metric = CurveGeomMetric(basis.gram())
    flat = np.random.default_rng(0).normal(size=(5, 12))
    mat = np.kron(np.eye(3), basis.gram())
    assert np.allclose(metric.apply(flat), flat @ mat)
    assert np.allclose(metric.apply(flat.reshape(5, 3, 4)),
                       (flat @ mat).reshape(5, 3, 4))


def test_metric_apply_scaled():
    basis = BasisSet.uniform(4)
    metric = CurveGeomMetric(basis.gram())
    u = np.random.default_rng(3).normal(size=(2, 4))
    ku = metric.apply(u)
    doubled = CurveGeomMetric(2.0 * metric.gram).apply(u)
    assert np.allclose(doubled, 2.0 * ku)


def test_pullback_matches_finite_difference_jacobian():
    # every q[p] of one distortion_terms call is J(z_p)^T K J(z_p) for the
    # Jacobian J(z_p) that central differences of the decoder give
    basis = BasisSet.uniform(5)
    metric = CurveGeomMetric(basis.gram())
    dec = nets.Mlp.create([2, 16, 10], seed=4)
    z = np.random.default_rng(5).normal(size=(4, 2))
    q = nets.distortion_terms(dec, z, metric)[3]
    assert q.shape == (4, 2, 2)

    eps = 1e-5
    K = np.kron(np.eye(2), metric.gram)
    for zp, qp in zip(z, q):
        jac = np.zeros((10, 2))
        for i in range(2):
            up = zp.copy(); up[i] += eps
            dn = zp.copy(); dn[i] -= eps
            jac[:, i] = (dec.forward(up) - dec.forward(dn)) / (2 * eps)
        ref = jac.T @ K @ jac
        assert np.linalg.norm(qp - ref) / np.linalg.norm(ref) < 1e-4


def test_relaxed_distortion_floor_attained_by_scaled_isometry():
    # a linear decoder with K-orthonormal columns has H = c I everywhere,
    # which attains the theoretical floor 1/m exactly
    basis = BasisSet.uniform(4)
    metric = CurveGeomMetric(basis.gram())
    K = metric.gram                              # one coordinate
    evals, evecs = np.linalg.eigh(K)
    cols = evecs[:, -2:] / np.sqrt(evals[-2:])   # J^T K J = I
    dec = nets.Mlp.create([2, 4], seed=0)
    dec.weights[0][:] = 3.0 * cols               # uniform scale keeps H = cI
    dec.biases[0][:] = 0.0
    z = np.random.default_rng(6).normal(size=(12, 2))
    val, _ = nets.grad_of_distortion(dec, z, metric)
    assert val == pytest.approx(0.5, abs=1e-9)


def test_relaxed_distortion_scale_invariance():
    basis = BasisSet.uniform(5)
    metric = CurveGeomMetric(basis.gram())
    dec = nets.Mlp.create([2, 12, 10], seed=7)
    z = np.random.default_rng(8).normal(size=(9, 2))
    scaled_metric = CurveGeomMetric(7.3 * metric.gram)
    base, g_a = nets.grad_of_distortion(dec, z, metric)
    scaled, g_b = nets.grad_of_distortion(dec, z, scaled_metric)
    assert scaled == pytest.approx(base, rel=1e-10)
    for wa, wb in zip(dec.layer_views(g_a)[0], dec.layer_views(g_b)[0]):
        assert np.abs(wa - wb).max() < 1e-8 * max(1.0, np.abs(wa).max())


def test_constant_decoder_distortion_undefined():
    basis = BasisSet.uniform(4)
    metric = CurveGeomMetric(basis.gram())
    dec = nets.Mlp.create([2, 4], seed=0)
    dec.weights[0][:] = 0.0                      # jacobian vanishes
    z = np.random.default_rng(12).normal(size=(5, 2))
    with pytest.raises(DistortionUndefinedError):
        nets.grad_of_distortion(dec, z, metric)
