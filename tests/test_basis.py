import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from motionmanifold.basis import (BasisSet, CurveModel, TimedTrajectory,
                                  evaluate_batch, evaluate_rows,
                                  load_trajectory_dataset,
                                  save_trajectory_dataset)
from motionmanifold.errors import SingularFitError


def random_fixture(rng, n_bases=None, n_dim=None, n_samples=None):
    n_bases = n_bases or rng.integers(5, 15)
    n_dim = n_dim or rng.integers(1, 4)
    n_samples = n_samples or rng.integers(n_bases + 5, 80)
    basis = BasisSet.uniform(int(n_bases))
    q0 = rng.normal(size=n_dim)
    q1 = rng.normal(size=n_dim)
    model = CurveModel(basis, q0, q1)
    t0 = rng.uniform(-3, 3)
    duration = rng.uniform(0.5, 4.0)
    times = t0 + np.sort(rng.uniform(0, duration, size=n_samples))
    times[0], times[-1] = t0, t0 + duration
    points = rng.normal(size=(n_samples, n_dim))
    return model, TimedTrajectory(times=times, points=points)


# -- basis function properties -------------------------------------------


def test_via_point_bases_normalised_inside_range():
    # without the tau*(1-tau) factor the bases are a partition of unity
    basis = BasisSet.uniform(10)
    taus = np.linspace(0, 1, 101)[1:-1]
    sums = basis.evaluate(taus).sum(axis=1) / (taus * (1.0 - taus))
    assert np.abs(sums - 1.0).max() < 1e-12


def test_via_point_mode_vanishes_at_endpoints():
    basis = BasisSet.uniform(7)
    ends = basis.evaluate(np.array([0.0, 1.0]))
    assert np.abs(ends).max() < 1e-15


def test_default_width_is_squared_spacing():
    basis = BasisSet.uniform(11)
    assert basis.width == pytest.approx(0.1 ** 2)


@pytest.mark.parametrize("width", [0.0, -0.1, np.nan, np.inf])
def test_width_that_is_not_finite_and_positive_is_rejected(width):
    # a NaN width gives all-NaN bases, an infinite one flat bases
    with pytest.raises(ValueError, match="width must be finite and positive"):
        BasisSet.uniform(6, width=width)


def test_uniform_centers_include_endpoints():
    basis = BasisSet.uniform(6)
    assert basis.centers[0] == 0.0
    assert basis.centers[-1] == 1.0
    assert np.allclose(np.diff(basis.centers), 0.2)


def test_basis_derivative_matches_finite_differences():
    basis = BasisSet.uniform(9)
    taus = np.linspace(0.05, 0.95, 19)
    eps = 1e-6
    fd = (basis.evaluate(taus + eps) - basis.evaluate(taus - eps)) / (2 * eps)
    assert np.abs(basis._derivative(taus) - fd).max() < 1e-6


def test_gram_matches_refined_quadrature():
    basis = BasisSet.uniform(8)
    coarse = basis.gram()
    fine = basis.gram(grid_points=2001)
    assert np.abs(coarse - fine).max() < 1e-7


def test_basis_serialization_round_trip():
    basis = BasisSet.uniform(5, width=0.07)
    clone = BasisSet.from_dict(json.loads(json.dumps(basis.to_dict())))
    assert clone == basis
    taus = np.linspace(0, 1, 17)
    assert np.array_equal(clone.evaluate(taus), basis.evaluate(taus))


# -- curve model evaluation ----------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_via_point_endpoints_exact(seed):
    rng = np.random.default_rng(seed)
    n_dim = int(rng.integers(1, 5))
    basis = BasisSet.uniform(int(rng.integers(4, 12)))
    q0, q1 = rng.normal(size=(2, n_dim)) * 10
    model = CurveModel(basis, q0, q1)
    w = rng.normal(size=(n_dim, basis.size)) * 5
    ends = model.evaluate(w, np.array([0.0, 1.0]))
    scale = max(1.0, np.abs(w).max(),
                np.abs(q0).max(), np.abs(q1).max())
    assert np.linalg.norm(ends[0] - q0) <= 1e-12 * scale
    assert np.linalg.norm(ends[1] - q1) <= 1e-12 * scale


def test_scalar_and_array_tau_agree():
    rng = np.random.default_rng(3)
    basis = BasisSet.uniform(6)
    model = CurveModel(basis, np.zeros(2), np.ones(2))
    w = rng.normal(size=(2, 6))
    taus = np.linspace(0, 1, 9)
    arr = model.evaluate(w, taus)
    for k, tau in enumerate(taus):
        assert np.allclose(model.evaluate(w, float(tau)), arr[k])


@pytest.mark.parametrize("tau, message", [
    ([0.2, np.nan], "finite"), (np.nan, "finite"), ([], "empty"),
    (np.array([]), "empty"), ([0.5, 1.01], r"\[0, 1\]"),
    (-0.1, r"\[0, 1\]")])
def test_bad_tau_is_rejected(tau, message):
    basis = BasisSet.uniform(6)
    model = CurveModel(basis, np.zeros(2), np.ones(2))
    stack = np.zeros((1, 2, 6))
    # the public entry points check tau once and then share unchecked
    # helpers, so each must still raise its own named error
    for call in (basis.evaluate, basis._derivative, model.elementary,
                 lambda t: model.evaluate(stack[0], t),
                 lambda t: evaluate_batch(model, stack, t),
                 lambda t: evaluate_rows(model, stack, t)):
        with pytest.raises(ValueError, match=message):
            call(tau)


def test_evaluate_batch_matches_loop():
    rng = np.random.default_rng(5)
    basis = BasisSet.uniform(6)
    model = CurveModel(basis, np.zeros(2), np.ones(2))
    stack = rng.normal(size=(4, 2, 6))
    taus = np.linspace(0, 1, 11)
    batch = evaluate_batch(model, stack, taus)
    assert batch.shape == (4, 11, 2)
    for i in range(4):
        single = model.evaluate(stack[i], taus)
        assert np.array_equal(batch[i], single)
        # the single-curve formula, written out
        assert np.array_equal(batch[i], model.elementary(taus)
                              + basis.evaluate(taus) @ stack[i].T)


@pytest.mark.parametrize("dim, n_bases", [(2, 6), (2, 20), (3, 6), (3, 20)])
def test_evaluate_batch_is_the_single_curve_product_at_every_size(
        dim, n_bases, one_curve_rounding):
    # one gemm at every size: its blocking, and so its last bits, vary with
    # N and T, but every curve stays within the rounding bound of its
    # one-curve product
    rng = np.random.default_rng(dim * n_bases)
    model = CurveModel(BasisSet.uniform(n_bases), rng.normal(size=dim),
                       rng.normal(size=dim))
    for n_taus in (1, 2, 100, 500):
        taus = rng.uniform(size=n_taus)
        for n_curves in (1, 2, 50, 96, 97, 102, 200, 500):
            stack = rng.normal(size=(n_curves, dim, n_bases))
            batch = evaluate_batch(model, stack, taus)
            assert batch.shape == (n_curves, n_taus, dim)
            assert one_curve_rounding(model, taus, stack, batch) <= 1.0, \
                (n_taus, n_curves)


@pytest.mark.parametrize("coretype", [None, "Haswell", "Prescott"])
def test_evaluate_batch_bound_holds_on_every_blas_kernel(
        coretype, run_pytest_on_blas):
    # Prescott selects Katmai
    sweep = (f"{__file__}::"
             f"test_evaluate_batch_is_the_single_curve_product_at_every_size")
    result = run_pytest_on_blas(coretype, sweep)
    assert result.returncode == 0, result.stdout + result.stderr


def test_evaluate_rows_is_the_all_pairs_diagonal():
    rng = np.random.default_rng(8)
    basis = BasisSet.uniform(9)
    model = CurveModel(basis, rng.normal(size=3),
                       rng.normal(size=3))
    stack = rng.normal(size=(12, 3, 9))
    taus = rng.uniform(size=12)
    rows = evaluate_rows(model, stack, taus)
    assert rows.shape == (12, 3)
    diag = evaluate_batch(model, stack, taus)[np.arange(12), np.arange(12)]
    assert np.allclose(rows, diag, rtol=1e-12, atol=0.0)
    assert np.array_equal(rows, model.elementary(taus) + np.einsum(
        "kcb,kb->kc", stack, basis.evaluate(taus)))


def test_evaluate_batch_of_no_curves_is_empty():
    model = CurveModel(BasisSet.uniform(6), np.zeros(2),
                       np.ones(2))
    out = evaluate_batch(model, np.zeros((0, 2, 6)), np.linspace(0, 1, 7))
    assert out.shape == (0, 7, 2)


@pytest.mark.parametrize("shape", [(2, 6), (3, 2, 5), (3, 1, 6),
                                   (1, 3, 2, 6)])
def test_wrong_coefficient_stack_is_rejected(shape):
    model = CurveModel(BasisSet.uniform(6), np.zeros(2),
                       np.ones(2))
    taus = np.linspace(0, 1, 3)
    for call in (model.stack, model.flatten,
                 lambda s: evaluate_batch(model, s, taus),
                 lambda s: evaluate_rows(model, s, taus)):
        with pytest.raises(ValueError, match=r"has shape .*; the curve "
                                             r"model expects \(N, 2, 6\)"):
            call(np.zeros(shape))


def test_evaluate_rows_needs_one_phase_per_curve():
    model = CurveModel(BasisSet.uniform(6), np.zeros(2),
                       np.ones(2))
    with pytest.raises(ValueError, match="one phase per curve"):
        evaluate_rows(model, np.zeros((3, 2, 6)), np.linspace(0, 1, 4))


# -- fitting --------------------------------------------------------------


def test_fit_recovers_known_coefficients():
    rng = np.random.default_rng(6)
    basis = BasisSet.uniform(8)
    model = CurveModel(basis, rng.normal(size=2),
                       rng.normal(size=2))
    true = rng.normal(size=(2, 8))
    taus = np.linspace(0, 1, 60)
    traj = TimedTrajectory(times=taus, points=model.evaluate(true, taus))
    fitted = model.fit(traj)
    assert np.abs(fitted - true).max() < 1e-8


def test_fit_objective_matches_lstsq_oracle():
    # independent least squares on the same design matrix
    rng = np.random.default_rng(7)
    for _ in range(50):
        model, traj = random_fixture(rng)
        fitted = model.fit(traj)
        obj = model.fit_objective(fitted, traj)
        t = traj.times - traj.times[0]
        tau = t / t[-1]
        phi = model.basis.evaluate(tau)
        delta = traj.points - model.elementary(tau)
        coef, *_ = np.linalg.lstsq(phi, delta, rcond=None)
        resid = delta - phi @ coef
        oracle = float(np.sum(resid ** 2))
        assert abs(obj - oracle) <= 1e-6 * max(oracle, 1e-12)


def test_fit_objective_matches_iterative_minimizer():
    rng = np.random.default_rng(8)
    model, traj = random_fixture(rng, n_bases=6, n_dim=2, n_samples=30)
    fitted = model.fit(traj)
    obj = model.fit_objective(fitted, traj)
    shape = fitted.shape

    def f(flat):
        return model.fit_objective(flat.reshape(shape), traj)

    res = minimize(f, np.zeros(np.prod(shape)), method="L-BFGS-B",
                   options={"maxiter": 2000, "ftol": 1e-15, "gtol": 1e-12})
    assert obj <= res.fun + 1e-6 * max(res.fun, 1e-12)
    assert abs(obj - res.fun) <= 1e-6 * max(res.fun, 1e-12)


def test_fit_needs_more_samples_than_bases():
    basis = BasisSet.uniform(10)
    model = CurveModel(basis, np.zeros(1), np.ones(1))
    times = np.linspace(0, 1, 10)
    traj = TimedTrajectory(times=times, points=np.zeros((10, 1)))
    with pytest.raises(ValueError, match="more samples"):
        model.fit(traj)


def test_indistinguishable_bases_raise_singular_fit():
    # huge width makes every basis column nearly identical
    basis = BasisSet.uniform(12, width=1e4)
    model = CurveModel(basis, np.zeros(1), np.ones(1))
    times = np.linspace(0, 1, 30)
    traj = TimedTrajectory(times=times, points=np.zeros((30, 1)))
    with pytest.raises(SingularFitError, match="singular"):
        model.fit(traj)


def test_fit_and_objective_reject_wrong_dimension():
    basis = BasisSet.uniform(5)
    model = CurveModel(basis, np.zeros(2), np.ones(2))
    traj = TimedTrajectory(times=np.linspace(0, 1, 20), points=np.zeros(20))
    with pytest.raises(ValueError, match="trajectory dim 1 != curve dim 2"):
        model.fit(traj)
    with pytest.raises(ValueError, match="trajectory dim 1 != curve dim 2"):
        model.fit_objective(np.zeros((2, 5)), traj)


def test_fit_invariant_to_time_shift_and_scale():
    rng = np.random.default_rng(9)
    basis = BasisSet.uniform(7)
    model = CurveModel(basis, np.zeros(2), np.ones(2))
    taus = np.linspace(0, 1, 40)
    pts = rng.normal(size=(40, 2))
    a = model.fit(TimedTrajectory(times=taus, points=pts))
    b = model.fit(TimedTrajectory(times=5.0 + 3.0 * taus, points=pts))
    assert np.allclose(a, b)


# -- serialization --------------------------------------------------------


def test_curve_model_round_trip(tmp_path):
    basis = BasisSet.uniform(5)
    model = CurveModel(basis, np.array([0.1, -0.2]),
                       np.array([0.9, 0.3]))
    clone = CurveModel.from_dict(model.to_dict())
    w = np.random.default_rng(0).normal(size=(2, 5))
    taus = np.linspace(0, 1, 13)
    assert np.array_equal(clone.evaluate(w, taus), model.evaluate(w, taus))


def test_loaders_reject_non_via_point():
    data = CurveModel(BasisSet.uniform(5), np.zeros(2),
                      np.ones(2)).to_dict()
    data["kind"] = "affine"
    with pytest.raises(ValueError, match="field 'kind'.*'affine'"):
        CurveModel.from_dict(data)
    data["basis"]["mode"] = "free"
    with pytest.raises(ValueError, match="field 'mode'.*'free'"):
        BasisSet.from_dict(data["basis"])


def test_trajectory_dataset_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    trajs = [TimedTrajectory(times=np.linspace(0, 1, 20),
                             points=rng.normal(size=(20, 2)))
             for _ in range(3)]
    path = tmp_path / "demos.json"
    save_trajectory_dataset(trajs, path)
    loaded = load_trajectory_dataset(path)
    assert len(loaded) == 3
    for a, b in zip(loaded, trajs):
        assert np.allclose(a.times, b.times)
        assert np.allclose(a.points, b.points)
