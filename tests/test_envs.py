"""Planar environment synthesis, model bundles, and success evaluation."""

import csv
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from motionmanifold import envs
from motionmanifold.density import fit_density, gmm_fit
from motionmanifold.envs import (PlanarEnv, ModelBundle,
                                 build_bundle, collision_check,
                                 default_components, evaluate_success,
                                 fit_demos, generate_continuum_demos,
                                 generate_env, sample_curves, success_rate)
from motionmanifold.errors import GenerationError, NonFiniteError
from motionmanifold.replan import MovingDisk
from motionmanifold.training import TrainConfig

SMALL_TRAIN = TrainConfig(latent_dim=2, epochs=150, hidden=(32, 32), seed=0)

_EXPECTED = {
    "env1": dict(n_obstacles=1, radius=0.15, n_demos=10, classes=2),
    "env2": dict(n_obstacles=2, radius=0.12, n_demos=15, classes=3),
    "env3": dict(n_obstacles=3, radius=0.09, n_demos=20, classes=4),
}


@pytest.fixture(scope="module")
def env1_demos():
    return generate_env("env1", seed=0)


@pytest.fixture(scope="module")
def latent_bundle(env1_demos):
    env, demos = env1_demos
    return build_bundle("mmp++", env, demos, seed=0,
                        train_config=SMALL_TRAIN)


# -- layouts and demonstrations -------------------------------------------


@pytest.mark.parametrize("env_id", sorted(_EXPECTED))
def test_layout_matches_benchmark_table(env_id):
    env, demos = generate_env(env_id, seed=0)
    want = _EXPECTED[env_id]
    assert len(env.obstacles) == want["n_obstacles"]
    for obs in env.obstacles:
        assert obs.radius == pytest.approx(want["radius"])
    assert len(demos) == want["n_demos"]
    assert np.allclose(env.q_start, [0.0, 0.0])
    assert np.allclose(env.q_goal, [1.0, 0.0])


@pytest.mark.parametrize("env_id", sorted(_EXPECTED))
def test_demos_are_collision_free_with_margin(env_id):
    env, demos = generate_env(env_id, seed=0)
    xs = np.linspace(0.0, 1.0, 500)
    for traj in demos:
        pts = np.column_stack([
            np.interp(xs, traj.times / traj.times[-1], traj.points[:, 0]),
            np.interp(xs, traj.times / traj.times[-1], traj.points[:, 1])])
        worst = max(collision_check(q, env) for q in pts)
        assert worst < -0.02


def test_demos_cover_distinct_passage_classes():
    for env_id, want in _EXPECTED.items():
        _, demos = generate_env(env_id, seed=0)
        mid_heights = []
        for traj in demos:
            k = np.argmin(np.abs(traj.points[:, 0] - 0.5))
            mid_heights.append(traj.points[k, 1])
        mid_heights = np.array(mid_heights).reshape(want["classes"], -1)
        class_means = mid_heights.mean(axis=1)
        # class templates stay separated and ordered top to bottom
        assert np.all(np.diff(class_means) < -0.05)
        assert np.abs(mid_heights - class_means[:, None]).max() < 0.1


def test_demos_share_endpoints():
    env, demos = generate_env("env2", seed=3)
    for traj in demos:
        assert np.allclose(traj.points[0], env.q_start, atol=1e-9)
        assert np.allclose(traj.points[-1], env.q_goal, atol=1e-9)


def test_generation_is_seed_deterministic():
    _, a = generate_env("env1", seed=7)
    _, b = generate_env("env1", seed=7)
    _, c = generate_env("env1", seed=8)
    assert all(np.array_equal(x.points, y.points) for x, y in zip(a, b))
    assert any(not np.array_equal(x.points, y.points) for x, y in zip(a, c))


def test_generation_error_when_no_clear_demo_exists(monkeypatch):
    blocked = dict(envs._ENV_TABLE["env1"])
    blocked["obstacles"] = [((0.5, 0.0), 0.45)]    # walls off the corridor
    monkeypatch.setitem(envs._ENV_TABLE, "env1", blocked)
    with pytest.raises(GenerationError):
        generate_env("env1", seed=0)


def test_unknown_environment_is_rejected():
    for env_id in ("env9", "nope"):
        with pytest.raises(ValueError, match="unknown environment"):
            generate_env(env_id)


def test_continuum_demos_sweep_one_family():
    env, demos = generate_continuum_demos(count=15, seed=2)
    assert len(env.obstacles) == 0
    assert len(demos) == 15
    mids = []
    for traj in demos:
        k = np.argmin(np.abs(traj.points[:, 0] - 0.5))
        mids.append(traj.points[k, 1])
    mids = np.array(mids)
    # peak parameter sweeps low to high across the family
    assert mids[0] < -0.3 and mids[-1] > 0.3
    assert np.all(np.diff(mids) > 0)


def _scipy_spline(ys, x):
    return CubicSpline(envs._WAYPOINT_X, ys, bc_type="natural")(x)


def _demo_waypoints(peak, noise):
    ys = peak * envs._WAYPOINT_SHAPE.copy()      # as _spline_demo builds them
    ys[1:-1] += noise
    return ys


_waypoints = st.one_of(
    st.builds(_demo_waypoints, st.floats(-1.0, 1.0),
              st.lists(st.floats(-0.1, 0.1), min_size=3, max_size=3)),
    st.lists(st.floats(-1e3, 1e3), min_size=5, max_size=5).map(np.array))


@settings(max_examples=400, deadline=None)
@given(_waypoints)
@example(np.zeros(5))
@example(_demo_waypoints(-0.5, [0.08, 0.02, 0.05]))   # scipy gives +0.0 at 0
def test_natural_spline_is_scipys_bit_for_bit(ys):
    x = np.linspace(0.0, 1.0, 80)        # the demo phases
    assert envs._natural_spline(ys, x).tobytes() == \
        _scipy_spline(ys, x).tobytes()


@pytest.mark.parametrize("env_id", [*sorted(_EXPECTED), "continuum"])
def test_demos_match_a_scipy_spline_generator(env_id, monkeypatch):
    def demos(seed):
        if env_id == "continuum":
            return generate_continuum_demos(seed=seed)[1]
        return generate_env(env_id, seed=seed)[1]

    ours = [demos(seed) for seed in range(5)]
    monkeypatch.setattr(envs, "_natural_spline", _scipy_spline)
    for seed, got in enumerate(ours):
        want = demos(seed)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.times.tobytes() == b.times.tobytes()
            assert a.points.tobytes() == b.points.tobytes()


# -- collision geometry ----------------------------------------------------


def _static_disk(center, radius):
    return MovingDisk(times=[0.0], centers=[center], radius=radius)


def test_collision_check_is_penetration_depth():
    env = PlanarEnv(obstacles=[_static_disk([0.5, 0.0], 0.2)],
                    q_start=[0.0, 0.0], q_goal=[1.0, 0.0],
                    bounds=[[-0.2, 1.2], [-0.8, 0.8]])
    assert collision_check([0.5, 0.0], env) == pytest.approx(0.2)
    assert collision_check([0.5, 0.1], env) == pytest.approx(0.1)
    assert collision_check([0.5, 0.2], env) == pytest.approx(0.0, abs=1e-12)
    assert collision_check([0.5, 0.5], env) == pytest.approx(-0.3)
    # batched over leading axes: one depth per point
    pts = np.array([[[0.5, 0.0], [0.5, 0.1]], [[0.5, 0.2], [0.5, 0.5]]])
    depths = collision_check(pts, env)
    assert depths.shape == (2, 2)
    singles = [collision_check(q, env) for q in pts.reshape(-1, 2)]
    assert np.array_equal(depths.ravel(), singles)


def test_collision_check_without_obstacles():
    env = PlanarEnv(obstacles=[], q_start=[0.0, 0.0], q_goal=[1.0, 0.0],
                    bounds=[[-0.2, 1.2], [-0.8, 0.8]])
    assert collision_check([0.5, 0.0], env) == -1.0


def test_endpoint_inside_obstacle_is_rejected():
    with pytest.raises(ValueError, match="endpoint"):
        PlanarEnv(obstacles=[_static_disk([0.0, 0.0], 0.1)],
                  q_start=[0.0, 0.0], q_goal=[1.0, 0.0],
                  bounds=[[-0.2, 1.2], [-0.8, 0.8]])


def test_env_io_round_trip(tmp_path):
    env, _ = generate_env("env2", seed=0)
    path = tmp_path / "env.json"
    env.save(path)
    back = PlanarEnv.load(path)
    assert len(back.obstacles) == len(env.obstacles)
    for a, b in zip(back.obstacles, env.obstacles):
        assert np.allclose(a.centers, b.centers)
        assert a.radius == b.radius
    assert np.allclose(back.bounds, env.bounds)
    # static obstacles keep their on-disk {"center", "radius"} form
    saved = json.loads(path.read_text())["obstacles"]
    assert saved[0] == {"center": [0.5, 0.22], "radius": 0.12}


# -- curve fitting over demos ---------------------------------------------


def test_fit_demos_reconstructs_demonstrations(env1_demos):
    env, demos = env1_demos
    model, fits = fit_demos(env, demos, n_bases=20)
    assert model.basis.size == 20
    for traj, params in zip(demos, fits):
        taus = traj.times / traj.times[-1]
        rec = model.evaluate(params, taus)
        rmse = np.sqrt(np.mean(np.sum((rec - traj.points) ** 2, axis=1)))
        assert rmse < 5e-3
        assert np.allclose(rec[0], env.q_start, atol=1e-9)
        assert np.allclose(rec[-1], env.q_goal, atol=1e-9)


# -- model bundles ---------------------------------------------------------


def test_default_components_tracks_obstacle_count():
    for env_id, want in _EXPECTED.items():
        env, _ = generate_env(env_id, seed=0)
        assert default_components(env) == want["classes"]
    free, _ = generate_continuum_demos(count=3, seed=0)
    assert default_components(free) == 1
    crowded = PlanarEnv(
        obstacles=[_static_disk([0.5, 0.3 * k], 0.01)
                   for k in range(1, 6)],
        q_start=[0.0, 0.0], q_goal=[1.0, 0.0],
        bounds=[[-0.2, 1.2], [-0.8, 0.8]])
    assert default_components(crowded) == 6


def test_baseline_bundles_sample_directly(env1_demos):
    env, demos = env1_demos
    for kind in ("vmp-gauss", "vmp-gmm"):
        bundle = build_bundle(kind, env, demos, seed=0)
        assert bundle.kind == kind
        assert bundle.threshold == -np.inf
        assert bundle.manifold is None
        stacks, result = sample_curves(bundle, 50, np.random.default_rng(0))
        assert stacks.shape == (50, 2, 20)
        assert result.acceptance_rate == 1.0
    gauss = build_bundle("vmp-gauss", env, demos, seed=0)
    assert len(gauss.density.weights) == 1
    mix = build_bundle("vmp-gmm", env, demos, seed=0)
    assert len(mix.density.weights) == default_components(env)


def test_latent_bundle_thresholds_at_worst_training_point(latent_bundle):
    b = latent_bundle
    assert b.kind == "mmp++"
    assert b.manifold is not None
    assert b.latents.shape == (10, 2)
    logs = np.array([b.density.logpdf(z) for z in b.latents])
    assert np.isfinite(b.threshold)
    assert b.threshold == pytest.approx(logs.min())
    stacks, result = sample_curves(b, 40, np.random.default_rng(1))
    assert stacks.shape == (40, 2, 20)
    assert 0.0 < result.acceptance_rate <= 1.0


def test_regularized_bundle_engages_distortion(env1_demos):
    env, demos = env1_demos
    cfg = TrainConfig(latent_dim=2, epochs=40, hidden=(32, 32), seed=0)
    bundle = build_bundle("immp++", env, demos, alpha=0.1, train_config=cfg)
    assert bundle.manifold.config.alpha == pytest.approx(0.1)
    plain = build_bundle("mmp++", env, demos, alpha=0.1, train_config=cfg)
    assert plain.manifold.config.alpha == 0.0


def test_unknown_kind_is_rejected(env1_demos):
    env, demos = env1_demos
    with pytest.raises(ValueError, match="unknown model kind"):
        build_bundle("vmp", env, demos)


def test_kde_density_family(env1_demos):
    env, demos = env1_demos
    bundle = build_bundle("mmp++", env, demos, density_family="kde",
                          train_config=SMALL_TRAIN)
    assert type(bundle.density).__name__.lower().startswith("kde")
    with pytest.raises(ValueError, match="density family"):
        build_bundle("mmp++", env, demos, density_family="histogram",
                     train_config=SMALL_TRAIN)


# -- evaluation ------------------------------------------------------------


def _fixed_decode_bundle(env1_demos, coeffs):
    """Bundle whose decoder ignores samples and returns fixed coefficients."""
    env, demos = env1_demos
    model, fits = fit_demos(env, demos)
    density = gmm_fit(np.random.default_rng(0).normal(size=(30, 2)), 1)
    return ModelBundle(
        kind="vmp-gauss", density=density,
        decode_batch=lambda s: np.tile(coeffs, (len(np.atleast_2d(s)), 1, 1)),
        curve_model=model, threshold=-np.inf), model, fits


def test_success_rate_counts_collisions(env1_demos):
    env, _ = env1_demos
    through = np.zeros((2, 20))            # straight line through the disk
    bundle, model, fits = _fixed_decode_bundle(env1_demos, through)
    rate, acc = success_rate(bundle, env, 30, np.random.default_rng(0))
    assert rate == 0.0
    assert acc == 1.0
    clear = fits[0].coefficients           # a demonstration-shaped curve
    bundle, _, _ = _fixed_decode_bundle(env1_demos, clear)
    rate, _ = success_rate(bundle, env, 30, np.random.default_rng(0))
    assert rate == 100.0


def test_success_rate_rejects_non_finite_curves(env1_demos):
    # NaN > 0 is False, so an unchecked NaN curve would count as clear
    env, _ = env1_demos
    bundle, _, _ = _fixed_decode_bundle(env1_demos, np.full((2, 20), np.nan))
    with pytest.raises(NonFiniteError, match="non-finite point"):
        success_rate(bundle, env, 30, np.random.default_rng(0))


def test_evaluate_success_report(latent_bundle, env1_demos, tmp_path):
    env, _ = env1_demos
    report = evaluate_success(latent_bundle, env, env_id="env1",
                              num_samples=60, seeds=(0, 1, 2))
    assert report.seeds == [0, 1, 2]
    assert len(report.success_rates) == 3
    assert all(0.0 <= r <= 100.0 for r in report.success_rates)
    assert report.mean == pytest.approx(np.mean(report.success_rates))
    again = evaluate_success(latent_bundle, env, env_id="env1",
                             num_samples=60, seeds=(0, 1, 2))
    assert again.success_rates == report.success_rates   # fixed eval seeds
    path = tmp_path / "report.csv"
    report.save_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["kind"], r["env"], int(r["seed"]), int(r["num_samples"]))
            for r in rows] == [(report.kind, "env1", s, 60) for s in (0, 1, 2)]
    assert np.allclose([float(r["success_rate"]) for r in rows],
                       report.success_rates)
    assert np.allclose([float(r["acceptance_rate"]) for r in rows],
                       report.acceptance_rates, atol=1e-6)


@pytest.mark.parametrize("call, field", [
    (lambda b, env, pts: gmm_fit(pts, 0), "n_components"),
    (lambda b, env, pts: gmm_fit(pts, -2), "n_components"),
    (lambda b, env, pts: fit_density(pts, "gmm", 0, 0), "n_components"),
    (lambda b, env, pts: fit_density(pts, "kde", 0, 0), "n_components"),
    (lambda b, env, pts: evaluate_success(b, env, seeds=()), "seeds"),
    (lambda b, env, pts: evaluate_success(b, env, num_samples=0),
     "num_samples"),
    (lambda b, env, pts: sample_curves(b, 0, np.random.default_rng(0)),
     "count"),
    (lambda b, env, pts: sample_curves(b, -1, np.random.default_rng(0)),
     "count"),
], ids=["gmm_fit-0", "gmm_fit-negative", "fit_density-gmm",
        "fit_density-kde", "evaluate-no-seeds", "evaluate-no-samples",
        "sample-0", "sample-negative"])
def test_counts_below_one_raise_naming_the_field(env1_demos, call, field):
    env, _ = env1_demos
    bundle, _, _ = _fixed_decode_bundle(env1_demos, np.zeros((2, 20)))
    points = np.random.default_rng(1).normal(size=(12, 2))
    with pytest.raises(ValueError, match=field):
        call(bundle, env, points)
