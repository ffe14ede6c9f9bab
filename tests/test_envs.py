"""Planar environment synthesis, model bundles, and success evaluation."""

import csv
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from motionmanifold import envs
from motionmanifold.basis import BasisSet, CurveModel, evaluate_batch
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


# -- the exact squared-radius test ------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1e3))
@example(0.15)                     # env1: fl(r * r) is not the threshold
@example(0.12)                     # env2: nor here
@example(0.09)                     # env3: here it is
def test_below_sqrt_threshold_matches_the_depth_sign(r):
    t = envs._below_sqrt(r)
    assert np.sqrt(t) >= r > np.sqrt(np.nextafter(t, 0.0))
    for d in (t, r * r):
        for q in (np.nextafter(d, 0.0), d, np.nextafter(d, np.inf)):
            assert (q < t) == (r - np.sqrt(q) > 0)


def _reference_collisions(model, stacks, env):
    grid = np.linspace(0.0, 1.0, envs.CHECK_GRID_POINTS)
    return np.any(collision_check(evaluate_batch(model, stacks, grid),
                                  env) > 0, axis=1)


def _boundary_scales(model, env, around=3):
    """Scales s whose arch curve y = s tau (1 - tau) over env1's disk
    passes within a few ulps of touching it: the last colliding scale and
    the first clear one, found by bisection, and `around` neighbours of
    each."""
    def collides(s):
        return _reference_collisions(model, _arch(s), env)[0]

    lo, hi = 0.0, 1.0                   # through the center, well clear
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if collides(mid) else (lo, mid)
    scales = [lo, hi]
    for _ in range(around):
        scales += [np.nextafter(scales[0], 0.0), np.nextafter(scales[-1], 2)]
        scales.sort()
    return scales


def _arch(*scales):
    stack = np.zeros((len(scales), 2, envs.N_BASES))
    stack[:, 1, :] = np.asarray(scales)[:, None]   # the bases sum to 1
    return stack


def test_check_matches_the_depth_field_per_curve(env1_demos):
    env, demos = env1_demos
    model, fits = fit_demos(env, demos)
    scales = _boundary_scales(model, env)
    touching = _arch(*scales)
    depths = collision_check(evaluate_batch(
        model, touching, np.linspace(0.0, 1.0, envs.CHECK_GRID_POINTS)), env)
    assert np.abs(depths.max(axis=1)).max() < 1e-15   # all graze the disk
    rng = np.random.default_rng(7)
    random = 0.3 * rng.standard_normal((envs._CHECK_CURVES + 37, 2,
                                        envs.N_BASES))
    demo = np.stack([f.coefficients for f in fits])
    # more curves than one block holds, the grazing ones in the second
    stacks = np.concatenate([random, demo, touching])
    want = _reference_collisions(model, stacks, env)
    assert 0 < want.sum() < len(stacks) and 0 < want[-len(scales):].sum() \
        < len(scales)
    assert np.array_equal(envs._collisions(model, stacks, env.obstacles),
                          want)
    rate, _ = success_rate(_stack_bundle(model, stacks), env, len(stacks),
                           rng)
    assert rate == 100.0 * np.mean(~want)


def _stack_bundle(model, stacks):
    """Bundle that decodes any len(stacks) draws to stacks itself."""
    density = gmm_fit(np.random.default_rng(0).normal(size=(30, 2)), 1)
    return ModelBundle(kind="vmp-gauss", density=density,
                       decode_batch=lambda s: stacks, curve_model=model,
                       threshold=-np.inf)


def test_check_rejects_a_curve_that_overflows(env1_demos):
    # finite coefficients and endpoints whose sum overflows to inf
    env, _ = env1_demos
    big = np.array([1.5e308, 0.0])
    model = CurveModel(BasisSet.uniform(envs.N_BASES), big, big)
    stacks = np.zeros((3, 2, envs.N_BASES))
    stacks[1, 0] = 1.5e308
    bundle = _stack_bundle(model, stacks)
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteError, match="non-finite point"):
            _reference_collisions(model, stacks, env)
        with pytest.raises(NonFiniteError, match="non-finite point"):
            success_rate(bundle, env, 3, np.random.default_rng(0))
        # with no disk to reach, the bound still cannot skip such a block
        with pytest.raises(NonFiniteError, match="non-finite point"):
            envs._collisions(model, stacks, [])


# -- the coefficient bound that skips phase blocks ---------------------------


def _count_blocks(model, stacks, disks):
    """(verdicts of envs._collisions, phase blocks it evaluated)."""
    calls = []

    def counting(model, stacks, tau):
        calls.append(len(tau))
        return evaluate_batch(model, stacks, tau)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(envs, "evaluate_batch", counting)
        collided = envs._collisions(model, stacks, disks)
    return collided, len(calls)


def _first_scale(changes, hi=1.0):
    """The smallest scale s in (0, hi] at which changes(s) holds, for
    changes monotone in s, and the largest one below it."""
    lo = 0.0
    assert changes(hi) and not changes(lo)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (lo, mid) if changes(mid) else (mid, hi)
    return lo, hi


def _neighbours(*scales, around=2):
    values = set()
    for s in scales:
        for _ in range(around):
            s = np.nextafter(s, 0.0)
        for _ in range(2 * around + 1):
            values.add(s)
            s = np.nextafter(s, np.inf)
    return sorted(values)


def _assert_skip_keeps_verdicts(model, pattern, disks, scales):
    """Each scaled pattern alone, and all of them as one block, get the
    verdicts of the full evaluation."""
    stacks = np.asarray(scales)[:, None, None] * pattern
    env = PlanarEnv(obstacles=disks, q_start=model.q_start,
                    q_goal=model.q_end, bounds=envs.SCENE_BOUNDS)
    want = _reference_collisions(model, stacks, env)
    for k in range(len(stacks)):
        assert envs._collisions(model, stacks[k:k + 1], disks) == want[k]
    assert np.array_equal(envs._collisions(model, stacks, disks), want)
    return want


@pytest.mark.parametrize("env_id, index", [
    ("env1", 0), ("env2", 0), ("env2", 1),
    ("env3", 0), ("env3", 1), ("env3", 2)])
def test_skip_keeps_verdicts_where_a_bound_reaches_a_disk(env_id, index):
    # a bump toward the disk, in y for the disks above and below the
    # straight segment and in x for those on it, scaled so that one
    # block's bound lands just short of, on, and just past the disk
    env, demos = generate_env(env_id, seed=0)
    model, _ = fit_demos(env, demos)
    disk = env.obstacles[index]
    height = disk.center_at(0.0)[1]
    pattern = np.zeros((2, envs.N_BASES))
    if height == 0.0:
        pattern[0, envs.N_BASES // 2 - 2] = 1.0
    else:
        pattern[1, envs.N_BASES // 2 - 2] = np.sign(height)

    def blocks(scale):
        return _count_blocks(model, scale * pattern[None], [disk])[1]

    lo, hi = _first_scale(lambda s: blocks(s) > blocks(0.0), hi=10.0)
    assert blocks(lo) < blocks(hi)
    _assert_skip_keeps_verdicts(model, pattern, [disk], _neighbours(lo, hi))


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, envs.N_BASES - 2), height=st.floats(0.1, 0.6),
       radius=st.floats(0.01, 0.09), below=st.booleans())
def test_skip_keeps_verdicts_where_a_curve_grazes_a_disk(k, height, radius,
                                                        below):
    # one basis bump and a disk straight above (or below) its highest
    # grid point: the bound is tight there, so the scale at which a block
    # is first evaluated and the one at which the curve first hits the
    # disk lie within 1e-12 of each other, relative
    basis = BasisSet.uniform(envs.N_BASES)
    model = CurveModel(basis, [0.0, 0.0], [1.0, 0.0])
    grid = np.linspace(0.0, 1.0, envs.CHECK_GRID_POINTS)
    peak = grid[basis.evaluate(grid)[:, k].argmax()]
    sign = -1.0 if below else 1.0
    disk = MovingDisk(times=[0.0], centers=[(peak, sign * height)],
                      radius=radius)
    pattern = np.zeros((2, envs.N_BASES))
    pattern[1, k] = sign
    env = PlanarEnv(obstacles=[disk], q_start=model.q_start,
                    q_goal=model.q_end, bounds=envs.SCENE_BOUNDS)
    # at this scale the peak reaches the center; below it the peak is the
    # curve's point closest to the disk, so hitting is monotone in scale
    far = height / basis.evaluate(peak)[k]
    checked = _first_scale(
        lambda s: _count_blocks(model, s * pattern[None], [disk])[1] > 0,
        far)
    hits = _first_scale(
        lambda s: _reference_collisions(model, s * pattern[None], env)[0],
        far)
    assert checked[1] <= hits[1] < checked[1] * (1 + 1e-12)
    want = _assert_skip_keeps_verdicts(model, pattern, [disk],
                                       _neighbours(*checked, *hits))
    assert 0 < want.sum() < len(want)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("coefficient", [np.nan, np.inf])
def test_check_without_obstacles_still_rejects_non_finite_curves(
        coefficient):
    model = CurveModel(BasisSet.uniform(envs.N_BASES), [0.0, 0.0],
                       [1.0, 0.0])
    stacks = np.zeros((3, 2, envs.N_BASES))
    collided, blocks = _count_blocks(model, stacks, [])
    assert not collided.any() and blocks == 0
    stacks[1, 0, 4] = coefficient
    with pytest.raises(NonFiniteError, match="non-finite point"):
        envs._collisions(model, stacks, [])


@pytest.mark.parametrize("env_id", sorted(_EXPECTED))
def test_check_evaluates_few_phase_blocks_of_the_demo_fits(env_id):
    env, demos = generate_env(env_id, seed=0)
    model, fits = fit_demos(env, demos)
    stacks = np.stack([f.coefficients for f in fits])
    collided, blocks = _count_blocks(model, stacks, env.obstacles)
    assert not collided.any()
    assert blocks < envs.CHECK_GRID_POINTS // envs._CHECK_PHASES


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
