"""Virtual-time replanning loop: constraints, search, and episode traces."""

import copy
import csv
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from motionmanifold import replan
from motionmanifold.basis import BasisSet, CurveModel
from motionmanifold.density import GmmModel, kde_build
from motionmanifold.errors import NonFiniteError, ReplanInfeasibleError
from motionmanifold.replan import (DynamicConstraint, EpisodeTrace,
                                   MovingDisk, ReplanConfig, ReplanState,
                                   constraint_from_script, initial_latent,
                                   predict_violation, run_episode,
                                   save_obstacle_script, solve_replan)
from motionmanifold.training import evaluate_batch


class BumpModel:
    """Linear stand-in decoder: z[0] scales an arc over (0,0) -> (1,0).

    The decoded curve is q(tau) = (tau, z0 * tau * (1 - tau)), so the apex
    height is z0 / 4 and every geometric question has a closed form.
    """

    def __init__(self, n_bases=8):
        basis = BasisSet.uniform(n_bases)
        self.curve_model = CurveModel(
            basis, np.zeros(2), np.array([1.0, 0.0]))
        self.pattern = np.vstack([np.zeros(n_bases), np.ones(n_bases)])

    def decode_many(self, z_batch):
        z = np.atleast_2d(np.asarray(z_batch, dtype=float))
        return z[:, 0][:, None, None] * self.pattern[None]

    def curve_points(self, z, taus):
        stack = self.decode_many(np.asarray(z, dtype=float)[None, :])
        return evaluate_batch(self.curve_model, stack, taus)[0]


def two_cluster_density(sigma=0.6):
    cov = sigma ** 2 * np.eye(2)
    return GmmModel(weights=np.array([0.5, 0.5]),
                    means=np.array([[1.0, 0.0], [-1.0, 0.0]]),
                    covariances=np.stack([cov, cov]))


def upper_blocker():
    """Static-in-time disk sitting on the upper arc's apex."""
    return MovingDisk(times=[0.0, 100.0],
                      centers=[[0.5, 0.25], [0.5, 0.25]], radius=0.2)


# -- configuration and state ----------------------------------------------


def test_config_defaults_and_derived_cap():
    cfg = ReplanConfig()
    assert cfg.total_time == 5.0 and cfg.window == 1.0
    assert cfg.control_hz == 1000.0 and cfg.replan_hz == 10.0
    assert cfg.max_time == pytest.approx(15.0)
    assert ReplanConfig(max_time=4.0).max_time == 4.0


@pytest.mark.parametrize("kwargs", [
    dict(replan_hz=1000.0),                 # must stay below control rate
    dict(replan_hz=2000.0),
    dict(window=0.0),
    dict(total_time=-1.0),
    dict(total_time=0.0),
    dict(total_time=np.inf),                # was an OverflowError per episode
    dict(window=-0.5),
    dict(max_time=-1.0),
    dict(max_time=0.0),
    dict(max_time=np.nan),
    dict(max_time=np.inf),
    dict(replan_hz=0.0),                    # was a ZeroDivisionError
    dict(replan_hz=-5.0),                   # was a replan every tick
    dict(control_hz=-1000.0, replan_hz=-2000.0),
    dict(replan_hz=np.nan),
    dict(window=np.nan),
    dict(total_time=np.nan),
    dict(control_hz=np.nan),
    dict(threshold=np.nan),                 # every search read infeasible
    dict(threshold=np.inf),
])
def test_config_validation(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        ReplanConfig(**kwargs)


def test_state_clips_phase():
    assert ReplanState(z=[1.0, 2.0], tau=1.7).tau == 1.0
    assert ReplanState(z=[0.0], tau=-0.3).tau == 0.0


@pytest.mark.parametrize("field, value", [
    ("z", [np.nan, 0.0]), ("z", [0.0, np.inf]), ("tau", np.nan),
    ("tau", np.inf),
])
def test_state_rejects_non_finite_values(field, value):
    kwargs = {"z": [0.5, 0.0], field: value}
    with pytest.raises(NonFiniteError, match=f"state {field} "):
        ReplanState(**kwargs)


def test_episode_rejects_non_finite_start_by_name():
    with pytest.raises(NonFiniteError, match="state z "):
        run_episode(BumpModel(), two_cluster_density(),
                    constraint_from_script([upper_blocker()]),
                    ReplanConfig(), z0=[np.nan, 0.0])


# -- moving obstacles and constraints -------------------------------------


def test_moving_disk_interpolates_waypoints():
    disk = MovingDisk(times=[0.0, 2.0, 4.0],
                      centers=[[0.0, 0.0], [1.0, 0.0], [1.0, 2.0]],
                      radius=0.1)
    assert np.allclose(disk.center_at(0.0), [0.0, 0.0])
    assert np.allclose(disk.center_at(1.0), [0.5, 0.0])
    assert np.allclose(disk.center_at(3.0), [1.0, 1.0])
    # clamped outside the scripted range
    assert np.allclose(disk.center_at(-5.0), [0.0, 0.0])
    assert np.allclose(disk.center_at(99.0), [1.0, 2.0])


def test_moving_disk_validation():
    with pytest.raises(ValueError, match="per time stamp"):
        MovingDisk(times=[0.0, 1.0], centers=[[0.0, 0.0]], radius=0.1)
    with pytest.raises(ValueError, match="strictly increasing"):
        MovingDisk(times=[0.0, 0.0], centers=[[0.0, 0.0], [1.0, 1.0]],
                   radius=0.1)
    with pytest.raises(ValueError, match="radius"):
        MovingDisk(times=[0.0, 1.0], centers=[[0.0, 0.0], [1.0, 1.0]],
                   radius=0.0)


@pytest.mark.parametrize("field, value", [
    ("radius", np.nan),
    ("radius", np.inf),
    ("centers", [[0.0, 0.0], [np.nan, 0.0]]),
    ("times", [0.0, np.nan]),
    ("times", [0.0, np.inf]),
])
def test_moving_disk_rejects_non_finite(field, value):
    # a NaN depth reads as clear, since NaN > 0 is False
    data = {"times": [0.0, 1.0], "centers": [[0.0, 0.0], [1.0, 0.0]],
            "radius": 0.1, field: value}
    with pytest.raises(ValueError, match=field):
        MovingDisk(**data)


def test_obstacle_script_round_trip(tmp_path):
    disks = [upper_blocker(),
             MovingDisk(times=[0.0, 1.0], centers=[[0.0, 1.0], [1.0, 1.0]],
                        radius=0.05)]
    path = tmp_path / "script.json"
    save_obstacle_script(path, disks)
    back = json.loads(path.read_text())
    assert len(back) == 2
    for a, b in zip(back, disks):
        assert sorted(a) == ["centers", "radius", "times"]
        assert np.array_equal(a["times"], b.times)
        assert np.array_equal(a["centers"], b.centers)
        assert a["radius"] == b.radius


def test_constraint_tracks_scripted_motion():
    disk = MovingDisk(times=[0.0, 2.0], centers=[[0.0, 0.0], [2.0, 0.0]],
                      radius=0.5)
    c = constraint_from_script([disk])
    assert c([0.0, 0.0], 0.0) == pytest.approx(0.5)      # inside at t=0
    assert c([0.0, 0.0], 2.0) == pytest.approx(-1.5)     # disk moved away
    assert c([2.0, 0.0], 2.0) == pytest.approx(0.5)


def test_constraint_with_static_obstacles_and_empty_script():
    c = constraint_from_script([MovingDisk(times=[0.0], centers=[[1.0, 0.0]],
                                           radius=0.3)])
    assert c([1.0, 0.1], 0.0) == pytest.approx(0.2)
    empty = constraint_from_script([])
    assert empty([0.0, 0.0], 0.0) == -1.0


def test_moving_disk_center_at_takes_time_arrays():
    disk = MovingDisk(times=[0.0, 2.0, 4.0],
                      centers=[[0.0, 0.0], [1.0, 0.0], [1.0, 2.0]],
                      radius=0.1)
    times = np.array([[0.0, 1.0], [3.0, 99.0]])
    centers = disk.center_at(times)
    assert centers.shape == (2, 2, 2)
    for idx in np.ndindex(times.shape):
        assert np.array_equal(centers[idx], disk.center_at(times[idx]))


_unit = st.floats(-0.5, 0.5)


@st.composite
def _field_cases(draw):
    """Disks, points and times of one dimension and broadcastable shapes."""
    n = draw(st.sampled_from([2, 3]))

    def disk(n_way):
        gaps = draw(st.lists(st.floats(0.1, 2.0), min_size=n_way,
                             max_size=n_way))
        centers = draw(st.lists(st.lists(_unit, min_size=n, max_size=n),
                                min_size=n_way, max_size=n_way))
        return MovingDisk(times=np.cumsum(gaps) - 0.5, centers=centers,
                          radius=draw(st.floats(0.01, 1.0)))

    # one waypoint makes a static disk; no disk at all, the empty script
    disks = [disk(n_way) for n_way in draw(
        st.lists(st.integers(1, 3), max_size=3))]
    k = draw(st.integers(1, 4))
    lead = draw(st.sampled_from([(), (k,), (2, k)]))
    t_shape = draw(st.sampled_from([(), lead]))
    size = int(np.prod(lead + (n,)))
    points = np.reshape(draw(st.lists(_unit, min_size=size, max_size=size)),
                        lead + (n,))
    times = np.reshape(draw(st.lists(
        st.floats(-1.0, 6.0), min_size=int(np.prod(t_shape)),
        max_size=int(np.prod(t_shape)))), t_shape)
    return disks, points, times


def _interp_center(disk, t):
    return np.stack([np.interp(t, disk.times, disk.centers[:, d])
                     for d in range(disk.centers.shape[1])], axis=-1)


@settings(max_examples=80, deadline=None)
@given(case=_field_cases())
@example(case=([], np.array([[0.0, 0.0], [0.5, -0.5]]), np.array([0.0, 3.0])))
@example(case=([MovingDisk(times=[0.0], centers=[[0.5, 0.5]], radius=0.3),
                MovingDisk(times=[0.0], centers=[[-0.5, 0.0]], radius=0.2)],
               np.array([[0.5, 0.4], [-0.5, -0.5]]), np.array(1.0)))
def test_batched_constraint_matches_per_point_calls(case):
    disks, points, times = case
    c = constraint_from_script(disks)
    depths = c(points, times)
    assert np.shape(depths) == np.broadcast_shapes(points.shape[:-1],
                                                   times.shape)
    far = c(4.0 * points, times)     # the same shapes at a +-2 scale
    t_all = np.broadcast_to(times, np.shape(depths))
    for idx in np.ndindex(np.shape(depths)):
        q, t = points[idx], t_all[idx]
        single = c(q, t)
        assert isinstance(single, float)
        # one point alone gets its batched depth bit for bit
        assert single == np.asarray(depths)[idx]
        assert c(4.0 * q, t) == np.asarray(far)[idx]
        # coordinates within +-0.5 keep every distance below 2, where
        # one last-bit step of the result is at most 2.2e-16
        norm_form = max((d.radius - np.linalg.norm(q - _interp_center(d, t))
                         for d in disks), default=-1.0)
        assert abs(single - norm_form) <= 4e-16
    for d in disks:
        if len(d.times) == 1:
            want = _interp_center(d, times)
            assert want.shape == times.shape + (points.shape[-1],)
            assert np.array_equal(d.center_at(times), want)


@pytest.mark.parametrize("q, t, what", [
    ([np.nan, 0.0], 0.0, "point"), ([np.inf, 0.0], 0.0, "point"),
    ([0.0, 0.0], np.nan, "time"), ([0.0, 0.0], -np.inf, "time"),
    ([[0.0, 0.0], [0.2, np.nan]], [0.0, 1.0], "point"),
    ([[0.0, 0.0], [0.2, 0.0]], [0.0, np.inf], "time"),
])
@pytest.mark.parametrize("script", ["static", "moving", "empty"])
def test_field_rejects_non_finite_points_and_times(q, t, what, script):
    # a NaN depth would read as clear, since NaN > 0 is False
    disks = {"static": [MovingDisk(times=[0.0], centers=[[0.5, 0.0]],
                                   radius=0.3)],
             "moving": [upper_blocker()], "empty": []}[script]
    with pytest.raises(NonFiniteError, match=f"non-finite {what}"):
        constraint_from_script(disks)(q, t)


def test_field_rejects_points_of_another_dimension():
    c = constraint_from_script([upper_blocker()])
    with pytest.raises(ValueError, match="3-D points against a 2-D"):
        c(np.zeros((4, 3)), 0.0)


# -- violation prediction --------------------------------------------------


def _predict(state, model, constraint, t_now, cfg):
    """The one verdict of a single check at the state's own phase."""
    verdicts = predict_violation(model, constraint, state.z, [state.tau],
                                 [t_now], cfg)
    assert verdicts.shape == (1,) and verdicts.dtype == bool
    return bool(verdicts[0])


def test_prediction_looks_ahead_in_phase():
    model = BumpModel()
    cfg = ReplanConfig(total_time=2.0, window=0.3, control_hz=200.0,
                       replan_hz=10.0)
    constraint = constraint_from_script([upper_blocker()])
    near_start = ReplanState(z=np.array([1.0, 0.0]), tau=0.02)
    assert not _predict(near_start, model, constraint, 0.0, cfg)
    approaching = ReplanState(z=np.array([1.0, 0.0]), tau=0.25)
    assert _predict(approaching, model, constraint, 0.0, cfg)
    low_road = ReplanState(z=np.array([-1.0, 0.0]), tau=0.25)
    assert not _predict(low_road, model, constraint, 0.0, cfg)
    # both checks of the upper arc in one call
    both = predict_violation(model, constraint, np.array([1.0, 0.0]),
                             [0.02, 0.25], [0.0, 0.0], cfg)
    assert both.tolist() == [False, True]


def test_prediction_maps_phase_to_wall_time():
    model = BumpModel()
    cfg = ReplanConfig(total_time=2.0, window=0.6, control_hz=200.0,
                       replan_hz=10.0)
    # disk sweeps onto the apex only after t = 2
    late = MovingDisk(times=[0.0, 1.9, 2.0, 100.0],
                      centers=[[5.0, 5.0], [5.0, 5.0], [0.5, 0.25],
                               [0.5, 0.25]], radius=0.2)
    constraint = constraint_from_script([late])
    state = ReplanState(z=np.array([1.0, 0.0]), tau=0.25)
    assert not _predict(state, model, constraint, 0.0, cfg)
    assert _predict(state, model, constraint, 2.0, cfg)
    # the same phase checked at both times in one call
    both = predict_violation(model, constraint, state.z, [0.25, 0.25],
                             [0.0, 2.0], cfg)
    assert both.tolist() == [False, True]


def _per_row_linspace(taus, cfg):
    return np.stack([np.linspace(tau, min(tau + cfg.window / cfg.total_time,
                                          1.0), replan.WINDOW_RESOLUTION)
                     for tau in taus])


def _window_grids(taus, cfg):
    """The (K, R) phase grids of the windows that start at taus, as
    _window_clashes passes them to evaluate_batch."""
    seen = []

    def recording(curve, stacks, tau):
        seen.append(tau)
        return evaluate_batch(curve, stacks, tau)

    model = BumpModel()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(replan, "evaluate_batch", recording)
        replan._window_clashes(model.curve_model, model.decode_many([1.0]),
                               taus, np.zeros(len(taus)),
                               constraint_from_script([]), cfg)
    return seen[0].reshape(len(taus), replan.WINDOW_RESOLUTION)


@settings(max_examples=60, deadline=None)
@given(taus=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1,
                     max_size=12),
       window=st.floats(1e-3, 3.0), total_time=st.floats(0.1, 10.0))
@example(taus=[0.3, 0.99], window=1.0, total_time=5.0)
def test_windows_are_per_row_linspace(taus, window, total_time):
    # windows of positive width are each the linspace of their start phase
    cfg = ReplanConfig(total_time=total_time, window=window)
    grids = _window_grids(taus, cfg)
    assert np.array_equal(grids, _per_row_linspace(taus, cfg))
    # a window at tau = 1 has zero width; with it in the batch linspace
    # takes its zero-width route, which may move the others by an ulp
    ends = _window_grids(taus + [1.0], cfg)
    assert np.all(ends[-1] == 1.0)
    assert np.allclose(ends[:-1], grids, rtol=0.0,
                       atol=4 * np.finfo(float).eps)


@settings(max_examples=40, deadline=None)
@given(z0=st.floats(-1.5, 1.5),
       checks=st.lists(st.tuples(st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
                                 st.floats(0.0, 4.0)),
                       min_size=1, max_size=10),
       window=st.floats(0.05, 1.0))
def test_batched_checks_match_single_checks(z0, checks, window):
    model = BumpModel()
    cfg = ReplanConfig(total_time=2.0, window=window, control_hz=200.0,
                       replan_hz=10.0)
    sweeper = MovingDisk(times=[0.0, 1.0, 2.0, 3.0],
                         centers=[[0.3, 0.6], [0.5, 0.1], [0.7, -0.4],
                                  [0.4, 0.2]], radius=0.15)
    constraint = constraint_from_script([upper_blocker(), sweeper])
    z = np.array([z0, 0.0])
    taus, times = zip(*checks)
    batched = predict_violation(model, constraint, z, taus, times, cfg)
    singles = [_predict(ReplanState(z=z, tau=tau), model, constraint, t, cfg)
               for tau, t in checks]
    assert batched.tolist() == singles


# -- sampling-based replan search -----------------------------------------


def test_replan_keeps_current_plan_when_feasible():
    model = BumpModel()
    density = two_cluster_density()
    cfg = ReplanConfig(total_time=2.0, window=0.6, control_hz=200.0,
                       replan_hz=10.0, threshold=-np.inf)
    state = ReplanState(z=np.array([1.0, 0.0]), tau=0.4)
    free = constraint_from_script([])
    z_new, tau_new = solve_replan(state, model, density, free, 0.0, cfg,
                                  np.random.default_rng(0))
    assert np.array_equal(z_new, state.z)        # zero-cost candidate wins
    assert tau_new == state.tau


def test_replan_finds_feasible_plan_around_blocker():
    model = BumpModel()
    density = two_cluster_density()
    threshold = density.logpdf(np.zeros(2)) - 0.5
    cfg = ReplanConfig(total_time=2.0, window=0.6, control_hz=200.0,
                       replan_hz=10.0, threshold=threshold)
    constraint = constraint_from_script([upper_blocker()])
    state = ReplanState(z=np.array([1.0, 0.0]), tau=0.15)
    assert _predict(state, model, constraint, 0.0, cfg)
    z_new, tau_new = solve_replan(state, model, density, constraint, 0.0,
                                  cfg, np.random.default_rng(1))
    assert state.tau - replan.DELTA_BACK - 1e-12 <= tau_new <= state.tau
    assert z_new[0] < 0.3                        # dropped below the blocker
    assert density.logpdf(z_new) >= threshold
    after = ReplanState(z=z_new, tau=tau_new)
    assert not _predict(after, model, constraint, 0.0, cfg)


def test_replan_infeasible_reports_filter_counts():
    model = BumpModel()
    density = two_cluster_density()
    # a disk over the whole scene blocks every window of every candidate
    constraint = constraint_from_script([MovingDisk(
        times=[0.0], centers=[[0.5, 0.0]], radius=100.0)])
    state = ReplanState(z=np.array([1.0, 0.0]), tau=0.15)
    cfg = ReplanConfig(total_time=2.0, window=0.6, control_hz=200.0,
                       replan_hz=10.0, threshold=-np.inf)
    with pytest.raises(ReplanInfeasibleError) as err:
        solve_replan(state, model, density, constraint, 0.0, cfg,
                     np.random.default_rng(2))
    n_z = replan.CANDIDATE_BUDGET // replan.TAU_CANDIDATES
    assert err.value.n_candidates == n_z * replan.TAU_CANDIDATES
    assert err.value.n_density_ok == n_z
    assert err.value.n_window_ok == 0


def test_replan_infeasible_when_density_floor_excludes_everything():
    model = BumpModel()
    density = two_cluster_density()
    constraint = constraint_from_script([upper_blocker()])
    state = ReplanState(z=np.array([1.0, 0.0]), tau=0.15)
    cfg = ReplanConfig(total_time=2.0, window=0.6, control_hz=200.0,
                       replan_hz=10.0, threshold=1e9)
    with pytest.raises(ReplanInfeasibleError) as err:
        solve_replan(state, model, density, constraint, 0.0, cfg,
                     np.random.default_rng(3))
    assert err.value.n_density_ok == 0
    assert err.value.n_window_ok == 0
    assert err.value.n_candidates > 0


def _reference_window_feasible(points, taus, start_tau, t_now, constraint,
                               cfg):
    times = t_now + (taus - start_tau) * cfg.total_time
    for q, t in zip(points, times):
        if constraint(q, t) > 0:
            return False
    return True


def reference_solve_replan(state, model, density, constraint, t_now, cfg,
                           rng):
    """The sequential per-pair, per-point search the batched one replaces."""
    tau = state.tau
    tau_lo = max(tau - replan.DELTA_BACK, 0.0)
    tau_grid = np.linspace(tau, tau_lo, replan.TAU_CANDIDATES)
    z_cands = replan._candidate_latents(state, density, rng)
    n_z = len(z_cands)
    log_dens = np.atleast_1d(density.logpdf(z_cands))
    stacks = model.decode_many(z_cands)

    pair_obj = []
    for iz in range(n_z):
        dz2 = float(np.sum((z_cands[iz] - state.z) ** 2))
        for it, tp in enumerate(tau_grid):
            obj = dz2 + replan.ALPHA_TIME * (tau - tp) ** 2
            pair_obj.append((obj, iz, it))
    order = sorted(range(len(pair_obj)), key=lambda i: (pair_obj[i][0], i))

    eta = np.linspace(0.0, 1.0, replan.ETA_POINTS)
    n_density_ok = int(np.sum(log_dens >= cfg.threshold))
    n_window_ok = 0
    window_cache = {}
    for rank in order:
        obj, iz, it = pair_obj[rank]
        if log_dens[iz] < cfg.threshold:
            continue
        tp = float(tau_grid[it])
        key = (iz, it)
        if key not in window_cache:
            hi = min(tp + cfg.window / cfg.total_time, 1.0)
            grid = np.linspace(tp, hi, replan.WINDOW_RESOLUTION)
            pts = evaluate_batch(model.curve_model, stacks[iz:iz + 1],
                                 grid)[0]
            window_cache[key] = _reference_window_feasible(
                pts, grid, tp, t_now, constraint, cfg)
        if not window_cache[key]:
            continue
        n_window_ok += 1
        z_path = eta[:, None] * state.z + (1.0 - eta)[:, None] * z_cands[iz]
        tau_path = eta * tau + (1.0 - eta) * tp
        path_dens = np.atleast_1d(density.logpdf(z_path))
        if np.any(path_dens < cfg.threshold):
            continue
        path_stacks = model.decode_many(z_path)
        ok = True
        for j in range(replan.ETA_POINTS):
            q = evaluate_batch(model.curve_model, path_stacks[j:j + 1],
                               np.array([tau_path[j]]))[0, 0]
            if constraint(q, t_now) > 0:
                ok = False
                break
        if ok:
            return z_cands[iz].copy(), tp
    raise ReplanInfeasibleError(n_candidates=len(pair_obj),
                                n_density_ok=n_density_ok,
                                n_window_ok=n_window_ok)


def _search_outcome(search, *args):
    try:
        z, tau = search(*args)
    except ReplanInfeasibleError as err:
        return ("infeasible", err.n_candidates, err.n_density_ok,
                err.n_window_ok)
    return ("ok", z.tobytes(), tau)


def _search_cases():
    """Twenty (state, model, density, constraint, t_now, cfg) searches."""
    model = BumpModel()
    gmm = two_cluster_density()
    kde = kde_build(np.random.default_rng(0).normal(
        [[1.0, 0.0]] * 15 + [[-1.0, 0.0]] * 15, 0.4))
    sweeper = MovingDisk(times=[0.0, 1.0, 2.0],
                         centers=[[0.3, 0.6], [0.5, 0.1], [0.7, -0.4]],
                         radius=0.15)
    scripts = [[upper_blocker()], [upper_blocker(), sweeper], [sweeper]]
    setup = np.random.default_rng(42)
    for case in range(20):
        density = gmm if case % 2 == 0 else kde
        floor = density.logpdf(np.zeros(2)) + setup.choice([-1.0, -0.5, 0.5])
        cfg = ReplanConfig(total_time=2.0, window=0.6, control_hz=200.0,
                           replan_hz=10.0,
                           threshold=floor if case % 5 else -np.inf)
        constraint = constraint_from_script(scripts[case % 3])
        # upper-arc plans heading into the blockers
        state = ReplanState(z=[setup.uniform(0.5, 1.5),
                               setup.uniform(-0.3, 0.3)],
                            tau=setup.uniform(0.05, 0.35))
        t_now = setup.uniform(0.0, 1.0)
        yield state, model, density, constraint, t_now, cfg


def test_batched_search_matches_sequential_reference():
    kinds = set()
    for case, args in enumerate(_search_cases()):
        state = args[0]
        want = _search_outcome(reference_solve_replan, *args,
                               np.random.default_rng(case))
        got = _search_outcome(solve_replan, *args,
                              np.random.default_rng(case))
        assert got == want, case
        moved = want[0] == "ok" and want[1] != state.z.tobytes()
        kinds.add("moved" if moved else want[0])
    assert kinds >= {"moved", "infeasible"}


def test_search_matches_reference_on_the_trained_decoder(replan_fixture,
                                                          monkeypatch):
    """A real decoder rounds a batch by its row count, which the linear
    BumpModel cannot show; the outcomes must still match."""
    fx = replan_fixture
    situations = []
    search = replan.solve_replan

    def recording(state, *args):
        situations.append((copy.deepcopy(state), args[3]))
        return search(state, *args)

    monkeypatch.setattr(replan, "solve_replan", recording)
    for seed in range(5):
        run_episode(fx["manifold"], fx["density"], fx["constraint"],
                    fx["config"], seed=seed)
    monkeypatch.undo()
    assert len(situations) == 17
    kinds = set()
    for i, (state, t_now) in enumerate(situations):
        args = (state, fx["manifold"], fx["density"], fx["constraint"],
                t_now, fx["config"])
        want = _search_outcome(reference_solve_replan, *args,
                               np.random.default_rng(i))
        got = _search_outcome(solve_replan, *args, np.random.default_rng(i))
        assert got == want, i
        kinds.add(want[0])
    assert kinds == {"ok", "infeasible"}


class _CountingDensity:
    """Density that records every logpdf query."""

    def __init__(self, density):
        self.density = density
        self.queries = []

    def sample(self, rng, count=1):
        return self.density.sample(rng, count=count)

    def logpdf(self, z):
        self.queries.append(np.array(z))
        return self.density.logpdf(z)


class _RecordingModel:
    """Model that records every decode_many query."""

    def __init__(self, model):
        self.model = model
        self.curve_model = model.curve_model
        self.queries = []

    def decode_many(self, z_batch):
        self.queries.append(np.array(z_batch))
        return self.model.decode_many(z_batch)


def test_search_checks_windows_once_and_each_eta_path_once():
    path_counts = []
    batch_sizes = []
    for case, (state, model, density, constraint, t_now, cfg) in enumerate(
            _search_cases()):
        want = _search_outcome(reference_solve_replan, state, model, density,
                               constraint, t_now, cfg,
                               np.random.default_rng(case))
        counting = _CountingDensity(density)
        recording = _RecordingModel(model)
        time_ndims = []

        def field(q, t, evaluator=constraint.evaluator):
            time_ndims.append(t.ndim)
            return evaluator(q, t)

        got = _search_outcome(solve_replan, state, recording, counting,
                              DynamicConstraint(field), t_now, cfg,
                              np.random.default_rng(case))
        assert got == want, case
        # the eta path checks run at t_now; only the window check passes
        # a time array, once for every tau' at the same time
        assert sum(nd > 0 for nd in time_ndims) == 1, case
        # the first query scores the candidates, and only those that
        # clear the floor are decoded, in the first decode_many call
        scored = counting.queries[0]
        floor_ok = np.atleast_1d(density.logpdf(scored)) >= cfg.threshold
        assert np.array_equal(recording.queries[0], scored[floor_ok]), case
        # the eta paths come in at most two later queries: the first z'
        # reached alone, then every window-clear z' left in one stack
        assert len(counting.queries) <= 3, case
        if len(counting.queries) > 1:
            assert len(counting.queries[1]) == replan.ETA_POINTS, case
        paths = []
        for query in counting.queries[1:]:
            assert len(query) % replan.ETA_POINTS == 0, case
            batch = query.reshape(-1, replan.ETA_POINTS, query.shape[-1])
            batch_sizes.append(len(batch))
            paths.extend(batch)
        # a path's eta = 0 end is its z', and no z' is scored twice
        candidates = {z.tobytes() for z in scored}
        ends = [path[0].tobytes() for path in paths]
        assert set(ends) <= candidates, case
        assert len(ends) == len(set(ends)), case
        # only scored paths are decoded, each one once at most
        decoded = [path.tobytes() for path in recording.queries[1:]]
        assert len(decoded) == len(set(decoded)), case
        assert set(decoded) <= {path.tobytes() for path in paths}, case
        path_counts.append(len(ends))
    assert max(path_counts) > 1
    assert max(batch_sizes) > 1


# -- initial draw ----------------------------------------------------------


def test_initial_latent_honors_density_floor():
    density = two_cluster_density()
    floor = density.logpdf(np.array([1.0, 0.0])) - 0.2
    cfg = ReplanConfig(threshold=floor)
    rng = np.random.default_rng(4)
    for _ in range(20):
        z = initial_latent(density, cfg, rng)
        assert density.logpdf(z) >= floor
    free = ReplanConfig(threshold=-np.inf)
    z = initial_latent(density, free, np.random.default_rng(5))
    assert z.shape == (2,)
    with pytest.raises(ReplanInfeasibleError) as err:
        initial_latent(density, ReplanConfig(threshold=1e9),
                       np.random.default_rng(6))
    assert err.value.n_candidates == replan.INITIAL_ATTEMPTS


# -- the control loop ------------------------------------------------------


def test_episode_without_obstacles_just_tracks_phase():
    model = BumpModel()
    density = two_cluster_density()
    cfg = ReplanConfig(total_time=0.5, window=0.2, control_hz=100.0,
                       replan_hz=10.0, threshold=-np.inf)
    trace = run_episode(model, density, constraint_from_script([]), cfg,
                        seed=0, z0=np.array([1.0, 0.0]))
    assert trace.reached_goal and not trace.timed_out
    assert trace.n_replans == 0 and trace.n_infeasible == 0
    assert np.all(trace.replan_events == 0)
    assert np.all(np.diff(trace.taus) >= 0)
    assert trace.taus[-1] >= 1.0 - 1e-12
    assert trace.max_constraint == -1.0
    # latent never moves without a replan goal
    assert np.allclose(trace.latents, trace.latents[0])
    n_expected = int(cfg.total_time * cfg.control_hz)
    assert abs(len(trace.times) - n_expected) <= 1


def test_episode_replans_around_scripted_blocker():
    model = BumpModel()
    density = two_cluster_density()
    threshold = density.logpdf(np.zeros(2)) - 0.5
    cfg = ReplanConfig(total_time=2.0, window=0.6, control_hz=200.0,
                       replan_hz=10.0, threshold=threshold)
    constraint = constraint_from_script([upper_blocker()])
    trace = run_episode(model, density, constraint, cfg, seed=1,
                        z0=np.array([1.0, 0.0]))
    assert trace.reached_goal and not trace.timed_out
    assert trace.n_replans >= 1
    assert np.any(trace.replan_events == 1)
    assert trace.max_constraint <= 0.0           # never actually collided
    assert trace.latents[-1][0] < trace.latents[0][0]
    assert trace.taus[-1] >= 1.0 - 1e-12


def test_episode_records_infeasible_searches_without_raising():
    model = BumpModel()
    density = two_cluster_density()
    constraint = constraint_from_script([upper_blocker()])
    cfg = ReplanConfig(total_time=1.0, window=0.4, control_hz=100.0,
                       replan_hz=10.0, threshold=1e9, max_time=1.5)
    trace = run_episode(model, density, constraint, cfg, seed=2,
                        z0=np.array([1.0, 0.0]))
    assert trace.n_infeasible >= 1
    assert np.any(trace.replan_events == 2)
    assert trace.n_replans == 0
    # with no accepted goal the phase just advances into the blocker
    assert trace.max_constraint > 0.0


def test_trace_csv_round_trip(tmp_path):
    model = BumpModel()
    density = two_cluster_density()
    cfg = ReplanConfig(total_time=0.3, window=0.1, control_hz=100.0,
                       replan_hz=10.0, threshold=-np.inf)
    trace = run_episode(model, density, constraint_from_script([]), cfg,
                        seed=3, z0=np.array([0.5, -0.2]))
    path = tmp_path / "trace.csv"
    trace.save_csv(path)
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["t", "tau", "z0", "z1", "q0", "q1", "constraint",
                      "c_v", "replan_event"]
    back = np.array(rows, dtype=float)
    assert np.allclose(back[:, 0], trace.times, atol=1e-6)
    assert np.allclose(back[:, 1], trace.taus, atol=1e-9)
    assert np.allclose(back[:, 2:4], trace.latents, rtol=1e-8)
    assert np.allclose(back[:, 4:6], trace.points, rtol=1e-8, atol=1e-12)
    assert np.allclose(back[:, 6], trace.constraint_values, rtol=1e-8)
    assert np.array_equal(back[:, 7], trace.violation_flags)
    assert np.array_equal(back[:, 8], trace.replan_events)


def test_dynamic_constraint_wraps_plain_callables():
    c = DynamicConstraint(evaluator=lambda q, t: q[0] - t)
    assert c(np.array([3.0, 0.0]), 1.0) == 2.0
    assert isinstance(c([1.0, 0.0], 0.5), float)


def reference_run_episode(model, density, constraint, cfg, seed=0, z0=None):
    """The per-tick control loop the blocked one replaces."""
    rng = np.random.default_rng(seed)
    z = np.asarray(z0, dtype=float) if z0 is not None \
        else initial_latent(density, cfg, rng)
    state = ReplanState(z=z.copy(), tau=0.0)
    dt = 1.0 / cfg.control_hz
    dtau = 1.0 / (cfg.control_hz * cfg.total_time)
    ticks_per_replan = max(1, int(round(cfg.control_hz / cfg.replan_hz)))
    max_ticks = int(np.ceil(cfg.max_time * cfg.control_hz))
    times, taus, latents, points, flags, events = [], [], [], [], [], []
    n_replans = n_infeasible = 0
    tracking = reached = False
    for tick in range(max_ticks):
        t_now = tick * dt
        event = 0
        if tick % ticks_per_replan == 0:
            if _predict(state, model, constraint, t_now, cfg):
                try:
                    goal_z, goal_tau = solve_replan(
                        state, model, density, constraint, t_now, cfg, rng)
                    tracking = True
                    n_replans += 1
                    event = 1
                except ReplanInfeasibleError:
                    n_infeasible += 1
                    event = 2
            else:
                tracking = False
        if tracking:
            gain = replan.TRACKING_GAIN
            state.z = state.z + gain * (goal_z - state.z)
            state.tau = state.tau + gain * (goal_tau - state.tau)
        else:
            state.tau = min(state.tau + dtau, 1.0)
        times.append(t_now)
        taus.append(state.tau)
        latents.append(state.z)
        points.append(model.curve_points(state.z, np.array([state.tau]))[0])
        flags.append(int(tracking))
        events.append(event)
        if state.tau >= 1.0 - 1e-12 and not tracking:
            reached = True
            break
    times, points = np.array(times), np.array(points)
    return EpisodeTrace(times=times, taus=np.array(taus),
                        latents=np.array(latents), points=points,
                        constraint_values=constraint(points, times),
                        violation_flags=np.array(flags),
                        replan_events=np.array(events),
                        n_replans=n_replans, n_infeasible=n_infeasible,
                        reached_goal=reached, timed_out=not reached)


def _assert_same_trace(got, want):
    for name in ("times", "taus", "latents", "violation_flags",
                 "replan_events"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    for name in ("n_replans", "n_infeasible", "reached_goal", "timed_out"):
        assert getattr(got, name) == getattr(want, name), name
    np.testing.assert_allclose(got.points, want.points, rtol=0.0,
                               atol=1e-12)
    np.testing.assert_allclose(got.constraint_values,
                               want.constraint_values, rtol=0.0, atol=1e-12)


def _blocker_density():
    density = two_cluster_density()
    return density, density.logpdf(np.zeros(2)) - 0.5


@pytest.mark.parametrize("case", ["free", "tracking", "infeasible",
                                  "timeout"])
def test_blocked_episode_matches_per_tick_reference(case):
    density, floor = _blocker_density()
    blocker = constraint_from_script([upper_blocker()])
    free = constraint_from_script([])
    cfg, constraint, seed, z0 = {
        # 47 ticks at 100/10 Hz: tau reaches 1 inside the fifth block
        "free": (ReplanConfig(total_time=0.47, window=0.2, control_hz=100.0,
                              replan_hz=10.0), free, 0, [1.0, 0.0]),
        "tracking": (ReplanConfig(total_time=2.0, window=0.6,
                                  control_hz=200.0, replan_hz=10.0,
                                  threshold=floor),
                     blocker, 1, [1.0, 0.0]),
        "infeasible": (ReplanConfig(total_time=1.0, window=0.4,
                                    control_hz=100.0, replan_hz=10.0,
                                    threshold=1e9, max_time=1.5),
                       blocker, 2, [1.0, 0.0]),
        # 35 ticks: the last block is cut short by max_time
        "timeout": (ReplanConfig(total_time=1.0, window=0.1,
                                 control_hz=100.0, replan_hz=10.0,
                                 max_time=0.35), free, 4, [0.5, -0.2]),
    }[case]
    model = BumpModel()
    args = (model, density, constraint, cfg)
    want = reference_run_episode(*args, seed=seed, z0=np.array(z0))
    got = run_episode(*args, seed=seed, z0=np.array(z0))
    _assert_same_trace(got, want)
    ticks_per_replan = 10 if cfg.control_hz == 100.0 else 20
    if case == "free":
        assert got.reached_goal and len(got.times) % ticks_per_replan
    if case == "tracking":
        assert got.n_replans >= 1 and np.any(got.violation_flags == 1)
    if case == "infeasible":
        assert got.n_infeasible >= 1
    if case == "timeout":
        assert got.timed_out and len(got.times) % ticks_per_replan


@st.composite
def _disks(draw):
    """A static or moving disk near the arcs BumpModel draws."""
    n_way = draw(st.integers(1, 3))
    gaps = draw(st.lists(st.floats(0.1, 1.0), min_size=n_way,
                         max_size=n_way))
    centers = [[draw(st.floats(0.1, 0.9)), draw(st.floats(-0.4, 0.4))]
               for _ in range(n_way)]
    return MovingDisk(times=np.cumsum(gaps) - 0.1, centers=centers,
                      radius=draw(st.floats(0.05, 0.25)))


@st.composite
def _episode_cases(draw):
    """(config fields, disks, floor, z0[0], seed, features a run must show).

    Drawn cases promise no feature; the pinned examples below each
    promise the one they were chosen for.
    """
    control_hz = draw(st.sampled_from([60.0, 100.0, 150.0]))
    fields = dict(
        control_hz=control_hz,
        # 2.5 and 4.4 ticks per check are not integer ratios
        replan_hz=control_hz / draw(st.sampled_from([2.5, 3.0, 4.4, 7.0,
                                                     10.0])),
        total_time=draw(st.floats(0.4, 2.0)),
        window=draw(st.floats(0.05, 0.8)),
        max_time=draw(st.floats(0.3, 2.0)))
    return (fields, draw(st.lists(_disks(), min_size=1, max_size=2)),
            draw(st.sampled_from(["none", "blocker", "all"])),
            draw(st.floats(-1.5, 1.5)), draw(st.integers(0, 3)),
            frozenset())


def _episode_features(cfg, disks, trace, calls):
    """What a batched run went through, from its trace and its monitor
    calls (first check tick, verdicts)."""
    per_check = max(1, int(round(cfg.control_hz / cfg.replan_hz)))
    max_ticks = int(np.ceil(cfg.max_time * cfg.control_hz))
    reach = replan.LOOKAHEAD * per_check        # ticks one batch covers
    last = calls[-1][0]
    features = set()
    if cfg.control_hz / cfg.replan_hz != per_check:
        features.add("non-integer ratio")
    if trace.reached_goal and len(trace.times) > last + per_check:
        features.add("goal inside a batch")
    if trace.timed_out and last + reach > max_ticks:
        features.add("max_time cuts a batch")
    if any(verdicts.any() and np.argmax(verdicts) > 0
           for _, verdicts in calls):
        features.add("violation predicted mid-batch")
    if np.any(trace.violation_flags):
        features.add("tracking")
    if np.any((trace.replan_events == 2) & (trace.violation_flags == 0)):
        features.add("infeasible search while nominal")
    if any(np.ptp(d.centers, axis=0).any() for d in disks):
        features.add("moving disk")
    return features


@settings(max_examples=50, deadline=None)
@given(case=_episode_cases())
@example(case=({"control_hz": 100.0, "replan_hz": 100.0 / 4.4,
                "total_time": 0.7, "window": 0.3, "max_time": 2.0}, [],
               "none", 1.0, 0,
               frozenset({"non-integer ratio", "goal inside a batch"})))
@example(case=({"control_hz": 100.0, "replan_hz": 10.0, "total_time": 2.0,
                "window": 0.3, "max_time": 0.75}, [], "none", 1.0, 0,
               frozenset({"max_time cuts a batch"})))
@example(case=({"control_hz": 100.0, "replan_hz": 20.0, "total_time": 1.0,
                "window": 0.3, "max_time": 2.0}, [upper_blocker()],
               "blocker", 1.0, 1,
               frozenset({"violation predicted mid-batch"})))
@example(case=({"control_hz": 100.0, "replan_hz": 20.0, "total_time": 1.0,
                "window": 0.3, "max_time": 1.5}, [upper_blocker()],
               "all", 1.0, 2,
               frozenset({"violation predicted mid-batch",
                          "infeasible search while nominal"})))
@example(case=({"control_hz": 150.0, "replan_hz": 150.0 / 7.0,
                "total_time": 1.0, "window": 0.4, "max_time": 2.0},
               [MovingDisk(times=[0.0, 0.5, 1.0],
                           centers=[[0.3, 0.6], [0.5, 0.15], [0.7, -0.3]],
                           radius=0.12)],
               "blocker", 0.8, 3, frozenset({"moving disk", "tracking"})))
def test_batched_episode_matches_per_tick_reference(case):
    fields, disks, floor, z0, seed, expect = case
    density, blocker_floor = _blocker_density()
    threshold = {"none": -np.inf, "blocker": blocker_floor,
                 "all": 1e9}[floor]
    cfg = ReplanConfig(threshold=threshold, **fields)
    constraint = constraint_from_script(disks)
    args = (BumpModel(), density, constraint, cfg)
    want = reference_run_episode(*args, seed=seed, z0=np.array([z0, 0.0]))
    calls = []
    monitor = replan.predict_violation

    def spy(model, constraint, z, taus, times, cfg):
        verdicts = monitor(model, constraint, z, taus, times, cfg)
        calls.append((int(round(times[0] * cfg.control_hz)), verdicts))
        return verdicts

    replan.predict_violation = spy
    try:
        got = run_episode(*args, seed=seed, z0=np.array([z0, 0.0]))
    finally:
        replan.predict_violation = monitor
    _assert_same_trace(got, want)
    # every block's start is checked, at most LOOKAHEAD checks a call
    per_check = max(1, int(round(cfg.control_hz / cfg.replan_hz)))
    checked = [first + k * per_check for first, verdicts in calls
               for k in range(len(verdicts))]
    blocks = range(0, len(got.times), per_check)
    assert set(blocks) <= set(checked)
    assert all(len(verdicts) <= replan.LOOKAHEAD for _, verdicts in calls)
    assert expect <= _episode_features(cfg, disks, got, calls)


def test_episode_drops_traceback_of_infeasible_search(monkeypatch):
    kept = []
    search = replan.solve_replan

    def keeping(*args):
        try:
            return search(*args)
        except ReplanInfeasibleError as exc:
            kept.append(exc)
            raise

    monkeypatch.setattr(replan, "solve_replan", keeping)
    cfg = ReplanConfig(total_time=1.0, window=0.4, control_hz=100.0,
                       replan_hz=10.0, threshold=1e9, max_time=1.5)
    trace = run_episode(BumpModel(), two_cluster_density(),
                        constraint_from_script([upper_blocker()]), cfg,
                        seed=2, z0=np.array([1.0, 0.0]))
    assert len(kept) == trace.n_infeasible >= 1
    assert all(exc.__traceback__ is None for exc in kept)
