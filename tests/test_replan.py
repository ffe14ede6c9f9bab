"""Virtual-time replanning loop: constraints, search, and episode traces."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from motionmanifold import replan
from motionmanifold.basis import BasisSet, CurveModel
from motionmanifold.density import GmmModel, kde_build
from motionmanifold.errors import ReplanInfeasibleError
from motionmanifold.replan import (DynamicConstraint, EpisodeTrace,
                                   MovingDisk, ReplanConfig, ReplanState,
                                   constraint_from_script, initial_latent,
                                   load_obstacle_script, predict_violation,
                                   run_episode, save_obstacle_script,
                                   solve_replan)
from motionmanifold.training import evaluate_batch


class BumpModel:
    """Linear stand-in decoder: z[0] scales an arc over (0,0) -> (1,0).

    The decoded curve is q(tau) = (tau, z0 * tau * (1 - tau)), so the apex
    height is z0 / 4 and every geometric question has a closed form.
    """

    def __init__(self, n_bases=8):
        basis = BasisSet.uniform(n_bases, mode="via-point")
        self.curve_model = CurveModel.via_point(
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
    dict(gain=0.0),
    dict(gain=1.5),
    dict(delta_back=-0.1),
    dict(candidate_budget=0),
    dict(max_time=0.0),
])
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        ReplanConfig(**kwargs)


def test_state_clips_phase_and_defaults_goal():
    state = ReplanState(z=[1.0, 2.0], tau=1.7)
    assert state.tau == 1.0
    assert np.array_equal(state.goal_z, state.z)
    assert ReplanState(z=[0.0], tau=-0.3).tau == 0.0


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


def test_obstacle_script_round_trip(tmp_path):
    disks = [upper_blocker(),
             MovingDisk(times=[0.0, 1.0], centers=[[0.0, 1.0], [1.0, 1.0]],
                        radius=0.05)]
    path = tmp_path / "script.json"
    save_obstacle_script(path, disks)
    back = load_obstacle_script(path)
    assert len(back) == 2
    for a, b in zip(back, disks):
        assert np.allclose(a.times, b.times)
        assert np.allclose(a.centers, b.centers)
        assert a.radius == b.radius


def test_constraint_tracks_scripted_motion():
    disk = MovingDisk(times=[0.0, 2.0], centers=[[0.0, 0.0], [2.0, 0.0]],
                      radius=0.5)
    c = constraint_from_script([disk])
    assert c([0.0, 0.0], 0.0) == pytest.approx(0.5)      # inside at t=0
    assert c([0.0, 0.0], 2.0) == pytest.approx(-1.5)     # disk moved away
    assert c([2.0, 0.0], 2.0) == pytest.approx(0.5)


def test_constraint_with_static_obstacles_and_empty_script():
    c = constraint_from_script([], static_obstacles=[([1.0, 0.0], 0.3)])
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


_coord = st.floats(-2.0, 2.0, allow_nan=False)


@st.composite
def _moving_disks(draw):
    n_way = draw(st.integers(1, 4))
    gaps = draw(st.lists(st.floats(0.1, 2.0), min_size=n_way,
                         max_size=n_way))
    centers = draw(st.lists(st.tuples(_coord, _coord), min_size=n_way,
                            max_size=n_way))
    return MovingDisk(times=np.cumsum(gaps) - 0.5, centers=centers,
                      radius=draw(st.floats(0.01, 1.0)))


_statics = st.lists(st.tuples(st.tuples(_coord, _coord),
                              st.floats(0.01, 1.0)), max_size=2)
_samples = st.lists(st.tuples(_coord, _coord, st.floats(-1.0, 6.0)),
                    min_size=1, max_size=8)


@settings(max_examples=60, deadline=None)
@given(disks=st.lists(_moving_disks(), max_size=3), statics=_statics,
       samples=_samples)
@example(disks=[], statics=[], samples=[(0.0, 0.0, 0.0), (1.0, 2.0, 3.0)])
@example(disks=[], statics=[((0.5, 0.5), 0.3), ((-1.0, 0.0), 0.2)],
         samples=[(0.5, 0.6, 0.0), (2.0, 2.0, 1.0)])
def test_batched_constraint_matches_per_point_calls(disks, statics,
                                                    samples):
    c = constraint_from_script(disks, static_obstacles=statics)
    points = np.array([s[:2] for s in samples])
    times = np.array([s[2] for s in samples])
    batched = c(points, times)
    assert batched.shape == (len(samples),)
    singles = [c(q, t) for q, t in zip(points, times)]
    assert all(isinstance(v, float) for v in singles)
    np.testing.assert_allclose(batched, singles, rtol=0.0, atol=1e-15)
    if not disks and not statics:
        assert np.all(batched == -1.0)
    # any leading shape: points (2, k, n) with times (2, k)
    grid = c(np.stack([points] * 2), np.stack([times] * 2))
    assert grid.shape == (2, len(samples))
    np.testing.assert_allclose(grid, [singles] * 2, rtol=0.0, atol=1e-15)


# -- violation prediction --------------------------------------------------


def test_prediction_looks_ahead_in_phase():
    model = BumpModel()
    cfg = ReplanConfig(total_time=2.0, window=0.3, control_hz=200.0,
                       replan_hz=10.0)
    constraint = constraint_from_script([upper_blocker()])
    near_start = ReplanState(z=np.array([1.0, 0.0]), tau=0.02)
    assert not predict_violation(near_start, model, constraint, 0.0, cfg)
    approaching = ReplanState(z=np.array([1.0, 0.0]), tau=0.25)
    assert predict_violation(approaching, model, constraint, 0.0, cfg)
    low_road = ReplanState(z=np.array([-1.0, 0.0]), tau=0.25)
    assert not predict_violation(low_road, model, constraint, 0.0, cfg)


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
    assert not predict_violation(state, model, constraint, 0.0, cfg)
    assert predict_violation(state, model, constraint, 2.0, cfg)


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
    assert predict_violation(state, model, constraint, 0.0, cfg)
    z_new, tau_new = solve_replan(state, model, density, constraint, 0.0,
                                  cfg, np.random.default_rng(1))
    assert state.tau - cfg.delta_back - 1e-12 <= tau_new <= state.tau
    assert z_new[0] < 0.3                        # dropped below the blocker
    assert density.logpdf(z_new) >= threshold
    after = ReplanState(z=z_new, tau=tau_new)
    assert not predict_violation(after, model, constraint, 0.0, cfg)


def test_replan_infeasible_reports_filter_counts():
    model = BumpModel()
    density = two_cluster_density()
    constraint = constraint_from_script([upper_blocker()])
    state = ReplanState(z=np.array([1.0, 0.0]), tau=0.15)
    # sole candidate is the current plan, which is exactly what failed
    cfg = ReplanConfig(total_time=2.0, window=0.6, control_hz=200.0,
                       replan_hz=10.0, threshold=-np.inf,
                       candidate_budget=1, tau_candidates=1)
    with pytest.raises(ReplanInfeasibleError) as err:
        solve_replan(state, model, density, constraint, 0.0, cfg,
                     np.random.default_rng(2))
    assert err.value.n_candidates == 1
    assert err.value.n_density_ok == 1
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
    tau_lo = max(tau - cfg.delta_back, 0.0)
    tau_grid = np.linspace(tau, tau_lo, cfg.tau_candidates) \
        if cfg.tau_candidates > 1 else np.array([tau])
    z_cands = replan._candidate_latents(state, density, cfg, rng)
    n_z = len(z_cands)
    log_dens = np.atleast_1d(density.logpdf(z_cands))
    stacks = model.decode_many(z_cands)

    pair_obj = []
    for iz in range(n_z):
        dz2 = float(np.sum((z_cands[iz] - state.z) ** 2))
        for it, tp in enumerate(tau_grid):
            obj = dz2 + cfg.alpha_time * (tau - tp) ** 2
            pair_obj.append((obj, iz, it))
    order = sorted(range(len(pair_obj)), key=lambda i: (pair_obj[i][0], i))

    eta = np.linspace(0.0, 1.0, cfg.eta_points)
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
            grid = np.linspace(tp, hi, cfg.window_resolution)
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
        for j in range(cfg.eta_points):
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


def test_batched_search_matches_sequential_reference():
    model = BumpModel()
    gmm = two_cluster_density()
    kde = kde_build(np.random.default_rng(0).normal(
        [[1.0, 0.0]] * 15 + [[-1.0, 0.0]] * 15, 0.4))
    sweeper = MovingDisk(times=[0.0, 1.0, 2.0],
                         centers=[[0.3, 0.6], [0.5, 0.1], [0.7, -0.4]],
                         radius=0.15)
    scripts = [[upper_blocker()], [upper_blocker(), sweeper], [sweeper]]
    setup = np.random.default_rng(42)
    kinds = set()
    for case in range(20):
        density = gmm if case % 2 == 0 else kde
        floor = density.logpdf(np.zeros(2)) + setup.choice([-1.0, -0.5, 0.5])
        cfg = ReplanConfig(total_time=2.0, window=0.6, control_hz=200.0,
                           replan_hz=10.0, candidate_budget=120,
                           threshold=floor if case % 5 else -np.inf)
        constraint = constraint_from_script(scripts[case % 3])
        # upper-arc plans heading into the blockers
        state = ReplanState(z=[setup.uniform(0.5, 1.5),
                               setup.uniform(-0.3, 0.3)],
                            tau=setup.uniform(0.05, 0.35))
        t_now = setup.uniform(0.0, 1.0)
        args = (model, density, constraint, t_now, cfg)
        want = _search_outcome(reference_solve_replan, state, *args,
                               np.random.default_rng(case))
        got = _search_outcome(solve_replan, state, *args,
                              np.random.default_rng(case))
        assert got == want, case
        moved = want[0] == "ok" and want[1] != state.z.tobytes()
        kinds.add("moved" if moved else want[0])
    assert kinds >= {"moved", "infeasible"}


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
    with pytest.raises(ReplanInfeasibleError):
        initial_latent(density, ReplanConfig(threshold=1e9),
                       np.random.default_rng(6), max_attempts=50)


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
                       replan_hz=10.0, threshold=threshold, delta_back=0.0)
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
    back = EpisodeTrace.load_csv(path)
    assert np.allclose(back.times, trace.times, atol=1e-6)
    assert np.allclose(back.taus, trace.taus, atol=1e-9)
    assert np.allclose(back.latents, trace.latents, rtol=1e-8)
    assert np.allclose(back.points, trace.points, rtol=1e-8, atol=1e-12)
    assert np.allclose(back.constraint_values, trace.constraint_values,
                       rtol=1e-8)
    assert np.array_equal(back.replan_events, trace.replan_events)
    assert back.n_replans == trace.n_replans
    assert back.reached_goal == trace.reached_goal
    assert back.timed_out == trace.timed_out


def test_trace_csv_round_trip_keeps_timeout(tmp_path):
    model = BumpModel()
    density = two_cluster_density()
    cfg = ReplanConfig(total_time=1.0, window=0.1, control_hz=100.0,
                       replan_hz=10.0, threshold=-np.inf, max_time=0.3)
    trace = run_episode(model, density, constraint_from_script([]), cfg,
                        seed=4, z0=np.array([0.5, -0.2]))
    assert trace.timed_out and not trace.reached_goal
    path = tmp_path / "trace.csv"
    trace.save_csv(path)
    back = EpisodeTrace.load_csv(path)
    assert back.timed_out and not back.reached_goal


def test_dynamic_constraint_wraps_plain_callables():
    c = DynamicConstraint(evaluator=lambda q, t: q[0] - t)
    assert c(np.array([3.0, 0.0]), 1.0) == 2.0
    assert isinstance(c([1.0, 0.0], 0.5), float)
