"""Online iterative replanning of latent trajectories in virtual time.

A controller advances the phase at f_c while a monitor at f_p checks the
currently planned curve against time-varying constraints over a lookahead
window.  On predicted violation it searches, sampling-based, for a new
(z', tau') that is feasible over the window, stays in-distribution, and
is reachable along a straight latent segment, then the controller tracks
that goal with a first-order gain.  Everything runs on one deterministic
virtual clock; no wall-clock time is involved.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .basis import evaluate_batch, evaluate_rows
from .errors import NonFiniteError, ReplanInfeasibleError

# phases sampled over one lookahead window, and latents sampled along the
# straight eta path from the current z to a candidate z'
WINDOW_RESOLUTION = 20
ETA_POINTS = 11
# the search pairs CANDIDATE_BUDGET // TAU_CANDIDATES latents z' with
# TAU_CANDIDATES phases tau' from tau back to tau - DELTA_BACK, and ranks
# the pairs by |z' - z|^2 + ALPHA_TIME (tau - tau')^2
CANDIDATE_BUDGET = 512
TAU_CANDIDATES = 5
DELTA_BACK = 0.05
ALPHA_TIME = 100.0
TRACKING_GAIN = 0.05             # per-tick gain toward a replanned goal
INITIAL_ATTEMPTS = 10000         # density draws initial_latent may try


@dataclass
class ReplanConfig:
    total_time: float = 5.0          # seconds for tau to traverse [0, 1]
    window: float = 1.0              # lookahead seconds
    control_hz: float = 1000.0
    replan_hz: float = 10.0
    threshold: float = -np.inf       # latent log-density floor
    max_time: float = None           # virtual-time cap, default 3 * T

    def __post_init__(self):
        if not 0 < self.replan_hz < self.control_hz:
            raise ValueError("replan_hz must be positive and below "
                             "control_hz")
        if not self.window > 0:            # NaN fails every comparison
            raise ValueError("window must be positive")
        if not 0 < self.total_time < np.inf:
            raise ValueError("total_time must be finite and positive")
        if self.max_time is None:
            self.max_time = 3.0 * self.total_time
        if not 0 < self.max_time < np.inf:
            raise ValueError("max_time must be finite and positive")


@dataclass
class ReplanState:
    z: np.ndarray
    tau: float = 0.0
    goal_z: np.ndarray = None
    goal_tau: float = 0.0
    violated: bool = False

    def __post_init__(self):
        self.z = np.asarray(self.z, dtype=float)
        self.tau = float(np.clip(self.tau, 0.0, 1.0))
        if self.goal_z is None:
            self.goal_z = self.z.copy()


@dataclass
class DynamicConstraint:
    """Feasibility field C(q, t) <= 0; deterministic in both arguments.

    The evaluator is batched: it takes points of shape (..., n) and times
    that broadcast against shape (...), and returns penetration depths of
    shape (...).  Calling with one point of shape (n,) returns a float.
    A NaN or infinite point or time raises NonFiniteError: its depth would
    be NaN, and NaN > 0 is False, so it would read as clear.
    """

    evaluator: callable

    def __call__(self, q, t):
        q = np.asarray(q, dtype=float)
        t = np.asarray(t, dtype=float)
        for name, values in (("point", q), ("time", t)):
            if not np.isfinite(values).all():
                raise NonFiniteError(
                    f"feasibility field got a non-finite {name}")
        depth = self.evaluator(q, t)
        return float(depth) if q.ndim == 1 else np.asarray(depth,
                                                           dtype=float)


@dataclass
class MovingDisk:
    """Disk obstacle whose center tracks timed waypoints piecewise-linearly.

    A single waypoint makes a static disk.
    """

    times: np.ndarray
    centers: np.ndarray
    radius: float

    def __post_init__(self):
        self.times = np.atleast_1d(np.asarray(self.times, dtype=float))
        self.centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        # a NaN would give NaN depths, and NaN > 0 reads as clear
        for name in ("times", "centers", "radius"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"MovingDisk {name} must be finite")
        if len(self.times) != len(self.centers):
            raise ValueError("one center waypoint per time stamp required")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("waypoint times must be strictly increasing")
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    def center_at(self, t):
        """Center at times t of shape (...); returns shape (..., n)."""
        shape = np.shape(t) + self.centers[0].shape
        if len(self.times) == 1:
            return np.full(shape, self.centers[0])
        center = np.empty(shape)
        for d in range(shape[-1]):
            center[..., d] = np.interp(t, self.times, self.centers[:, d])
        return center

    def to_dict(self):
        return {"times": self.times.tolist(),
                "centers": self.centers.tolist(),
                "radius": self.radius}


def save_obstacle_script(path, disks):
    with open(path, "w") as fh:
        json.dump([d.to_dict() for d in disks], fh, indent=1)


def constraint_from_script(disks):
    """Penetration depth of the worst obstacle; positive means collision.

    The field is batched over points (..., n) and times (...) and returns
    depths (...); with no obstacle at all every depth is -1.  A static
    obstacle is a one-waypoint MovingDisk.
    """
    obstacles = list(disks)

    def evaluator(q, t):
        shape = np.broadcast_shapes(q.shape[:-1], t.shape)
        if not obstacles:
            return np.full(shape, -1.0)
        worst, depth, term = (np.empty(shape) for _ in range(3))
        for k, disk in enumerate(obstacles):
            if disk.centers.shape[1] != q.shape[-1]:
                raise ValueError(f"{q.shape[-1]}-D points against a "
                                 f"{disk.centers.shape[1]}-D obstacle")
            center = disk.center_at(t)
            out = depth if k else worst
            # radius - sqrt(sum_d (q_d - c_d)^2), in place, summed in
            # coordinate order; every step is elementwise, so one point
            # and a batch holding it get the same depth bit for bit
            np.subtract(q[..., 0], center[..., 0], out=out)
            np.multiply(out, out, out=out)
            for d in range(1, q.shape[-1]):
                np.subtract(q[..., d], center[..., d], out=term)
                np.multiply(term, term, out=term)
                out += term
            np.sqrt(out, out=out)
            np.subtract(disk.radius, out, out=out)
            if k:
                np.maximum(worst, depth, out=worst)
        return worst

    return DynamicConstraint(evaluator=evaluator)


def _window(tau, cfg):
    """Phase grid over the lookahead window that starts at tau."""
    hi = min(tau + cfg.window / cfg.total_time, 1.0)
    return np.linspace(tau, hi, WINDOW_RESOLUTION)


def predict_violation(state, model, constraint, t_now, cfg):
    """True if the current plan violates the constraint inside the window.

    Window phases map to the future wall-times their phase distance
    implies at the nominal rate.
    """
    grid = _window(state.tau, cfg)
    points = model.curve_points(state.z, grid)
    times = t_now + (grid - state.tau) * cfg.total_time
    return bool(np.any(constraint(points, times) > 0))


def _candidate_latents(state, density, rng):
    n_z = CANDIDATE_BUDGET // TAU_CANDIDATES
    n_density = (n_z - 1) // 2
    n_perturb = n_z - 1 - n_density
    cands = [state.z[None, :],
             np.atleast_2d(density.sample(rng, count=n_density))]
    spread = np.std(np.atleast_2d(density.sample(rng, count=64)), axis=0)
    per = [n_perturb // 3] * 3
    per[0] += n_perturb - 3 * (n_perturb // 3)
    for s, cnt in zip((0.1, 0.3, 1.0), per):
        cands.append(state.z + s * spread
                     * rng.standard_normal((cnt, state.z.size)))
    return np.concatenate(cands, axis=0)


def solve_replan(state, model, density, constraint, t_now, cfg, rng):
    """Sampling-based search for the nearest feasible (z', tau').

    Candidates are checked in ascending-objective order; the first one
    satisfying all four constraints wins, which equals the feasible
    arg-min with ties broken toward the lowest candidate index.  The
    density and window checks run for every pair up front: one all-pairs
    evaluate_batch over the windows of every tau' and one constraint
    call.  The eta path check then runs per pair in objective order until
    one passes.  The path's latents depend on z' alone, so its density
    check and its decoding run once per z'; each pair adds one row-wise
    evaluate_rows call and one constraint call: path point j is the curve
    decoded from z_path[j] at its own phase tau_path[j].
    """
    tau = state.tau
    tau_lo = max(tau - DELTA_BACK, 0.0)
    tau_grid = np.linspace(tau, tau_lo, TAU_CANDIDATES)
    z_cands = _candidate_latents(state, density, rng)
    log_dens = np.atleast_1d(density.logpdf(z_cands))
    stacks = model.decode_many(z_cands)          # (n_z, n, B)

    dz2 = np.sum((z_cands - state.z) ** 2, axis=1)
    pair_obj = dz2[:, None] + ALPHA_TIME * (tau - tau_grid) ** 2
    order = np.argsort(pair_obj.ravel(), kind="stable")

    density_ok = log_dens >= cfg.threshold
    grids = np.stack([_window(tp, cfg) for tp in tau_grid])   # (n_tau, R)
    times = t_now + (grids - tau_grid[:, None]) * cfg.total_time
    pts = evaluate_batch(model.curve_model, stacks[density_ok],
                         grids.ravel())
    pts = pts.reshape(pts.shape[0], *grids.shape, pts.shape[-1])
    window_ok = np.zeros(pair_obj.shape, dtype=bool)
    window_ok[density_ok] = ~np.any(constraint(pts, times) > 0, axis=2)

    eta = np.linspace(0.0, 1.0, ETA_POINTS)
    n_tau = len(tau_grid)
    paths = {}    # iz -> decoded eta path, None below the density floor
    for rank in order:
        iz, it = divmod(int(rank), n_tau)
        if not window_ok[iz, it]:
            continue
        if iz not in paths:
            z_path = (eta[:, None] * state.z
                      + (1.0 - eta)[:, None] * z_cands[iz])
            path_dens = np.atleast_1d(density.logpdf(z_path))
            paths[iz] = None if np.any(path_dens < cfg.threshold) \
                else model.decode_many(z_path)
        if paths[iz] is None:
            continue
        tp = float(tau_grid[it])
        tau_path = eta * tau + (1.0 - eta) * tp
        pts = evaluate_rows(model.curve_model, paths[iz], tau_path)
        if not np.any(constraint(pts, t_now) > 0):
            return z_cands[iz].copy(), tp
    raise ReplanInfeasibleError(n_candidates=pair_obj.size,
                                n_density_ok=int(np.sum(density_ok)),
                                n_window_ok=int(np.sum(window_ok)))


@dataclass
class EpisodeTrace:
    times: np.ndarray
    taus: np.ndarray
    latents: np.ndarray          # (N, m)
    points: np.ndarray           # (N, n)
    constraint_values: np.ndarray
    violation_flags: np.ndarray  # c_v per tick
    replan_events: np.ndarray    # 0 none, 1 replan accepted, 2 infeasible
    n_replans: int = 0
    n_infeasible: int = 0
    reached_goal: bool = False
    timed_out: bool = False

    @property
    def max_constraint(self):
        return float(np.max(self.constraint_values))

    def save_csv(self, path):
        m = self.latents.shape[1]
        n = self.points.shape[1]
        header = (["t", "tau"] + [f"z{i}" for i in range(m)]
                  + [f"q{i}" for i in range(n)]
                  + ["constraint", "c_v", "replan_event"])
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for i in range(len(self.times)):
                row = [f"{self.times[i]:.6f}", f"{self.taus[i]:.9f}"]
                row += [f"{v:.9e}" for v in self.latents[i]]
                row += [f"{v:.9e}" for v in self.points[i]]
                row += [f"{self.constraint_values[i]:.9e}",
                        int(self.violation_flags[i]),
                        int(self.replan_events[i])]
                writer.writerow(row)


def initial_latent(density, cfg, rng):
    """Density draw honoring the episode's own log-density floor."""
    if not np.isfinite(cfg.threshold):
        return np.asarray(density.sample(rng), dtype=float)
    for _ in range(INITIAL_ATTEMPTS):
        z = np.asarray(density.sample(rng), dtype=float)
        if density.logpdf(z) >= cfg.threshold:
            return z
    raise ReplanInfeasibleError(n_candidates=INITIAL_ATTEMPTS,
                                n_density_ok=0, n_window_ok=0)


def run_episode(model, density, constraint, cfg, seed=0, z0=None):
    """Simulate the dual-frequency loop; returns the per-tick trace.

    Ticks run in blocks from one replan check to the next.  A block's
    (z, tau) updates follow the rule fixed at its check and run first;
    its points are then decoded and evaluated together: a tracking block
    decodes one curve per tick and evaluates it row-wise at that tick's
    phase, a nominal block evaluates its one curve at all its phases.

    A replan search that comes up empty is recorded (event code 2) and the
    previous goal, if any, keeps being tracked; the episode itself never
    raises for it.
    """
    rng = np.random.default_rng(seed)
    z = np.asarray(z0, dtype=float) if z0 is not None \
        else initial_latent(density, cfg, rng)
    state = ReplanState(z=z.copy(), tau=0.0)
    curve = model.curve_model
    dt = 1.0 / cfg.control_hz
    dtau = 1.0 / (cfg.control_hz * cfg.total_time)
    ticks_per_replan = max(1, int(round(cfg.control_hz / cfg.replan_hz)))
    max_ticks = int(np.ceil(cfg.max_time * cfg.control_hz))

    # per-tick buffers; the constraint column is filled in one field call
    # once the episode ends
    times = np.empty(max_ticks)
    taus = np.empty(max_ticks)
    latents = np.empty((max_ticks, state.z.size))
    points = np.empty((max_ticks, curve.dim))
    flags = np.zeros(max_ticks, dtype=int)
    events = np.zeros(max_ticks, dtype=int)
    n_replans = 0
    n_infeasible = 0
    reached = False
    for start in range(0, max_ticks, ticks_per_replan):
        if predict_violation(state, model, constraint, start * dt, cfg):
            try:
                goal_z, goal_tau = solve_replan(
                    state, model, density, constraint, start * dt, cfg, rng)
                state.goal_z = goal_z
                state.goal_tau = goal_tau
                state.violated = True
                n_replans += 1
                events[start] = 1
            except ReplanInfeasibleError as exc:
                n_infeasible += 1
                events[start] = 2
                # a kept traceback would pin the search frame and, through
                # f_back, every caller's frame with whatever they hold
                exc.__traceback__ = None
        else:
            state.violated = False
        # per-tick updates on Python floats: the same IEEE operations as
        # on the arrays, without numpy's per-call cost
        z, goal_z = state.z.tolist(), state.goal_z.tolist()
        tau, goal_tau = state.tau, float(state.goal_tau)
        rows = []
        for tick in range(start, min(start + ticks_per_replan, max_ticks)):
            if state.violated:
                z = [zc + TRACKING_GAIN * (gc - zc)
                     for zc, gc in zip(z, goal_z)]
                tau = tau + TRACKING_GAIN * (goal_tau - tau)
                rows.append(z)
            else:
                tau = min(tau + dtau, 1.0)
            taus[tick] = tau
            if tau >= 1.0 - 1e-12 and not state.violated:
                reached = True
                break
        block = slice(start, tick + 1)
        state.tau = tau
        times[block] = np.arange(start, tick + 1) * dt
        flags[block] = state.violated
        if state.violated:
            state.z = np.array(z)
            latents[block] = rows
            # one decoded curve per tick, each evaluated at its own phase
            points[block] = evaluate_rows(
                curve, model.decode_many(latents[block]), taus[block])
        else:
            latents[block] = state.z
            points[block] = evaluate_batch(
                curve, model.decode_many(state.z[None]), taus[block])[0]
        if reached:
            break
    # Rebind every buffer to a compact copy: the buffers are sized for
    # max_time, and a slice would keep the whole buffer alive through its
    # base for as long as the trace lives.
    k = tick + 1
    times, taus, latents, points, flags, events = (
        buf[:k].copy()
        for buf in (times, taus, latents, points, flags, events))
    return EpisodeTrace(times=times, taus=taus, latents=latents,
                        points=points,
                        constraint_values=constraint(points, times),
                        violation_flags=flags, replan_events=events,
                        n_replans=n_replans, n_infeasible=n_infeasible,
                        reached_goal=reached, timed_out=not reached)
