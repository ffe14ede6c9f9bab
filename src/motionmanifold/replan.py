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

from .basis import evaluate_batch
from .errors import ReplanInfeasibleError


@dataclass
class ReplanConfig:
    total_time: float = 5.0          # seconds for tau to traverse [0, 1]
    window: float = 1.0              # lookahead seconds
    gain: float = 0.05
    control_hz: float = 1000.0
    replan_hz: float = 10.0
    alpha_time: float = 100.0
    delta_back: float = 0.05
    threshold: float = -np.inf       # latent log-density floor
    window_resolution: int = 20
    candidate_budget: int = 512
    eta_points: int = 11
    tau_candidates: int = 5
    max_time: float = None           # virtual-time cap, default 3 * T

    def __post_init__(self):
        if self.replan_hz >= self.control_hz:
            raise ValueError("replan_hz must be below control_hz")
        if self.window <= 0:
            raise ValueError("window must be positive")
        if self.total_time <= 0:
            raise ValueError("total_time must be positive")
        if not 0 < self.gain <= 1:
            raise ValueError("gain must be in (0, 1]")
        if self.delta_back < 0:
            raise ValueError("delta_back must be nonnegative")
        if self.candidate_budget < 1:
            raise ValueError("candidate_budget must be at least 1")
        if self.max_time is None:
            self.max_time = 3.0 * self.total_time
        if self.max_time <= 0:
            raise ValueError("max_time must be positive")


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
    """

    evaluator: callable

    def __call__(self, q, t):
        q = np.asarray(q, dtype=float)
        depth = self.evaluator(q, np.asarray(t, dtype=float))
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
        if len(self.times) != len(self.centers):
            raise ValueError("one center waypoint per time stamp required")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("waypoint times must be strictly increasing")
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    def center_at(self, t):
        """Center at times t of shape (...); returns shape (..., n)."""
        return np.stack([np.interp(t, self.times, self.centers[:, d])
                         for d in range(self.centers.shape[1])], axis=-1)

    def to_dict(self):
        return {"times": self.times.tolist(),
                "centers": self.centers.tolist(),
                "radius": self.radius}

    @classmethod
    def from_dict(cls, data):
        return cls(times=np.array(data["times"], dtype=float),
                   centers=np.array(data["centers"], dtype=float),
                   radius=float(data["radius"]))


def save_obstacle_script(path, disks):
    with open(path, "w") as fh:
        json.dump([d.to_dict() for d in disks], fh, indent=1)


def load_obstacle_script(path):
    with open(path) as fh:
        return [MovingDisk.from_dict(d) for d in json.load(fh)]


def constraint_from_script(disks, static_obstacles=()):
    """Penetration depth of the worst obstacle; positive means collision.

    The field is batched over points (..., n) and times (...) and returns
    depths (...); with no obstacle at all every depth is -1.  Each static
    obstacle (center, radius) is a one-waypoint MovingDisk.
    """
    obstacles = list(disks) + [MovingDisk(times=[0.0], centers=[c],
                                          radius=r)
                               for c, r in static_obstacles]

    def evaluator(q, t):
        if not obstacles:
            return np.full(np.broadcast_shapes(q.shape[:-1], t.shape), -1.0)
        worst = None
        for disk in obstacles:
            diff = (q - disk.center_at(t))[..., None, :]
            # a row-times-column product per point: the same dot product,
            # bit for bit, as np.linalg.norm of a single point
            dist = np.sqrt((diff @ np.swapaxes(diff, -1, -2))[..., 0, 0])
            depth = disk.radius - dist
            worst = depth if worst is None else np.maximum(worst, depth)
        return worst

    return DynamicConstraint(evaluator=evaluator)


def _window(tau, cfg):
    """Phase grid over the lookahead window that starts at tau."""
    hi = min(tau + cfg.window / cfg.total_time, 1.0)
    return np.linspace(tau, hi, cfg.window_resolution)


def predict_violation(state, model, constraint, t_now, cfg):
    """True if the current plan violates the constraint inside the window.

    Window phases map to the future wall-times their phase distance
    implies at the nominal rate.
    """
    grid = _window(state.tau, cfg)
    points = model.curve_points(state.z, grid)
    times = t_now + (grid - state.tau) * cfg.total_time
    return bool(np.any(constraint(points, times) > 0))


def _candidate_latents(state, density, cfg, rng):
    n_z = max(1, cfg.candidate_budget // max(cfg.tau_candidates, 1))
    n_density = (n_z - 1) // 2
    n_perturb = n_z - 1 - n_density
    cands = [state.z[None, :]]
    if n_density > 0:
        cands.append(np.atleast_2d(density.sample(rng, count=n_density)))
    if n_perturb > 0:
        spread = np.std(np.atleast_2d(density.sample(rng, count=64)),
                        axis=0)
        scales = np.array([0.1, 0.3, 1.0])
        per = [n_perturb // 3] * 3
        per[0] += n_perturb - 3 * (n_perturb // 3)
        noise = []
        for s, cnt in zip(scales, per):
            if cnt > 0:
                noise.append(state.z + s * spread
                             * rng.standard_normal((cnt, state.z.size)))
        cands.append(np.concatenate(noise, axis=0))
    return np.concatenate(cands, axis=0)


def solve_replan(state, model, density, constraint, t_now, cfg, rng):
    """Sampling-based search for the nearest feasible (z', tau').

    Candidates are checked in ascending-objective order; the first one
    satisfying all four constraints wins, which equals the feasible
    arg-min with ties broken toward the lowest candidate index.  The
    density and window checks run for every pair up front, one
    evaluate_batch and one constraint call per tau'; the eta path check
    runs per pair in objective order until one passes.
    """
    tau = state.tau
    tau_lo = max(tau - cfg.delta_back, 0.0)
    tau_grid = np.linspace(tau, tau_lo, cfg.tau_candidates) \
        if cfg.tau_candidates > 1 else np.array([tau])
    z_cands = _candidate_latents(state, density, cfg, rng)
    log_dens = np.atleast_1d(density.logpdf(z_cands))
    stacks = model.decode_many(z_cands)          # (n_z, n, B)

    dz2 = np.sum((z_cands - state.z) ** 2, axis=1)
    pair_obj = dz2[:, None] + cfg.alpha_time * (tau - tau_grid) ** 2
    order = np.argsort(pair_obj.ravel(), kind="stable")

    density_ok = log_dens >= cfg.threshold
    window_ok = np.zeros(pair_obj.shape, dtype=bool)
    for it, tp in enumerate(tau_grid):
        grid = _window(tp, cfg)
        pts = evaluate_batch(model.curve_model, stacks[density_ok], grid)
        times = t_now + (grid - tp) * cfg.total_time
        window_ok[density_ok, it] = ~np.any(constraint(pts, times) > 0,
                                            axis=1)

    eta = np.linspace(0.0, 1.0, cfg.eta_points)
    diag = np.arange(cfg.eta_points)
    n_tau = len(tau_grid)
    for rank in order:
        iz, it = divmod(int(rank), n_tau)
        if not window_ok[iz, it]:
            continue
        tp = float(tau_grid[it])
        z_path = eta[:, None] * state.z + (1.0 - eta)[:, None] * z_cands[iz]
        path_dens = np.atleast_1d(density.logpdf(z_path))
        if np.any(path_dens < cfg.threshold):
            continue
        # path point j is decoded from z_path[j] and evaluated at its own
        # phase, i.e. the diagonal of the all-pairs evaluation
        tau_path = eta * tau + (1.0 - eta) * tp
        pts = evaluate_batch(model.curve_model, model.decode_many(z_path),
                             tau_path)[diag, diag]
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

    @classmethod
    def load_csv(cls, path):
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            m = sum(1 for h in header if h.startswith("z"))
            n = sum(1 for h in header if h.startswith("q"))
            rows = [row for row in reader]
        times = np.array([float(r[0]) for r in rows])
        taus = np.array([float(r[1]) for r in rows])
        latents = np.array([[float(v) for v in r[2:2 + m]] for r in rows])
        points = np.array([[float(v) for v in r[2 + m:2 + m + n]]
                           for r in rows])
        cons = np.array([float(r[2 + m + n]) for r in rows])
        cv = np.array([int(r[3 + m + n]) for r in rows])
        events = np.array([int(r[4 + m + n]) for r in rows])
        # run_episode stops early only at tau = 1 with no active replan
        reached = bool(taus[-1] >= 1.0 - 1e-9 and cv[-1] == 0)
        return cls(times=times, taus=taus, latents=latents, points=points,
                   constraint_values=cons, violation_flags=cv,
                   replan_events=events,
                   n_replans=int(np.sum(events == 1)),
                   n_infeasible=int(np.sum(events == 2)),
                   reached_goal=reached, timed_out=not reached)


def initial_latent(density, cfg, rng, max_attempts=10000):
    """Density draw honoring the episode's own log-density floor."""
    if not np.isfinite(cfg.threshold):
        return np.asarray(density.sample(rng), dtype=float)
    for _ in range(max_attempts):
        z = np.asarray(density.sample(rng), dtype=float)
        if density.logpdf(z) >= cfg.threshold:
            return z
    raise ReplanInfeasibleError(n_candidates=max_attempts, n_density_ok=0,
                                n_window_ok=0)


def run_episode(model, density, constraint, cfg, seed=0, z0=None):
    """Simulate the dual-frequency loop; returns the per-tick trace.

    A replan search that comes up empty is recorded (event code 2) and the
    previous goal, if any, keeps being tracked; the episode itself never
    raises for it.
    """
    rng = np.random.default_rng(seed)
    z = np.asarray(z0, dtype=float) if z0 is not None \
        else initial_latent(density, cfg, rng)
    state = ReplanState(z=z.copy(), tau=0.0)
    dt = 1.0 / cfg.control_hz
    dtau = 1.0 / (cfg.control_hz * cfg.total_time)
    ticks_per_replan = max(1, int(round(cfg.control_hz / cfg.replan_hz)))
    max_ticks = int(np.ceil(cfg.max_time * cfg.control_hz))

    # per-tick buffers; the constraint column is filled in one field call
    # once the episode ends
    times = np.empty(max_ticks)
    taus = np.empty(max_ticks)
    latents = np.empty((max_ticks, state.z.size))
    points = np.empty((max_ticks, model.curve_model.dim))
    flags = np.zeros(max_ticks, dtype=int)
    events = np.zeros(max_ticks, dtype=int)
    n_replans = 0
    n_infeasible = 0
    reached = False
    for tick in range(max_ticks):
        t_now = tick * dt
        if tick % ticks_per_replan == 0:
            if predict_violation(state, model, constraint, t_now, cfg):
                try:
                    goal_z, goal_tau = solve_replan(
                        state, model, density, constraint, t_now, cfg, rng)
                    state.goal_z = goal_z
                    state.goal_tau = goal_tau
                    state.violated = True
                    n_replans += 1
                    events[tick] = 1
                except ReplanInfeasibleError:
                    n_infeasible += 1
                    events[tick] = 2
            else:
                state.violated = False
        if state.violated:
            state.z = state.z + cfg.gain * (state.goal_z - state.z)
            state.tau = state.tau + cfg.gain * (state.goal_tau - state.tau)
        else:
            state.tau = min(state.tau + dtau, 1.0)
        q = model.curve_points(state.z, np.array([state.tau]))[0]
        times[tick] = t_now
        taus[tick] = state.tau
        latents[tick] = state.z
        points[tick] = q
        flags[tick] = state.violated
        if state.tau >= 1.0 - 1e-12 and not state.violated:
            reached = True
            break
    # Rebind every buffer to its compact copy: a caller that keeps an
    # infeasible-search exception keeps this frame alive through its
    # traceback, and with it whatever these names hold.
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
