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
# run_episode makes the checks of up to LOOKAHEAD blocks in one call
LOOKAHEAD = 10
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
        if not self.threshold < np.inf:    # -inf means no floor
            raise ValueError("threshold must be below inf")
        if self.max_time is None:
            self.max_time = 3.0 * self.total_time
        if not 0 < self.max_time < np.inf:
            raise ValueError("max_time must be finite and positive")


@dataclass
class ReplanState:
    z: np.ndarray
    tau: float = 0.0

    def __post_init__(self):
        self.z = np.asarray(self.z, dtype=float)
        # np.clip keeps a NaN phase, which would fail deep in the search
        for name in ("z", "tau"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise NonFiniteError(f"replan state {name} must be finite")
        self.tau = float(np.clip(self.tau, 0.0, 1.0))


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


def squared_distance(planes, center, out, term):
    """sum_c (planes[c] - center[..., c])^2 into out, summed in coordinate
    order; planes[c] holds coordinate c of every point, term is scratch.

    Every step is elementwise and in place, so one point and a batch
    holding it get the same distance bit for bit.
    """
    if center.shape[-1] != len(planes):
        raise ValueError(f"{len(planes)}-D points against a "
                         f"{center.shape[-1]}-D obstacle")
    np.subtract(planes[0], center[..., 0], out=out)
    np.multiply(out, out, out=out)
    for c in range(1, len(planes)):
        np.subtract(planes[c], center[..., c], out=term)
        np.multiply(term, term, out=term)
        out += term
    return out


def constraint_from_script(disks):
    """Penetration depth of the worst obstacle; positive means collision.

    The field is batched over points (..., n) and times (...) and returns
    depths (...); with no obstacle at all every depth is -1.  A static
    obstacle is a one-waypoint MovingDisk.  A depth is radius - sqrt(d)
    for the squared distance d of squared_distance, so it is positive
    exactly when d < t for the smallest double t whose square root rounds
    to at least the radius (the threshold success_rate tests).
    """
    obstacles = list(disks)

    def evaluator(q, t):
        shape = np.broadcast_shapes(q.shape[:-1], t.shape)
        if not obstacles:
            return np.full(shape, -1.0)
        planes = [q[..., c] for c in range(q.shape[-1])]
        worst, depth, term = (np.empty(shape) for _ in range(3))
        for k, disk in enumerate(obstacles):
            out = squared_distance(planes, disk.center_at(t),
                                   depth if k else worst, term)
            np.sqrt(out, out=out)
            np.subtract(disk.radius, out, out=out)
            if k:
                np.maximum(worst, depth, out=worst)
        return worst

    return DynamicConstraint(evaluator=evaluator)


def _window_clashes(curve, stacks, taus, times, constraint, cfg):
    """(N, K) verdicts: does curve n of stacks (N, n, B) violate the
    constraint in the lookahead window that starts at phase taus[k] and
    wall-time times[k]?

    Window phases map to the future wall-times their phase distance
    implies at the nominal rate.  All N x K windows are evaluated in one
    evaluate_batch call and checked in one field call.
    """
    taus = np.asarray(taus, dtype=float)
    grids = np.linspace(taus, np.minimum(taus + cfg.window / cfg.total_time,
                                         1.0), WINDOW_RESOLUTION, axis=1)
    times = (np.asarray(times, dtype=float)[:, None]
             + (grids - taus[:, None]) * cfg.total_time)
    points = evaluate_batch(curve, stacks, grids.ravel())
    points = points.reshape(len(points), *grids.shape, points.shape[-1])
    return np.any(constraint(points, times) > 0, axis=2)


def predict_violation(model, constraint, z, taus, times, cfg):
    """Per check, True if the plan z violates the constraint in its window.

    Check k starts its window at phase taus[k] and wall-time times[k].
    The field is deterministic in (q, t), so a check made ahead of its
    tick gives the verdict it would give on time.
    """
    return _window_clashes(model.curve_model, model.decode_many(z), taus,
                           times, constraint, cfg)[0]


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
    arg-min with ties broken toward the lowest candidate index.  Each
    check sees only what the one before let through: one density call
    scores every z'; the z' above the floor are decoded in one call and
    their windows at every tau' checked in one all-pairs evaluate_batch
    and one constraint call; the window-clear pairs are walked in
    objective order.  An eta path depends on z' alone: the first z'
    reached is scored alone, the next one scores the paths of every
    window-clear z' left in one call, and a path is decoded once, when a
    pair of its z' is reached.  Each pair adds one row-wise evaluate_rows
    call and one constraint call: path point j is the curve decoded from
    z_path[j] at its own phase tau_path[j].
    """
    tau = state.tau
    tau_lo = max(tau - DELTA_BACK, 0.0)
    tau_grid = np.linspace(tau, tau_lo, TAU_CANDIDATES)
    z_cands = _candidate_latents(state, density, rng)
    density_ok = np.atleast_1d(density.logpdf(z_cands)) >= cfg.threshold

    dz2 = np.sum((z_cands - state.z) ** 2, axis=1)
    pair_obj = dz2[:, None] + ALPHA_TIME * (tau - tau_grid) ** 2
    order = np.argsort(pair_obj.ravel(), kind="stable")

    n_tau = len(tau_grid)
    window_ok = np.zeros(pair_obj.shape, dtype=bool)
    window_ok[density_ok] = ~_window_clashes(
        model.curve_model, model.decode_many(z_cands[density_ok]), tau_grid,
        np.full(n_tau, t_now), constraint, cfg)

    eta = np.linspace(0.0, 1.0, ETA_POINTS)
    walk = order[window_ok.ravel()[order]]
    paths = {}    # iz -> eta path latents, None below the density floor
    decoded = {}  # iz -> decoded eta path
    for rank in walk:
        iz, it = divmod(int(rank), n_tau)
        if iz not in paths:
            izs = [iz] if not paths else sorted(
                set((walk // n_tau).tolist()) - paths.keys())
            z_paths = (eta[:, None] * state.z
                       + (1.0 - eta)[:, None] * z_cands[izs][:, None, :])
            path_dens = density.logpdf(z_paths.reshape(-1, state.z.size))
            low = np.any(path_dens.reshape(len(izs), ETA_POINTS)
                         < cfg.threshold, axis=1)
            paths.update((k, None if out else z_path)
                         for k, out, z_path in zip(izs, low, z_paths))
        if paths[iz] is None:
            continue
        if iz not in decoded:
            decoded[iz] = model.decode_many(paths[iz])
        tp = float(tau_grid[it])
        tau_path = eta * tau + (1.0 - eta) * tp
        pts = evaluate_rows(model.curve_model, decoded[iz], tau_path)
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
    for _ in range(INITIAL_ATTEMPTS):
        z = np.asarray(density.sample(rng), dtype=float)
        if density.logpdf(z) >= cfg.threshold:
            return z
    raise ReplanInfeasibleError(n_candidates=INITIAL_ATTEMPTS,
                                n_density_ok=0, n_window_ok=0)


def run_episode(model, density, constraint, cfg, seed=0, z0=None):
    """Simulate the dual-frequency loop; returns the per-tick trace.

    Ticks run in blocks from one replan check to the next.  A check's
    verdict depends only on the plan z and the phase and time at the
    block's start, and while the plan is nominal (z fixed, tau advancing
    by dtau per tick) those phases follow from tau alone.  So the loop
    makes the checks of up to LOOKAHEAD blocks in one predict_violation
    call, on the phases one running sum gives as if every check came out
    clear, and uses those verdicts until a block tracks a goal, the goal
    is reached or the batch runs out; a search that comes up empty moves
    neither z nor tau, so the verdicts stay good.  A run of nominal ticks
    takes its points from one curve_points call, made when the next
    batch is planned, when tracking starts or when the episode ends.  A
    tracking block runs its (z, tau) updates per tick on Python floats
    and decodes one curve per tick, evaluated row-wise at that tick's
    phase.

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

    # per-tick buffers; the time and constraint columns are filled in one
    # call each once the episode ends
    taus = np.empty(max_ticks)
    latents = np.empty((max_ticks, state.z.size))
    points = np.empty((max_ticks, curve.dim))
    flags = np.zeros(max_ticks, dtype=int)
    events = np.zeros(max_ticks, dtype=int)

    def evaluate_run(lo, hi):
        """Latents and points of the nominal ticks lo..hi-1."""
        latents[lo:hi] = state.z
        points[lo:hi] = model.curve_points(state.z, taus[lo:hi])

    tracking = False     # toward (goal_z, goal_tau), once a search succeeds
    reached = False
    run = 0              # first nominal tick whose point is not evaluated
    batch = batch_end = 0
    for start in range(0, max_ticks, ticks_per_replan):
        if tracking or start >= batch_end:
            # the nominal phases tau = min(tau + dtau, 1.0) gives tick by
            # tick: the running sum adds left to right, and the clamp can
            # only bite at the tick that reaches the goal
            batch, batch_end = start, min(
                start + LOOKAHEAD * ticks_per_replan, max_ticks)
            steps = np.full(batch_end - start + 1, dtau)
            steps[0] = state.tau
            ahead = np.minimum(np.add.accumulate(steps)[1:], 1.0)
            done = np.flatnonzero(ahead >= 1.0 - 1e-12)
            goal = start + int(done[0]) if len(done) else max_ticks
            batch_end = min(batch_end, goal + 1)
            taus[start:batch_end] = ahead[:batch_end - start]
            checks = np.arange(start, batch_end, ticks_per_replan)
            clash = predict_violation(
                model, constraint, state.z,
                np.concatenate(([state.tau], taus[checks[1:] - 1])),
                checks * dt, cfg)
        if clash[(start - batch) // ticks_per_replan]:
            try:
                goal_z, goal_tau = solve_replan(
                    state, model, density, constraint, start * dt, cfg, rng)
                tracking = True
                events[start] = 1
            except ReplanInfeasibleError as exc:
                events[start] = 2
                # a kept traceback would pin the search frame and, through
                # f_back, every caller's frame with whatever they hold
                exc.__traceback__ = None
        else:
            tracking = False
        # a nominal run ends where tracking starts or a new batch begins
        if run < start and (tracking or start == batch):
            evaluate_run(run, start)
            run = start
        stop = min(start + ticks_per_replan, max_ticks)
        if not tracking:
            if goal < stop:
                stop, reached = goal + 1, True
            state.tau = float(taus[stop - 1])
            if reached:
                break
            continue
        # per-tick updates on Python floats: the same IEEE operations as
        # on the arrays, without numpy's per-call cost
        z, target, tau = state.z.tolist(), goal_z.tolist(), state.tau
        rows = []
        for tick in range(start, stop):
            z = [zc + TRACKING_GAIN * (gc - zc) for zc, gc in zip(z, target)]
            tau = tau + TRACKING_GAIN * (goal_tau - tau)
            rows.append(z)
            taus[tick] = tau
        block = slice(start, stop)
        state.z, state.tau = np.array(z), tau
        latents[block] = rows
        flags[block] = 1
        # one decoded curve per tick, each evaluated at its own phase
        points[block] = evaluate_rows(
            curve, model.decode_many(latents[block]), taus[block])
        run = stop
    if run < stop:
        evaluate_run(run, stop)
    # Rebind every buffer to a compact copy: the buffers are sized for
    # max_time, and a slice would keep the whole buffer alive through its
    # base for as long as the trace lives.
    taus, latents, points, flags, events = (
        buf[:stop].copy() for buf in (taus, latents, points, flags, events))
    times = np.arange(stop) * dt
    return EpisodeTrace(times=times, taus=taus, latents=latents,
                        points=points,
                        constraint_values=constraint(points, times),
                        violation_flags=flags, replan_events=events,
                        n_replans=int(np.count_nonzero(events == 1)),
                        n_infeasible=int(np.count_nonzero(events == 2)),
                        reached_goal=reached, timed_out=not reached)
