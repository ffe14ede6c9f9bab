"""Planar obstacle environments, demonstration synthesis, and evaluation.

Three benchmark layouts share the endpoints q_i = (0, 0), q_f = (1, 0)
and differ in obstacle count and the number of homotopy classes the
demonstrations cover (2, 3, 4).  Demonstrations are cubic splines through
per-class waypoint templates with Gaussian jitter, regenerated until
collision-free.  Success-rate evaluation draws rejection-filtered samples
from a fitted density, decodes them to curves, and collision-checks each
on a dense phase grid; all model kinds run through this one code path.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace

import numpy as np

from .basis import BasisSet, CurveModel, TimedTrajectory, evaluate_batch
from .density import (DEFAULT_FAMILY, SampleFilter, fit_density, gmm_fit,
                      min_loglik_threshold, rejection_sample)
from .errors import GenerationError, NonFiniteError, record_field
from .replan import MovingDisk, constraint_from_script
from .training import TrainConfig, train, flatten_params


@dataclass
class PlanarEnv:
    obstacles: list              # static one-waypoint MovingDisks
    q_start: np.ndarray
    q_goal: np.ndarray
    bounds: np.ndarray           # ((xmin, xmax), (ymin, ymax))

    def __post_init__(self):
        self.q_start = np.asarray(self.q_start, dtype=float)
        self.q_goal = np.asarray(self.q_goal, dtype=float)
        self.bounds = np.asarray(self.bounds, dtype=float)
        if np.any(collision_check(np.stack([self.q_start, self.q_goal]),
                                  self) > 0):
            raise ValueError("endpoint lies inside an obstacle")

    def to_dict(self):
        return {"obstacles": [{"center": o.centers[0].tolist(),
                               "radius": o.radius} for o in self.obstacles],
                "q_start": self.q_start.tolist(),
                "q_goal": self.q_goal.tolist(),
                "bounds": self.bounds.tolist()}

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            data = json.load(fh)

        def field(record, key, convert=lambda v: np.asarray(v, dtype=float)):
            return record_field(path, record, key, convert)

        obstacles = [MovingDisk(times=[0.0], centers=[field(o, "center")],
                                radius=field(o, "radius", float))
                     for o in field(data, "obstacles", list)]
        return cls(obstacles=obstacles, q_start=field(data, "q_start"),
                   q_goal=field(data, "q_goal"), bounds=field(data, "bounds"))


def collision_check(q, env, t=0.0):
    """Worst-case penetration depth; positive means inside an obstacle.

    Batched over points q (..., n) like the replanning field: returns
    depths (...), a float for one point, and -1 with no obstacle.
    """
    return constraint_from_script(env.obstacles)(q, t)


# obstacle disks, waypoint jitter, and one peak height per homotopy class
_ENV_TABLE = {
    "env1": {"obstacles": [((0.5, 0.0), 0.15)], "noise": 0.02,
             "peaks": (0.35, -0.35)},
    "env2": {"obstacles": [((0.5, 0.22), 0.12), ((0.5, -0.22), 0.12)],
             "noise": 0.02, "peaks": (0.55, 0.0, -0.55)},
    "env3": {"obstacles": [((0.5, 0.3), 0.09), ((0.5, 0.0), 0.09),
                           ((0.5, -0.3), 0.09)],
             "noise": 0.015, "peaks": (0.55, 0.15, -0.15, -0.55)},
}

ENV_IDS = tuple(_ENV_TABLE)

SCENE_BOUNDS = ((-0.2, 1.2), (-0.8, 0.8))   # (x, y) ranges of every scene
CONTINUUM_COUNT = 30             # demos in the default continuum family
CONTINUUM_PEAKS = (-0.5, 0.5)    # peak heights the continuum family spans
CONTINUUM_NOISE = 0.01           # waypoint jitter of the continuum family
DEMOS_PER_CLASS = 5              # demos per homotopy class of env1-env3
DEMO_SAMPLES = 80                # samples per demo, evenly spaced in time
DEMO_DURATION = 1.0              # seconds each demo lasts
N_BASES = 20                     # basis functions per curve coordinate
MAX_ATTEMPT_FACTOR = 400         # draws sample_curves may try per curve
CHECK_GRID_POINTS = 500          # phases at which success_rate checks a curve

_WAYPOINT_X = np.array([0.0, 0.2, 0.5, 0.8, 1.0])
_WAYPOINT_SHAPE = np.array([0.0, 0.55, 1.0, 0.55, 0.0])


def _natural_spline(ys, x):
    """Natural cubic spline through (_WAYPOINT_X, ys), evaluated at x.

    Bit for bit scipy's CubicSpline(_WAYPOINT_X, ys, bc_type="natural"):
    the slope system is built as CubicSpline builds it and solved as LAPACK
    dgtsv solves it, which never pivots on these knots, and the Hermite
    pieces are summed in PPoly's order.  Two terms that are always zero,
    CubicSpline's natural-end term and dgtsv's eliminated sub-diagonal, are
    left out: they can only flip the sign of an intermediate zero, and
    PPoly's sum, which starts from 0.0, gives the result the same bits
    either way.
    """
    dx = np.diff(_WAYPOINT_X)
    slope = np.diff(ys) / dx
    # tridiagonal rows: sub-, main and super-diagonal, right-hand side
    lower = np.append(dx[1:], dx[-1])
    diag = 2 * np.concatenate([dx[:1], dx[:-1] + dx[1:], dx[-1:]])
    upper = np.append(dx[0], dx[:-1])
    rhs = 3 * np.concatenate([ys[1:2] - ys[:1],
                              dx[1:] * slope[:-1] + dx[:-1] * slope[1:],
                              ys[-1:] - ys[-2:-1]])
    for i in range(len(ys) - 1):
        fact = lower[i] / diag[i]
        diag[i + 1] -= fact * upper[i]
        rhs[i + 1] -= fact * rhs[i]
    s = rhs / diag                       # the last slope is final
    for i in range(len(ys) - 2, -1, -1):
        s[i] = (rhs[i] - upper[i] * s[i + 1]) / diag[i]
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    c0, c1, c2, c3 = ys[:-1], s[:-1], (slope - s[:-1]) / dx - t, t / dx
    k = np.clip(np.searchsorted(_WAYPOINT_X, x, side="right") - 1,
                0, len(dx) - 1)
    u = x - _WAYPOINT_X[k]
    return (0.0 + c0[k]) + c1[k] * u + c2[k] * (u * u) + c3[k] * (u * u * u)


def _spline_demo(peak, noise, rng):
    ys = peak * _WAYPOINT_SHAPE.copy()
    ys[1:-1] += noise * rng.standard_normal(3)
    t = np.linspace(0.0, DEMO_DURATION, DEMO_SAMPLES)
    x = t / DEMO_DURATION
    return TimedTrajectory(times=t,
                           points=np.column_stack([x, _natural_spline(ys, x)]))


def _demo_clear(traj, env, margin=0.02, grid_points=500):
    # check on a dense resampling, not just the stored samples
    xs = np.linspace(0.0, 1.0, grid_points)
    pts = np.column_stack([
        np.interp(xs, traj.times / traj.times[-1], traj.points[:, 0]),
        np.interp(xs, traj.times / traj.times[-1], traj.points[:, 1])])
    return collision_check(pts, env).max() < -margin


def generate_env(env_id, seed=0):
    """Environment plus collision-free demos, grouped by homotopy class."""
    key = env_id.lower()
    if key not in _ENV_TABLE:
        raise ValueError(f"unknown environment {env_id!r}; "
                         f"expected one of {sorted(_ENV_TABLE)}")
    entry = _ENV_TABLE[key]
    env = PlanarEnv(
        obstacles=[MovingDisk(times=[0.0], centers=[c], radius=r)
                   for c, r in entry["obstacles"]],
        q_start=np.array([0.0, 0.0]), q_goal=np.array([1.0, 0.0]),
        bounds=SCENE_BOUNDS)
    rng = np.random.default_rng(seed)
    demos = []
    for peak in entry["peaks"]:
        for _ in range(DEMOS_PER_CLASS):
            for attempt in range(100):
                traj = _spline_demo(peak, entry["noise"], rng)
                if _demo_clear(traj, env):
                    demos.append(traj)
                    break
            else:
                raise GenerationError(
                    f"demo for peak {peak} in {env_id} stayed in collision "
                    f"after 100 jitter retries")
    return env, demos


def generate_continuum_demos(count=CONTINUUM_COUNT, seed=0):
    """Obstacle-free demo family whose peak height sweeps CONTINUUM_PEAKS.

    The resulting trajectories fill one connected sheet instead of
    separated clusters, which is the regime where the adaptive kernel
    density is the right latent density model.
    """
    if not isinstance(count, (int, np.integer)) or count < 1:
        raise ValueError(f"count must be a positive integer, got {count!r}")
    env = PlanarEnv(obstacles=[], q_start=np.array([0.0, 0.0]),
                    q_goal=np.array([1.0, 0.0]), bounds=SCENE_BOUNDS)
    rng = np.random.default_rng(seed)
    return env, [_spline_demo(peak, CONTINUUM_NOISE, rng)
                 for peak in np.linspace(*CONTINUUM_PEAKS, count)]


def fit_demos(env, demos, n_bases=N_BASES):
    """Via-point curve model with shared endpoints, plus per-demo fits."""
    basis = BasisSet.uniform(n_bases)
    model = CurveModel(basis, env.q_start, env.q_goal)
    return model, [model.fit(traj) for traj in demos]


# -- model kinds and the shared evaluation path ---------------------------

KINDS = ("vmp-gauss", "vmp-gmm", "mmp++", "immp++")
IMMP_ALPHA = 0.1                 # distortion weight of the immp++ kind


@dataclass
class ModelBundle:
    """Everything evaluation needs: a density, a decoder, a curve model."""

    kind: str
    density: object
    decode_batch: callable       # (N, d) samples -> (N, n, B) coefficients
    curve_model: CurveModel
    threshold: float
    manifold: object = None      # latent model for the MMP variants
    latents: np.ndarray = None


def build_bundle(kind, env, demos, seed=0, n_bases=N_BASES,
                 density_family=DEFAULT_FAMILY, train_config=None,
                 alpha=IMMP_ALPHA):
    """Train/fit the artifacts behind one model kind.

    VMP kinds fit their density directly over flattened coefficients;
    the latent kinds train an autoencoder first (alpha = 0 for the plain
    variant, alpha > 0 for the distortion-regularized one).  Mixtures get
    default_components(env) components; vmp-gauss gets one.

    The minimum-training-log-density rejection threshold is applied for
    the latent kinds only.  With fewer demos than coefficient
    dimensions, the baseline Gaussian/GMM over coefficients is rank
    deficient up to the ridge, which places every training point far
    above any fresh draw in log-density; a threshold there starves the
    sampler, so the baselines draw from their density directly
    (threshold -inf, same sampling code path).
    """
    kind = kind.lower()
    if kind not in KINDS:
        raise ValueError(f"unknown model kind {kind!r}; expected {KINDS}")
    model, fits = fit_demos(env, demos, n_bases=n_bases)
    w = np.stack([flatten_params(p) for p in fits])
    dim, n_b = model.dim, model.basis.size
    n_components = default_components(env)
    if kind in ("vmp-gauss", "vmp-gmm"):
        density = gmm_fit(w, 1 if kind == "vmp-gauss" else n_components,
                          seed=seed)
        return ModelBundle(kind=kind, density=density,
                           decode_batch=lambda s: s.reshape(-1, dim, n_b),
                           curve_model=model, threshold=-np.inf)
    kind_alpha = 0.0 if kind == "mmp++" else alpha
    if train_config is None:
        cfg = TrainConfig(seed=seed, alpha=kind_alpha)
    else:
        cfg = replace(train_config, seed=seed, alpha=kind_alpha)
    manifold = train(fits, model, cfg)
    return latent_bundle(kind, manifold, manifold.encode_many(fits),
                         density_family, n_components, seed)


def latent_bundle(kind, manifold, z, density_family, n_components, seed):
    """A trained manifold, a density on its latents z, and z's floor."""
    density = fit_density(z, density_family, n_components, seed)
    return ModelBundle(kind=kind, density=density,
                       decode_batch=manifold.decode_many,
                       curve_model=manifold.curve_model,
                       threshold=min_loglik_threshold(density, z),
                       manifold=manifold, latents=z)


def default_components(env):
    """Mixture size matching the homotopy-class count of the layout."""
    return len(env.obstacles) + 1


def sample_curves(bundle, count, rng):
    """Rejection-filtered draws decoded to coefficient stacks."""
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    filt = SampleFilter(threshold=bundle.threshold,
                        max_attempts=MAX_ATTEMPT_FACTOR * count)
    result = rejection_sample(bundle.density, filt, rng, count)
    stacks = bundle.decode_batch(np.atleast_2d(result.samples))
    if not np.isfinite(stacks).all():
        raise NonFiniteError("a draw decoded to a non-finite point")
    return stacks, result


# the success protocol: sampled curves per seed, and the sampling seeds
EVAL_SAMPLES = 500
EVAL_SEEDS = (0, 1, 2, 3, 4)

# curves evaluated and collision-checked together: bounds the (N, T, ...)
# field temporaries without changing any per-curve result
_CHECK_CHUNK = 50


def success_rate(bundle, env, num_samples, rng):
    """Percent of sampled trajectories that never touch an obstacle."""
    stacks, result = sample_curves(bundle, num_samples, rng)
    grid = np.linspace(0.0, 1.0, CHECK_GRID_POINTS)
    collided = np.concatenate([
        np.any(collision_check(evaluate_batch(
            bundle.curve_model, stacks[i:i + _CHECK_CHUNK], grid), env) > 0,
            axis=1)
        for i in range(0, len(stacks), _CHECK_CHUNK)])
    rate = 100.0 * float(np.mean(~collided))
    return rate, result.acceptance_rate


@dataclass
class EvalReport:
    kind: str
    env_id: str
    seeds: list
    success_rates: list          # percent, one per seed
    acceptance_rates: list
    num_samples: int

    @property
    def mean(self):
        return float(np.mean(self.success_rates))

    @property
    def std(self):
        return float(np.std(self.success_rates))

    def save_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["kind", "env", "seed", "num_samples",
                             "success_rate", "acceptance_rate"])
            for s, rate, acc in zip(self.seeds, self.success_rates,
                                    self.acceptance_rates):
                writer.writerow([self.kind, self.env_id, s,
                                 self.num_samples, f"{rate:.4f}",
                                 f"{acc:.6f}"])


def evaluate_success(bundle, env, env_id="", num_samples=EVAL_SAMPLES,
                     seeds=EVAL_SEEDS):
    """Success-rate protocol: fresh sampling per seed on fixed artifacts."""
    if num_samples < 1:
        raise ValueError(f"num_samples must be at least 1, got {num_samples}")
    if len(seeds) == 0:
        raise ValueError("seeds must name at least one sampling seed")
    rates, accepts = [], []
    for s in seeds:
        rng = np.random.default_rng(1000 + s)
        rate, acc = success_rate(bundle, env, num_samples, rng)
        rates.append(rate)
        accepts.append(acc)
    return EvalReport(kind=bundle.kind, env_id=env_id, seeds=list(seeds),
                      success_rates=rates, acceptance_rates=accepts,
                      num_samples=num_samples)
