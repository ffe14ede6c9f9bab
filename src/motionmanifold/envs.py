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
from .errors import GenerationError, NonFiniteError, read_json, record_field
from .replan import MovingDisk, _squared_distance, constraint_from_script
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
        def field(record, key, convert=lambda v: np.asarray(v, dtype=float)):
            return record_field(path, record, key, convert)

        def parse(data):
            obstacles = [MovingDisk(times=[0.0], centers=[field(o, "center")],
                                    radius=field(o, "radius", float))
                         for o in field(data, "obstacles", list)]
            return cls(obstacles=obstacles, q_start=field(data, "q_start"),
                       q_goal=field(data, "q_goal"),
                       bounds=field(data, "bounds"))

        return read_json(path, parse)


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

# phases and curves success_rate evaluates and tests together: the block
# buffers stay bounded for any sample count, and phi and the straight
# segment are built once per phase for up to _CHECK_CURVES curves
_CHECK_PHASES = 50
_CHECK_CURVES = 500


def _least_double(start, holds):
    """Smallest double x with holds(x), for holds monotone in x, searched
    by ulp steps from start, which must lie within a few ulps of it."""
    x = np.float64(start)
    while not holds(x):
        x = np.nextafter(x, np.inf)
    while holds(np.nextafter(x, -np.inf)):
        x = np.nextafter(x, -np.inf)
    return x


def _below_sqrt(r):
    """Smallest double t with fl(sqrt(t)) >= r.

    sqrt rounds monotonically, so for every double d, d < t exactly when
    fl(sqrt(d)) < r, i.e. when r - sqrt(d) > 0.  fl(r * r) itself is off
    by an ulp for about half of all radii, 0.15 and 0.12 among them.
    """
    return _least_double(r * r, lambda t: np.sqrt(t) >= r)


def _collisions(model, stacks, disks):
    """Per curve of stacks (N, n, B): does any of its CHECK_GRID_POINTS
    phases lie inside any of the disks (collision_check > 0)?

    The test needs no depth: it compares the field's own squared distance
    d with _below_sqrt(radius), and d < t exactly when radius - sqrt(d) >
    0.  Blocks of _CHECK_PHASES phases by up to _CHECK_CURVES curves are
    evaluated and tested in buffers that every block reuses.

    A phase block is skipped, unevaluated, when a bound on the
    coefficients proves it clear of every disk.  phi >= 0, so in phase
    block J coordinate c of a curve strays from the straight segment by at
    most R[J, c] = sum_i |w_ci| max_J phi_i, taken over the block's curves
    as one gemm.  Inflated to R' = R (1 + m) + m tiny, with m = 2 (B + 2)
    eps, it also bounds the computed points: m covers the rounding of both
    gemms, relative and, among subnormals, absolute, with room for phi on
    the whole grid to differ from phi on a block by an ulp.  Rounding is
    monotone, so every computed point of the block has coordinate c in
    [fl(seg_lo - R'), fl(seg_hi + R')], and its difference to the disk
    center rounds to at least the interval's.  When that gap is at least
    s', the smallest double with fl(s' s') >= t (taken (1 + m) wider), the
    squared distance d, a sum of non-negative rounded squares, is >= t:
    no point of the block can hit that disk, and no verdict changes.  Only
    a block whose bound is below 1e300, so that each of its points is
    provably finite, is skipped; any other is evaluated, and a non-finite
    point raises NonFiniteError as before.
    """
    if not np.isfinite(stacks).all():      # before inf * 0 warns in a gemm
        raise NonFiniteError("a sampled curve reaches a non-finite point")
    grid = np.linspace(0.0, 1.0, CHECK_GRID_POINTS)
    tests = [(disk.center_at(0.0), _below_sqrt(disk.radius))
             for disk in disks]
    starts = np.arange(0, len(grid), _CHECK_PHASES)
    phimax = np.maximum.reduceat(model.basis._rows(grid), starts)   # (J, B)
    segment = model._segment(grid)
    seg_lo = np.minimum.reduceat(segment, starts)                   # (J, n)
    seg_hi = np.maximum.reduceat(segment, starts)
    margin = 2 * (model.basis.size + 2) * np.finfo(float).eps
    reaches = [(center, (1 + margin) * _least_double(
        np.sqrt(t), lambda s: s * s >= t)) for center, t in tests]
    shape = (_CHECK_PHASES, min(_CHECK_CURVES, len(stacks)))
    d, term, hit = np.empty(shape), np.empty(shape), np.empty(shape, bool)
    collided = np.zeros(len(stacks), dtype=bool)
    for i in range(0, len(stacks), _CHECK_CURVES):
        block = stacks[i:i + _CHECK_CURVES]
        verdict = collided[i:i + len(block)]
        stray = (np.abs(block).reshape(-1, model.basis.size) @ phimax.T
                 ).reshape(len(block), model.dim, -1).max(axis=0).T
        stray = stray * (1 + margin) + margin * np.finfo(float).tiny
        lo, hi = seg_lo - stray, seg_hi + stray
        # a NaN bound fails the comparison and is evaluated
        skip = np.all((np.abs(lo) < 1e300) & (np.abs(hi) < 1e300), axis=1)
        for center, reach in reaches:
            skip &= np.any((lo - center >= reach) | (center - hi >= reach),
                           axis=1)
        for j in starts[~skip]:
            points = evaluate_batch(model, block, grid[j:j + _CHECK_PHASES])
            if not np.isfinite(points).all():
                raise NonFiniteError("a sampled curve reaches a non-finite "
                                     "point")
            planes = points.T    # planes[c]: coordinate c, (phases, curves)
            used = np.s_[:planes.shape[1], :len(block)]   # of each buffer
            for center, t in tests:
                _squared_distance(planes, center, d[used], term[used])
                np.less(d[used], t, out=hit[used])
                verdict |= hit[used].any(axis=0)
            del points, planes   # free the block before the next allocates
    return collided


def success_rate(bundle, env, num_samples, rng):
    """Percent of sampled trajectories that never touch an obstacle.

    A curve collides when collision_check is positive at any of its
    CHECK_GRID_POINTS phases, for any disk; _collisions gives that
    verdict through an exact squared-radius test.  It evaluates only the
    phase blocks that a bound on the coefficients, inflated for rounding
    by 2 (B + 2) ulps, cannot prove clear of every disk; a skipped block
    holds no point that could hit, so the verdicts are those of checking
    every phase.
    """
    stacks, result = sample_curves(bundle, num_samples, rng)
    collided = _collisions(bundle.curve_model, stacks, env.obstacles)
    return 100.0 * float(np.mean(~collided)), result.acceptance_rate


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
