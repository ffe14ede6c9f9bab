"""Workloads, correctness checks, metrics and the report of the benchmark.

Each workload is a closed loop with one caller that waits for every
result: a set-up (repeated, its median reported), then passes over the
timed part until the run's seconds are used, each pass checked for
correctness outside its timed region.  Timings are medians over passes.

Workload seeds.  study-env3 and pose-train generate their demonstrations
and training seeds from the workload seed.  replan keeps the acceptance
fixture (training seed 0) and episode seeds 0-4 for every workload seed
and draws the replay searches' rng seeds from the workload seed: which
situations need a search, and how hard they are, depends on the trained
model so strongly (p90 search latency from 37 ms to 248 ms over fixture
seeds 0-5) that seeding the fixture would measure a different workload
per seed.  The default seed 0 reproduces the acceptance configurations,
apart from pose-train's epoch count (see FULL).
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np
import scipy

import motionmanifold
from motionmanifold import cli, envs, lie, replan
from motionmanifold.training import TrainConfig

import spans

clock = time.perf_counter


@dataclass(frozen=True)
class Config:
    study_epochs: int
    hidden: tuple
    eval_seeds: int
    eval_samples: int
    pose_demos: int
    pose_epochs: int
    fixture_epochs: int
    episodes: int
    min_searches: int
    setups: int


# pose_epochs is 500, not the acceptance test's 4000: the cost of an
# epoch does not depend on the epoch count, the loss ratio is already
# near 0.002 at 1000 epochs (bound 0.10), and short passes give the
# median over passes enough samples to ride out bursts of machine noise.
FULL = Config(study_epochs=2000, hidden=(128, 128), eval_seeds=5,
              eval_samples=500, pose_demos=8, pose_epochs=500,
              fixture_epochs=1500, episodes=5, min_searches=100, setups=3)
SMOKE = Config(study_epochs=40, hidden=(128, 128), eval_seeds=1,
               eval_samples=50, pose_demos=8, pose_epochs=300,
               fixture_epochs=1500, episodes=1, min_searches=12, setups=1)

DEFAULT_SEED = 0
KIND_NAMES = {"vmp-gauss": "vmp-gauss", "vmp-gmm": "vmp-gmm",
              "mmp++": "mmp", "immp++": "immp"}
# Acceptance values of the default seed in the full configuration.
PINNED_SUCCESS = {"immp++": 100.0, "mmp++": 79.88, "vmp-gmm": 70.04,
                  "vmp-gauss": 54.04}
PINNED_REPLANS = [5, 0, 4, 0, 5]
PINNED_INFEASIBLE = [1, 0, 2, 0, 0]
POSE_RATIO_BOUND = 0.10
ROTATION_TOL = 1e-9


class Ledger:
    """Attempted operations and the ones that failed, with the reasons.

    An operation fails on an unexpected exception or a failed
    correctness check; it counts once however many checks it fails.
    """

    def __init__(self):
        self.attempted = 0
        self.failed_ops = set()
        self.problems = []
        self.tracer = None

    @property
    def failed(self):
        return len(self.failed_ops)

    def attempt(self, key, fn, *args, expected=(), **kwargs):
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op_id = self.attempted
        try:
            return fn(*args, **kwargs)
        except expected:
            raise
        except Exception as exc:
            self.fail(key, f"{type(exc).__name__}: {exc}")
            return None

    def check(self, key, ok, message):
        if not ok:
            self.fail(key, message)

    def fail(self, key, message):
        self.failed_ops.add(key)
        self.problems.append(f"{key[1]} (pass {key[0]}): {message}")


class BoundaryTimer:
    """Times every call of one module-level function, from its caller's side.

    Replaces module.name while active; each call appends (seconds,
    args, outcome) to .calls, where outcome is None or the exception.
    """

    def __init__(self, module, name, keep_args=None):
        self.module, self.name = module, name
        self.keep_args = keep_args or (lambda args: args)
        self.calls = []

    def __enter__(self):
        self.original = original = getattr(self.module, self.name)

        def timed(*args, **kwargs):
            kept = self.keep_args(args)
            outcome = None
            t0 = clock()
            try:
                return original(*args, **kwargs)
            except Exception as exc:
                outcome = exc
                raise
            finally:
                self.calls.append((clock() - t0, kept, outcome))

        setattr(self.module, self.name, timed)
        return self

    def __exit__(self, *exc_info):
        setattr(self.module, self.name, self.original)


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a, dtype=float)).tobytes())
    return h.hexdigest()[:16]


def _finite_list(values):
    return bool(np.all(np.isfinite(np.asarray(values, dtype=float))))


# -- study-env3 ------------------------------------------------------------

def study_setup(seed, cfg):
    env, demos = envs.generate_env("env3", seed=seed)
    return {"env": env, "demos": demos,
            "inputs": _digest(*[d.points for d in demos])}


def study_pass(ctx, seed, cfg, ledger, pass_no):
    env, demos = ctx["env"], ctx["demos"]
    train_cfg = TrainConfig(epochs=cfg.study_epochs, hidden=cfg.hidden,
                            seed=seed)
    eval_seeds = tuple(range(seed * cfg.eval_seeds,
                             (seed + 1) * cfg.eval_seeds))
    bundles, reports, eval_s = {}, {}, {}
    t_pass = clock()
    with BoundaryTimer(envs, "train",
                       keep_args=lambda a: a[2].alpha) as train_timer:
        for kind in envs.KINDS:
            bundles[kind] = ledger.attempt(
                (pass_no, f"build_bundle {kind}"), envs.build_bundle, kind,
                env, demos, seed=seed, train_config=train_cfg)
    for kind in envs.KINDS:
        if bundles[kind] is None:
            continue
        t0 = clock()
        reports[kind] = ledger.attempt(
            (pass_no, f"evaluate {kind}"), envs.evaluate_success,
            bundles[kind], env, env_id="env3", num_samples=cfg.eval_samples,
            seeds=eval_seeds)
        eval_s[kind] = clock() - t0
    study_s = clock() - t_pass

    train_s = {("distortion" if alpha > 0 else "recon"): sec
               for sec, alpha, _ in train_timer.calls}
    fingerprint = {}
    for kind, bundle in bundles.items():
        name = KIND_NAMES[kind]
        if bundle is None:
            continue
        key = (pass_no, f"build_bundle {kind}")
        if bundle.manifold is not None:
            history = bundle.manifold.history
            ledger.check(key, _finite_list(history["total"]),
                         "non-finite training loss")
            fingerprint[f"recon_final.{name}"] = history["recon"][-1]
            fingerprint[f"distortion_final.{name}"] = \
                history["distortion"][-1]
        else:
            ledger.check(key, _finite_list(
                bundle.density.log_likelihood_history),
                "non-finite GMM log-likelihood")
    for kind, report in reports.items():
        name = KIND_NAMES[kind]
        if report is None:
            continue
        key = (pass_no, f"evaluate {kind}")
        rates, accepts = report.success_rates, report.acceptance_rates
        ledger.check(key, all(0.0 <= r <= 100.0 for r in rates),
                     f"success rates {rates} outside [0, 100]")
        ledger.check(key, all(0.0 < a <= 1.0 for a in accepts),
                     f"acceptance rates {accepts} outside (0, 1]")
        if cfg == FULL and seed == DEFAULT_SEED:
            ledger.check(key, round(report.mean, 2) == PINNED_SUCCESS[kind],
                         f"mean success {report.mean:.4f} != pinned "
                         f"{PINNED_SUCCESS[kind]:.2f}")
        fingerprint[f"success_mean.{name}"] = report.mean
        fingerprint[f"success_rates.{name}"] = list(rates)
        fingerprint[f"acceptance_rates.{name}"] = list(accepts)

    evaluated = sum(report is not None for report in reports.values())
    n_traj = evaluated * cfg.eval_samples * cfg.eval_seeds
    epochs = cfg.study_epochs
    recon = 1e3 * train_s.get("recon", math.nan) / epochs
    dist = 1e3 * train_s.get("distortion", math.nan) / epochs
    metrics = {"study_s": study_s,
               "epoch_ms.recon": recon,
               "epoch_ms.distortion": dist,
               "epoch_ms.train": 0.5 * (recon + dist),
               "eval_traj_per_s": n_traj / max(sum(eval_s.values()), 1e-12)}
    return metrics, fingerprint, {"inputs": ctx["inputs"]}


# -- pose-train ------------------------------------------------------------

def pose_setup(seed, cfg):
    demos, basis = lie.make_pouring_demos(count=cfg.pose_demos, seed=seed)
    return {"demos": demos, "basis": basis,
            "inputs": _digest(*[d.positions for d in demos],
                              *[d.rotations for d in demos])}


def pose_pass(ctx, seed, cfg, ledger, pass_no):
    demos, basis = ctx["demos"], ctx["basis"]
    train_cfg = TrainConfig(latent_dim=2, alpha=0.0, epochs=cfg.pose_epochs,
                            hidden=cfg.hidden, seed=seed)
    key = (pass_no, "train_se3")
    t0 = clock()
    model = ledger.attempt(key, lie.train_se3, demos, basis, train_cfg)
    pose_s = clock() - t0

    fingerprint = {}
    if model is not None:
        ledger.check(key, _finite_list(model.history["recon"]),
                     "non-finite pose loss")
        fitted = [lie.fit_se3_params(t, basis) for t in demos]
        decoded = [model.decode(model.encode(p)) for p in fitted]
        trained = lie.se3_recon_loss(demos, decoded, basis)
        geodesic = [lie.Se3CurveParams(
            w_pos=np.zeros_like(p.w_pos), w_rot=np.zeros_like(p.w_rot),
            p_start=p.p_start, p_end=p.p_end, r_start=p.r_start,
            r_end=p.r_end) for p in fitted]
        ratio = trained / lie.se3_recon_loss(demos, geodesic, basis)
        ledger.check(key, ratio < POSE_RATIO_BOUND,
                     f"loss ratio {ratio:.4f} against the geodesic baseline "
                     f"is not below {POSE_RATIO_BOUND}")
        taus = np.linspace(0.0, 1.0, 33)
        worst = 0.0
        for params in decoded:
            r_end = params.r_end
            curve = lie.eval_rotation_curve(params, basis, taus)
            worst = max(worst, np.abs(r_end.T @ r_end - np.eye(3)).max(),
                        abs(np.linalg.det(r_end) - 1.0),
                        np.abs(curve @ np.swapaxes(curve, -1, -2)
                               - np.eye(3)).max())
        ledger.check(key, worst <= ROTATION_TOL,
                     f"decoded rotations off orthonormal by {worst:.2e}")
        fingerprint = {"loss_final": model.history["recon"][-1],
                       "loss_ratio": ratio}

    samples = sum(len(d.times) for d in demos) * cfg.pose_epochs
    epoch_ms = 1e3 * pose_s / cfg.pose_epochs
    metrics = {"pose_s": pose_s, "epoch_ms.se3": epoch_ms,
               "pose_samples_per_s": samples / pose_s}
    return metrics, fingerprint, {"inputs": ctx["inputs"]}


# -- replan ----------------------------------------------------------------

def replan_setup(seed, cfg):
    return cli.build_replan_fixture(
        seed=0, epochs=cfg.fixture_epochs, count=30, hidden=cfg.hidden,
        with_obstacle=True, control_hz=1000.0, replan_hz=10.0,
        total_time=5.0, window=1.0)


def _search(ledger, key, state, fx, t_now, rng):
    """One timed solve_replan call: (seconds, feasible or None on error)."""
    state = copy.deepcopy(state)
    t0 = clock()
    try:
        result = ledger.attempt(
            key, replan.solve_replan, state, fx["manifold"], fx["density"],
            fx["constraint"], t_now, fx["config"], rng,
            expected=(replan.ReplanInfeasibleError,))
    except replan.ReplanInfeasibleError:
        return clock() - t0, False
    seconds = clock() - t0
    if result is None:
        return seconds, None
    z, tau = result
    ledger.check(key, _finite_list(z) and 0.0 <= tau <= 1.0,
                 f"search returned z={z}, tau'={tau}")
    return seconds, True


def replan_pass(ctx, seed, cfg, ledger, pass_no):
    fx = ctx
    rcfg = fx["config"]
    episodes = []
    t_pass = clock()
    with BoundaryTimer(replan, "solve_replan",
                       keep_args=lambda a: (copy.deepcopy(a[0]), a[4])
                       ) as searches:
        runs = [(f"episode {s}", fx["constraint"], s)
                for s in range(cfg.episodes)]
        runs.append(("control", replan.constraint_from_script([]), 0))
        for name, constraint, ep_seed in runs:
            first = len(searches.calls)
            t0 = clock()
            trace = ledger.attempt(
                (pass_no, name), replan.run_episode, fx["manifold"],
                fx["density"], constraint, rcfg, seed=ep_seed)
            wall = clock() - t0
            episodes.append((name, trace, wall, searches.calls[first:]))
    episode_s = clock() - t_pass
    ledger.attempted += len(searches.calls)  # episode searches are ops too

    # Replay every recorded search situation under fresh rng seeds drawn
    # from the workload seed, enough times for >= min_searches searches.
    situations = [args for _, args, _ in searches.calls]
    latencies = [sec for sec, _, _ in searches.calls]
    outcomes = []
    for _, _, out in searches.calls:
        infeasible = isinstance(out, replan.ReplanInfeasibleError)
        outcomes.append(True if out is None else False if infeasible
                        else None)
        if out is not None and not infeasible:
            ledger.fail((pass_no, "episode search"),
                        f"{type(out).__name__}: {out}")
    repeats = 0
    if situations:
        repeats = math.ceil(max(cfg.min_searches - len(latencies), 0)
                            / len(situations))
    replay_seeds = []
    for i, (state, t_now) in enumerate(situations):
        for r in range(repeats):
            replay_seeds.append((seed, i, r))
            rng = np.random.default_rng([seed, i, r])
            sec, feasible = _search(ledger, (pass_no, f"replay {i}.{r}"),
                                    state, fx, t_now, rng)
            latencies.append(sec)
            outcomes.append(feasible)
    replan_s = clock() - t_pass

    fingerprint = {"replans": [], "infeasible": [], "max_constraint": []}
    ticks_us = []
    for name, trace, wall, calls in episodes:
        if trace is None:
            continue
        key = (pass_no, name)
        ticks_us.append(1e6 * (wall - sum(c[0] for c in calls))
                        / len(trace.times))
        reached = trace.reached_goal and trace.taus[-1] >= 1.0 - 1e-9
        ledger.check(key, reached, "episode did not reach the goal")
        infeasible = np.flatnonzero(trace.replan_events == 2)
        upto = infeasible[0] if len(infeasible) else len(trace.times)
        worst = float(np.max(trace.constraint_values[:upto], initial=-1.0))
        ledger.check(key, worst <= 0.0,
                     f"constraint {worst:.4f} > 0 before any infeasible "
                     f"search")
        if name == "control":
            ledger.check(key, trace.n_replans == 0,
                         f"control run replanned {trace.n_replans} times")
            fingerprint["control_replans"] = trace.n_replans
            continue
        fingerprint["replans"].append(trace.n_replans)
        fingerprint["infeasible"].append(trace.n_infeasible)
        fingerprint["max_constraint"].append(trace.max_constraint)
    if cfg == FULL and len(fingerprint["replans"]) == cfg.episodes:
        key = (pass_no, "episode 0")
        ledger.check(key, fingerprint["replans"] == PINNED_REPLANS,
                     f"replans per seed {fingerprint['replans']} != "
                     f"{PINNED_REPLANS}")
        ledger.check(key, fingerprint["infeasible"] == PINNED_INFEASIBLE,
                     f"infeasible per seed {fingerprint['infeasible']} != "
                     f"{PINNED_INFEASIBLE}")
    ledger.check((pass_no, "episode 0"), len(latencies) > 0,
                 "no search ran, so no search latency was measured")
    fingerprint["search_outcomes"] = [
        {True: "ok", False: "infeasible", None: "error"}[o]
        for o in outcomes]

    lat_ms = sorted(1e3 * s for s in latencies) or [math.nan]
    deadline_ms = 1e3 / rcfg.replan_hz
    tick_us = statistics.median(ticks_us) if ticks_us else math.nan
    metrics = {"replan_s": replan_s, "tick_us": tick_us,
               "episode_s": episode_s,
               "search_ms.p50": _percentile(lat_ms, 50),
               "search_ms.p90": _percentile(lat_ms, 90),
               "searches_per_s": len(latencies) / max(sum(latencies), 1e-12),
               "deadline_miss_ratio": sum(v > deadline_ms for v in lat_ms)
               / len(lat_ms)}
    extra = {"searches": len(latencies),
             "inputs": hashlib.sha256(
                 json.dumps(replay_seeds).encode()).hexdigest()[:16]}
    return metrics, fingerprint, extra


def _percentile(sorted_values, q):
    """Linear-interpolated percentile of an ascending list."""
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) \
        * (pos - lo)


@dataclass(frozen=True)
class Workload:
    setup: callable
    run_pass: callable
    contract: dict      # contract metric -> report metric, this workload


WORKLOADS = {
    "study-env3": Workload(study_setup, study_pass,
                           {"pass_s": "study_s", "step_ms": "epoch_ms.train",
                            "rate_per_s": "eval_traj_per_s"}),
    "pose-train": Workload(pose_setup, pose_pass,
                           {"pass_s": "pose_s", "step_ms": "epoch_ms.se3",
                            "rate_per_s": "pose_samples_per_s"}),
    "replan": Workload(replan_setup, replan_pass,
                       {"pass_s": "replan_s", "step_ms": "tick_us",
                        "rate_per_s": "searches_per_s"}),
}
# step_ms carries tick_us in milliseconds.
CONTRACT_SCALE = {("replan", "step_ms"): 1e-3}


# -- running a workload ----------------------------------------------------

def import_seconds(root, count):
    """Package import time in `count` fresh interpreters, as the parent saw it.

    Import is paid once per process, so it is repeated in children to
    report a median like the rest of set-up.
    """
    code = ("import sys, time; sys.path[:0] = sys.argv[1:]; "
            "t = time.perf_counter(); import workloads; "
            "print(time.perf_counter() - t)")
    paths = [str(root / "src"), str(root / "perfbench")]
    return [float(subprocess.run(
        [sys.executable, "-c", code, *paths], cwd=root, check=True,
        capture_output=True, text=True, timeout=120).stdout)
        for _ in range(count)]


def run_workload(name, seed, seconds, trace, cfg, import_s, out_dir):
    """Set up, measure, check; returns the workload's part of the report."""
    spec = WORKLOADS[name]
    ledger = Ledger()
    setup_times = []
    for _ in range(cfg.setups):
        t0 = clock()
        ctx = spec.setup(seed, cfg)
        setup_times.append(clock() - t0)

    passes = []
    deadline = clock() + seconds
    while True:
        passes.append(spec.run_pass(ctx, seed, cfg, ledger, len(passes)))
        if trace or clock() >= deadline:
            break

    layers, overhead = None, None
    if trace:
        tracer = spans.Tracer()
        ledger.tracer = tracer
        restore = spans.install(tracer)
        try:
            traced = spec.run_pass(ctx, seed, cfg, ledger, len(passes))
        finally:
            restore()
            ledger.tracer = None
        passes.append(traced)
        tracer.save(out_dir / f"spans-{name}-seed{seed}.npz")
        layers = tracer.summary()
        overhead = {m: {"untraced": passes[0][0][m], "traced": v,
                        "difference": v - passes[0][0][m]}
                    for m, v in traced[0].items()}

    for i, (_, fingerprint, _) in enumerate(passes[1:], start=1):
        ledger.check((i, "fingerprint"), fingerprint == passes[0][1],
                     "fingerprint differs from pass 0 on the same inputs")

    timed = passes[:1] if trace else passes
    metrics = {m: statistics.median(p[0][m] for p in timed)
               for m in timed[0][0]}
    metrics["setup_s"] = import_s + statistics.median(setup_times)
    return {"workload": name, "metrics": metrics, "passes": len(timed),
            "pass_metrics": [p[0] for p in passes],
            "setup_times_s": setup_times, "fingerprint": passes[0][1],
            "inputs_sha256": passes[0][2]["inputs"],
            "searches_per_pass": passes[0][2].get("searches"),
            "attempted": ledger.attempted, "failed": ledger.failed,
            "problems": ledger.problems, "layers": layers,
            "trace_overhead": overhead}


def per_layer_metrics(definitions, layers):
    """Per-layer values from the tracer summary, 0 where a span never ran."""
    def get(name):
        return layers.get(name, 0)

    def share(part, whole):
        return part / whole if whole else 0.0

    searches = get("replan.searches")
    derived = {
        "density.rejection.acceptance_ratio": share(
            get("density.rejection.accepted"),
            get("density.rejection.attempts")),
        "replan.search_success_ratio": share(
            searches - get("replan.searches_infeasible"), searches),
    }
    return {d["name"]: derived.get(d["name"], get(d["name"]))
            for d in definitions["per_layer"]}


def coverage_gaps(definitions, workload, layers):
    """Per-layer metrics listed on this workload whose span never ran."""
    return [f"{d['name']} (span {d['span']})"
            for d in definitions["per_layer"]
            if workload in d["on"]
            and not layers.get(f"{d['span']}.calls")]


def provenance(root):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
            env=env, capture_output=True, text=True, timeout=10, check=True)
        top, rev = out.stdout.split()
        rev = rev if top == str(root) else None
    except (OSError, ValueError, subprocess.SubprocessError):
        rev = None
    src_files = sorted((root / "src").rglob("*.py"))
    h = hashlib.sha256()
    lines = 0
    for path in src_files:
        data = path.read_bytes()
        h.update(str(path.relative_to(root)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"git_rev": rev, "src_sha256": h.hexdigest()[:16],
            "src_lines": lines, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "motionmanifold": motionmanifold.__version__,
            "nproc": os.cpu_count(),
            "nproc_usable": len(os.sched_getaffinity(0)),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "machine": platform.machine()}


def _clean(value):
    # JSON has no NaN.  A metric is NaN only when the operation it times
    # failed, and the run then reports that failure.
    return value if isinstance(value, (int, str)) or math.isfinite(value) \
        else 0.0


def main(args, import_s, root):
    here = root / "perfbench"
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    with open(here / "metrics.json") as fh:
        definitions = json.load(fh)
    with open(root / "BENCHMARK.json") as fh:
        contract = json.load(fh)
    units = {d["name"]: d["unit"] for d in definitions["report"]}
    cfg = SMOKE if args.smoke else FULL
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    import_times = [import_s] + import_seconds(root, cfg.setups - 1)
    parts = []
    for i, name in enumerate(names):
        # Import is paid once per process; charge it to the first workload.
        parts.append(run_workload(
            name, args.seed, args.seconds, args.trace, cfg,
            statistics.median(import_times) if i == 0 else 0.0, out_dir))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)

    report_metrics = {}
    for part in parts:
        report_metrics.update(part["metrics"])
    report_metrics["setup_s"] = sum(p["metrics"]["setup_s"] for p in parts)
    report_metrics["peak_rss_mb"] = peak_rss_mb
    report_metrics["failed_ratio"] = failed / max(attempted, 1)

    gaps = {}
    if args.trace:
        layers = {}
        for part in parts:
            for key, value in part["layers"].items():
                layers[key] = layers.get(key, 0) + value
            missing = coverage_gaps(definitions, part["workload"],
                                    part["layers"])
            if missing:
                gaps[part["workload"]] = missing
        last = per_layer_metrics(definitions, layers)
        last_units = {d["name"]: d["unit"] for d in definitions["per_layer"]}
    elif args.workload == "all":
        last, last_units = report_metrics, units
    else:
        spec = WORKLOADS[args.workload]
        last, last_units = {}, {}
        for m in contract["end_to_end"]:
            source = spec.contract.get(m["name"], m["name"])
            scale = CONTRACT_SCALE.get((args.workload, m["name"]), 1.0)
            last[m["name"]] = report_metrics[source] * scale
            last_units[m["name"]] = m["unit"]

    print(f"perfbench {args.workload} seed={args.seed} "
          f"{'smoke' if args.smoke else 'full'} trace={args.trace}")
    for name in sorted(report_metrics):
        print(f"  {name:24s} {report_metrics[name]:14.6g} {units[name]}")
    for part in parts:
        if part["searches_per_pass"]:
            print(f"  search_ms.* are over {part['searches_per_pass']} "
                  f"searches per pass, median over {part['passes']} passes")
    for part in parts:
        if part["trace_overhead"]:
            print(f"  tracing overhead on {part['workload']}:")
            for m, o in part["trace_overhead"].items():
                print(f"    {m:22s} {o['untraced']:12.6g} -> "
                      f"{o['traced']:12.6g} {units[m]}")
    problems = [f"{p['workload']}: {msg}" for p in parts
                for msg in p["problems"]]
    for workload, missing in gaps.items():
        problems.append(f"{workload}: span coverage: no calls recorded for "
                        + ", ".join(missing))
    for msg in problems:
        print(f"perfbench: FAILED {msg}", file=sys.stderr)

    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "config": "smoke" if args.smoke else "full",
              "import_times_s": import_times,
              "provenance": provenance(root),
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in report_metrics.items()},
              "attempted": attempted, "failed": failed,
              "problems": problems, "coverage_gaps": gaps, "parts": parts}
    path = out_dir / (f"report-{args.workload}-seed{args.seed}-"
                      f"trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, default=float)
    print(f"  report: {path.relative_to(root)}")

    result = {"correct": failed == 0 and not problems,
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": _clean(v), "unit": last_units[k]}
                          for k, v in last.items()}}
    print(json.dumps(result))
    return 3 if gaps else 0
