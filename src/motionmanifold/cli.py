"""Command-line driver for dataset synthesis, fitting, training,
sampling, reconstruction, evaluation, and online replanning experiments.

Each mode is its own command, and _DEPENDENT_OPTIONS declares every
option that only some runs of its command use.  Every command writes
only documented JSON/CSV/SVG formats into --out and is idempotent for
identical inputs and seed; wall-clock timestamps go to a sidecar
run.log, never into result files.  Exit codes: 2 for malformed
configuration, 3 for numerical failures inside the library.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from .basis import (CurveModel, TimedTrajectory,
                    load_trajectory_dataset, save_trajectory_dataset)
from .density import (DEFAULT_FAMILY, FAMILIES, kde_build,
                      min_loglik_threshold, save_density)
from .envs import (CONTINUUM_COUNT, ENV_IDS, EVAL_SAMPLES, EVAL_SEEDS,
                   IMMP_ALPHA, KINDS, N_BASES, SCENE_BOUNDS, PlanarEnv,
                   build_bundle, evaluate_success, fit_demos,
                   generate_continuum_demos, generate_env, inside_bounds,
                   latent_bundle, sample_curves)
from .errors import (BranchError, DegenerateSupportError,
                     DistortionUndefinedError, GenerationError,
                     NonFiniteError, ReplanInfeasibleError,
                     SamplingStarvedError, SingularFitError, TrainingError,
                     finite_array, json_list, json_object, numeric, read_json,
                     record_field, squared_norms_finite)
from .render import render_latent_scatter, render_loss_curves, render_scene
from .replan import (MovingDisk, ReplanConfig, constraint_from_script,
                     run_episode, save_obstacle_script)
from .training import ManifoldModel, TrainConfig, train
from . import basis as basis_mod

_NUMERICAL_ERRORS = (SingularFitError, DistortionUndefinedError,
                     TrainingError, BranchError, DegenerateSupportError,
                     NonFiniteError, SamplingStarvedError,
                     ReplanInfeasibleError, GenerationError,
                     np.linalg.LinAlgError)


class ConfigError(Exception):
    pass


# mixture size of sample and export-plot under --density gmm when
# --components is unset
GMM_COMPONENTS = 2
# curves sample and export-plot draw when --count is unset
SAMPLE_COUNT = 20
PLOT_COUNT = 40
# TrainConfig.hidden as --hidden text
_HIDDEN = ",".join(str(h) for h in TrainConfig.hidden)

# command -> option -> (the option it depends on, the values of that
# option it applies to, its default there); on a run it does not apply
# to, the option stays None, so meta.json records it unset
_DEPENDENT_OPTIONS = {
    "synth-demos": {"count": ("env", ("continuum",), CONTINUUM_COUNT)},
    "eval": {"alpha": ("kind", ("immp++",), IMMP_ALPHA),
             "density": ("kind", ("mmp++", "immp++"), DEFAULT_FAMILY),
             "epochs": ("kind", ("mmp++", "immp++"), TrainConfig.epochs),
             "hidden": ("kind", ("mmp++", "immp++"), _HIDDEN)},
    "sample": {"components": ("density", ("gmm",), GMM_COMPONENTS)},
    "export-plot": {"components": ("density", ("gmm",), GMM_COMPONENTS)},
}


def _log(out_dir, message):
    stamp = time.strftime("%Y-%m-%d %H:%M:%S")
    with open(os.path.join(out_dir, "run.log"), "a") as fh:
        fh.write(f"[{stamp}] {message}\n")


def _write_meta(out_dir, args):
    """meta.json: the command, its seed, and every other parsed option."""
    options = {name: value for name, value in vars(args).items()
               if name not in ("command", "func", "out", "config", "seed")}
    meta = {"command": args.command, "seed": getattr(args, "seed", None),
            "options": options}
    with open(os.path.join(out_dir, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)


def _prepare_out(args):
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _resolve_dependent_options(args):
    """Reject each _DEPENDENT_OPTIONS option set on a run that would
    ignore it, and give it its default on a run that uses it."""
    for name, (parent, values, default) in _DEPENDENT_OPTIONS.get(
            args.command, {}).items():
        value, on = getattr(args, name), getattr(args, parent)
        if on not in values and value is not None:
            raise ConfigError(f"field {name!r}: --{parent} {on} does not "
                              f"use it; {name} applies only to --{parent} "
                              f"{' or '.join(values)}")
        if on in values and value is None:
            setattr(args, name, default)


def _phases(grid):
    """grid evenly spaced phases on [0, 1] for --grid."""
    if grid < 2:
        raise ConfigError(f"field 'grid': a curve needs at least 2 phases, "
                          f"got {grid}")
    return np.linspace(0.0, 1.0, grid)


def _parse_hidden(text):
    try:
        sizes = tuple(int(part) for part in str(text).split(",") if part)
    except ValueError:
        raise ConfigError(f"field 'hidden': expected comma-separated "
                          f"integers, got {text!r}")
    if not sizes:
        raise ConfigError("field 'hidden': needs at least one layer size")
    return sizes


def save_fits(path, model, fits, objectives):
    data = {"model": model.to_dict(),
            "coefficients": fits.tolist(),
            "objectives": objectives}
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)


def load_fits(path):
    """(model, fits, objectives) from fits.json, fits the finite (N, n, B)
    coefficient stack; an error names the file and the field."""
    def parse(data):
        model = CurveModel.from_dict(
            record_field(path, data, "model", json_object),
            f"{path}: field 'model'")
        fits = record_field(path, data, "coefficients",
                            lambda v: model.unflatten(squared_norms_finite(
                                model.flatten(finite_array(v)))))
        objectives = []              # optional: no command reads them
        if "objectives" in data:
            objectives = record_field(path, data, "objectives",
                                      json_list(numeric(float)))
        return model, fits, objectives

    return read_json(path, parse)


# -- commands -------------------------------------------------------------

def cmd_synth_demos(args):
    out = _prepare_out(args)
    if args.env == "continuum":
        env, demos = generate_continuum_demos(count=args.count,
                                              seed=args.seed)
    else:
        env, demos = generate_env(args.env, seed=args.seed)
    env.save(os.path.join(out, "env.json"))
    save_trajectory_dataset(demos, os.path.join(out, "demos.json"))
    _log(out, f"synth-demos env={args.env} seed={args.seed} "
              f"n={len(demos)}")
    print(f"wrote {len(demos)} demos to {out}")


def cmd_fit(args):
    out = _prepare_out(args)
    env = PlanarEnv.load(args.env)
    demos = load_trajectory_dataset(args.demos)
    try:
        model, fits = fit_demos(env, demos, n_bases=args.bases)
    except SingularFitError as err:      # the demos' phases cannot fit it
        raise SingularFitError(f"{args.demos}: fields 't' and 'q': "
                               f"{err}") from None
    for k, traj in enumerate(demos):
        if not inside_bounds(traj.points, env.bounds).all():
            raise ConfigError(f"{args.demos}: field 'q': trajectory {k} "
                              f"leaves the 'bounds' of {args.env}")
    objectives = [model.fit_objective(p, traj)
                  for p, traj in zip(fits, demos)]
    save_fits(os.path.join(out, "fits.json"), model, fits, objectives)
    _log(out, f"fit demos={args.demos} bases={args.bases}")
    print(f"fitted {len(fits)} curves, max residual "
          f"{max(objectives):.3e}")


def cmd_train(args):
    out = _prepare_out(args)
    model, fits, _ = load_fits(args.fits)
    cfg = TrainConfig(latent_dim=args.latent_dim, alpha=args.alpha,
                      epochs=args.epochs, learning_rate=args.learning_rate,
                      hidden=_parse_hidden(args.hidden), seed=args.seed)
    manifold = train(fits, model, cfg)
    manifold.save(out)
    z = manifold.encode_many(fits)
    with open(os.path.join(out, "latents.json"), "w") as fh:
        json.dump({"z": z.tolist()}, fh, indent=1)
    _log(out, f"train alpha={args.alpha} epochs={args.epochs}")
    print(f"final reconstruction loss "
          f"{manifold.history['recon'][-1]:.6e}")


def _sample_model(manifold, args):
    """--count draws above the floor of a density on the model's latents.

    Returns the bundle, the drawn coefficient stacks and the rejection
    result; args supplies --model, --density, --components (None unless
    the density is gmm), --count and --seed.
    """
    path = os.path.join(args.model, "latents.json")

    def latents(value):
        z = finite_array(value)
        if z.ndim != 2 or z.shape[1] != manifold.decoder.in_dim:
            raise ValueError(f"shape {z.shape}, not (N, "
                             f"{manifold.decoder.in_dim}) for the decoder")
        return squared_norms_finite(z)

    z = read_json(path, lambda data: record_field(path, data, "z", latents))
    gmm = args.density == "gmm"
    if gmm and args.components > len(z):
        raise ConfigError(f"field 'components': {args.components} mixture "
                          f"components need as many latents; {path} holds "
                          f"{len(z)}")
    kind = "immp++" if manifold.config.alpha > 0 else "mmp++"
    # fit_density checks a component count the KDE then ignores
    bundle = latent_bundle(kind, manifold, z, args.density,
                           args.components if gmm else 1, args.seed)
    stacks, result = sample_curves(bundle, args.count,
                                   np.random.default_rng(args.seed))
    return bundle, stacks, result


def cmd_sample(args):
    taus = _phases(args.grid)
    out = _prepare_out(args)
    bundle, stacks, result = _sample_model(ManifoldModel.load(args.model),
                                           args)
    curves = basis_mod.evaluate_batch(bundle.curve_model, stacks, taus)
    save_trajectory_dataset(
        [TimedTrajectory(times=taus, points=pts) for pts in curves],
        os.path.join(out, "samples.json"))
    save_density(os.path.join(out, "density.json"), bundle.density)
    _log(out, f"sample n={args.count} acceptance="
              f"{result.acceptance_rate:.3f}")
    print(f"kept {args.count} curves; {result.accepted} of "
          f"{result.attempts} draws cleared the density floor "
          f"(rate {result.acceptance_rate:.3f})")


def cmd_reconstruct(args):
    taus = _phases(args.grid)
    model, fits, _ = load_fits(args.fits)
    if not 0 <= args.index < len(fits):
        raise ConfigError(f"field 'index': {args.index} outside "
                          f"0..{len(fits) - 1}")
    out = _prepare_out(args)
    traj = TimedTrajectory(times=taus,
                           points=model.evaluate(fits[args.index], taus))
    save_trajectory_dataset([traj], os.path.join(out, "samples.json"))
    _log(out, f"reconstruct index={args.index}")
    print(f"wrote reconstructed curve {args.index} to {out}")


def cmd_eval(args):
    out = _prepare_out(args)
    env, demos = generate_env(args.env, seed=args.seed)
    # epochs is None for the baseline kinds, which train no network
    cfg = None if args.epochs is None else TrainConfig(
        epochs=args.epochs, hidden=_parse_hidden(args.hidden))
    bundle = build_bundle(args.kind, env, demos, seed=args.seed,
                          n_bases=args.bases, alpha=args.alpha,
                          density_family=args.density, train_config=cfg)
    report = evaluate_success(bundle, env, env_id=args.env,
                              num_samples=args.num_samples,
                              seeds=tuple(range(args.seeds)))
    report.save_csv(os.path.join(out, "report.csv"))
    rng = np.random.default_rng(9999)
    stacks, _ = sample_curves(bundle, min(30, args.num_samples), rng)
    grid = np.linspace(0.0, 1.0, 200)
    curves = basis_mod.evaluate_batch(bundle.curve_model, stacks, grid)
    render_scene(os.path.join(out, "scene.svg"), env, list(curves))
    _log(out, f"eval env={args.env} kind={args.kind} "
              f"mean={report.mean:.2f}")
    print(f"{args.kind} on {args.env}: success "
          f"{report.mean:.2f} +/- {report.std:.2f} %")


def default_obstacle_script():
    """Two stacked disks sweep down over the upper corridors, park, leave."""
    stations = [0.0, 1.0, 2.8, 3.5]
    top = MovingDisk(times=stations,
                     centers=[(0.55, 1.6), (0.55, 0.30), (0.55, 0.30),
                              (0.55, 1.6)], radius=0.13)
    low = MovingDisk(times=stations,
                     centers=[(0.55, 1.9), (0.55, 0.10), (0.55, 0.10),
                              (0.55, 1.9)], radius=0.13)
    return [top, low]


def build_replan_fixture(*, seed, epochs, count, hidden, with_obstacle,
                         control_hz, replan_hz, total_time, window):
    """Continuum-demo manifold, adaptive-KDE density, scripted obstacle."""
    env, demos = generate_continuum_demos(count=count, seed=seed)
    model, fits = fit_demos(env, demos)
    cfg = TrainConfig(alpha=0.0, epochs=epochs, hidden=hidden, seed=seed)
    manifold = train(fits, model, cfg)
    z = manifold.encode_many(fits)
    density = kde_build(z)
    script = default_obstacle_script() if with_obstacle else []
    constraint = constraint_from_script(script)
    rcfg = ReplanConfig(total_time=total_time, window=window,
                        control_hz=control_hz, replan_hz=replan_hz,
                        threshold=min_loglik_threshold(density, z))
    return {"env": env, "demos": demos, "manifold": manifold,
            "density": density, "script": script, "constraint": constraint,
            "config": rcfg, "latents": z}


def cmd_replan(args):
    # the KDE on the demos' latents needs them to span the latent space
    least = TrainConfig.latent_dim + 1
    if args.count < least:
        raise ConfigError(f"field 'count': a KDE on {least - 1}-dimensional "
                          f"latents needs at least {least} demos, got "
                          f"{args.count}")
    out = _prepare_out(args)
    fixture = build_replan_fixture(
        seed=args.seed, epochs=args.epochs, count=args.count,
        hidden=_parse_hidden(args.hidden),
        with_obstacle=not args.no_obstacle, control_hz=args.control_hz,
        replan_hz=args.replan_hz, total_time=args.total_time,
        window=args.window)
    trace = run_episode(fixture["manifold"], fixture["density"],
                        fixture["constraint"], fixture["config"],
                        seed=args.seed)
    trace.save_csv(os.path.join(out, "trace.csv"))
    if fixture["script"]:
        save_obstacle_script(os.path.join(out, "obstacles.json"),
                             fixture["script"])
    stride = max(1, len(trace.points) // 400)
    render_scene(os.path.join(out, "scene.svg"), fixture["env"],
                 [trace.points[::stride]], moving_disks=fixture["script"],
                 snapshot_times=np.linspace(1.0, 3.0, 5))
    _log(out, f"replan seed={args.seed} replans={trace.n_replans} "
              f"max_c={trace.max_constraint:.4f}")
    print(f"episode: reached_goal={trace.reached_goal} "
          f"replans={trace.n_replans} "
          f"max_constraint={trace.max_constraint:.5f}")


def cmd_export_plot(args):
    manifold = ManifoldModel.load(args.model)
    bundle, stacks, result = _sample_model(manifold, args)
    env = PlanarEnv.load(args.env) if args.env else PlanarEnv(
        obstacles=[], q_start=manifold.curve_model.q_start,
        q_goal=manifold.curve_model.q_end, bounds=SCENE_BOUNDS)
    out = _prepare_out(args)
    render_loss_curves(os.path.join(out, "loss_curves.svg"),
                       manifold.history)
    render_latent_scatter(os.path.join(out, "latent_scatter.svg"),
                          bundle.latents, extra=result.samples)
    curves = basis_mod.evaluate_batch(bundle.curve_model, stacks,
                                      np.linspace(0.0, 1.0, 200))
    render_scene(os.path.join(out, "trajectories.svg"), env, list(curves))
    _log(out, "export-plot")
    print(f"wrote figures to {out}")


# -- argument plumbing ----------------------------------------------------

def _add_common(sub, seeded=True):
    if seeded:
        sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", type=str, required=True)
    sub.add_argument("--config", type=str, default=None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="motionmanifold",
        description="Motion-manifold movement primitives toolkit")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("synth-demos", help="generate an environment and "
                                           "demonstration set")
    p.add_argument("--env", required=True, choices=[*ENV_IDS, "continuum"])
    # None marks an unset count; see _DEPENDENT_OPTIONS
    p.add_argument("--count", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_synth_demos)

    # fit and reconstruct are deterministic, so neither takes --seed
    p = subs.add_parser("fit", help="fit curve coefficients to demos")
    p.add_argument("--demos", required=True)
    p.add_argument("--env", required=True)
    p.add_argument("--bases", type=int, default=N_BASES)
    _add_common(p, seeded=False)
    p.set_defaults(func=cmd_fit)

    p = subs.add_parser("train", help="train the latent manifold")
    p.add_argument("--fits", required=True)
    p.add_argument("--alpha", type=float, default=TrainConfig.alpha)
    p.add_argument("--latent-dim", type=int, default=TrainConfig.latent_dim)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--learning-rate", type=float,
                   default=TrainConfig.learning_rate)
    p.add_argument("--hidden", type=str, default=_HIDDEN)
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("sample", help="draw trajectories from a trained "
                                       "model's latent density")
    p.add_argument("--model", required=True)
    p.add_argument("--density", default=DEFAULT_FAMILY,
                   choices=list(FAMILIES))
    # None marks an unset components; see _DEPENDENT_OPTIONS
    p.add_argument("--components", type=int, default=None)
    p.add_argument("--count", type=int, default=SAMPLE_COUNT)
    p.add_argument("--grid", type=int, default=101)
    _add_common(p)
    p.set_defaults(func=cmd_sample)

    p = subs.add_parser("reconstruct", help="re-evaluate a stored curve fit")
    p.add_argument("--fits", required=True)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--grid", type=int, default=101)
    _add_common(p, seeded=False)
    p.set_defaults(func=cmd_reconstruct)

    p = subs.add_parser("eval", help="success-rate evaluation protocol")
    p.add_argument("--env", required=True, choices=ENV_IDS)
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--num-samples", type=int, default=EVAL_SAMPLES)
    p.add_argument("--seeds", type=int, default=len(EVAL_SEEDS))
    # None marks an unset epochs, hidden, alpha or density; see
    # _DEPENDENT_OPTIONS
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--hidden", type=str, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--density", default=None, choices=list(FAMILIES))
    p.add_argument("--bases", type=int, default=N_BASES)
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = subs.add_parser("replan", help="online replanning episode against "
                                       "a scripted moving obstacle")
    p.add_argument("--epochs", type=int, default=1500)
    p.add_argument("--count", type=int, default=CONTINUUM_COUNT)
    p.add_argument("--hidden", type=str, default="128,128")
    p.add_argument("--control-hz", type=float,
                   default=ReplanConfig.control_hz)
    p.add_argument("--replan-hz", type=float, default=ReplanConfig.replan_hz)
    p.add_argument("--total-time", type=float,
                   default=ReplanConfig.total_time)
    p.add_argument("--window", type=float, default=ReplanConfig.window)
    p.add_argument("--no-obstacle", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_replan)

    p = subs.add_parser("export-plot", help="render latent scatter, "
                                            "samples, and loss curves")
    p.add_argument("--model", required=True)
    p.add_argument("--env", default=None)
    # as for sample
    p.add_argument("--density", default=DEFAULT_FAMILY,
                   choices=list(FAMILIES))
    p.add_argument("--components", type=int, default=None)
    p.add_argument("--count", type=int, default=PLOT_COUNT)
    _add_common(p)
    p.set_defaults(func=cmd_export_plot)
    return parser


def _config_value(key, value, action):
    """A JSON config value checked as argparse checks the flag's text."""
    if value is None and action.default is None:
        return None                      # the option's own unset marker
    want = bool if action.nargs == 0 else action.type or str
    # bool subclasses int, so it must be told apart explicitly
    accepted = (int, float) if want is float else want
    if isinstance(value, bool) != (want is bool) \
            or not isinstance(value, accepted):
        raise ConfigError(f"field {key!r}: expected {want.__name__}, "
                          f"got {type(value).__name__}")
    if action.choices is not None and value not in action.choices:
        raise ConfigError(f"field {key!r}: {value!r} is not one of "
                          f"{list(action.choices)}")
    return float(value) if want is float else value


def _apply_config(args, argv, parser):
    if not args.config:
        return
    try:
        with open(args.config) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file {args.config!r} is not valid "
                          f"JSON: {err}")
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    commands = next(a for a in parser._actions if a.dest == "command")
    actions = {a.dest: a for a in commands.choices[args.command]._actions
               if a.dest not in ("help", "config")}
    values = {}
    for key, value in data.items():
        dest = key.replace("-", "_")
        if dest not in actions:
            raise ConfigError(f"unknown config field {key!r}")
        if actions[dest].required:
            raise ConfigError(f"field {key!r}: a required option is given "
                              f"on the command line, not in a config file")
        values[dest] = _config_value(key, value, actions[dest])
    # parsed with no defaults, argv yields only the options it sets
    for action in actions.values():
        action.default = argparse.SUPPRESS
    given = vars(parser.parse_args(argv))
    for dest in values.keys() - given.keys():     # an explicit flag wins
        setattr(args, dest, values[dest])


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args, argv, parser)
        _resolve_dependent_options(args)
        args.func(args)
        _write_meta(args.out, args)
        return 0
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except FileNotFoundError as err:
        print(f"config error: input path {err.filename!r} does not exist",
              file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as err:
        print(f"numerical failure: {type(err).__name__}: {err}",
              file=sys.stderr)
        return 3
    except ValueError as err:
        # an option value the library rejects; the numerical errors
        # caught above subclass ValueError and keep exit code 3
        print(f"config error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
