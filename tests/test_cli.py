"""End-to-end command-line workflows, exit codes, and artifact formats."""

import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from motionmanifold.basis import (TimedTrajectory, evaluate_batch,
                                  load_trajectory_dataset,
                                  save_trajectory_dataset)
from motionmanifold import cli
from motionmanifold.cli import load_fits, main
from motionmanifold.density import fit_density, min_loglik_threshold
from motionmanifold.envs import sample_curves
from motionmanifold.training import ManifoldModel


def run_cli(*argv):
    return main(list(argv))


def assert_meta_records_options(out, *argv, **resolved):
    """meta.json holds every option the command parsed, as parsed.

    argv is the command line without --out; the seed sits at the top
    level, and --out and --config are not options of the run.  resolved
    names the value the command gave each option left unset.
    """
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if a.dest == "command")
    dests = {a.dest for a in commands.choices[argv[0]]._actions} \
        - {"help", "out", "config", "seed"}
    parsed = vars(parser.parse_args([*argv, "--out", str(out)]))
    meta = json.loads((out / "meta.json").read_text())
    assert meta["command"] == argv[0]
    assert meta["seed"] == parsed.get("seed")
    assert meta["options"] == {name: parsed[name] for name in dests} \
        | resolved


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """synth-demos -> fit -> train chain shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    demos_dir = root / "demos"
    fits_dir = root / "fits"
    model_dir = root / "model"
    argv = {
        "demos": ("synth-demos", "--env", "continuum", "--count", "12",
                  "--seed", "3"),
        "fits": ("fit", "--demos", str(demos_dir / "demos.json"),
                 "--env", str(demos_dir / "env.json")),
        "model": ("train", "--fits", str(fits_dir / "fits.json"),
                  "--epochs", "150", "--hidden", "32,32"),
    }
    for name, out in (("demos", demos_dir), ("fits", fits_dir),
                      ("model", model_dir)):
        assert run_cli(*argv[name], "--out", str(out)) == 0
    return {"root": root, "demos": demos_dir, "fits": fits_dir,
            "model": model_dir, "argv": argv}


# -- individual commands ---------------------------------------------------


def test_synth_demos_writes_documented_artifacts(workspace):
    out = workspace["demos"]
    assert (out / "env.json").exists()
    assert (out / "demos.json").exists()
    assert (out / "run.log").exists()
    meta = json.loads((out / "meta.json").read_text())
    assert meta["command"] == "synth-demos"
    assert meta["seed"] == 3
    assert meta["options"]["env"] == "continuum"
    assert meta["options"]["count"] == 12
    demos = load_trajectory_dataset(out / "demos.json")
    assert len(demos) == 12
    assert_meta_records_options(out, *workspace["argv"]["demos"])


def test_synth_demos_is_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli("synth-demos", "--env", "env1", "--seed", "5",
                       "--out", str(out)) == 0
    assert (a / "demos.json").read_bytes() == (b / "demos.json").read_bytes()
    assert (a / "meta.json").read_bytes() == (b / "meta.json").read_bytes()


def test_fit_records_objectives(workspace):
    model, fits, objectives = load_fits(workspace["fits"] / "fits.json")
    assert len(fits) == 12 and len(objectives) == 12
    assert model.basis.size == 20
    assert all(obj >= 0.0 for obj in objectives)
    assert max(objectives) < 1e-2                # demos are low-noise
    assert_meta_records_options(workspace["fits"],
                                *workspace["argv"]["fits"])
    meta = json.loads((workspace["fits"] / "meta.json").read_text())
    assert meta["seed"] is None                  # fit takes no seed


@pytest.mark.parametrize("source", ["flag", "config"])
def test_fit_rejects_seed(workspace, tmp_path, capsys, source):
    # fit is deterministic: a seed would be recorded and do nothing
    argv = [*workspace["argv"]["fits"], "--out", str(tmp_path / "o")]
    if source == "flag":
        with pytest.raises(SystemExit) as exit_info:
            run_cli(*argv, "--seed", "1")
        assert exit_info.value.code == 2
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1}))
        assert run_cli(*argv, "--config", str(cfg)) == 2
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_train_writes_model_and_latents(workspace):
    out = workspace["model"]
    for name in ("encoder.json", "decoder.json", "curve_model.json",
                 "train_meta.json", "history.csv", "latents.json",
                 "meta.json"):
        assert (out / name).exists(), name
    z = np.asarray(json.loads((out / "latents.json").read_text())["z"])
    assert z.shape == (12, 2)
    assert_meta_records_options(out, *workspace["argv"]["model"])


def test_sample_from_trained_model(workspace, tmp_path):
    out = tmp_path / "samples"
    argv = ("sample", "--model", str(workspace["model"]), "--density", "kde",
            "--count", "8", "--grid", "40")
    assert run_cli(*argv, "--out", str(out)) == 0
    assert_meta_records_options(out, *argv)
    trajs = load_trajectory_dataset(out / "samples.json")
    assert len(trajs) == 8
    assert all(t.points.shape == (40, 2) for t in trajs)
    assert (out / "density.json").exists()
    for t in trajs:                    # via-point endpoints hold exactly
        assert np.allclose(t.points[0], [0.0, 0.0], atol=1e-9)
        assert np.allclose(t.points[-1], [1.0, 0.0], atol=1e-9)


@pytest.mark.parametrize("density, components", [("kde", None),
                                                 ("gmm", 2)])
def test_sample_summary_counts_kept_curves_and_cleared_draws(
        workspace, tmp_path, capsys, monkeypatch, density, components):
    results = []

    def recording(*args):
        stacks, result = sample_curves(*args)
        results.append(result)
        return stacks, result

    monkeypatch.setattr(cli, "sample_curves", recording)
    out = tmp_path / "samples"
    argv = ("sample", "--model", str(workspace["model"]), "--density",
            density, "--count", "3")
    assert run_cli(*argv, "--out", str(out)) == 0
    (result,) = results
    assert result.accepted > 3     # more draws clear the floor than are kept
    assert capsys.readouterr().out == (
        f"kept 3 curves; {result.accepted} of {result.attempts} draws "
        f"cleared the density floor (rate "
        f"{result.accepted / result.attempts:.3f})\n")
    # an unset --components is recorded as gmm resolved it
    assert_meta_records_options(out, *argv, components=components)


def test_sample_writes_each_curve_as_evaluated_alone(workspace, tmp_path,
                                                    monkeypatch):
    stacks = []
    decode_many = ManifoldModel.decode_many

    def recording(self, z):
        stacks.append(decode_many(self, z))
        return stacks[-1]

    monkeypatch.setattr(ManifoldModel, "decode_many", recording)
    out = tmp_path / "samples"
    assert run_cli("sample", "--model", str(workspace["model"]),
                   "--count", "6", "--grid", "33", "--out", str(out)) == 0
    (stack,) = stacks
    curve = ManifoldModel.load(str(workspace["model"])).curve_model
    taus = np.linspace(0.0, 1.0, 33)
    # the single-curve formula, one curve at a time
    save_trajectory_dataset(
        [TimedTrajectory(times=taus, points=curve.elementary(taus)
                         + curve.basis.evaluate(taus) @ w.T)
         for w in stack], tmp_path / "expected.json")
    assert (out / "samples.json").read_bytes() \
        == (tmp_path / "expected.json").read_bytes()


def test_reconstruct_evaluates_stored_fit(workspace, tmp_path):
    out = tmp_path / "recon"
    fits = workspace["fits"] / "fits.json"
    argv = ("reconstruct", "--fits", str(fits), "--index", "4",
            "--grid", "80")
    assert run_cli(*argv, "--out", str(out)) == 0
    assert_meta_records_options(out, *argv)
    meta = json.loads((out / "meta.json").read_text())
    assert meta["seed"] is None                  # reconstruct takes no seed
    rec = load_trajectory_dataset(out / "samples.json")[0]
    demo = load_trajectory_dataset(workspace["demos"] / "demos.json")[4]
    assert rec.points.shape == demo.points.shape
    assert np.abs(rec.points - demo.points).max() < 0.02
    # the stored fit evaluated on the grid, written as one trajectory
    model, stored, _ = load_fits(fits)
    taus = np.linspace(0.0, 1.0, 80)
    save_trajectory_dataset(
        [TimedTrajectory(times=taus, points=model.evaluate(stored[4], taus))],
        tmp_path / "expected.json")
    assert (out / "samples.json").read_bytes() \
        == (tmp_path / "expected.json").read_bytes()


def test_eval_baseline_writes_report_and_scene(tmp_path):
    out = tmp_path / "eval"
    assert run_cli("eval", "--env", "env1", "--kind", "vmp-gauss",
                   "--num-samples", "20", "--seeds", "2",
                   "--out", str(out)) == 0
    assert (out / "scene.svg").exists()
    lines = (out / "report.csv").read_text().strip().splitlines()
    assert lines[0].startswith("kind,env,seed")
    assert len(lines) == 3                       # header + one row per seed
    assert all(row.startswith("vmp-gauss,env1") for row in lines[1:])


def test_eval_latent_kind_end_to_end(tmp_path):
    out = tmp_path / "eval_latent"
    argv = ("eval", "--env", "env1", "--kind", "mmp++", "--num-samples",
            "15", "--seeds", "2", "--epochs", "60", "--hidden", "16,16")
    assert run_cli(*argv, "--out", str(out)) == 0
    assert (out / "report.csv").exists()
    assert_meta_records_options(out, *argv, density="gmm")


def test_replan_episode_without_obstacle(tmp_path):
    out = tmp_path / "replan"
    argv = ("replan", "--epochs", "150", "--count", "12", "--hidden",
            "32,32", "--control-hz", "200", "--replan-hz", "10",
            "--total-time", "2.0", "--window", "0.5", "--no-obstacle")
    assert run_cli(*argv, "--out", str(out)) == 0
    assert_meta_records_options(out, *argv)
    trace = (out / "trace.csv").read_text().strip().splitlines()
    assert trace[0].split(",")[:2] == ["t", "tau"]
    assert len(trace) > 100
    assert not (out / "obstacles.json").exists()
    assert (out / "scene.svg").exists()


def test_export_plot_renders_figures(workspace, tmp_path):
    out = tmp_path / "figs"
    argv = ("export-plot", "--model", str(workspace["model"]),
            "--density", "kde", "--count", "6")
    assert run_cli(*argv, "--out", str(out)) == 0
    for name in ("loss_curves.svg", "latent_scatter.svg",
                 "trajectories.svg"):
        svg = (out / name).read_text()
        assert svg.lstrip().startswith("<svg"), name
    assert_meta_records_options(out, *argv)


@pytest.mark.parametrize("family", ["kde", "gmm"])
def test_export_plot_draws_clear_the_density_floor(workspace, tmp_path,
                                                   monkeypatch, family):
    # export-plot shows only curves that sample and eval would return
    seen = {}
    monkeypatch.setattr(cli, "render_latent_scatter",
                        lambda path, z, extra: seen.update(z=z, draws=extra))
    monkeypatch.setattr(cli, "render_scene",
                        lambda path, env, curves: seen.update(curves=curves))
    assert run_cli("export-plot", "--model", str(workspace["model"]),
                   "--density", family, "--count", "40",
                   "--out", str(tmp_path)) == 0
    density = fit_density(seen["z"], family, 2, 0)
    floor = min_loglik_threshold(density, seen["z"])
    assert len(seen["draws"]) == 40
    assert np.all(density.logpdf(seen["draws"]) >= floor)
    manifold = ManifoldModel.load(workspace["model"])
    want = evaluate_batch(manifold.curve_model,
                          manifold.decode_many(seen["draws"]),
                          np.linspace(0.0, 1.0, 200))
    assert np.array_equal(np.array(seen["curves"]), want)


def test_export_plot_with_nan_radius_exits_2(workspace, tmp_path, capsys):
    env = json.loads((workspace["demos"] / "env.json").read_text())
    env["obstacles"] = [{"center": [0.5, 0.0], "radius": float("nan")}]
    path = tmp_path / "env.json"
    path.write_text(json.dumps(env))             # writes the NaN literal
    assert run_cli("export-plot", "--model", str(workspace["model"]),
                   "--env", str(path), "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "radius" in err


# -- configuration handling ------------------------------------------------


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"count": 7}))
    out = tmp_path / "out"
    assert run_cli("synth-demos", "--env", "continuum",
                   "--config", str(cfg), "--out", str(out)) == 0
    assert len(load_trajectory_dataset(out / "demos.json")) == 7


@pytest.mark.parametrize("flag", [["--count", "4"], ["--count=4"],
                                  ["--cou", "4"]],
                         ids=["separate", "equals", "abbreviated"])
def test_explicit_flag_beats_config_value(tmp_path, flag):
    # argparse reads --count=4 and the prefix --cou as --count 4
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"count": 7}))
    out = tmp_path / "out"
    assert run_cli("synth-demos", "--env", "continuum", *flag,
                   "--config", str(cfg), "--out", str(out)) == 0
    assert len(load_trajectory_dataset(out / "demos.json")) == 4


@pytest.mark.parametrize("argv, field", [
    (["synth-demos", "--env", "continuum"], "env"),
    (["fit", "--demos", "{demos}", "--env", "{env}"], "demos"),
    (["train", "--fits", "{fits}"], "fits"),
    (["sample", "--model", "{model}"], "model"),
    (["reconstruct", "--fits", "{fits}"], "fits"),
    (["eval", "--env", "env1", "--kind", "mmp++"], "kind"),
    (["replan"], "out"),
    (["export-plot", "--model", "{model}"], "model"),
], ids=lambda row: row[0] if isinstance(row, list) else None)
def test_config_value_for_a_required_option_exits_2(workspace, tmp_path,
                                                     capsys, argv, field):
    # argparse demands a required option's flag, so its config value
    # could only be checked and then ignored
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({field: str(tmp_path / "elsewhere")}))
    argv = [arg.format(demos=workspace["demos"] / "demos.json",
                       env=workspace["demos"] / "env.json",
                       fits=workspace["fits"] / "fits.json",
                       model=workspace["model"]) for arg in argv]
    assert run_cli(*argv, "--config", str(cfg),
                   "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and f"'{field}'" in err
    assert "required" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("payload", [
    '{"nope": 1}',                               # unknown field
    '{"count": "lots"}',                         # wrong type
    '[1, 2]',                                    # not an object
    '{bad json',
])
def test_malformed_config_exits_2(tmp_path, payload, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(payload)
    code = run_cli("synth-demos", "--env", "continuum",
                   "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "config"])
def test_count_for_fixed_environment_exits_2(tmp_path, capsys, source):
    # env1-env3 have a fixed demo set, so an explicit count cannot apply
    argv = ["synth-demos", "--env", "env1", "--out", str(tmp_path / "o")]
    if source == "flag":
        argv += ["--count", "4"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"count": 4}))
        argv += ["--config", str(cfg)]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "'count'" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind, option, value", [
    ("vmp-gauss", "alpha", 0.1),
    ("vmp-gmm", "alpha", 0.1),
    ("mmp++", "alpha", 0.0),
    ("vmp-gauss", "density", "gmm"),
    ("vmp-gmm", "density", "kde"),
])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_eval_option_the_kind_does_not_use_exits_2(tmp_path, capsys, source,
                                                   kind, option, value):
    # only immp++ has a distortion weight, and the vmp kinds fit their own
    # density, so the option would be recorded and do nothing
    argv = ["eval", "--env", "env1", "--kind", kind,
            "--out", str(tmp_path / "o")]
    if source == "flag":
        argv += [f"--{option}", str(value)]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({option: value}))
        argv += ["--config", str(cfg)]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and f"'{option}'" in err
    assert not (tmp_path / "o").exists()


def test_non_via_point_fits_exit_2(workspace, tmp_path, capsys):
    data = json.loads((workspace["fits"] / "fits.json").read_text())
    data["model"]["kind"] = "affine"
    fits = tmp_path / "fits.json"
    fits.write_text(json.dumps(data))
    assert run_cli("train", "--fits", str(fits), "--epochs", "2",
                   "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "'affine'" in err


def test_missing_config_file_exits_2(tmp_path, capsys):
    code = run_cli("synth-demos", "--env", "continuum",
                   "--config", str(tmp_path / "absent.json"),
                   "--out", str(tmp_path / "o"))
    assert code == 2
    assert "does not exist" in capsys.readouterr().err


@pytest.mark.parametrize("argv, payload", [
    (["reconstruct", "--fits", "{fits}"], {"fits": 5}),
    (["export-plot", "--model", "{model}"], {"env": 7}),
    (["synth-demos", "--env", "continuum"], {"count": True}),
    (["train", "--fits", "{fits}"], {"epochs": True}),
    (["sample", "--model", "{model}"], {"density": "flow"}),
], ids=["str-given-int", "env-given-int", "int-given-bool",
        "epochs-given-bool", "not-a-choice"])
def test_config_value_checked_like_its_flag(workspace, tmp_path, capsys,
                                            argv, payload):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    argv = [arg.format(model=workspace["model"],
                       fits=workspace["fits"] / "fits.json") for arg in argv]
    assert run_cli(*argv, "--config", str(cfg),
                   "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    (field,) = payload
    assert err.startswith("config error: ") and f"'{field}'" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["sample", "--model", "{missing}"],
    ["train", "--fits", "{missing}"],
    ["fit", "--demos", "{missing}", "--env", "{env}"],
], ids=["sample-model", "train-fits", "fit-demos"])
def test_missing_input_path_exits_2(workspace, tmp_path, capsys, argv):
    missing = tmp_path / "nope"
    argv = [arg.format(missing=missing,
                       env=workspace["demos"] / "env.json") for arg in argv]
    assert run_cli(*argv, "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(missing) in err
    assert "does not exist" in err and "Traceback" not in err


@pytest.mark.parametrize("payload", [None, {"model": None}],
                         ids=["no-flag", "config-null"])
def test_sample_without_model_or_params_exits_2(tmp_path, capsys, payload):
    # --model is the only source of sample, and argparse requires it on
    # the command line, so a config file cannot stand in for it
    argv = ["sample", "--out", str(tmp_path / "o")]
    if payload is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload))
        argv += ["--config", str(cfg)]
    with pytest.raises(SystemExit) as exit_info:
        run_cli(*argv)
    assert exit_info.value.code == 2
    assert "--model" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_bad_hidden_spec_exits_2(workspace, tmp_path, capsys):
    code = run_cli("train", "--fits", str(workspace["fits"] / "fits.json"),
                   "--hidden", "a,b", "--out", str(tmp_path / "o"))
    assert code == 2
    assert "hidden" in capsys.readouterr().err


def test_reconstruct_index_out_of_range_exits_2(workspace, tmp_path,
                                                capsys):
    code = run_cli("reconstruct", "--fits",
                   str(workspace["fits"] / "fits.json"), "--index", "99",
                   "--out", str(tmp_path / "o"))
    assert code == 2
    assert "index" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_numerical_failure_exits_3(workspace, tmp_path, capsys):
    # a finite alpha so large that Adam's second moment overflows in the
    # decoder, whose parameters would otherwise stop moving
    code = run_cli("train", "--fits", str(workspace["fits"] / "fits.json"),
                   "--alpha", "1e300", "--epochs", "5", "--hidden", "8",
                   "--out", str(tmp_path / "o"))
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: TrainingError: second moment "
                          "overflows in layer ")
    assert not (tmp_path / "o" / "decoder.json").exists()


def test_non_finite_curves_exit_3(tmp_path, capsys, monkeypatch):
    real_build = cli.build_bundle

    def nan_decoder(*args, **kwargs):
        bundle = real_build(*args, **kwargs)
        return dataclasses.replace(bundle, decode_batch=lambda s: np.full_like(
            bundle.decode_batch(s), np.nan))

    monkeypatch.setattr(cli, "build_bundle", nan_decoder)
    code = run_cli("eval", "--env", "env1", "--kind", "vmp-gauss",
                   "--num-samples", "10", "--seeds", "1",
                   "--out", str(tmp_path / "o"))
    assert code == 3
    err = capsys.readouterr().err
    assert "NonFiniteError" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["synth-demos", "--env", "continuum", "--count", "0"],
    ["train", "--fits", "{fits}", "--epochs", "0"],
    ["train", "--fits", "{fits}", "--alpha", "-1"],
    ["fit", "--demos", "{demos}", "--env", "{env}", "--bases", "1"],
    ["replan", "--replan-hz", "2000", "--epochs", "2", "--count", "6",
     "--hidden", "4"],
], ids=["synth-count", "train-epochs", "train-alpha", "fit-bases",
        "replan-hz"])
def test_rejected_option_value_exits_2(workspace, tmp_path, capsys, argv):
    paths = {"fits": workspace["fits"] / "fits.json",
             "demos": workspace["demos"] / "demos.json",
             "env": workspace["demos"] / "env.json"}
    argv = [arg.format(**paths) for arg in argv]
    assert run_cli(*argv, "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv, field", [
    (["train", "--fits", "{fits}", "--learning-rate", "-1"],
     "learning_rate"),
    (["train", "--fits", "{fits}", "--hidden", "0"], "hidden"),
    (["sample", "--model", "{model}", "--components", "0"], "n_components"),
    (["sample", "--model", "{model}", "--count", "0"], "count"),
    (["eval", "--env", "env1", "--kind", "vmp-gauss", "--seeds", "0"],
     "seeds"),
    (["eval", "--env", "env1", "--kind", "vmp-gauss", "--num-samples", "0"],
     "num_samples"),
    (["sample", "--model", "{model}", "--grid", "0"], "'grid'"),
    (["sample", "--model", "{model}", "--grid", "1"], "'grid'"),
    (["reconstruct", "--fits", "{fits}", "--grid", "0"], "'grid'"),
    (["reconstruct", "--fits", "{fits}", "--grid", "1"], "'grid'"),
    (["sample", "--model", "{model}", "--grid", "-1"], "'grid'"),
    # the workspace model holds 12 latents, and a 2-dimensional latent
    # space needs 3 demos to span it
    (["sample", "--model", "{model}", "--density", "gmm", "--components",
      "13"], "'components'"),
    (["export-plot", "--model", "{model}", "--density", "gmm",
      "--components", "13"], "'components'"),
    (["replan", "--count", "1", "--epochs", "2", "--hidden", "4"],
     "'count'"),
    (["replan", "--count", "2", "--epochs", "2", "--hidden", "4"],
     "'count'"),
], ids=["train-learning-rate", "train-hidden", "sample-components",
        "sample-count", "eval-seeds", "eval-num-samples", "sample-grid-0",
        "sample-grid-1", "reconstruct-grid-0", "reconstruct-grid-1",
        "sample-grid-minus-1",
        "sample-components-above-latents",
        "export-plot-components-above-latents", "replan-count-1",
        "replan-count-2"])
def test_bad_value_exits_2_naming_its_field(workspace, tmp_path, capsys,
                                            argv, field):
    paths = {"fits": workspace["fits"] / "fits.json",
             "model": workspace["model"]}
    argv = [arg.format(**paths) for arg in argv]
    assert run_cli(*argv, "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and field in err
    assert not (tmp_path / "o" / "report.csv").exists()


# per command, a cheap run whose {parent} is the value of the option a
# _DEPENDENT_OPTIONS row depends on
_DEPENDENT_RUNS = {
    "synth-demos": ["synth-demos", "--env", "{parent}"],
    "eval": ["eval", "--env", "env1", "--kind", "{parent}", "--epochs", "2",
             "--hidden", "4", "--num-samples", "5", "--seeds", "1"],
    "sample": ["sample", "--model", "{model}", "--density", "{parent}",
               "--count", "2", "--grid", "3"],
    "export-plot": ["export-plot", "--model", "{model}", "--density",
                    "{parent}", "--count", "2"],
}
_DEPENDENT_ROWS = [(command, option, *rule)
                   for command, rules in cli._DEPENDENT_OPTIONS.items()
                   for option, rule in rules.items()]


@pytest.mark.parametrize("command, option, parent, values, default",
                         _DEPENDENT_ROWS,
                         ids=[f"{c}-{o}" for c, o, *_ in _DEPENDENT_ROWS])
def test_dependent_option_is_rejected_where_unused_and_defaulted_where_used(
        workspace, tmp_path, capsys, command, option, parent, values,
        default):
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if a.dest == "command")
    (choices,) = [a.choices for a in commands.choices[command]._actions
                  if a.dest == parent]
    unused = next(value for value in choices if value not in values)

    def argv(parent_value, out):
        return [arg.format(parent=parent_value, model=workspace["model"])
                for arg in _DEPENDENT_RUNS[command]] + ["--out", str(out)]

    # set on a run that would ignore it, as a flag or a config value
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({option: default}))
    for extra in ([f"--{option}", str(default)], ["--config", str(cfg)]):
        assert run_cli(*argv(unused, tmp_path / "o"), *extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"'{option}'" in err
        assert not (tmp_path / "o").exists()
    # unset on a run that uses it
    out = tmp_path / "used"
    assert run_cli(*argv(values[0], out)) == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["options"][option] == default


def test_drawing_options_resolve_only_for_runs_that_draw(workspace,
                                                         tmp_path, capsys):
    # a model run records the values it drew with; a model without
    # latents.json has nothing to draw from
    out = tmp_path / "drawn"
    argv = ("sample", "--model", str(workspace["model"]), "--grid", "12")
    assert run_cli(*argv, "--out", str(out)) == 0
    assert_meta_records_options(out, *argv, components=cli.GMM_COMPONENTS)
    assert len(load_trajectory_dataset(out / "samples.json")) == 20
    out = tmp_path / "plotted"
    argv = ("export-plot", "--model", str(workspace["model"]))
    assert run_cli(*argv, "--out", str(out)) == 0
    assert_meta_records_options(out, *argv, components=cli.GMM_COMPONENTS)
    model = shutil.copytree(workspace["model"], tmp_path / "no_latents")
    (model / "latents.json").unlink()
    capsys.readouterr()
    assert run_cli("export-plot", "--model", str(model),
                   "--out", str(tmp_path / "bare")) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "latents.json" in err
    assert not (tmp_path / "bare").exists()


def test_unknown_train_meta_key_exits_2(workspace, tmp_path, capsys):
    model = tmp_path / "model"
    shutil.copytree(workspace["model"], model)
    meta = json.loads((model / "train_meta.json").read_text())
    meta["config"]["mix_extension"] = 0.2
    (model / "train_meta.json").write_text(json.dumps(meta))
    code = run_cli("sample", "--model", str(model), "--count", "4",
                   "--out", str(tmp_path / "o"))
    assert code == 2
    err = capsys.readouterr().err
    assert "mix_extension" in err and "Traceback" not in err


def test_identical_latents_exit_3(workspace, tmp_path, capsys):
    model = tmp_path / "model"
    shutil.copytree(workspace["model"], model)
    latents = json.loads((model / "latents.json").read_text())
    latents["z"] = [latents["z"][0]] * len(latents["z"])
    (model / "latents.json").write_text(json.dumps(latents))
    code = run_cli("sample", "--model", str(model), "--density", "gmm",
                   "--count", "4", "--out", str(tmp_path / "o"))
    assert code == 3
    assert "DegenerateSupportError" in capsys.readouterr().err


def test_collinear_latents_kde_exit_3(workspace, tmp_path, capsys):
    model = tmp_path / "model"
    shutil.copytree(workspace["model"], model)
    latents = json.loads((model / "latents.json").read_text())
    latents["z"] = [[0.5 * k, 1.0 - 0.25 * k]
                    for k in range(len(latents["z"]))]
    (model / "latents.json").write_text(json.dumps(latents))
    code = run_cli("sample", "--model", str(model), "--density", "kde",
                   "--count", "4", "--out", str(tmp_path / "o"))
    assert code == 3
    err = capsys.readouterr().err
    assert "DegenerateSupportError" in err and "rank-deficient" in err
    assert "Traceback" not in err


def _corrupt_model(workspace, tmp_path, name, change):
    """A copy of the trained model whose JSON file `name` went through
    change(data)."""
    model = tmp_path / "model"
    shutil.copytree(workspace["model"], model)
    data = json.loads((model / name).read_text())
    change(data)
    (model / name).write_text(json.dumps(data))   # writes NaN as a literal
    return model


def test_nan_decoder_weight_exits_2(workspace, tmp_path, capsys):
    def nan_weight(data):
        data["weights"][1][0][0] = float("nan")

    model = _corrupt_model(workspace, tmp_path, "decoder.json", nan_weight)
    code = run_cli("sample", "--model", str(model), "--count", "4",
                   "--out", str(tmp_path / "o"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "layer 1" in err
    assert not (tmp_path / "o" / "samples.json").exists()


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_overflowing_decoder_exits_3(workspace, tmp_path, capsys):
    # finite weights whose output overflows: the decoded coefficients are
    # not finite, and no samples.json is written
    def huge_output_layer(data):
        data["weights"][-1] = np.full(np.shape(data["weights"][-1]),
                                      1e308).tolist()

    model = _corrupt_model(workspace, tmp_path, "decoder.json",
                           huge_output_layer)
    code = run_cli("sample", "--model", str(model), "--count", "4",
                   "--out", str(tmp_path / "o"))
    assert code == 3
    err = capsys.readouterr().err
    assert "NonFiniteError" in err and "Traceback" not in err
    assert not (tmp_path / "o" / "samples.json").exists()


def test_nan_latent_exits_2_naming_the_file(workspace, tmp_path, capsys):
    def nan_latent(data):
        data["z"][0][0] = float("nan")

    model = _corrupt_model(workspace, tmp_path, "latents.json", nan_latent)
    code = run_cli("sample", "--model", str(model), "--count", "4",
                   "--out", str(tmp_path / "o"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "latents.json" in err


@pytest.mark.parametrize("command, env_file, key", [
    ("fit", "no-q_goal", "q_goal"),
    ("fit", "no-obstacles", "obstacles"),
    ("fit", "no-radius", "radius"),
    ("fit", "demos", "obstacles"),
    ("export-plot", "no-q_start", "q_start"),
    ("export-plot", "demos", "obstacles"),
])
def test_env_file_missing_a_key_exits_2(workspace, tmp_path, capsys,
                                        command, env_file, key):
    if env_file == "demos":
        path = workspace["demos"] / "demos.json"
    else:
        env = json.loads((workspace["demos"] / "env.json").read_text())
        if env_file == "no-radius":
            env["obstacles"] = [{"center": [0.5, 3.0]}]
        else:
            del env[env_file[3:]]
        path = tmp_path / "env.json"
        path.write_text(json.dumps(env))
    inputs = {"fit": ["--demos", str(workspace["demos"] / "demos.json")],
              "export-plot": ["--model", str(workspace["model"])]}[command]
    code = run_cli(command, *inputs, "--env", str(path),
                   "--out", str(tmp_path / "o"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(path) in err
    assert repr(key) in err


def _drop_last_column(text):
    return "".join(line.rsplit(",", 1)[0] + "\n"
                   for line in text.splitlines())


def _text_in_first_recon_cell(text):
    header, first, *rest = text.splitlines()
    cells = first.split(",")
    cells[header.split(",").index("recon")] = "abc"
    return "".join(line + "\n" for line in (header, ",".join(cells), *rest))


def _json_without(*keys):
    """Corrupt JSON text by deleting the key reached through keys."""
    def corrupt(text):
        data = json.loads(text)
        parent = data
        for key in keys[:-1]:
            parent = parent[key]
        del parent[keys[-1]]
        return json.dumps(data)
    return corrupt


def _json_with(change, *keys):
    """Corrupt JSON text by replacing the value v reached through keys
    with change(v)."""
    def corrupt(text):
        data = json.loads(text)
        parent = data
        for key in keys[:-1]:
            parent = parent[key]
        parent[keys[-1]] = change(parent[keys[-1]])
        return json.dumps(data)
    return corrupt


def _command_reading(workspace, tmp_path, name, corrupt):
    """A copy of the workspace whose file `name` went through corrupt(text),
    and the command line that reads it; returns (path, argv)."""
    root = shutil.copytree(workspace["root"], tmp_path / "workspace")
    path = next(root.glob(f"*/{name}"))
    path.write_text(corrupt(path.read_text()))
    demos = root / "demos"
    fit = ["fit", "--demos", str(demos / "demos.json"),
           "--env", str(demos / "env.json")]
    argv = {"env.json": fit, "demos.json": fit,
            "fits.json": ["train", "--fits", str(root / "fits" / "fits.json"),
                          "--epochs", "2"]}.get(
        name, ["sample", "--model", str(root / "model"), "--count", "4"])
    return path, argv


@pytest.mark.parametrize("name, corrupt, key", [
    ("env.json", lambda text: json.dumps([json.loads(text)]), "obstacles"),
    ("env.json", lambda text: json.dumps({**json.loads(text),
                                          "q_goal": "abc"}), "q_goal"),
    ("history.csv", _drop_last_column, "total"),
    ("history.csv", _text_in_first_recon_cell, "recon"),
    ("latents.json", _json_without("z"), "z"),
    ("latents.json", lambda text: json.dumps(json.loads(text)["z"]), "z"),
    ("train_meta.json", _json_without("config"), "config"),
    ("decoder.json", _json_without("weights"), "weights"),
    ("decoder.json", lambda text: json.dumps({**json.loads(text),
                                              "sizes": [2, 7]}), "sizes"),
    ("curve_model.json", _json_without("basis", "width"), "width"),
    ("curve_model.json", lambda text: json.dumps(
        {**json.loads(text), "basis": {**json.loads(text)["basis"],
                                       "width": "abc"}}), "width"),
    ("train_meta.json", lambda text: json.dumps(
        {"config": {**json.loads(text)["config"], "hidden": 5}}), "hidden"),
    ("fits.json", _json_without("coefficients"), "coefficients"),
    ("demos.json", _json_without("trajectories", 0, "q"), "q"),
    ("fits.json", _json_with(lambda v: "abc", "coefficients"),
     "coefficients"),
    ("fits.json", _json_with(lambda v: v + v[:1], "coefficients", 0),
     "coefficients"),
    ("fits.json", _json_with(lambda v: "abc", "objectives"), "objectives"),
    ("fits.json", _json_with(lambda v: [v], "model"), "model"),
    ("demos.json", _json_with(lambda v: "abc", "dim"), "dim"),
    ("demos.json", _json_with(lambda v: 3, "dim"), "dim"),
    ("demos.json", _json_with(lambda v: "abc", "trajectories", 0, "t"),
     "t"),
    ("demos.json", _json_with(lambda v: v[1:], "trajectories", 0, "q"),
     "q"),
], ids=["env-as-list", "env-text-q_goal", "history-without-total",
        "history-text-recon", "latents-without-z", "latents-as-list",
        "train_meta-without-config", "decoder-without-weights",
        "decoder-sizes-unlike-weights",
        "curve_model-basis-without-width", "curve_model-text-width",
        "train_meta-int-hidden", "fits-without-coefficients",
        "demos-trajectory-without-q", "fits-text-coefficients",
        "fits-matrix-unlike-model", "fits-text-objectives",
        "fits-model-as-list", "demos-dim-text", "demos-dim-unlike-points",
        "demos-text-t", "demos-q-unlike-t"])
def test_ill_typed_input_file_exits_2_naming_file_and_field(
        workspace, tmp_path, capsys, name, corrupt, key):
    path, argv = _command_reading(workspace, tmp_path, name, corrupt)
    assert run_cli(*argv, "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(path) in err
    assert repr(key) in err and "Traceback" not in err


def test_fit_on_empty_dataset_exits_2_and_writes_nothing(workspace,
                                                         tmp_path, capsys):
    path, argv = _command_reading(
        workspace, tmp_path, "demos.json",
        _json_with(lambda v: [], "trajectories"))
    out = tmp_path / "o"
    assert run_cli(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(path) in err
    assert "'trajectories'" in err and "Traceback" not in err
    assert not (out / "fits.json").exists()
    with pytest.raises(ValueError, match="empty trajectory dataset"):
        load_trajectory_dataset(path)


@pytest.mark.parametrize("name, corrupt", [
    ("fits.json", lambda text: json.dumps([json.loads(text)])),
    ("curve_model.json", lambda text: json.dumps(
        {**json.loads(text), "basis": {**json.loads(text)["basis"],
                                       "width": "abc"}})),
], ids=["fits-as-list", "curve_model-text-width"])
def test_ill_typed_json_value_exits_2_naming_the_file(workspace, tmp_path,
                                                     capsys, name, corrupt):
    path, argv = _command_reading(workspace, tmp_path, name, corrupt)
    assert run_cli(*argv, "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(path) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name", ["env.json", "demos.json", "fits.json",
                                  "latents.json"])
def test_truncated_json_file_exits_2_naming_it(workspace, tmp_path, capsys,
                                               name):
    path, argv = _command_reading(workspace, tmp_path, name,
                                  lambda text: text[:20])
    assert run_cli(*argv, "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(path) in err
    assert "Traceback" not in err


def test_console_script_is_installed(tmp_path):
    out = tmp_path / "via_script"
    proc = subprocess.run(
        ["motionmanifold", "synth-demos", "--env", "continuum",
         "--count", "3", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "wrote 3 demos" in proc.stdout
    assert (out / "demos.json").exists()


def test_module_invocation_matches_script(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c",
         "from motionmanifold.cli import main; raise SystemExit(main())",
         ],
        capture_output=True, text=True)
    assert proc.returncode == 2                  # argparse: missing command
