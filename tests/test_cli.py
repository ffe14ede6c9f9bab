"""End-to-end command-line workflows, exit codes, and artifact formats."""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from motionmanifold.basis import load_trajectory_dataset
from motionmanifold.cli import load_fits, main


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """synth-demos -> fit -> train chain shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    demos_dir = root / "demos"
    fits_dir = root / "fits"
    model_dir = root / "model"
    assert run_cli("synth-demos", "--env", "continuum", "--count", "12",
                   "--seed", "3", "--out", str(demos_dir)) == 0
    assert run_cli("fit", "--demos", str(demos_dir / "demos.json"),
                   "--env", str(demos_dir / "env.json"),
                   "--out", str(fits_dir)) == 0
    assert run_cli("train", "--fits", str(fits_dir / "fits.json"),
                   "--epochs", "150", "--hidden", "32,32",
                   "--out", str(model_dir)) == 0
    return {"root": root, "demos": demos_dir, "fits": fits_dir,
            "model": model_dir}


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


def test_train_writes_model_and_latents(workspace):
    out = workspace["model"]
    for name in ("encoder.json", "decoder.json", "curve_model.json",
                 "train_meta.json", "history.csv", "latents.json",
                 "meta.json"):
        assert (out / name).exists(), name
    z = np.asarray(json.loads((out / "latents.json").read_text())["z"])
    assert z.shape == (12, 2)


def test_sample_from_trained_model(workspace, tmp_path):
    out = tmp_path / "samples"
    assert run_cli("sample", "--model", str(workspace["model"]),
                   "--density", "kde", "--count", "8", "--grid", "40",
                   "--out", str(out)) == 0
    trajs = load_trajectory_dataset(out / "samples.json")
    assert len(trajs) == 8
    assert all(t.points.shape == (40, 2) for t in trajs)
    assert (out / "density.json").exists()
    for t in trajs:                    # via-point endpoints hold exactly
        assert np.allclose(t.points[0], [0.0, 0.0], atol=1e-9)
        assert np.allclose(t.points[-1], [1.0, 0.0], atol=1e-9)


def test_sample_reconstructs_stored_fit(workspace, tmp_path):
    out = tmp_path / "recon"
    assert run_cli("sample", "--from-params",
                   str(workspace["fits"] / "fits.json"), "--index", "4",
                   "--grid", "80", "--out", str(out)) == 0
    rec = load_trajectory_dataset(out / "samples.json")[0]
    demo = load_trajectory_dataset(workspace["demos"] / "demos.json")[4]
    assert rec.points.shape == demo.points.shape
    assert np.abs(rec.points - demo.points).max() < 0.02


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
    assert run_cli("eval", "--env", "env1", "--kind", "mmp++",
                   "--num-samples", "15", "--seeds", "2", "--epochs", "60",
                   "--hidden", "16,16", "--out", str(out)) == 0
    assert (out / "report.csv").exists()


def test_replan_episode_without_obstacle(tmp_path):
    out = tmp_path / "replan"
    assert run_cli("replan", "--epochs", "150", "--count", "12",
                   "--hidden", "32,32", "--control-hz", "200",
                   "--replan-hz", "10", "--total-time", "2.0",
                   "--window", "0.5", "--no-obstacle",
                   "--out", str(out)) == 0
    trace = (out / "trace.csv").read_text().strip().splitlines()
    assert trace[0].split(",")[:2] == ["t", "tau"]
    assert len(trace) > 100
    assert not (out / "obstacles.json").exists()
    assert (out / "scene.svg").exists()


def test_export_plot_renders_figures(workspace, tmp_path):
    out = tmp_path / "figs"
    assert run_cli("export-plot", "--model", str(workspace["model"]),
                   "--density", "kde", "--count", "6",
                   "--out", str(out)) == 0
    for name in ("loss_curves.svg", "latent_scatter.svg",
                 "trajectories.svg"):
        svg = (out / name).read_text()
        assert svg.lstrip().startswith("<svg"), name


# -- configuration handling ------------------------------------------------


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"count": 7, "env": "continuum"}))
    out = tmp_path / "out"
    assert run_cli("synth-demos", "--env", "continuum",
                   "--config", str(cfg), "--out", str(out)) == 0
    assert len(load_trajectory_dataset(out / "demos.json")) == 7


def test_explicit_flag_beats_config_value(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"count": 7}))
    out = tmp_path / "out"
    assert run_cli("synth-demos", "--env", "continuum", "--count", "4",
                   "--config", str(cfg), "--out", str(out)) == 0
    assert len(load_trajectory_dataset(out / "demos.json")) == 4


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
    (["sample"], {"from_params": 5}),
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


def test_bad_hidden_spec_exits_2(workspace, tmp_path, capsys):
    code = run_cli("train", "--fits", str(workspace["fits"] / "fits.json"),
                   "--hidden", "a,b", "--out", str(tmp_path / "o"))
    assert code == 2
    assert "hidden" in capsys.readouterr().err


def test_sample_index_out_of_range_exits_2(workspace, tmp_path, capsys):
    code = run_cli("sample", "--from-params",
                   str(workspace["fits"] / "fits.json"), "--index", "99",
                   "--out", str(tmp_path / "o"))
    assert code == 2
    assert "index" in capsys.readouterr().err


def test_numerical_failure_exits_3(workspace, tmp_path, capsys):
    # more mixture components than latent points cannot be fitted
    code = run_cli("sample", "--model", str(workspace["model"]),
                   "--density", "gmm", "--components", "50",
                   "--count", "4", "--out", str(tmp_path / "o"))
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["synth-demos", "--env", "continuum", "--count", "0"],
    ["train", "--fits", "{fits}", "--epochs", "0"],
    ["train", "--fits", "{fits}", "--alpha", "-1"],
    ["sample", "--from-params", "{fits}", "--grid", "0"],
    ["fit", "--demos", "{demos}", "--env", "{env}", "--bases", "1"],
    ["replan", "--replan-hz", "2000", "--epochs", "2", "--count", "6",
     "--hidden", "4"],
], ids=["synth-count", "train-epochs", "train-alpha", "sample-grid",
        "fit-bases", "replan-hz"])
def test_rejected_option_value_exits_2(workspace, tmp_path, capsys, argv):
    paths = {"fits": workspace["fits"] / "fits.json",
             "demos": workspace["demos"] / "demos.json",
             "env": workspace["demos"] / "env.json"}
    argv = [arg.format(**paths) for arg in argv]
    assert run_cli(*argv, "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err


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
