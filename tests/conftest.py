import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import motionmanifold
from motionmanifold.basis import BasisSet, CurveModel, TimedTrajectory
from motionmanifold.cli import build_replan_fixture, main
from motionmanifold.training import TrainConfig, train


def pytest_terminal_summary(terminalreporter):
    """Repeat the acceptance pass/fail lines where capture cannot hide them."""
    for name in ("test_acceptance", "tests.test_acceptance"):
        mod = sys.modules.get(name)
        if mod is not None and getattr(mod, "RESULT_LINES", None):
            terminalreporter.section("acceptance criteria")
            for line in mod.RESULT_LINES:
                terminalreporter.write_line(line)
            break


def sine_family_fits(n_curves=12, n_bases=8, n_samples=50, seed=0):
    """Small family of arc curves between fixed endpoints, already fitted."""
    basis = BasisSet.uniform(n_bases)
    model = CurveModel(basis, np.array([0.0, 0.0]),
                       np.array([1.0, 0.0]))
    ts = np.linspace(0.0, 1.0, n_samples)
    rng = np.random.default_rng(seed)
    fits = []
    for peak in np.linspace(-0.4, 0.4, n_curves):
        y = np.sin(np.pi * ts) * peak + rng.normal(scale=1e-3, size=n_samples)
        pts = np.stack([ts, y], axis=1)
        fits.append(model.fit(TimedTrajectory(times=ts, points=pts)))
    return model, np.stack(fits)


@pytest.fixture(scope="session")
def arc_family():
    return sine_family_fits()


@pytest.fixture(scope="session")
def small_manifold(arc_family):
    model, fits = arc_family
    cfg = TrainConfig(latent_dim=2, alpha=0.0, epochs=300, hidden=(32, 32),
                      seed=0)
    return train(fits, model, cfg), model, fits


@pytest.fixture(scope="session")
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
        assert main([*argv[name], "--out", str(out)]) == 0
    return {"root": root, "demos": demos_dir, "fits": fits_dir,
            "model": model_dir, "argv": argv}


@pytest.fixture(scope="session")
def replan_fixture():
    """The acceptance replanning set-up: trained decoder, KDE, obstacle."""
    return build_replan_fixture(seed=0, epochs=1500, count=30,
                                hidden=(128, 128), with_obstacle=True,
                                control_hz=1000.0, replan_hz=10.0,
                                total_time=5.0, window=1.0)


@pytest.fixture(scope="session")
def one_curve_rounding():
    """share(model, taus, stack, points): the largest distance of points
    (N, T, n) from each curve's one-curve product segment + phi @ w.T, as a
    share of evaluate_batch's bound 2 (B + 2) eps (|segment| + |phi| @ |w|.T);
    at most 1 when the bound holds."""
    def share(model, taus, stack, points):
        segment, phi = model.elementary(taus), model.basis.evaluate(taus)
        margin = 2 * (model.basis.size + 2) * np.finfo(float).eps
        worst = 0.0
        for w, pts in zip(stack, points):
            bound = margin * (np.abs(segment) + np.abs(phi) @ np.abs(w).T)
            error = np.abs(pts - (segment + phi @ w.T))
            worst = max(worst, float(np.max(
                error / np.maximum(bound, np.finfo(float).tiny))))
        return worst
    return share


@pytest.fixture(scope="session")
def run_pytest_on_blas():
    """run(coretype, *args, **env): pytest *args in a fresh process whose
    OpenBLAS, if built with DYNAMIC_ARCH, runs the gemm kernel that
    OPENBLAS_CORETYPE = coretype names (None: the one it detects), with
    the further environment variables env; returns the CompletedProcess."""
    def run(coretype, *args, **extra):
        env = {key: value for key, value in os.environ.items()
               if key != "OPENBLAS_CORETYPE"}
        if coretype is not None:
            env["OPENBLAS_CORETYPE"] = coretype
        env.update(extra)
        src = str(pathlib.Path(motionmanifold.__file__).parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             *args], capture_output=True, text=True, env=env,
            cwd=pathlib.Path(__file__).parent.parent)
    return run
