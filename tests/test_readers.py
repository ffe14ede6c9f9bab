"""Every field of every JSON file a command reads, corrupted, fails by name.

The sweep takes each key path of the eight files the CLI hands from stage
to stage, with list indices collapsed to the first entry, and gives its
value each of CORRUPTIONS in turn, or deletes it.  Every command that
reads the file then runs in process on the corrupted copy.  It must exit
2 with a config error naming the file and the field, with no traceback
and no warning.  LEGAL lists the values a reader accepts, which must exit
0, again with no warning, and NUMERICAL the readable values that make a
library step fail, which must exit 3 with a numerical failure naming the
file and the field.  The key paths come from the files as written, so a
new field is swept without editing this test.
"""

import contextlib
import copy
import io
import json
import shutil
import warnings

import pytest

from motionmanifold.basis import CurveModel, TimedTrajectory
from motionmanifold.cli import load_fits, main
from motionmanifold.errors import finite_array, json_list, json_object, numeric
from motionmanifold.training import ManifoldModel

CORRUPTIONS = {"nan": float("nan"), "inf": float("inf"), "true": True,
               "text": "abc", "null": None, "list": [], "object": {},
               "huge": 1e300, "minus-one": -1, "zero": 0}
DELETE = "delete"

# file -> key path -> the corruptions (or DELETE) the readers accept
LEGAL = {
    "env.json": {
        # no obstacle, or one fewer
        "obstacles": {"list"},
        "obstacles[0]": {DELETE},
        # a larger scene, or one whose left edge is the start point
        "bounds[0][0]": {"minus-one", "zero"},
        # the start point's own coordinate; a goal on the start point
        "q_start[0]": {"zero"},
        "q_goal[0]": {"zero"},
    },
    "demos.json": {
        # one demonstration fewer; a first sample time of 0, since only
        # time differences matter; the first point's own coordinate
        "trajectories[0]": {DELETE},
        "trajectories[0].t[0]": {"zero"},
        "trajectories[0].q[0][0]": {"zero"},
    },
    "fits.json": {
        # no command reads the objectives
        "objectives": {"list", DELETE},
        "objectives[0]": {"huge", "minus-one", "zero", DELETE},
        # one curve fewer, or another curve
        "coefficients[0]": {DELETE},
        "coefficients[0][0][0]": {"minus-one", "zero"},
        # a curve model may start or end anywhere, with bases of any width;
        # the first center's own value
        "model.q_start[0]": {"huge", "minus-one", "zero"},
        "model.q_end[0]": {"huge", "minus-one", "zero"},
        "model.basis.width": {"huge"},
        "model.basis.centers[0]": {"zero"},
    },
    "curve_model.json": {
        "q_start[0]": {"huge", "minus-one", "zero"},
        "q_end[0]": {"huge", "minus-one", "zero"},
        "basis.width": {"huge"},
        "basis.centers[0]": {"zero"},
    },
    # any finite weight in the first layer, which tanh saturates
    "encoder.json": {
        "weights[0][0][0]": {"huge", "minus-one", "zero"},
        "biases[0][0]": {"huge", "minus-one", "zero"},
    },
    "decoder.json": {
        "weights[0][0][0]": {"huge", "minus-one", "zero"},
        "biases[0][0]": {"huge", "minus-one", "zero"},
    },
    "train_meta.json": {
        # a model trained with or without the distortion term, at any rate
        "config.alpha": {"huge", "zero"},
        "config.learning_rate": {"huge"},
        "config.seed": {"zero"},
    },
    "latents.json": {
        # one latent fewer, or a first latent elsewhere
        "z[0]": {DELETE},
        "z[0][0]": {"minus-one", "zero"},
    },
}


# file -> key path -> the corruptions that exit 3
NUMERICAL = {
    # a first sample a second early crowds the others into phases
    # [0.5, 1], where the least-squares fit is singular
    "demos.json": {"trajectories[0].t[0]": {"minus-one"}},
}


def key_paths(value, prefix=()):
    """Every key path into value, list indices collapsed to the first."""
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list) and value:
        children = [(0, value[0])]
    else:
        return
    for key, child in children:
        yield (*prefix, key)
        yield from key_paths(child, (*prefix, key))


def path_text(path):
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}"
                   for key in path).lstrip(".")


def corrupted(data, path, corruption):
    """A copy of data with the value at path replaced or deleted."""
    data = copy.deepcopy(data)
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    if corruption == DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = CORRUPTIONS[corruption]
    return data


@pytest.fixture(scope="module")
def sweep_files(workspace, tmp_path_factory):
    """A copy of the workspace whose env.json holds env1's obstacle."""
    tmp = tmp_path_factory.mktemp("sweep")
    root = shutil.copytree(workspace["root"], tmp / "workspace")
    assert main(["synth-demos", "--env", "env1", "--out",
                 str(tmp / "env1")]) == 0
    shutil.copy(tmp / "env1" / "env.json", root / "demos" / "env.json")
    return root


def readers(root, name):
    """The command lines that read the file `name` of the workspace root."""
    demos, fits, model = root / "demos", root / "fits", root / "model"
    env = str(demos / "env.json")
    fit = ["fit", "--demos", str(demos / "demos.json"), "--env", env]
    plot = ["export-plot", "--model", str(model), "--count", "4"]
    return {"env.json": [fit, [*plot, "--env", env]],
            "demos.json": [fit],
            "fits.json": [["train", "--fits", str(fits / "fits.json"),
                           "--epochs", "2", "--hidden", "4"],
                          ["reconstruct", "--fits", str(fits / "fits.json")]],
            }.get(name, [["sample", "--model", str(model), "--count", "4"],
                         plot])


def run(argv):
    """(exit code, stderr, warnings) of one in-process run."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except Exception as exc:         # an escaped error: a traceback
            code, err = 1, io.StringIO(f"Traceback: {exc!r}")
    return code, err.getvalue(), [str(w.message) for w in caught]


@pytest.mark.parametrize("name", list(LEGAL))
def test_every_corrupted_field_fails_by_name(sweep_files, tmp_path, name):
    path = next(sweep_files.glob(f"*/{name}"))
    text = path.read_text()
    original = json.loads(text)
    paths = list(key_paths(original))
    legal = LEGAL[name]
    unknown = ({*legal, *NUMERICAL.get(name, {})}
               - {path_text(p) for p in paths})
    assert not unknown, f"no key path of {name} is {unknown}"
    failures = []
    try:
        for key_path in paths:
            field = next(key for key in reversed(key_path)
                         if isinstance(key, str))
            for corruption in (*CORRUPTIONS, DELETE):
                path.write_text(json.dumps(corrupted(original, key_path,
                                                     corruption)))
                text_path = path_text(key_path)
                if corruption in legal.get(text_path, ()):
                    want, start = 0, ""
                elif corruption in NUMERICAL.get(name, {}).get(text_path, ()):
                    want, start = 3, "numerical failure: "
                else:
                    want, start = 2, "config error: "
                for argv in readers(sweep_files, name):
                    out = tmp_path / "out"
                    code, err, caught = run([*argv, "--out", str(out)])
                    shutil.rmtree(out, ignore_errors=True)
                    named = want == 0 or (str(path) in err
                                          and repr(field) in err)
                    if (caught or code != want or not err.startswith(start)
                            or not named or "Traceback" in err):
                        failures.append(
                            f"{argv[0]} {text_path}={corruption}: "
                            f"exit {code}, {err.strip()[-200:]!r}, "
                            f"warnings {caught}")
    finally:
        path.write_text(text)
    assert not failures, f"{len(failures)} cases:\n" + "\n".join(failures)


def test_written_files_carry_no_dimension_or_seed(workspace):
    # CurveModel derives its dimension from q_start, and a network's seed
    # was never read back
    fits = json.loads((workspace["fits"] / "fits.json").read_text())
    assert "dim" not in fits["model"]
    model = workspace["model"]
    assert "dim" not in json.loads((model / "curve_model.json").read_text())
    for name in ("encoder.json", "decoder.json"):
        assert set(json.loads((model / name).read_text())) == {
            "sizes", "weights", "biases"}


def test_files_with_a_dimension_and_a_seed_still_load(workspace, tmp_path):
    root = shutil.copytree(workspace["root"], tmp_path / "older")

    def add(path, **fields):
        path.write_text(json.dumps({**json.loads(path.read_text()),
                                    **fields}))

    fits = json.loads((root / "fits" / "fits.json").read_text())
    fits["model"]["dim"] = 2
    (root / "fits" / "fits.json").write_text(json.dumps(fits))
    add(root / "model" / "curve_model.json", dim=2)
    add(root / "model" / "encoder.json", seed=0)
    add(root / "model" / "decoder.json", seed=1)
    for argv in (["reconstruct", "--fits", str(root / "fits" / "fits.json")],
                 ["sample", "--model", str(root / "model"), "--count", "4"]):
        assert main([*argv, "--out", str(tmp_path / argv[0])]) == 0
    model, _, _ = load_fits(root / "fits" / "fits.json")
    assert model.dim == 2
    assert ManifoldModel.load(root / "model").decoder.sizes[0] == 2


@pytest.mark.parametrize("value, message", [
    ({"a": 1}, "expected a list, got dict"),
    ("abc", "expected a list, got str"),
    (3.0, "expected a list, got float"),
    (None, "expected a list, got NoneType"),
    ([1.0, "x"], "layer 1: could not convert"),
])
def test_list_converter_names_what_it_got(value, message):
    with pytest.raises((TypeError, ValueError), match=message):
        json_list(finite_array, "layer")(value)


def test_list_converter_converts_each_item():
    assert json_list(numeric(float))([1, 2.5]) == [1.0, 2.5]
    assert json_list(numeric(float))([]) == []


@pytest.mark.parametrize("value", [True, [0.5, False], [[1.0], [True]]])
def test_finite_array_rejects_a_json_boolean_anywhere(value):
    with pytest.raises(TypeError, match="true or false"):
        finite_array(value)


def test_object_converter_rejects_a_list():
    assert json_object({"a": 1}) == {"a": 1}
    with pytest.raises(TypeError, match="expected an object, got list"):
        json_object([])


def test_nested_records_name_their_path():
    data = {"model": {"kind": "via-point", "basis": {"mode": "via-point",
                                                     "centers": [0.0, 0.0],
                                                     "width": 1.0},
                      "q_start": [0.0], "q_end": [1.0]}}
    with pytest.raises(ValueError, match=(
            r"^fits.json: field 'model': field 'basis': field 'centers': "
            r"basis centers must lie in the phase range \[0, 1\] and be "
            r"mutually distinct$")):
        CurveModel.from_dict(data["model"], "fits.json: field 'model'")


def test_scalar_trajectory_points_are_rejected_by_name():
    with pytest.raises(ValueError, match="points .* not a scalar"):
        TimedTrajectory(times=[0.0], points=5.0)


def test_networks_that_do_not_fit_the_config_name_every_file(
        workspace, tmp_path):
    model = shutil.copytree(workspace["model"], tmp_path / "model")
    meta = json.loads((model / "train_meta.json").read_text())
    meta["config"]["hidden"] = [32]
    (model / "train_meta.json").write_text(json.dumps(meta))
    with pytest.raises(ValueError) as info:
        ManifoldModel.load(model)
    for name in ("encoder", "decoder", "curve_model", "train_meta"):
        assert str(model / f"{name}.json") in str(info.value)
    assert "'hidden' [32]" in str(info.value)
