"""The package namespace: what `from motionmanifold import *` exposes."""

import ast
import dataclasses
import inspect
import json
import os
import pathlib
import subprocess
import sys

import motionmanifold


def test_public_api_resolves():
    missing = [name for name in motionmanifold.__all__
               if not hasattr(motionmanifold, name)]
    assert missing == []
    assert len(set(motionmanifold.__all__)) == len(motionmanifold.__all__)
    tree = ast.parse(inspect.getsource(motionmanifold))
    imported = {alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    public = {name for name in imported if not name.startswith("_")}
    assert sorted(public - set(motionmanifold.__all__)) == []


def test_modules_have_no_unused_imports():
    unused = []
    package = pathlib.Path(motionmanifold.__file__).parent
    tests = pathlib.Path(__file__).parent
    for path in sorted([*package.glob("*.py"), *tests.glob("*.py")]):
        if path == package / "__init__.py":      # re-exports
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                    isinstance(node, ast.ImportFrom)
                    and node.module == "__future__"):
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def test_no_module_imports_a_private_name_of_another():
    # a private name may change with its own module; a module that reaches
    # another's, by a relative import or as an attribute of the module,
    # would break with it
    package = pathlib.Path(motionmanifold.__file__).parent
    modules = {path.stem for path in package.glob("*.py")}
    crossings = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = set()                  # names bound to a package module
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or not node.level:
                continue
            for alias in node.names:
                if node.module is None and alias.name in modules:
                    bound.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    crossings.append(f"{path.name}:{node.lineno} "
                                     f"{node.module}.{alias.name}")
        crossings += [f"{path.name}:{node.lineno} {node.value.id}.{node.attr}"
                      for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute)
                      and node.attr.startswith("_")
                      and isinstance(node.value, ast.Name)
                      and node.value.id in bound]
    assert crossings == []


def test_public_names_have_a_caller_outside_the_unit_tests():
    # a public function, class or method that only unit tests call is API
    # kept for its tests; a caller is the library itself (not the
    # re-exports of __init__), the benchmark, or the acceptance tests
    package = pathlib.Path(motionmanifold.__file__).parent
    tests = pathlib.Path(__file__).parent
    modules = [p for p in sorted(package.glob("*.py"))
               if p.name != "__init__.py"]
    callers = [*modules, *sorted((tests.parent / "perfbench").glob("*.py")),
               tests / "test_acceptance.py"]
    referenced = set()
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name.split(".")[-1])
    uncalled = []
    for path in modules:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            names = [node.name] + [
                f"{node.name}.{item.name}" for item in node.body
                if isinstance(node, ast.ClassDef)
                and isinstance(item, ast.FunctionDef)]
            uncalled += [f"{path.stem}.{name}" for name in names
                         if not name.split(".")[-1].startswith("_")
                         and name.split(".")[-1] not in referenced]
    assert uncalled == []


def test_every_config_field_has_a_cli_option():
    # a field that no command sets is a tuning value with no caller; it
    # belongs in a module constant beside the code that reads it
    from motionmanifold import cli
    from motionmanifold.replan import ReplanConfig
    from motionmanifold.training import TrainConfig
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if a.dest == "command")

    def dests(command):
        return {a.dest for a in commands.choices[command]._actions}

    # threshold is computed from each fixture's latents, and max_time caps
    # every episode at 3 * total_time; they are the only inputs that reach
    # the density floor and the timeout path of run_episode
    computed = {"threshold", "max_time"}
    for config, command, exempt in ((TrainConfig, "train", set()),
                                    (ReplanConfig, "replan", computed)):
        names = {f.name for f in dataclasses.fields(config)}
        assert sorted(names - exempt - dests(command)) == [], config.__name__


def test_curve_kernel_is_bound_by_name():
    # perfbench's span tracer wraps a function at every module that binds
    # it, and requires these binding sites: each module must hold the
    # library function itself under its own name
    from motionmanifold import basis, cli, density, envs, replan, training
    required = [(envs, training.train), (envs, basis.evaluate_batch),
                (envs, density.gmm_fit), (replan, basis.evaluate_batch),
                (training, basis.evaluate_batch), (cli, training.train),
                (cli, envs.fit_demos), (cli, density.kde_build)]
    for module, function in required:
        assert getattr(module, function.__name__, None) is function, \
            f"{module.__name__}.{function.__name__}"


def test_pose_loss_is_looked_up_at_each_call(monkeypatch):
    # the tracer swaps lie.se3_loss_and_grads on the module; a train_se3
    # that inlined the loss or bound it early would record no calls, and
    # the traced pose-train run would fail its span coverage
    from motionmanifold import lie
    from motionmanifold.training import TrainConfig
    calls = []
    loss = lie.se3_loss_and_grads

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return loss(*args, **kwargs)

    monkeypatch.setattr(lie, "se3_loss_and_grads", counted)
    demos, basis = lie.make_pouring_demos(count=2, seed=0, n_samples=20)
    lie.train_se3(demos, basis,
                  TrainConfig(latent_dim=1, epochs=2, hidden=(4,)))
    assert calls == [(2, 6 * basis.size + 6)] * 2


def test_import_loads_only_scipy_linalg():
    # every CLI step and benchmark run is a fresh process that pays for
    # each scipy subpackage the import pulls in
    probe = ("import json, sys\n"
             "import motionmanifold, motionmanifold.cli\n"
             "print(json.dumps(sorted(\n"
             "    name for name, mod in sys.modules.items()\n"
             "    if name.count('.') == 1 and name.startswith('scipy.')\n"
             "    and not name.startswith('scipy._')\n"
             "    and hasattr(mod, '__path__'))))\n")
    src = str(pathlib.Path(motionmanifold.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", probe],
                            capture_output=True, text=True, check=True,
                            env={**os.environ, "PYTHONPATH": path})
    assert json.loads(result.stdout) == ["scipy.linalg"]
