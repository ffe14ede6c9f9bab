"""In-memory span tracer that wraps the library's public functions from outside.

A span is (name, start, end, parent span, operation id).  Spans live in
flat arrays while the traced pass runs and are written out once at the
end.  Self time (span time minus the time its child spans cover) and call
counts are accumulated as spans close, so deriving the per-layer numbers
needs no second pass over the spans.

Wrapping is done at every binding site: a module-level function is
replaced in every ``motionmanifold`` module that holds it (``from .basis
import evaluate_batch`` makes ``envs.evaluate_batch`` a second binding of
the same object), and a method is replaced on its class.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

PACKAGE = "motionmanifold"


class Tracer:
    """Span store plus per-span-name call counts, self times and counters."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.calls = []
        self.self_s = []
        self.counters = {}
        self.op_id = 0
        self._stack = []

    def _intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self._ids[name]

    def count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name, fn, on_return=None):
        """Traced stand-in for fn; on_return(tracer, args, result, error)."""
        nid = self._intern(name)
        stack = self._stack
        starts, ends = self.start, self.end
        names, parents, ops = self.name_id, self.parent, self.op
        calls, self_s = self.calls, self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            frame = [idx, 0.0]
            parents.append(stack[-1][0] if stack else -1)
            stack.append(frame)
            names.append(nid)
            ops.append(self.op_id)
            ends.append(0.0)
            result = error = None
            t0 = clock()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                t1 = clock()
                ends[idx] = t1
                stack.pop()
                dur = t1 - t0
                self_s[nid] += dur - frame[1]
                calls[nid] += 1
                if stack:
                    stack[-1][1] += dur
                if on_return is not None:
                    on_return(self, args, result, error)

        return traced

    def summary(self):
        """Flat {"<span>.calls": n, "<span>.self_ms": ms, counter: value}."""
        out = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[nid]
            out[f"{name}.self_ms"] = 1e3 * self.self_s[nid]
        out.update(self.counters)
        return out

    def save(self, path):
        """Write every span to a compressed .npz archive."""
        np.savez_compressed(
            path, names=np.array(self.names),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            name_id=np.frombuffer(self.name_id, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64))


# -- computed counts, derived from arguments and return values -------------

def _mlp_flops(tracer, args, result, error):
    net, x = args[0], np.asarray(args[1])
    batch = int(np.prod(x.shape[:-1])) if x.ndim > 1 else 1
    macs = sum(a * b for a, b in zip(net.sizes[:-1], net.sizes[1:]))
    tracer.count("nets.flops", 2 * batch * macs)


def _points_evaluated(tracer, args, result, error):
    stack, tau = args[1], np.atleast_1d(args[2])
    tracer.count("basis.points_evaluated", len(stack) * tau.size)


def _epochs(tracer, args, result, error):
    config = args[2] if len(args) > 2 else None
    if config is not None:
        tracer.count("training.epochs", config.epochs)


def _rejection(tracer, args, result, error):
    if result is not None:
        tracer.count("density.rejection.attempts", result.attempts)
        tracer.count("density.rejection.accepted", result.accepted)


def _trajectories(tracer, args, result, error):
    tracer.count("envs.trajectories_checked", int(args[2]))


def _ticks(tracer, args, result, error):
    if result is not None:
        tracer.count("replan.ticks", len(result.times))


def targets():
    """(owner, attribute, span name, on_return) for every traced function.

    Owners that are modules get every binding site wrapped; owners that
    are classes get the method replaced on the class.  Modules render,
    cli and errors are on no measured path and have no entries, but the
    names cli imports (train, fit_demos, kde_build, ...) are binding
    sites of the functions below and are wrapped with them.
    """
    from motionmanifold import (basis, density, envs, geometry, lie, nets,
                                replan, training)

    def searches(tracer, args, result, error):
        tracer.count("replan.searches", 1)
        tracer.count("replan.searches_infeasible", int(
            isinstance(error, replan.ReplanInfeasibleError)))

    return [
        (nets.Mlp, "forward", "nets.forward", _mlp_flops),
        (nets.Mlp, "forward_cache", "nets.forward_cache", None),
        (nets.Mlp, "backward", "nets.backward", None),
        (nets.Mlp, "_push_tangents", "nets.push_tangents", None),
        (nets.Mlp, "backward_through_jvp", "nets.backward_through_jvp",
         None),
        (nets, "adam_step", "nets.adam_step", None),
        (nets, "grad_of_distortion", "nets.grad_of_distortion", None),
        (geometry.CurveGeomMetric, "apply", "geometry.metric_apply", None),
        (training, "train", "training.train", _epochs),
        (training.ManifoldModel, "decode_many", "training.decode_many",
         None),
        (training.ManifoldModel, "curve_points", "training.curve_points",
         None),
        (basis, "evaluate_batch", "basis.evaluate_batch", _points_evaluated),
        (basis.CurveModel, "fit", "basis.fit", None),
        (density.GmmModel, "sample", "density.gmm.sample", None),
        (density.GmmModel, "logpdf", "density.gmm.logpdf", None),
        (density, "gmm_fit", "density.gmm_fit", None),
        (density.KdeModel, "sample", "density.kde.sample", None),
        (density.KdeModel, "logpdf", "density.kde.logpdf", None),
        (density, "kde_build", "density.kde_build", None),
        (density, "rejection_sample", "density.rejection_sample",
         _rejection),
        (envs, "build_bundle", "envs.build_bundle", None),
        (envs, "fit_demos", "envs.fit_demos", None),
        (envs, "evaluate_success", "envs.evaluate_success", None),
        (envs, "sample_curves", "envs.sample_curves", None),
        (envs, "success_rate", "envs.success_rate", _trajectories),
        (lie, "train_se3", "lie.train_se3", None),
        (lie, "se3_loss_and_grads", "lie.se3_loss_and_grads", None),
        (lie, "fit_se3_params", "lie.fit_se3_params", None),
        (replan, "run_episode", "replan.run_episode", _ticks),
        (replan, "predict_violation", "replan.predict_violation", None),
        (replan, "solve_replan", "replan.solve_replan", searches),
        (replan.DynamicConstraint, "__call__", "replan.constraint", None),
    ]


# Binding sites that hold a function under another module's name; each
# must read as traced after install() or the layer would look free.
REQUIRED_BINDINGS = [
    ("envs", "train"), ("envs", "evaluate_batch"), ("envs", "gmm_fit"),
    ("replan", "evaluate_batch"), ("training", "evaluate_batch"),
    ("cli", "train"), ("cli", "fit_demos"), ("cli", "kde_build"),
]


def _package_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE
                                    or name.startswith(PACKAGE + "."))]


def install(tracer):
    """Wrap every target at every binding site; returns an undo callable."""
    undo = []
    for owner, attr, span, on_return in targets():
        original = owner.__dict__[attr]
        traced = tracer.wrap(span, original, on_return)
        sites = [owner] if isinstance(owner, type) else _package_modules()
        for site in sites:
            for name, value in list(vars(site).items()):
                if value is original:
                    setattr(site, name, traced)
                    undo.append((site, name, original))

    def restore():
        for site, name, original in reversed(undo):
            setattr(site, name, original)

    missing = []
    for mod_name, attr in REQUIRED_BINDINGS:
        mod = sys.modules.get(f"{PACKAGE}.{mod_name}")
        if mod is None or not hasattr(getattr(mod, attr), "__wrapped__"):
            missing.append(f"{mod_name}.{attr}")
    if missing:
        restore()
        raise RuntimeError("binding sites left unwrapped: "
                           + ", ".join(missing))
    return restore
