"""Acceptance suite: one test per shipped guarantee of the package.

Every test pins its tolerances and a wall-clock budget and prints a
single machine-greppable pass/fail line.  The lines also surface in the
end-of-run summary (see pytest_terminal_summary in conftest.py), so they
are visible without -s.
"""

import json
import pathlib
import time

import numpy as np
from scipy.sparse.linalg import lsqr

from motionmanifold import lie, nets
from motionmanifold.basis import BasisSet, CurveModel, TimedTrajectory
from motionmanifold.density import (SampleFilter, gmm_fit, kde_build,
                                    min_loglik_threshold, rejection_sample)
from motionmanifold.envs import (KINDS, build_bundle, evaluate_success,
                                 fit_demos, generate_env)
from motionmanifold.geometry import CurveGeomMetric
from motionmanifold.replan import constraint_from_script, run_episode
from motionmanifold.training import TrainConfig, train


RESULT_LINES = []


def _report(name, ok, elapsed, budget, detail):
    line = (f"[{'PASS' if ok else 'FAIL'}] {name}: {detail} "
            f"[{elapsed:.1f}s / {budget:.0f}s]")
    RESULT_LINES.append(line)
    print(line, flush=True)


def _finish(name, ok, t0, budget, detail):
    elapsed = time.monotonic() - t0
    in_budget = elapsed < budget
    _report(name, ok and in_budget, elapsed, budget, detail)
    assert ok, detail
    assert in_budget, f"{name} took {elapsed:.1f}s, budget {budget:.0f}s"


# -- 1: success-rate ordering across model kinds ---------------------------


def test_success_rate_ordering_across_model_kinds():
    t0 = time.monotonic()
    budget = 900.0
    study_cfg = TrainConfig(epochs=2000, hidden=(128, 128), seed=0)
    means = {}
    for env_id in ("env1", "env2", "env3"):
        env, demos = generate_env(env_id, seed=0)
        for kind in KINDS:
            bundle = build_bundle(kind, env, demos, seed=0,
                                  train_config=study_cfg)
            report = evaluate_success(bundle, env, env_id=env_id,
                                      num_samples=500,
                                      seeds=(0, 1, 2, 3, 4))
            means[(env_id, kind)] = report.mean
    ok = True
    for env_id in ("env1", "env2", "env3"):
        ok &= means[(env_id, "immp++")] >= 95.0
        ok &= means[(env_id, "immp++")] >= means[(env_id, "mmp++")] - 1.0
    gap = means[("env3", "vmp-gmm")] - means[("env3", "vmp-gauss")]
    ok &= gap >= 10.0
    detail = ("env3 immp++ %.1f%% mmp++ %.1f%% vmp-gmm %.1f%% "
              "vmp-gauss %.1f%% (gmm-gauss gap %.1f >= 10)" % (
                  means[("env3", "immp++")], means[("env3", "mmp++")],
                  means[("env3", "vmp-gmm")], means[("env3", "vmp-gauss")],
                  gap))
    _finish("success-rate ordering", ok, t0, budget, detail)


# -- 2: closed-form fit equals an iterative least-squares oracle -----------


def test_fit_matches_iterative_least_squares_oracle():
    t0 = time.monotonic()
    budget = 5.0
    rng = np.random.default_rng(20)
    worst = 0.0
    for _ in range(50):
        n_bases = int(rng.integers(5, 15))
        n_dim = int(rng.integers(1, 4))
        n_samples = int(rng.integers(n_bases + 5, 80))
        basis = BasisSet.uniform(n_bases)
        model = CurveModel(basis, rng.normal(size=n_dim),
                           rng.normal(size=n_dim))
        start = rng.uniform(-3, 3)
        duration = rng.uniform(0.5, 4.0)
        times = start + np.sort(rng.uniform(0, duration, size=n_samples))
        times[0], times[-1] = start, start + duration
        traj = TimedTrajectory(times=times,
                               points=rng.normal(size=(n_samples, n_dim)))
        fitted = model.fit(traj)
        obj = model.fit_objective(fitted, traj)

        tau = (traj.times - traj.times[0]) / (traj.times[-1] - traj.times[0])
        phi = basis.evaluate(tau)
        delta = traj.points - model.elementary(tau)
        coef = np.column_stack([
            lsqr(phi, delta[:, d], atol=1e-14, btol=1e-14,
                 iter_lim=10000)[0] for d in range(n_dim)])
        oracle = float(np.sum((delta - phi @ coef) ** 2))
        worst = max(worst, abs(obj - oracle) / max(oracle, 1e-12))
    ok = worst <= 1e-6
    _finish("closed-form fit vs iterative oracle", ok, t0, budget,
            f"worst relative objective gap {worst:.2e} <= 1e-06 "
            f"over 50 fixtures")


# -- 3: differentiation passes finite-difference checks --------------------


def test_gradients_match_finite_differences():
    t0 = time.monotonic()
    budget = 30.0
    rng = np.random.default_rng(30)

    # reverse mode: d<c, f(x)>/dx and per-layer weight gradients
    net = nets.Mlp.create([6, 14, 14, 5], seed=31)
    x = rng.normal(size=6)
    cot = rng.normal(size=5)
    input_grad, grad = net.vjp(x, cot)
    dws, _ = net.layer_views(grad)
    eps = 1e-6
    fd_x = np.empty_like(x)
    for i in range(x.size):
        up, dn = x.copy(), x.copy()
        up[i] += eps
        dn[i] -= eps
        fd_x[i] = (cot @ net.forward(up) - cot @ net.forward(dn)) / (2 * eps)
    rel_vjp = np.abs(input_grad - fd_x).max() / max(np.abs(fd_x).max(), 1e-8)
    for layer in range(net.n_layers):
        w0 = net.weights[layer]
        fd_w = np.empty_like(w0)
        for i in range(w0.shape[0]):
            for j in range(w0.shape[1]):
                orig = w0[i, j]
                w0[i, j] = orig + eps
                hi = float(cot @ net.forward(x))
                w0[i, j] = orig - eps
                lo = float(cot @ net.forward(x))
                w0[i, j] = orig
                fd_w[i, j] = (hi - lo) / (2 * eps)
        rel_vjp = max(rel_vjp, np.abs(dws[layer] - fd_w).max()
                      / max(np.abs(fd_w).max(), 1e-8))

    # forward mode: directional derivatives
    rel_jvp = 0.0
    for _ in range(10):
        v = rng.normal(size=6)
        fd = (net.forward(x + eps * v) - net.forward(x - eps * v)) / (2 * eps)
        rel_jvp = max(rel_jvp, np.abs(net.jvp(x, v) - fd).max()
                      / max(np.abs(fd).max(), 1e-8))

    # distortion objective: gradient through the second-order pipeline,
    # at 0-3 hidden layers (training's decoders have two or three)
    basis = BasisSet.uniform(4)
    metric = CurveGeomMetric(basis.gram())
    rel_dist = 0.0
    for trial in range(12):
        dec = nets.Mlp.create([2, *[6] * (trial % 4), 8], seed=300 + trial)
        z = rng.normal(size=(5, 2))
        _, dgrad = nets.grad_of_distortion(dec, z, metric)
        layer = int(rng.integers(0, dec.n_layers))
        i = int(rng.integers(0, dec.weights[layer].shape[0]))
        j = int(rng.integers(0, dec.weights[layer].shape[1]))
        h = 1e-5
        w0 = dec.weights[layer][i, j]
        dec.weights[layer][i, j] = w0 + h
        up, _ = nets.grad_of_distortion(dec, z, metric)
        dec.weights[layer][i, j] = w0 - h
        dn, _ = nets.grad_of_distortion(dec, z, metric)
        dec.weights[layer][i, j] = w0
        fd = (up - dn) / (2 * h)
        rel_dist = max(rel_dist,
                       abs(dec.layer_views(dgrad)[0][layer][i, j] - fd)
                       / max(abs(fd), 1e-8))

    ok = rel_vjp <= 1e-5 and rel_jvp <= 1e-5 and rel_dist <= 1e-3
    _finish("finite-difference gradient checks", ok, t0, budget,
            f"vjp {rel_vjp:.2e} <= 1e-05, jvp {rel_jvp:.2e} <= 1e-05, "
            f"distortion {rel_dist:.2e} <= 1e-03")


# -- 4: distortion penalty flattens the latent metric ----------------------


def test_distortion_penalty_flattens_latent_metric():
    t0 = time.monotonic()
    budget = 600.0
    env, demos = generate_env("env1", seed=0)
    model, fits = fit_demos(env, demos)
    labels = np.repeat([0, 1], 5)
    metric = CurveGeomMetric(model.basis.gram())

    def study(alpha):
        cfg = TrainConfig(latent_dim=2, alpha=alpha, epochs=2000,
                          hidden=(128, 128), seed=0)
        manifold = train(fits, model, cfg)
        z = manifold.encode_many(fits)
        # eigenvalues of the pullback metric at each latent; a singular
        # metric reads as an infinite condition number
        eigs = np.linalg.eigvalsh(
            nets.distortion_terms(manifold.decoder, z, metric)[3])
        conds = eigs[:, -1] / np.maximum(eigs[:, 0], 0.0)
        dist = np.linalg.norm(z[:, None, :] - z[None, :, :], axis=2)
        inter = dist[labels[:, None] != labels[None, :]].min()
        iu = np.triu_indices(len(z), k=1)
        intra = dist[iu][labels[iu[0]] == labels[iu[1]]].max()
        return float(np.median(conds)), float(inter / intra)

    cond_plain, sep_plain = study(0.0)
    cond_reg, sep_reg = study(0.1)
    ok = cond_reg < cond_plain and sep_reg > sep_plain
    _finish("distortion penalty flattens latent metric", ok, t0, budget,
            f"median cond {cond_plain:.2f} -> {cond_reg:.2f} (lower), "
            f"separation {sep_plain:.2f} -> {sep_reg:.2f} (larger)")


# -- 5: via-point endpoint exactness ---------------------------------------


def test_via_point_endpoints_are_exact():
    t0 = time.monotonic()
    budget = 5.0
    rng = np.random.default_rng(50)
    worst_rel = 0.0
    for _ in range(1000):
        n_bases = int(rng.integers(3, 25))
        n_dim = int(rng.integers(1, 7))
        basis = BasisSet.uniform(n_bases)
        q0 = rng.normal(size=n_dim) * 10.0 ** rng.uniform(-3, 3)
        q1 = rng.normal(size=n_dim) * 10.0 ** rng.uniform(-3, 3)
        w = rng.normal(size=(n_dim, n_bases)) * 10.0 ** rng.uniform(-3, 3)
        model = CurveModel(basis, q0, q1)
        pts = model.evaluate(w, np.array([0.0, 1.0]))
        scale = max(1.0, np.abs(q0).max(), np.abs(q1).max(),
                    np.abs(w).max())
        err = max(np.abs(pts[0] - q0).max(), np.abs(pts[1] - q1).max())
        worst_rel = max(worst_rel, err / scale)

    worst_rot = 0.0
    for k in range(1000):
        n_bases = int(rng.integers(3, 12))
        basis = BasisSet.uniform(n_bases)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        r0 = lie.exp_so3(axis * rng.uniform(0, 2.8))
        axis2 = rng.normal(size=3)
        axis2 /= np.linalg.norm(axis2)
        r1 = lie.exp_so3(axis2 * rng.uniform(0, 2.8))
        params = lie.Se3CurveParams(
            w_pos=rng.normal(size=(3, n_bases)),
            w_rot=rng.normal(size=(3, n_bases)),
            p_start=rng.normal(size=3), p_end=rng.normal(size=3),
            r_start=r0, r_end=r1)
        ends = lie.eval_rotation_curve(params, basis, np.array([0.0, 1.0]))
        worst_rot = max(worst_rot, np.abs(ends[0] - r0).max(),
                        np.abs(ends[1] - r1).max())

    ok = worst_rel <= 1e-12 and worst_rot <= 1e-9
    _finish("via-point endpoint exactness", ok, t0, budget,
            f"positions {worst_rel:.2e} <= 1e-12 * scale, "
            f"rotations {worst_rot:.2e} <= 1e-09, 1000 fixtures each")


# -- 6: rotation log/exp round trips ---------------------------------------


def test_rotation_round_trips_and_orthonormality():
    t0 = time.monotonic()
    budget = 10.0
    rng = np.random.default_rng(60)
    worst_rt = 0.0
    worst_ortho = 0.0
    for _ in range(10000):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        v = axis * rng.uniform(0.0, np.pi - 0.1)
        r = lie.exp_so3(v)
        worst_ortho = max(worst_ortho, np.abs(r.T @ r - np.eye(3)).max())
        worst_rt = max(worst_rt, np.abs(lie.log_so3(r) - v).max())

    worst_curve = 0.0
    taus = np.linspace(0.0, 1.0, 51)
    for k in range(20):
        basis = BasisSet.uniform(8)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        params = lie.Se3CurveParams(
            w_pos=np.zeros((3, 8)),
            w_rot=rng.normal(size=(3, 8)) * 0.5,
            p_start=np.zeros(3), p_end=np.ones(3),
            r_start=lie.exp_so3(axis * rng.uniform(0, 2.5)),
            r_end=lie.exp_so3(-axis * rng.uniform(0, 2.5)))
        curve = lie.eval_rotation_curve(params, basis, taus)
        drift = np.abs(curve @ np.swapaxes(curve, -1, -2)
                       - np.eye(3)).max()
        worst_curve = max(worst_curve, drift)

    ok = worst_rt <= 1e-9 and worst_ortho <= 1e-9 and worst_curve <= 1e-9
    _finish("rotation round trips", ok, t0, budget,
            f"log(exp(v)) error {worst_rt:.2e} <= 1e-09 on 10^4 draws, "
            f"orthonormality drift {max(worst_ortho, worst_curve):.2e} "
            f"<= 1e-09")


# -- 7: density estimates are consistent -----------------------------------


def test_density_estimation_consistency():
    t0 = time.monotonic()
    budget = 60.0
    rng = np.random.default_rng(70)

    em_ok = True
    for trial in range(6):
        centers = rng.normal(scale=1.5, size=(int(rng.integers(2, 4)), 2))
        pts = np.vstack([c + 0.5 * rng.standard_normal((40, 2))
                         for c in centers])
        g = gmm_fit(pts, len(centers), seed=trial)
        hist = np.array(g.log_likelihood_history)
        em_ok &= bool(np.all(np.diff(hist) >= -1e-9 * np.abs(hist[:-1])))

    blob_rng = np.random.default_rng(71)
    blobs = np.vstack([blob_rng.normal((-1.0, 0.0), 0.5, size=(60, 2)),
                       blob_rng.normal((1.0, 0.0), 0.5, size=(60, 2))])
    mc_rng = np.random.default_rng(72)
    box_pts = mc_rng.uniform((-4.0, -3.0), (4.0, 3.0), size=(100000, 2))
    vol = 8.0 * 6.0
    gmm = gmm_fit(blobs, 2, seed=0)
    gmm_integral = float(np.mean(np.exp(gmm.logpdf(box_pts))) * vol)
    kde = kde_build(blobs[::3])
    kde_integral = float(np.mean(np.exp(kde.logpdf(box_pts))) * vol)

    threshold = min_loglik_threshold(gmm, blobs)
    result = rejection_sample(
        gmm, SampleFilter(threshold=threshold, max_attempts=400 * 2000),
        np.random.default_rng(73), 2000)
    post_ok = (len(result.samples) == 2000
               and result.accepted >= 2000
               and result.attempts >= result.accepted
               and bool(np.all(gmm.logpdf(result.samples) >= threshold)))

    ok = (em_ok and abs(gmm_integral - 1.0) <= 0.02
          and abs(kde_integral - 1.0) <= 0.02 and post_ok)
    _finish("density estimation consistency", ok, t0, budget,
            f"EM monotone on 6 fixtures, MC integral gmm "
            f"{gmm_integral:.4f} / kde {kde_integral:.4f} within 2%, "
            f"rejection postcondition on 2000 draws")


# -- 8: online replanning stays safe ---------------------------------------


def test_online_replanning_avoids_scripted_obstacle(replan_fixture):
    t0 = time.monotonic()
    budget = 120.0
    fx = replan_fixture
    threshold = fx["config"].threshold
    max_violation = -np.inf
    all_reached = True
    density_held = True
    replans = []
    for seed in range(5):
        trace = run_episode(fx["manifold"], fx["density"],
                            fx["constraint"], fx["config"], seed=seed)
        all_reached &= trace.reached_goal and trace.taus[-1] >= 1.0 - 1e-9
        max_violation = max(max_violation, trace.max_constraint)
        replans.append(trace.n_replans)
        events = np.flatnonzero(trace.replan_events == 1)
        if len(events):
            logs = np.atleast_1d(
                fx["density"].logpdf(trace.latents[events[0]:]))
            density_held &= bool(np.all(logs >= threshold - 1e-9))

    control = run_episode(fx["manifold"], fx["density"],
                          constraint_from_script([]), fx["config"], seed=0)
    control_ok = (control.n_replans == 0 and control.reached_goal
                  and control.max_constraint <= 0.0)

    ok = (all_reached and max_violation <= 0.0 and density_held
          and control_ok)
    _finish("online replanning safety", ok, t0, budget,
            f"5 seeds reach the goal, worst constraint "
            f"{max_violation:.4f} <= 0, replans per seed {replans}, "
            f"log-density floor held, control run replans 0 times")


GOLDEN_REPLAN = pathlib.Path(__file__).parent / "data" / "replan_golden.json"
TRACE_COLUMNS = ("times", "taus", "latents", "points", "constraint_values",
                 "violation_flags", "replan_events")


def replan_fingerprint(fx):
    """Every 100th trace row, plus the last, of seeds 0-4 and control.

    At 1000/10 Hz a replan check falls on every 100th tick, so the rows
    include every check.  tests/data/replan_golden.json holds this for the
    per-tick control loop the blocked one replaced.
    """
    runs = [(f"episode {s}", fx["constraint"], s) for s in range(5)]
    runs.append(("control", constraint_from_script([]), 0))
    out = {}
    for name, constraint, seed in runs:
        trace = run_episode(fx["manifold"], fx["density"], constraint,
                            fx["config"], seed=seed)
        rows = sorted(set(range(0, len(trace.times), 100))
                      | {len(trace.times) - 1})
        out[name] = {"length": len(trace.times), "rows": rows,
                     "n_replans": trace.n_replans,
                     "n_infeasible": trace.n_infeasible,
                     "reached_goal": trace.reached_goal,
                     "timed_out": trace.timed_out}
        for column in TRACE_COLUMNS:
            out[name][column] = getattr(trace, column)[rows].tolist()
    return out


def test_replan_traces_match_golden_fingerprint(replan_fixture):
    golden = json.loads(GOLDEN_REPLAN.read_text())
    fresh = replan_fingerprint(replan_fixture)
    assert sorted(fresh) == sorted(golden)
    for name, want in golden.items():
        got = fresh[name]
        for key in ("length", "rows", "n_replans", "n_infeasible",
                    "reached_goal", "timed_out", "violation_flags",
                    "replan_events"):
            assert got[key] == want[key], (name, key)
        for column in ("times", "taus", "latents", "points",
                       "constraint_values"):
            np.testing.assert_allclose(got[column], want[column],
                                       rtol=1e-12, atol=0.0,
                                       err_msg=f"{name} {column}")


GOLDEN_SUCCESS = pathlib.Path(__file__).parent / "data" / "success_golden.json"


def success_fingerprint():
    """A short env3 evaluate_success report for each of the four kinds.

    Small nets and few samples keep it to about a second; the latent kinds
    also record their final training losses.  tests/data/success_golden.json
    holds this as written by the list-based Adam update.
    """
    env, demos = generate_env("env3", seed=0)
    cfg = TrainConfig(epochs=300, hidden=(32, 32), seed=0)
    out = {}
    for kind in KINDS:
        bundle = build_bundle(kind, env, demos, seed=0, train_config=cfg)
        report = evaluate_success(bundle, env, env_id="env3",
                                  num_samples=200, seeds=(0, 1, 2))
        out[kind] = {"success_rates": report.success_rates,
                     "acceptance_rates": report.acceptance_rates}
        if bundle.manifold is not None:
            history = bundle.manifold.history
            out[kind]["recon_final"] = history["recon"][-1]
            out[kind]["distortion_final"] = history["distortion"][-1]
    return out


def test_success_reports_match_golden_fingerprint():
    golden = json.loads(GOLDEN_SUCCESS.read_text())
    fresh = success_fingerprint()
    assert sorted(fresh) == sorted(golden)
    for kind, want in golden.items():
        got = fresh[kind]
        assert sorted(got) == sorted(want), kind
        assert got["success_rates"] == want["success_rates"], kind
        assert got["acceptance_rates"] == want["acceptance_rates"], kind
        for key in ("recon_final", "distortion_final"):
            if key in want:
                np.testing.assert_allclose(got[key], want[key], rtol=1e-12,
                                           atol=0.0, err_msg=f"{kind} {key}")


# -- 9: pose-curve training beats the geodesic baseline --------------------


def test_pose_curve_training_beats_geodesic_baseline():
    t0 = time.monotonic()
    budget = 600.0
    demos, basis = lie.make_pouring_demos(count=8, seed=0)
    cfg = TrainConfig(latent_dim=2, alpha=0.0, epochs=4000,
                      hidden=(128, 128), seed=0)
    model = lie.train_se3(demos, basis, cfg)

    fitted = [lie.fit_se3_params(t, basis) for t in demos]
    decoded = [model.decode(model.encode(p)) for p in fitted]
    trained_loss = lie.se3_recon_loss(demos, decoded, basis)
    geodesic = [lie.Se3CurveParams(
        w_pos=np.zeros_like(p.w_pos), w_rot=np.zeros_like(p.w_rot),
        p_start=p.p_start, p_end=p.p_end, r_start=p.r_start, r_end=p.r_end)
        for p in fitted]
    baseline_loss = lie.se3_recon_loss(demos, geodesic, basis)
    ratio = trained_loss / baseline_loss

    taus = np.linspace(0.0, 1.0, 33)
    worst_rot = 0.0
    for params in decoded:
        worst_rot = max(worst_rot,
                        np.abs(params.r_end.T @ params.r_end
                               - np.eye(3)).max(),
                        abs(np.linalg.det(params.r_end) - 1.0))
        curve = lie.eval_rotation_curve(params, basis, taus)
        worst_rot = max(worst_rot, np.abs(
            curve @ np.swapaxes(curve, -1, -2) - np.eye(3)).max())

    ok = ratio < 0.10 and worst_rot <= 1e-9
    _finish("pose-curve training", ok, t0, budget,
            f"blended loss {trained_loss:.2e} vs geodesic baseline "
            f"{baseline_loss:.2e} (ratio {ratio:.4f} < 0.10), decoded "
            f"rotation invariants {worst_rot:.2e} <= 1e-09")
