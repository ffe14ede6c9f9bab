import json

import numpy as np
import pytest

from motionmanifold import lie, nets
from motionmanifold.basis import CurveParams
from motionmanifold.errors import TrainingError
from motionmanifold.geometry import CurveGeomMetric
from motionmanifold.training import (ManifoldModel, TrainConfig,
                                     flatten_params, mixup_sample, train)


def test_flatten_round_trip():
    rng = np.random.default_rng(0)
    w = CurveParams(rng.normal(size=(3, 5)))
    flat = flatten_params(w)
    assert flat.shape == (15,)
    assert np.array_equal(flat.reshape(3, 5), w.coefficients)
    # row-major: coordinate i occupies the i-th block of length B
    assert np.array_equal(flat[:5], w.coefficients[0])


def test_mixup_extends_past_both_endpoints():
    # with latents 0 and 1 every draw is the mixing coefficient, its
    # complement, or an endpoint
    rng = np.random.default_rng(1)
    z = np.array([[1.0], [0.0]])
    draws = np.concatenate([mixup_sample(z, rng) for _ in range(1250)])[:, 0]
    assert draws.min() >= -0.2 and draws.max() <= 1.2
    assert draws.min() < -0.15 and draws.max() > 1.15   # reaches extensions
    assert abs(draws.mean() - 0.5) < 0.01


def test_config_validation():
    with pytest.raises(ValueError, match="alpha"):
        TrainConfig(alpha=-0.5)
    with pytest.raises(ValueError, match="epochs"):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError, match="latent"):
        TrainConfig(latent_dim=0)


@pytest.mark.parametrize("field, value", [
    ("learning_rate", -1.0),           # was gradient ascent
    ("learning_rate", 0.0),
    ("learning_rate", np.nan),
    ("learning_rate", np.inf),
    ("alpha", np.nan),                 # was a TrainingError at epoch 0
    ("alpha", np.inf),
    ("hidden", (0,)),                  # was an OverflowError in Mlp.create
    ("hidden", (16, -1)),
], ids=["lr-negative", "lr-zero", "lr-nan", "lr-inf", "alpha-nan",
        "alpha-inf", "hidden-zero", "hidden-negative"])
def test_config_rejects_bad_values(field, value):
    with pytest.raises(ValueError, match=field):
        TrainConfig(**{field: value})


def test_config_round_trip():
    cfg = TrainConfig(latent_dim=3, alpha=0.01, epochs=7, hidden=(8, 8),
                      seed=5)
    clone = TrainConfig.from_dict(cfg.to_dict())
    assert clone == cfg


def test_training_reduces_reconstruction(arc_family):
    model, fits = arc_family
    cfg = TrainConfig(latent_dim=2, epochs=200, hidden=(32, 32), seed=0)
    m = train(fits, model, cfg)
    h = m.history["recon"]
    assert h[-1] < 0.05 * h[0]
    assert len(h) == 200
    assert np.all(np.array(m.history["distortion"]) == 0.0)


def test_training_is_seed_reproducible(arc_family):
    model, fits = arc_family
    cfg = TrainConfig(latent_dim=2, epochs=50, hidden=(16, 16), seed=3)
    a = train(fits, model, cfg)
    b = train(fits, model, cfg)
    assert a.history["recon"] == b.history["recon"]
    for wa, wb in zip(a.decoder.weights, b.decoder.weights):
        assert np.array_equal(wa, wb)


@pytest.fixture
def metric_calls(monkeypatch):
    """Counts every CurveGeomMetric.apply call while a test runs."""
    calls = []
    apply = CurveGeomMetric.apply

    def counted(self, vec):
        calls.append(np.shape(vec))
        return apply(self, vec)

    monkeypatch.setattr(CurveGeomMetric, "apply", counted)
    return calls


def test_alpha_zero_never_touches_metric(arc_family, metric_calls):
    model, fits = arc_family
    cfg = TrainConfig(latent_dim=2, epochs=20, hidden=(8, 8), seed=0,
                      alpha=0.0)
    train(fits, model, cfg)
    assert metric_calls == []


def test_alpha_positive_regularizes(arc_family, metric_calls):
    model, fits = arc_family
    cfg = TrainConfig(latent_dim=2, epochs=60, hidden=(16, 16), seed=0,
                      alpha=0.1)
    m = train(fits, model, cfg)
    # one penalty per epoch, on the mixup batch of 16 latent points
    assert metric_calls == [(16, 2, model.dim * model.basis.size)] * 60
    dist = np.array(m.history["distortion"])
    assert np.all(dist > 0)
    tot = np.array(m.history["total"])
    rec = np.array(m.history["recon"])
    assert np.allclose(tot, rec + 0.1 * dist)


def test_distortion_changes_decoder_not_just_history(arc_family):
    model, fits = arc_family
    base = TrainConfig(latent_dim=2, epochs=40, hidden=(16, 16), seed=0)
    reg = TrainConfig(latent_dim=2, epochs=40, hidden=(16, 16), seed=0,
                      alpha=0.1)
    a = train(fits, model, base)
    b = train(fits, model, reg)
    diff = max(np.abs(wa - wb).max()
               for wa, wb in zip(a.decoder.weights, b.decoder.weights))
    assert diff > 1e-6


def test_nan_dataset_raises_at_first_epoch(arc_family):
    model, fits = arc_family
    poisoned = [CurveParams(f.coefficients.copy()) for f in fits]
    poisoned[0].coefficients[0, 0] = np.nan
    cfg = TrainConfig(latent_dim=2, epochs=10, hidden=(8, 8), seed=0)
    with pytest.raises(TrainingError, match="epoch 0"):
        train(poisoned, model, cfg)


def test_model_save_load_round_trip(tmp_path, small_manifold):
    m, model, fits = small_manifold
    m.save(tmp_path)
    clone = ManifoldModel.load(tmp_path)
    z = m.encode_many(fits)
    assert np.allclose(clone.encode_many(fits), z)
    assert np.allclose(clone.decode_many(z), m.decode_many(z))
    assert clone.config == m.config
    assert clone.history["recon"] == pytest.approx(m.history["recon"])


def test_saved_meta_holds_only_the_config(tmp_path, small_manifold):
    m, model, fits = small_manifold
    m.save(tmp_path)
    meta = json.loads((tmp_path / "train_meta.json").read_text())
    assert meta == {"config": m.config.to_dict()}
    assert sorted(meta["config"]) == ["alpha", "epochs", "hidden",
                                      "latent_dim", "learning_rate", "seed"]


@pytest.mark.parametrize("key", ["trace_mode", "mix_batch"])
def test_load_rejects_unknown_config_key(tmp_path, small_manifold, key):
    m, model, fits = small_manifold
    m.save(tmp_path)
    meta_path = tmp_path / "train_meta.json"
    meta = json.loads(meta_path.read_text())
    meta["config"][key] = 16
    meta_path.write_text(json.dumps(meta, indent=1))
    with pytest.raises(ValueError, match=key):
        ManifoldModel.load(tmp_path)


def test_encode_decode_shapes(small_manifold):
    m, model, fits = small_manifold
    zs = m.encode_many(fits)
    assert zs.shape == (len(fits), 2)
    stack = m.decode_many(zs)
    assert stack.shape == (len(fits), model.dim, model.basis.size)


def test_curve_points_interpolates_endpoints(small_manifold):
    m, model, fits = small_manifold
    z = m.encode_many(fits[3:4])[0]
    pts = m.curve_points(z, np.array([0.0, 1.0]))
    assert np.allclose(pts[0], model.q_start, atol=1e-12)
    assert np.allclose(pts[1], model.q_end, atol=1e-12)


def test_reconstruction_quality_of_trained_model(small_manifold):
    m, model, fits = small_manifold
    x = np.stack([flatten_params(f) for f in fits])
    z = m.encode_many(fits)
    xhat = np.stack([flatten_params(CurveParams(c))
                     for c in m.decode_many(z)])
    rmse = np.sqrt(np.mean((xhat - x) ** 2))
    scale = np.sqrt(np.mean(x ** 2))
    assert rmse < 0.25 * scale


# -- the shared engine against the two loops it replaced ------------------


def _reference_train_loop(x, config, metric):
    """The vector-curve training loop as it stood before the shared engine."""
    n_data, n_feat = x.shape
    m = config.latent_dim
    encoder = nets.Mlp.create([n_feat, *config.hidden, m], seed=config.seed)
    decoder = nets.Mlp.create([m, *config.hidden, n_feat],
                              seed=config.seed + 1)
    rng = np.random.default_rng(config.seed + 2)
    opt_enc = nets.AdamState(encoder, learning_rate=config.learning_rate)
    opt_dec = nets.AdamState(decoder, learning_rate=config.learning_rate)
    history = {"recon": [], "distortion": [], "total": []}
    for epoch in range(config.epochs):
        enc_acts = encoder.forward_cache(x)
        z = enc_acts[-1]
        dec_acts = decoder.forward_cache(z)
        resid = dec_acts[-1] - x
        recon = float(np.mean(np.sum(resid ** 2, axis=1)))
        dz, dec_grad = decoder.backward(dec_acts, 2.0 * resid / n_data)
        _, enc_grad = encoder.backward(enc_acts, dz)
        dist_value = 0.0
        if config.alpha > 0:
            ia = rng.integers(0, n_data, size=16)
            ib = rng.integers(0, n_data, size=16)
            delta = rng.uniform(-0.2, 1.2, size=16)
            z_mix = delta[:, None] * z[ia] + (1.0 - delta)[:, None] * z[ib]
            dist_value, dist_grad = nets.grad_of_distortion(
                decoder, z_mix, metric)
            dec_grad = dec_grad + config.alpha * dist_grad
        total = recon + config.alpha * dist_value
        nets.adam_step(opt_enc, encoder, enc_grad)
        nets.adam_step(opt_dec, decoder, dec_grad)
        history["recon"].append(recon)
        history["distortion"].append(dist_value)
        history["total"].append(total)
    return encoder, decoder, history


def _reference_se3_loop(x, samples, p_start, r_start, n_b, config):
    """The pose-curve training loop as it stood before the shared engine."""
    m = config.latent_dim
    encoder = nets.Mlp.create([x.shape[1], *config.hidden, m],
                              seed=config.seed)
    decoder = nets.Mlp.create([m, *config.hidden, 6 * n_b + 6],
                              seed=config.seed + 1)
    opt_enc = nets.AdamState(encoder, learning_rate=config.learning_rate)
    opt_dec = nets.AdamState(decoder, learning_rate=config.learning_rate)
    history = {"recon": []}
    for epoch in range(config.epochs):
        enc_acts = encoder.forward_cache(x)
        dec_acts = decoder.forward_cache(enc_acts[-1])
        loss, g_out = lie.se3_loss_and_grads(dec_acts[-1], samples,
                                             p_start, r_start, n_b)
        dz, dec_grad = decoder.backward(dec_acts, g_out)
        _, enc_grad = encoder.backward(enc_acts, dz)
        nets.adam_step(opt_enc, encoder, enc_grad)
        nets.adam_step(opt_dec, decoder, dec_grad)
        history["recon"].append(loss)
    return encoder, decoder, history


def _assert_same_nets(got, want):
    for net_got, net_want in zip(got, want):
        for a, b in zip(net_got.weights + net_got.biases,
                        net_want.weights + net_want.biases):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("alpha", [0.0, 0.1])
def test_train_matches_reference_loop(arc_family, alpha):
    model, fits = arc_family
    cfg = TrainConfig(latent_dim=2, epochs=40, hidden=(16, 16), seed=4,
                      alpha=alpha)
    got = train(fits, model, cfg)
    x = np.stack([flatten_params(f) for f in fits])
    encoder, decoder, history = _reference_train_loop(
        x, cfg, CurveGeomMetric(model.basis.gram()))
    assert got.history == history
    _assert_same_nets((got.encoder, got.decoder), (encoder, decoder))


def test_train_se3_matches_reference_loop():
    demos, basis = lie.make_pouring_demos(count=4, seed=1, n_samples=20)
    cfg = TrainConfig(latent_dim=2, epochs=25, hidden=(16, 16), seed=2)
    got = lie.train_se3(demos, basis, cfg)
    fitted = [lie.fit_se3_params(traj, basis) for traj in demos]
    x = np.stack([lie.pack_se3_features(p) for p in fitted])
    samples = lie.Se3Samples.from_dataset(demos, basis)
    encoder, decoder, history = _reference_se3_loop(
        x, samples, demos[0].positions[0], demos[0].rotations[0], basis.size,
        cfg)
    assert got.history["recon"] == history["recon"]
    assert got.history["total"] == history["recon"]
    assert got.history["distortion"] == [0.0] * cfg.epochs
    _assert_same_nets((got.encoder, got.decoder), (encoder, decoder))
