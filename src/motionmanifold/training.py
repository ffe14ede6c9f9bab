"""Autoencoder latent manifolds over curve coefficients.

Curve coefficient matrices are flattened row-major, pushed through a tanh
encoder/decoder pair, and trained full-batch with Adam on mean squared
reconstruction error.  An optional distortion penalty, evaluated on mixup
points between encoded demonstrations, flattens the decoder pullback
metric so latent Euclidean distances track trajectory-space distances.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from .basis import CurveModel, CurveParams, evaluate_batch
from .errors import TrainingError, read_json, record_field
from .geometry import CurveGeomMetric
from . import nets


def flatten_params(params):
    """Coefficient matrix (n, B) -> vector of length n*B, row-major."""
    coeffs = params.coefficients if isinstance(params, CurveParams) else params
    return np.asarray(coeffs, dtype=float).reshape(-1)


# the distortion penalty's latent mixup: points per epoch, and how far past
# either end each segment between two encoded demonstrations extends
MIX_BATCH = 16
MIX_EXTENSION = 0.2


def mixup_sample(z, rng):
    """MIX_BATCH points on extended segments between pairs of rows of z.

    Each point is delta z[a] + (1 - delta) z[b] with a, b drawn uniformly
    from the rows of z (N, m) and delta uniform on [-MIX_EXTENSION,
    1 + MIX_EXTENSION]; returns (MIX_BATCH, m).
    """
    ia = rng.integers(0, len(z), size=MIX_BATCH)
    ib = rng.integers(0, len(z), size=MIX_BATCH)
    delta = rng.uniform(-MIX_EXTENSION, 1.0 + MIX_EXTENSION, size=MIX_BATCH)
    return delta[:, None] * z[ia] + (1.0 - delta)[:, None] * z[ib]


@dataclass
class TrainConfig:
    latent_dim: int = 2
    alpha: float = 0.0
    epochs: int = 5000
    learning_rate: float = 1e-3
    hidden: tuple = (256, 256, 256)
    seed: int = 0

    def __post_init__(self):
        if self.latent_dim < 1:
            raise ValueError("latent_dim must be at least 1")
        if not 0 <= self.alpha < np.inf:     # NaN fails every comparison
            raise ValueError("alpha must be finite and nonnegative")
        if self.epochs < 1:
            raise ValueError("epochs must be positive")
        if not 0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be finite and positive")
        self.hidden = tuple(int(h) for h in self.hidden)
        if not all(h >= 1 for h in self.hidden):
            raise ValueError("hidden sizes must each be at least 1")

    def to_dict(self):
        d = asdict(self)
        d["hidden"] = list(self.hidden)
        return d

    @classmethod
    def from_dict(cls, data):
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown TrainConfig field {unknown[0]!r}")
        return cls(**data)


@dataclass
class ManifoldModel:
    """Trained encoder/decoder pair tied to one curve model."""

    encoder: nets.Mlp
    decoder: nets.Mlp
    curve_model: CurveModel
    config: TrainConfig
    history: dict = field(default_factory=dict)

    @property
    def latent_dim(self):
        return self.encoder.out_dim

    def encode_many(self, dataset):
        x = np.stack([flatten_params(p) for p in dataset])
        return self.encoder.forward(x)

    def decode_many(self, z_batch):
        z = np.atleast_2d(np.asarray(z_batch, dtype=float))
        flat = self.decoder.forward(z)
        return flat.reshape(len(z), self.curve_model.dim,
                            self.curve_model.basis.size)

    def curve_points(self, z, taus):
        """Trajectory points of the decoded curve, shape (len(taus), n)."""
        stack = self.decode_many(np.asarray(z, dtype=float)[None, :])
        return evaluate_batch(self.curve_model, stack, taus)[0]

    def save(self, directory):
        os.makedirs(directory, exist_ok=True)
        self.encoder.save(os.path.join(directory, "encoder.json"))
        self.decoder.save(os.path.join(directory, "decoder.json"))
        with open(os.path.join(directory, "curve_model.json"), "w") as fh:
            json.dump(self.curve_model.to_dict(), fh, indent=1)
        meta = {"config": self.config.to_dict()}
        with open(os.path.join(directory, "train_meta.json"), "w") as fh:
            json.dump(meta, fh, indent=1)
        write_history_csv(os.path.join(directory, "history.csv"),
                          self.history)

    @classmethod
    def load(cls, directory):
        encoder = nets.Mlp.load(os.path.join(directory, "encoder.json"))
        decoder = nets.Mlp.load(os.path.join(directory, "decoder.json"))
        curve_model = read_json(os.path.join(directory, "curve_model.json"),
                                CurveModel.from_dict)
        config = read_json(os.path.join(directory, "train_meta.json"),
                           lambda meta: TrainConfig.from_dict(meta["config"]))
        history = read_history_csv(os.path.join(directory, "history.csv"))
        return cls(encoder=encoder, decoder=decoder, curve_model=curve_model,
                   config=config, history=history)


def write_history_csv(path, history):
    epochs = len(history.get("recon", []))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "recon", "distortion", "total"])
        for e in range(epochs):
            writer.writerow([e, f"{history['recon'][e]:.10e}",
                             f"{history['distortion'][e]:.10e}",
                             f"{history['total'][e]:.10e}"])


def read_history_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {column: [record_field(path, row, column, float) for row in rows]
            for column in ("recon", "distortion", "total")}


def _dataset_matrix(dataset, model):
    rows = [flatten_params(p) for p in dataset]
    x = np.stack(rows)
    want = model.dim * model.basis.size
    if x.shape[1] != want:
        raise ValueError(f"flattened demonstrations have length {x.shape[1]},"
                         f" curve model expects {want}")
    return x


def fit_autoencoder(x, n_out, config, reconstruction, penalty=None):
    """Full-batch Adam over a fresh encoder/decoder pair.

    x: (N, d) encoder inputs; the decoder maps the config.latent_dim
    latent to n_out outputs.  reconstruction(outputs) returns the loss and
    its gradient with respect to the (N, n_out) decoder outputs.  The
    optional penalty(decoder, z) returns a value and the flat decoder
    gradient at the encoded latents z; both are weighted by config.alpha.
    Returns (encoder, decoder, history) with per-epoch recon, distortion
    and total.
    """
    m = config.latent_dim
    encoder = nets.Mlp.create([x.shape[1], *config.hidden, m],
                              seed=config.seed)
    decoder = nets.Mlp.create([m, *config.hidden, n_out],
                              seed=config.seed + 1)
    opt_enc = nets.AdamState(encoder, learning_rate=config.learning_rate)
    opt_dec = nets.AdamState(decoder, learning_rate=config.learning_rate)
    history = {"recon": [], "distortion": [], "total": []}
    for epoch in range(config.epochs):
        enc_acts = encoder.forward_cache(x)
        dec_acts = decoder.forward_cache(enc_acts[-1])
        recon, g_out = reconstruction(dec_acts[-1])
        dz, dec_grad = decoder.backward(dec_acts, g_out)
        _, enc_grad = encoder.backward(enc_acts, dz)
        dist_value = 0.0
        if penalty is not None:
            dist_value, dist_grad = penalty(decoder, enc_acts[-1])
            dec_grad += config.alpha * dist_grad
        total = recon + config.alpha * dist_value
        if not np.isfinite(total):
            raise TrainingError(f"non-finite loss at epoch {epoch}: "
                                f"recon {recon}, distortion {dist_value}")
        nets.adam_step(opt_enc, encoder, enc_grad)
        nets.adam_step(opt_dec, decoder, dec_grad)
        history["recon"].append(recon)
        history["distortion"].append(dist_value)
        history["total"].append(total)
    return encoder, decoder, history


def train(dataset, model, config=None):
    """Fit the latent manifold to fitted curve coefficients.

    dataset: sequence of CurveParams (or (n, B) arrays) for one CurveModel.
    When ``config.alpha`` is positive, the distortion penalty measures the
    decoder under the curve model's Euclidean curve metric on MIX_BATCH
    mixup points per epoch; at zero no metric is built.
    """
    if config is None:
        config = TrainConfig()
    x = _dataset_matrix(dataset, model)

    def reconstruction(outputs):
        resid = outputs - x
        return (float(np.mean(np.sum(resid ** 2, axis=1))),
                2.0 * resid / len(x))

    penalty = None
    if config.alpha > 0:
        rng = np.random.default_rng(config.seed + 2)
        metric = CurveGeomMetric(model.basis.gram())

        def penalty(decoder, z):
            return nets.grad_of_distortion(decoder, mixup_sample(z, rng),
                                           metric)

    encoder, decoder, history = fit_autoencoder(
        x, x.shape[1], config, reconstruction, penalty)
    return ManifoldModel(encoder=encoder, decoder=decoder, curve_model=model,
                         config=config, history=history)
