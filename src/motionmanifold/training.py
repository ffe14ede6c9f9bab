"""Autoencoder latent manifolds over curve coefficients.

An (N, n, B) stack of curve coefficients is flattened to rows by its
CurveModel, pushed through a tanh encoder/decoder pair, and trained
full-batch with Adam on mean squared reconstruction error.  An optional
distortion penalty, evaluated on mixup points between encoded
demonstrations, flattens the decoder pullback metric so latent Euclidean
distances track trajectory-space distances.
"""

from __future__ import annotations

import csv
import json
import operator
import os
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from .basis import CurveModel, evaluate_batch
from .errors import TrainingError, numeric, read_json, record_field
from .geometry import CurveGeomMetric
from . import nets


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
    def from_dict(cls, data, source="config"):
        """Each field goes through record_field, so a missing or ill-typed
        value raises a ValueError naming source and the key."""
        values = {f.name: record_field(source, data, f.name,
                                       _FIELD_TYPES[f.name])
                  for f in fields(cls)}
        unknown = sorted(set(data) - set(values))
        if unknown:
            raise ValueError(f"{source}: unknown TrainConfig field "
                             f"{unknown[0]!r}")
        try:
            return cls(**values)
        except ValueError as err:
            raise ValueError(f"{source}: {err}") from None


# how TrainConfig.from_dict reads each field; operator.index takes ints
# only, so 2.5 or "2" is not read as a count, and numeric rejects true
_INT, _FLOAT = numeric(operator.index), numeric(float)
_FIELD_TYPES = {"latent_dim": _INT, "alpha": _FLOAT, "epochs": _INT,
                "learning_rate": _FLOAT, "seed": _INT,
                "hidden": lambda sizes: tuple(map(_INT, sizes))}


@dataclass
class ManifoldModel:
    """Trained encoder/decoder pair tied to one curve family, a CurveModel
    or a lie.PoseCurveModel (save, load and curve_points take a
    CurveModel)."""

    encoder: nets.Mlp
    decoder: nets.Mlp
    curve_model: CurveModel      # or lie.PoseCurveModel
    config: TrainConfig
    history: dict = field(default_factory=dict)

    @property
    def latent_dim(self):
        return self.encoder.out_dim

    def encode_many(self, fits):
        """Latents (N, m) of N curves, e.g. an (N, n, B) coefficient stack."""
        return self.encoder.forward(self.curve_model.flatten(fits))

    def decode_many(self, z_batch):
        """Curves of latents (N, m), e.g. an (N, n, B) coefficient stack."""
        return self.curve_model.unflatten(
            self.decoder.forward(np.atleast_2d(z_batch)))

    def encode(self, item):
        """Latent (m,) of one curve, its row pushed through alone."""
        return self.encoder.forward(self.curve_model.flatten([item])[0])

    def decode(self, z):
        """The one curve of a latent (m,), its row pushed through alone."""
        return self.curve_model.unflatten(self.decoder.forward(z)[None])[0]

    def _check_planar(self, action):
        """Raise before `action` on any family but a CurveModel."""
        if not isinstance(self.curve_model, CurveModel):
            raise NotImplementedError(
                f"ManifoldModel.{action} takes a CurveModel family, not "
                f"{type(self.curve_model).__name__}")

    def curve_points(self, z, taus):
        """Trajectory points of the decoded curve, shape (len(taus), n)."""
        self._check_planar("curve_points")
        stack = self.decode_many(np.asarray(z, dtype=float)[None, :])
        return evaluate_batch(self.curve_model, stack, taus)[0]

    def save(self, directory):
        self._check_planar("save")
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
        path = os.path.join(directory, "curve_model.json")
        curve_model = read_json(path,
                                lambda data: CurveModel.from_dict(data, path))
        meta_path = os.path.join(directory, "train_meta.json")
        config = read_json(meta_path, lambda meta: TrainConfig.from_dict(
            record_field(meta_path, meta, "config", dict), meta_path))
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
    """The loss columns of a history.csv; a file with no epoch rows, or a
    cell that is not a finite number, raises a ValueError naming the file
    (and the cell's line and column)."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValueError(f"{path}: no epoch rows")
    return {column: [record_field(f"{path} line {line}", row, column, _FLOAT)
                     for line, row in enumerate(rows, start=2)]
            for column in ("recon", "distortion", "total")}


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


def train(fits, model, config=None):
    """Fit the latent manifold to fitted curve coefficients.

    fits: the (N, n, B) coefficient stack of N curves of one CurveModel.
    When ``config.alpha`` is positive, the distortion penalty measures the
    decoder under the curve model's Euclidean curve metric on MIX_BATCH
    mixup points per epoch; at zero no metric is built.
    """
    if config is None:
        config = TrainConfig()
    x = model.flatten(fits)

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
