"""Rotation-group math, via-point pose curves, and pose-curve training.

Orientation curves follow the same via-point structure as the vector
case: a geodesic elementary curve from R_i to R_f times a shape rotation
exp([w_R phi(tau)]) whose bases vanish at the endpoints, so R(0) = R_i
and R(1) = R_f hold by construction.  The pose reconstruction loss blends
squared position error with the squared Frobenius norm of the relative
rotation log, and its gradient is assembled in closed form through the
right Jacobians of the exponential map.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .basis import lstsq_coefficients
from .errors import BranchError
from . import nets
from .training import fit_autoencoder

_BRANCH_MARGIN = 1e-6
_SMALL_ANGLE = 1e-8
_EYE = np.eye(3)
ROTATION_WEIGHT = 1.0            # beta of the blended pose loss


# -- so(3) maps over stacks: vectors (..., 3), matrices (..., 3, 3) --------

def hat(v):
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (3,):
        raise ValueError(f"rotation vectors must be (..., 3), got {v.shape}")
    out = np.zeros(v.shape[:-1] + (3, 3))
    out[..., 0, 1] = -v[..., 2]
    out[..., 0, 2] = v[..., 1]
    out[..., 1, 0] = v[..., 2]
    out[..., 1, 2] = -v[..., 0]
    out[..., 2, 0] = -v[..., 1]
    out[..., 2, 1] = v[..., 0]
    return out


def vee(s):
    s = np.asarray(s, dtype=float)
    if s.shape[-2:] != (3, 3):
        raise ValueError(f"skew matrices must be (..., 3, 3), got {s.shape}")
    if not np.all(np.abs(s + np.swapaxes(s, -1, -2)) <= 1e-9):
        raise ValueError("matrix is not skew-symmetric")
    return np.stack([s[..., 2, 1], s[..., 0, 2], s[..., 1, 0]], axis=-1)


def check_rotation(r, tol=1e-9):
    r = np.asarray(r, dtype=float)
    if r.shape[-2:] != (3, 3):
        raise ValueError(f"rotation must be 3x3, got {r.shape}")
    if not np.all(np.abs(np.swapaxes(r, -1, -2) @ r - np.eye(3)) <= tol):
        raise ValueError("matrix is not orthonormal")
    if not np.all(np.abs(np.linalg.det(r) - 1.0) <= tol):
        raise ValueError("matrix has determinant != +1")
    return r


def _skew(v):
    """hat(v), the angle |v| and where the series forms apply."""
    k = hat(v)
    # a row-times-column product per vector: the same dot product, bit
    # for bit, as np.linalg.norm of a single vector
    v = np.asarray(v, dtype=float)[..., None, :]
    theta = np.sqrt((v @ np.swapaxes(v, -1, -2))[..., 0, 0])
    return k, theta, theta < _SMALL_ANGLE


def _skew_poly(k, k2, c1, c2):
    """I + c1 K + c2 K^2 with one coefficient pair per matrix."""
    out = np.asarray(c1)[..., None, None] * k
    out += _EYE
    out += c2[..., None, None] * k2
    return out


# The coefficients of exp(K) = I + a K + b K^2 and J_r = I - b K + c K^2
# at angle theta, each switching to its series where `small` holds.

def _sin_ratio(theta, small):
    """a = sin(theta) / theta."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(small, 1.0 - theta ** 2 / 6.0, np.sin(theta) / theta)


def _cos_ratio(theta, small):
    """b = (1 - cos(theta)) / theta^2."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(small, 0.5 - theta ** 2 / 24.0,
                        (1.0 - np.cos(theta)) / theta ** 2)


def _sin_gap_ratio(theta, small):
    """c = (theta - sin(theta)) / theta^3."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(small, 1.0 / 6.0 - theta ** 2 / 120.0,
                        (theta - np.sin(theta)) / theta ** 3)


def _exp_and_jacobian(v):
    """exp(hat(v)) and J_r(v), sharing K, K^2, the angle and b."""
    k, theta, small = _skew(v)
    k2 = k @ k
    b = _cos_ratio(theta, small)
    return (_skew_poly(k, k2, _sin_ratio(theta, small), b),
            _skew_poly(k, k2, -b, _sin_gap_ratio(theta, small)))


def exp_so3(v):
    """Rodrigues formula, series-stabilized near zero."""
    k, theta, small = _skew(v)
    return _skew_poly(k, k @ k, _sin_ratio(theta, small),
                      _cos_ratio(theta, small))


def so3_jacobian_right(v):
    """J_r with exp(v + dv) = exp(v) exp(hat(J_r(v) dv)) to first order."""
    k, theta, small = _skew(v)
    return _skew_poly(k, k @ k, -_cos_ratio(theta, small),
                      _sin_gap_ratio(theta, small))


def so3_jacobian_right_inv(v):
    k, theta, small = _skew(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.where(small, 1.0 / 12.0 + theta ** 2 / 720.0,
                     1.0 / theta ** 2 - (1.0 + np.cos(theta)) / (
                         2.0 * theta * np.sin(theta)))
    return _skew_poly(k, k @ k, 0.5, e)


def log_so3(r):
    """Principal-branch rotation log; angles at or past pi are rejected."""
    return _log(check_rotation(r, tol=1e-8))


# vee(R - R^T) as two gathers: rows (2, 0, 1) at columns (1, 2, 0)
_VEE_ROWS = np.array([2, 0, 1])
_VEE_COLS = np.array([1, 2, 0])


def _log(r):
    """log_so3 without the rotation check, for matrices built here."""
    cos_t = np.minimum(np.maximum(
        (r[..., 0, 0] + r[..., 1, 1] + r[..., 2, 2] - 1.0) / 2.0, -1.0), 1.0)
    theta = np.arccos(cos_t)
    if (theta >= np.pi - _BRANCH_MARGIN).any():
        raise BranchError(f"rotation angle {float(theta.max()):.8f} is too "
                          "close to pi for the principal branch")
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(theta < _SMALL_ANGLE, 0.5 * (1.0 + theta ** 2 / 6.0),
                     theta / (2.0 * np.sin(theta)))
    return s[..., None] * (r[..., _VEE_ROWS, _VEE_COLS]
                           - r[..., _VEE_COLS, _VEE_ROWS])


# -- pose trajectories and curve parameters -------------------------------

@dataclass
class Se3Trajectory:
    times: np.ndarray            # (L,) strictly increasing
    positions: np.ndarray        # (L, 3)
    rotations: np.ndarray        # (L, 3, 3)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.positions = np.asarray(self.positions, dtype=float)
        self.rotations = np.asarray(self.rotations, dtype=float)
        l = len(self.times)
        if l < 2:
            raise ValueError(f"a pose trajectory needs at least 2 samples, "
                             f"got {l}")
        if not np.all(np.diff(self.times) > 0):
            raise ValueError("sample times must be strictly increasing")
        if self.positions.shape != (l, 3):
            raise ValueError(f"positions shape {self.positions.shape} != "
                             f"({l}, 3)")
        if self.rotations.shape != (l, 3, 3):
            raise ValueError(f"rotations shape {self.rotations.shape} != "
                             f"({l}, 3, 3)")
        check_rotation(self.rotations)

    @property
    def taus(self):
        t = self.times
        return (t - t[0]) / (t[-1] - t[0])

    def to_dict(self):
        return {"t": self.times.tolist(),
                "p": self.positions.tolist(),
                "R": [r.reshape(9).tolist() for r in self.rotations]}

    @classmethod
    def from_dict(cls, data):
        rots = np.array([np.reshape(r, (3, 3)) for r in data["R"]])
        return cls(times=np.array(data["t"], dtype=float),
                   positions=np.array(data["p"], dtype=float),
                   rotations=rots)

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@dataclass
class Se3CurveParams:
    w_pos: np.ndarray            # (3, B)
    w_rot: np.ndarray            # (3, B)
    p_start: np.ndarray
    p_end: np.ndarray
    r_start: np.ndarray
    r_end: np.ndarray

    def __post_init__(self):
        self.w_pos = np.asarray(self.w_pos, dtype=float)
        self.w_rot = np.asarray(self.w_rot, dtype=float)
        self.p_start = np.asarray(self.p_start, dtype=float)
        self.p_end = np.asarray(self.p_end, dtype=float)
        if self.w_pos.shape != self.w_rot.shape or self.w_pos.shape[0] != 3:
            raise ValueError("coefficient blocks must both be (3, B)")
        self.r_start = check_rotation(self.r_start)
        self.r_end = check_rotation(self.r_end)


@dataclass
class Se3Samples:
    """Every sample of a demonstration set on one (N, K) grid.

    Row d holds demonstration d's K_d samples, padded to K = max K_d by
    repeating its last sample with weight 0.  A real sample of demo d has
    weight 1 / (N K_d), so a weighted sum over the grid is the mean over
    each demo's samples averaged over the demos.
    """
    taus: np.ndarray             # (N, K)
    phi: np.ndarray              # (N, K, B)
    positions: np.ndarray        # (N, K, 3)
    rotations: np.ndarray        # (N, K, 3, 3)
    weight: np.ndarray           # (N, K)

    @classmethod
    def from_dataset(cls, dataset, basis):
        if not dataset:
            raise ValueError("a pose sample set needs at least 1 "
                             "demonstration, got 0")
        counts = np.array([len(traj.times) for traj in dataset])[:, None]
        k = np.arange(counts.max())
        rows = np.minimum(k, counts - 1)

        def grid(name):
            return np.stack([getattr(traj, name)[row]
                             for traj, row in zip(dataset, rows)])

        taus = grid("taus")
        return cls(taus=taus,
                   phi=basis.evaluate(taus.ravel()).reshape(*taus.shape, -1),
                   positions=grid("positions"), rotations=grid("rotations"),
                   weight=np.where(k < counts,
                                   1.0 / (len(dataset) * counts), 0.0))


def _pose_curves(taus, p_start, p_end, r_start, shape, exp_a, exp_c):
    """p(tau) and R(tau) of N via-point pose curves on an (N, K) phase grid.

    p(tau) = (1 - tau) p_i + tau p_f + w_p phi(tau) and
    R(tau) = R_i exp(tau ell) exp([w_R phi(tau)]).  shape (N, K, 6) holds
    w_p phi and w_R phi (see _shape_rows); exp_a and exp_c (N, K, 3, 3)
    are exp(tau ell) and exp([w_R phi]), which the loss takes from the
    fused exp/J_r pass and the evaluators from exp_so3.  p_end is (N, 3);
    the start pose is one per curve, (N, 3) and (N, 3, 3), or one shared
    by all curves.
    """
    t = taus[..., None]
    p = (1.0 - t) * p_start[..., None, :] + t * p_end[:, None] \
        + shape[..., :3]
    return p, r_start[..., None, :, :] @ exp_a @ exp_c


def _shape_rows(phi, w):
    """w phi(tau), (N, K, 6), for each curve's (6, B) coefficients w.

    An einsum, not a matmul: it sums over the bases in the same order as
    evaluating each sample against its own copy of the coefficients, so
    the demonstrations of make_pouring_demos and every curve evaluation
    keep their bits; BLAS rounds differently.
    """
    return np.einsum("ndb,nkb->ndk", w, phi).swapaxes(-1, -2)


def _eval_curves(params_list, taus, phi):
    """p(tau) and R(tau) of each curve at its row of an (N, K) phase grid.

    phi (N, K, B) holds the basis rows at taus.
    """
    def stack(name):
        return np.stack([getattr(p, name) for p in params_list])

    r_start = stack("r_start")
    ell = log_so3(np.swapaxes(r_start, -1, -2) @ stack("r_end"))
    shape = _shape_rows(phi, np.concatenate([stack("w_pos"),
                                             stack("w_rot")], axis=1))
    return _pose_curves(taus, stack("p_start"), stack("p_end"), r_start,
                        shape, exp_so3(taus[..., None] * ell[:, None]),
                        exp_so3(shape[..., 3:]))


def _eval_curve(params, basis, tau):
    taus = np.atleast_1d(np.asarray(tau, dtype=float))
    p, r = _eval_curves([params], taus[None], basis.evaluate(taus)[None])
    return (p[0, 0], r[0, 0]) if np.ndim(tau) == 0 else (p[0], r[0])


def eval_rotation_curve(params, basis, tau):
    """R(tau) = R_i exp(tau ell) exp([w_R phi(tau)])."""
    return _eval_curve(params, basis, tau)[1]


def eval_position_curve(params, basis, tau):
    return _eval_curve(params, basis, tau)[0]


def fit_se3_params(traj, basis):
    """Via-point pose-curve coefficients for one demonstration.

    Least squares on the residuals from the geodesic curve (zero shape
    coefficients): position differences, and rotation differences in
    endpoint-relative log coordinates, log(R_geo^T R).
    """
    p, r = traj.positions, traj.rotations
    zero = np.zeros((3, basis.size))
    geodesic = Se3CurveParams(w_pos=zero, w_rot=zero, p_start=p[0],
                              p_end=p[-1], r_start=r[0], r_end=r[-1])
    p_geo, r_geo = _eval_curve(geodesic, basis, traj.taus)
    phi = basis.evaluate(traj.taus)
    w_pos = lstsq_coefficients(phi, p - p_geo)
    w_rot = lstsq_coefficients(phi, _log(np.swapaxes(r_geo, -1, -2) @ r))
    return Se3CurveParams(w_pos=w_pos, w_rot=w_rot, p_start=p[0],
                          p_end=p[-1], r_start=r[0], r_end=r[-1])


def _blended_error(samples, p_hat, r_hat):
    """Weighted pose error and its position and rotation residuals.

    The rotation residual log(R^T R_hat) is the right tangent at R_hat.
    """
    e_pos = p_hat - samples.positions
    err = _log(np.swapaxes(samples.rotations, -1, -2) @ r_hat)
    per_sample = np.sum(e_pos ** 2, axis=-1) \
        + 2.0 * ROTATION_WEIGHT * np.sum(err ** 2, axis=-1)
    return float(samples.weight.ravel() @ per_sample.ravel()), e_pos, err


def se3_recon_loss(dataset, params_list, basis):
    """Blended pose error, discrete-summed on each trajectory's own samples.

    Per sample: ||p_hat - p||^2 + beta ||log(R^T R_hat)||_F^2 with beta =
    ROTATION_WEIGHT, averaged over samples then over trajectories.
    """
    if len(params_list) != len(dataset):
        raise ValueError(f"{len(params_list)} curve parameters for "
                         f"{len(dataset)} demonstrations; need one each")
    samples = Se3Samples.from_dataset(dataset, basis)
    p_hat, r_hat = _eval_curves(params_list, samples.taus, samples.phi)
    return _blended_error(samples, p_hat, r_hat)[0]


# -- autoencoder features and the training loss ---------------------------

def pack_se3_features(params):
    """Encoder input: shape coefficients plus the varying final pose."""
    return np.concatenate([params.w_pos.reshape(-1),
                           params.w_rot.reshape(-1),
                           params.p_end,
                           params.r_end.reshape(-1)])


def unpack_se3_output(vec, p_start, r_start, n_bases):
    """Decoder output -> curve params; final rotation via exp([w_f])."""
    vec = np.asarray(vec, dtype=float)
    b = n_bases
    if vec.size != 6 * b + 6:
        raise ValueError(f"output length {vec.size} != {6 * b + 6}")
    w_pos = vec[:3 * b].reshape(3, b)
    w_rot = vec[3 * b:6 * b].reshape(3, b)
    p_end = vec[6 * b:6 * b + 3]
    w_f = vec[6 * b + 3:]
    return Se3CurveParams(w_pos=w_pos, w_rot=w_rot, p_start=p_start,
                          p_end=p_end, r_start=r_start,
                          r_end=exp_so3(w_f))


def se3_loss_and_grads(outputs, samples, p_start, r_start, n_bases):
    """Loss and d loss / d decoder-outputs for a batch of demonstrations.

    outputs: (N, 6B+6) raw decoder rows, row d for demonstration d of the
    Se3Samples.  Two fused exp/J_r passes cover every rotation vector:
    one for the final rotations w_f and all samples' w_R phi, and one for
    tau ell, which needs ell = log(R_i^T exp(w_f)) first.  The loss value
    has the same bits as evaluating each sample on its own.  The gradient
    applies each J^T to its sample's row vector, weights the rows, and
    sums each demonstration's rows against [phi, tau] in one batched
    matmul.
    """
    n, b = len(outputs), n_bases
    if np.ndim(outputs) != 2 or np.shape(outputs)[1] != 6 * b + 6:
        raise ValueError(f"decoder outputs must be (N, 6B + 6) = (N, "
                         f"{6 * b + 6}) for {b} bases, got "
                         f"{np.shape(outputs)}")
    if n != len(samples.taus):
        raise ValueError(f"{n} output rows for {len(samples.taus)} "
                         "demonstrations")
    t = samples.taus[..., None]
    shape = _shape_rows(samples.phi, outputs[:, :6 * b].reshape(n, 6, b))
    exp_v, jac_v = _exp_and_jacobian(np.concatenate(
        [outputs[:, 6 * b + 3:], shape[..., 3:].reshape(-1, 3)]))
    exp_c, jac_c = (m[n:].reshape(shape.shape[:2] + (3, 3))
                    for m in (exp_v, jac_v))
    ell = _log(r_start.T @ exp_v[:n])
    exp_a, jac_a = (m.reshape(exp_c.shape) for m in _exp_and_jacobian(
        (t * ell[:, None]).reshape(-1, 3)))
    p_hat, r_hat = _pose_curves(samples.taus, p_start,
                                outputs[:, 6 * b:6 * b + 3], r_start, shape,
                                exp_a, exp_c)
    total, e_pos, err = _blended_error(samples, p_hat, r_hat)

    # each J^T applied to its sample's weighted g = d loss / d err
    w = samples.weight[..., None]
    g = (4.0 * ROTATION_WEIGHT) * w * err
    rows = np.concatenate(
        [(2.0 * w) * e_pos, np.einsum("...ji,...j->...i", jac_c, g),
         np.einsum("...ji,...j->...i", jac_a,
                   np.einsum("...ij,...j->...i", exp_c, g))], axis=-1)
    # (N, 9, B + 1): rows against phi give the shape coefficients, against
    # tau the final position and d loss / d ell
    sums = np.swapaxes(rows, -1, -2) @ np.concatenate([samples.phi, t],
                                                      axis=-1)
    # ell = log(R_i^T exp(w_f))
    g_wf = (sums[:, None, 6:, b] @ so3_jacobian_right_inv(ell)
            @ jac_v[:n])[:, 0]
    return total, np.concatenate([sums[:, :6, :b].reshape(n, 6 * b),
                                  sums[:, :3, b], g_wf], axis=1)


@dataclass
class Se3ManifoldModel:
    encoder: nets.Mlp
    decoder: nets.Mlp
    basis: object
    p_start: np.ndarray
    r_start: np.ndarray
    config: object
    history: dict = field(default_factory=dict)

    def encode(self, params):
        return self.encoder.forward(pack_se3_features(params))

    def decode(self, z):
        vec = self.decoder.forward(np.asarray(z, dtype=float))
        return unpack_se3_output(vec, self.p_start, self.r_start,
                                 self.basis.size)


def train_se3(dataset, basis, config):
    """Latent pose-curve model trained with the blended reconstruction loss.

    Demonstrations must share their initial pose; only the final pose
    varies and is carried through the latent space.  Distortion
    regularization is not available here, so config.alpha must be 0.
    """
    if config.alpha != 0:
        raise ValueError("pose-curve training does not support the "
                         "distortion penalty; set alpha to 0")
    samples = Se3Samples.from_dataset(dataset, basis)
    p_start = dataset[0].positions[0]
    r_start = dataset[0].rotations[0]
    for traj in dataset[1:]:
        if np.abs(traj.positions[0] - p_start).max() > 1e-6 or \
                np.abs(traj.rotations[0] - r_start).max() > 1e-6:
            raise ValueError("demonstrations must share the initial pose")
    fitted = [fit_se3_params(traj, basis) for traj in dataset]
    x = np.stack([pack_se3_features(p) for p in fitted])
    n_b = basis.size
    encoder, decoder, history = fit_autoencoder(
        x, 6 * n_b + 6, config,
        lambda outputs: se3_loss_and_grads(outputs, samples, p_start,
                                           r_start, n_b))
    return Se3ManifoldModel(encoder=encoder, decoder=decoder, basis=basis,
                            p_start=p_start, r_start=r_start, config=config,
                            history=history)


def make_pouring_demos(count=8, seed=0, n_samples=60, basis=None):
    """Synthetic pouring-style pose demonstrations with varying final poses.

    A one-parameter family: the vessel starts upright at a shared pose,
    arcs sideways while lifting, and finishes tilted (1.8 to 2.2 rad)
    over target points spread along a line.  Small per-demo coefficient
    noise keeps the family near, not on, a one-dimensional manifold.
    """
    from .basis import BasisSet
    if count < 1:
        raise ValueError(f"count must be at least 1 demonstration, got "
                         f"{count}")
    if basis is None:
        basis = BasisSet.uniform(10)
    rng = np.random.default_rng(seed)
    p_start = np.array([0.0, 0.0, 0.3])
    r_start = np.eye(3)
    taus = np.linspace(0.0, 1.0, n_samples)
    params = []
    for j in range(count):
        u = j / max(count - 1, 1)
        p_end = np.array([0.35 + 0.1 * u, 0.25 * (u - 0.5), 0.12])
        swing = 0.3 * (u - 0.5)
        axis = np.array([np.cos(swing), np.sin(swing), 0.0])
        r_end = exp_so3(axis * (1.8 + 0.4 * u))
        centers = basis.centers
        lift = 0.18 + 0.05 * u
        w_pos = np.vstack([
            0.05 * np.sin(np.pi * centers) * (u - 0.5),
            -0.04 * np.sin(np.pi * centers),
            lift * np.sin(np.pi * centers),
        ]) + 0.002 * rng.standard_normal((3, basis.size))
        w_rot = np.vstack([
            0.25 * np.sin(np.pi * centers) * (0.5 - u),
            0.3 * np.sin(2.0 * np.pi * centers),
            0.1 * np.cos(np.pi * centers) * u,
        ]) + 0.005 * rng.standard_normal((3, basis.size))
        params.append(Se3CurveParams(w_pos=w_pos, w_rot=w_rot,
                                     p_start=p_start, p_end=p_end,
                                     r_start=r_start, r_end=r_end))
    p, r = _eval_curves(params, np.tile(taus, (count, 1)),
                        np.tile(basis.evaluate(taus), (count, 1, 1)))
    demos = [Se3Trajectory(times=taus.copy(), positions=pos, rotations=rot)
             for pos, rot in zip(p, r)]
    return demos, basis
