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


def hat(v):
    v = np.asarray(v, dtype=float)
    return np.array([[0.0, -v[2], v[1]],
                     [v[2], 0.0, -v[0]],
                     [-v[1], v[0], 0.0]])


def vee(s):
    s = np.asarray(s, dtype=float)
    if np.abs(s + s.T).max() > 1e-9:
        raise ValueError("matrix is not skew-symmetric")
    return np.array([s[2, 1], s[0, 2], s[1, 0]])


def check_rotation(r, tol=1e-9):
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3):
        raise ValueError(f"rotation must be 3x3, got {r.shape}")
    if np.abs(r.T @ r - np.eye(3)).max() > tol:
        raise ValueError("matrix is not orthonormal")
    if abs(np.linalg.det(r) - 1.0) > tol:
        raise ValueError("matrix has determinant != +1")
    return r


def exp_so3(v):
    """Rodrigues formula, series-stabilized near zero."""
    v = np.asarray(v, dtype=float)
    theta = np.linalg.norm(v)
    k = hat(v)
    if theta < _SMALL_ANGLE:
        a = 1.0 - theta ** 2 / 6.0
        b = 0.5 - theta ** 2 / 24.0
    else:
        a = np.sin(theta) / theta
        b = (1.0 - np.cos(theta)) / theta ** 2
    return np.eye(3) + a * k + b * (k @ k)


def log_so3(r):
    """Principal-branch rotation log; angles at or past pi are rejected."""
    r = check_rotation(np.asarray(r, dtype=float), tol=1e-8)
    cos_t = np.clip((np.trace(r) - 1.0) / 2.0, -1.0, 1.0)
    theta = np.arccos(cos_t)
    if theta >= np.pi - _BRANCH_MARGIN:
        raise BranchError(f"rotation angle {theta:.8f} is too close to pi "
                          "for the principal branch")
    if theta < _SMALL_ANGLE:
        s = 0.5 * (1.0 + theta ** 2 / 6.0)
    else:
        s = theta / (2.0 * np.sin(theta))
    d = r - r.T
    return s * np.array([d[2, 1], d[0, 2], d[1, 0]])


def so3_jacobian_right(v):
    """J_r with exp(v + dv) = exp(v) exp(hat(J_r(v) dv)) to first order."""
    v = np.asarray(v, dtype=float)
    theta = np.linalg.norm(v)
    k = hat(v)
    if theta < _SMALL_ANGLE:
        b = 0.5 - theta ** 2 / 24.0
        c = 1.0 / 6.0 - theta ** 2 / 120.0
    else:
        b = (1.0 - np.cos(theta)) / theta ** 2
        c = (theta - np.sin(theta)) / theta ** 3
    return np.eye(3) - b * k + c * (k @ k)


def so3_jacobian_right_inv(v):
    v = np.asarray(v, dtype=float)
    theta = np.linalg.norm(v)
    k = hat(v)
    if theta < _SMALL_ANGLE:
        e = 1.0 / 12.0 + theta ** 2 / 720.0
    else:
        e = 1.0 / theta ** 2 - (1.0 + np.cos(theta)) / (
            2.0 * theta * np.sin(theta))
    return np.eye(3) + 0.5 * k + e * (k @ k)


# -- batched forms over stacks of shape (..., 3) --------------------------

def _hat_batch(v):
    out = np.zeros(v.shape[:-1] + (3, 3))
    out[..., 0, 1] = -v[..., 2]
    out[..., 0, 2] = v[..., 1]
    out[..., 1, 0] = v[..., 2]
    out[..., 1, 2] = -v[..., 0]
    out[..., 2, 0] = -v[..., 1]
    out[..., 2, 1] = v[..., 0]
    return out


def _exp_batch(v):
    theta = np.linalg.norm(v, axis=-1)
    small = theta < _SMALL_ANGLE
    t2 = theta ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(small, 1.0 - t2 / 6.0, np.sin(theta) / theta)
        b = np.where(small, 0.5 - t2 / 24.0,
                     (1.0 - np.cos(theta)) / t2)
    k = _hat_batch(v)
    k2 = k @ k
    return np.eye(3) + a[..., None, None] * k + b[..., None, None] * k2


def _log_batch(r):
    trace = np.trace(r, axis1=-2, axis2=-1)
    cos_t = np.clip((trace - 1.0) / 2.0, -1.0, 1.0)
    theta = np.arccos(cos_t)
    if np.any(theta >= np.pi - _BRANCH_MARGIN):
        worst = float(theta.max())
        raise BranchError(f"rotation angle {worst:.8f} is too close to pi "
                          "for the principal branch")
    small = theta < _SMALL_ANGLE
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(small, 0.5 * (1.0 + theta ** 2 / 6.0),
                     theta / (2.0 * np.sin(theta)))
    d = r - np.swapaxes(r, -1, -2)
    return s[..., None] * np.stack(
        [d[..., 2, 1], d[..., 0, 2], d[..., 1, 0]], axis=-1)


def _jr_batch(v):
    theta = np.linalg.norm(v, axis=-1)
    small = theta < _SMALL_ANGLE
    t2 = theta ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        b = np.where(small, 0.5 - t2 / 24.0, (1.0 - np.cos(theta)) / t2)
        c = np.where(small, 1.0 / 6.0 - t2 / 120.0,
                     (theta - np.sin(theta)) / (t2 * theta))
    k = _hat_batch(v)
    k2 = k @ k
    return np.eye(3) - b[..., None, None] * k + c[..., None, None] * k2


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
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("sample times must be strictly increasing")
        l = len(self.times)
        if self.positions.shape != (l, 3):
            raise ValueError(f"positions shape {self.positions.shape} != "
                             f"({l}, 3)")
        if self.rotations.shape != (l, 3, 3):
            raise ValueError(f"rotations shape {self.rotations.shape} != "
                             f"({l}, 3, 3)")
        for r in self.rotations:
            check_rotation(r)

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

    @property
    def rel_log(self):
        """Tangent of the endpoint geodesic, log(R_i^T R_f)."""
        return log_so3(self.r_start.T @ self.r_end)


def eval_rotation_curve(params, basis, tau):
    """R(tau) = R_i exp(tau ell) exp([w_R phi(tau)])."""
    taus = np.atleast_1d(np.asarray(tau, dtype=float))
    phi = basis.evaluate(taus)                    # (T, B)
    ell = params.rel_log
    geo = _exp_batch(taus[:, None] * ell)
    shape = _exp_batch(phi @ params.w_rot.T)
    out = np.einsum("ij,tjk,tkl->til", params.r_start, geo, shape)
    return out[0] if np.isscalar(tau) or np.ndim(tau) == 0 else out


def eval_position_curve(params, basis, tau):
    taus = np.atleast_1d(np.asarray(tau, dtype=float))
    phi = basis.evaluate(taus)
    base = (1.0 - taus)[:, None] * params.p_start \
        + taus[:, None] * params.p_end
    out = base + phi @ params.w_pos.T
    return out[0] if np.isscalar(tau) or np.ndim(tau) == 0 else out


def fit_rotation_curve(taus, rotations, r_start, r_end, basis):
    """Least-squares shape coefficients in endpoint-relative log coordinates."""
    taus = np.asarray(taus, dtype=float)
    rotations = np.asarray(rotations, dtype=float)
    r_start = np.asarray(r_start, dtype=float)
    ell = log_so3(r_start.T @ np.asarray(r_end))
    aligned = np.einsum("ji,tjk->tik", r_start, rotations)
    rel = _exp_batch(-taus[:, None] * ell) @ aligned
    resid = _log_batch(rel)                       # (L, 3)
    phi = basis.evaluate(taus)
    return lstsq_coefficients(phi, resid)


def fit_se3_params(traj, basis):
    """Via-point pose-curve coefficients for one demonstration."""
    taus = traj.taus
    p_i, p_f = traj.positions[0], traj.positions[-1]
    r_i, r_f = traj.rotations[0], traj.rotations[-1]
    base = (1.0 - taus)[:, None] * p_i + taus[:, None] * p_f
    phi = basis.evaluate(taus)
    w_pos = lstsq_coefficients(phi, traj.positions - base)
    w_rot = fit_rotation_curve(taus, traj.rotations, r_i, r_f, basis)
    return Se3CurveParams(w_pos=w_pos, w_rot=w_rot, p_start=p_i, p_end=p_f,
                          r_start=r_i, r_end=r_f)


def se3_recon_loss(dataset, params_list, basis, beta=1.0):
    """Blended pose error, discrete-summed on each trajectory's own samples.

    Per sample: ||p_hat - p||^2 + beta ||log(R^T R_hat)||_F^2, averaged
    over samples then over trajectories.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    total = 0.0
    for traj, params in zip(dataset, params_list):
        taus = traj.taus
        p_hat = eval_position_curve(params, basis, taus)
        r_hat = eval_rotation_curve(params, basis, taus)
        e_pos = np.sum((p_hat - traj.positions) ** 2, axis=1)
        rel = np.einsum("tij,tik->tjk", traj.rotations, r_hat)
        e_rot = 2.0 * np.sum(_log_batch(rel) ** 2, axis=1)
        total += float(np.mean(e_pos + beta * e_rot))
    return total / len(dataset)


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


class _DemoGrid:
    """Cached per-demo quantities reused every training epoch."""

    def __init__(self, traj, basis):
        self.taus = traj.taus
        self.phi = basis.evaluate(self.taus)      # (K, B)
        self.positions = traj.positions
        self.rotations = traj.rotations
        self.base_pos = (1.0 - self.taus)[:, None] * traj.positions[0] \
            + self.taus[:, None] * traj.positions[-1]


def se3_loss_and_grads(outputs, grids, p_start, r_start, n_bases, beta=1.0):
    """Loss and d loss / d decoder-outputs for a batch of demonstrations.

    outputs: (N, 6B+6) raw decoder rows, one per demonstration in grids.
    Gradient of the rotation terms flows through both the shape rotation
    and the decoded final rotation via right-Jacobian chain rules.
    """
    n = len(grids)
    b = n_bases
    grads = np.zeros_like(outputs)
    total = 0.0
    for d, grid in enumerate(grids):
        vec = outputs[d]
        w_pos = vec[:3 * b].reshape(3, b)
        w_rot = vec[3 * b:6 * b].reshape(3, b)
        p_end = vec[6 * b:6 * b + 3]
        w_f = vec[6 * b + 3:]
        taus = grid.taus
        k_s = len(taus)
        scale = 1.0 / (n * k_s)

        r_end = exp_so3(w_f)
        ell = log_so3(r_start.T @ r_end)

        # positions
        p_hat = (1.0 - taus)[:, None] * p_start + taus[:, None] * p_end \
            + grid.phi @ w_pos.T
        e_pos = p_hat - grid.positions
        total += scale * float(np.sum(e_pos ** 2))
        g_wpos = 2.0 * scale * e_pos.T @ grid.phi
        g_pend = 2.0 * scale * taus @ e_pos

        # rotations
        a = taus[:, None] * ell                   # (K, 3)
        c = grid.phi @ w_rot.T                    # (K, 3)
        exp_a = _exp_batch(a)
        exp_c = _exp_batch(c)
        r_hat = np.einsum("ij,tjk,tkl->til", r_start, exp_a, exp_c)
        rel = np.einsum("tij,tik->tjk", grid.rotations, r_hat)
        err = _log_batch(rel)                     # (K, 3)
        total += scale * beta * 2.0 * float(np.sum(err ** 2))

        g_eps = 4.0 * beta * err                  # right tangent at r_hat
        jr_c = _jr_batch(c)
        g_c = np.einsum("tji,tj->ti", jr_c, g_eps)
        g_wrot = scale * g_c.T @ grid.phi
        jr_a = _jr_batch(a)
        g_a = np.einsum("tji,tjk,tk->ti", jr_a, exp_c, g_eps)
        g_ell = scale * taus @ g_a
        g_wf = so3_jacobian_right(w_f).T @ so3_jacobian_right_inv(ell).T \
            @ g_ell

        grads[d, :3 * b] = g_wpos.reshape(-1)
        grads[d, 3 * b:6 * b] = g_wrot.reshape(-1)
        grads[d, 6 * b:6 * b + 3] = g_pend
        grads[d, 6 * b + 3:] = g_wf
    return total, grads


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


def train_se3(dataset, basis, config, beta=1.0):
    """Latent pose-curve model trained with the blended reconstruction loss.

    Demonstrations must share their initial pose; only the final pose
    varies and is carried through the latent space.  Distortion
    regularization is not available here, so config.alpha must be 0.
    """
    if config.alpha != 0:
        raise ValueError("pose-curve training does not support the "
                         "distortion penalty; set alpha to 0")
    p_start = dataset[0].positions[0]
    r_start = dataset[0].rotations[0]
    for traj in dataset[1:]:
        if np.abs(traj.positions[0] - p_start).max() > 1e-6 or \
                np.abs(traj.rotations[0] - r_start).max() > 1e-6:
            raise ValueError("demonstrations must share the initial pose")
    fitted = [fit_se3_params(traj, basis) for traj in dataset]
    x = np.stack([pack_se3_features(p) for p in fitted])
    grids = [_DemoGrid(traj, basis) for traj in dataset]
    n_b = basis.size
    encoder, decoder, history = fit_autoencoder(
        x, 6 * n_b + 6, config,
        lambda outputs: se3_loss_and_grads(outputs, grids, p_start, r_start,
                                           n_b, beta=beta))
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
    if basis is None:
        basis = BasisSet.uniform(10, mode="via-point")
    rng = np.random.default_rng(seed)
    p_start = np.array([0.0, 0.0, 0.3])
    r_start = np.eye(3)
    taus = np.linspace(0.0, 1.0, n_samples)
    demos = []
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
        params = Se3CurveParams(w_pos=w_pos, w_rot=w_rot, p_start=p_start,
                                p_end=p_end, r_start=r_start, r_end=r_end)
        demos.append(Se3Trajectory(
            times=taus.copy(),
            positions=eval_position_curve(params, basis, taus),
            rotations=eval_rotation_curve(params, basis, taus)))
    return demos, basis
