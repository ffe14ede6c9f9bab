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

from dataclasses import dataclass, replace

import numpy as np

from .basis import lstsq_coefficients
from .errors import BranchError
from .training import ManifoldModel, fit_autoencoder

_BRANCH_MARGIN = 1e-6
_SMALL_ANGLE = 1e-8
ROTATION_WEIGHT = 1.0            # beta of the blended pose loss


# -- so(3) maps ------------------------------------------------------------
# The public maps take (..., 3) vectors and (..., 3, 3) matrices; their
# kernels are component-major, (3, ...) and (3, 3, ...), along the samples.

_HAT = np.array([[0, 6, 2], [3, 0, 4], [5, 1, 0]])  # hat(v) from [0, v, -v]
# einsum subscripts of A B and of M^T g, broadcast on the trailing axes
_MATMUL, _MATVEC_T = "ij...,jk...->ik...", "ji...,j...->i..."
_VEE_ROWS, _VEE_COLS = np.array([[2, 0, 1], [1, 2, 0]])  # vee: S[rows, cols]


def check_rotation(r, tol=1e-9):
    r = np.asarray(r, dtype=float)
    if r.shape[-2:] != (3, 3):
        raise ValueError(f"rotation must be 3x3, got {r.shape}")
    if not np.all(np.abs(np.swapaxes(r, -1, -2) @ r - np.eye(3)) <= tol):
        raise ValueError("matrix is not orthonormal")
    if not np.all(np.abs(np.linalg.det(r) - 1.0) <= tol):
        raise ValueError("matrix has determinant != +1")
    return r


def _hat(v):
    return np.concatenate([np.zeros_like(v[:1]), v, -v])[_HAT]


def _skew(v):
    """K = hat(v), K^2 = v v^T - |v|^2 I, the angle |v| and its square."""
    sq = v[0] * v[0] + v[1] * v[1] + v[2] * v[2]
    k2 = v[:, None] * v[None]
    np.einsum("ii...->i...", k2)[...] -= sq      # a view of the diagonal
    return _hat(v), k2, np.sqrt(sq), sq


def _poly(k, k2, c1, c2):
    """I + c1 K + c2 K^2, each coefficient spread over the trailing axes."""
    out = c1 * k
    out += c2 * k2
    np.einsum("ii...->i...", out)[...] += 1.0
    return out


def _coefficients(theta, sq):
    """a, b, c of exp(K) = I + a K + b K^2 and J_r = I - b K + c K^2.

    a = sin(t) / t, b = (1 - cos(t)) / t^2, c = (t - sin(t)) / t^3 at t =
    theta, exact; any entries below _SMALL_ANGLE then take the series.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        sin = np.sin(theta)
        a = sin / theta
        b = (1.0 - np.cos(theta)) / sq
        c = (theta - sin) / (sq * theta)
    small = theta < _SMALL_ANGLE
    if small.any():
        sq = sq[small]
        a[small] = 1.0 - sq / 6.0
        b[small] = 0.5 - sq / 24.0
        c[small] = 1.0 / 6.0 - sq / 120.0
    return a, b, c


def _exp_and_jacobian(v):
    """exp(hat(v)) and J_r(v) of component-major v, sharing K, K^2, a, b, c."""
    k, k2, theta, sq = _skew(v)
    a, b, c = _coefficients(theta, sq)
    return _poly(k, k2, a, b), _poly(k, k2, -b, c)


def _jacobian_inv(k, k2, theta, sq):
    """J_r(v)^-1 = I + K / 2 + e K^2 from the _skew of component-major v."""
    with np.errstate(divide="ignore", invalid="ignore"):
        e = 1.0 / sq - (1.0 + np.cos(theta)) / (2.0 * theta * np.sin(theta))
    small = theta < _SMALL_ANGLE
    if small.any():
        e[small] = 1.0 / 12.0 + sq[small] / 720.0
    return _poly(k, k2, 0.5, e)


def exp_so3(v):
    """Rodrigues formula, series-stabilized near zero, of (..., 3) vectors."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (3,):
        raise ValueError(f"rotation vectors must be (..., 3), got {v.shape}")
    r = _exp_and_jacobian(v.reshape(-1, 3).T)[0]
    return np.moveaxis(r, -1, 0).reshape(v.shape[:-1] + (3, 3))


def log_so3(r):
    """Principal-branch rotation log; angles at or past pi are rejected."""
    r = check_rotation(r, tol=1e-8)
    return _log(np.moveaxis(r.reshape(-1, 3, 3), 0, -1)).T.reshape(
        r.shape[:-1])


def _log(r):
    """log of component-major rotations (3, 3, ...), without the check.

    theta = atan2(|u|, tr R - 1) for u = vee(R - R^T) = 2 sin(theta) n,
    and the log is (theta / |u|) u.  Near pi its error grows as 1 / (pi -
    theta), not as the 1 / (pi - theta)^2 of an arccos of the trace.
    """
    u = r[_VEE_ROWS, _VEE_COLS] - r[_VEE_COLS, _VEE_ROWS]
    norm = np.sqrt(u[0] * u[0] + u[1] * u[1] + u[2] * u[2])
    theta = np.arctan2(norm, r[0, 0] + r[1, 1] + r[2, 2] - 1.0)
    if (theta >= np.pi - _BRANCH_MARGIN).any():
        raise BranchError(f"rotation angle {float(theta.max()):.8f} is too "
                          "close to pi for the principal branch")
    return theta / np.maximum(norm, np.finfo(float).tiny) * u


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
        for name in ("times", "positions", "rotations"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
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


@dataclass
class Se3CurveParams:
    w_pos: np.ndarray            # (3, B)
    w_rot: np.ndarray            # (3, B)
    p_start: np.ndarray
    p_end: np.ndarray
    r_start: np.ndarray
    r_end: np.ndarray

    def __post_init__(self):
        for name in ("w_pos", "w_rot", "p_start", "p_end"):
            value = np.asarray(getattr(self, name), dtype=float)
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite")
            setattr(self, name, value)
        if self.w_pos.shape != self.w_rot.shape or self.w_pos.shape[0] != 3:
            raise ValueError("coefficient blocks must both be (3, B)")
        for name in ("p_start", "p_end"):
            if getattr(self, name).shape != (3,):
                raise ValueError(f"{name} must be a 3-vector, got shape "
                                 f"{getattr(self, name).shape}")
        self.r_start = check_rotation(self.r_start)
        self.r_end = check_rotation(self.r_end)


@dataclass
class Se3Samples:
    """Every sample of a demonstration set on one (N, K) grid.

    Row d holds demonstration d's K_d samples, padded to K = max K_d by
    repeating its last sample with weight 0.  A real sample of demo d has
    weight 1 / (N K_d), so a weighted sum over the grid is the mean over
    each demo's samples averaged over the demos (*_cm: component-major).
    """
    taus: np.ndarray             # (N, K)
    phi: np.ndarray              # (N, K, B)
    weight: np.ndarray           # (N, K)
    positions_cm: np.ndarray     # (3, N, K)
    rotations_cm: np.ndarray     # (3, 3, N, K)

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

        taus, pos, rot = map(grid, ("taus", "positions", "rotations"))
        return cls(taus=taus,
                   phi=basis.evaluate(taus.ravel()).reshape(*taus.shape, -1),
                   weight=np.where(k < counts,
                                   1.0 / (len(dataset) * counts), 0.0),
                   positions_cm=np.moveaxis(pos, -1, 0).copy(),
                   rotations_cm=np.moveaxis(rot, (2, 3), (0, 1)).copy())


def _pose_curves(taus, p_start, p_end, r_start, skew, shape, exp_c):
    """p(tau) (3, N, K) and R(tau) (3, 3, N, K) of N via-point pose curves.

    p = (1 - tau) p_i + tau p_f + w_p phi and R = R_i exp(tau ell)
    exp([w_R phi]) on an (N, K) phase grid, from shape = w phi (6, N, K),
    exp_c = exp([w_R phi]), p_end (3, N) and skew = _skew(ell).  The start
    pose is (3, N) and (3, 3, N), or (3, 1) and (3, 3, 1) when shared.
    The geodesic is per demo: with K = hat(ell) and a, b, c at tau |ell|,
    R_i exp(tau ell) = R_i + tau a R_i K + tau^2 b R_i K^2.  tau b and
    tau^2 c give the loss J_r(tau ell)^T = I + tau b K + tau^2 c K^2.
    """
    k, k2, theta, _ = skew
    angle = taus * theta[:, None]
    a, b, c = _coefficients(angle, angle * angle)
    t2 = taus * taus
    rk, rk2 = (np.einsum(_MATMUL, r_start, m)[..., None] for m in (k, k2))
    geodesic = r_start[..., None] + (taus * a) * rk + (t2 * b) * rk2
    p = (1.0 - taus) * p_start[..., None] + taus * p_end[..., None] \
        + shape[:3]
    return p, np.einsum(_MATMUL, geodesic, exp_c), taus * b, t2 * c


def _shape_rows(phi, w):
    """w_p phi and w_R phi, (6, N, K), from phi (N, K, B) and w (N, 6, B)."""
    return np.ascontiguousarray(
        (w @ np.swapaxes(phi, -1, -2)).transpose(1, 0, 2))


def _eval_curves(params_list, taus, phi):
    """_pose_curves of each curve at its row of taus (N, K); phi (N, K, B)."""
    p_start, p_end, r_start, r_end = (
        np.moveaxis(np.stack([getattr(p, name) for p in params_list]), 0, -1)
        for name in ("p_start", "p_end", "r_start", "r_end"))
    ell = _log(np.einsum("ji...,jk...->ik...", r_start, r_end))
    shape = _shape_rows(phi, np.stack([np.concatenate([p.w_pos, p.w_rot])
                                       for p in params_list]))
    return _pose_curves(taus, p_start, p_end, r_start, _skew(ell), shape,
                        _exp_and_jacobian(shape[3:])[0])[:2]


def _eval_curve(params, basis, tau):
    taus = np.atleast_1d(np.asarray(tau, dtype=float))
    p, r = _eval_curves([params], taus[None], basis.evaluate(taus)[None])
    p, r = p[:, 0].T, np.moveaxis(r[:, :, 0], -1, 0)
    return (p[0], r[0]) if np.ndim(tau) == 0 else (p, r)


def eval_rotation_curve(params, basis, tau):
    """R(tau) = R_i exp(tau ell) exp([w_R phi(tau)])."""
    return _eval_curve(params, basis, tau)[1]


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
    rel = _log(np.einsum("lji,ljk->ikl", r_geo, r)).T
    return replace(geodesic, w_pos=lstsq_coefficients(phi, p - p_geo),
                   w_rot=lstsq_coefficients(phi, rel))


def _blended_error(samples, p_hat, r_hat):
    """Weighted pose error, residuals p_hat - p and log(R^T R_hat) at R_hat."""
    e_pos = p_hat - samples.positions_cm
    err = _log(np.einsum("ji...,jk...->ik...", samples.rotations_cm, r_hat))
    per_sample = np.einsum("i...,i...->...", e_pos, e_pos) \
        + 2.0 * ROTATION_WEIGHT * np.einsum("i...,i...->...", err, err)
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


# -- the pose-curve family and the training loss --------------------------

class PoseCurveModel:
    """The pose-curve family of a training.ManifoldModel; every curve starts
    at (p_start, r_start).  Encoder rows (N, 6B + 12) hold the shape
    coefficients and the final pose; decoder rows (N, 6B + 6) end in the
    final rotation's vector w_f, and unflatten sets r_end = exp([w_f])."""

    def __init__(self, basis, p_start, r_start):
        self.basis, self.p_start, self.r_start = basis, p_start, r_start

    def flatten(self, params_list):
        return np.stack([np.concatenate([p.w_pos.reshape(-1),
                                         p.w_rot.reshape(-1), p.p_end,
                                         p.r_end.reshape(-1)])
                         for p in params_list])

    def unflatten(self, rows):
        b = self.basis.size
        if np.ndim(rows) != 2 or np.shape(rows)[1] != 6 * b + 6:
            raise ValueError(f"decoder rows must be (N, 6B + 6) = (N, "
                             f"{6 * b + 6}) for {b} bases, got "
                             f"{np.shape(rows)}")
        return [Se3CurveParams(w_pos=row[:3 * b].reshape(3, b),
                               w_rot=row[3 * b:6 * b].reshape(3, b),
                               p_start=self.p_start, r_start=self.r_start,
                               p_end=row[6 * b:6 * b + 3],
                               r_end=exp_so3(row[6 * b + 3:]))
                for row in rows]


def se3_loss_and_grads(outputs, samples, p_start, r_start):
    """Loss and d loss / d decoder-outputs for a batch of demonstrations.

    outputs: (N, 6B+6) raw decoder rows, row d for demonstration d of the
    Se3Samples, whose phi sets B.  Every step runs on component-major
    (3, N, K) vectors and (3, 3, N, K) matrices.  One fused exp/J_r pass
    covers the final rotations w_f and all samples' w_R phi; exp(tau ell)
    and J_r(tau ell) come from each demo's geodesic (see _pose_curves).
    The gradient applies each J^T to its sample's vector, weights the
    rows, and sums each demonstration's rows against [phi, tau] in one
    batched matmul.
    """
    n, b = len(outputs), samples.phi.shape[-1]
    if np.ndim(outputs) != 2 or np.shape(outputs)[1] != 6 * b + 6:
        raise ValueError(f"decoder outputs must be (N, 6B + 6) = (N, "
                         f"{6 * b + 6}) for {b} bases, got "
                         f"{np.shape(outputs)}")
    if n != len(samples.taus):
        raise ValueError(f"{n} output rows for {len(samples.taus)} "
                         "demonstrations")
    taus = samples.taus
    shape = _shape_rows(samples.phi, outputs[:, :6 * b].reshape(n, 6, b))
    exp_v, jac_v = _exp_and_jacobian(np.concatenate(
        [outputs[:, 6 * b + 3:].T, shape[3:].reshape(3, -1)], axis=1))
    exp_c, jac_c = (m[:, :, n:].reshape(3, 3, *taus.shape)
                    for m in (exp_v, jac_v))
    r_i = r_start[..., None]
    skew = _skew(_log(np.einsum("ji...,jk...->ik...", r_i, exp_v[:, :, :n])))
    p_hat, r_hat, tb, t2c = _pose_curves(
        taus, p_start[:, None], outputs[:, 6 * b:6 * b + 3].T, r_i, skew,
        shape, exp_c)
    total, e_pos, err = _blended_error(samples, p_hat, r_hat)

    # each J^T applied to its sample's weighted g = d loss / d err; for
    # tau ell, J_r^T h = h + tau b K h + tau^2 c K^2 h with h = exp_c g
    w = samples.weight
    g = (4.0 * ROTATION_WEIGHT) * w * err
    h = np.einsum("ij...,j...->i...", exp_c, g)
    g_a = h + tb * np.einsum("ijn,jnk->ink", skew[0], h) \
        + t2c * np.einsum("ijn,jnk->ink", skew[1], h)
    rows = np.concatenate([(2.0 * w) * e_pos,
                           np.einsum(_MATVEC_T, jac_c, g), g_a])
    # (N, 9, B + 1): rows against phi give the shape coefficients, against
    # tau the final position and d loss / d ell
    sums = rows.transpose(1, 0, 2) @ np.concatenate(
        [samples.phi, taus[..., None]], axis=-1)
    # ell = log(R_i^T exp(w_f)), so d ell = J_r(ell)^-1 J_r(w_f) d w_f
    g_wf = np.einsum(_MATVEC_T, jac_v[:, :, :n], np.einsum(
        _MATVEC_T, _jacobian_inv(*skew), sums[:, 6:, b].T))
    return total, np.concatenate([sums[:, :6, :b].reshape(n, 6 * b),
                                  sums[:, :3, b], g_wf.T], axis=1)


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
    pos, rot = samples.positions_cm[..., 0], samples.rotations_cm[..., 0]
    p_start, r_start = pos[..., 0].copy(), rot[..., 0].copy()
    if np.abs(pos - p_start[..., None]).max() > 1e-6 or \
            np.abs(rot - r_start[..., None]).max() > 1e-6:
        raise ValueError("demonstrations must share the initial pose")
    fitted = [fit_se3_params(traj, basis) for traj in dataset]
    family = PoseCurveModel(basis, p_start, r_start)
    encoder, decoder, history = fit_autoencoder(
        family.flatten(fitted), 6 * basis.size + 6, config,
        lambda outputs: se3_loss_and_grads(outputs, samples, p_start,
                                           r_start))
    return ManifoldModel(encoder=encoder, decoder=decoder,
                         curve_model=family, config=config, history=history)


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
        arc = np.sin(np.pi * basis.centers)
        w_pos = np.vstack([0.05 * arc * (u - 0.5), -0.04 * arc,
                           (0.18 + 0.05 * u) * arc]) \
            + 0.002 * rng.standard_normal((3, basis.size))
        w_rot = np.vstack([0.25 * arc * (0.5 - u),
                           0.3 * np.sin(2.0 * np.pi * basis.centers),
                           0.1 * np.cos(np.pi * basis.centers) * u]) \
            + 0.005 * rng.standard_normal((3, basis.size))
        params.append(Se3CurveParams(w_pos=w_pos, w_rot=w_rot,
                                     p_start=p_start, p_end=p_end,
                                     r_start=r_start, r_end=r_end))
    p, r = _eval_curves(params, np.tile(taus, (count, 1)),
                        np.tile(basis.evaluate(taus), (count, 1, 1)))
    demos = [Se3Trajectory(times=taus.copy(), positions=p[:, d].T,
                           rotations=np.moveaxis(r[:, :, d], -1, 0))
             for d in range(count)]
    return demos, basis
