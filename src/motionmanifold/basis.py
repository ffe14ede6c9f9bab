"""Gaussian basis families and via-point parametric curve models.

A curve is q(tau) = (1 - tau) q_start + tau q_end + w @ phi(tau) for tau in
[0, 1], with w an (n, B) coefficient matrix.  The bases carry a
tau*(1-tau) factor so the curve meets its endpoints exactly for every w.

Curves are evaluated in two shapes, both linear maps from basis values to
points:

- all pairs, ``evaluate_batch``: every curve of an (N, n, B) stack at every
  shared phase, (N, T, n), as one BLAS gemm.  ``CurveModel.evaluate`` is
  its one-curve case.
- row-wise, ``evaluate_rows``: curve k at its own phase tau_k, (K, n).
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import (SingularFitError, finite_array, numeric, read_json,
                     record_field)

# Uniform trapezoid grid used for every integral over [0, 1].
QUAD_GRID_POINTS = 201

# The only curve kind and basis mode; serialized dicts name it.
VIA_POINT = "via-point"

# Largest normal-matrix condition number a least-squares fit accepts.
COND_LIMIT = 1e12


def _as_tau_array(tau):
    """Validate tau values and return (array, was_scalar)."""
    arr = np.atleast_1d(np.asarray(tau, dtype=float))
    if arr.size == 0:
        raise ValueError("tau is empty; need at least one phase value")
    lo, hi = arr.min(), arr.max()
    # a NaN propagates through min/max and fails both comparisons
    if not (lo >= -1e-12 and hi <= 1.0 + 1e-12):
        raise ValueError(f"tau must be finite and lie in [0, 1], got range "
                         f"[{lo:.6g}, {hi:.6g}]")
    return np.clip(arr, 0.0, 1.0), np.ndim(tau) == 0


def _check_via_point(source, data, field):
    """Reject a serialized curve or basis of any kind but via-point."""
    kind = record_field(source, data, field, lambda value: value)
    if kind != VIA_POINT:
        raise ValueError(f"{source}: field {field!r}: unsupported value "
                         f"{kind!r}; only {VIA_POINT!r} is supported")


def lstsq_coefficients(phi, targets):
    """W (d, B) minimizing sum_k ||W phi_k - targets_k||^2.

    phi (L, B) holds the basis values at the samples and targets (L, d)
    the values to match.  The normal matrix must be positive definite with
    a condition number of at most COND_LIMIT; it is solved through its
    Cholesky factorization.
    """
    normal = phi.T @ phi
    eigs = np.linalg.eigvalsh(normal)
    if eigs[0] <= 0 or eigs[-1] / eigs[0] > COND_LIMIT:
        raise SingularFitError(
            f"normal matrix is numerically singular: smallest singular "
            f"value {max(eigs[0], 0.0):.3e}")
    return cho_solve(cho_factor(normal), phi.T @ targets).T


class BasisSet:
    """Normalized Gaussian bases b_i(tau) = exp(-(tau - c_i)^2 / (2h)).

    phi_i = tau*(1-tau) b_i / sum_j b_j, so every basis vanishes at the
    ends of the phase range.
    """

    def __init__(self, centers, width):
        centers = np.asarray(centers, dtype=float)
        if centers.ndim != 1 or centers.size < 2:
            raise ValueError("need at least 2 basis centers")
        # np.unique keeps every NaN, so distinctness alone lets one through
        if not (np.isfinite(centers).all()
                and len(np.unique(centers)) == centers.size):
            raise ValueError("basis centers must be finite and mutually "
                             "distinct")
        if not 0 < width < np.inf:         # NaN fails every comparison
            raise ValueError("basis width must be finite and positive")
        self.centers = centers
        self.width = float(width)

    @classmethod
    def uniform(cls, count, width=None):
        """Evenly spaced centers on [0, 1] including endpoints.

        Default width is the squared center spacing, which keeps adjacent
        bases overlapping strongly.
        """
        if count < 2:
            raise ValueError("need at least 2 bases")
        centers = np.linspace(0.0, 1.0, count)
        if width is None:
            width = (1.0 / (count - 1)) ** 2
        return cls(centers, width)

    @property
    def size(self):
        return self.centers.size

    def evaluate(self, tau):
        """phi(tau); shape (B,) for scalar tau, (T, B) for a tau array."""
        arr, scalar = _as_tau_array(tau)
        return self._rows(arr)[0] if scalar else self._rows(arr)

    def _rows(self, arr):
        """phi at phases arr (T,) that _as_tau_array checked; (T, B)."""
        b = np.exp(-((arr[:, None] - self.centers[None, :]) ** 2)
                   / (2.0 * self.width))
        return b / b.sum(axis=1, keepdims=True) * (arr * (1.0 - arr))[:, None]

    def _derivative(self, tau):
        """Analytic d phi / d tau, same shape convention as evaluate().

        Private until a caller needs it: a bound on the curve speed, for
        checking moving obstacles between window samples, would.
        """
        arr, scalar = _as_tau_array(tau)
        diff = arr[:, None] - self.centers[None, :]
        b = np.exp(-(diff ** 2) / (2.0 * self.width))
        db = -(diff / self.width) * b
        s = b.sum(axis=1, keepdims=True)
        ds = db.sum(axis=1, keepdims=True)
        norm = b / s
        dnorm = (db - norm * ds) / s
        m = (arr * (1.0 - arr))[:, None]
        dm = (1.0 - 2.0 * arr)[:, None]
        out = dm * norm + m * dnorm
        return out[0] if scalar else out

    def gram(self, grid_points=QUAD_GRID_POINTS):
        """Pairwise inner products int_0^1 phi_j phi_l dtau by trapezoid."""
        grid = np.linspace(0.0, 1.0, grid_points)
        vals = self.evaluate(grid)
        weights = np.full(grid_points, 1.0 / (grid_points - 1))
        weights[0] *= 0.5
        weights[-1] *= 0.5
        return (vals * weights[:, None]).T @ vals

    def to_dict(self):
        return {"centers": self.centers.tolist(), "width": self.width,
                "mode": VIA_POINT}

    @classmethod
    def from_dict(cls, data, source="basis"):
        """Each field goes through record_field, so a missing or ill-typed
        value raises a ValueError naming source and the key."""
        _check_via_point(source, data, "mode")
        return cls(record_field(source, data, "centers", finite_array),
                   record_field(source, data, "width", numeric(float)))

    def __eq__(self, other):
        return (isinstance(other, BasisSet) and self.width == other.width
                and np.array_equal(self.centers, other.centers))


@dataclass
class TimedTrajectory:
    """Sequence of (t, q) samples with strictly increasing times."""

    times: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim == 1:
            self.points = self.points[:, None]
        if self.times.ndim != 1 or self.times.size != self.points.shape[0]:
            raise ValueError("times and points must have matching lengths")
        if not (np.isfinite(self.times).all()
                and np.isfinite(self.points).all()):
            raise ValueError("times and points must be finite")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")

    def __len__(self):
        return self.times.size

    @property
    def dim(self):
        return self.points.shape[1]

    def to_dict(self):
        return {"t": self.times.tolist(), "q": self.points.tolist()}


def save_trajectory_dataset(trajectories, path):
    """Write {"dim": n, "trajectories": [{"t": [...], "q": [[...], ...]}]}."""
    if not trajectories:
        raise ValueError("empty trajectory dataset")
    dim = trajectories[0].dim
    payload = {"dim": dim, "trajectories": [t.to_dict() for t in trajectories]}
    with open(path, "w") as f:
        json.dump(payload, f)


def load_trajectory_dataset(path):
    """The trajectories of a file save_trajectory_dataset wrote; each field
    goes through record_field, so a bad value names the file and key, and
    times and points that do not make a trajectory name both keys.  An
    empty list is rejected, as save_trajectory_dataset rejects it."""
    def trajectory(record):
        times = record_field(path, record, "t", finite_array)
        points = record_field(path, record, "q", finite_array)
        try:
            return TimedTrajectory(times, points)
        except ValueError as err:
            raise ValueError(f"{path}: fields 't' and 'q': {err}") from None

    def parse(payload):
        dim = record_field(path, payload, "dim", numeric(operator.index))
        trajs = [trajectory(record) for record
                 in record_field(path, payload, "trajectories", list)]
        if not trajs:
            raise ValueError(f"{path}: field 'trajectories': empty "
                             f"trajectory dataset")
        for t in trajs:
            if t.dim != dim:
                raise ValueError(f"{path}: field 'dim': trajectory dim "
                                 f"{t.dim} does not match declared dim {dim}")
        return trajs

    return read_json(path, parse)


class CurveModel:
    """Via-point curve family q(tau; w) = elementary(tau) + w @ phi(tau).

    elementary(tau) is the straight segment (1-tau) q_start + tau q_end,
    and the bases vanish at tau = 0 and 1, so the curve meets both
    endpoints exactly for every w.  A curve's coefficients w are an
    (n, B) float array, row i modulating coordinate i; a set of curves is
    an (N, n, B) stack, and stack, flatten and unflatten own that layout.
    """

    def __init__(self, basis, q_start, q_end):
        self.basis = basis
        self.q_start = np.asarray(q_start, dtype=float)
        self.q_end = np.asarray(q_end, dtype=float)
        if self.q_start.ndim != 1 or self.q_end.shape != self.q_start.shape:
            raise ValueError("endpoints must be vectors of one shape")
        if not np.isfinite([self.q_start, self.q_end]).all():
            raise ValueError("endpoints must be finite")
        self.dim = self.q_start.size

    def elementary(self, tau):
        """Straight segment between the endpoints; (n,) or (T, n)."""
        arr, scalar = _as_tau_array(tau)
        return self._segment(arr)[0] if scalar else self._segment(arr)

    def _segment(self, arr):
        """elementary() at phases arr (T,) that _as_tau_array checked."""
        return (1.0 - arr)[:, None] * self.q_start[None, :] \
            + arr[:, None] * self.q_end[None, :]

    def stack(self, coefficients):
        """coefficients as a float (N, n, B) stack, or a ValueError."""
        stack = np.asarray(coefficients, dtype=float)
        if stack.ndim != 3 or stack.shape[1:] != (self.dim, self.basis.size):
            raise ValueError(f"coefficient stack has shape {stack.shape}; the "
                             f"curve model expects (N, {self.dim}, "
                             f"{self.basis.size})")
        return stack

    def flatten(self, coefficients):
        """The checked stack as row-major (N, n * B) rows."""
        stack = self.stack(coefficients)
        return stack.reshape(len(stack), -1)

    def unflatten(self, rows):
        """Rows (N, n * B) that flatten made, back as an (N, n, B) stack."""
        return rows.reshape(len(rows), self.dim, self.basis.size)

    def evaluate(self, w, tau):
        """q(tau; w); shape (n,) for scalar tau, (T, n) for arrays."""
        out = evaluate_batch(self, [w], tau)[0]
        return out[0] if np.ndim(tau) == 0 else out

    def _phases(self, trajectory):
        """Check the trajectory's dimension and map its times to phase.

        Times are shifted to start at zero and mapped linearly by
        tau = t / t_last.
        """
        if trajectory.dim != self.dim:
            raise ValueError(f"trajectory dim {trajectory.dim} != curve dim "
                             f"{self.dim}")
        t = trajectory.times - trajectory.times[0]
        return t / t[-1]

    def fit(self, trajectory):
        """Least-squares coefficients (n, B) for one demonstration.

        Solves w = Delta Phi^T (Phi Phi^T)^{-1} at the trajectory's phases
        through a Cholesky factorization of the normal matrix.
        """
        tau = self._phases(trajectory)
        n_samples = len(trajectory)
        if n_samples <= self.basis.size:
            raise ValueError(f"need more samples ({n_samples}) than bases "
                             f"({self.basis.size}) to fit")
        delta = trajectory.points - self.elementary(tau)  # (L, n)
        return lstsq_coefficients(self.basis.evaluate(tau), delta)

    def fit_objective(self, w, trajectory):
        """Sum of squared residuals of the fitting problem, for diagnostics."""
        resid = trajectory.points - self.evaluate(w, self._phases(trajectory))
        return float(np.sum(resid ** 2))

    def to_dict(self):
        return {"kind": VIA_POINT, "dim": self.dim,
                "basis": self.basis.to_dict(),
                "q_start": self.q_start.tolist(), "q_end": self.q_end.tolist()}

    @classmethod
    def from_dict(cls, data, source="curve model"):
        """Each field goes through record_field, as in BasisSet.from_dict."""
        _check_via_point(source, data, "kind")
        basis = record_field(source, data, "basis", dict)
        return cls(BasisSet.from_dict(basis, source),
                   record_field(source, data, "q_start", finite_array),
                   record_field(source, data, "q_end", finite_array))


def evaluate_batch(model, coefficient_stack, tau):
    """Evaluate many curves of one model at shared phases.

    coefficient_stack has shape (N, n, B); returns (N, T, n), which is
    (0, T, n) for an empty stack, as a view of a coordinate-major
    (T, n, N) buffer: one BLAS gemm, phi (T, B) @ the stack's coefficient
    rows (B, n * N), plus the straight segment.  The gemm's rounding varies
    with N and the BLAS kernel, so a curve need not keep the bits of its
    one-curve product elementary(tau) + phi @ w.T, but it lies within
    2 (B + 2) eps (|elementary(tau)| + |phi| @ |w|.T) of it on every kernel
    (swept in test_basis), the margin envs._collisions allows.
    """
    stack = model.stack(coefficient_stack)
    arr, _ = _as_tau_array(tau)
    n_curves, dim, n_bases = stack.shape
    rows = stack.transpose(1, 0, 2).reshape(-1, n_bases).T
    out = (model.basis._rows(arr) @ rows).reshape(len(arr), dim, n_curves)
    out += model._segment(arr)[:, :, None]
    return out.transpose(2, 0, 1)


def evaluate_rows(model, coefficient_stack, taus):
    """Evaluate curve k of a (K, n, B) stack at its own phase taus[k].

    Returns (K, n), the diagonal of the all-pairs evaluation without the
    K x K work.  The sum stays an einsum, which at K = 100 rows is faster
    than a stacked matmul.
    """
    stack = model.stack(coefficient_stack)
    arr, _ = _as_tau_array(taus)
    if len(arr) != len(stack):
        raise ValueError(f"{len(arr)} phases for {len(stack)} curves; "
                         f"evaluate_rows needs one phase per curve")
    return model._segment(arr) + np.einsum(
        "kcb,kb->kc", stack, model.basis._rows(arr))
