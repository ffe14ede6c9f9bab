"""Small tanh MLPs with hand-rolled derivatives.

The computation graph never changes (affine layers, tanh hidden units,
identity output, plus quadratic forms in directional derivatives), so
reverse-mode, forward-mode, and reverse-through-forward passes are written
out structurally instead of going through a general tape.

Shape conventions: weight matrices are (out, in); activations are
(batch, width); tangent stacks carry an extra direction axis,
(batch, k, width).
"""

from __future__ import annotations

import json

import numpy as np

from .errors import DistortionUndefinedError, TrainingError


class Mlp:
    """Fully connected network, tanh on hidden layers, identity output."""

    def __init__(self, sizes, weights, biases, seed=None):
        self.sizes = list(int(s) for s in sizes)
        self.seed = seed
        n_layers = len(self.sizes) - 1
        if len(weights) != n_layers or len(biases) != n_layers:
            raise ValueError(f"{len(weights)} weights and {len(biases)} "
                             f"biases for {n_layers} layers")
        # (start, stop, out, in) of each layer's weight block in params;
        # its bias follows at stop
        layout, start = [], 0
        for fan_in, fan_out in zip(self.sizes[:-1], self.sizes[1:]):
            stop = start + fan_out * fan_in
            layout.append((start, stop, fan_out, fan_in))
            start = stop + fan_out
        self._layout = tuple(layout)
        self.params = np.empty(start)
        self.weights, self.biases = self.layer_views(self.params)
        for i, (w, b) in enumerate(zip(weights, biases)):
            if np.shape(w) != self.weights[i].shape:
                raise ValueError(f"layer {i} weight shape {np.shape(w)} does "
                                 f"not match sizes {self.sizes}")
            if np.shape(b) != self.biases[i].shape:
                raise ValueError(f"layer {i} bias shape {np.shape(b)} does "
                                 f"not match sizes {self.sizes}")
            self.weights[i][...] = w
            self.biases[i][...] = b

    @classmethod
    def create(cls, sizes, seed):
        """Symmetric uniform fan-in initialization, reproducible by seed."""
        rng = np.random.default_rng(seed)
        weights, biases = [], []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
            biases.append(rng.uniform(-bound, bound, size=fan_out))
        return cls(sizes, weights, biases, seed=seed)

    @property
    def n_layers(self):
        return len(self.weights)

    @property
    def in_dim(self):
        return self.sizes[0]

    @property
    def out_dim(self):
        return self.sizes[-1]

    def layer_views(self, flat):
        """Per-layer (weights, biases) views into a parameter-sized vector.

        Layer i's (out, in) weight block comes first, then its bias; the
        network's own weights and biases are these views of params.
        """
        weights, biases = [], []
        for start, stop, fan_out, fan_in in self._layout:
            weights.append(flat[start:stop].reshape(fan_out, fan_in))
            biases.append(flat[stop:stop + fan_out])
        return tuple(weights), tuple(biases)

    # -- primal ----------------------------------------------------------

    def _check_input(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.in_dim:
            raise ValueError(f"input size {x.shape[-1]} != expected "
                             f"{self.in_dim}")
        return x

    def forward(self, x):
        """Evaluate the network; accepts (p,) or (batch, p)."""
        x = self._check_input(x)
        a = x
        last = self.n_layers - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            a = a @ w.T + b
            if i != last:
                a = np.tanh(a)
        return a

    def forward_cache(self, x):
        """Activations [a_0, ..., a_L] for use by the derivative passes."""
        x = self._check_input(x)
        acts = [x]
        last = self.n_layers - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            a = acts[-1] @ w.T + b
            if i != last:
                a = np.tanh(a)
            acts.append(a)
        return acts

    # -- reverse mode ----------------------------------------------------

    def backward(self, acts, cotangent):
        """Gradients of <cotangent, output> summed over the batch.

        Returns (input_grad, grad) with grad a flat vector laid out like
        params; layer_views(grad) gives the per-layer (dW, db).
        """
        g = np.asarray(cotangent, dtype=float)
        if g.shape != acts[-1].shape:
            raise ValueError(f"cotangent shape {g.shape} != output shape "
                             f"{acts[-1].shape}")
        grad = np.empty(self.params.size)
        dws, dbs = self.layer_views(grad)
        for i in range(self.n_layers - 1, -1, -1):
            if i != self.n_layers - 1:
                g = g * (1.0 - acts[i + 1] ** 2)
            g2, a2 = np.atleast_2d(g, acts[i])
            np.matmul(g2.T, a2, out=dws[i])
            dbs[i][...] = g2.sum(axis=0)
            g = g @ self.weights[i]
        return g, grad

    def vjp(self, x, cotangent):
        """Reverse-mode gradients of <cotangent, forward(x)>."""
        acts = self.forward_cache(x)
        return self.backward(acts, cotangent)

    # -- forward mode ----------------------------------------------------

    def jvp(self, x, tangent):
        """Directional derivative J(x) @ tangent."""
        x = self._check_input(x)
        v = np.asarray(tangent, dtype=float)
        if v.shape != x.shape:
            raise ValueError(f"tangent shape {v.shape} != input shape "
                             f"{x.shape}")
        acts = self.forward_cache(x)
        _, tangents = self._push_tangents(acts, v[..., None, :])
        return tangents[-1][1][..., 0, :]

    def _push_tangents(self, acts, directions):
        """Propagate direction stacks (batch, k, in) through cached acts.

        Returns (acts, tangent cache) where the cache holds per layer the
        pair (t_l, d_l): pre- and post-activation direction values.
        """
        d = np.asarray(directions, dtype=float)
        cache = [(None, d)]
        last = self.n_layers - 1
        for i, w in enumerate(self.weights):
            t = cache[-1][1] @ w.T
            if i != last:
                sp = 1.0 - acts[i + 1] ** 2
                d_out = sp[..., None, :] * t if t.ndim == 3 else sp * t
            else:
                d_out = t
            cache.append((t, d_out))
        return acts, cache

    def jacobian(self, x):
        """Full Jacobian at a single input, shape (out, in), via jvp columns."""
        x = self._check_input(np.asarray(x, dtype=float))
        acts = self.forward_cache(x)
        eye = np.eye(self.in_dim)
        _, cache = self._push_tangents(acts, eye)
        return cache[-1][1].T  # (in, out) -> transpose

    def backward_through_jvp(self, acts, tangent_cache, cotangents):
        """Reverse-mode through the forward-mode pass.

        cotangents attach to the jvp outputs d_L, shape matching them
        ((batch, k, out) or (k, out)).  Returns the flat parameter gradient
        of <cotangents, d_L> summed over batch and directions; the primal
        inputs and the seed directions are treated as constants.
        """
        gd = np.asarray(cotangents, dtype=float)
        d_last = tangent_cache[-1][1]
        if gd.shape != d_last.shape:
            raise ValueError(f"cotangent shape {gd.shape} != jvp output "
                             f"shape {d_last.shape}")
        ga = np.zeros_like(acts[-1])
        grad = np.empty(self.params.size)
        dws, dbs = self.layer_views(grad)
        for i in range(self.n_layers - 1, -1, -1):
            t_i, _ = tangent_cache[i + 1]
            d_prev = tangent_cache[i][1]
            if i == self.n_layers - 1:
                gt = gd
                gs = ga
            else:
                a_i = acts[i + 1]
                sp = 1.0 - a_i ** 2
                spp = -2.0 * a_i * sp
                gt = sp[..., None, :] * gd
                gs = (spp[..., None, :] * t_i * gd).sum(axis=-2) + sp * ga
            # sum over batch and directions: (..., k, out) x (..., k, in)
            # -> (out, in) as one matmul over the stacked rows
            dw = np.matmul(gt.reshape(-1, gt.shape[-1]).T,
                           d_prev.reshape(-1, d_prev.shape[-1]), out=dws[i])
            gs2, a2 = np.atleast_2d(gs, acts[i])
            dw += gs2.T @ a2
            dbs[i][...] = gs2.sum(axis=0)
            gd = gt @ self.weights[i]
            ga = gs @ self.weights[i]
        return grad

    # -- serialization ---------------------------------------------------

    def to_dict(self):
        return {
            "sizes": self.sizes,
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data):
        weights = [np.asarray(w, dtype=float) for w in data["weights"]]
        biases = [np.asarray(b, dtype=float) for b in data["biases"]]
        return cls(data["sizes"], weights, biases, seed=data.get("seed"))

    def save(self, path):
        with open(path, "w") as f:
            json.dump(self.to_dict(), f)

    @classmethod
    def load(cls, path):
        with open(path) as f:
            return cls.from_dict(json.load(f))


# b1, b2 and eps of adam_step: Adam's moment decay rates and denominator
# floor as Kingma & Ba (2015) set them
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class AdamState:
    """Adaptive-moment accumulators for one network's parameter vector."""

    def __init__(self, net, learning_rate=1e-3):
        self.learning_rate = learning_rate
        self.step_count = 0
        self.m = np.zeros(net.params.size)
        self.v = np.zeros(net.params.size)


def adam_step(state, net, grad):
    """One adaptive-moment update, in place on net.params.

    grad is a flat vector laid out like params.  Every element goes through
    m*b1 + (1-b1)*g, v*b2 + ((1-b2)*g)*g and lr*(m/c1) / (sqrt(v/c2)+eps)
    in that order, in place apart from two parameter-sized temporaries.
    They live for one step, not in the state, so the allocator can reuse
    their memory between steps.
    """
    g = np.asarray(grad, dtype=float)
    if g.shape != state.m.shape:
        raise ValueError(f"gradient shape {g.shape} != parameter shape "
                         f"{state.m.shape}")
    if not np.isfinite(g).all():
        for i, (dw, db) in enumerate(zip(*net.layer_views(g))):
            if not np.isfinite(dw).all():
                raise TrainingError(f"non-finite gradient in layer {i} "
                                    f"weights")
            if not np.isfinite(db).all():
                raise TrainingError(f"non-finite gradient in layer {i} bias")
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    m, v = state.m, state.v
    step = np.multiply(1.0 - ADAM_BETA1, g)
    m *= ADAM_BETA1
    m += step
    v *= ADAM_BETA2
    np.multiply(1.0 - ADAM_BETA2, g, out=step)
    step *= g
    v += step
    denom = np.divide(v, c2)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    np.divide(m, c1, out=step)
    step *= state.learning_rate
    step /= denom
    net.params -= step


def distortion_terms(decoder, z_batch, metric):
    """Per-point traces of the latent pullback metric.

    Returns (acts, tangent_cache, ku, q, tr, tr_sq) where q[p] is the m x m
    pullback matrix at batch point p expressed through directional
    derivatives, tr its trace and tr_sq the trace of its square.
    """
    z = np.atleast_2d(np.asarray(z_batch, dtype=float))
    n_pts, m = z.shape
    acts = decoder.forward_cache(z)
    directions = np.broadcast_to(np.eye(m), (n_pts, m, m)).copy()
    _, cache = decoder._push_tangents(acts, directions)
    u = cache[-1][1]                       # (N, m, nB): J e_a rows
    ku = metric.apply(u)
    q = u @ ku.transpose(0, 2, 1)          # pullback matrices
    tr = np.einsum("paa->p", q)
    tr_sq = np.einsum("pab,pab->p", q, q)
    return acts, cache, ku, q, tr, tr_sq


def grad_of_distortion(decoder, z_batch, metric):
    """Exact-mode distortion value and its flat decoder-parameter gradient.

    The scalar is E[Tr(Hbar^2)] / E[Tr(Hbar)]^2 over the batch; the
    gradient flows through every directional-derivative evaluation
    (reverse over forward).  Latent points are treated as constants.
    """
    z = np.atleast_2d(np.asarray(z_batch, dtype=float))
    if z.shape[0] == 0:
        raise ValueError("empty latent batch")
    n_pts = z.shape[0]
    acts, cache, ku, q, tr, tr_sq = distortion_terms(decoder, z, metric)
    denom = tr.mean()
    if denom < 1e-12:
        raise DistortionUndefinedError(
            f"mean pullback trace {denom:.3e} is too small for the "
            f"distortion ratio")
    numer = tr_sq.mean()
    value = numer / denom ** 2

    # d value / d u, with u[p, a] = J(z_p) e_a.
    gu = (4.0 / (n_pts * denom ** 2)) * (q @ ku) \
        - (4.0 * numer / (n_pts * denom ** 3)) * ku
    return value, decoder.backward_through_jvp(acts, cache, gu)
