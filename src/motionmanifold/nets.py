"""Small tanh MLPs with hand-rolled derivatives.

The computation graph never changes (affine layers, tanh hidden units,
identity output, plus quadratic forms in directional derivatives), so
reverse-mode, forward-mode, and reverse-through-forward passes are written
out structurally instead of going through a general tape.

Shape conventions: weight matrices are (out, in); activations are
(batch, width).  Forward mode stacks a layer's batch primal rows over its
batch*k tangent rows, k directions per point, so one gemm moves both.
"""

from __future__ import annotations

import json
import operator

import numpy as np

from .errors import (DistortionUndefinedError, TrainingError, finite_array,
                     json_list, numeric, read_json, record_field, sourced)


class Mlp:
    """Fully connected network, tanh on hidden layers, identity output."""

    def __init__(self, sizes, weights, biases):
        self.sizes = list(int(s) for s in sizes)
        if len(self.sizes) < 2 or min(self.sizes) < 1:
            raise ValueError(f"field 'sizes': {self.sizes} is not two or more "
                             f"layer widths of at least 1")
        n_layers = len(self.sizes) - 1
        if len(weights) != n_layers or len(biases) != n_layers:
            raise ValueError(f"fields 'weights' and 'biases': {len(weights)} "
                             f"weights and {len(biases)} biases for "
                             f"{n_layers} layers of 'sizes' {self.sizes}")
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
                raise ValueError(f"field 'weights': layer {i} weight shape "
                                 f"{np.shape(w)} does not match 'sizes' "
                                 f"{self.sizes}")
            if np.shape(b) != self.biases[i].shape:
                raise ValueError(f"field 'biases': layer {i} bias shape "
                                 f"{np.shape(b)} does not match 'sizes' "
                                 f"{self.sizes}")
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
        return cls(sizes, weights, biases)

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
        """J(x) @ tangent for x (p,) or (batch, p) and one (p,) tangent."""
        _, u = self._push_tangents(np.atleast_2d(x),
                                   np.reshape(tangent, (1, self.in_dim)))
        return u[:, 0].reshape(np.shape(x)[:-1] + (self.out_dim,))

    def _push_tangents(self, x, directions):
        """u (N, k, out) = J(x_p) directions[a] for x (N, in) and one
        (k, in) block of directions shared by every point.

        A layer's N primal rows and N*k tangent rows (point-major) go
        through one gemm as one stacked array, rows[l]; rows[0] is x over
        the k directions, so they are not copied per point.  Returns
        (rows, u); the primal output is not computed.
        """
        x = self._check_input(x)
        n, k = len(x), len(directions)
        rows = [np.concatenate([x, directions])]
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            h = rows[-1] @ w.T
            a = np.tanh(np.add(h[:n], b, out=h[:n]), out=h[:n])
            stacked = np.empty((n + n * k, len(w)))
            stacked[:n] = a
            np.multiply((1.0 - a * a)[:, None, :],
                        h[n:].reshape(-1, k, len(w)),
                        out=stacked[n:].reshape(n, k, len(w)))
            rows.append(stacked)
        u = (rows[-1][n:] @ self.weights[-1].T).reshape(-1, k, self.out_dim)
        if len(u) != n:     # no hidden layer: J(x_p) = W at every point
            u = np.repeat(u, n, axis=0)
        return rows, u

    def backward_through_jvp(self, rows, gu):
        """Flat parameter gradient of <gu, u> for _push_tangents' rows and
        u, one weight-gradient and one cotangent gemm per layer.  u reads no
        primal output, so the output layer's primal cotangent and bias
        gradient are zero; x and the directions are constants.
        """
        n, k, out = gu.shape
        grad = np.empty(self.params.size)
        dws, dbs = self.layer_views(grad)
        last = self.n_layers - 1
        # with no hidden layer the k direction rows serve every point
        cot = gu.reshape(n * k, out) if last else gu.sum(axis=0)
        np.matmul(cot.T, rows[last][n:], out=dws[last])
        dbs[last][...] = 0.0
        for i in range(last - 1, -1, -1):
            h = cot @ self.weights[i + 1]
            ga, g = (None, h) if i + 1 == last else (h[:n], h[n:])
            a, d = rows[i + 1][:n], rows[i + 1][n:].reshape(n, k, -1)
            g, sp = g.reshape(d.shape), 1.0 - a * a
            cot = np.empty((len(rows[i]), a.shape[1]))
            gs, gt = cot[:n], cot[n:]
            # tanh'' t = -2 a tanh' t = -2 a d: the tangent rows' share
            # of the primal cotangent
            np.einsum("pkw,pkw->pw", d, g, out=gs)
            gs *= -2.0 * a
            if ga is not None:
                gs += sp * ga
            if i:
                np.multiply(sp[:, None, :], g, out=gt.reshape(d.shape))
            else:
                np.einsum("pw,pkw->kw", sp, g, out=gt)
            np.matmul(cot.T, rows[i], out=dws[i])
            dbs[i][...] = gs.sum(axis=0)
        return grad

    # -- serialization ---------------------------------------------------

    def to_dict(self):
        return {
            "sizes": self.sizes,
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
        }

    @classmethod
    def from_dict(cls, data, source="network"):
        """The network that to_dict described; an error names source and
        the field."""
        layers = json_list(finite_array, "layer")
        sizes = json_list(numeric(operator.index))
        return sourced(source, cls, record_field(source, data, "sizes", sizes),
                       record_field(source, data, "weights", layers),
                       record_field(source, data, "biases", layers))

    def save(self, path):
        with open(path, "w") as f:
            json.dump(self.to_dict(), f)

    @classmethod
    def load(cls, path):
        return read_json(path, lambda data: cls.from_dict(data, path))


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
    v*b2 + ((1-b2)*g)*g, m*b1 + (1-b1)*g and lr*(m/c1) / (sqrt(v/c2)+eps)
    in that order, in place apart from two parameter-sized temporaries.
    They live for one step, not in the state, so the allocator can reuse
    their memory between steps.

    A gradient that is not finite, or one so large that the second
    moment overflows, raises TrainingError naming the layer.  v then holds
    the non-finite moment; params, m and the step count are untouched.
    """
    g = np.asarray(grad, dtype=float)
    if g.shape != state.m.shape:
        raise ValueError(f"gradient shape {g.shape} != parameter shape "
                         f"{state.m.shape}")
    m, v = state.m, state.v
    step = np.multiply(1.0 - ADAM_BETA2, g)
    step *= g
    v *= ADAM_BETA2
    v += step
    # a non-finite g makes v non-finite too, so one check covers both
    if not np.isfinite(v).all():
        views = zip(*net.layer_views(g), *net.layer_views(v))
        for i, (dw, db, vw, vb) in enumerate(views):
            for part, gp, vp in (("weights", dw, vw), ("bias", db, vb)):
                if not np.isfinite(gp).all():
                    raise TrainingError(f"non-finite gradient in layer {i} "
                                        f"{part}")
                if not np.isfinite(vp).all():
                    raise TrainingError(
                        f"second moment overflows in layer {i} {part}: "
                        f"gradient entries reach {np.abs(gp).max():.3g}")
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    np.multiply(1.0 - ADAM_BETA1, g, out=step)
    m *= ADAM_BETA1
    m += step
    denom = np.divide(v, c2)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    np.divide(m, c1, out=step)
    step *= state.learning_rate
    step /= denom
    net.params -= step


def distortion_terms(decoder, z_batch, metric):
    """(rows, u, ku, q, tr, tr_sq): _push_tangents of the latent basis,
    so u[p, a] = J(z_p) e_a, the metric applied to u, the m x m pullback
    matrix q[p] at batch point p, its trace and the trace of its square.
    """
    rows, u = decoder._push_tangents(np.atleast_2d(z_batch),
                                     np.eye(decoder.in_dim))
    ku = metric.apply(u)
    q = u @ ku.transpose(0, 2, 1)          # pullback matrices
    tr = np.einsum("paa->p", q)
    tr_sq = np.einsum("pab,pab->p", q, q)
    return rows, u, ku, q, tr, tr_sq


def grad_of_distortion(decoder, z_batch, metric):
    """Exact-mode distortion value and its flat decoder-parameter gradient.

    The scalar is E[Tr(Hbar^2)] / E[Tr(Hbar)]^2 over the batch, minimized
    (value 1/m) when the pullback metric has equal eigenvalues everywhere
    on the batch, i.e. the decoder is a scaled isometry there; the
    gradient flows through every directional-derivative evaluation
    (reverse over forward).  Latent points are treated as constants.
    """
    rows, _, ku, q, tr, tr_sq = distortion_terms(decoder, z_batch, metric)
    n_pts = len(tr)
    if n_pts == 0:
        raise ValueError("empty latent batch")
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
    return value, decoder.backward_through_jvp(rows, gu)
