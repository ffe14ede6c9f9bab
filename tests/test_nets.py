import numpy as np
import pytest

from motionmanifold import nets
from motionmanifold.basis import BasisSet
from motionmanifold.errors import TrainingError
from motionmanifold.geometry import CurveGeomMetric


def fd_grad(f, x, eps=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        up = x.copy(); up.flat[i] += eps
        dn = x.copy(); dn.flat[i] -= eps
        g.flat[i] = (f(up) - f(dn)) / (2 * eps)
    return g


def test_create_is_seed_deterministic():
    a = nets.Mlp.create([3, 8, 2], seed=42)
    b = nets.Mlp.create([3, 8, 2], seed=42)
    c = nets.Mlp.create([3, 8, 2], seed=43)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    assert any(not np.array_equal(wa, wc)
               for wa, wc in zip(a.weights, c.weights))


def test_init_scale_is_fan_in_bounded():
    net = nets.Mlp.create([100, 50, 10], seed=0)
    for w in net.weights:
        bound = 1.0 / np.sqrt(w.shape[1])
        assert np.abs(w).max() <= bound
        assert np.abs(w).max() > 0.5 * bound        # actually fills the range


def test_forward_shapes_and_tanh_bounds():
    net = nets.Mlp.create([4, 16, 16, 3], seed=1)
    x = np.random.default_rng(0).normal(size=(7, 4))
    y = net.forward(x)
    assert y.shape == (7, 3)
    acts = net.forward_cache(x)
    assert len(acts) == 4
    for hidden in acts[1:-1]:
        assert np.abs(hidden).max() < 1.0           # tanh range


def test_vjp_matches_finite_differences():
    rng = np.random.default_rng(2)
    net = nets.Mlp.create([5, 12, 12, 4], seed=3)
    x = rng.normal(size=5)
    cot = rng.normal(size=4)
    input_grad, grad = net.vjp(x, cot)
    dws, _ = net.layer_views(grad)

    fd_x = fd_grad(lambda v: float(cot @ net.forward(v)), x)
    assert np.abs(input_grad - fd_x).max() < 1e-5

    for layer in range(net.n_layers):
        w0 = net.weights[layer].copy()

        def f(w):
            net.weights[layer][...] = w
            out = float(cot @ net.forward(x))
            net.weights[layer][...] = w0
            return out

        assert np.abs(dws[layer] - fd_grad(f, w0)).max() < 1e-5


def test_jvp_matches_directional_finite_differences():
    rng = np.random.default_rng(4)
    net = nets.Mlp.create([6, 10, 3], seed=5)
    x = rng.normal(size=6)
    v = rng.normal(size=6)
    eps = 1e-6
    fd = (net.forward(x + eps * v) - net.forward(x - eps * v)) / (2 * eps)
    assert np.abs(net.jvp(x, v) - fd).max() < 1e-5


def test_transpose_identity():
    # <u, J v> == <J^T u, v> to near machine precision
    rng = np.random.default_rng(6)
    net = nets.Mlp.create([7, 20, 5], seed=7)
    for _ in range(10):
        x = rng.normal(size=7)
        v = rng.normal(size=7)
        u = rng.normal(size=5)
        lhs = float(u @ net.jvp(x, v))
        grad_x, _ = net.vjp(x, u)
        rhs = float(grad_x @ v)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_jacobian_consistent_with_jvp_and_vjp():
    # distortion_terms pushes the latent basis through the decoder: its
    # rows u[p, a] = J(z_p) e_a are the Jacobian columns that jvp and vjp
    # give one direction at a time
    rng = np.random.default_rng(8)
    net = nets.Mlp.create([4, 9, 3], seed=9)
    xs = rng.normal(size=(2, 4))
    _, us, *_ = nets.distortion_terms(net, xs, CurveGeomMetric(np.eye(3)))
    for x, u in zip(xs, us):
        jac = u.T
        assert jac.shape == (3, 4)
        for i in range(4):
            e = np.zeros(4); e[i] = 1.0
            assert np.allclose(jac[:, i], net.jvp(x, e), atol=1e-12)
        for o in range(3):
            e = np.zeros(3); e[o] = 1.0
            gx, _ = net.vjp(x, e)
            assert np.allclose(jac[o], gx, atol=1e-12)


def test_batched_backward_sums_gradients():
    rng = np.random.default_rng(10)
    net = nets.Mlp.create([3, 8, 2], seed=11)
    xs = rng.normal(size=(5, 3))
    cots = rng.normal(size=(5, 2))
    acts = net.forward_cache(xs)
    _, grad = net.backward(acts, cots)
    total = np.zeros_like(grad)
    for x, c in zip(xs, cots):
        _, g = net.vjp(x, c)
        total += g
    assert np.abs(grad - total).max() < 1e-12


def test_backward_through_jvp_matches_finite_differences():
    # gradient of <cot, J(x_p) v_a> w.r.t. weights, with one block of
    # directions v shared by every point and held fixed; 0-3 hidden layers
    rng = np.random.default_rng(12)
    xs = rng.normal(size=(4, 3))
    dirs = rng.normal(size=(2, 3))
    cots = rng.normal(size=(4, 2, 2))
    for hidden in range(4):
        net = nets.Mlp.create([3, *[7] * hidden, 2], seed=13)
        rows, _ = net._push_tangents(xs, dirs)
        grad = net.backward_through_jvp(rows, cots)

        def value(params):
            p0 = net.params.copy()
            net.params[...] = params
            _, u = net._push_tangents(xs, dirs)
            net.params[...] = p0
            return float(np.sum(u * cots))

        fd = fd_grad(value, net.params.copy(), eps=1e-6)
        assert np.abs(grad - fd).max() < 1e-5, hidden


def test_adam_minimizes_quadratic():
    # single weight, no bias path: f(w) = (w - 3)^2
    net = nets.Mlp.create([1, 1], seed=0)
    net.params[:] = 0.0
    state = nets.AdamState(net, learning_rate=0.05)
    for _ in range(2000):
        w = net.weights[0][0, 0]
        nets.adam_step(state, net, np.array([2 * (w - 3.0), 0.0]))
    assert abs(net.weights[0][0, 0] - 3.0) < 1e-4


def test_adam_first_step_magnitude_is_learning_rate():
    # bias-corrected first update is lr * sign(grad) up to eps/|g|
    for scale in (1e-2, 1.0, 1e4):
        net = nets.Mlp.create([1, 1], seed=0)
        net.weights[0][:] = 0.0
        state = nets.AdamState(net, learning_rate=0.01)
        nets.adam_step(state, net, np.array([scale, 0.0]))
        assert net.weights[0][0, 0] == pytest.approx(-0.01, rel=1e-5)


@pytest.mark.parametrize("layer,part", [(0, "weights"), (1, "weights"),
                                        (1, "bias")])
def test_adam_step_names_non_finite_layer(layer, part):
    net = nets.Mlp.create([2, 4, 1], seed=0)
    state = nets.AdamState(net)
    before = net.params.copy()
    grad = np.zeros_like(net.params)
    dws, dbs = net.layer_views(grad)
    (dws if part == "weights" else dbs)[layer][-1] = np.nan
    dbs[-1][0] = np.inf if (layer, part) != (1, "bias") else np.nan
    with pytest.raises(TrainingError,
                       match=f"non-finite gradient in layer {layer} {part}$"):
        nets.adam_step(state, net, grad)
    assert np.array_equal(net.params, before)
    assert state.step_count == 0


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_adam_step_names_an_overflowing_second_moment():
    # a finite gradient whose square overflows would leave v at inf, and
    # the parameter would then stop moving without a word
    net = nets.Mlp.create([2, 4, 1], seed=0)
    state = nets.AdamState(net)
    before = net.params.copy()
    grad = np.zeros_like(net.params)
    net.layer_views(grad)[0][1][0, 2] = -1e300
    with pytest.raises(TrainingError, match="second moment overflows in "
                       "layer 1 weights: gradient entries reach 1e\\+300$"):
        nets.adam_step(state, net, grad)
    assert np.array_equal(net.params, before)
    assert state.step_count == 0


def test_adam_step_rejects_wrong_gradient_size():
    net = nets.Mlp.create([2, 4, 1], seed=0)
    with pytest.raises(ValueError, match="gradient shape"):
        nets.adam_step(nets.AdamState(net), net, np.zeros(3))


def test_serialization_round_trip(tmp_path):
    net = nets.Mlp.create([3, 6, 2], seed=21)
    path = tmp_path / "net.json"
    net.save(path)
    clone = nets.Mlp.load(path)
    x = np.random.default_rng(0).normal(size=(4, 3))
    assert np.array_equal(clone.forward(x), net.forward(x))
    assert clone.sizes == net.sizes


def test_distortion_terms_shapes():
    basis = BasisSet.uniform(5)
    metric = CurveGeomMetric(basis.gram())
    dec = nets.Mlp.create([2, 8, 10], seed=0)
    z = np.random.default_rng(1).normal(size=(6, 2))
    rows, u, ku, q, tr, tr_sq = nets.distortion_terms(dec, z, metric)
    assert u.shape == ku.shape == (6, 2, 10)
    assert q.shape == (6, 2, 2)
    assert tr.shape == (6,)
    assert tr_sq.shape == (6,)
    assert np.all(tr_sq >= 0)


@pytest.mark.parametrize("latent_dim", [1, 2, 3])
@pytest.mark.parametrize("hidden", [0, 1, 2, 3])
def test_grad_of_distortion_matches_finite_differences(hidden, latent_dim):
    # training's decoders have two (study, replan) or three (TrainConfig)
    # hidden layers
    basis = BasisSet.uniform(4)
    metric = CurveGeomMetric(basis.gram())
    rng = np.random.default_rng(14)
    worst = 0.0
    for trial in range(20):
        dec = nets.Mlp.create([latent_dim, *[6] * hidden, 8],
                              seed=100 + trial)
        z = rng.normal(size=(5, latent_dim))
        value, grad = nets.grad_of_distortion(dec, z, metric)
        dws, _ = dec.layer_views(grad)

        layer = int(rng.integers(0, dec.n_layers))
        i = int(rng.integers(0, dec.weights[layer].shape[0]))
        j = int(rng.integers(0, dec.weights[layer].shape[1]))
        eps = 1e-5
        w0 = dec.weights[layer][i, j]
        dec.weights[layer][i, j] = w0 + eps
        up, _ = nets.grad_of_distortion(dec, z, metric)
        dec.weights[layer][i, j] = w0 - eps
        dn, _ = nets.grad_of_distortion(dec, z, metric)
        dec.weights[layer][i, j] = w0
        fd = (up - dn) / (2 * eps)
        # the floor sits above the difference quotient's rounding, a few
        # ulps of the value over eps: with no hidden layer and one latent
        # dimension the value is 1 for every decoder and the gradient 0
        rel = abs(dws[layer][i, j] - fd) / max(abs(fd), 1e-6)
        worst = max(worst, rel)
    assert worst < 1e-3


def test_distortion_value_floor():
    # ratio E[S^2]/E[S]^2 >= 1/N by Cauchy-Schwarz; equality when S constant
    basis = BasisSet.uniform(4)
    metric = CurveGeomMetric(basis.gram())
    dec = nets.Mlp.create([2, 6, 4], seed=2)
    z = np.random.default_rng(3).normal(size=(8, 2))
    value, _ = nets.grad_of_distortion(dec, z, metric)
    assert value >= 1.0 / len(z) - 1e-12


# -- the flat-buffer passes against the list-based ones they replaced -----


def _reference_backward(net, acts, cotangent):
    """List-based reverse pass: (input_grad, [(dW, db), ...])."""
    g = np.asarray(cotangent, dtype=float)
    grads = [None] * net.n_layers
    for i in range(net.n_layers - 1, -1, -1):
        if i != net.n_layers - 1:
            g = g * (1.0 - acts[i + 1] ** 2)
        if g.ndim == 1:
            grads[i] = (np.outer(g, acts[i]), g.copy())
        else:
            grads[i] = (g.T @ acts[i], g.sum(axis=0))
        g = g @ net.weights[i]
    return g, grads


def _reference_tangents(net, acts, directions):
    """Per-point direction stacks pushed layer by layer: [(t_l, d_l)]."""
    d = np.broadcast_to(directions, acts[0].shape[:-1] + directions.shape)
    cache = [(None, d)]
    for i, w in enumerate(net.weights):
        t = cache[-1][1] @ w.T
        d = t if i == net.n_layers - 1 else \
            (1.0 - acts[i + 1] ** 2)[..., None, :] * t
        cache.append((t, d))
    return cache


def _reference_backward_through_jvp(net, acts, tangent_cache, cotangents):
    """List-based reverse-over-forward pass with einsum contractions."""
    gd = np.asarray(cotangents, dtype=float)
    ga = np.zeros_like(acts[-1])
    grads = [None] * net.n_layers
    for i in range(net.n_layers - 1, -1, -1):
        t_i, _ = tangent_cache[i + 1]
        d_prev = tangent_cache[i][1]
        if i == net.n_layers - 1:
            gt, gs = gd, ga
        else:
            a_i = acts[i + 1]
            sp = 1.0 - a_i ** 2
            spp = -2.0 * a_i * sp
            gt = sp[..., None, :] * gd
            gs = (spp[..., None, :] * t_i * gd).sum(axis=-2) + sp * ga
        if gt.ndim == 2:
            dw = np.einsum("ko,ki->oi", gt, d_prev)
        else:
            dw = np.einsum("bko,bki->oi", gt, d_prev)
        if np.ndim(gs) == 1:
            grads[i] = (dw + np.outer(gs, acts[i]), gs.copy())
        else:
            grads[i] = (dw + gs.T @ acts[i], gs.sum(axis=0))
        gd = gt @ net.weights[i]
        ga = gs @ net.weights[i]
    return grads


def _reference_adam_step(state, weights, biases, grads):
    """List-based update over per-layer (m, v) pairs and parameter arrays."""
    state["t"] += 1
    t = state["t"]
    b1, b2, lr, eps = 0.9, 0.999, state["lr"], 1e-8
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    for i, (dw, db) in enumerate(grads):
        for j, g in enumerate((dw, db)):
            m = state["m"][i][j]
            v = state["v"][i][j]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            target = weights[i] if j == 0 else biases[i]
            target -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


def _flat(grads):
    return np.concatenate([np.concatenate([dw.ravel(), db])
                           for dw, db in grads])


NET_SHAPES = [[80, 32, 32, 2], [2, 32, 32, 80]]    # encoder, decoder


@pytest.mark.parametrize("sizes", NET_SHAPES)
def test_flat_adam_step_is_bit_identical_to_list_update(sizes):
    net = nets.Mlp.create(sizes, seed=3)
    weights = [w.copy() for w in net.weights]
    biases = [b.copy() for b in net.biases]
    lr = 1e-2
    state = nets.AdamState(net, learning_rate=lr)
    ref = {"t": 0, "lr": lr,
           "m": [[np.zeros_like(w), np.zeros_like(b)]
                 for w, b in zip(weights, biases)],
           "v": [[np.zeros_like(w), np.zeros_like(b)]
                 for w, b in zip(weights, biases)]}
    rng = np.random.default_rng(5)
    for step in range(60):
        grads = [(rng.normal(scale=10.0 ** rng.integers(-6, 3),
                             size=w.shape),
                  rng.normal(size=b.shape)) for w, b in zip(weights, biases)]
        nets.adam_step(state, net, _flat(grads))
        _reference_adam_step(ref, weights, biases, grads)
    for got, want in zip(net.weights + net.biases, weights + biases):
        assert np.array_equal(got, want)
    assert np.array_equal(state.m, _flat(ref["m"]))
    assert np.array_equal(state.v, _flat(ref["v"]))


def test_params_is_shared_by_every_layer_view():
    net = nets.Mlp.create([5, 7, 3], seed=8)
    assert net.params.size == 5 * 7 + 7 + 7 * 3 + 3
    for arr in net.weights + net.biases:
        assert np.shares_memory(arr, net.params)
    net.params[:] = np.arange(net.params.size)
    assert net.weights[0][0, 0] == 0.0
    assert net.biases[-1][-1] == net.params.size - 1
    clone = nets.Mlp.from_dict(net.to_dict())
    assert np.array_equal(clone.params, net.params)
    assert clone.to_dict() == net.to_dict()


def test_init_copies_its_inputs():
    src = nets.Mlp.create([3, 4, 2], seed=1)
    weights = [w.copy() for w in src.weights]
    net = nets.Mlp(src.sizes, weights, [b.copy() for b in src.biases])
    weights[0][:] = 0.0
    assert np.array_equal(net.weights[0], src.weights[0])
    with pytest.raises(ValueError, match="layer 1 bias shape"):
        nets.Mlp([3, 4, 2], src.weights, [src.biases[0], np.zeros(3)])
    with pytest.raises(ValueError, match="for 2 layers"):
        nets.Mlp([3, 4, 2], src.weights[:1], src.biases[:1])


@pytest.mark.parametrize("batched", [False, True])
def test_backward_matches_list_reference(batched):
    rng = np.random.default_rng(16)
    net = nets.Mlp.create([4, 9, 9, 3], seed=17)
    shape = (6,) if batched else ()
    acts = net.forward_cache(rng.normal(size=shape + (4,)))
    cot = rng.normal(size=shape + (3,))
    input_grad, grad = net.backward(acts, cot)
    want_input, want = _reference_backward(net, acts, cot)
    np.testing.assert_allclose(input_grad, want_input, rtol=1e-12)
    np.testing.assert_allclose(grad, _flat(want), rtol=1e-12)


@pytest.mark.parametrize("batched", [False, True])
def test_backward_through_jvp_matches_einsum_reference(batched):
    # the stacked passes against per-point direction stacks and einsum
    # contractions; batched=False is one point
    rng = np.random.default_rng(18)
    net = nets.Mlp.create([3, 8, 8, 5], seed=19)
    x = rng.normal(size=(4 if batched else 1, 3))
    dirs = rng.normal(size=(2, 3))
    cots = rng.normal(size=(len(x), 2, 5))
    rows, u = net._push_tangents(x, dirs)
    acts = net.forward_cache(x)
    cache = _reference_tangents(net, acts, dirs)
    np.testing.assert_allclose(u, cache[-1][1], rtol=1e-12)
    grad = net.backward_through_jvp(rows, cots)
    want = _reference_backward_through_jvp(net, acts, cache, cots)
    np.testing.assert_allclose(grad, _flat(want), rtol=1e-12)
