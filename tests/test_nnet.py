"""Kernel and gradient tests.

Every primitive's backward pass is verified against central finite
differences computed in 64-bit; the analytic and numeric routes are kept
fully independent. The fused LSTM cell and the in-place optimizer are
compared bit for bit with the composed cell and the allocating textbook
formulas they replace. Weight gradients, which backward sums with one GEMM
per parameter, are compared with the per-step sum of rank-1 products.
"""

import math
import random
import warnings

import numpy as np
import pytest

from mazenav import nnet
from mazenav.datastore import build_vocab
from mazenav.langgen import TaskCategory, generate_dataset
from mazenav.navmodel import ModelConfig, NavModel
from mazenav.nnet import (
    Param,
    Tensor,
    adam_step,
    add,
    backward,
    clip_global_norm,
    concat,
    constant,
    conv2d_valid,
    cross_entropy,
    embed,
    finite_diff_check,
    global_grad_norm,
    linear,
    lstm_cell,
    matmul,
    mul,
    narrow,
    no_grad,
    relu,
    reshape,
    sigmoid,
    softmax,
    tanh,
    zero_grad,
)
from mazenav.worldsim import WorldConfig


def composite_lstm_cell(W, b, x, state):
    """Reference LSTM cell composed of tape primitives (the unfused form)."""
    h_prev, c_prev = state
    hidden = h_prev.data.shape[0]
    gates = linear(W, concat([x, h_prev]), b)
    i = sigmoid(narrow(gates, 0, hidden))
    f = sigmoid(narrow(gates, hidden, hidden))
    g = tanh(narrow(gates, 2 * hidden, hidden))
    o = sigmoid(narrow(gates, 3 * hidden, hidden))
    c_new = add(mul(f, c_prev), mul(i, g))
    h_new = mul(o, tanh(c_new))
    return h_new, c_new


def numeric_grad(func, param, h=1e-6):
    """Central finite differences of scalar func() w.r.t. every entry."""
    grad = np.zeros_like(param.data)
    flat = param.data.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = func()
        flat[i] = orig - h
        down = func()
        flat[i] = orig
        gflat[i] = (up - down) / (2 * h)
    return grad


def check_param_grad(build_loss, param, tol=1e-6):
    zero_grad([param])
    loss = build_loss()
    backward(loss)
    analytic = param.grad.copy()
    with no_grad():
        numeric = numeric_grad(lambda: float(build_loss().data), param)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-4)
    assert np.max(np.abs(analytic - numeric) / denom) < tol


class TestPrimitiveGradients:
    def setup_method(self):
        self.rng = np.random.default_rng(0)

    def test_matmul_vector(self):
        W = Param("W", self.rng.normal(size=(4, 6)))
        x = constant(self.rng.normal(size=6))
        target = constant(self.rng.normal(size=4))

        def loss():
            d = matmul(W, x) + (target * constant(np.full(4, -1.0)))
            return matmul(d, d)  # squared error via dot product

        check_param_grad(loss, W)

    def test_matmul_matrix_times_matrix(self):
        A = Param("A", self.rng.normal(size=(3, 4)))
        B = Param("B", self.rng.normal(size=(4, 2)))

        def loss():
            prod = matmul(A, B)
            flat = reshape(prod, (6,))
            return matmul(flat, flat)

        check_param_grad(loss, A)
        check_param_grad(loss, B)

    def test_add_broadcast_bias(self):
        b = Param("b", self.rng.normal(size=4))
        x = constant(self.rng.normal(size=(5, 4)))

        def loss():
            s = x + b
            flat = reshape(s, (20,))
            return matmul(flat, flat)

        check_param_grad(loss, b)

    def test_mul_broadcast_channels(self):
        beta = Param("beta", self.rng.normal(size=3))
        x = constant(self.rng.normal(size=(4, 5, 3)))

        def loss():
            m = mul(x, beta)
            flat = reshape(m, (60,))
            return matmul(flat, flat)

        check_param_grad(loss, beta)

    def test_activations(self):
        for act in (sigmoid, tanh, relu):
            p = Param("p", self.rng.normal(size=7) + 0.3)  # keep clear of relu kink

            def loss():
                y = act(p)
                return matmul(y, y)

            check_param_grad(loss, p)

    def test_softmax_gradient(self):
        p = Param("p", self.rng.normal(size=5))
        w = constant(self.rng.normal(size=5))

        def loss():
            return matmul(softmax(p), w)

        check_param_grad(loss, p)

    def test_cross_entropy_gradient(self):
        p = Param("p", self.rng.normal(size=4))

        def loss():
            return cross_entropy(softmax(p), 2)

        check_param_grad(loss, p)

    def test_narrow_and_concat(self):
        p = Param("p", self.rng.normal(size=8))

        def loss():
            a = narrow(p, 0, 3)
            b = narrow(p, 3, 5)
            y = concat([b, a])
            return matmul(y, y)

        check_param_grad(loss, p)

    def test_embed_gradient(self):
        We = Param("We", self.rng.normal(size=(6, 3)))

        def loss():
            rows = embed(We, [0, 4, 4, 2])
            flat = reshape(rows, (12,))
            return matmul(flat, flat)

        check_param_grad(loss, We)

    def test_conv2d_filter_and_input_gradients(self):
        F = Param("F", self.rng.normal(size=(2, 3, 4, 5)))
        Xp = Param("X", self.rng.normal(size=(5, 20, 4)))

        def loss():
            y = conv2d_valid(F, Xp)
            flat = reshape(y, (int(np.prod(y.shape)),))
            return matmul(flat, flat)

        # larger loss magnitudes here raise the finite-difference noise floor
        check_param_grad(loss, F, tol=1e-5)
        check_param_grad(loss, Xp, tol=1e-5)

    def test_lstm_cell_gradients(self):
        H, D = 5, 3
        W = Param("W", self.rng.normal(size=(4 * H, D + H)) * 0.4)
        b = Param("b", self.rng.normal(size=4 * H) * 0.1)
        x = constant(self.rng.normal(size=D))

        def loss():
            h0 = constant(np.zeros(H))
            c0 = constant(np.zeros(H))
            h1, c1 = lstm_cell(W, b, x, (h0, c0))
            h2, _ = lstm_cell(W, b, x, (h1, c1))  # reuse -> through-time grads
            return matmul(h2, h2)

        check_param_grad(loss, W)
        check_param_grad(loss, b)

    def test_unused_param_gets_no_gradient(self):
        used = Param("used", self.rng.normal(size=3))
        unused = Param("unused", self.rng.normal(size=3))
        zero_grad([used, unused])
        loss = matmul(used, used)
        backward(loss)
        assert used.grad is not None
        assert unused.grad is None

    def test_linear_weight_grad_is_outer_product(self):
        W = Param("W", self.rng.normal(size=(3, 4)))
        x = constant(self.rng.normal(size=4))
        up = self.rng.normal(size=3)
        zero_grad([W])
        y = linear(W, x)
        loss = matmul(y, constant(up))
        backward(loss)
        assert np.allclose(W.grad, np.outer(up, x.data))


class TestForwardSemantics:
    def test_conv_output_width(self):
        F = constant(np.zeros((1, 5, 20, 7)))
        x = constant(np.zeros((5, 20, 20)))
        assert conv2d_valid(F, x).shape == (5, 16, 7)

    def test_conv_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="channel"):
            conv2d_valid(constant(np.zeros((1, 5, 3, 7))), constant(np.zeros((5, 20, 20))))

    def test_matmul_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="mismatch"):
            matmul(constant(np.zeros((3, 4))), constant(np.zeros(5)))

    def test_softmax_uniform_on_equal_scores(self):
        out = softmax(constant(np.full(8, 1.7))).data
        assert np.allclose(out, 1 / 8)
        assert abs(out.sum() - 1.0) < 1e-12

    def test_softmax_positive_and_normalized(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            out = softmax(constant(rng.normal(size=6) * 30)).data
            assert (out > 0).all()
            assert abs(out.sum() - 1.0) < 1e-12

    def test_cross_entropy_known_values(self):
        onehot = np.zeros(4)
        onehot[1] = 1.0
        assert float(cross_entropy(constant(onehot), 1).data) == 0.0
        uniform = np.full(4, 0.25)
        assert abs(float(cross_entropy(constant(uniform), 3).data) - math.log(4)) < 1e-12

    def test_cross_entropy_zero_guard(self):
        dist = np.zeros(4)
        dist[0] = 1.0
        loss = float(cross_entropy(constant(dist), 2).data)
        assert np.isfinite(loss)
        assert loss == pytest.approx(-math.log(1e-12))

    def test_lstm_hidden_bounded(self):
        rng = np.random.default_rng(2)
        H, D = 6, 4
        W = constant(rng.normal(size=(4 * H, D + H)) * 3)
        b = constant(rng.normal(size=4 * H))
        h = constant(np.zeros(H))
        c = constant(np.zeros(H))
        for _ in range(10):
            h, c = lstm_cell(W, b, constant(rng.normal(size=D)), (h, c))
            assert (np.abs(h.data) < 1.0).all()

    def test_sigmoid_is_the_plain_logistic_formula(self):
        # the composite LSTM reference shares sigmoid, so pin its rounding here
        x = np.random.default_rng(6).normal(size=1000) * 8
        assert np.array_equal(sigmoid(constant(x)).data, 1.0 / (1.0 + np.exp(-x)))

    def test_no_grad_builds_no_graph(self):
        p = Param("p", np.ones(3))
        with no_grad():
            y = matmul(p, p)
        assert y.parents == () and not y.requires_grad


class TestOptimization:
    def test_clip_scaling(self):
        p = Param("p", np.zeros(4))
        p.grad = np.full(4, 5.0)  # norm 10
        scale = clip_global_norm([p], threshold=5.0)
        assert scale == pytest.approx(0.5)
        assert global_grad_norm([p]) == pytest.approx(5.0)

    def test_clip_inactive_below_threshold(self):
        p = Param("p", np.zeros(9))
        p.grad = np.full(9, 1.0)  # norm 3
        assert clip_global_norm([p], threshold=5.0) == 1.0
        assert np.allclose(p.grad, 1.0)

    def test_post_clip_norm_never_exceeds_threshold(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            params = [Param(f"p{i}", np.zeros(5)) for i in range(3)]
            for p in params:
                p.grad = rng.normal(size=5) * rng.uniform(0, 10)
            clip_global_norm(params, threshold=5.0)
            assert global_grad_norm(params) <= 5.0 + 1e-9

    def test_adam_zero_gradient_keeps_value(self):
        p = Param("p", np.array([1.0, -2.0]))
        p.grad = np.zeros(2)
        adam_step([p])
        assert np.allclose(p.data, [1.0, -2.0])

    def test_adam_first_step_magnitude(self):
        p = Param("p", np.zeros(3))
        p.grad = np.array([0.5, -3.0, 1e-6])
        adam_step([p], lr=1e-3)
        # bias-corrected first step is ~ lr * sign(g) when |g| >> eps
        assert p.data[0] == pytest.approx(-1e-3, rel=1e-4)
        assert p.data[1] == pytest.approx(1e-3, rel=1e-4)

    def test_adam_drifts_against_constant_gradient(self):
        p = Param("p", np.array([0.0]))
        for _ in range(50):
            p.grad = np.array([2.0])
            adam_step([p], lr=1e-3)
        assert p.data[0] < -0.04  # ~50 * lr of downhill drift

    def test_params_without_grad_skipped(self):
        p = Param("p", np.array([7.0]))
        p.grad = None
        adam_step([p])
        assert p.data[0] == 7.0


class _QuadModel:
    """Minimal model protocol for finite_diff_check itself."""

    def __init__(self):
        self.w = Param("w", np.array([0.3, -0.7, 1.2]))
        self.broken = False

    def params(self):
        return [self.w]

    def sequence_loss(self, instance):
        loss = matmul(self.w, self.w)
        if self.broken and nnet._GRAD_ENABLED:
            # corrupt the recorded gradient path deliberately
            return mul(loss, constant(np.asarray(1.01)))
        return loss


class TestFiniteDiffCheck:
    def test_passes_on_correct_model(self):
        report = finite_diff_check(_QuadModel(), None, samples_per_param=None)
        assert report["pass"]
        assert report["maxRelError"] < 1e-6

    def test_fails_on_corrupted_gradient(self):
        model = _QuadModel()
        model.broken = True  # analytic route sees a scaled loss, numeric does not
        report = finite_diff_check(model, None, samples_per_param=None)
        assert not report["pass"]

    def test_large_h_degrades(self):
        exact = finite_diff_check(_QuadModel(), None, samples_per_param=None)
        # quadratic loss: central differences are exact for any h, so use a
        # curved model to show degradation
        class Curved(_QuadModel):
            def sequence_loss(self, instance):
                return cross_entropy(softmax(self.w), 0)

        fine = finite_diff_check(Curved(), None, h=1e-5, samples_per_param=None)
        coarse = finite_diff_check(Curved(), None, h=1e-1, samples_per_param=None)
        assert fine["maxRelError"] < coarse["maxRelError"]
        assert exact["pass"] and fine["pass"]


class TestFusedLstmCell:
    H, D, STEPS = 5, 3, 6

    def make_inputs(self):
        rng = np.random.default_rng(11)
        H, D = self.H, self.D
        return dict(
            W=Param("W", rng.normal(size=(4 * H, D + H)) * 1.5),
            b=Param("b", rng.normal(size=4 * H)),
            x=Param("x", rng.normal(size=D)),
            h0=Param("h0", rng.normal(size=H) * 0.5),
            c0=Param("c0", rng.normal(size=H)),
            A=constant(rng.normal(size=(D, H))),
            head=constant(rng.normal(size=H)),
            c_out=constant(rng.normal(size=H)),
        )

    def chain(self, cell, p):
        """6 steps; each h feeds a linear head and the next step's input,
        so h has three consumers as the decoder state does."""
        h, c = p["h0"], p["c0"]
        x = p["x"]
        loss = constant(np.asarray(0.0))
        states = []
        for _ in range(self.STEPS):
            h_prev = h
            h, c = cell(p["W"], p["b"], x, (h, c))
            states.append((h.data, c.data))
            loss = add(loss, matmul(p["head"], h))
            x = add(p["x"], tanh(matmul(p["A"], h_prev)))
        return add(loss, matmul(p["c_out"], c)), states

    def run(self, cell):
        p = self.make_inputs()
        params = [p[k] for k in ("W", "b", "x", "h0", "c0")]
        zero_grad(params)
        loss, states = self.chain(cell, p)
        backward(loss)
        return loss.data, states, {q.name: q.grad.copy() for q in params}

    def test_matches_composite_bitwise(self):
        loss, states, grads = self.run(lstm_cell)
        ref_loss, ref_states, ref_grads = self.run(composite_lstm_cell)
        assert np.array_equal(loss, ref_loss)
        for (h, c), (ref_h, ref_c) in zip(states, ref_states):
            assert np.array_equal(h, ref_h) and np.array_equal(c, ref_c)
        assert grads.keys() == ref_grads.keys() == {"W", "b", "x", "h0", "c0"}
        for name in grads:
            assert np.array_equal(grads[name], ref_grads[name]), name

    def test_no_grad_forward_matches_composite(self):
        p = self.make_inputs()
        with no_grad():
            _, states = self.chain(lstm_cell, p)
            _, ref_states = self.chain(composite_lstm_cell, p)
        for (h, c), (ref_h, ref_c) in zip(states, ref_states):
            assert np.array_equal(h, ref_h) and np.array_equal(c, ref_c)

    def test_three_tape_nodes_per_step(self):
        p = self.make_inputs()
        h, c = lstm_cell(p["W"], p["b"], p["x"], (p["h0"], p["c0"]))
        act, c_prev = c.parents
        assert h.parents == (act, c) and c_prev is p["c0"]
        assert act.parents == (p["W"], p["b"], p["x"], p["h0"])

    def test_saturated_gates_do_not_warn(self):
        H, D = 2, 1
        W = Param("W", np.zeros((4 * H, D + H)))
        b = Param("b", np.full(4 * H, -800.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h, c = lstm_cell(W, b, constant(np.ones(D)), (constant(np.ones(H)),
                                                         constant(np.ones(H))))
            zero_grad([W, b])
            backward(matmul(h, h) + matmul(c, c))
            assert np.array_equal(sigmoid(constant([-800.0, 800.0])).data, [0.0, 1.0])
        assert np.array_equal(c.data, np.zeros(H)) and np.array_equal(h.data, np.zeros(H))
        assert np.isfinite(W.grad).all() and np.isfinite(b.grad).all()

    def test_training_matches_composite_bitwise(self, monkeypatch):
        mix = {TaskCategory.LANGUAGE_ONLY: 1.0}
        data = list(generate_dataset(mix, 6, master_seed=5,
                                     config=WorldConfig(width=5, height=5)))
        vocab = build_vocab(data)
        config = ModelConfig(vocab_size=len(vocab), embed_dim=8, encoder_hidden=8,
                             attention_hidden=8, conv_width=3, conv_channels=4,
                             extra_convs=((3, 3, 4),))

        def train(cell):
            monkeypatch.setattr(nnet, "lstm_cell", cell)
            model = NavModel(config, vocab, seed=1)
            steps = [model.train_on(inst, clip_threshold=threshold)
                     for threshold in (5.0, 0.5) for inst in data]
            return steps, model

        steps, model = train(lstm_cell)
        ref_steps, ref_model = train(composite_lstm_cell)
        assert steps == ref_steps
        for p, ref in zip(model.params(), ref_model.params()):
            assert p.t == ref.t == 2 * len(data)
            for a, r in ((p.data, ref.data), (p.m, ref.m), (p.v, ref.v)):
                assert np.array_equal(a, r), p.name


def per_step_outer(t, u, v):
    """Reference rank-1 accumulation: each product formed on its own and
    added to the gradient at once, the sum the GEMM in backward replaces."""
    t.accumulate(np.einsum("i,j->ij", u, v))


class TestWeightGradientGemm:
    def shared_weight_loss(self):
        """W (5x5) steps a recurrence 6 times, V (5x3) reads every state from
        the left, and W also gets a dense gradient through mul."""
        rng = np.random.default_rng(8)
        W = Param("W", rng.normal(size=(5, 5)) * 0.6)
        V = Param("V", rng.normal(size=(5, 3)))
        U = Param("U", rng.normal(size=(5, 2)))
        mask = constant(rng.normal(size=(5, 5)))
        xs = [constant(x) for x in rng.normal(size=(6, 2))]
        head = constant(rng.normal(size=3))

        def loss():
            total = matmul(reshape(mul(W, mask), (25,)), constant(np.ones(25)))
            h = constant(np.zeros(5))
            for x in xs:
                h = tanh(add(matmul(W, h), matmul(U, x)))
                total = add(total, matmul(matmul(h, V), head))
            return total

        return [W, V, U], loss

    def grads(self, params, loss):
        zero_grad(params)
        backward(loss())
        return [p.grad.copy() for p in params]

    def test_matches_per_step_sum(self, monkeypatch):
        params, loss = self.shared_weight_loss()
        grads = self.grads(params, loss)
        monkeypatch.setattr(nnet, "_accumulate_outer", per_step_outer)
        ref = self.grads(params, loss)
        for p, g, r in zip(params, grads, ref):
            np.testing.assert_allclose(g, r, rtol=1e-12, atol=0, err_msg=p.name)

    def test_non_leaf_matrix_gets_its_product_before_its_backward(self):
        rng = np.random.default_rng(9)
        flat = Param("flat", rng.normal(size=12))
        x = constant(rng.normal(size=4))
        up = rng.normal(size=3)
        zero_grad([flat])
        W = reshape(flat, (3, 4))
        y = add(matmul(W, x), matmul(W, constant(2.0 * x.data)))
        backward(matmul(y, constant(up)))
        expected = np.outer(up, 2.0 * x.data)
        expected += np.outer(up, x.data)
        assert np.array_equal(flat.grad, expected.reshape(-1))

    def test_raising_sweep_leaves_no_products_behind(self, monkeypatch):
        params, loss = self.shared_weight_loss()
        W, V, U = params

        def raises(out):
            raise RuntimeError("injected fault")

        # V's product is recorded when its matmul runs, before the sweep
        # reaches the faulty node upstream of it.
        bad = Tensor(np.ones(5), parents=(U,), backward_fn=raises)
        zero_grad(params)
        with pytest.raises(RuntimeError, match="injected fault"):
            backward(matmul(matmul(bad, V), constant(np.ones(3))))
        assert V.grad is None
        grads = self.grads(params, loss)
        monkeypatch.setattr(nnet, "_accumulate_outer", per_step_outer)
        ref = self.grads(params, loss)
        for p, g, r in zip(params, grads, ref):
            np.testing.assert_allclose(g, r, rtol=1e-12, atol=0, err_msg=p.name)

    def test_training_matches_per_step_sum(self, monkeypatch):
        from mazenav.datastore import Vocabulary
        from mazenav.langgen import TemplateBank

        bank = TemplateBank.load_default()
        vocab = Vocabulary(bank.vocabulary())
        data = list(generate_dataset({TaskCategory.LANGUAGE_ONLY: 1.0}, 50,
                                     master_seed=0, bank=bank))
        # the criterion-10 model
        config = ModelConfig(vocab_size=len(vocab), embed_dim=32,
                             encoder_hidden=64, attention_hidden=32,
                             conv_width=5, conv_channels=16,
                             extra_convs=((5, 5, 8),), variant="full")

        def train():
            model = NavModel(config, vocab, seed=0)
            return [model.train_on(inst)[0] for inst in data], model

        losses, model = train()
        monkeypatch.setattr(nnet, "_accumulate_outer", per_step_outer)
        ref_losses, ref_model = train()
        np.testing.assert_allclose(losses, ref_losses, rtol=1e-12, atol=0)
        for p, ref in zip(model.params(), ref_model.params()):
            assert p.t == ref.t == len(data)
            for a, r in ((p.data, ref.data), (p.m, ref.m), (p.v, ref.v)):
                np.testing.assert_allclose(a, r, rtol=1e-9, atol=1e-12,
                                           err_msg=p.name)


def reference_grad_norm(grads):
    total = 0.0
    for g in grads:
        if g is not None:
            total += float((g * g).sum())
    return float(np.sqrt(total))


def reference_clip(grads, threshold):
    norm = reference_grad_norm(grads)
    if norm <= threshold or norm == 0.0:
        return 1.0, grads
    scale = threshold / norm
    return scale, [None if g is None else g * scale for g in grads]


def reference_adam(state, g, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
    data, m, v, t = state
    t += 1
    m = beta1 * m + (1.0 - beta1) * g
    v = beta2 * v + (1.0 - beta2) * (g * g)
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    return data - lr * m_hat / (np.sqrt(v_hat) + eps), m, v, t


class TestInPlaceOptimizer:
    def test_matches_allocating_formulas_bitwise(self):
        rng = np.random.default_rng(4)
        shapes = [(7, 5), (5,), (3, 4, 2), (6,)]
        params = [Param(f"p{k}", rng.normal(size=s)) for k, s in enumerate(shapes)]
        ref = [(p.data.copy(), p.m.copy(), p.v.copy(), p.t) for p in params]
        clipped = 0
        for step in range(50):
            grads = [rng.normal(size=s) * rng.uniform(0.0, 1.2) for s in shapes]
            grads[3] = None  # a parameter the loss never reached
            for p, g in zip(params, grads):
                p.grad = None if g is None else g.copy()
            assert global_grad_norm(params) == reference_grad_norm(grads)
            scale = clip_global_norm(params, threshold=5.0)
            ref_scale, grads = reference_clip(grads, 5.0)
            assert scale == ref_scale
            clipped += scale < 1.0
            assert global_grad_norm(params) == reference_grad_norm(grads)
            lr = 1e-3 * (1 + step % 3)
            adam_step(params, lr=lr)
            ref = [s if g is None else reference_adam(s, g, lr=lr)
                   for s, g in zip(ref, grads)]
            for p, (data, m, v, t) in zip(params, ref):
                assert p.t == t
                assert np.array_equal(p.data, data)
                assert np.array_equal(p.m, m) and np.array_equal(p.v, v)
        assert 0 < clipped < 50
        assert params[3].t == 0

    def test_blockwise_adam_matches_allocating_formulas_bitwise(self):
        # Sizes below, at and across the block size, with a ragged last block.
        rng = np.random.default_rng(6)
        block = nnet._ADAM_BLOCK
        shapes = [(3,), (block,), (2 * block + 17,), (3, block // 2 + 5)]
        params = [Param(f"p{k}", rng.normal(size=s)) for k, s in enumerate(shapes)]
        ref = [(p.data.copy(), p.m.copy(), p.v.copy(), p.t) for p in params]
        for step in range(3):
            grads = [rng.normal(size=s) for s in shapes]
            for p, g in zip(params, grads):
                p.grad = g.copy()
            adam_step(params, lr=1e-3 * (step + 1))
            ref = [reference_adam(st, g, lr=1e-3 * (step + 1)) for st, g in zip(ref, grads)]
        for p, (data, m, v, t) in zip(params, ref):
            assert p.t == t
            assert np.array_equal(p.data, data)
            assert np.array_equal(p.m, m) and np.array_equal(p.v, v)

    def test_param_data_is_c_contiguous(self):
        p = Param("p", np.arange(12.0).reshape(3, 4).T)
        p.grad = np.ones((4, 3))
        adam_step([p])
        assert p.data.flags.c_contiguous and p.t == 1

    def test_norm_of_finite_gradients_whose_squares_overflow(self):
        p = Param("p", np.zeros(2))
        p.grad = np.array([1e200, 1.0])
        q = Param("q", np.zeros(1))
        q.grad = np.array([-1e200])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert global_grad_norm([p]) == 1e200
            assert global_grad_norm([p, q]) == pytest.approx(math.sqrt(2) * 1e200, rel=1e-15)
            scale = clip_global_norm([p], threshold=5.0)
        assert scale == 5.0 / 1e200
        assert p.grad[0] == pytest.approx(5.0, rel=1e-15)
        assert global_grad_norm([p]) == pytest.approx(5.0, rel=1e-15)

    def test_norm_stays_nonfinite_for_nonfinite_gradients(self):
        for bad in (np.inf, np.nan):
            p = Param("p", np.zeros(3))
            p.grad = np.array([1e200, bad, 1.0])
            assert not math.isfinite(global_grad_norm([p]))
            assert clip_global_norm([p], threshold=5.0) == 1.0

    def test_gradient_buffer_reused_across_passes(self):
        rng = np.random.default_rng(5)
        W = Param("W", rng.normal(size=(8, 4)))
        b = Param("b", rng.normal(size=8))
        x = constant(rng.normal(size=2))

        def loss():
            h, c = lstm_cell(W, b, x, (constant(np.zeros(2)), constant(np.zeros(2))))
            h, c = lstm_cell(W, b, x, (h, c))
            return matmul(h, h)

        zero_grad([W, b])
        backward(loss())
        first = {p.name: (p.grad, p.grad.copy()) for p in (W, b)}
        zero_grad([W, b])
        assert W.grad is None and b.grad is None
        backward(loss())
        for p in (W, b):
            buffer, values = first[p.name]
            assert p.grad is buffer
            assert np.array_equal(p.grad, values)

    def test_clip_leaves_nonfinite_gradients_unscaled(self):
        p = Param("p", np.zeros(3))
        p.grad = np.array([np.inf, 1.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert clip_global_norm([p], threshold=5.0) == 1.0
            assert global_grad_norm([p]) == np.inf
        assert np.array_equal(p.grad, [np.inf, 1.0, 1.0])
