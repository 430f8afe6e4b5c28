"""Kernel and gradient tests.

Every primitive of the reference tape (tape.py) has its backward pass
verified against central finite differences computed in 64-bit; the
analytic and numeric routes are kept fully independent. The array LSTM
cell is compared bit for bit with the tape's composed cell, and a
convolution's input gradient bit for bit with the per-offset slice loop it
replaces. Three kernels are exact rewrites that round differently, so each
is compared at a stated tolerance with the plain form kept here: weight
gradients, summed with one GEMM per parameter, with the per-step sum of
rank-1 products; the dot-product gradient norm and Adam's efficient form
with the allocating textbook formulas. The tape-level training tests train
through `tape_train_on`, the tape's form of NavModel.train_on. Adam split
over the helper thread is compared bit for bit with the inline update.
"""

import math
import os
import threading
import time
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import tape
from mazenav import nnet
from mazenav.langgen import TaskCategory, generate_dataset
from mazenav.navmodel import ModelConfig, NavModel
from mazenav.nnet import (
    Param,
    adam_step,
    clip_global_norm,
    global_grad_norm,
    zero_grad,
)
from oracles import finite_diff_check
from tape import (
    Leaf,
    Tensor,
    Var,
    add,
    backward,
    concat,
    constant,
    conv2d_valid,
    cross_entropy,
    embed,
    linear,
    matmul,
    mul,
    narrow,
    relu,
    reshape,
    sigmoid,
    softmax,
    tanh,
    tape_train_on,
)
from tape import lstm_cell as composite_lstm_cell


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
    numeric = numeric_grad(lambda: float(build_loss().data), param)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-4)
    assert np.max(np.abs(analytic - numeric) / denom) < tol


class TestPrimitiveGradients:
    def setup_method(self):
        self.rng = np.random.default_rng(0)

    def test_matmul_vector(self):
        W = Var("W", self.rng.normal(size=(4, 6)))
        x = constant(self.rng.normal(size=6))
        target = constant(self.rng.normal(size=4))

        def loss():
            d = matmul(W, x) + (target * constant(np.full(4, -1.0)))
            return matmul(d, d)  # squared error via dot product

        check_param_grad(loss, W)

    def test_matmul_matrix_times_matrix(self):
        A = Var("A", self.rng.normal(size=(3, 4)))
        B = Var("B", self.rng.normal(size=(4, 2)))

        def loss():
            prod = matmul(A, B)
            flat = reshape(prod, (6,))
            return matmul(flat, flat)

        check_param_grad(loss, A)
        check_param_grad(loss, B)

    def test_add_broadcast_bias(self):
        b = Var("b", self.rng.normal(size=4))
        x = constant(self.rng.normal(size=(5, 4)))

        def loss():
            s = x + b
            flat = reshape(s, (20,))
            return matmul(flat, flat)

        check_param_grad(loss, b)

    def test_mul_broadcast_channels(self):
        beta = Var("beta", self.rng.normal(size=3))
        x = constant(self.rng.normal(size=(4, 5, 3)))

        def loss():
            m = mul(x, beta)
            flat = reshape(m, (60,))
            return matmul(flat, flat)

        check_param_grad(loss, beta)

    def test_activations(self):
        for act in (sigmoid, tanh, relu):
            p = Var("p", self.rng.normal(size=7) + 0.3)  # keep clear of relu kink

            def loss():
                y = act(p)
                return matmul(y, y)

            check_param_grad(loss, p)

    def test_softmax_gradient(self):
        p = Var("p", self.rng.normal(size=5))
        w = constant(self.rng.normal(size=5))

        def loss():
            return matmul(softmax(p), w)

        check_param_grad(loss, p)

    def test_cross_entropy_gradient(self):
        p = Var("p", self.rng.normal(size=4))

        def loss():
            return cross_entropy(softmax(p), 2)

        check_param_grad(loss, p)

    def test_narrow_and_concat(self):
        p = Var("p", self.rng.normal(size=8))

        def loss():
            a = narrow(p, 0, 3)
            b = narrow(p, 3, 5)
            y = concat([b, a])
            return matmul(y, y)

        check_param_grad(loss, p)

    def test_embed_gradient(self):
        We = Var("We", self.rng.normal(size=(6, 3)))

        def loss():
            rows = embed(We, [0, 4, 4, 2])
            flat = reshape(rows, (12,))
            return matmul(flat, flat)

        check_param_grad(loss, We)

    def test_conv2d_filter_and_input_gradients(self):
        F = Var("F", self.rng.normal(size=(2, 3, 4, 5)))
        Xp = Var("X", self.rng.normal(size=(5, 20, 4)))

        def loss():
            y = conv2d_valid(F, Xp)
            flat = reshape(y, (int(np.prod(y.shape)),))
            return matmul(flat, flat)

        # larger loss magnitudes here raise the finite-difference noise floor
        check_param_grad(loss, F, tol=1e-5)
        check_param_grad(loss, Xp, tol=1e-5)

    def test_lstm_cell_gradients(self):
        H, D = 5, 3
        W = Var("W", self.rng.normal(size=(4 * H, D + H)) * 0.4)
        b = Var("b", self.rng.normal(size=4 * H) * 0.1)
        x = constant(self.rng.normal(size=D))

        def loss():
            h0 = constant(np.zeros(H))
            c0 = constant(np.zeros(H))
            h1, c1 = composite_lstm_cell(W, b, x, (h0, c0))
            h2, _ = composite_lstm_cell(W, b, x, (h1, c1))  # reuse -> through-time grads
            return matmul(h2, h2)

        check_param_grad(loss, W)
        check_param_grad(loss, b)

    def test_unused_param_gets_no_gradient(self):
        used = Var("used", self.rng.normal(size=3))
        unused = Var("unused", self.rng.normal(size=3))
        zero_grad([used, unused])
        loss = matmul(used, used)
        backward(loss)
        assert used.grad is not None
        assert unused.grad is None

    def test_linear_weight_grad_is_outer_product(self):
        W = Var("W", self.rng.normal(size=(3, 4)))
        x = constant(self.rng.normal(size=4))
        up = self.rng.normal(size=3)
        zero_grad([W])
        y = linear(W, x)
        loss = matmul(y, constant(up))
        backward(loss)
        assert np.allclose(W.grad, np.outer(up, x.data))


class TestForwardSemantics:
    def test_conv_output_width(self):
        filt = nnet._filter_matrix(np.zeros((1, 5, 20, 7)))
        x = np.zeros((2, 5, 20, 20))
        assert nnet.conv2d_valid(x, filt, np.zeros(7), (1, 5)).shape == (2, 5, 16, 7)

    def test_conv_shape_mismatch_raises(self):
        filt = nnet._filter_matrix(np.zeros((1, 5, 3, 7)))
        with pytest.raises(ValueError, match="channel"):
            nnet.conv2d_valid(np.zeros((1, 5, 20, 20)), filt, np.zeros(7), (1, 5))

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
        W = rng.normal(size=(4 * H, D + H)) * 3
        b = rng.normal(size=4 * H)
        h = np.zeros((1, H))
        c = np.zeros((1, H))
        for _ in range(10):
            z = np.concatenate([rng.normal(size=(1, D)), h], axis=1)
            _, c, _, h = nnet.lstm_cell((W,), b, z, c)
            assert (np.abs(h) < 1.0).all()

    def test_sigmoid_is_the_plain_logistic_formula(self):
        # the composite LSTM reference shares sigmoid, so pin its rounding here
        x = np.random.default_rng(6).normal(size=1000) * 8
        assert np.array_equal(sigmoid(constant(x)).data, 1.0 / (1.0 + np.exp(-x)))


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
    """Minimal model protocol for finite_diff_check itself; the analytic
    gradient comes from the tape."""

    def __init__(self):
        self.w = Param("w", np.array([0.3, -0.7, 1.2]))
        self.broken = False

    def params(self):
        return [self.w]

    def tape_loss(self, w):
        return matmul(w, w)

    def sequence_loss(self, instance):
        loss = self.tape_loss(Leaf(self.w))
        return SimpleNamespace(loss=float(loss.data), tape=loss)

    def backward(self, record):
        zero_grad(self.params())
        loss = record.tape
        if self.broken:
            # corrupt the analytic route deliberately
            loss = mul(loss, constant(np.asarray(1.01)))
        backward(loss)


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
            def tape_loss(self, w):
                return cross_entropy(softmax(w), 0)

        fine = finite_diff_check(Curved(), None, h=1e-5, samples_per_param=None)
        coarse = finite_diff_check(Curved(), None, h=1e-1, samples_per_param=None)
        assert fine["maxRelError"] < coarse["maxRelError"]
        assert exact["pass"] and fine["pass"]


class TestLstmCell:
    """nnet.lstm_cell and its reverse (nnet._lstm_grad) against the tape's
    composed cell, one row at a time."""

    H, D = 5, 3

    def test_rows_match_composite_bitwise(self):
        # Three rows, the first and last sharing a weight matrix, advance six
        # steps. At each step every row's gates, cell and hidden state, and
        # the gradients its reverse sends to the weights, bias, input and
        # previous state from random gradients of the new h and c, equal the
        # composed cell's on that row alone.
        rng = np.random.default_rng(11)
        H, D, n = self.H, self.D, 3
        mats = [rng.normal(size=(4 * H, D + H)) * 1.5 for _ in range(2)]
        weights = (mats[0], mats[1], mats[0])
        bias = rng.normal(size=(n, 4 * H))
        h, c = rng.normal(size=(n, H)) * 0.5, rng.normal(size=(n, H))
        for step in range(6):
            z = np.concatenate([rng.normal(size=(n, D)), h], axis=1)
            gates, c_new, tc, h_new = nnet.lstm_cell(weights, bias, z, c)
            dh, dc = rng.normal(size=(n, H)), rng.normal(size=(n, H))
            d_gates = np.empty_like(gates)
            dc_prev = nnet._lstm_grad(dh, dc, *nnet._lstm_grad_factors(gates, c, tc),
                                      out=d_gates)
            for j in range(n):
                W, b = Var("W", weights[j]), Var("b", bias[j])
                x, h_prev, c_prev = Var("x", z[j, :D]), Var("h", h[j]), Var("c", c[j])
                ref_h, ref_c = composite_lstm_cell(W, b, x, (h_prev, c_prev))
                where = (step, j)
                assert np.array_equal(h_new[j], ref_h.data), where
                assert np.array_equal(c_new[j], ref_c.data), where
                backward(add(matmul(ref_h, constant(dh[j])), matmul(ref_c, constant(dc[j]))))
                assert np.array_equal(b.grad, d_gates[j]), where
                assert np.array_equal(W.grad, np.outer(d_gates[j], z[j])), where
                dz = weights[j].T @ d_gates[j]
                assert np.array_equal(x.grad, dz[:D]), where
                assert np.array_equal(h_prev.grad, dz[D:]), where
                assert np.array_equal(c_prev.grad, dc_prev[j]), where
            h, c = h_new, c_new

    def test_saturated_gates_do_not_warn(self):
        H, D = 2, 1
        W = np.zeros((4 * H, D + H))
        b = np.full(4 * H, -800.0)
        c_prev = np.ones((1, H))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gates, c, tc, h = nnet.lstm_cell((W,), b, np.ones((1, D + H)), c_prev)
            d_gates = np.empty_like(gates)
            dc_prev = nnet._lstm_grad(2 * h, 2 * c, *nnet._lstm_grad_factors(gates, c_prev, tc),
                                      out=d_gates)
            assert np.array_equal(sigmoid(constant([-800.0, 800.0])).data, [0.0, 1.0])
        assert np.array_equal(c, np.zeros((1, H))) and np.array_equal(h, np.zeros((1, H)))
        assert np.isfinite(d_gates).all() and np.isfinite(dc_prev).all()


def slice_loop_conv_input_grad(g, filters):
    """Reference input gradient of a valid convolution: each filter offset's
    product added into the input window it covers, one slice at a time."""
    kh, kw, cin, _ = filters.shape
    oh, ow, _ = g.shape
    gx = np.zeros((oh + kh - 1, ow + kw - 1, cin))
    for di in range(kh):
        for dj in range(kw):
            gx[di:di + oh, dj:dj + ow, :] += g @ filters[di, dj].T
    return gx


class TestConvInputGrad:
    @pytest.mark.parametrize("oh, ow, cin, cout, kh, kw", [
        (1, 12, 16, 8, 5, 5), (1, 12, 64, 32, 5, 5), (3, 16, 4, 4, 3, 3),
        (3, 14, 4, 2, 1, 3), (2, 7, 3, 5, 2, 4), (5, 16, 4, 1, 1, 1)])
    def test_matches_slice_loop_bitwise(self, oh, ow, cin, cout, kh, kw):
        rng = np.random.default_rng(oh * 100 + cin)
        for _ in range(5):
            g = rng.normal(size=(oh, ow, cout)) * rng.uniform(0.01, 10.0)
            filters = rng.normal(size=(kh, kw, cin, cout))
            assert np.array_equal(nnet._conv_input_grad(g, filters),
                                  slice_loop_conv_input_grad(g, filters))


def per_step_outer(t, u, v):
    """Reference rank-1 accumulation: each product formed on its own and
    added to the gradient at once, the sum the GEMM at the end of the sweep replaces."""
    t.accumulate(np.einsum("i,j->ij", u, v))


class TestWeightGradientGemm:
    def shared_weight_loss(self):
        """W (5x5) steps a recurrence 6 times, V (5x3) reads every state from
        the left, and W also gets a dense gradient through mul."""
        rng = np.random.default_rng(8)
        W = Var("W", rng.normal(size=(5, 5)) * 0.6)
        V = Var("V", rng.normal(size=(5, 3)))
        U = Var("U", rng.normal(size=(5, 2)))
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
        monkeypatch.setattr(tape, "_accumulate_outer", per_step_outer)
        ref = self.grads(params, loss)
        for p, g, r in zip(params, grads, ref):
            np.testing.assert_allclose(g, r, rtol=1e-12, atol=0, err_msg=p.name)

    def test_non_leaf_matrix_gets_its_product_before_its_backward(self):
        rng = np.random.default_rng(9)
        flat = Var("flat", rng.normal(size=12))
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
        monkeypatch.setattr(tape, "_accumulate_outer", per_step_outer)
        ref = self.grads(params, loss)
        for p, g, r in zip(params, grads, ref):
            np.testing.assert_allclose(g, r, rtol=1e-12, atol=0, err_msg=p.name)

    def test_training_matches_per_step_sum(self, monkeypatch):
        train = crit10_training(50, tape_train_on)
        losses, model = train()
        monkeypatch.setattr(tape, "_accumulate_outer", per_step_outer)
        ref_losses, ref_model = train()
        np.testing.assert_allclose(losses, ref_losses, rtol=1e-12, atol=0)
        assert_same_training(model, ref_model, 50)


def crit10_training(steps, train_on=NavModel.train_on):
    """A function that trains a fresh criterion-10 model with one train_on
    call per instance of a fixed `steps`-instance stream and returns the
    losses and the model. `train_on(model, instance)` takes the step."""
    from mazenav.datastore import Vocabulary
    from mazenav.langgen import TemplateBank

    bank = TemplateBank.load_default()
    vocab = Vocabulary(bank.vocabulary())
    data = list(generate_dataset({TaskCategory.LANGUAGE_ONLY: 1.0}, steps,
                                 master_seed=0, bank=bank))
    config = ModelConfig(vocab_size=len(vocab), embed_dim=32,
                         encoder_hidden=64, attention_hidden=32,
                         conv_width=5, conv_channels=16,
                         extra_convs=((5, 5, 8),), variant="full")

    def train():
        model = NavModel(config, vocab, seed=0)
        return [train_on(model, inst)[0] for inst in data], model

    return train


def assert_same_training(model, ref_model, steps):
    for p, ref in zip(model.params(), ref_model.params()):
        assert p.t == ref.t == steps
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


def textbook_grad_norm(params):
    return reference_grad_norm([p.grad for p in params])


def textbook_clip(params, threshold=5.0):
    scale, grads = reference_clip([p.grad for p in params], threshold)
    for p, g in zip(params, grads):
        p.grad = g
    return scale


def textbook_adam(params, lr=1e-3):
    for p in params:
        if p.grad is not None:
            state = (p.data, p.m, p.v, p.t)
            p.data, p.m, p.v, p.t = reference_adam(state, p.grad, lr=lr)


class TestInPlaceOptimizer:
    def test_matches_textbook_formulas(self):
        # The norm is a BLAS dot and Adam takes Kingma & Ba's efficient
        # form; both are exact rewrites that round differently.
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
            assert global_grad_norm(params) == pytest.approx(
                reference_grad_norm(grads), rel=1e-12)
            scale = clip_global_norm(params, threshold=5.0)
            ref_scale, grads = reference_clip(grads, 5.0)
            assert scale == pytest.approx(ref_scale, rel=1e-12)
            clipped += scale < 1.0
            assert global_grad_norm(params) == pytest.approx(
                reference_grad_norm(grads), rel=1e-12)
            lr = 1e-3 * (1 + step % 3)
            adam_step(params, lr=lr)
            ref = [s if g is None else reference_adam(s, g, lr=lr)
                   for s, g in zip(ref, grads)]
            for p, (data, m, v, t) in zip(params, ref):
                assert p.t == t
                for a, r in ((p.data, data), (p.m, m), (p.v, v)):
                    np.testing.assert_allclose(a, r, rtol=1e-12, atol=0)
        assert 0 < clipped < 50
        assert params[3].t == 0

    def test_blockwise_adam_matches_textbook_formulas(self):
        # Sizes below, at and across the block size, with a ragged last block.
        # The efficient form changes only the parameter update, so the
        # moments stay bit-identical to the textbook's.
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
            np.testing.assert_allclose(p.data, data, rtol=1e-12, atol=0)
            assert np.array_equal(p.m, m) and np.array_equal(p.v, v)

    def test_training_matches_textbook_optimizer(self, monkeypatch):
        train = crit10_training(50)
        losses, model = train()
        monkeypatch.setattr(nnet, "global_grad_norm", textbook_grad_norm)
        monkeypatch.setattr(nnet, "clip_global_norm", textbook_clip)
        monkeypatch.setattr(nnet, "adam_step", textbook_adam)
        ref_losses, ref_model = train()
        np.testing.assert_allclose(losses, ref_losses, rtol=1e-9, atol=0)
        assert_same_training(model, ref_model, 50)

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
        # backward forms each gradient in its Param's buffer, replacing what
        # the buffer held; a Param without a term gets no gradient.
        rng = np.random.default_rng(5)
        W = Param("W", rng.normal(size=(8, 4)))
        b = Param("b", rng.normal(size=8))
        unused = Param("unused", np.zeros(3))
        d, z = rng.normal(size=(3, 8)), rng.normal(size=(3, 4))

        def terms():
            yield W, np.matmul, d.T, z
            yield b, np.add.reduce, d, 0

        nnet.backward([W, b, unused], terms())
        assert np.array_equal(W.grad, d.T @ z)
        assert np.array_equal(b.grad, np.add.reduce(d, 0))
        first = {p.name: (p.grad, p.grad.copy()) for p in (W, b)}
        W.grad *= 0.5  # as a clip would
        unused.grad = np.ones(3)
        nnet.backward([W, b, unused], terms())
        assert unused.grad is None
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


@pytest.fixture
def fresh_helper(monkeypatch):
    """No helper thread at the start; one that the test starts is shut down
    after it."""
    monkeypatch.setattr(nnet, "_HELPER", None)
    yield
    if nnet._HELPER is not None:
        nnet._HELPER.shutdown()


@pytest.fixture
def forced_helper(monkeypatch, fresh_helper):
    """Every step uses the helper thread, whatever its size and the number
    of usable CPUs."""
    monkeypatch.setattr(nnet, "_HELPER_MIN", 0)
    monkeypatch.setattr(nnet, "_usable_cpus", lambda: 2)


def on_helper() -> bool:
    return threading.current_thread().name.startswith("nnet-helper")


class TestHelperThread:
    block = nnet._ADAM_BLOCK
    shapes = [(3,), (block,), (2 * block + 17,), (3, block // 2 + 5), (5 * block + 1,), (7, 5)]

    def adam_run(self, steps=3):
        rng = np.random.default_rng(8)
        params = [Param(f"p{k}", rng.normal(size=s)) for k, s in enumerate(self.shapes)]
        for step in range(steps):
            for p in params:
                p.grad = rng.normal(size=p.data.shape)
            if step == 1:
                params[2].grad = None  # a parameter the loss never reached
            adam_step(params, lr=1e-3 * (step + 1))
        return params

    def inline_run(self, monkeypatch, steps=3):
        with monkeypatch.context() as m:
            m.setattr(nnet, "_HELPER_MIN", math.inf)
            return self.adam_run(steps)

    def assert_same(self, params, ref_params):
        for p, ref in zip(params, ref_params):
            assert p.t == ref.t
            for a, r in ((p.data, ref.data), (p.m, ref.m), (p.v, ref.v)):
                assert np.array_equal(a, r), p.name

    @pytest.mark.parametrize("first", ["helper", "caller", "either"])
    def test_split_adam_matches_inline(self, monkeypatch, forced_helper, first):
        # Whichever thread updates a block, its bits are the same: the
        # helper takes every block, the caller takes every block, or the two
        # share the queue as they get to it.
        ref = self.inline_run(monkeypatch)
        taken = {"helper": 0, "caller": 0}
        blocks = nnet._adam_blocks

        def side(todo, *args):
            me = "helper" if on_helper() else "caller"
            deadline = time.monotonic() + 10
            while first not in ("either", me) and todo and time.monotonic() < deadline:
                time.sleep(0.001)  # until the other side has taken every block
            before = len(todo)
            blocks(todo, *args)
            taken[me] += before - len(todo)

        monkeypatch.setattr(nnet, "_adam_blocks", side)
        split = self.adam_run()
        assert nnet._HELPER is not None
        if first != "either":
            assert taken[first] > 0
            assert taken["caller" if first == "helper" else "helper"] == 0
        self.assert_same(split, ref)

    def test_busy_helper_leaves_the_step_to_the_caller(self, monkeypatch, forced_helper):
        # A helper that has not started its part when the caller's ends is
        # not waited for: the caller takes the part back.
        ref = self.inline_run(monkeypatch)
        sides = []
        blocks = nnet._adam_blocks

        def spy(todo, *args):
            sides.append(on_helper())
            blocks(todo, *args)

        monkeypatch.setattr(nnet, "_adam_blocks", spy)
        release = threading.Event()
        blocker = nnet._helper_for(0).submit(release.wait, 30)
        try:
            busy = self.adam_run()
            assert not release.is_set() and not blocker.done()
        finally:
            release.set()
        assert blocker.result(timeout=30)
        assert sides == [False, False] * 3  # the body's call, then the withdrawn part
        self.assert_same(busy, ref)

    @pytest.mark.parametrize("failing", ["helper", "caller"])
    def test_failure_propagates_after_both_parts(self, monkeypatch, forced_helper, failing):
        # Once the helper has started, a failure on either side reaches the
        # caller only after the other side has finished, 0.2 s later.
        started = threading.Event()
        finished = []
        blocks = nnet._adam_blocks

        def part(todo, *args):
            side = "helper" if on_helper() else "caller"
            if side == "helper":
                started.set()
            else:
                assert started.wait(10)
            if side == failing:
                raise FloatingPointError(f"{side} part failed")
            time.sleep(0.2)
            blocks(todo, *args)
            finished.append(side)

        monkeypatch.setattr(nnet, "_adam_blocks", part)
        with pytest.raises(FloatingPointError, match=f"{failing} part failed"):
            self.adam_run(steps=1)
        assert finished == ["caller" if failing == "helper" else "helper"]

    def test_one_usable_cpu_starts_no_thread(self, monkeypatch, fresh_helper):
        monkeypatch.setattr(nnet, "_HELPER_MIN", 0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        before = set(threading.enumerate())
        self.adam_run()
        crit10_training(2)()
        assert nnet._HELPER is None
        assert set(threading.enumerate()) == before

    def test_cpu_count_without_an_affinity_call(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert nnet._usable_cpus() == (os.cpu_count() or 1)

    def test_helper_follows_the_real_affinity(self, monkeypatch, fresh_helper):
        # Nothing patched but the size: under `taskset -c 0` the steps run
        # inline, on two or more CPUs they start the helper.
        monkeypatch.setattr(nnet, "_HELPER_MIN", 0)
        crit10_training(2)()
        assert (nnet._HELPER is not None) == (len(os.sched_getaffinity(0)) >= 2)
