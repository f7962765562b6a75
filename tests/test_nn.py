"""From-scratch CNN: convolution, initialization, forward/backward, Adam,
gradient checking, Lipschitz bound and checkpoint round trips."""

import re
import struct
import tracemalloc

import numpy as np
import pytest

from nsrecon import nn
from nsrecon.nullspace import mask_projector
from oracles import (adam_step_reference, backward_reference, conv,
                     conv_reference, forward_reference, grad_check,
                     layer_norm_reference)


def small_stripe_support():
    """8 x 8 0/1 support that observes the column pairs {0, 1}, {4, 5}."""
    support = np.zeros((8, 8))
    support[:, [0, 1, 4, 5]] = 1.0
    return support


def zero_grads(params):
    return nn.NetParams([np.zeros_like(k) for k in params.kernels],
                        [np.zeros_like(b) for b in params.biases])


def dense_conv(kernel, h, w):
    """Matrix of the bias-free circular convolution on an h x w grid."""
    out_ch, in_ch = kernel.shape[:2]
    size = in_ch * h * w
    mat = np.zeros((out_ch * h * w, size))
    for j in range(size):
        e = np.zeros(size)
        e[j] = 1.0
        mat[:, j] = conv(e.reshape(in_ch, h, w), kernel,
                         np.zeros(out_ch)).ravel()
    return mat


class TestConv:
    """The row-shift GEMMs of `nn.forward`, bias added (`oracles.conv`)."""

    def test_centered_delta_is_identity(self):
        k = np.zeros((1, 1, 3, 3))
        k[0, 0, 1, 1] = 1.0
        x = np.random.default_rng(0).standard_normal((1, 5, 5))
        np.testing.assert_array_equal(
            conv(x, k, np.zeros(1)), x)

    def test_constant_input(self):
        rng = np.random.default_rng(1)
        k = rng.standard_normal((2, 1, 3, 3))
        b = rng.standard_normal(2)
        x = np.full((1, 4, 4), 3.0)
        out = conv(x, k, b)
        for o in range(2):
            np.testing.assert_allclose(out[o], 3.0 * k[o].sum() + b[o])

    def test_against_loop_reference(self):
        # non-square grids and grids narrower than the 3x3 stencil
        rng = np.random.default_rng(2)
        for in_ch, out_ch, h, w in ((1, 3, 5, 5), (2, 3, 7, 4),
                                    (3, 1, 1, 1), (1, 2, 2, 5)):
            x = rng.standard_normal((in_ch, h, w))
            k = rng.standard_normal((out_ch, in_ch, 3, 3))
            b = rng.standard_normal(out_ch)
            np.testing.assert_allclose(conv(x, k, b),
                                       conv_reference(x, k, b), atol=1e-14)


class TestInit:
    def test_deterministic(self):
        arch = nn.Architecture()
        a = nn.init_params(arch, seed=7)
        b = nn.init_params(arch, seed=7)
        np.testing.assert_array_equal(a.flat, b.flat)

    def test_first_layer_bound(self):
        params = nn.init_params(nn.Architecture(), seed=0)
        assert np.max(np.abs(params.kernels[0])) <= np.sqrt(1.0 / 9)

    def test_mean_near_zero(self):
        params = nn.init_params(nn.Architecture(layers=4, width=24), seed=1)
        entries = np.concatenate([k.ravel() for k in params.kernels])
        bound = np.max(np.abs(entries))
        # uniform on [-b, b]: sd = b/sqrt(3); allow 3 standard errors
        assert entries.size >= 10_000
        tol = 3 * bound / np.sqrt(3 * entries.size)
        assert abs(entries.mean()) <= tol

    def test_architecture_validation(self):
        with pytest.raises(ValueError):
            nn.Architecture(layers=1)
        with pytest.raises(ValueError):
            nn.Architecture(width=0)


class TestForward:
    def test_zero_params_identity(self):
        arch = nn.Architecture(layers=3, width=2)
        params = nn.init_params(arch, 0).scaled(0.0)
        x = np.random.default_rng(3).standard_normal((6, 6))
        out, _ = nn.forward(params, x)
        np.testing.assert_array_equal(out, x)

    def test_output_is_input_plus_correction(self):
        arch = nn.Architecture(layers=3, width=2)
        params = nn.init_params(arch, 4)
        x = np.random.default_rng(4).standard_normal((6, 6))
        out, _ = nn.forward(params, x, lambda z: z)  # identity projector
        np.testing.assert_allclose(out - x, nn.forward(params, x)[0] - x,
                                   atol=1e-14)

    def test_dc_variant_projects_correction(self):
        support = small_stripe_support()
        proj = mask_projector(support)
        params = nn.init_params(nn.Architecture(layers=3, width=2), 5)
        x = np.random.default_rng(5).standard_normal((8, 8))
        out, _ = nn.forward(params, x, proj)
        np.testing.assert_allclose(out - x, proj(nn.forward(params, x)[0] - x),
                                   atol=1e-14)

    @pytest.mark.parametrize(
        "shape, train",
        [((6, 9), True), ((3, 6, 9), True), ((6, 9), False),
         ((3, 6, 9), False)],
        ids=["shape0", "shape1", "shape0-nograd", "shape1-nograd"])
    def test_row_matrices_are_split_from_one_store(self, shape, train):
        params = nn.init_params(nn.Architecture(layers=4, width=3), 6)
        x = np.random.default_rng(6).standard_normal(shape)
        rows = nn.forward(params, x, None, {})[1]["rows"]
        cache = nn.forward(params, x, None, {} if train else None)[1]
        store, offset = cache["store"], 0
        assert store.ndim == 1
        if not train:
            # every layer writes the front of a store the size of the
            # largest row matrix, so the last layer's is left there
            assert cache["rows"] is None
            assert store.size == max(r.size for r in rows)
            assert np.array_equal(store[:rows[-1].size], rows[-1].ravel())
            return
        assert sum(r.size for r in cache["rows"]) == store.size
        for r in cache["rows"]:  # in layer order, each contiguous
            assert r.base is store and r.flags.c_contiguous
            assert r.__array_interface__["data"][0] == \
                store.__array_interface__["data"][0] + offset
            offset += r.nbytes

    def test_reuse_writes_over_a_store_of_the_same_size(self):
        # a training loop allocates the store once: the cache it hands each
        # step lends the previous step's store
        params = nn.init_params(nn.Architecture(layers=4, width=3), 7)
        x, y = np.random.default_rng(7).standard_normal((2, 6, 9))
        _, cache = nn.forward(params, x, None, {})
        store = cache["store"]
        out, again = nn.forward(params, y, None, cache)
        fresh, want = nn.forward(params, y, None, {})
        assert again["store"] is store and want["store"] is not store
        assert np.array_equal(out, fresh)
        for got, ref in zip(again["rows"], want["rows"]):
            assert np.array_equal(got, ref)
        # another size gets a store of its own, and the lent one is kept
        wide = np.random.default_rng(8).standard_normal((6, 12))
        _, other = nn.forward(params, wide, None, again)
        assert other["store"] is not store
        assert np.array_equal(again["rows"][1], want["rows"][1])
        # inference takes no cache: each call writes a fresh store of the
        # largest matrix's size, and gives the training forward's output
        out, lean = nn.forward(params, y)
        again_out, leaner = nn.forward(params, y)
        assert lean["store"] is not leaner["store"]
        assert lean["store"].size == max(r.size for r in want["rows"])
        assert np.array_equal(out, fresh) and np.array_equal(again_out, out)

    def test_backward_rejects_a_cache_without_row_matrices(self):
        params = nn.init_params(nn.Architecture(layers=3, width=2), 8)
        x = np.random.default_rng(8).standard_normal((6, 6))
        _, cache = nn.forward(params, x)
        with pytest.raises(ValueError, match="kept no row matrices: pass it "
                           "a cache"):
            nn.backward(params, cache, np.ones((6, 6)))
        _, cache = nn.forward(params, x, None, {})
        nn.backward(params, cache, np.ones((6, 6)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, bad):
        params = nn.init_params(nn.Architecture(layers=3, width=2), 6)
        x = np.zeros((6, 6))
        x[2, 3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            nn.forward(params, x)


class TestStackedForward:
    """A stack (k, h, w) goes through every layer as one batched product
    and gives each image bit for bit as a forward pass of its own."""

    @pytest.mark.parametrize(
        "model, train",
        [("resnet", True), ("dcnet", True), ("resnet", False),
         ("dcnet", False)],
        ids=["resnet", "dcnet", "resnet-nograd", "dcnet-nograd"])
    def test_stack_equals_single_forwards(self, model, train):
        # inference (no cache) gives the training forward's outputs bit
        # for bit, for one image and for a stack
        support = small_stripe_support()
        proj = mask_projector(support) if model == "dcnet" else None
        params = nn.init_params(nn.Architecture(layers=4, width=3), 7)
        x = np.random.default_rng(7).standard_normal((5, 8, 8))
        out, _ = nn.forward(params, x, proj, {} if train else None)
        assert out.shape == x.shape
        for i in range(5):
            np.testing.assert_array_equal(
                out[i], nn.forward(params, x[i], proj, {})[0])
            np.testing.assert_array_equal(out[i],
                                          nn.forward(params, x[i], proj)[0])

    def test_banded_stack_equals_single_forwards(self):
        # columns 15 and 0 of 16: a band of 2 + 2 * 4 columns that wraps
        support = np.ones((6, 16))
        support[:, [15, 0]] = 0.0
        proj = mask_projector(support)
        params = nn.init_params(nn.Architecture(layers=4, width=3), 8)
        x = np.random.default_rng(8).standard_normal((5, 6, 16))
        out, cache = nn.forward(params, x, proj)
        assert len(cache["band"][0]) == 2 + 2 * 4
        for i in range(5):
            np.testing.assert_array_equal(out[i],
                                          nn.forward(params, x[i], proj)[0])

    def test_band_computed_once_per_columns_and_grid(self):
        support = np.ones((6, 16))
        support[:, [15, 0]] = 0.0
        # two projectors with equal columns share one read-only band
        ctx, arc = band = nn._band(mask_projector(support), 16, 4)
        assert nn._band(mask_projector(support), 16, 4) is band
        np.testing.assert_array_equal(ctx, np.arange(11, 21) % 16)
        np.testing.assert_array_equal(arc, [15, 0])
        assert not ctx.flags.writeable
        np.testing.assert_array_equal(nn._band(mask_projector(support), 16,
                                               3)[0], np.arange(12, 20) % 16)
        # without `columns` (the resnet, a plain callable), with none marked
        # or with an arc too wide for a band: the whole circle, and ctx
        # reads 4 columns each side of it, mod 16
        wide = np.ones((6, 16))
        wide[:, [0, 8]] = 0.0  # an arc of 9: 9 + 2 * 4 > 16
        params = nn.init_params(nn.Architecture(layers=4, width=3), 9)
        x = np.random.default_rng(9).standard_normal((6, 16))
        for proj in (None, lambda z: z, mask_projector(np.ones((6, 16))),
                     mask_projector(wide)):
            ctx, arc = nn._band(proj, 16, 4)
            np.testing.assert_array_equal(ctx, np.arange(-4, 20) % 16)
            np.testing.assert_array_equal(arc, np.arange(16))
            want = forward_reference(params, x, proj)
            assert (np.max(np.abs(nn.forward(params, x, proj)[0] - want))
                    <= 1e-13 * np.max(np.abs(want)))

    def test_projector_called_once_on_the_stack(self):
        calls = []

        def proj(z):
            calls.append(z.shape)
            return 0.5 * z

        params = nn.init_params(nn.Architecture(layers=3, width=2), 8)
        nn.forward(params, np.ones((4, 6, 6)), proj)
        assert calls == [(4, 6, 6)]

    def test_backward_rejects_stacked_cache(self):
        params = nn.init_params(nn.Architecture(layers=3, width=2), 9)
        x = np.random.default_rng(9).standard_normal((2, 6, 6))
        _, cache = nn.forward(params, x, None, {})
        with pytest.raises(ValueError, match="stack"):
            nn.backward(params, cache, np.ones((2, 6, 6)))

    @pytest.mark.parametrize("shape", [(6,), (1, 2, 6, 6)])
    def test_rank_validated(self, shape):
        params = nn.init_params(nn.Architecture(layers=3, width=2), 10)
        with pytest.raises(ValueError):
            nn.forward(params, np.zeros(shape))


class TestBackward:
    def test_zero_grad_out(self):
        arch = nn.Architecture(layers=3, width=2)
        params = nn.init_params(arch, 6)
        x = np.random.default_rng(6).standard_normal((6, 6))
        _, cache = nn.forward(params, x, None, {})
        grads, _ = nn.backward(params, cache, np.zeros((6, 6)))
        assert np.max(np.abs(grads.flat)) == 0.0

    def test_shape_validation(self):
        arch = nn.Architecture(layers=2, width=2)
        params = nn.init_params(arch, 9)
        _, cache = nn.forward(params, np.zeros((6, 6)), None, {})
        with pytest.raises(ValueError):
            nn.backward(params, cache, np.zeros((4, 4)))
        deeper = nn.init_params(nn.Architecture(layers=3, width=2), 9)
        _, cache = nn.forward(deeper, np.zeros((6, 6)), None, {})
        with pytest.raises(ValueError, match="parameter count"):
            nn.backward(params, cache, np.zeros((6, 6)))

    @pytest.mark.parametrize("layers", [
        pytest.param(layers, id=f"{layers}-no-input-grad")
        for layers in (2, 3, 5)])
    def test_two_row_shift_builds_per_layer(self, monkeypatch, layers):
        # forward builds each layer input's row matrix, backward reuses it
        # and builds one per layer but layer 0 for the gradient of that
        # layer's input; so does a dcnet whose projector keeps one column
        # of 16 (a band: 1 + 2L <= 16), on inputs no wider than the band's
        # context
        builds = 2 * layers - 1
        calls = []
        row_shifts = nn._row_shifts

        def counted(x, *args, **kwargs):
            calls.append(x.shape)
            return row_shifts(x, *args, **kwargs)

        monkeypatch.setattr(nn, "_row_shifts", counted)
        params = nn.init_params(nn.Architecture(layers=layers, width=3), 4)
        x = np.random.default_rng(4).standard_normal((6, 5))
        out, cache = nn.forward(params, x, None, {})
        nn.backward(params, cache, out - x)
        assert len(calls) == builds

        calls.clear()
        support = np.ones((6, 16))
        support[2, 7] = 0.0
        x = np.random.default_rng(5).standard_normal((6, 16))
        out, cache = nn.forward(params, x, mask_projector(support), {})
        assert len(cache["band"][0]) == 1 + 2 * layers
        nn.backward(params, cache, out - x)
        assert len(calls) == builds
        # the widest is layer 0's input
        assert max(shape[-1] for shape in calls) == 1 + 2 * layers

    @pytest.mark.parametrize("shape", [(1, 3), (5, 2), (4, 7), (9, 9)])
    @pytest.mark.parametrize("layers", [3, 4])
    @pytest.mark.parametrize("project", [False, True])
    def test_matches_reference_loop_exactly(self, shape, layers, project):
        rng = np.random.default_rng(layers * 100 + shape[0] * 10 + shape[1])
        params = nn.init_params(nn.Architecture(layers=layers, width=3),
                                int(rng.integers(1000)))
        keep = rng.random(shape) < 0.6
        projector = (lambda v: v * keep) if project else None
        x, g = rng.standard_normal(shape), rng.standard_normal(shape)
        _, cache = nn.forward(params, x, projector, {})
        grads, placeholder = nn.backward(params, cache, g)
        ref_k, ref_b = backward_reference(params, x, g, projector)
        for got, want in zip(grads.kernels + grads.biases, ref_k + ref_b):
            assert np.array_equal(got, want)
        # no input gradient: a NaN placeholder of grad_out's shape that
        # takes no writes
        assert placeholder.shape == g.shape and np.isnan(placeholder).all()
        with pytest.raises(ValueError, match="read-only"):
            placeholder[0, 0] = 0.0


class TestGradCheck:
    def test_small_net(self):
        for shape in ((6, 6), (5, 7)):
            err = grad_check(nn.Architecture(layers=2, width=2), seed=0,
                             shape=shape)
            assert err < 1e-6

    def test_default_architecture(self):
        err = grad_check(nn.Architecture(layers=5, width=6), seed=0,
                         shape=(8, 8))
        assert err < 1e-5

    def test_dc_variant(self):
        support = small_stripe_support()
        proj = mask_projector(support)
        err = grad_check(nn.Architecture(layers=3, width=2), seed=1,
                         shape=(8, 8), projector=proj)
        assert err < 1e-6

    def test_dc_variant_banded(self):
        # the projector keeps columns 11 and 0 of 12: an arc of m = 2 that
        # wraps past column 0, so 3 layers run on a band of 2 + 6 columns
        support = np.ones((8, 12))
        support[:, [0, 11]] = 0.0
        proj = mask_projector(support)
        np.testing.assert_array_equal(nn._band(proj, 12, 3)[0],
                                      np.arange(8, 16) % 12)
        params = nn.init_params(nn.Architecture(layers=3, width=2), 2)
        x = np.random.default_rng(2).standard_normal((8, 12))
        want = forward_reference(params, x, proj)
        assert (np.max(np.abs(nn.forward(params, x, proj)[0] - want))
                <= 1e-13 * np.max(np.abs(want)))
        err = grad_check(nn.Architecture(layers=3, width=2), seed=2,
                         shape=(8, 12), projector=proj)
        assert err < 1e-6

    def test_eps_validated(self):
        with pytest.raises(ValueError):
            grad_check(nn.Architecture(layers=2, width=2), eps=0.0)


class TestAdam:
    def test_zero_grads_no_motion(self):
        params = nn.init_params(nn.Architecture(layers=2, width=2), 10)
        zeros = zero_grads(params)
        state = nn.init_adam(params)
        new_p, _ = nn.adam_step(params, zeros, state)
        np.testing.assert_array_equal(new_p.flat, params.flat)

    def test_first_step_magnitude(self):
        params = nn.NetParams([np.array([[[[0.0] * 3] * 3]])],
                              [np.zeros(1)])
        grads = nn.NetParams([np.ones((1, 1, 3, 3))], [np.ones(1)])
        state = nn.init_adam(params, lr=1e-3)
        new_p, state = nn.adam_step(params, grads, state)
        # bias-corrected first step moves by ~lr in the gradient direction
        np.testing.assert_allclose(new_p.kernels[0], -1e-3, rtol=1e-6)
        assert state.step == 1

    def test_hand_computed_trace(self):
        # scalar parameter p=1, g=0.5, defaults, one step
        params = nn.NetParams([np.full((1, 1, 3, 3), 1.0)], [np.zeros(1)])
        grads = nn.NetParams([np.full((1, 1, 3, 3), 0.5)], [np.zeros(1)])
        state = nn.init_adam(params, lr=0.01)
        assert (nn.ADAM_BETA1, nn.ADAM_BETA2, nn.ADAM_EPS) == (0.9, 0.999,
                                                             1e-8)
        new_p, _ = nn.adam_step(params, grads, state)
        m_hat = (0.1 * 0.5) / (1 - 0.9)
        v_hat = (0.001 * 0.25) / (1 - 0.999)
        expected = 1.0 - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
        np.testing.assert_allclose(new_p.kernels[0], expected, rtol=1e-12)

    def test_coupled_weight_decay(self):
        params = nn.NetParams([np.full((1, 1, 3, 3), 2.0)], [np.zeros(1)])
        zeros = zero_grads(params)
        state = nn.init_adam(params, lr=1e-3, weight_decay=0.1)
        new_p, _ = nn.adam_step(params, zeros, state)
        # zero loss gradient, positive params: decay still shrinks them
        assert np.all(new_p.kernels[0] < 2.0)

    def test_training_loss_decreases_on_overfit(self):
        arch = nn.Architecture(layers=3, width=4)
        params = nn.init_params(arch, 11)
        rng = np.random.default_rng(11)
        x = rng.standard_normal((8, 8))
        t = rng.standard_normal((8, 8))
        state = nn.init_adam(params, lr=1e-2)
        losses = []
        for _ in range(20):
            out, cache = nn.forward(params, x, None, {})
            r = out - t
            losses.append(float(np.sum(r * r)))
            grads, _ = nn.backward(params, cache, 2.0 * r)
            params, state = nn.adam_step(params, grads, state)
        assert losses[-1] < losses[0]

    def test_vector_update_matches_per_array_reference(self):
        # 25 steps on the default architecture, gradients spanning seven
        # decades, weight decay on: every element rounds as per array
        params = nn.init_params(nn.Architecture(), 21)
        lr, wd = 1e-2, 1e-2
        state = nn.init_adam(params, lr=lr, weight_decay=wd)
        ref = params
        moments = [(np.zeros_like(a), np.zeros_like(a))
                   for a in params.kernels + params.biases]
        rng = np.random.default_rng(21)

        def draw(a):
            return rng.standard_normal(a.shape) * 10.0 ** rng.uniform(-6, 1)

        for step in range(1, 26):
            grads = nn.NetParams([draw(k) for k in params.kernels],
                                 [draw(b) for b in params.biases])
            params, state = nn.adam_step(params, grads, state)
            ref, moments = adam_step_reference(ref, grads, moments, step,
                                               lr, wd)
            assert np.array_equal(params.flat, ref.flat)
        assert state.step == 25
        for got, want in zip((state.m, state.v), zip(*moments)):
            assert np.array_equal(got, np.concatenate(
                [a.ravel() for a in want]))


class TestParamVector:
    """NetParams packs its per-layer arrays into one vector `flat`, and
    its kernels and biases are views into it."""

    def test_views_into_flat_kernels_first(self):
        arch = nn.Architecture(layers=3, width=4)
        params = nn.init_params(arch, 22)
        arrays = params.kernels + params.biases
        assert isinstance(params.kernels, tuple)
        assert params.flat.dtype == np.float64
        assert all(np.shares_memory(a, params.flat) for a in arrays)
        np.testing.assert_array_equal(
            params.flat, np.concatenate([a.ravel() for a in arrays]))
        params.biases[1][2] = 5.0
        assert params.flat[sum(k.size for k in params.kernels) + 4 + 2] == 5.0

    def test_constructor_packs_copies(self):
        k, b = np.ones((2, 1, 3, 3)), np.zeros(2)
        params = nn.NetParams([k], [b])
        k[0, 0, 0, 0] = 7.0
        assert params.kernels[0][0, 0, 0, 0] == 1.0
        assert params.kernels[0].shape == k.shape
        assert params.biases[0].shape == b.shape

    def test_copy_is_independent(self):
        params = nn.init_params(nn.Architecture(layers=3, width=2), 23)
        before = params.flat.copy()
        dup = params.copy()
        assert not np.shares_memory(dup.flat, params.flat)
        assert all(np.shares_memory(a, dup.flat)
                   for a in dup.kernels + dup.biases)
        dup.kernels[0][0, 0, 1, 1] = np.nan
        dup.biases[-1][0] = 3.0
        np.testing.assert_array_equal(params.flat, before)

    def test_scaled_equals_per_array_product(self):
        params = nn.init_params(nn.Architecture(), 24)
        for factor in (0.25, -3.7, 0.0):
            got = params.scaled(factor)
            want = nn.NetParams([k * factor for k in params.kernels],
                                [b * factor for b in params.biases])
            assert np.array_equal(got.flat, want.flat)


class TestLipschitz:
    def test_zero_net_bound_is_one(self):
        params = nn.init_params(nn.Architecture(layers=2, width=2),
                                0).scaled(0.0)
        assert nn.lipschitz_bound(params, (8, 8)) == pytest.approx(1.0)

    def test_single_layer_matches_dense_norm(self):
        for seed, channels, n in ((12, 1, 8), (2, 2, 16)):
            k = np.random.default_rng(seed).standard_normal(
                (channels, channels, 3, 3))
            params = nn.NetParams([k], [np.zeros(channels)])
            norms = nn.layer_operator_norms(params, (n, n))
            assert norms[0] == pytest.approx(
                np.linalg.norm(dense_conv(k, n, n), 2), rel=1e-10)

    @pytest.mark.parametrize("shape", [(8, 8), (5, 11), (64, 64)])
    @pytest.mark.parametrize("out_ch,in_ch", [(6, 1), (6, 6), (1, 6)])
    def test_norms_match_symbol_spectral_norm(self, shape, out_ch, in_ch):
        k = np.random.default_rng(out_ch * 7 + in_ch).standard_normal(
            (out_ch, in_ch, 3, 3))
        params = nn.NetParams([k], [np.zeros(out_ch)])
        norm = nn.layer_operator_norms(params, shape)[0]
        assert norm == pytest.approx(layer_norm_reference(k, shape),
                                     rel=1e-13)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_kernel_fails_naming_the_layer(self, bad):
        params = nn.init_params(nn.Architecture(layers=4, width=3), 5)
        params.kernels[2][1, 0, 2, 1] = bad
        for call in (nn.layer_operator_norms, nn.lipschitz_bound):
            with pytest.raises(ValueError, match="layer 2 kernel"):
                call(params, (8, 8))

    @pytest.mark.parametrize("shape", [(0, 8), (8, 0), (-1, 5), (0, 0)])
    def test_grid_side_below_one_fails(self, shape):
        params = nn.init_params(nn.Architecture(layers=2, width=2), 6)
        for call in (nn.layer_operator_norms, nn.lipschitz_bound):
            with pytest.raises(ValueError, match="side < 1"):
                call(params, shape)

    def test_bound_dominates_empirical_ratio(self):
        params = nn.init_params(nn.Architecture(layers=3, width=2), 13)
        bound = nn.lipschitz_bound(params, (8, 8))
        rng = np.random.default_rng(13)
        for _ in range(20):
            a = rng.standard_normal((8, 8))
            b = a + 1e-3 * rng.standard_normal((8, 8))
            fa, _ = nn.forward(params, a)
            fb, _ = nn.forward(params, b)
            ratio = np.linalg.norm(fa - fb) / np.linalg.norm(a - b)
            assert ratio <= bound * (1 + 1e-10)


class TestPrunedNorms:
    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_equal_full_spectrum_bit_for_bit(self, criterion8_params, n):
        for params in criterion8_params.values():
            norms = nn.layer_operator_norms(params, (n, n))
            for k, norm in zip(params.kernels, norms):
                gram, e = nn._layer_grams(k, (n, n))
                full = np.ldexp(np.sqrt(np.linalg.eigvalsh(gram).max()), e)
                assert norm == full
                assert norm == pytest.approx(layer_norm_reference(k, (n, n)),
                                             rel=1e-13)

    def test_stripe_eval_dcnet_prunes_nine_in_ten(self, criterion8_params,
                                                  monkeypatch):
        # the certify stage's net: data seed 0, init seed 1, at 64 x 64;
        # each layer calls eigvalsh twice, on the seeds and on the kept
        params = criterion8_params[(0, "dcnet")]
        sizes, eigvalsh = [], np.linalg.eigvalsh

        def spy(a):
            sizes.append(len(a))
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        nn.layer_operator_norms(params, (64, 64))
        assert len(sizes) == 2 * len(params.kernels)
        for (out_ch, in_ch), sent in zip(
                (k.shape[:2] for k in params.kernels),
                np.add.reduceat(sizes, range(0, len(sizes), 2))):
            if (out_ch, in_ch) == (6, 6):
                assert sent < 0.1 * 64 * 33


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        arch = nn.Architecture(layers=3, width=4)
        params = nn.init_params(arch, 14)
        path = tmp_path / "net.ckpt"
        nn.save_params(path, params)
        arch2, params2 = nn.load_params(path)
        assert arch2 == arch
        np.testing.assert_array_equal(params2.flat, params.flat)
        assert [a.shape for a in params2.kernels + params2.biases] == \
            [a.shape for a in params.kernels + params.biases]

    def test_byte_stable(self, tmp_path):
        arch = nn.Architecture(layers=2, width=3)
        params = nn.init_params(arch, 15)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        nn.save_params(p1, params)
        nn.save_params(p2, params)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_truncated_and_overlong(self, tmp_path):
        arch = nn.Architecture(layers=2, width=2)
        src = tmp_path / "net.ckpt"
        nn.save_params(src, nn.init_params(arch, 16))
        data = src.read_bytes()
        path = tmp_path / "cut.ckpt"
        for size in range(len(data)):
            path.write_bytes(data[:size])
            with pytest.raises(ValueError):
                nn.load_params(path)
        path.write_bytes(data + b"\0")
        with pytest.raises(ValueError, match="trailing"):
            nn.load_params(path)

    def test_rejects_header_that_misdescribes_layers(self, tmp_path):
        arch = nn.Architecture(layers=2, width=2)
        src = tmp_path / "net.ckpt"
        nn.save_params(src, nn.init_params(arch, 17))
        data = src.read_bytes()
        head = len(nn._CKPT_MAGIC)
        blen_at = head + 8 + 16 + 8 * 2 * 1 * 9  # layer 0 bias count
        path = tmp_path / "patched.ckpt"
        # Architecture's own refusals name the file too
        for at, value, match in ((head + 4, 5, "kernel shape"),
                                 (head, 10**6, "kernel shape"),
                                 (blen_at, 3, "biases"),
                                 (head, 1, "patched.ckpt: need at least 2"),
                                 (head + 4, -1, "patched.ckpt: width must")):
            patched = bytearray(data)
            patched[at:at + 4] = struct.pack("<i", value)
            path.write_bytes(bytes(patched))
            with pytest.raises(ValueError, match=match):
                nn.load_params(path)

    def test_rejects_non_finite_parameters(self, tmp_path):
        arch = nn.Architecture(layers=2, width=2)
        params = nn.init_params(arch, 18)
        src = tmp_path / "net.ckpt"
        nn.save_params(src, params)
        data = src.read_bytes()
        kernel_at = len(nn._CKPT_MAGIC) + 8 + 16  # layer 0, first tap
        bias_at = kernel_at + 8 * 2 * 1 * 9 + 4   # layer 0, first bias
        path = tmp_path / "patched.ckpt"
        for at, value in ((kernel_at, np.nan), (bias_at, np.inf),
                          (len(data) - 8, -np.inf)):  # last bias
            patched = bytearray(data)
            patched[at:at + 8] = struct.pack("<d", value)
            path.write_bytes(bytes(patched))
            with pytest.raises(ValueError, match="patched.ckpt: non-finite"):
                nn.load_params(path)

        # a NaN written through a kernel or a bias view of a copy
        out = tmp_path / "bad.ckpt"
        for view in (lambda p: p.kernels[1][0, 0, 1], lambda p: p.biases[-1]):
            bad = params.copy()
            view(bad)[0] = np.nan
            with pytest.raises(ValueError, match="non-finite"):
                nn.save_params(out, bad)
            assert not out.exists()
        assert np.all(np.isfinite(params.flat))

    @pytest.mark.parametrize("layers, bad", [(3, 2), (7, 4), (5, 4)])
    def test_save_rejects_params_of_another_architecture(self, tmp_path,
                                                         layers, bad):
        # params that no Architecture describes, which load_params would
        # reject: the first layers of the default stack, ending on a
        # 6-channel layer; a 4-channel layer inside a 6-channel stack; and
        # a bias of the wrong length
        params = nn.init_params(nn.Architecture(layers=layers), 19)
        kernels, biases = list(params.kernels), list(params.biases)
        if layers == 3:
            full = nn.init_params(nn.Architecture(), 19)
            kernels, biases = full.kernels[:3], full.biases[:3]
        elif layers == 7:
            kernels[bad] = np.zeros((4, 6, 3, 3))
        else:
            biases[bad] = np.zeros(2)
        params = nn.NetParams(kernels, biases)
        path = tmp_path / "net.ckpt"
        with pytest.raises(ValueError, match=f"layer {bad} "):
            nn.save_params(path, params)
        assert not path.exists()

    @pytest.mark.parametrize("case", ["one-layer", "no-channels",
                                      "a-bias-too-many"])
    def test_save_rejects_params_of_no_stack(self, tmp_path, case):
        full = nn.init_params(nn.Architecture(), 19)
        params = {
            "one-layer": lambda: nn.NetParams(full.kernels[:1],
                                              full.biases[:1]),
            "no-channels": lambda: nn.NetParams(
                (np.zeros((0, 1, 3, 3)), np.zeros((1, 0, 3, 3))),
                (np.zeros(0), np.zeros(1))),
            "a-bias-too-many": lambda: nn.NetParams(full.kernels[:4],
                                                    full.biases),
        }[case]()
        path = tmp_path / "net.ckpt"
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            nn.save_params(path, params)
        assert not path.exists()

    def test_rejects_header_that_declares_more_than_the_file(self,
                                                             tmp_path):
        # width 2**31 - 1 declares a first kernel of about 155 GB: the
        # read is refused before any buffer is allocated
        src = tmp_path / "net.ckpt"
        nn.save_params(src, nn.init_params(nn.Architecture(2, 2), 20))
        patched = bytearray(src.read_bytes())
        head = len(nn._CKPT_MAGIC)
        width = 2**31 - 1
        patched[head + 4:head + 12] = struct.pack("<ii", width, width)
        path = tmp_path / "huge.ckpt"
        path.write_bytes(bytes(patched))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="huge.ckpt: truncated"):
                nn.load_params(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b"something else entirely")
        with pytest.raises(ValueError):
            nn.load_params(path)
