"""From-scratch CNN: convolution, initialization, forward/backward, Adam,
gradient checking, Lipschitz bound and checkpoint round trips."""

import struct

import numpy as np
import pytest

from nsrecon import nn
from nsrecon.nullspace import mask_projector
from oracles import (backward_reference, conv, conv_reference, grad_check,
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
        for ka, kb in zip(a.kernels, b.kernels):
            np.testing.assert_array_equal(ka, kb)

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

    @pytest.mark.parametrize("model", ["resnet", "dcnet"])
    def test_stack_equals_single_forwards(self, model):
        support = small_stripe_support()
        proj = mask_projector(support) if model == "dcnet" else None
        params = nn.init_params(nn.Architecture(layers=4, width=3), 7)
        x = np.random.default_rng(7).standard_normal((5, 8, 8))
        out, _ = nn.forward(params, x, proj)
        assert out.shape == x.shape
        for i in range(5):
            np.testing.assert_array_equal(out[i],
                                          nn.forward(params, x[i], proj)[0])

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
        _, cache = nn.forward(params, x)
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
        _, cache = nn.forward(params, x)
        grads, grad_in = nn.backward(params, cache, np.zeros((6, 6)))
        assert np.max(np.abs(grad_in)) == 0.0
        for g in grads.kernels + grads.biases:
            assert np.max(np.abs(g)) == 0.0

    def test_zero_weights_pass_through(self):
        arch = nn.Architecture(layers=3, width=2)
        params = nn.init_params(arch, 7).scaled(0.0)
        x = np.random.default_rng(7).standard_normal((6, 6))
        _, cache = nn.forward(params, x)
        g = np.random.default_rng(8).standard_normal((6, 6))
        _, grad_in = nn.backward(params, cache, g)
        np.testing.assert_array_equal(grad_in, g)

    def test_input_gradient_is_dense_transpose(self):
        rng = np.random.default_rng(16)
        k = rng.standard_normal((1, 1, 3, 3))
        params = nn.NetParams([k], [rng.standard_normal(1)])
        x = rng.standard_normal((5, 7))
        g = rng.standard_normal((5, 7))
        _, cache = nn.forward(params, x)
        _, grad_in = nn.backward(params, cache, g)
        np.testing.assert_allclose((grad_in - g).ravel(),
                                   dense_conv(k, 5, 7).T @ g.ravel(),
                                   atol=1e-13)

    def test_shape_validation(self):
        arch = nn.Architecture(layers=2, width=2)
        params = nn.init_params(arch, 9)
        _, cache = nn.forward(params, np.zeros((6, 6)))
        with pytest.raises(ValueError):
            nn.backward(params, cache, np.zeros((4, 4)))

    @pytest.mark.parametrize("layers", [2, 3, 5])
    def test_two_row_shift_builds_per_layer(self, monkeypatch, layers):
        # forward builds each layer input's row matrix, backward reuses it
        # and builds one per layer for the input gradient
        calls = []
        row_shifts = nn._row_shifts

        def counted(x):
            calls.append(x.shape)
            return row_shifts(x)

        monkeypatch.setattr(nn, "_row_shifts", counted)
        params = nn.init_params(nn.Architecture(layers=layers, width=3), 4)
        x = np.random.default_rng(4).standard_normal((6, 5))
        out, cache = nn.forward(params, x)
        nn.backward(params, cache, out - x)
        assert len(calls) == 2 * layers

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
        _, cache = nn.forward(params, x, projector)
        grads, grad_in = nn.backward(params, cache, g)
        ref_k, ref_b, ref_in = backward_reference(params, x, g, projector)
        for got, want in zip(grads.kernels + grads.biases, ref_k + ref_b):
            assert np.array_equal(got, want)
        assert np.array_equal(grad_in, ref_in)


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

    def test_eps_validated(self):
        with pytest.raises(ValueError):
            grad_check(nn.Architecture(layers=2, width=2), eps=0.0)


class TestAdam:
    def test_zero_grads_no_motion(self):
        params = nn.init_params(nn.Architecture(layers=2, width=2), 10)
        zeros = zero_grads(params)
        state = nn.init_adam(params)
        new_p, _ = nn.adam_step(params, zeros, state)
        for a, b in zip(params.kernels, new_p.kernels):
            np.testing.assert_array_equal(a, b)

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
            out, cache = nn.forward(params, x)
            r = out - t
            losses.append(float(np.sum(r * r)))
            grads, _ = nn.backward(params, cache, 2.0 * r)
            params, state = nn.adam_step(params, grads, state)
        assert losses[-1] < losses[0]


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


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        arch = nn.Architecture(layers=3, width=4)
        params = nn.init_params(arch, 14)
        path = tmp_path / "net.ckpt"
        nn.save_params(path, arch, params)
        arch2, params2 = nn.load_params(path)
        assert arch2 == arch
        for a, b in zip(params.kernels + params.biases,
                        params2.kernels + params2.biases):
            np.testing.assert_array_equal(a, b)

    def test_byte_stable(self, tmp_path):
        arch = nn.Architecture(layers=2, width=3)
        params = nn.init_params(arch, 15)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        nn.save_params(p1, arch, params)
        nn.save_params(p2, arch, params)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_truncated_and_overlong(self, tmp_path):
        arch = nn.Architecture(layers=2, width=2)
        src = tmp_path / "net.ckpt"
        nn.save_params(src, arch, nn.init_params(arch, 16))
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
        nn.save_params(src, arch, nn.init_params(arch, 17))
        data = src.read_bytes()
        head = len(nn._CKPT_MAGIC)
        blen_at = head + 8 + 16 + 8 * 2 * 1 * 9  # layer 0 bias count
        path = tmp_path / "patched.ckpt"
        for at, value, match in ((head + 4, 5, "kernel shape"),
                                 (head, 10**6, "kernel shape"),
                                 (blen_at, 3, "biases")):
            patched = bytearray(data)
            patched[at:at + 4] = struct.pack("<i", value)
            path.write_bytes(bytes(patched))
            with pytest.raises(ValueError, match=match):
                nn.load_params(path)

    def test_rejects_non_finite_parameters(self, tmp_path):
        arch = nn.Architecture(layers=2, width=2)
        params = nn.init_params(arch, 18)
        src = tmp_path / "net.ckpt"
        nn.save_params(src, arch, params)
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

        bad = params.copy()
        bad.kernels[1][0, 0, 1, 1] = np.nan
        out = tmp_path / "bad.ckpt"
        with pytest.raises(ValueError, match="non-finite"):
            nn.save_params(out, arch, bad)
        assert not out.exists()

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b"something else entirely")
        with pytest.raises(ValueError):
            nn.load_params(path)
