"""Property tests of the operators' adjoints, the pseudo-inverse and the
kernel projectors over random shapes and stripe problems, of CG on the normal
equations of a low-rank operator, of the benchmark problem's Tikhonov
reconstruction, and of the CNN's circular convolution
and kernel gradient."""

import numpy as np
from hypothesis import given, settings, strategies as st

from nsrecon import nn
from nsrecon.experiments import Problem
from nsrecon.linops import (SolverConfig, adjoint_check, cg_regularized_normal,
                            dense_svd, pseudo_inverse_apply)
from nsrecon.nullspace import mask_projector, svd_projector
from nsrecon.operators import dense_op, make_cumsum
from oracles import conv, conv_reference, kernel_grad_reference

PROPERTY = settings(max_examples=25, deadline=None)
TOL = 1e-10


@st.composite
def low_rank(draw, s_max=10.0):
    """A matrix u diag(s) v.T of random shape (wide ones included) and rank,
    with well-separated nonzero singular values in [0.1, s_max]."""
    m = draw(st.integers(1, 12))
    n = draw(st.integers(1, 12))
    r = draw(st.integers(0, min(m, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u, _ = np.linalg.qr(rng.standard_normal((m, m)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = rng.uniform(0.1, s_max, r)
    return (u[:, :r] * s) @ v[:, :r].T, rng


spacings = st.floats(1e-3, 1e3)


@PROPERTY
@given(h=st.integers(1, 24), w=st.integers(1, 24), spacing=spacings,
       seed=st.integers(0, 2**32 - 1))
def test_cumsum_adjoint(h, w, spacing, seed):
    assert adjoint_check(make_cumsum(h, w, spacing), seed=seed) <= 1e-12


# 14 is the narrowest image the four removed stripes fit in
image_sizes = st.integers(14, 24)


@PROPERTY
@given(n=image_sizes, spacing=spacings, seed=st.integers(0, 2**32 - 1))
def test_stripe_operator_adjoint(n, spacing, seed):
    op = Problem(n, spacing, 0.01).op
    assert adjoint_check(op, seed=seed) <= 1e-12


@PROPERTY
@given(low_rank())
def test_dense_op_adjoint(case):
    a, rng = case
    seed = int(rng.integers(2**32))
    assert adjoint_check(dense_op(a), seed=seed) <= 1e-12


@PROPERTY
@given(low_rank().filter(lambda case: case[0].shape[0] != case[0].shape[1]))
def test_pseudo_inverse_moore_penrose_identities(case):
    a, _ = case
    svd = dense_svd(a)
    pinv = np.column_stack([pseudo_inverse_apply(svd, e)
                            for e in np.eye(a.shape[0])])
    assert pinv.shape == a.T.shape
    np.testing.assert_allclose(a @ pinv @ a, a, rtol=0, atol=TOL)
    np.testing.assert_allclose(pinv @ a @ pinv, pinv, rtol=0, atol=TOL)
    np.testing.assert_allclose(a @ pinv, (a @ pinv).T, rtol=0, atol=TOL)
    np.testing.assert_allclose(pinv @ a, (pinv @ a).T, rtol=0, atol=TOL)


@PROPERTY
@given(low_rank())
def test_svd_projector_is_kernel_projection(case):
    a, rng = case
    svd = dense_svd(a)
    proj = svd_projector(svd)
    z = rng.standard_normal(a.shape[1])
    w = rng.standard_normal(a.shape[1])
    p = proj(z)
    assert proj.shape == (a.shape[1],)
    assert np.max(np.abs(proj(p) - p)) <= TOL                    # idempotent
    assert abs(np.vdot(p, w) - np.vdot(z, proj(w))) <= TOL       # self-adjoint
    assert np.max(np.abs(a @ p)) <= TOL                          # A P = 0
    np.testing.assert_allclose(                                  # I - A+ A
        p, z - pseudo_inverse_apply(svd, a @ z), rtol=0, atol=TOL)


@PROPERTY
@given(low_rank(s_max=1.0), st.integers(0, 4))
def test_cg_returns_row_space_component_within_n_steps(case, k):
    # A*A x = A*A z has the minimal-norm solution A+ A z; k = 0
    # is one image z, k >= 1 a stack of k images solved as one block
    a, rng = case
    n = a.shape[1]
    z = rng.standard_normal((k, n, 1) if k else (n, 1))
    res = cg_regularized_normal(dense_op(a), a.T @ (a @ z),
                                SolverConfig(tol=1e-12))
    assert res.converged
    assert res.iters <= n
    want = np.linalg.pinv(a) @ (a @ z)
    for got, col, z_col in zip(*(np.reshape(v, (-1, n, 1))
                                 for v in (res.x, want, z))):
        assert np.linalg.norm(got - col) <= 1e-8 * np.linalg.norm(z_col)


@PROPERTY
@given(n=image_sizes, spacing=spacings, seed=st.integers(0, 2**32 - 1))
def test_mask_projector_is_kernel_projection(n, spacing, seed):
    problem = Problem(n, spacing, 0.01)
    op, proj = problem.op, mask_projector(problem.support)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, n))
    v = rng.standard_normal((n, n))
    p = proj(z)
    assert np.max(np.abs(proj(p) - p)) <= TOL
    assert abs(np.vdot(p, v) - np.vdot(z, proj(v))) <= TOL
    assert np.max(np.abs(op.apply(p))) <= TOL


@PROPERTY
@given(n=st.integers(14, 32), alpha=st.floats(1e-3, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_problem_reconstruct_solves_tikhonov_normal_equations(n, alpha, seed):
    problem = Problem.benchmark(image_size=n, alpha=alpha)
    y = np.random.default_rng(seed).standard_normal((n, n))
    x = problem.reconstruct(y)
    op = problem.op
    rhs = op.adjoint(y)
    lhs = op.adjoint(op.apply(x)) + alpha * x
    assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)


def assert_close_1e13(got, want):
    """Within 1e-13 of want's largest entry, or absolutely when that is
    below 1 (all zero when ReLU kills every unit)."""
    scale = max(np.max(np.abs(want)), 1.0)
    assert np.max(np.abs(got - want)) <= 1e-13 * scale


@PROPERTY
@given(in_ch=st.integers(1, 4), out_ch=st.integers(1, 4),
       h=st.integers(1, 12), w=st.integers(1, 12),
       seed=st.integers(0, 2**32 - 1))
def test_conv_and_kernel_gradient_match_loops(in_ch, out_ch, h, w, seed):
    # grids down to 1x1, narrower than the 3x3 stencil, so the wrap-around
    # reads the same pixel more than once
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((in_ch, h, w))
    k0 = rng.standard_normal((out_ch, in_ch, 3, 3))
    k1 = rng.standard_normal((1, out_ch, 3, 3))
    b0, b1 = rng.standard_normal(out_ch), rng.standard_normal(1)
    z0 = conv_reference(x, k0, b0)
    assert_close_1e13(conv(x, k0, b0), z0)

    # kernel gradients of the net in_ch -> out_ch -> 1 through nn.backward;
    # the cache is built by hand because nn.forward feeds one channel
    a1 = np.maximum(z0, 0.0)
    cache = {"rows": [nn._row_shifts(x), nn._row_shifts(a1)],
             "masks": [np.pad(z0 > 0, ((0, 0), (0, 0), (0, 2)))],
             "projector": None, "x_shape": (h, w)}
    g1 = rng.standard_normal((1, h, w))
    grads, _ = nn.backward(nn.NetParams([k0, k1], [b0, b1]), cache, g1[0])
    # the loss gradient at the first layer's output, by the adjoint's loop
    g0 = sum(k1[0, :, di, dj, None, None]
             * np.roll(g1, (di - 1, dj - 1), axis=(1, 2))
             for di in range(3) for dj in range(3)) * (z0 > 0)
    assert_close_1e13(grads.kernels[1], kernel_grad_reference(g1, a1))
    assert_close_1e13(grads.kernels[0], kernel_grad_reference(g0, x))
