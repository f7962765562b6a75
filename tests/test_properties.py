"""Property tests of the operators' adjoints, the pseudo-inverse and the
kernel projectors over random shapes and stripe problems, of CG on the normal
equations of a low-rank operator, of the benchmark problem's Tikhonov
reconstruction, and of the CNN's circular convolution, kernel gradient,
banded dcnet and exact layer norms."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from nsrecon import nn
from nsrecon.experiments import Problem
from nsrecon.linops import (adjoint_check, cg_regularized_normal, dense_op,
                            dense_svd, make_cumsum, pseudo_inverse_apply)
from nsrecon.nullspace import mask_projector, svd_projector
from oracles import (backward_reference, conv, conv_reference,
                     forward_reference, kernel_grad_reference,
                     layer_norm_reference)

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
    z = rng.standard_normal((k, n) if k else (n,))
    res = cg_regularized_normal(dense_op(a), z @ a.T @ a,
                                tol=1e-12, max_iters=10000)
    assert res.converged
    assert res.iters <= n
    want = z @ a.T @ np.linalg.pinv(a).T
    for got, col, z_col in zip(*(np.reshape(v, (-1, n))
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
    # the cache is built by hand because nn.forward feeds one channel: on
    # the whole circle, each layer input read on its context mod w
    a1 = np.maximum(z0, 0.0)
    ctx = (np.arange(w + 4) - 2) % w
    cache = {"rows": [nn._row_shifts(x[..., ctx]),
                      nn._row_shifts(a1[..., ctx[1:-1]])],
             "projector": None, "band": (ctx, ctx[2:-2]), "x_shape": (h, w)}
    g1 = rng.standard_normal((1, h, w))
    grads, _ = nn.backward(nn.NetParams([k0, k1], [b0, b1]), cache, g1[0])
    # the loss gradient at the first layer's output, by the adjoint's loop
    g0 = sum(k1[0, :, di, dj, None, None]
             * np.roll(g1, (di - 1, dj - 1), axis=(1, 2))
             for di in range(3) for dj in range(3)) * (z0 > 0)
    assert_close_1e13(grads.kernels[1], kernel_grad_reference(g1, a1))
    assert_close_1e13(grads.kernels[0], kernel_grad_reference(g0, x))


def smallest_arc(marked):
    """Length of the shortest run of consecutive columns, circularly, that
    holds every marked one, by trying each start."""
    w = len(marked)
    return min(m for start in range(w) for m in range(1, w + 1)
               if marked[(start + np.arange(m)) % w].sum() == marked.sum())


@settings(max_examples=60, deadline=None)
@given(h=st.integers(1, 12), w=st.integers(1, 40), layers=st.integers(2, 5),
       width=st.integers(1, 6), start=st.integers(0, 39),
       span=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_banded_dcnet_matches_full_width(h, w, layers, width, start, span,
                                         seed):
    # a mask whose zeros lie in `span` columns from `start`, circularly:
    # arcs that wrap past column 0, and arcs too wide for a band, which
    # take the whole circle.  The oracles run the whole circle and sum in
    # other orders, so they agree to rounding, not bit for bit
    rng = np.random.default_rng(seed)
    start, span = start % w, min(span, w)
    marked = np.zeros(w, dtype=bool)
    marked[(start + np.flatnonzero(rng.random(span) < 0.5)) % w] = True
    marked[[start, (start + span - 1) % w]] = True
    support = np.ones((h, w))
    for col in np.flatnonzero(marked):
        support[rng.random(h) < 0.5, col] = 0.0
        support[rng.integers(h), col] = 0.0
    proj = mask_projector(support)
    ctx, arc = nn._band(proj, w, layers)
    m = smallest_arc(marked)
    if m + 2 * layers <= w:
        assert len(ctx) == m + 2 * layers
        assert marked[arc].sum() == marked.sum()
    else:  # the whole circle
        np.testing.assert_array_equal(arc, np.arange(w))
    assert np.all((np.diff(ctx) - 1) % w == 0)  # consecutive, circularly
    np.testing.assert_array_equal(arc, ctx[layers:-layers])

    params = nn.init_params(nn.Architecture(layers=layers, width=width),
                            int(rng.integers(1000)))
    x, g = rng.standard_normal((2, h, w))
    out, cache = nn.forward(params, x, proj, {})
    want = forward_reference(params, x, proj)
    assert np.max(np.abs(out - want)) <= 1e-13 * np.max(np.abs(want))
    grads, _ = nn.backward(params, cache, g)
    ref = nn.NetParams(*backward_reference(params, x, g, proj))
    # relative to the whole parameter gradient: a bias gradient sums its
    # layer's output gradient and may cancel to far below its terms
    assert (np.max(np.abs(grads.flat - ref.flat))
            <= 1e-13 * np.max(np.abs(ref.flat)))


@PROPERTY
@given(chans=st.sampled_from([(6, 1), (6, 6), (1, 6), (2, 3)]),
       h=st.integers(1, 12), w=st.integers(1, 19),
       kind=st.sampled_from(["random", "delta", "zero"]),
       exponent=st.sampled_from([0, 100, -100, -160]),
       seed=st.integers(0, 2**32 - 1))
@example(chans=(6, 6), h=12, w=19, kind="random", exponent=-160, seed=0)
@example(chans=(2, 3), h=1, w=2, kind="delta", exponent=100, seed=0)
def test_pruned_layer_norm_is_exact(chans, h, w, kind, exponent, seed):
    # a delta kernel (one tap) gives every frequency the same Gram matrix,
    # up to rounding, so every Frobenius norm ties and every frequency must
    # be kept; at 1e+-100 the squares in a Frobenius norm would leave the
    # float range, and at 1e-160 the Gram entries would be subnormal (the
    # examples hold both scales in every run, derandomized ones included)
    rng = np.random.default_rng(seed)
    k = np.zeros(chans + (3, 3))
    if kind == "random":
        k = rng.standard_normal(k.shape)
    elif kind == "delta":
        k[:, :, rng.integers(3), rng.integers(3)] = rng.standard_normal(chans)
    k *= 10.0 ** exponent
    norm = nn.layer_operator_norms(nn.NetParams([k], [np.zeros(chans[0])]),
                                   (h, w))[0]
    want = layer_norm_reference(k, (h, w))
    assert abs(norm - want) <= 1e-13 * want
