"""Loop oracles shared by the test modules."""

import numpy as np


def conv_reference(x, kernel, bias):
    """Direct six-loop circular convolution for oracle comparison."""
    out_ch, in_ch = kernel.shape[:2]
    h, w = x.shape[1:]
    out = np.zeros((out_ch, h, w))
    for o in range(out_ch):
        for c in range(in_ch):
            for i in range(h):
                for j in range(w):
                    acc = 0.0
                    for di in range(3):
                        for dj in range(3):
                            acc += kernel[o, c, di, dj] * \
                                x[c, (i + di - 1) % h, (j + dj - 1) % w]
                    out[o, i, j] += acc
        out[o] += bias[o]
    return out


def kernel_grad_reference(g, x):
    """Kernel gradient of a 3x3 circular convolution of x (in_ch, h, w)
    whose output receives the loss gradient g (out_ch, h, w):
    sum_ij g[o,i,j] x[c,(i+di-1)%h,(j+dj-1)%w], by explicit indices."""
    h, w = x.shape[1:]
    out = np.zeros((g.shape[0], x.shape[0], 3, 3))
    for di in range(3):
        for dj in range(3):
            rows = (np.arange(h)[:, None] + di - 1) % h
            cols = (np.arange(w)[None, :] + dj - 1) % w
            out[:, :, di, dj] = np.einsum("oij,cij->oc", g, x[:, rows, cols])
    return out
