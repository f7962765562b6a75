"""Tour of the forward operator and its null-space projector.

Builds the stripe-masked integration operator A = M K, inspects its
spectrum, and shows that the closed-form kernel projector (I - M) agrees
with the exact SVD projector and with the general iterative one computed
by conjugate gradients.
"""

import numpy as np

from nsrecon import (StripeMaskSpec, adjoint_check, iterative_projector,
                     make_stripe_operator, mask_projector, operator_svd,
                     svd_projector)


def main():
    n = 16
    spec = StripeMaskSpec(image_width=n)
    op, support = make_stripe_operator(n, n, spec)
    print(f"operator A = M K on {n}x{n} images")
    print(f"observed columns: {spec.kept_columns()}")
    print(f"adjoint defect:   {adjoint_check(op):.3e}")

    svd = operator_svd(op)
    print(f"operator norm:    {svd.s[0]:.4f}")
    print(f"rank {svd.rank} of {n * n}; kernel dimension {n * n - svd.rank}")
    print(f"largest singular values: {np.round(svd.s[:4], 4)}")

    # the kernel of a column mask composed with a per-column operator is
    # exactly the set of images supported on the unobserved columns
    closed = mask_projector(support)
    iterative = iterative_projector(op)
    rng = np.random.default_rng(0)
    z = rng.standard_normal((n, n))
    p = closed(z)
    print("\nnull-space projection of a random image")
    print(f"closed vs iterative: {np.linalg.norm(iterative(z) - p):.3e}")
    print(f"A applied to P z:    {np.max(np.abs(op.apply(p))):.3e}")
    print(f"idempotency defect:  {np.max(np.abs(closed(p) - p)):.3e}")

    # the SVD above gives the same projection exactly: z - V_r V_r^T z
    exact = svd_projector(svd)
    print(f"closed vs SVD:       {np.linalg.norm(exact(z) - p):.3e}")


if __name__ == "__main__":
    main()
