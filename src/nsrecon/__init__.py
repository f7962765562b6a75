"""Data-consistent learned reconstruction for linear inverse problems.

Classical spectral regularization (Tikhonov, TSVD, Landweber filters,
pseudo-inverses, null-space projectors) plus a small from-scratch residual
CNN whose correction is confined to the null space of the forward operator,
so the learned reconstruction keeps the measurement residual of its
classical initialization exactly.
"""

from .linops import (CgResult, MatvecOp, SvdFactors, adjoint_check,
                     cg_regularized_normal, dense_op, dense_svd, make_cumsum,
                     operator_svd, pseudo_inverse_apply, to_dense)
from .regularize import (FILTER_QUALIFICATION, FilterSpec, SourceCondition,
                         filter_value, param_choice, spectral_reconstruct)
from .nullspace import (NullProjector, iterative_projector, mask_projector,
                        project_null, svd_projector)
from .metrics import mse, psnr, ssim
from .data import Sample, export_dataset, make_dataset, write_pgm16
from .experiments import (ConvergenceReport, EvalConfig, EvalReport, Problem,
                          TrainConfig, convergence_study, dc_audit, evaluate,
                          fit_loglog_slope, make_rate_operator,
                          nsn_convergence_study, train)

__version__ = "0.1.0"
