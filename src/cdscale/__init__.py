"""Scaling limits of Jacobi matrices and Christoffel-Darboux kernels.

Computes the microscopic (1/n) scaling limit of a Jacobi matrix at a spectral
point through its discrete canonical system, and checks the equivalence of
that limit with sine-kernel asymptotics of the Christoffel-Darboux kernel.
"""

from .errors import (CoincidentArguments, ConditioningWarning, DetNotOne,
                     IndexOutOfRange, InvalidCoefficient, NotPSD,
                     WronskianViolation)
from .mat2 import Mat2, inverse_unimodular, multiply, operator_norm
from .jacobi import (AlternatingSignModel, CoefficientModel, ConstantModel,
                     PeriodicModel, SpectrumSlice, TableModel, gauss_quadrature,
                     poly_table, scaled_zeros)
from .transfer import (DiscreteHSequence, discrete_to_jacobi, h_sequence,
                       one_step, polys_from_h, q_snapshots,
                       q_trajectory_direct, transfer_matrices,
                       transfer_product)
from .cdkernel import (KernelGrid, kernel_cd, kernel_det_q, kernel_sum,
                       scaled_grid, sine_compare, sine_kernel)
from .canonical import (CanonicalSystem, ConstantHamiltonian,
                        CoshSinhHamiltonian, PiecewiseConstantHamiltonian,
                        constant_solution_batch, kernel_grid, solve_ode_batch)
from .limits import (BulkPointData, DiagnosticsReport, check_equivalence,
                     diagnostics, piecewise_estimate)
from .models import (alternating_model, free_bulk_data, free_model, lambda_pm,
                     make_model, modified_sine_kernel, qhat_closed)

__version__ = "0.1.0"
