"""Scaling limits of Jacobi matrices and Christoffel-Darboux kernels.

Computes the microscopic (1/n) scaling limit of a Jacobi matrix at a spectral
point through its discrete canonical system, and checks the equivalence of
that limit with sine-kernel asymptotics of the Christoffel-Darboux kernel.
"""

from .errors import (CoincidentArguments, ConditioningWarning, DetNotOne,
                     IndexOutOfRange, InvalidCoefficient, NotPSD,
                     WronskianViolation)
from .mat2 import Mat2, Vec2, inverse_unimodular, multiply, operator_norm
from .jacobi import (AlternatingSignModel, CoefficientModel, ConstantModel,
                     CustomModel, PeriodicModel, SpectrumSlice, TableModel,
                     gauss_quadrature, poly_table, scaled_zeros)
from .transfer import (DiscreteHSequence, QTrajectory, TransferState,
                       h_sequence, one_step, q_snapshots,
                       q_trajectory_direct, transfer_product)
from .cdkernel import (KernelGrid, kernel_cd, kernel_det_q, kernel_sum,
                       scaled_grid, sine_compare, sine_kernel)
from .canonical import (CanonicalSolution, CanonicalSystem,
                        ConstantHamiltonian, CoshSinhHamiltonian,
                        PiecewiseConstantHamiltonian, RSSequence,
                        discrete_to_jacobi, hb_kernel, hermite_biehler,
                        kernel_from_solutions, kernel_integral_form,
                        constant_solution_batch, rs_from_model, solve_ode)
from .limits import (BulkPointData, DiagnosticsReport, EquivalenceReport,
                     cesaro_limit, check_equivalence, diagnostics,
                     piecewise_estimate)
from .models import (alternating_model, free_bulk_data, free_model, lambda_pm,
                     limit_coefficient, limit_kernel_candidate, make_model,
                     modified_sine_kernel, qhat_closed)

__version__ = "0.1.0"
