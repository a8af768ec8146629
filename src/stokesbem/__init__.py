"""Transient Stokes flow by time-domain boundary integral equations.

The package discretizes the single-layer ansatz for the transient
Stokes (time-dependent Brinkman) problem: space by a boundary element
method on closed curves, time by multistep convolution quadrature.
Modules build on each other in four layers:

* :mod:`stokesbem.laplace_kernels` evaluates the frequency-domain
  fundamental solutions,
* :mod:`stokesbem.boundary_geometry` and :mod:`stokesbem.bem_space`
  mesh the boundary and assemble the discrete operators,
* :mod:`stokesbem.cq_engine` turns frequency-domain transfer callbacks
  into discrete time convolutions,
* :mod:`stokesbem.stokes_solver` and :mod:`stokesbem.verification` run
  transient simulations, evaluate fields, and check convergence and
  operator properties; :mod:`stokesbem.cli` drives it all from config
  files.
"""

from .laplace_kernels import (
    ComplexFrequency,
    ProblemConfig,
    pressure_kernel,
    principal_sqrt,
    scalar_A,
    scalar_B,
    velocity_kernel,
)
from .boundary_geometry import (
    BoundaryCurve,
    BoundaryMesh,
    build_mesh,
)
from .bem_space import (
    ConstraintMode,
    DensitySpace,
    assemble_galerkin_V,
    assemble_nystrom_V,
    build_space,
    constrain,
    data_functional,
    factor,
    potential_pressure_matrix,
    potential_velocity_matrix,
)
from .cq_engine import (
    CQScheme,
    WeightSequence,
    bdf_delta,
    cq_march,
    cq_postprocess,
    cq_weights,
)
from .stokes_solver import (
    MASK_SENTINEL,
    DirichletData,
    FieldSnapshot,
    GridSpec,
    SimulationResult,
    exact_solution,
    field_snapshot,
    inside_obstacle,
    manufactured_dirichlet_data,
    run_simulation,
)
from .verification import (
    ConvergenceRecord,
    PropertyCheck,
    PropertyReport,
    SweepProblem,
    convergence_sweep,
    cq_order_report,
    default_frequencies,
    laplace_property_suite,
    time_convolution_oracle,
)

__version__ = "1.0.0"

__all__ = [
    "BoundaryCurve",
    "BoundaryMesh",
    "CQScheme",
    "ComplexFrequency",
    "ConstraintMode",
    "ConvergenceRecord",
    "DensitySpace",
    "DirichletData",
    "FieldSnapshot",
    "GridSpec",
    "MASK_SENTINEL",
    "ProblemConfig",
    "PropertyCheck",
    "PropertyReport",
    "SimulationResult",
    "SweepProblem",
    "WeightSequence",
    "assemble_galerkin_V",
    "assemble_nystrom_V",
    "bdf_delta",
    "build_mesh",
    "build_space",
    "constrain",
    "convergence_sweep",
    "cq_march",
    "cq_order_report",
    "cq_postprocess",
    "cq_weights",
    "data_functional",
    "default_frequencies",
    "exact_solution",
    "factor",
    "field_snapshot",
    "inside_obstacle",
    "laplace_property_suite",
    "manufactured_dirichlet_data",
    "potential_pressure_matrix",
    "potential_velocity_matrix",
    "pressure_kernel",
    "principal_sqrt",
    "run_simulation",
    "scalar_A",
    "scalar_B",
    "time_convolution_oracle",
    "velocity_kernel",
]
