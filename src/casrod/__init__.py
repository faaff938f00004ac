"""NURBS-based Galerkin analysis of linear plane curved Kirchhoff rods.

Quadratic NURBS discretizations of curved Kirchhoff rods lock in membrane-
dominated regimes; this package implements continuous-assumed-strain (CAS)
elements alongside five comparison formulations (full/reduced integration,
local and global B-bar, local ANS), plus benchmark problems with exact
solutions and a convergence-study CLI.
"""

from .assembly import (
    ConstrainedSystem,
    FixedDof,
    GlobalSystem,
    LoadSpec,
    RodSolution,
    TieDof,
    apply_constraints,
    assemble,
    clamped_end_constraints,
    solve,
    symmetry_end_constraints,
)
from .benchmarks import (
    BenchmarkProblem,
    SlendernessCase,
    build_arch_half,
    build_ellipse_quarter,
    build_ring_quarter,
    ellipse_reference,
    solve_problem,
    standard_slenderness_cases,
)
from .formulations import (
    ElementFormulation,
    PatchOperators,
)
from .metrics import (
    ErrorReport,
    convergence_rate,
    displacement_at,
    l2_errors,
    sample_fields,
)
from .quadrature import gauss_rule
from .rod import (
    ControlDisplacements,
    CrossSection,
)
from .splines import (
    KnotVector,
    NurbsCurve,
    evaluate_geometry,
    make_open_uniform_knot_vector,
)

__version__ = "0.1.0"
