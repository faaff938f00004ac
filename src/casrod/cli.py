"""Command-line harness: convergence studies and field dumps as CSV.

Two commands:

    casrod converge  one CSV row per (mesh, slenderness) with the relative L2
                     errors and reference-point displacement errors
    casrod fields    one CSV row per sample point of a solved configuration

The slenderness flag follows each problem's parameterization: the ring takes
EA (1e4/1e6/1e8 in the studies), the arch and the ellipse take the section
thickness t. The err_uxA/err_uyB columns hold the ring's point errors at A
and B; for the ellipse they hold the free-end u_x/u_y errors against the
virtual-work reference `ellipse_reference`; the arch leaves them empty (its
exact-field errors are in e_u/e_N/e_M).

Exit codes: 0 success, 1 usage error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

import numpy as np

from .benchmarks import (
    BenchmarkProblem,
    build_arch_half,
    build_ellipse_quarter,
    build_ring_quarter,
    ellipse_reference,
    solve_problem,
)
from .errors import DegenerateParametrizationError, SingularSystemError
from .formulations import ElementFormulation
from .metrics import (FIELD_COLUMNS, ConvergenceRecord, ErrorReport, l2_errors,
                      point_errors, sample_fields)

__all__ = ["RunConfig", "StudyError", "convergence_records", "run_convergence_study",
           "run_field_dump", "main", "CONVERGE_HEADER", "FIELDS_HEADER"]

CONVERGE_HEADER = ("problem,formulation,quad_points,n_elements,n_dof,"
                   "slenderness,e_u,e_N,e_M,err_uxA,err_uyB")
FIELDS_HEADER = ",".join(FIELD_COLUMNS)

# which point-error labels feed the err_uxA / err_uyB columns
_POINT_COLUMNS = {
    "ring": ("uxA", "uyB"),
    "arch": (None, None),
    "ellipse": ("ux_free", "uy_free"),
}

PROBLEMS = ("ring", "arch", "ellipse")

_NUMERICAL_ERRORS = (SingularSystemError, DegenerateParametrizationError,
                     np.linalg.LinAlgError)


class StudyError(Exception):
    """A mesh of a convergence study failed; the original error is `__cause__`.

    The message and the attributes name the failing mesh. Raised as a
    subclass of the original error's type too, where that type allows it, so
    callers catching the original type still catch it.
    """

    def __init__(self, message: str, problem: str, n_elements: int, slenderness: float):
        Exception.__init__(self, message)  # not the original type's constructor
        self.problem = problem
        self.n_elements = n_elements
        self.slenderness = slenderness


def _study_error(exc: Exception, problem: str, n_elements: int,
                 slenderness: float) -> StudyError:
    context = (f"{problem} at {n_elements} elements, slenderness {slenderness:g}: {exc}",
               problem, n_elements, slenderness)
    try:
        return type(type(exc).__name__, (StudyError, type(exc)), {})(*context)
    except TypeError:  # a type that cannot be subclassed or built this way
        return StudyError(*context)


@dataclass
class RunConfig:
    """One harness invocation (a converge study or a field dump)."""

    problem: str
    formulation: ElementFormulation
    slenderness: tuple[float, ...]
    start_elements: int = 2
    refinements: int = 7
    quad_points: int | None = None
    elements: int | None = None
    samples: int = 101
    out: str | None = None

    def __post_init__(self):
        if self.problem not in PROBLEMS:
            raise ValueError(f"unknown problem {self.problem!r}")
        if self.refinements < 0:
            raise ValueError("refinements must be >= 0")
        if self.start_elements < 1:
            raise ValueError("start_elements must be >= 1")
        if self.quad_points is not None and self.quad_points not in (2, 3):
            raise ValueError("quad_points must be 2 or 3")
        if not self.slenderness or not all(0 < s < np.inf for s in self.slenderness):
            raise ValueError("slenderness values must be positive and finite")


def _build(problem: str, n_elements: int, slenderness: float) -> BenchmarkProblem:
    if problem == "ring":
        return build_ring_quarter(n_elements, ea=slenderness)
    if problem == "arch":
        return build_arch_half(n_elements, t=slenderness)
    return build_ellipse_quarter(n_elements, t=slenderness, with_reference_checks=True)


def _fmt(value) -> str:
    if value is None:
        return ""
    return f"{value:.10e}"


def convergence_records(config: RunConfig) -> tuple[list[ConvergenceRecord], int]:
    """Solve the mesh sequence for every slenderness value of the config."""
    meshes = [config.start_elements * 2**k for k in range(config.refinements + 1)]
    records = []
    quad_points = None
    for slenderness in config.slenderness:
        for n_elements in meshes:
            try:
                problem = _build(config.problem, n_elements, slenderness)
                solution = solve_problem(problem, config.formulation,
                                         config.quad_points)
                if problem.has_exact_fields:
                    report = l2_errors(problem, solution)
                else:
                    report = ErrorReport(e_u=None, e_n=None, e_m=None,
                                         point_errors=point_errors(problem, solution))
            except Exception as exc:
                raise _study_error(exc, config.problem, n_elements, slenderness) from exc
            quad_points = solution.quad_points
            records.append(ConvergenceRecord(n_elements=n_elements,
                                             n_dof=solution.n_dof,
                                             slenderness=slenderness,
                                             report=report))
    return records, quad_points


def run_convergence_study(config: RunConfig) -> str:
    """Run the mesh sequence for every slenderness value; return CSV text."""
    records, quad_points = convergence_records(config)
    col_a, col_b = _POINT_COLUMNS[config.problem]
    lines = [CONVERGE_HEADER]
    for rec in records:
        lines.append(",".join([
            config.problem,
            config.formulation.value,
            str(quad_points),
            str(rec.n_elements),
            str(rec.n_dof),
            f"{rec.slenderness:g}",
            _fmt(rec.report.e_u),
            _fmt(rec.report.e_n),
            _fmt(rec.report.e_m),
            _fmt(rec.report.point_errors.get(col_a)),
            _fmt(rec.report.point_errors.get(col_b)),
        ]))
    return "\n".join(lines) + "\n"


def run_field_dump(config: RunConfig) -> str:
    """Sample all fields of one solved configuration; return CSV text."""
    if config.elements is None:
        raise ValueError("fields requires a fixed element count")
    if len(config.slenderness) != 1:
        raise ValueError("fields takes exactly one slenderness value")
    slenderness = config.slenderness[0]
    problem = _build(config.problem, config.elements, slenderness)
    solution = solve_problem(problem, config.formulation, config.quad_points)
    rows = sample_fields(problem, solution, config.samples)
    lines = [FIELDS_HEADER]
    for row in rows:
        lines.append(",".join("" if np.isnan(v) else f"{v:.10e}" for v in row))
    if config.problem == "ellipse":
        ref = ellipse_reference(slenderness)
        lines.append("# reference ux_free=%.10e uy_free=%.10e n_clamp_abs=%.10e "
                     "m_clamp_abs=%.10e" % (ref["ux_free"], ref["uy_free"],
                                            ref["n_clamp_abs"], ref["m_clamp_abs"]))
    return "\n".join(lines) + "\n"


class _Parser(argparse.ArgumentParser):
    """argparse parser that exits with code 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="casrod",
                     description="Curved Kirchhoff rod convergence harness")
    sub = parser.add_subparsers(dest="command", required=True)
    form_values = [f.value for f in ElementFormulation]

    conv = sub.add_parser("converge", help="run a mesh-refinement study",
                          description="One CSV row per (mesh, slenderness). "
                                      "Slenderness is EA for the ring and the "
                                      "thickness t for the arch/ellipse.")
    conv.add_argument("--problem", required=True, choices=PROBLEMS)
    conv.add_argument("--formulation", required=True, choices=form_values)
    conv.add_argument("--slenderness", required=True, action="append", type=float,
                      help="repeatable; ring: EA, arch/ellipse: thickness t")
    conv.add_argument("--start-elements", type=int, default=2)
    conv.add_argument("--refinements", type=int, default=7)
    conv.add_argument("--quad-points", type=int, choices=(2, 3), default=None)
    conv.add_argument("--out", default=None, help="CSV path (default: stdout)")

    flds = sub.add_parser("fields", help="dump sampled solution fields",
                          description="One CSV row per sample point of a "
                                      "single solved configuration.")
    flds.add_argument("--problem", required=True, choices=PROBLEMS)
    flds.add_argument("--formulation", required=True, choices=form_values)
    flds.add_argument("--slenderness", required=True, type=float)
    flds.add_argument("--elements", required=True, type=int)
    flds.add_argument("--samples", type=int, default=101)
    flds.add_argument("--quad-points", type=int, choices=(2, 3), default=None)
    flds.add_argument("--out", default=None, help="CSV path (default: stdout)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code or 0

    try:
        if args.command == "converge":
            config = RunConfig(problem=args.problem,
                               formulation=ElementFormulation(args.formulation),
                               slenderness=tuple(args.slenderness),
                               start_elements=args.start_elements,
                               refinements=args.refinements,
                               quad_points=args.quad_points,
                               out=args.out)
            text = run_convergence_study(config)
        else:
            config = RunConfig(problem=args.problem,
                               formulation=ElementFormulation(args.formulation),
                               slenderness=(args.slenderness,),
                               elements=args.elements,
                               samples=args.samples,
                               quad_points=args.quad_points,
                               out=args.out)
            text = run_field_dump(config)
    except Exception as exc:
        original = exc.__cause__ if isinstance(exc, StudyError) else exc
        if isinstance(original, _NUMERICAL_ERRORS):
            print(f"casrod: numerical failure: {exc}", file=sys.stderr)
            return 2
        if isinstance(original, ValueError):
            print(f"casrod: error: {exc}", file=sys.stderr)
            return 1
        raise

    if config.out is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(config.out, "w") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"casrod: error: cannot write {config.out}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
