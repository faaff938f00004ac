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
exact-field errors are in e_u/e_N/e_M). Each row is one `l2_errors` report;
a missing value (no exact field, no point error, a NaN sample) is an empty
cell.

A mesh that fails to build or solve raises StudyError, whose message names
the problem, the element count and the slenderness, with the original error
as `__cause__`. Exit codes, by the original error's type: 0 success, 1 usage
error (a mesh too large to allocate included), 2 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

import numpy as np

from .benchmarks import (
    build_arch_half,
    build_ellipse_quarter,
    build_ring_quarter,
    ellipse_reference,
    solve_problem,
)
from .errors import DegenerateParametrizationError, SingularSystemError
from .formulations import ElementFormulation
from .metrics import FIELD_COLUMNS, l2_errors, sample_fields

__all__ = ["RunConfig", "StudyError", "run_convergence_study", "run_field_dump", "main",
           "CONVERGE_HEADER", "FIELDS_HEADER"]

CONVERGE_HEADER = ("problem,formulation,quad_points,n_elements,n_dof,"
                   "slenderness,e_u,e_N,e_M,err_uxA,err_uyB")
FIELDS_HEADER = ",".join(FIELD_COLUMNS)

# each problem's builder (n_elements, slenderness) and the point-error labels
# that feed the err_uxA / err_uyB columns
_PROBLEMS = {
    "ring": (lambda n, s: build_ring_quarter(n, ea=s), ("uxA", "uyB")),
    "arch": (lambda n, s: build_arch_half(n, t=s), (None, None)),
    "ellipse": (lambda n, s: build_ellipse_quarter(n, t=s, with_reference_checks=True),
                ("ux_free", "uy_free")),
}

PROBLEMS = tuple(_PROBLEMS)

_NUMERICAL_ERRORS = (SingularSystemError, DegenerateParametrizationError)


class StudyError(Exception):
    """A mesh of a study failed: the message and the attributes name it, and
    the original error is `__cause__`."""

    def __init__(self, message: str, problem: str, n_elements: int, slenderness: float):
        super().__init__(message)
        self.problem = problem
        self.n_elements = n_elements
        self.slenderness = slenderness


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
        if self.samples < 2:  # the text of sample_fields' own check
            raise ValueError("n_samples must be at least 2")
        if not self.slenderness or not all(0 < s < np.inf for s in self.slenderness):
            raise ValueError("slenderness values must be positive and finite")


def _fmt(value) -> str:
    return "" if value is None or np.isnan(value) else f"{value:.10e}"


def _solve(config: RunConfig, n_elements: int, slenderness: float):
    """Build and solve one mesh of the config; return (problem, solution).
    Any error is raised again as a StudyError that names the mesh."""
    try:
        problem = _PROBLEMS[config.problem][0](n_elements, slenderness)
        return problem, solve_problem(problem, config.formulation, config.quad_points)
    except Exception as exc:
        raise StudyError(f"{config.problem} at {n_elements} elements, "
                         f"slenderness {slenderness:g}: {exc}",
                         config.problem, n_elements, slenderness) from exc


def run_convergence_study(config: RunConfig) -> str:
    """Run the mesh sequence for every slenderness value; return CSV text."""
    col_a, col_b = _PROBLEMS[config.problem][1]
    lines = [CONVERGE_HEADER]
    for slenderness in config.slenderness:
        for k in range(config.refinements + 1):
            n_elements = config.start_elements * 2**k
            problem, solution = _solve(config, n_elements, slenderness)
            r = l2_errors(problem, solution)
            errors = (r.e_u, r.e_n, r.e_m, r.point_errors.get(col_a), r.point_errors.get(col_b))
            lines.append(",".join([config.problem, config.formulation.value,
                                   str(solution.quad_points), str(n_elements),
                                   str(solution.n_dof), f"{slenderness:g}",
                                   *map(_fmt, errors)]))
    return "\n".join(lines) + "\n"


def run_field_dump(config: RunConfig) -> str:
    """Sample all fields of one solved configuration; return CSV text."""
    if config.elements is None:
        raise ValueError("fields requires a fixed element count")
    if len(config.slenderness) != 1:
        raise ValueError("fields takes exactly one slenderness value")
    slenderness = config.slenderness[0]
    problem, solution = _solve(config, config.elements, slenderness)
    rows = sample_fields(problem, solution, config.samples)
    lines = [FIELDS_HEADER]
    for row in rows:
        lines.append(",".join(map(_fmt, row)))
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
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--problem", required=True, choices=PROBLEMS)
    shared.add_argument("--formulation", required=True,
                        choices=[f.value for f in ElementFormulation])
    shared.add_argument("--slenderness", required=True, action="append", type=float,
                        help="ring: EA, arch/ellipse: thickness t; repeatable for converge")
    shared.add_argument("--quad-points", type=int, choices=(2, 3), default=None)
    shared.add_argument("--out", default=None, help="CSV path (default: stdout)")
    sub = parser.add_subparsers(dest="command", required=True)

    conv = sub.add_parser("converge", parents=[shared], help="run a mesh-refinement study",
                          description="One CSV row per (mesh, slenderness). "
                                      "Slenderness is EA for the ring and the "
                                      "thickness t for the arch/ellipse.")
    conv.add_argument("--start-elements", type=int, default=2)
    conv.add_argument("--refinements", type=int, default=7)

    flds = sub.add_parser("fields", parents=[shared], help="dump sampled solution fields",
                          description="One CSV row per sample point of a "
                                      "single solved configuration.")
    flds.add_argument("--elements", required=True, type=int)
    flds.add_argument("--samples", type=int, default=101)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = vars(parser.parse_args(argv))
    except SystemExit as exc:
        return exc.code or 0

    run = run_convergence_study if args.pop("command") == "converge" else run_field_dump
    args.update(formulation=ElementFormulation(args["formulation"]),
                slenderness=tuple(args["slenderness"]))
    try:
        config = RunConfig(**args)
        text = run(config)
    except Exception as exc:
        original = exc.__cause__ if isinstance(exc, StudyError) else exc
        if isinstance(original, _NUMERICAL_ERRORS):
            print(f"casrod: numerical failure: {exc}", file=sys.stderr)
            return 2
        if isinstance(original, (ValueError, MemoryError)):  # bad or too large a request
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
