"""casrod reaches its LAPACK and BLAS routines without importing scipy.linalg."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import casrod
from casrod import _lapack

ROUTINES = {"dpbsv": "lapack", "dpttrf": "lapack", "dpttrs": "lapack",
            "daxpy": "blas", "dsbmv": "blas"}


def test_import_and_solve_leave_scipy_linalg_unimported():
    # and a later import of scipy.linalg still finds its extensions as attributes
    code = ("import sys\n"
            "from casrod import ElementFormulation, build_ring_quarter, solve_problem\n"
            "solve_problem(build_ring_quarter(8, 1e6), ElementFormulation.CAS)\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.linalg')))\n"
            "import scipy.linalg\n"
            "from casrod import _lapack\n"
            "print(scipy.linalg._flapack.dpbsv is _lapack.dpbsv,"
            " scipy.linalg._fblas.dsbmv is _lapack.dsbmv)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(casrod.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines() == ["[]", "True True"]


@pytest.mark.parametrize("name", sorted(ROUTINES))
def test_routine_is_the_public_scipy_object(name):
    import scipy.linalg.blas
    import scipy.linalg.lapack

    public = {"lapack": scipy.linalg.lapack, "blas": scipy.linalg.blas}[ROUTINES[name]]
    assert getattr(_lapack, name) is getattr(public, name)


def test_an_imported_extension_is_reused():
    import scipy.linalg.lapack  # noqa: F401  (registers scipy.linalg._flapack)

    registered = sys.modules["scipy.linalg._flapack"]
    assert _lapack._extension("_flapack") is registered
    assert sys.modules["scipy.linalg._flapack"] is registered


def test_missing_extension_names_its_path():
    with pytest.raises(ImportError, match=r"linalg[/\\]_no_such_extension\{") as info:
        _lapack._extension("_no_such_extension")
    assert info.value.name == "scipy.linalg._no_such_extension"
