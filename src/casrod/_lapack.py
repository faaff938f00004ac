"""The five LAPACK and BLAS routines casrod calls, without `scipy.linalg`.

They are scipy's own f2py wrappers, taken from its compiled extensions
`scipy.linalg._flapack` and `scipy.linalg._fblas`. Importing the
`scipy.linalg` package to reach them costs about 0.3 s (it pulls in
numpy.f2py, numpy.testing and scipy's array-API layer), several times a
whole convergence study. CPython keeps one copy of a single-phase extension's
contents per file and name, so these are the very objects that
`scipy.linalg.lapack` and `scipy.linalg.blas` expose.
"""

from __future__ import annotations

import importlib.util
import sys
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

# scipy's own __init__ is lazy (about 20 ms) and is where a distribution sets
# up its BLAS and LAPACK libraries (scipy/_distributor_init.py), so it runs
import scipy

__all__ = ["daxpy", "dpbsv", "dpttrf", "dpttrs", "dsbmv"]


def _extension(name: str):
    """The compiled module scipy.linalg.<name>, loaded from its file."""
    fullname = f"scipy.linalg.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    linalg = Path(scipy.__path__[0], "linalg")
    for suffix in EXTENSION_SUFFIXES:
        path = linalg / (name + suffix)
        if path.is_file():
            spec = importlib.util.spec_from_file_location(fullname, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            # CPython registers it; leave that to scipy.linalg's own import,
            # which also makes it an attribute of the package
            sys.modules.pop(fullname, None)
            return module
    raise ImportError(f"no compiled extension {linalg / name}{{{','.join(EXTENSION_SUFFIXES)}}}",
                      name=fullname, path=str(linalg / name))


_flapack = _extension("_flapack")
_fblas = _extension("_fblas")
dpbsv, dpttrf, dpttrs = _flapack.dpbsv, _flapack.dpttrf, _flapack.dpttrs
daxpy, dsbmv = _fblas.daxpy, _fblas.dsbmv
