"""The compiled BLAS and LAPACK routines the solver calls, bound without scipy.linalg.

The library calls dgbmv and dtbsv from BLAS and dpttrf, dpttrs, dgbtrf, dgbtrs
and dgetrf from LAPACK through this module; the dense reference's
InterpolationOperator.solve reaches dgetrs through scipy.linalg's lu_solve.
scipy.linalg ships these routines in its compiled f2py modules `_fblas` and
`_flapack`, and its `blas` and `lapack` modules re-export those very objects.
Importing `scipy.linalg` runs the package's init, which pulls in scipy's
array-API layer and about 300 modules the solver never calls: about half the
package's import time and over 20 MB of memory.  So this module
imports only top-level `scipy` and loads the two extension modules from beside
it, under their own names, with importlib's public extension loader.  The
routines are the same objects, so every result keeps its bits.

Should the files be missing or fail to load (another scipy layout), `blas` and
`lapack` fall back to `scipy.linalg.blas` and `scipy.linalg.lapack`, which
cost the package init and nothing else.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import scipy


def _load(name):
    """Module scipy.linalg.<name>, loaded from its extension file beside scipy."""
    full_name = f"scipy.linalg.{name}"
    if full_name in sys.modules:
        return sys.modules[full_name]
    directory = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(directory, name + suffix)
        if os.path.isfile(path):
            loader = importlib.machinery.ExtensionFileLoader(full_name, path)
            spec = importlib.util.spec_from_file_location(full_name, path, loader=loader)
            module = importlib.util.module_from_spec(spec)
            loader.exec_module(module)
            # a later `import scipy.linalg` finds this module and reuses its routines
            sys.modules[full_name] = module
            return module
    raise ImportError(f"no extension module {name} in {directory}")


try:
    blas = _load("_fblas")
    lapack = _load("_flapack")
except (ImportError, OSError):
    from scipy.linalg import blas, lapack
