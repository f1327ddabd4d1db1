"""LAPACK's two tridiagonal solvers, loaded without running scipy's package code.

radtaxis uses only `dptsv` (the signal solve) and `dgtsv` (the implicit
transport step). Both live in scipy's f2py extension `scipy.linalg._flapack`.
`from scipy.linalg.lapack import ...` would first run the whole scipy.linalg
package import, which brings in scipy's array-API layer, numpy.f2py,
numpy.testing and numpy.ma, and is most of the command line's start-up. Even
`import scipy` runs some 20 further modules (a test helper, a Cython runtime,
`subprocess`, `sysconfig`, `locale`). The extension needs none of that, so
scipy's directory is found with `find_spec`, which runs no scipy code, and
the extension is loaded from its file in `linalg`. The functions are the
objects scipy.linalg.lapack exports, so results do not depend on which path
reached them.

On Windows scipy is imported first: there its `__init__` puts the OpenBLAS
that the wheel bundles on the DLL search path, and the extension needs it.

This is the only module that names the extension.
"""
import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import find_spec, module_from_spec


def _scipy_directory() -> str:
    if sys.platform == "win32":
        import scipy  # noqa: F401  (sets up the DLL search path)
    spec = find_spec("scipy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    return spec.submodule_search_locations[0]


def _load_flapack():
    directory = os.path.join(_scipy_directory(), "linalg")
    spec = FileFinder(directory, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(
        "scipy.linalg._flapack")
    if spec is None:
        raise ImportError(f"scipy's _flapack extension not found in {directory}")
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
dptsv = _flapack.dptsv
dgtsv = _flapack.dgtsv
