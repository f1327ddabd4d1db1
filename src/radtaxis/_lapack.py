"""LAPACK's two tridiagonal solvers, loaded without importing scipy.linalg.

radtaxis uses only `dptsv` (the signal solve) and `dgtsv` (the implicit
transport step). Both live in scipy's f2py extension `scipy.linalg._flapack`.
`from scipy.linalg.lapack import ...` would first run the whole scipy.linalg
package import, which brings in scipy's array-API layer, numpy.f2py,
numpy.testing and numpy.ma, and is most of the command line's start-up. The
extension needs none of that, so it is loaded here from its file in scipy's
`linalg` directory. The functions are the objects scipy.linalg.lapack
exports, so results do not depend on which path reached them.

This is the only module that names the extension.
"""
import os
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec

import scipy


def _load_flapack():
    directory = os.path.join(scipy.__path__[0], "linalg")
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
