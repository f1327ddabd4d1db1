"""radtaxis reaches LAPACK through `radtaxis._lapack` alone, which loads the
extension without running scipy's package code (except on Windows)."""
import os
import re
import subprocess
import sys
from importlib.machinery import ModuleSpec
from pathlib import Path

import pytest
import scipy.linalg.lapack

from radtaxis import _lapack

SRC = Path(__file__).resolve().parent.parent / "src"


def run_python(script):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, check=True)
    return result.stdout.split()


def test_solvers_are_the_ones_scipy_exports():
    assert _lapack.dptsv is scipy.linalg.lapack.dptsv
    assert _lapack.dgtsv is scipy.linalg.lapack.dgtsv


def test_cli_import_leaves_scipy_linalg_unimported():
    script = "import sys, radtaxis.cli; print('scipy.linalg' in sys.modules)"
    assert run_python(script) == ["False"]


@pytest.mark.skipif(sys.platform == "win32", reason="on Windows scipy's __init__ sets up its DLLs")
def test_cli_import_runs_no_scipy_package_code():
    script = "import sys, radtaxis.cli; print('scipy' in sys.modules, 'scipy.linalg' in sys.modules)"
    assert run_python(script) == ["False", "False"]


def test_windows_imports_scipy_before_loading_the_extension():
    # Under a spoofed platform, sysconfig reads its variables only once, so
    # they are read first, as the real platform's.
    script = ("import sys, sysconfig; sysconfig.get_config_vars(); sys.platform = 'win32'\n"
              "from radtaxis import _lapack\n"
              "print('scipy' in sys.modules, callable(_lapack.dptsv), callable(_lapack.dgtsv))")
    assert run_python(script) == ["True", "True", "True"]


def test_missing_extension_names_the_searched_directory(tmp_path, monkeypatch):
    spec = ModuleSpec("scipy", None, is_package=True)
    spec.submodule_search_locations = [str(tmp_path)]
    monkeypatch.setattr(_lapack, "find_spec", lambda name: spec)
    with pytest.raises(ImportError, match=re.escape(str(tmp_path / "linalg"))):
        _lapack._load_flapack()
