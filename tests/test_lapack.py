"""radtaxis reaches LAPACK through `radtaxis._lapack` alone, and never
imports scipy.linalg, whose package import is most of the start-up."""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import scipy
import scipy.linalg.lapack

from radtaxis import _lapack

SRC = Path(__file__).resolve().parent.parent / "src"


def test_solvers_are_the_ones_scipy_exports():
    assert _lapack.dptsv is scipy.linalg.lapack.dptsv
    assert _lapack.dgtsv is scipy.linalg.lapack.dgtsv


def test_cli_import_leaves_scipy_linalg_unimported():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    script = "import sys, radtaxis.cli; print('scipy.linalg' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


def test_missing_extension_names_the_searched_directory(tmp_path, monkeypatch):
    monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
    with pytest.raises(ImportError, match=re.escape(str(tmp_path / "linalg"))):
        _lapack._load_flapack()
