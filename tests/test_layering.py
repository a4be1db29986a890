"""Module layering: the computation does not depend on the rendering.

Figures and the bundle file are written by fairlens.report, which reads
bundle records. The modules that compute those records must not import
it, so the numbers can be produced, tested and re-analysed without the
rendering layer.

Nor does the CLI load modules it never runs: a fresh interpreter that
imports fairlens.cli must not have the network, XML or multiprocessing
modules in sys.modules.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fairlens

PACKAGE = Path(fairlens.__file__).resolve().parent
COMPUTATION = ("pipeline", "fairmatrix", "cluster", "pca", "robustness",
               "metrics")


def imported_modules(path: Path) -> set[str]:
    """Absolute names of every module that path, a module at the top of
    the fairlens package, imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module
            if node.level:  # `from . import x` or `from .x import y`
                module = "fairlens" + (f".{module}" if module else "")
            names.add(module)
            # `from . import report` names the module in the alias
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize("module", COMPUTATION)
def test_computation_does_not_import_report(module):
    imported = imported_modules(PACKAGE / f"{module}.py")
    bad = sorted(n for n in imported
                 if n == "fairlens.report" or n.startswith("fairlens.report."))
    assert bad == [], f"fairlens.{module} imports {bad}"


def test_import_scan_sees_relative_imports():
    # report itself imports the computation modules by relative imports
    imported = imported_modules(PACKAGE / "report.py")
    assert "fairlens.cluster" in imported


# Loaded by nothing the CLI runs: xml.sax pulls in urllib, http, email,
# socket and ssl, and multiprocessing is needed only for --jobs > 1.
UNUSED_MODULES = ("xml.sax", "urllib.request", "http.client", "email",
                  "socket", "ssl", "_ssl", "multiprocessing",
                  "concurrent.futures.process")


def test_cli_import_loads_no_unused_modules():
    probe = ("import sys, fairlens.cli; "
             f"print(' '.join(m for m in {UNUSED_MODULES!r} if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    loaded = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                            capture_output=True, text=True).stdout.split()
    assert loaded == [], f"import fairlens.cli loads {loaded}"
