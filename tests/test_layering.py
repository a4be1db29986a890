"""Module layering: the computation does not depend on the rendering.

Figures and the bundle file are written by fairlens.report, which reads
bundle records. The modules that compute those records must not import
it, so the numbers can be produced, tested and re-analysed without the
rendering layer.

Nor does the CLI load modules it never runs: a fresh interpreter that
imports fairlens.cli must not have the network, XML, multiprocessing,
jsonschema or numpy.random modules in sys.modules, nor numpy.ma,
jsonschema or numpy.random after a run and an audit.
"""

import ast
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from synth import write_recidivism_csv

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
# socket and ssl, multiprocessing is needed only for --jobs > 1, ingest
# reads CSV files with numpy alone, report.schema_error checks the
# bundle and run-config schemas (jsonschema is a test dependency), and
# fairlens.rand computes its SplitMix64 words in numpy arithmetic.
UNUSED_MODULES = ("xml.sax", "urllib.request", "http.client", "email",
                  "socket", "ssl", "_ssl", "multiprocessing",
                  "concurrent.futures.process", "csv", "_csv", "jsonschema",
                  "numpy.random")


def test_cli_import_loads_no_unused_modules():
    probe = ("import sys, fairlens.cli; "
             f"print(' '.join(m for m in {UNUSED_MODULES!r} if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    loaded = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                            capture_output=True, text=True).stdout.split()
    assert loaded == [], f"import fairlens.cli loads {loaded}"


# np.unique without a return_* flag imports numpy.ma (numpy 2.4), about
# 8 ms of a run; nothing fairlens computes needs it. Writing and checking
# the bundles does not load jsonschema either, and drawing the run's
# streams does not load numpy.random.
def test_run_and_audit_do_not_load_numpy_ma(tmp_path):
    write_recidivism_csv(tmp_path / "t.csv", n_rows=300, seed=6)
    spec = {"name": "tiny", "source_path": "t.csv",
            "label_column": "two_year_recid", "positive_value": "1",
            "positive_meaning": "punitive", "protected_features": ["sex"],
            "columns": [{"name": "age", "kind": "numeric"},
                        {"name": "sex", "kind": "binary"},
                        {"name": "priors_count", "kind": "numeric"},
                        {"name": "two_year_recid", "kind": "binary",
                         "role": "label"}]}
    (tmp_path / "tiny.json").write_text(json.dumps(spec), encoding="utf-8")
    rng = np.random.default_rng(1)
    with open(tmp_path / "m1.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["y_true", "y_score", "grp", "sel"])
        w.writerows((int(rng.integers(0, 2)), "%.4f" % rng.random(),
                     "AB"[i % 2], int(i % 5 == 0)) for i in range(200))
    probe = (
        "import sys; from fairlens.cli import main\n"
        "assert main(['run', '--datasets', 'tiny.json', '--seeds', '1',"
        " '--folds', '3', '--search-draws', '1', '--models',"
        " 'logit,mlp,knn,rf,tree,nb', '--out', 'run']) == 0\n"
        "assert main(['audit', '--predictions', 'm1=m1.csv', '--features',"
        " 'grp', '--validation-column', 'sel', '--out', 'audit']) == 0\n"
        "print(*(m in sys.modules for m in"
        " ('numpy.ma', 'jsonschema', 'numpy.random')))\n")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", probe], env=env, cwd=tmp_path,
                          check=True, capture_output=True, text=True)
    assert done.stdout.split() == ["False", "False", "False"]
