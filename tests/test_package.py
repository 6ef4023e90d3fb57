"""The package re-exports nothing, so nothing fixes the order in which its
modules are first imported: each ``tierplan.<module>`` must import on its
own, in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(path.stem for path in (SRC / "tierplan").glob("*.py") if path.stem != "__init__")


def fresh_python(code):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    proc = fresh_python(f"import tierplan.{module}")
    assert proc.returncode == 0, proc.stderr


def test_package_namespace_is_its_docstring():
    proc = fresh_python("import tierplan; print(sorted(n for n in vars(tierplan) if not n.startswith('__')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
