"""The package's modules import one way: galois -> seqgen -> analysis -> experiments -> cli,
with simulator and detectors beside them. Each module is imported alone, in a fresh
interpreter, and must load exactly the gfsig modules it depends on."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gfsig

SRC = str(Path(gfsig.__file__).resolve().parents[1])

# module -> the gfsig modules that importing it alone loads, itself included: seqgen
# loads galois only, and analysis none of experiments, cli, detectors or simulator
LOADS = {
    "galois": {"galois"},
    "seqgen": {"galois", "seqgen"},
    "analysis": {"galois", "seqgen", "analysis"},
    "simulator": {"simulator"},
    "detectors": {"detectors"},
    "experiments": {"galois", "seqgen", "analysis", "simulator", "detectors", "experiments"},
    "cli": {"galois", "seqgen", "analysis", "simulator", "detectors", "experiments", "cli"},
}


def loaded_by(statement: str) -> set[str]:
    """The gfsig modules loaded after `statement` runs in a fresh interpreter."""
    code = f"{statement}; import sys; print(*(m[6:] for m in sys.modules if m[:6] == 'gfsig.'))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=60)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


def test_every_module_is_listed():
    assert {path.stem for path in Path(SRC, "gfsig").glob("*.py")} == set(LOADS) | {"__init__"}


def test_package_import_loads_no_module():
    # the package holds its docstring and version, and re-exports nothing
    assert loaded_by("import gfsig") == set()


@pytest.mark.parametrize("module", sorted(LOADS))
def test_module_imports_alone_and_one_way(module):
    assert loaded_by(f"import gfsig.{module}") == LOADS[module]
