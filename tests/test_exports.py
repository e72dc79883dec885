"""Every name in a ``toepsolve`` module's ``__all__`` exists in that module.

Some names are kept only because the benchmark under ``perfbench/`` still
imports, wraps or calls them (ROADMAP D7(d)); nothing in the package may
use them, so deleting them later touches only their definitions.

GMRES chooses its precision in one place: the operators compute with the
arrays they hold, so no operator module may switch on ``np.complex64``.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import toepsolve

MODULES = ["toepsolve"] + [m.name for m in pkgutil.walk_packages(toepsolve.__path__, "toepsolve.")]

# the modules that may name np.complex64: gmres picks the basis dtype and as_columns keeps it
COMPLEX64_MODULES = ["numerics.py", "solvers/gmres.py"]

PERFBENCH_ONLY = ["BlockGenerator1L", "stacked4", "solve_multi_rhs_sequential", "pad_rhs",
                  "extract_result"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", PERFBENCH_ONLY)
def test_perfbench_only_names_are_unused_in_the_package(name):
    definition = re.compile(rf"\s*(class {name}\b|def {name}\(|{name} = )")
    export = re.compile(rf'\s*"{name}",$')
    root = Path(toepsolve.__file__).parent
    lines = [(f"{path.relative_to(root)}:{i}", line.rstrip())
             for path in sorted(root.rglob("*.py"))
             for i, line in enumerate(path.read_text().splitlines(), 1)
             if re.search(rf"\b{name}\b", line)]
    assert len([where for where, line in lines if definition.match(line)]) == 1
    assert [(where, line) for where, line in lines
            if not (definition.match(line) or export.match(line))] == []


def test_only_gmres_and_numerics_name_complex64():
    root = Path(toepsolve.__file__).parent
    naming = [path.relative_to(root).as_posix() for path in sorted(root.rglob("*.py"))
              if "np.complex64" in path.read_text()]
    assert [name for name in naming if name not in COMPLEX64_MODULES] == []
