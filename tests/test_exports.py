"""Every name in a ``toepsolve`` module's ``__all__`` exists in that module.

Some names are kept only because the benchmark under ``perfbench/`` still
imports, wraps or calls them, until ROADMAP D7(e) moves it off them and
D12 deletes them; nothing in the package may use them, so deleting them
later touches only their definitions.

GMRES chooses its precision in one place: the operators compute with the
arrays they hold, so no operator module may switch on ``np.complex64``.
Likewise only ``solvers/rybicki.py`` reads the end block columns of the
inverse: no other module may name ``EndColumns``.  And S_A owns the border
elimination: outside ``solvers/bordered.py`` no line multiplies by
``zc_inverse``.

A timing or memory figure in a docstring or comment must be traceable: its
paragraph names the PR whose CHANGES.md entry measured it, a ``BENCH_*.json``
file or the command that measures it.
"""

import ast
import importlib
import io
import pkgutil
import re
import tokenize
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


# the one module that may name EndColumns, so the end-column layout has one reader
END_COLUMNS_MODULES = ["solvers/rybicki.py"]


def test_only_rybicki_names_end_columns():
    root = Path(toepsolve.__file__).parent
    naming = [path.relative_to(root).as_posix() for path in sorted(root.rglob("*.py"))
              if re.search(r"\bEndColumns\b", path.read_text())]
    assert naming == END_COLUMNS_MODULES


# the one module whose lines may multiply by Z_C^-1, so the border elimination has one owner
ZC_INVERSE_PRODUCT_MODULES = ["solvers/bordered.py"]


def test_only_bordered_multiplies_by_the_border_inverse():
    root = Path(toepsolve.__file__).parent
    products = [f"{path.relative_to(root).as_posix()}:{i}: {line.strip()}"
                for path in sorted(root.rglob("*.py"))
                if path.relative_to(root).as_posix() not in ZC_INVERSE_PRODUCT_MODULES
                for i, line in enumerate(path.read_text().splitlines(), 1)
                if "zc_inverse" in line and "@" in line]
    assert products == []


# a number with a time or memory unit, or a line saying what a run took or how often it faulted
FIGURE = re.compile(r"\d(?:[\d.]*\d)?\s(?:ns|ms|s|MB|GB|KB|KiB|GFLOP/s)(?![\w/])|\b(?:took|faults?)\b")
SOURCE = re.compile(r"\bPR \d+|BENCH_\w*\.json|`(?:python3?|toepsolve) [^`]+`")


def _paragraphs(source: str) -> list[list[int]]:
    """Line numbers of each docstring paragraph and each run of comment lines."""
    lines = source.splitlines()
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node) is not None):
            paragraph = []
            for i in range(node.body[0].lineno, node.body[0].end_lineno + 1):
                if lines[i - 1].strip(' "'):
                    paragraph.append(i)
                elif paragraph:
                    found.append(paragraph)
                    paragraph = []
            found.append(paragraph)
    previous = None
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            row, own_line = tok.start[0], not lines[tok.start[0] - 1][: tok.start[1]].strip()
            if own_line and previous == row - 1:
                found[-1].append(row)
            else:
                found.append([row])
            previous = row if own_line else None
    return [p for p in found if p]


def test_every_quoted_figure_names_its_source():
    root = Path(toepsolve.__file__).parent
    unsourced = []
    for path in sorted(root.rglob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for paragraph in _paragraphs(source):
            if not SOURCE.search("\n".join(lines[i - 1] for i in paragraph)):
                unsourced += [f"{path.relative_to(root)}:{i}: {lines[i - 1].strip()}"
                              for i in paragraph if FIGURE.search(lines[i - 1])]
    assert unsourced == []
