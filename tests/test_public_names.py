"""Every public function and class of the package is put to work.

A module-level name without a leading underscore in `src/fishburn/` must be
used somewhere other than its own definition: in `src/` (outside the lazy
export table `__init__._EXPORTS`), in `demos/` or in `perfbench/`.  A name
that only the tests use belongs in the tests' helpers.  A use is a name, an attribute, an import, or a dotted string such
as the benchmark tracer's "hypergeom.rogers_fine_check"; comments and
docstrings do not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fishburn"

# README lists the partition parity table and acceptance C13 checks it
USED_BY_THE_DOCUMENTED_SURFACE = {"partition_parity_table"}


def _docstrings(tree):
    nodes = [n for n in ast.walk(tree) if isinstance(
        n, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    return {id(n.body[0].value) for n in nodes
            if n.body and isinstance(n.body[0], ast.Expr)
            and isinstance(n.body[0].value, ast.Constant)}


def _uses(node):
    """The names that the code under `node` uses."""
    docs = _docstrings(node)
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        elif isinstance(n, ast.alias):
            found.update(n.name.split("."))
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and id(n) not in docs:
            found.update(n.value.split("."))
    return found


def _counts(stmt):
    """False for a module docstring and for the export table of `__init__`."""
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
        return False
    return not (isinstance(stmt, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "_EXPORTS" for t in stmt.targets))


def test_every_public_name_is_used_outside_the_tests():
    statements = [(stmt, _uses(stmt))
                  for path in sorted(PACKAGE.glob("*.py"))
                  for stmt in ast.parse(path.read_text()).body if _counts(stmt)]
    outside = set(USED_BY_THE_DOCUMENTED_SURFACE)
    for directory in ("demos", "perfbench"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            outside |= _uses(ast.parse(path.read_text()))
    unused = [stmt.name for stmt, _ in statements
              if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
              and not stmt.name.startswith("_") and stmt.name not in outside
              and not any(stmt.name in used
                          for other, used in statements if other is not stmt)]
    assert unused == []
