"""Every public name of the package is put to work.

A public name in `src/fishburn/` -- a module-level function, class or
constant without a leading underscore, or such a method or class attribute
of a class there -- must be used somewhere other than its own definition:
in `src/` (outside the lazy export table `__init__._EXPORTS`), in `demos/`
or in `perfbench/`.  A name that only the tests use belongs in the tests'
helpers.  A use is a name or attribute that is read, an import, or a dotted
string such as the benchmark tracer's "hypergeom.rogers_fine_check";
comments, docstrings and assignments do not count.
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
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            found.add(n.id)
        elif isinstance(n, ast.Attribute) and not isinstance(n.ctx, ast.Store):
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


def _defined(stmt):
    """The public names that the statement `stmt` defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        names = [stmt.target.id]
    else:
        names = []
    return [name for name in names if not name.startswith("_")]


def _used_elsewhere(name, stmt, scope):
    """Whether a statement of `scope` other than `stmt` uses `name`; `scope`
    pairs each statement with its uses."""
    return any(name in used for other, used in scope if other is not stmt)


def test_every_public_name_is_used_outside_the_tests():
    outside = set(USED_BY_THE_DOCUMENTED_SURFACE)
    for directory in ("demos", "perfbench"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            outside |= _uses(ast.parse(path.read_text()))
    module = [(stmt, _uses(stmt)) for path in sorted(PACKAGE.glob("*.py"))
              for stmt in ast.parse(path.read_text()).body if _counts(stmt)]
    unused = [name for stmt, _ in module for name in _defined(stmt)
              if name not in outside and not _used_elsewhere(name, stmt, module)]
    for cls, _ in module:
        if isinstance(cls, ast.ClassDef):
            members = [(member, _uses(member)) for member in cls.body]
            unused += [f"{cls.name}.{name}" for member, _ in members
                       for name in _defined(member)
                       if name not in outside and not _used_elsewhere(name, cls, module)
                       and not _used_elsewhere(name, member, members)]
    assert unused == []
