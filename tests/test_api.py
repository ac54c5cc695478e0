"""The library holds no test-only API: every public function, class, method
and property of covertswarm is reached, directly or through names so reached,
from the package's module-level statements, tests/test_acceptance.py or
benchmarks/*.py.  Nor does it hold dead private helpers: every module-level
private function and class is named somewhere in src/, tests/ or
benchmarks/ outside its own definition.  Names match bare; imports are no
use, a string spelling a name is one (the benchmark wraps functions by
name).  Nor does it import anything beyond numpy, the standard library and
itself, or any name it does not use, so a name has one import path: its
module (the package root re-exports nothing).
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLERS = [ROOT / "tests" / "test_acceptance.py", *sorted(ROOT.glob("benchmarks/*.py"))]
DEFS = (ast.FunctionDef, ast.ClassDef)


def names(nodes) -> set:
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                    and sub.value.isidentifier():
                out.add(sub.value)
    return out


def plain(body) -> list:
    """The statements of body that define or import nothing."""
    return [n for n in body if not isinstance(n, DEFS + (ast.Import, ast.ImportFrom))]


def definitions(node, prefix=""):
    """(qualified name, bare name, names it references) for node and, for a
    class, its methods; a class's dunder methods run implicitly, so they
    count as the class's own references."""
    if not isinstance(node, ast.ClassDef):
        return [(prefix + node.name, node.name, names([node]) - {node.name})]
    methods = [n for n in node.body if isinstance(n, DEFS)]
    dunders = [n for n in methods if n.name.startswith("__")]
    out = [(prefix + node.name, node.name, names(plain(node.body) + node.bases + dunders))]
    for n in methods:
        if n not in dunders:
            out += definitions(n, prefix + node.name + ".")
    return out


def unused_public_names() -> list:
    defs, used = [], names(ast.parse(p.read_text()) for p in CALLERS)
    for path in sorted((ROOT / "src" / "covertswarm").glob("*.py")):
        tree = ast.parse(path.read_text())
        used |= names(plain(tree.body))
        defs += [d for node in tree.body if isinstance(node, DEFS) for d in definitions(node)]
    frontier = used
    while frontier:  # a name used only by unused names stays unused
        frontier = set().union(*(refs for _, bare, refs in defs if bare in frontier)) - used
        used |= frontier
    return sorted(q for q, bare, _ in defs if not bare.startswith("_") and bare not in used)


def test_every_public_name_is_used_outside_unit_tests():
    assert unused_public_names() == []


def unused_private_names() -> list:
    src = sorted((ROOT / "src" / "covertswarm").glob("*.py"))
    rest = [*sorted((ROOT / "tests").glob("*.py")), *sorted(ROOT.glob("benchmarks/*.py"))]
    # every top-level statement of every file, with the names it references
    stmts = [(path, node, names([node])) for path in src + rest
             for node in ast.parse(path.read_text()).body]
    return sorted(f"{path.stem}.{node.name}" for path, node, _ in stmts
                  if path in src and isinstance(node, DEFS) and node.name.startswith("_")
                  and not node.name.startswith("__")
                  and not any(node.name in refs for _, other, refs in stmts if other is not node))


def test_every_private_helper_is_used():
    assert unused_private_names() == []


def imports(tree):
    """(module, bound name) for every import in tree, at any depth; a
    relative import's module is its package, covertswarm."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((a.name, a.asname or a.name.split(".")[0]) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            module = "covertswarm" if node.level else node.module
            yield from ((module, a.asname or a.name) for a in node.names)


def import_faults() -> list:
    allowed = sys.stdlib_module_names | {"numpy", "covertswarm"}
    out = []
    for path in sorted((ROOT / "src" / "covertswarm").glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for module, name in imports(tree):
            if module.split(".")[0] not in allowed:
                out.append(f"{path.name} imports {module}")
            if name not in used:
                out.append(f"{path.name} never uses {name}")
    return out


def test_src_imports_only_numpy_and_the_standard_library_and_uses_each_name():
    # numpy and the standard library are the only runtime dependencies
    assert import_faults() == []
