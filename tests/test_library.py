"""The library holds only what the program runs."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
# Reference oracles kept in the library for the acceptance module, which
# checks the solvers against them.
ORACLES = {"exhaustive_fracture_number", "_decomposition_from_order", "_min_fill_order"}


def referenced_names(tree: ast.Module) -> set[str]:
    """Names a module reads, as a name, an attribute or an exact string
    (the benchmark tracer names what it wraps), outside the body of the
    definition that has that name."""
    names: set[str] = set()
    for stmt in tree.body:
        used = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
        if isinstance(stmt, DEFS):
            used.discard(stmt.name)
        names |= used
    return names


def test_every_library_definition_is_referenced_by_the_program():
    library = sorted((ROOT / "src" / "edpkit").glob("*.py"))
    program = library + sorted((ROOT / "perfbench").rglob("*.py"))
    defined = {
        node.name: path.name
        for path in library
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, DEFS)
    }
    referenced = set().union(*(referenced_names(ast.parse(p.read_text(encoding="utf-8"))) for p in program))
    unused = {name: module for name, module in defined.items() if name not in referenced}
    assert unused.keys() == ORACLES, sorted(unused.items())
