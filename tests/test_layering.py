"""The library's modules import one another in one direction."""

import ast
from pathlib import Path

import loopatlas

SOURCE = Path(loopatlas.__file__).parent
MODULES = sorted(path.stem for path in SOURCE.glob("*.py"))


def _package_imports(tree):
    """(function or None, imported package module) for every import of a
    module of the package, the function being the innermost def around it."""

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.ImportFrom) and node.level:
            assert node.level == 1, ast.unparse(node)
            names = [node.module] if node.module else [alias.name for alias in node.names]
            yield from ((scope, name) for name in names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):  # absolute: never the package itself
            names = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
            assert all(name.split(".")[0] != "loopatlas" for name in names), ast.unparse(node)
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)

    return list(visit(tree, None))


IMPORTS = {name: _package_imports(ast.parse((SOURCE / f"{name}.py").read_text())) for name in MODULES}


def test_the_only_deferred_package_import_is_affinize_reading_roots():
    """``cartan._affinize`` reads the marks and comarks of a finite matrix,
    which ``roots`` derives from ``cartan``; no other function imports a
    module of the package (deferred ``numpy`` imports are not of it)."""
    deferred = {(name, scope, module) for name, found in IMPORTS.items() for scope, module in found if scope}
    assert deferred == {("cartan", "_affinize", "roots")}


def test_module_level_imports_form_no_cycle():
    # roots builds on weyl, so weyl must not import roots
    edges = {name: {m for scope, m in found if scope is None} for name, found in IMPORTS.items()}
    assert "weyl" in edges["roots"] and "roots" not in edges["weyl"]
    done, stack = set(), []

    def visit(name):
        assert name not in stack, " -> ".join(stack + [name])
        if name not in done:
            stack.append(name)
            for module in sorted(edges[name]):
                visit(module)
            stack.pop()
            done.add(name)

    for name in MODULES:
        visit(name)
