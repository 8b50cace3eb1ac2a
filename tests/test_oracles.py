"""The independent oracles in this directory import nothing from the library."""

import ast
from pathlib import Path

import pytest

# every module here that is neither a test nor conftest.py is an oracle
ORACLES = sorted(
    path.name
    for path in Path(__file__).parent.glob("*.py")
    if not path.name.startswith("test_") and path.name != "conftest.py"
)


@pytest.mark.parametrize("name", ORACLES)
def test_oracle_imports_no_library_module(name):
    tree = ast.parse((Path(__file__).parent / name).read_text(), filename=name)
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"{name} has a relative import"
            modules.append(node.module)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            assert "loopatlas" not in node.value, f"{name} names the library in a string"
    assert modules, name
    assert [m for m in modules if m.split(".")[0] == "loopatlas"] == []
