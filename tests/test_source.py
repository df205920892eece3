"""Source hygiene: every module-level import in the package is used, and
no module imports scipy, which is a test dependency only.

No linter ships with the package's dependencies, so this parses each module
with the standard library's ast.  __init__.py is left out of the unused
import check: it imports names to re-export them.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "shellbound"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:  # names listed in __all__ count as used
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(bound.items()) if name not in used]


def test_the_check_finds_an_unused_import():
    tree = ast.parse("import math\nfrom .errors import A, B\nx = math.pi + A\n")
    assert _unused_imports(tree) == ["line 2: B"]


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_are_used(name):
    tree = ast.parse((SRC / name).read_text(), filename=name)
    assert _unused_imports(tree) == []


def _scipy_imports(tree: ast.Module) -> list[str]:
    """Every import of scipy or a scipy submodule, at any depth."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"line {node.lineno}: {n}" for n in names if n.split(".")[0] == "scipy"]
    return found


def test_the_check_finds_a_lazy_scipy_import():
    tree = ast.parse("import os\ndef f():\n    from scipy import special\n    import scipy.linalg\n")
    assert _scipy_imports(tree) == ["line 3: scipy", "line 4: scipy.linalg"]


@pytest.mark.parametrize("name", sorted(p.name for p in SRC.glob("*.py")))
def test_module_does_not_import_scipy(name):
    tree = ast.parse((SRC / name).read_text(), filename=name)
    assert _scipy_imports(tree) == []
