"""Import layering of the package, read from its source with ``ast``.

The modules form one order, each importing only modules before it:
govdata, centrality, profiles, factorlab, econ, report, synthgov, cli.
``govdata`` is the data layer and imports no other package module, and no
package import is made inside a function body.
"""

from __future__ import annotations

import ast
from pathlib import Path

import govpulse

PACKAGE = Path(govpulse.__file__).parent
ORDER = ("govdata", "centrality", "profiles", "factorlab", "econ", "report", "synthgov", "cli")


def _imports(module: str) -> list[tuple[str, bool]]:
    """Each package module that ``module`` imports, with whether the import
    sits inside a function body. A bare ``govpulse`` import runs the package
    ``__init__`` and counts as the modules that imports."""
    found: list[tuple[str, bool]] = []

    def visit(node: ast.AST, in_function: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            in_function = True
        names: list[str] = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["govpulse" if node.level else "", node.module]))
            names = [base] if base != "govpulse" else [f"govpulse.{alias.name}" for alias in node.names]
        for name in names:
            parts = name.split(".")
            if parts[0] != "govpulse":
                continue
            if len(parts) > 1 and (PACKAGE / f"{parts[1]}.py").is_file():
                found.append((parts[1], in_function))
            else:
                found.extend((inner, in_function) for inner, _ in _imports("__init__"))
        for child in ast.iter_child_nodes(node):
            visit(child, in_function)

    visit(ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8")), False)
    return found


def test_every_module_has_its_place_in_the_order():
    assert sorted(path.stem for path in PACKAGE.glob("*.py")) == sorted([*ORDER, "__init__"])


def test_no_package_import_inside_a_function():
    inside = {module: [name for name, in_function in _imports(module) if in_function]
              for module in (*ORDER, "__init__")}
    assert {module: names for module, names in inside.items() if names} == {}


def test_govdata_imports_no_other_package_module():
    assert [name for name, _ in _imports("govdata")] == []


def test_modules_import_only_earlier_modules():
    later = {module: sorted({name for name, _ in _imports(module) if ORDER.index(name) >= ORDER.index(module)})
             for module in ORDER}
    assert {module: names for module, names in later.items() if names} == {}
