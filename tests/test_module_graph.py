"""The import graph of ``src/respkit``: each step module imports only the
modules it calls, and no module reaches for another's private names.

``cli`` and the package ``__init__`` are exempt: they wire every module
together by design.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "respkit"

# Each module's allowed respkit imports, and no more: an edge that no call
# needs loads a module, and its imports, for nothing.
ALLOWED = {
    "model": set(),
    "dsl": {"model"},
    "build": {"dsl", "model"},
    "elicitation": {"dsl", "build", "model"},
    "hazards": {"model"},
    "analysis": {"model"},
    "reporting": {"analysis", "dsl", "model"},
}


def _imports(tree: ast.Module) -> tuple[set[str], list[str], set[str]]:
    """The respkit modules ``tree`` imports, every name it imports from any
    module, and the local names bound to respkit modules."""
    modules, names, aliases = set(), [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names += [alias.name for alias in node.names]
            if node.level == 1 and node.module is None:  # from . import dsl
                modules |= {alias.name for alias in node.names}
                aliases |= {alias.asname or alias.name for alias in node.names}
            elif node.level == 1 or (node.module or "").startswith("respkit."):
                modules.add(node.module.removeprefix("respkit."))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                names.append(alias.name)
                if alias.name.startswith("respkit."):
                    modules.add(alias.name.removeprefix("respkit."))
    return modules, names, aliases


def _tree(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))


def test_every_module_is_pinned():
    found = {path.stem for path in SRC.glob("*.py")} - {"cli", "__init__"}
    assert found == set(ALLOWED)


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_imports_only_the_modules_it_calls(module):
    modules, _, _ = _imports(_tree(module))
    assert modules == ALLOWED[module]


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_imports_no_private_name(module):
    tree = _tree(module)
    _, names, aliases = _imports(tree)
    assert [name for name in names if name.startswith("_")] == []
    reached = [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
               and node.value.id in aliases and node.attr.startswith("_")]
    assert reached == []
