"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nhskin"


def _unused_imports(tree: ast.Module) -> list[str]:
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    dotted = set()
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            chain = [node.id] + parts[::-1]
            dotted.update(".".join(chain[:k]) for k in range(1, len(chain) + 1))
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.asname:
                    used = alias.asname in names
                elif isinstance(node, ast.Import):
                    # ``import a.b`` is used only where ``a.b`` is spelled out
                    used = alias.name in dotted
                else:
                    used = alias.name in names
                if not used:
                    unused.append(alias.asname or alias.name)
    return unused


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []
