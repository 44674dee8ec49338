"""Static checks on the package source: no import is left unused, no broad
exception handler swallows an error without a word."""

import ast
from pathlib import Path

import pytest

import agentway

PACKAGE = Path(agentway.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads.

    A name counts as read if it appears as a bare name or as the root of an
    attribute chain. ``from __future__`` imports are not checked.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in used]


def test_the_scan_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == ["line 1: os"]
    assert unused_imports("from typing import Any, Optional\nx: Optional[int] = None\n") == ["line 1: Any"]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def silent_broad_handlers(source: str) -> list[str]:
    """``except Exception`` (or bare ``except``, or ``BaseException``) handlers whose body is only ``pass``."""
    broad = {"Exception", "BaseException"}
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ExceptHandler):
            continue
        names = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        if any(n is None or (isinstance(n, ast.Name) and n.id in broad) for n in names) and all(
            isinstance(stmt, ast.Pass) for stmt in node.body
        ):
            found.append(f"line {node.lineno}")
    return found


def test_the_scan_finds_a_silent_broad_handler():
    assert silent_broad_handlers("try:\n    f()\nexcept Exception:\n    pass\n") == ["line 3"]
    assert silent_broad_handlers("try:\n    f()\nexcept (OSError, Exception):\n    pass\n") == ["line 3"]
    assert silent_broad_handlers("try:\n    f()\nexcept:\n    pass\n") == ["line 3"]
    assert silent_broad_handlers("try:\n    f()\nexcept OSError:\n    pass\n") == []
    assert silent_broad_handlers("try:\n    f()\nexcept Exception as e:\n    log(e)\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_silent_broad_handlers(path):
    assert silent_broad_handlers(path.read_text(encoding="utf-8")) == []
