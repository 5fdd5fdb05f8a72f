"""The package layering: the lower layers never import the layers above.

Programs, schemas, the SQL front-end, summary graphs, detection and
workloads are the lower layers.  The analysis session, the service, the
repair advisor and the churn monitor are built on them, so no lower-layer
module may import one of those, not even inside a function body.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"
LOWER_LAYERS = ("btp", "schema", "sqlfront", "summary", "detection", "workloads")
UPPER_LAYERS = ("analysis", "service", "repair", "churn")


def _lower_modules() -> list[Path]:
    return sorted(path for layer in LOWER_LAYERS for path in (PACKAGE / layer).rglob("*.py"))


def _imported_modules(tree: ast.AST) -> set[str]:
    """Every module an ``import`` statement anywhere in the tree names,
    including ``from repro import <module>``."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def _is_upper(module: str) -> bool:
    return any(
        module == f"repro.{layer}" or module.startswith(f"repro.{layer}.")
        for layer in UPPER_LAYERS
    )


def test_every_lower_layer_has_modules():
    for layer in LOWER_LAYERS:
        assert list((PACKAGE / layer).glob("*.py")), layer


@pytest.mark.parametrize(
    "path", _lower_modules(), ids=lambda path: str(path.relative_to(PACKAGE))
)
def test_lower_layer_does_not_import_upper_layers(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    upward = sorted(module for module in _imported_modules(tree) if _is_upper(module))
    assert upward == [], f"{path.relative_to(PACKAGE)} imports {upward}"


def test_import_scan_sees_imports_inside_functions():
    tree = ast.parse(
        "def f():\n"
        "    from repro.analysis.session import Analyzer\n"
        "    from repro import service\n"
    )
    imported = _imported_modules(tree)
    assert _is_upper("repro.analysis.session") and "repro.analysis.session" in imported
    assert "repro.service" in imported
    assert not _is_upper("repro.analysisx")


def test_no_deferred_import_cycle_outside_analysis():
    pattern = re.compile(r"deferred:.*import cycle")
    offenders = [
        f"{path.relative_to(PACKAGE)}:{number}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.parent.name != "analysis"
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if pattern.search(line)
    ]
    assert offenders == []
