"""The runtime is pure standard library: evkg installs and runs with nothing else.
And the query AST stands on the term model alone."""

from __future__ import annotations

import ast
import sys

from conftest import ROOT


def test_runtime_imports_only_the_standard_library():
    sources = sorted((ROOT / "src" / "evkg").rglob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:  # level > 0: relative
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.relative_to(ROOT)}:{node.lineno}: {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


def test_query_ast_imports_only_the_term_model():
    path = ROOT / "src" / "evkg" / "sparql" / "algebra.py"
    package = ["evkg", "sparql"]
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] if node.level else []
            imported.add(".".join(base + ([node.module] if node.module else [])))
    assert {name for name in imported if name.partition(".")[0] == "evkg"} == {"evkg.terms"}
