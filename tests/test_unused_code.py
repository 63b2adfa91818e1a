"""Every top-level function or class of the package is used by the package
or exported by it: a reference kept only for the tests lives in tests/."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "flagf"


def names_outside(tree: ast.AST, skip: ast.AST) -> set[str]:
    """The identifiers named in code (a Name, or the attribute of an
    Attribute) anywhere in tree except inside skip; docstrings are strings,
    not names."""
    out, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def unused_definitions(src: Path) -> list[str]:
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(src.glob("*.py"))}
    exported = {
        alias.asname or alias.name
        for node in ast.walk(trees["__init__.py"])
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    unused = []
    for file, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name in exported:
                continue
            if not any(node.name in names_outside(other, node) for other in trees.values()):
                unused.append(f"{file}:{node.name}")
    return unused


def test_every_top_level_definition_is_used_or_exported():
    assert unused_definitions(SRC) == []


def test_the_guard_sees_a_definition_named_only_in_a_docstring(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import kept\n")
    (tmp_path / "a.py").write_text(
        'def kept():\n    """Calls helper, see orphan."""\n    return helper()\n\n\n'
        "def helper():\n    return 1\n\n\n"
        "def orphan():\n    return orphan\n\n\n"
        "class Unused:\n    pass\n"
    )
    assert unused_definitions(tmp_path) == ["a.py:orphan", "a.py:Unused"]
