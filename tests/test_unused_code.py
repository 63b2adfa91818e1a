"""Every top-level function, class or UPPER_CASE constant of the package is
used by the package or exported by it: a reference kept only for the tests
lives in tests/.

The guard matches names, not bindings, and only at the top level of a
module: a method is not checked, and a name counts as used wherever it
appears as an identifier or attribute.  So a method that only the tests call
(as Subspace.full and Subspace.empty were, while np.full and np.empty named
the same attributes) is left to review."""

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
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name) and n.id.isupper()]
            else:
                continue
            for name in names:
                if name not in exported and not any(name in names_outside(other, node) for other in trees.values()):
                    unused.append(f"{file}:{name}")
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


def test_the_guard_sees_a_constant_named_only_in_its_own_assignment(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import kept, EXPORTED\n")
    (tmp_path / "a.py").write_text(
        'USED = 1\nEXPORTED = 2\nORPHAN = 1 << 16  # see ORPHAN\nTYPED: int = 3\n_lower = 4\n\n\n'
        'def kept():\n    """Reads USED, not STALE."""\n    return USED\n'
    )
    (tmp_path / "b.py").write_text("STALE = 5\nPAIR, ALSO = 6, 7\nprint(ALSO)\n")
    assert unused_definitions(tmp_path) == ["a.py:ORPHAN", "a.py:TYPED", "b.py:STALE", "b.py:PAIR"]
