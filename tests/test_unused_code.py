"""Every top-level function, class or UPPER_CASE constant of the package is
used by the package or exported by it, and every public method or property
of a package class is named by the package outside its own definition, by
a demo or by the benchmark: a reference kept only for the tests lives in
tests/.  Every name imported into a module of the package, other than
__init__.py (whose imports are the exports), is used by that module.

The guard matches names, not bindings: a name counts as used wherever it
appears as an identifier or attribute.  So a method that only the tests call
while another object's attribute of the same name is used elsewhere (as
Subspace.full and Subspace.empty were, while np.full and np.empty named the
same attributes) is left to review."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "flagf"


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


def unused_members(src: Path, *elsewhere: Path) -> list[str]:
    """The public methods and properties of the classes of the package at src
    that no code names outside their own definition: in the package, or in
    the .py files under the elsewhere directories."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(src.glob("*.py"))}
    named = set()
    for folder in elsewhere:
        for path in sorted(folder.rglob("*.py")):
            named |= names_outside(ast.parse(path.read_text(encoding="utf-8")), None)
    unused = []
    for file, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef) or node.name.startswith("_") or node.name in named:
                    continue
                if not any(node.name in names_outside(other, node) for other in trees.values()):
                    unused.append(f"{file}:{cls.name}.{node.name}")
    return unused


def unused_imports(src: Path) -> list[str]:
    """The names imported into a module of the package at src, __init__.py
    aside, that the module's code never names (``from __future__`` imports
    are directives, not names)."""
    unused = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in named:
                        unused.append(f"{path.name}:{name}")
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


def test_every_public_method_is_used_by_the_package_a_demo_or_the_benchmark():
    assert unused_members(SRC, ROOT / "demos", ROOT / "perfbench") == []


def test_the_guard_sees_a_method_named_only_in_its_own_body_or_a_test(tmp_path):
    src, demos, tests = tmp_path / "src", tmp_path / "demos", tmp_path / "tests"
    for folder in (src, demos, tests):
        folder.mkdir()
    (src / "__init__.py").write_text("from .a import Kept\n")
    (src / "a.py").write_text(
        "class Kept:\n"
        "    def used(self):\n        return self._helper()\n\n"
        "    def _helper(self):\n        return 1\n\n"
        "    @property\n    def shown(self):\n        return 2\n\n"
        '    def recursive(self):\n        """See orphan."""\n        return self.recursive()\n\n'
        "    @property\n    def orphan(self):\n        return 3\n\n"
        "    def tested(self):\n        return 4\n\n\n"
        "def run():\n    return Kept().used()\n"
    )
    (demos / "demo.py").write_text("from pkg import Kept\nprint(Kept().shown)\n")
    (tests / "test_a.py").write_text("from pkg import Kept\nassert Kept().tested() == 4\n")
    assert unused_members(src, demos) == ["a.py:Kept.recursive", "a.py:Kept.orphan", "a.py:Kept.tested"]


def test_every_imported_name_is_used():
    assert unused_imports(SRC) == []


def test_the_guard_sees_a_name_imported_and_never_used(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import kept\nimport json\n")
    (tmp_path / "a.py").write_text(
        "from __future__ import annotations\n\n"
        "import os.path\nimport numpy as np\nimport sys as system\n"
        "from .b import helper, orphan as alias\n\n\n"
        'def kept(x: np.ndarray):\n    """Not system, alias or os."""\n    def inner():\n        import re\n'
        "        return re\n    return helper(x), inner\n"
    )
    (tmp_path / "b.py").write_text("def helper(x):\n    return x\n\n\ndef orphan():\n    return 1\n")
    assert unused_imports(tmp_path) == ["a.py:os", "a.py:system", "a.py:alias"]
