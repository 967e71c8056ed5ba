"""Every imported name in the package, its tests and its scripts is read somewhere in its file."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src/lorashear", "tests", "scripts")
# the package's imports are its public names
PUBLIC = {Path("src/lorashear/__init__.py")}


def _imported(tree: ast.AST):
    """(line, bound name) of every import in ``tree`` but ``__future__`` and ``*``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield node.lineno, alias.asname or alias.name


def _read(tree: ast.AST) -> set[str]:
    """Names ``tree`` reads, quoted annotations and ``__all__`` entries included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            annotations = [a.annotation for a in every if a is not None] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for ann in annotations:
            for sub in ast.walk(ann) if ann is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    names |= _read(ast.parse(sub.value, mode="eval"))
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return names


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    read = _read(tree)
    rel = path.relative_to(ROOT)
    return [f"{rel}:{line}:{name}" for line, name in _imported(tree) if name not in read]


def test_the_checker_flags_only_unread_imports():
    tree = ast.parse(
        "import os, os.path as osp\nfrom typing import Optional, List\n"
        "from a import b\nx: 'List[int]' = b.c\n__all__ = ['osp']\n"
    )
    read = _read(tree)
    assert [name for _, name in _imported(tree) if name not in read] == ["os", "Optional"]


def test_no_unused_imports():
    files = sorted(
        p for d in SCANNED for p in (ROOT / d).rglob("*.py") if p.relative_to(ROOT) not in PUBLIC
    )
    assert files
    found = [entry for p in files for entry in unused_imports(p)]
    assert found == [], "imported but never read:\n" + "\n".join(found)
