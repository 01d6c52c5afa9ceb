"""Structure guard: `src/watune` holds only code that `src/watune` runs."""

import ast
from dataclasses import fields
from pathlib import Path

import watune
from watune.datagen import Dataset

SRC = Path(watune.__file__).parent


def _trees():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _definitions(tree):
    """Module-level function, class and constant names, dunders excepted."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not (name.startswith("__") and name.endswith("__")):
                yield node, name


def _references(node):
    """Every name `node` reads, as a bare name or as an attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_every_module_level_name_is_used_in_src():
    trees = _trees()
    unused = []
    for module, tree in trees.items():
        for definition, name in _definitions(tree):
            used = any(name in _references(node)
                       for other in trees.values() for node in other.body
                       if node is not definition)
            if not used:
                unused.append(f"{module}: {name}")
    assert not unused, "defined in src/watune but used only outside it: " + ", ".join(unused)


def test_every_dataset_field_is_read_in_src():
    """Each `Dataset` column is read as an attribute somewhere in
    `src/watune` outside the generic plumbing that copies every field, so
    a stored column nothing reads cannot come back unnoticed."""
    plumbing = set()
    for node in ast.walk(_trees()["datagen.py"]):
        if isinstance(node, ast.ClassDef) and node.name == "Dataset":
            plumbing = {sub for method in node.body if isinstance(method, ast.FunctionDef)
                        and method.name in ("__getitem__", "concat") for sub in ast.walk(method)}
    assert plumbing, "datagen.Dataset's __getitem__ and concat were not found"
    read = {node.attr for tree in _trees().values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and node not in plumbing}
    unread = [f.name for f in fields(Dataset) if f.name not in read]
    assert not unread, "Dataset columns no code in src/watune reads: " + ", ".join(unread)
