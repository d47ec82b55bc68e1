"""Every top-level import of a ``repro`` module is referenced in it.

Deletions leave imports behind that nothing reads; this keeps them
out.  A name counts as referenced when the module loads it anywhere,
lists it in ``__all__``, or names it inside a string annotation.
Package ``__init__`` modules re-export by importing, so they are
skipped.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
MODULES = sorted(path for path in SRC.rglob("*.py")
                 if path.name != "__init__.py")


def _top_level_imports(tree):
    """Name bound -> line, for module-level imports (including those
    under ``if``/``try`` at module level)."""
    bound = {}

    def visit(statements):
        for node in statements:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    bound[name] = node.lineno
            elif isinstance(node, ast.ImportFrom):
                if node.module == "__future__":
                    continue
                for alias in node.names:
                    bound[alias.asname or alias.name] = node.lineno
            elif isinstance(node, (ast.If, ast.Try)):
                visit(node.body)
                visit(node.orelse)
                for handler in getattr(node, "handlers", ()):
                    visit(handler.body)

    visit(tree.body)
    return bound


def _string_annotation_names(annotation):
    names = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names.update(sub.id for sub in ast.walk(parsed)
                         if isinstance(sub, ast.Name))
    return names


def _referenced(tree):
    names = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            names.update(item.value for item in ast.walk(node.value)
                         if isinstance(item, ast.Constant))
    for annotation in annotations:
        if annotation is not None:
            names |= _string_annotation_names(annotation)
    return names


def test_every_top_level_import_is_referenced():
    assert len(MODULES) > 100, f"found only {len(MODULES)} modules"
    unused = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        referenced = _referenced(tree)
        unused += [f"{path.relative_to(SRC)}:{line}: {name}"
                   for name, line in _top_level_imports(tree).items()
                   if name not in referenced]
    assert not unused, "unused imports:\n" + "\n".join(sorted(unused))
