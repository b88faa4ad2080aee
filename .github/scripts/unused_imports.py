"""Unused names: every name imported into a module of src/curvop/, tests/
or .github/scripts/ that the module never reads, and every private
function, class or assignment at the module level of src/curvop/ that no
module of src/curvop/ reads.  A name is read by its module when it is
loaded anywhere in the module, or listed in its __all__; an import from
__future__ binds no name.  A private name is read by the package when a
module loads it, loads it as an attribute or imports it.  Prints one line
per unused name and exits 1 if there is any, 0 otherwise.  Standard
library only.

Run from the repository root: python .github/scripts/unused_imports.py
"""

import ast
import sys
from pathlib import Path

ROOTS = ("src/curvop", "tests", ".github/scripts")
PACKAGE = "src/curvop"


def imported(tree):
    """(line, bound name) of every import in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # import a.b binds a
                yield node.lineno, alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield node.lineno, alias.asname or alias.name


def read(tree):
    """The names tree loads, and the strings of its __all__."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return names


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def unused(path):
    tree = parse(path)
    used = read(tree)
    return [(line, name) for line, name in imported(tree) if name not in used]


def private_defined(tree):
    """(line, name) of every private function, class and assigned name at
    the module level of tree; a dunder name is not private."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                yield node.lineno, name


def package_reads(trees):
    """The names the trees load, load as attributes or import."""
    names = set()
    for tree in trees:
        names |= read(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names |= {alias.name for alias in node.names}
    return names


def unread_private(paths):
    trees = {path: parse(path) for path in paths}
    used = package_reads(trees.values())
    return [(path, line, name) for path, tree in trees.items()
            for line, name in private_defined(tree) if name not in used]


def main():
    found = [f"{path}:{line}: {name} is imported and never read"
             for root in ROOTS for path in sorted(Path(root).rglob("*.py"))
             for line, name in unused(path)]
    found += [f"{path}:{line}: {name} is private and no module of {PACKAGE} reads it"
              for path, line, name in unread_private(sorted(Path(PACKAGE).rglob("*.py")))]
    print("\n".join(found) if found else "no unused names")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
