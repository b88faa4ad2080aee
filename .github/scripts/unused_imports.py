"""Unused imports: every name imported into a module of src/curvop/, tests/
or .github/scripts/ that the module never reads.  A name is read when it
is loaded anywhere in the module, or listed in its __all__; an import from
__future__ binds no name.  Prints one line per unused name and exits 1 if
there is any, 0 otherwise.  Standard library only.

Run from the repository root: python .github/scripts/unused_imports.py
"""

import ast
import sys
from pathlib import Path

ROOTS = ("src/curvop", "tests", ".github/scripts")


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


def unused(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = read(tree)
    return [(line, name) for line, name in imported(tree) if name not in used]


def main():
    found = [f"{path}:{line}: {name} is imported and never read"
             for root in ROOTS for path in sorted(Path(root).rglob("*.py"))
             for line, name in unused(path)]
    print("\n".join(found) if found else "no unused imports")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
