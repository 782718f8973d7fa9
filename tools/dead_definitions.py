"""List functions, classes and methods under ``src/`` that nothing references.

Ruff catches unused imports and locals, but not an unused public
definition: a method or helper whose last caller was deleted stays
behind, lint-clean, forever.  This check parses every definition under
``src/`` and every Python file under the referencing roots, and reports
each defined name that no file mentions anywhere -- as a bare name, an
attribute, or an identifier-shaped string (``getattr``/``setattr``
targets, monkeypatched attributes).

Matching is by name alone, so a method shares its references with every
same-named attribute in the codebase; the check finds names nothing uses
at all, not unreachable overloads.  Not counted as references: the
``def``/``class`` statement itself, ``import`` lists and ``__all__`` entries (a re-export
is not a use).  Never reported: dunder methods, and functions registered
through a decorator on :data:`ALLOWED_DECORATORS` (the registry calls
them by table lookup, not by name).

Run from the repository root::

    python tools/dead_definitions.py

Exits 1 and prints ``path:line: name`` for each unreferenced definition,
0 when there is none.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Dict, List, Set, Tuple

#: Where definitions are collected.
DEFINITION_ROOT = "src"

#: Where references are collected (the definition root included).
REFERENCE_ROOTS = ("src", "tests", "examples", "benchmarks", "perfbench")

#: Decorators that register a function for lookup by key; the decorated
#: function is used even though no code names it.
ALLOWED_DECORATORS = ("register_scenario",)

Definition = Tuple[str, int, str]


def _decorator_name(node: ast.expr) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _is_allowed(node: ast.AST) -> bool:
    if node.name.startswith("__") and node.name.endswith("__"):
        return True
    return any(_decorator_name(decorator) in ALLOWED_DECORATORS
               for decorator in node.decorator_list)


def definitions(tree: ast.Module, path: str) -> List[Definition]:
    """Every function, class and method defined in *tree*, nested ones too."""
    found: List[Definition] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not _is_allowed(node):
                found.append((path, node.lineno, node.name))
    return found


def _all_entries(tree: ast.Module) -> Set[int]:
    """ids of the string nodes listed in ``__all__`` assignments."""
    ids: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                ids.update(id(n) for n in ast.walk(node.value)
                           if isinstance(n, ast.Constant))
    return ids


def references(tree: ast.Module) -> Set[str]:
    """Every name *tree* mentions outside imports and ``__all__``."""
    skip = _all_entries(tree)
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier() and id(node) not in skip):
            names.add(node.value)
    return names


def find_dead(repo: Path) -> List[Definition]:
    """Unreferenced definitions under ``repo/src``, in path and line order."""
    defined: List[Definition] = []
    used: Set[str] = set()
    parsed: Dict[Path, ast.Module] = {}
    for root in REFERENCE_ROOTS:
        for path in sorted((repo / root).rglob("*.py")):
            parsed[path] = ast.parse(path.read_text(encoding="utf-8"),
                                     filename=str(path))
            used |= references(parsed[path])
    for path in sorted((repo / DEFINITION_ROOT).rglob("*.py")):
        defined.extend(definitions(parsed[path], str(path.relative_to(repo))))
    return sorted(entry for entry in defined if entry[2] not in used)


def main() -> int:
    dead = find_dead(Path.cwd())
    for path, line, name in dead:
        print(f"{path}:{line}: {name} is defined but never referenced")
    if dead:
        print(f"{len(dead)} unreferenced definition(s)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
