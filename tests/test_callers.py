"""Every public name of ``phnet`` has a caller, so ``src`` keeps only what
the shipped paths run.

A name in the ``__all__`` of a ``src/phnet`` module counts as called when
some ``src/phnet`` module refers to it in code (a name it reads, an
attribute or an imported name; not its own ``def`` or ``class``, not the
``__all__`` entry, not a docstring or comment) or when a ``perfbench/*.py``
file names it.  The console script's entry points are called from outside.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "phnet"

ENTRY_POINTS = {"phnet.cli.main", "phnet.__version__"}


def _module_name(path):
    return "phnet" if path.stem == "__init__" else f"phnet.{path.stem}"


def _exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return ast.literal_eval(node.value)
    return []


def _referenced(tree):
    """The names a module's code reads, the attributes it names and the
    names it imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_public_name_has_a_caller():
    trees = {_module_name(p): ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py"))}
    referenced = set().union(*map(_referenced, trees.values()))
    perfbench = "\n".join(p.read_text(encoding="utf-8")
                          for p in sorted((ROOT / "perfbench").glob("*.py")))
    uncalled = [f"{module}.{name}"
                for module, tree in trees.items() for name in _exported(tree)
                if f"{module}.{name}" not in ENTRY_POINTS and name not in referenced
                and not re.search(rf"\b{re.escape(name)}\b", perfbench)]
    assert uncalled == []
