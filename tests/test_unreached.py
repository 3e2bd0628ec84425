"""Every function, method, class and module-level name that ``src/fittedq``
defines is reached from the package itself, a demo or the benchmark, not
only from tests.

A name counts as reached when the code of a Python file under ``src/``,
``demos/`` or ``perfbench/`` refers to it: as a name, an attribute, an
imported name, or a string constant that is a whole dotted identifier, the
form ``getattr`` and the benchmark's traced-name table use.  Docstrings,
comments, a name's own ``def`` line and an assignment to a name do not
count.  A reference inside the body of an unreached definition (for a
module-level name, its assignment statement) does not count either, so a
helper or a table whose only reader is itself unreached is flagged too.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "demos", "perfbench")

# Names kept although nothing in the scanned trees refers to them.
ALLOWED = {
    "save_model": "writes the model-file format that a config's model.path reads",
}


def _assigned(node):
    """The names that a module-level assignment statement binds."""
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [name.id for target in targets for name in ast.walk(target)
            if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)]


def _definitions():
    """(name, path, first line, last line) of each top-level function, class
    and assigned name in the package and each method of a top-level class,
    dunders excluded."""
    for path in sorted((ROOT / "src" / "fittedq").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            members = [node, *node.body] if isinstance(node, ast.ClassDef) else [node]
            for member in members:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.ClassDef)):
                    names = [member.name]
                elif member is node and isinstance(member, (ast.Assign, ast.AnnAssign)):
                    names = _assigned(member)
                else:
                    continue
                yield from ((name, path, member.lineno, member.end_lineno)
                            for name in names if not re.fullmatch(r"__\w+__", name))


def _references(path):
    """(identifier, line) of each reference in the code of ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.alias):
            names = node.name.split(".")
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and re.fullmatch(r"\w+(\.\w+)*", node.value)):
            names = node.value.split(".")
        else:
            continue
        for name in names:
            yield name, node.lineno


def unreached_names(kept=()):
    """Names that nothing reaches; a name in ``kept`` counts as reached."""
    definitions = list(_definitions())
    references = [(name, path, line)
                  for tree in SCANNED
                  for path in sorted((ROOT / tree).rglob("*.py"))
                  for name, line in _references(path)]
    unreached = set()
    while True:
        dead = {(path, number) for name, path, first, last in definitions
                if name in unreached for number in range(first, last + 1)}
        reached = {name for name, path, line in references if (path, line) not in dead}
        found = {name for name, *_ in definitions} - reached - set(kept)
        if found == unreached:
            return found
        unreached = found


def test_every_definition_is_reached():
    unreached = sorted(unreached_names(kept=ALLOWED))
    assert not unreached, (f"defined in src/fittedq but referenced only from "
                           f"tests or from other unreached code: {unreached}")


def test_allowlist_names_only_unreached_definitions():
    assert set(ALLOWED) <= unreached_names()
