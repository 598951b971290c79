"""Every function, method and class in the package is named by the program.

A definition that nothing in ``src/cawave/`` or ``bench/`` names, outside its
own body, is code only the tests reach: it costs reading and upkeep and
serves no command.  The check walks the AST of every module: a definition
counts as named when its name appears as a loaded name, an attribute, an
imported name or an exact string constant (attributes looked up with
getattr) anywhere but inside the definition itself.  The strings of an
``__all__`` assignment are not counted: listing a name for re-export does
not use it.  Names are matched, not resolved, so the check can miss dead
code but never flags live code.  Dunders are exempt; so are the test
reference implementations in ALLOWED, each with its reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "cawave").glob("*.py"))
PROGRAM = PACKAGE + sorted((ROOT / "bench").glob("*.py"))

ALLOWED = {
    "singular_entry_values": "closed-form finite-part entries of the origin row; the "
    "oracle that c03 and tests/test_fem_core.py compare the assembled matrix against",
    "buffer_reaction": "pointwise unbinding minus binding of the buffer; the oracle that "
    "c01 and tests/test_channel_flux.py check the reaction balance at rest with",
    "conserved_quantity": "total calcium of a state; the oracle of c10's sealed-cell "
    "conservation check and of the drift tests in tests/test_hybrid_solver.py",
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node):
    """Names that this node mentions (not the ones it defines)."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.ImportFrom):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    return []


def _walk(node, enclosing, defined, named, where):
    """Collect definitions and the names mentioned outside each one's own body."""
    if isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    ):
        return  # names listed for re-export are not used by being listed
    if isinstance(node, DEFINITIONS):
        defined.append((node.name, f"{where}:{node.lineno}"))
        enclosing = enclosing | {node.name}
    for name in _names(node):
        if name not in enclosing:
            named.add(name)
    for child in ast.iter_child_nodes(node):
        _walk(child, enclosing, defined, named, where)


def unnamed_definitions(package, program) -> list:
    defined, named = [], set()
    for path in program:
        own = []
        tree = ast.parse(path.read_text(), filename=str(path))
        _walk(tree, frozenset(), own, named, path.name)
        if path in package:
            defined += own
    return sorted(
        f"{name} ({where})"
        for name, where in defined
        if name not in named and not (name.startswith("__") and name.endswith("__"))
    )


def test_every_definition_is_named_by_the_program():
    unnamed = unnamed_definitions(PACKAGE, PROGRAM)
    assert [d for d in unnamed if d.split(" ")[0] not in ALLOWED] == []
    # an allow-list entry that the program has started to use is stale
    assert sorted(ALLOWED) == sorted({d.split(" ")[0] for d in unnamed})


def test_detects_an_unnamed_definition(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "def used():\n    return 1\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else used()\n\n"
        "class Box:\n    def __init__(self):\n        self.v = 0\n\n"
        "    def read(self):\n        return self.v\n\n"
        "    def spare(self):\n        return Box().read()\n\n"
        "def by_string():\n    pass\n\n"
        "def exported():\n    pass\n\n"
        "HOOKS = ['by_string']\nBOX = Box()\n__all__ = ['exported']\n"
    )
    assert unnamed_definitions([module], [module]) == [
        "exported (sample.py:20)",
        "recursive (sample.py:4)",
        "spare (sample.py:14)",
    ]
