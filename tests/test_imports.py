"""Every name a package module imports is used in that module.

No linter is installed, so this test parses each ``src/mfgstop/*.py``
with ``ast`` and fails on an imported name the module never reads.
``__init__.py`` is left out: its imports are the package's public API.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "mfgstop"

# perfbench's tracer wraps a traced function in each module namespace
# its LAYERS table lists, so these two imports exist only for the tracer
# to patch (ROADMAP item 6 deletes them)
TRACER_KEEP_ALIVES = {("mfg", "moment"), ("lp_oracle", "build_transition_operator")}


def unused_imports(source):
    """The names source imports (outside __future__) and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


def test_unused_imports_finds_only_unread_names():
    source = ("from __future__ import annotations\nimport os.path\nimport re\n"
              "from .x import a, b as c\nprint(os.path.sep, c)\n")
    assert unused_imports(source) == {"re", "a"}


def test_no_module_imports_a_name_it_never_uses():
    unused = {(path.stem, name) for path in sorted(SRC.glob("*.py"))
              if path.name != "__init__.py"
              for name in unused_imports(path.read_text(encoding="utf-8"))}
    assert unused - TRACER_KEEP_ALIVES == set()
