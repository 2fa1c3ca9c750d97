import ast
from pathlib import Path

import deltaq1

SOURCE = Path(deltaq1.__file__).parent


def unused_imports(path):
    """The names that a module imports at top level and never reads.
    ``__future__`` imports are directives, not names."""
    tree = ast.parse(path.read_text())
    imported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [alias.asname or alias.name.split(".")[0]
                         for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_no_module_imports_a_name_it_never_uses():
    # the package __init__ imports its modules' names to export them
    modules = [path for path in sorted(SOURCE.glob("*.py"))
               if path.stem != "__init__"]
    assert len(modules) > 10
    unused = {path.stem: unused_imports(path) for path in modules}
    assert {stem: names for stem, names in unused.items() if names} == {}


def test_unused_imports_sees_an_import_never_read(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("from __future__ import annotations\n"
                      "import os.path\n"
                      "from itertools import chain, product as prod\n"
                      "def f():\n"
                      "    return os.sep, chain\n")
    assert unused_imports(module) == ["prod"]
