import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import deltaq1

SOURCE = Path(deltaq1.__file__).parent

# the package modules that importing each module loads: the oracle's
# closure holds no combinatorial model, and the models' polynomials and the
# series share only partitions and tarith
CLOSURES = {
    "deltaq1": set(),
    "deltaq1.oracle": {"oracle", "partitions", "specialize", "symfunc",
                       "tarith"},
    "deltaq1.specialize": {"specialize", "partitions", "tarith"},
    "deltaq1.msequences": {"msequences", "partitions", "tarith"},
    "deltaq1.dyck": {"dyck", "partitions", "tarith"},
}


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


def nested_imports(path):
    """The lines of a module's imports that are not at its top level, which
    a closure measured at import time would miss."""
    tree = ast.parse(path.read_text())
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and node not in tree.body]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(SOURCE.glob("*.py"))
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


def test_every_import_is_at_module_top_level():
    modules = sorted(SOURCE.glob("*.py"))
    nested = {path.stem: nested_imports(path) for path in modules}
    assert {stem: lines for stem, lines in nested.items() if lines} == {}


def test_nested_imports_sees_an_import_inside_a_function(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("import os\n"
                      "def f():\n"
                      "    from itertools import chain\n"
                      "    return os.sep, chain\n")
    assert nested_imports(module) == [3]


@pytest.mark.parametrize("module", sorted(CLOSURES))
def test_an_import_loads_exactly_its_closure(module):
    env = {**os.environ, "PYTHONPATH": str(SOURCE.parent)}
    code = "import sys, %s; print(*sys.modules)" % module
    loaded = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                            capture_output=True, text=True).stdout.split()
    assert {name.split(".", 1)[1] for name in loaded
            if name.startswith("deltaq1.")} == CLOSURES[module]
