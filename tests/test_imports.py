"""Every name a package module imports is used in that module.

A stdlib-``ast`` stand-in for a linter's unused-import check: an import
left behind when the code that used it goes is dead code that still
binds a name and ties one module to another.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mp4wm"
# __init__.py imports names to re-export them
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    # `np.fft` reads the name `np`; annotations are expressions too
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_finds_an_unused_import():
    source = "import math\nimport os.path\nfrom .a import b as c, d\nd(os.sep)\n"
    assert unused_imports(source) == ["math", "c"]


def test_the_package_modules_are_found():
    assert {path.name for path in MODULES} >= {"cli.py", "config.py", "params.py", "pulses.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
