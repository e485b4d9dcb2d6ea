"""The package imports nothing at run time beyond the stdlib and numpy.

scipy and mpmath are test references only (`pyproject.toml`'s `test`
extra); a stray `import scipy.special` in `src/` would still pass every
test here, since the test environment has it.  So the imports are read
from the source with `ast` rather than from a running interpreter.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fracode"
ALLOWED = {"numpy", "fracode"}


def _top_level_imports(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_stdlib_numpy_or_fracode(path):
    foreign = {
        name
        for name in _top_level_imports(path)
        if name not in sys.stdlib_module_names and name not in ALLOWED
    }
    assert not foreign, f"{path.name} imports {sorted(foreign)}"


def test_the_check_sees_a_foreign_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import math\nfrom scipy.special import gamma\nfrom . import cli\n")
    assert _top_level_imports(probe) == {"math", "scipy"}
