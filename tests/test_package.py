"""Checks on the package source as a whole."""
import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "margo"


def test_the_package_imports_only_the_standard_library():
    # pyproject.toml lists no runtime dependencies: every import of every
    # module is relative or names a standard-library module
    paths = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "__init__.py" in paths
    outside = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [(path.name, name) for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []
