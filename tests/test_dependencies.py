"""numpy is the library's only runtime dependency."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "helson"


def test_the_library_imports_only_numpy_and_the_standard_library():
    # relative imports stay inside the package; every absolute one must
    # name numpy or a standard-library module (scipy, say, would pass
    # every other test wherever it happens to be installed)
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    paths = sorted(SRC.glob("*.py"))
    assert paths
    foreign = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [(path.name, name) for name in names
                        if name.partition(".")[0] not in allowed]
    assert foreign == []
