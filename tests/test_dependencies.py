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


def _number_type(node):
    """True for bool, int, float, complex, or any np./numpy./numbers. attribute."""
    if isinstance(node, ast.Name):
        return node.id in {"bool", "int", "float", "complex"}
    return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in {"np", "numpy", "numbers"})


def test_only_errors_decides_what_a_number_is():
    # errors.py holds the integer, index-array and real gates; any other
    # module that tests a value's type against a number type, or imports
    # numbers, is making its own input check
    offences = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Import) and any(a.name == "numbers" for a in node.names)
                    or isinstance(node, ast.ImportFrom) and node.module == "numbers"):
                offences.append((path.name, node.lineno, "import numbers"))
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "isinstance" and len(node.args) == 2):
                types = node.args[1]
                types = types.elts if isinstance(types, ast.Tuple) else [types]
                if any(map(_number_type, types)):
                    offences.append((path.name, node.lineno, ast.unparse(node)))
    assert offences == []
