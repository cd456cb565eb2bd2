"""numpy is the library's only runtime dependency, and each job has one home."""

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


def _parses_a_string(node, name):
    """True for the test isinstance(<name>, str) of a spec-string parse."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2
            and isinstance(node.args[0], ast.Name) and node.args[0].id == name
            and isinstance(node.args[1], ast.Name) and node.args[1].id == "str")


def _names_a_value(node):
    """True for a bare name or a field self.<name>."""
    return (isinstance(node, ast.Name) or isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "self")


def test_only_errors_casts_a_parameter_to_float():
    # float(x), int(x) and complex(x) take a bool, and float and complex
    # parse a string, so a value cast that way skips the gates; a cast of
    # a name (a parameter, a loop or comprehension variable, a local) or
    # of a self.<field> is one.  cli.py parses its own text, and parsing
    # a spec string first, float(x) if isinstance(x, str) else x, is no
    # cast of a number
    offences = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name in {"errors.py", "cli.py"}:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        parses = {id(node.body) for node in ast.walk(tree)
                  if isinstance(node, ast.IfExp) and isinstance(node.body, ast.Call)
                  and node.body.args and isinstance(node.body.args[0], ast.Name)
                  and _parses_a_string(node.test, node.body.args[0].id)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in {"int", "float", "complex"}
                    and any(map(_names_a_value, node.args)) and id(node) not in parses):
                offences.add((path.name, node.lineno, ast.unparse(node)))
    assert sorted(offences) == []


def _modules_naming(name):
    """Modules that name `name`: as a name, attribute, import, definition or string."""
    named = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Name) and node.id == name
                    or isinstance(node, ast.Attribute) and node.attr == name
                    or isinstance(node, ast.alias) and node.name == name
                    or isinstance(node, ast.FunctionDef) and node.name == name
                    or isinstance(node, ast.Constant) and node.value == name):
                named.add(path.name)
    return named


def test_only_the_window_asks_the_sieve_for_a_window():
    # operator.Window builds every truncation window; smooth_indices is
    # otherwise named only where it is defined and exported
    assert _modules_naming("smooth_indices") == {"sieve.py", "operator.py", "__init__.py"}


def test_only_the_sieve_knows_its_range():
    # the sieve checks its index range MAX_INDEX where it factors, and the
    # CLI stamps sieve_limit() into config_hash; Window.truncation is the
    # one check of the DENSE_CAP rows of a dense window
    sieve_range = _modules_naming("MAX_INDEX") | _modules_naming("sieve_limit")
    assert sieve_range <= {"sieve.py", "__init__.py", "cli.py"}
    assert _modules_naming("DENSE_CAP") <= {"operator.py", "__init__.py"}


def _process_caches(path):
    """functools.lru_cache and functools.cache, imported or named, in one module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [alias.name for alias in node.names
                      if alias.name in {"lru_cache", "cache"}]
        elif (isinstance(node, ast.Attribute) and node.attr in {"lru_cache", "cache"}
              and isinstance(node.value, ast.Name) and node.value.id == "functools"):
            found.append(node.attr)
    return found


def test_only_the_window_memo_lives_for_the_process():
    # Window.truncation's memo of window structure is the one cache that
    # outlives a call; any other would hold data past the call that made it
    users = {path.name for path in sorted(SRC.glob("*.py")) if _process_caches(path)}
    assert users == {"operator.py"}


def test_only_bounds_knows_the_rounding_model():
    # bounds.py proves every certified number: the unit roundoff and the
    # rounding factors built on it are named nowhere else
    for name in ("_UNIT", "_gamma", "_cholesky_slack"):
        assert _modules_naming(name) == {"bounds.py"}, name


def test_only_the_cli_renders_output():
    # the library returns data and cli.py turns it into text: no other
    # module serializes with json.dumps or defines a CSV writer (core's
    # sequence file format reads and writes with json.load and json.dump)
    offences = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Attribute) and node.attr == "dumps"
                    and isinstance(node.value, ast.Name) and node.value.id == "json"
                    or isinstance(node, ast.ImportFrom) and node.module == "json"
                    and any(alias.name == "dumps" for alias in node.names)):
                offences.append((path.name, node.lineno, "json.dumps"))
            elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and "csv" in node.name.lower()):
                offences.append((path.name, node.lineno, node.name))
    assert offences == []
