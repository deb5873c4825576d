"""Every name a module imports is referenced in that module, every private
function of the package is referenced outside its definition, no module of
the package imports dataclasses, only the command line writes to standard
output, nothing in the package starts a process or a thread, every
function a benchmark metric reads stays public, and only Record has an
unchecked constructor."""

import ast
import collections
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*ROOT.glob("src/strataglue/*.py"),
                  *ROOT.glob("tests/*.py")])


def unused_imports(path):
    """Imported names of the module that no Name node reads, with lines."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    # an attribute chain such as os.path starts with the Name os
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_no_unused_imports():
    found = {path.relative_to(ROOT).as_posix(): unused_imports(path)
             for path in MODULES}
    assert len(found) > 10
    assert {path: names for path, names in found.items() if names} == {}


def imported_modules(path):
    """The modules that the module's import statements name."""
    tree = ast.parse(path.read_text(), str(path))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.add(node.module)
    return found


def test_package_does_not_import_dataclasses():
    # records subclass strataglue.Record: dataclasses would cost every
    # command the start-up that tests/test_cli.py checks
    paths = sorted(ROOT.glob("src/strataglue/*.py"))
    assert len(paths) > 5
    assert [path.name for path in paths
            if "dataclasses" in imported_modules(path)] == []


def stdout_writes(path):
    """Lines of the module that call print or name sys.stdout."""
    tree = ast.parse(path.read_text(), str(path))
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "print"
        or isinstance(node, ast.Attribute) and node.attr == "stdout"
        and isinstance(node.value, ast.Name) and node.value.id == "sys")


def test_only_the_cli_writes_to_stdout():
    # a module that printed at import would corrupt the output of every
    # command and of any program reading JSON from one
    found = {path.name: stdout_writes(path)
             for path in sorted(ROOT.glob("src/strataglue/*.py"))}
    assert found.pop("cli.py")
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_package_starts_no_process_or_thread():
    starters = {"subprocess", "threading", "multiprocessing"}
    found = {path.name: starters & {name.split(".")[0]
                                    for name in imported_modules(path)}
             for path in sorted(ROOT.glob("src/strataglue/*.py"))}
    assert len(found) > 5
    assert {name: names for name, names in found.items() if names} == {}


def referenced_names(node):
    """The names that the Name and Attribute nodes under node read."""
    return collections.Counter(
        n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_private_function_is_referenced():
    # a module-level _name function is a helper of the package: some line
    # of src/ other than its own definition must refer to it
    trees = [ast.parse(path.read_text(), str(path))
             for path in sorted(ROOT.glob("src/strataglue/*.py"))]
    everywhere = sum(map(referenced_names, trees), collections.Counter())
    helpers = [node for tree in trees for node in tree.body
               if isinstance(node, ast.FunctionDef)
               and node.name.startswith("_")]
    assert len(helpers) > 20
    assert [node.name for node in helpers
            if everywhere[node.name] == referenced_names(node)[node.name]
            ] == []


def metric_functions():
    """(module, function) for each function that a per-layer metric of
    BENCHMARK.json reads: the one its name gives (layer.function.kind), or
    the one perfbench/worker.py's DERIVED_FROM gives for a derived metric."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    worker = ast.parse((ROOT / "perfbench" / "worker.py").read_text())
    derived = next(
        ast.literal_eval(node.value) for node in worker.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["DERIVED_FROM"])
    found = set()
    for metric in spec["per_layer"]:
        name = metric["name"]
        layer, _, rest = name.partition(".")
        function = rest.rpartition(".")[0]
        if function:
            found.add((layer, function))
        if name in derived:
            found.add(tuple(derived[name].split(".")))
    return found


def traced_functions(path):
    """The names the benchmark tracer wraps in a module: its public
    functions and the public plain (undecorated) methods of its public
    classes."""
    tree = ast.parse(path.read_text(), str(path))
    names = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            body = [node]
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            body = [n for n in node.body if isinstance(n, ast.FunctionDef)]
        else:
            continue
        names.update(n.name for n in body
                     if not n.name.startswith("_") and not n.decorator_list)
    return names


def test_every_metric_function_stays_public():
    # a metric whose function is gone or private reads absent, and the
    # traced run's result no longer names every per-layer metric
    wanted = metric_functions()
    assert len(wanted) > 25 and ("dm_strata", "dm_report") in wanted
    traced = {}
    for module, _ in wanted:
        path = ROOT / "src" / "strataglue" / (module + ".py")
        traced[module] = traced_functions(path) if path.exists() else set()
    assert sorted((module, function) for module, function in wanted
                  if function not in traced[module]) == []


def classes_defining(name):
    """The classes of the package whose own body defines the method."""
    return sorted(
        node.name for path in sorted(ROOT.glob("src/strataglue/*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(n, ast.FunctionDef) and n.name == name
                for n in node.body))


def test_record_holds_the_one_unchecked_constructor():
    # a record class copies no Record code; GraphClass narrows what
    # equality means to its key
    assert classes_defining("_of") == ["Record"]
    assert classes_defining("_compared") == ["GraphClass", "Record"]
