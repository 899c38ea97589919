"""The public API: one declaration per name, and the benchmark harness's
bindings to it.

The package re-exports every library module's ``__all__``; the CLI
module is the entry point and is not re-exported. ``benchmarks/tracing.py``
wraps layer functions by name and ``benchmarks/verify.py`` calls the
library directly, so a rename that breaks either shows here, in the
tier-1 suite, rather than only when the benchmark runs.
"""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import tunnelclock
from tunnelclock import cli, errors

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
NOT_REEXPORTED = {"cli", "__main__"}


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(f"_loaded_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _library_modules():
    names = sorted(info.name for info in pkgutil.iter_modules(tunnelclock.__path__))
    return [importlib.import_module(f"tunnelclock.{name}")
            for name in names if name not in NOT_REEXPORTED]


def test_package_all_is_the_union_of_module_alls():
    declared = [name for module in _library_modules() for name in module.__all__]
    assert len(set(declared)) == len(declared)
    assert len(set(tunnelclock.__all__)) == len(tunnelclock.__all__)
    assert set(tunnelclock.__all__) == set(declared) | {"__version__"}


def test_every_exported_name_resolves_to_its_module_object():
    for module in _library_modules():
        for name in module.__all__:
            assert getattr(tunnelclock, name) is getattr(module, name), name
    assert isinstance(tunnelclock.__version__, str)


def _called_name(node):
    """The name a raise or a warn argument refers to: Name, Name(...)."""
    if isinstance(node, ast.Call):
        node = node.func
    return node.id if isinstance(node, ast.Name) else None


def test_every_declared_error_is_raised_and_the_warning_warned():
    raised, warned = set(), set()
    for path in Path(tunnelclock.__path__[0]).glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised.add(_called_name(node.exc))
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "warn"):
                categories = node.args[1:2] + [k.value for k in node.keywords
                                               if k.arg == "category"]
                warned.update(map(_called_name, categories))
    declared = {name: getattr(errors, name) for name in errors.__all__}
    exceptions = {name for name, kind in declared.items() if not issubclass(kind, Warning)}
    assert exceptions <= raised, exceptions - raised
    assert set(declared) - exceptions == {"CouplingWarning"} <= warned


def _keeps_exception(node) -> bool:
    """Whether node treats an exception as a value: an isinstance test
    against Exception or BaseException, or a handler that returns, assigns
    or appends the exception it catches."""
    if isinstance(node, ast.Call) and _called_name(node) == "isinstance" and len(node.args) == 2:
        kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
        return bool({_called_name(kind) for kind in kinds} & {"Exception", "BaseException"})
    if not (isinstance(node, ast.ExceptHandler) and node.name):
        return False
    for inner in ast.walk(node):
        if isinstance(inner, (ast.Return, ast.Assign, ast.AnnAssign)):
            values = [inner.value]
        elif (isinstance(inner, ast.Call) and isinstance(inner.func, ast.Attribute)
              and inner.func.attr == "append"):
            values = inner.args
        else:
            continue
        if any(isinstance(v, ast.Name) and v.id == node.name for v in values):
            return True
    return False


def test_no_exception_is_kept_as_a_value():
    # An error raises where it happens; none is stored to be raised later.
    kept = [(path.name, node.lineno)
            for path in Path(tunnelclock.__path__[0]).glob("*.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if _keeps_exception(node)]
    assert kept == []


def test_tracing_harness_binds_every_layer_function():
    tracing = _load(BENCHMARKS / "tracing.py")
    for module_name, function in tracing.LAYER_FUNCTIONS:
        module = importlib.import_module(f"tunnelclock.{module_name}")
        assert callable(getattr(module, function)), (module_name, function)
        assert function in module.__all__, (module_name, function)


def test_verify_accepts_a_double_barrier_times_output(capsys):
    verify = _load(BENCHMARKS / "verify.py")
    argv = ["times", "--E", "0.01", "--V0", "0.018", "--a", "10", "--d", "10"]
    assert cli.main(argv) == 0
    text = capsys.readouterr().out
    assert verify.failure(argv, text) is None
    # A t_whole one percent off must be caught, or the check shows nothing.
    header, row = text.splitlines()[-2:]
    values = row.split(",")
    column = header.split(",").index("t_whole")
    values[column] = repr(float(values[column]) * 1.01)
    assert verify.failure(argv, text.replace(row, ",".join(values))) is not None
