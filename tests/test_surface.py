"""The public surface: every exported name exists and is used outside its
own definition and tests, every function that perfbench/tracer.py wraps still
resolves, so a deletion cannot silently break `perfbench/run.py --trace 1`,
and every defaulted parameter is one that some call sets."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import gsaudit

MODULES = sorted(m.name for m in pkgutil.iter_modules(gsaudit.__path__))
TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_exist(name):
    module = importlib.import_module(f"gsaudit.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"gsaudit.{name}.__all__ names missing attributes: {missing}"


def test_tracer_layers_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYERS
    for module_name, fn_name, _, _ in tracer.LAYERS:
        module = importlib.import_module(f"gsaudit.{module_name}")
        assert callable(getattr(module, fn_name, None)), f"gsaudit.{module_name}.{fn_name}"


ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "tests", "scripts", "perfbench")


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _defaulted_parameters():
    """(module, called name, parameter, positional index or None) for every
    parameter with a default in src/gsaudit. A constructor is called by its
    class name, and a method's positional index skips self."""
    out = []
    for path in sorted((ROOT / "src" / "gsaudit").glob("*.py")):
        tree = _parse(path)
        owners = {
            id(fn): cls.name
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for fn in cls.body
            if isinstance(fn, ast.FunctionDef)
        }
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            name = owners[id(fn)] if fn.name == "__init__" else fn.name
            positional = [a.arg for a in fn.args.posonlyargs + fn.args.args]
            skip = 1 if id(fn) in owners else 0
            for arg in positional[len(positional) - len(fn.args.defaults):]:
                out.append((path.stem, name, arg, positional.index(arg) - skip))
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    out.append((path.stem, name, arg.arg, None))
    return out


def _calls_by_name():
    calls = {}
    for folder in CALLER_DIRS:
        for path in (ROOT / folder).rglob("*.py"):
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                    calls.setdefault(name, []).append(node)
    return calls


def _passes(call, parameter, index):
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg is None or k.arg == parameter for k in call.keywords):
        return True
    return index is not None and len(call.args) > index


def test_every_option_is_set_by_some_call():
    # a parameter whose default no call overrides is a setting nobody sets or
    # tests: it belongs in a module constant, not in the signature
    calls = _calls_by_name()
    unset = [
        f"{module}.{function}({parameter})"
        for module, function, parameter, index in _defaulted_parameters()
        if not any(_passes(call, parameter, index) for call in calls.get(function, ()))
    ]
    assert not unset, f"parameters no call sets: {unset}"


# exports that only tests use today, each kept for a ROADMAP item that gives
# it a caller (item 5: diagonal_constant)
UNUSED_EXPORTS_KEPT = {"diagonal_constant"}


def _exports():
    return [
        (f"gsaudit.{name}", export)
        for name in MODULES
        for export in getattr(importlib.import_module(f"gsaudit.{name}"), "__all__", ())
    ]


def _program_reads():
    # a use is a name or attribute read anywhere in the program; a def, a
    # class statement, an import and the __all__ string itself are not
    used = set()
    for folder in ("src", "scripts", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    return used


def test_every_export_is_used_outside_tests():
    used = _program_reads()
    unused = [
        f"{module}.{export}"
        for module, export in _exports()
        if export not in used and export not in UNUSED_EXPORTS_KEPT
    ]
    assert not unused, f"exports used by no program code: {unused}"


def test_unused_export_exemptions_are_current():
    # an exempt name must still be exported and still have no program reader,
    # so neither a deletion nor a new caller leaves a stale exemption behind
    exported = {export for _, export in _exports()}
    stale = (UNUSED_EXPORTS_KEPT - exported) | (UNUSED_EXPORTS_KEPT & _program_reads())
    assert not stale, f"stale exemptions: {sorted(stale)}"
