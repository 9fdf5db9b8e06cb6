"""The public surface: every exported name exists and is used outside its
own definition and tests, every function that perfbench/tracer.py wraps still
resolves, so a deletion cannot silently break `perfbench/run.py --trace 1`,
every defaulted parameter is one that some call sets, and every result field
is one that program code reads."""

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
        if export not in used
    ]
    assert not unused, f"exports used by no program code: {unused}"


# report types whose fields _jsonable writes to report.json by name, through
# dataclasses.fields, so that no attribute read names them
JSON_REPORTS = {"UncertaintyReport", "BallAudit", "StepRecord", "RadiusProfile", "ObservabilityReport", "GSBound"}
# fields only tests read, kept with the reason
KEEP_FIELDS = {
    "SeriesBound.log_remainder": "tests check the certified series tail bit for bit",
    "AnalyticityReport.violations": "tests check which orders break the analyticity premise",
    "AnalyticityReport.residuals": "tests check that the Taylor remainders fall",
    "GoodBallResult.log_margins": "tests pin each order's classifier margin bit for bit",
}


def _is_dataclass(cls):
    decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
    return any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators)


def _result_fields():
    out = []
    for path in sorted((ROOT / "src" / "gsaudit").glob("*.py")):
        for cls in ast.walk(_parse(path)):
            if isinstance(cls, ast.ClassDef) and _is_dataclass(cls) and cls.name not in JSON_REPORTS:
                out += [
                    f"{cls.name}.{stmt.target.id}"
                    for stmt in cls.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                ]
    return out


def _attribute_reads(tree) -> set:
    """Every attribute name that tree reads, and as "Class.name" every
    self.<name> read inside a class: such a read uses only that class's own
    field, whatever other class has a field of the same name."""
    reads = set()

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                own = cls and isinstance(child.value, ast.Name) and child.value.id == "self"
                reads.add(f"{cls}.{child.attr}" if own else child.attr)
            visit(child, child.name if isinstance(child, ast.ClassDef) else cls)

    visit(tree, None)
    return reads


def test_every_result_field_is_read():
    # a field no program code reads is a result nobody uses: compute it where
    # it is tested, or drop it
    read = {
        name
        for folder in ("src", "scripts", "perfbench")
        for path in (ROOT / folder).rglob("*.py")
        for name in _attribute_reads(_parse(path))
    }
    fields = _result_fields()
    assert set(KEEP_FIELDS) <= set(fields), "a kept field no longer exists"
    unread = [
        name
        for name in fields
        if name not in read and name.split(".")[1] not in read and name not in KEEP_FIELDS
    ]
    assert not unread, f"result fields no program code reads: {unread}"
