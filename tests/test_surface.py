"""The public surface: every exported name exists, and every function that
perfbench/tracer.py wraps still resolves, so a deletion cannot silently break
`perfbench/run.py --trace 1`."""

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
